// Per-layer measurement from outside the program: a ClientInterface wrapper
// that times calls on the scheduler's clock, the self time of each span
// stage, and the counters each layer exposes through public accessors.
#ifndef PFS_PERFBENCH_LAYERS_H_
#define PFS_PERFBENCH_LAYERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"
#include "client/client_interface.h"
#include "obs/trace.h"
#include "sched/scheduler.h"
#include "system/system_builder.h"

namespace perfbench {

// Forwards every call to `inner` and accumulates the time each call took on
// `sched`'s clock, split into reads, writes and everything else.
class TimedClient final : public pfs::ClientInterface {
 public:
  struct Totals {
    uint64_t calls = 0;
    int64_t ns = 0;
    double MeanUs() const { return Ratio(static_cast<double>(ns) / 1e3, calls); }
  };

  TimedClient(pfs::Scheduler* sched, pfs::ClientInterface* inner)
      : sched_(sched), inner_(inner) {}

  const Totals& reads() const { return reads_; }
  const Totals& writes() const { return writes_; }
  const Totals& meta() const { return meta_; }

  pfs::Task<pfs::Result<pfs::Fd>> Open(const std::string& path,
                                       pfs::OpenOptions options) override {
    return Time(&meta_, inner_->Open(path, options));
  }
  pfs::Task<pfs::Status> Close(pfs::Fd fd) override {
    return Time(&meta_, inner_->Close(fd));
  }
  pfs::Task<pfs::Result<uint64_t>> Read(pfs::Fd fd, uint64_t offset, uint64_t len,
                                        std::span<std::byte> out) override {
    return Time(&reads_, inner_->Read(fd, offset, len, out));
  }
  pfs::Task<pfs::Result<uint64_t>> Write(pfs::Fd fd, uint64_t offset, uint64_t len,
                                         std::span<const std::byte> in) override {
    return Time(&writes_, inner_->Write(fd, offset, len, in));
  }
  pfs::Task<pfs::Status> Truncate(pfs::Fd fd, uint64_t new_size) override {
    return Time(&meta_, inner_->Truncate(fd, new_size));
  }
  pfs::Task<pfs::Status> Fsync(pfs::Fd fd) override {
    return Time(&meta_, inner_->Fsync(fd));
  }
  pfs::Task<pfs::Result<pfs::FileAttrs>> FStat(pfs::Fd fd) override {
    return Time(&meta_, inner_->FStat(fd));
  }
  pfs::Task<pfs::Result<pfs::FileAttrs>> Stat(const std::string& path) override {
    return Time(&meta_, inner_->Stat(path));
  }
  pfs::Task<pfs::Status> Unlink(const std::string& path) override {
    return Time(&meta_, inner_->Unlink(path));
  }
  pfs::Task<pfs::Status> Mkdir(const std::string& path) override {
    return Time(&meta_, inner_->Mkdir(path));
  }
  pfs::Task<pfs::Status> Rmdir(const std::string& path) override {
    return Time(&meta_, inner_->Rmdir(path));
  }
  pfs::Task<pfs::Status> Rename(const std::string& from, const std::string& to) override {
    return Time(&meta_, inner_->Rename(from, to));
  }
  pfs::Task<pfs::Result<std::vector<pfs::DirEntry>>> ReadDir(
      const std::string& path) override {
    return Time(&meta_, inner_->ReadDir(path));
  }
  pfs::Task<pfs::Status> SymlinkAt(const std::string& path,
                                   const std::string& target) override {
    return Time(&meta_, inner_->SymlinkAt(path, target));
  }
  pfs::Task<pfs::Result<std::string>> ReadLink(const std::string& path) override {
    return Time(&meta_, inner_->ReadLink(path));
  }
  pfs::Task<pfs::Status> SyncAll() override { return Time(&meta_, inner_->SyncAll()); }

 private:
  // Awaits `call` (a not yet started task) and adds its duration to `t`.
  template <typename T>
  pfs::Task<T> Time(Totals* t, pfs::Task<T> call) {
    const pfs::TimePoint start = sched_->Now();
    T result = co_await std::move(call);
    ++t->calls;
    t->ns += (sched_->Now() - start).nanos();
    co_return result;
  }

  pfs::Scheduler* sched_;
  pfs::ClientInterface* inner_;
  Totals reads_;
  Totals writes_;
  Totals meta_;
};

// Adds "span.<stage>.self_ms_mean" for each of the seven stages: a span's
// duration minus the part of it covered by deeper spans of the same request.
void AddSpanSelfTimes(const std::vector<pfs::TraceSpan>& spans, RunResult* out);

// Adds the cache, layout, volume, driver, disk, bus and scheduler counters of
// `system`. `elapsed` is the span of the system clock the counters cover.
void AddLayerCounters(pfs::System& system, uint64_t ops, pfs::Duration elapsed,
                      RunResult* out);

// Bytes the cache marked clean, and the blocks the LFS layouts appended to
// their logs, summed over every file system.
uint64_t CacheCleanedBytes(pfs::System& system);
uint64_t LayoutLogBytes(pfs::System& system);

}  // namespace perfbench

#endif  // PFS_PERFBENCH_LAYERS_H_
