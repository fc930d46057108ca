// The pfs-online workload: the file-backed on-line server on the real clock,
// moving real bytes. One disk image, LFS, an 8 MiB cache under write-delay
// and the thread-pool I/O engine, all on one CPU.
//
// Set-up formats the image and preloads a working set of about four times
// the cache. The timed phase runs four closed-loop clients as coroutines on
// the server's scheduler: whole-file reads and whole-file rewrites through
// LocalClient, Stat and ReadDir through the NFS front end (NfsClient ->
// loopback -> NfsServer). Every read is compared with the bytes the
// benchmark last wrote. Afterwards the server syncs, is torn down, and is
// started again on the same image without formatting; every file and every
// directory listing must then match the benchmark's model.
#include <sched.h>

#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench.h"
#include "checks.h"
#include "core/random.h"
#include "layers.h"
#include "nfs/nfs.h"
#include "system/system_builder.h"

namespace perfbench {
namespace {

using pfs::Duration;
using pfs::Fd;
using pfs::Status;
using pfs::Task;
using pfs::TimePoint;

constexpr uint64_t kCacheBytes = 8 * pfs::kMiB;
constexpr uint64_t kWorkingSetBytes = 4 * kCacheBytes;
constexpr uint64_t kMinFileBytes = 2 * pfs::kKiB;
constexpr uint64_t kMaxFileBytes = 48 * pfs::kKiB;
constexpr uint64_t kFilesPerDir = 32;
constexpr int kClients = 4;
// The preload syncs after each batch of this many bytes. Writing the whole
// working set through the cache in one go makes some seeds (3 and 5, for
// one) wait about 30 s for cache space in set-up: an allocation waits for
// the asynchronous flusher, which does not wake it, until the write-delay
// scanner cleans aged blocks (see CHANGES.md).
constexpr uint64_t kPreloadBatchBytes = kCacheBytes / 2;
// Per-operation samples are reserved for this rate up front. Reserved pages
// stay untouched until used, so the samples add to peak_rss_mib in step with
// the operations run, not in the jumps of a vector doubling its capacity.
constexpr double kMaxOpsPerSecond = 100000;

struct FileSpec {
  std::string path;
  uint64_t dir = 0;
  uint64_t size = 0;
  Fd fd = -1;
};

struct Population {
  std::vector<FileSpec> files;
  std::vector<std::string> dirs;
  std::vector<std::set<std::string>> dir_names;  // model listing per directory
};

Population MakePopulation(uint64_t seed) {
  Population pop;
  pfs::Rng rng(seed ^ 0x5eedf11e5ULL);
  uint64_t total = 0;
  while (total < kWorkingSetBytes) {
    FileSpec f;
    const uint64_t id = pop.files.size();
    f.dir = id / kFilesPerDir;
    if (f.dir == pop.dirs.size()) {
      char name[32];
      std::snprintf(name, sizeof(name), "/fs0/d%03llu",
                    static_cast<unsigned long long>(f.dir));
      pop.dirs.push_back(name);
      pop.dir_names.emplace_back();
    }
    char name[32];
    std::snprintf(name, sizeof(name), "f%05llu", static_cast<unsigned long long>(id));
    f.path = pop.dirs[f.dir] + "/" + name;
    pop.dir_names[f.dir].insert(name);
    f.size = kMinFileBytes + rng.NextBelow(kMaxFileBytes - kMinFileBytes + 1);
    total += f.size;
    pop.files.push_back(f);
  }
  return pop;
}

pfs::SystemConfig MakeConfig(const Options& opts, bool format) {
  pfs::SystemConfig config = pfs::SystemConfig::OnlineDefaults();
  config.seed = opts.seed;
  config.image_path = opts.workdir + "/pfs-online.img";
  config.image_bytes = 192 * pfs::kMiB;
  config.format = format;
  config.cache_bytes = kCacheBytes;
  config.flush_policy = "write-delay";
  config.io_engine = "threadpool";
  config.io_threads = 2;  // with the scheduler's own thread: 3 OS threads
  config.trace.enabled = opts.trace && format;
  return config;
}

// Keeps this process, and so every thread the server starts, on one CPU:
// the highest-numbered one it may use. Each cache miss hands its read to an
// I/O thread and back. Across CPUs every handoff waits for the host to wake
// the other CPU: that made operations 16 to 45 % slower and tied throughput
// to the host's load (README.md, Host noise). On one CPU a handoff is a
// context switch.
void PinToOneCpu() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    return;
  }
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      sched_setaffinity(0, sizeof(one), &one);
      return;
    }
  }
}

struct Shared {
  const Options* opts = nullptr;
  Population* pop = nullptr;
  ContentModel* model = nullptr;
  RunResult* out = nullptr;
  pfs::Scheduler* sched = nullptr;
  pfs::ClientInterface* data = nullptr;  // reads and writes
  pfs::ClientInterface* meta = nullptr;  // Stat and ReadDir, over NFS
  TimePoint end;
  // Per-op latencies of the timed phase, as float: exact enough for the
  // medians, and half the memory of double in peak_rss_mib.
  std::vector<float> read_ms, write_ms, all_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t user_bytes = 0;
  size_t reported = 0;  // correctness messages kept, to bound the output
  void Fail(const std::string& why) {
    if (reported++ < 20) {
      out->Fail(why);
    } else {
      out->correct = false;
    }
  }
};

void CheckErrors(Shared* sh, const std::vector<std::string>& errors) {
  for (const std::string& e : errors) {
    sh->Fail(e);
  }
}

Task<> Preload(Shared* sh, Status* result) {
  std::vector<std::byte> buf(kMaxFileBytes);
  for (const std::string& dir : sh->pop->dirs) {
    Status s = co_await sh->data->Mkdir(dir);
    if (!s.ok()) {
      *result = s;
      co_return;
    }
  }
  uint64_t batch = 0;
  for (uint64_t id = 0; id < sh->pop->files.size(); ++id) {
    FileSpec& f = sh->pop->files[id];
    pfs::OpenOptions create;
    create.create = true;
    auto fd = co_await sh->data->Open(f.path, create);
    if (!fd.ok()) {
      *result = fd.status();
      co_return;
    }
    f.fd = *fd;
    FillContent(sh->opts->seed, id, 1, buf.data(), f.size);
    auto n = co_await sh->data->Write(f.fd, 0, f.size,
                                      std::span<const std::byte>(buf.data(), f.size));
    if (!n.ok()) {
      *result = n.status();
      co_return;
    }
    sh->model->Written(id, 1);
    // Sync in batches of half the cache, so the preload never waits for the
    // cache to make space (see kPreloadBatchBytes).
    batch += f.size;
    if (batch >= kPreloadBatchBytes) {
      batch = 0;
      Status s = co_await sh->data->SyncAll();
      if (!s.ok()) {
        *result = s;
        co_return;
      }
    }
  }
  *result = co_await sh->data->SyncAll();
}

Task<> Client(Shared* sh, int c) {
  pfs::Rng rng(sh->opts->seed * kClients + static_cast<uint64_t>(c) + 1);
  std::vector<uint64_t> mine;
  for (uint64_t id = c; id < sh->pop->files.size(); id += kClients) {
    mine.push_back(id);
  }
  std::vector<std::byte> rbuf(kMaxFileBytes);
  std::vector<std::byte> wbuf(kMaxFileBytes);
  while (sh->sched->Now() < sh->end) {
    const uint64_t id = mine[rng.NextBelow(mine.size())];
    FileSpec& f = sh->pop->files[id];
    const double pick = rng.NextDouble();
    ++sh->attempted;
    const TimePoint start = sh->sched->Now();
    bool ok = true;
    int kind = 0;  // 0 read, 1 write, 2 metadata
    if (pick < 0.45) {
      auto n = co_await sh->data->Read(f.fd, 0, f.size,
                                       std::span<std::byte>(rbuf.data(), f.size));
      ok = n.ok();
      if (ok) {
        CheckErrors(sh, CheckContent(*sh->model, id, rbuf.data(), *n));
      }
    } else if (pick < 0.80) {
      kind = 1;
      const uint64_t version = sh->model->version(id) + 1;
      FillContent(sh->opts->seed, id, version, wbuf.data(), f.size);
      auto n = co_await sh->data->Write(f.fd, 0, f.size,
                                        std::span<const std::byte>(wbuf.data(), f.size));
      ok = n.ok() && *n == f.size;
      if (ok) {
        sh->model->Written(id, version);
        sh->user_bytes += f.size;
      }
    } else if (pick < 0.92) {
      kind = 2;
      auto attrs = co_await sh->meta->Stat(f.path);
      ok = attrs.ok();
      if (ok && attrs->size != sh->model->size(id)) {
        sh->Fail(f.path + ": Stat size " + std::to_string(attrs->size) + ", model " +
                 std::to_string(sh->model->size(id)));
      }
    } else {
      kind = 2;
      const uint64_t d = rng.NextBelow(sh->pop->dirs.size());
      auto entries = co_await sh->meta->ReadDir(sh->pop->dirs[d]);
      ok = entries.ok();
      if (ok) {
        std::vector<std::string> names;
        for (const pfs::DirEntry& e : *entries) {
          names.push_back(e.name);
        }
        CheckErrors(sh, CheckListing(sh->pop->dirs[d], sh->pop->dir_names[d], names));
      }
    }
    const TimePoint now = sh->sched->Now();
    if (!ok) {
      ++sh->failed;
      continue;
    }
    const float ms = static_cast<float>(static_cast<double>((now - start).nanos()) / 1e6);
    sh->all_ms.push_back(ms);
    if (kind == 0) {
      sh->read_ms.push_back(ms);
    } else if (kind == 1) {
      sh->write_ms.push_back(ms);
    }
  }
}

Task<> SyncAndClose(Shared* sh, Status* result) {
  *result = co_await sh->data->SyncAll();
  for (FileSpec& f : sh->pop->files) {
    (void)co_await sh->data->Close(f.fd);
  }
}

// After the restart: every file's size and bytes, and every listing.
Task<> Verify(Shared* sh, bool* done) {
  std::vector<std::byte> buf(kMaxFileBytes + 1);
  for (uint64_t id = 0; id < sh->pop->files.size(); ++id) {
    const FileSpec& f = sh->pop->files[id];
    auto attrs = co_await sh->data->Stat(f.path);
    if (!attrs.ok() || attrs->size != sh->model->size(id)) {
      const std::string got =
          attrs.ok() ? "size " + std::to_string(attrs->size) : attrs.status().ToString();
      sh->Fail(f.path + ": after restart, Stat " + got + ", model size " +
               std::to_string(sh->model->size(id)));
      continue;
    }
    auto fd = co_await sh->data->Open(f.path, pfs::OpenOptions{});
    if (!fd.ok()) {
      sh->Fail(f.path + ": after restart, open failed");
      continue;
    }
    auto n = co_await sh->data->Read(*fd, 0, buf.size(), std::span<std::byte>(buf));
    if (!n.ok()) {
      sh->Fail(f.path + ": after restart, read failed");
    } else {
      CheckErrors(sh, CheckContent(*sh->model, id, buf.data(), *n));
    }
    (void)co_await sh->data->Close(*fd);
  }
  for (size_t d = 0; d < sh->pop->dirs.size(); ++d) {
    auto entries = co_await sh->data->ReadDir(sh->pop->dirs[d]);
    std::vector<std::string> names;
    if (entries.ok()) {
      for (const pfs::DirEntry& e : *entries) {
        names.push_back(e.name);
      }
    }
    CheckErrors(sh, CheckListing(sh->pop->dirs[d], sh->pop->dir_names[d], names));
  }
  *done = true;
}

}  // namespace

RunResult RunOnlineWorkload(const Options& opts) {
  RunResult out;
  PinToOneCpu();
  Population pop = MakePopulation(opts.seed);
  std::vector<uint64_t> sizes;
  for (const FileSpec& f : pop.files) {
    sizes.push_back(f.size);
  }
  ContentModel model(opts.seed, std::move(sizes));
  Shared sh;
  sh.opts = &opts;
  sh.pop = &pop;
  sh.model = &model;
  sh.out = &out;

  auto system_or = pfs::SystemBuilder::Build(MakeConfig(opts, /*format=*/true));
  if (!system_or.ok()) {
    out.Fail("build: " + system_or.status().ToString());
    return out;
  }
  std::unique_ptr<pfs::System> system = std::move(system_or).value();
  Status status = system->Setup();
  if (!status.ok()) {
    out.Fail("setup: " + status.ToString());
    return out;
  }
  pfs::Scheduler* sched = system->scheduler();
  sh.sched = sched;

  // The NFS front end, with the benchmark's timers on both sides of it in the
  // traced run.
  TimedClient server_side(sched, system->client());
  pfs::NfsLoopback loopback(sched, 64);
  pfs::ClientInterface* backend = system->client();
  if (opts.trace) {
    backend = &server_side;
  }
  pfs::NfsServer nfs_server(sched, backend, &loopback, kClients);
  nfs_server.Start();
  pfs::NfsClient nfs_client(sched, &loopback);
  TimedClient nfs_side(sched, &nfs_client);
  TimedClient local_side(sched, system->client());
  sh.data = system->client();
  sh.meta = &nfs_client;

  sched->Spawn("bench.preload", Preload(&sh, &status));
  system->RunToCompletion();
  if (!status.ok()) {
    out.Fail("preload: " + status.ToString());
    system->scheduler()->DestroyAllThreads();  // before the NFS front end goes
    return out;
  }
  out.Set("setup_s", HostNow() - opts.start_host, "s");

  // -- timed phase --
  if (opts.trace) {
    sh.data = &local_side;
    sh.meta = &nfs_side;
  }
  const uint64_t log_bytes0 = LayoutLogBytes(*system);
  const uint64_t cleaned0 = CacheCleanedBytes(*system);
  const uint64_t nfs0 = nfs_server.requests_served();
  const TimePoint begin = sched->Now();
  sh.end = begin + Duration::SecondsF(opts.seconds);
  const size_t room = static_cast<size_t>(opts.seconds * kMaxOpsPerSecond);
  for (std::vector<float>* v : {&sh.read_ms, &sh.write_ms, &sh.all_ms}) {
    v->reserve(room);
  }
  for (int c = 0; c < kClients; ++c) {
    sched->Spawn("bench.client." + std::to_string(c), Client(&sh, c));
  }
  system->RunToCompletion();
  const TimePoint finish = sched->Now();
  const uint64_t nfs_requests = nfs_server.requests_served() - nfs0;

  sh.data = system->client();
  sched->Spawn("bench.sync", SyncAndClose(&sh, &status));
  system->RunToCompletion();
  if (!status.ok()) {
    out.Fail("sync: " + status.ToString());
  }
  const uint64_t device_bytes = LayoutLogBytes(*system) - log_bytes0;
  const uint64_t cleaned = CacheCleanedBytes(*system) - cleaned0;
  CheckErrors(&sh, CheckByteChain(cleaned, device_bytes, std::nullopt));

  if (opts.trace) {
    AddLayerCounters(*system, sh.all_ms.size(), finish - begin, &out);
    out.Set("trace.dispatch_lateness_ms", 0, "ms");  // closed loop: nothing is due
    out.Set("client.read_us", local_side.reads().MeanUs(), "us");
    out.Set("client.write_us", local_side.writes().MeanUs(), "us");
    out.Set("client.meta_us", nfs_side.meta().MeanUs(), "us");
    out.Set("nfs.requests", static_cast<double>(nfs_requests), "count");
    const double nfs_self_ns = nfs_side.meta().ns - server_side.meta().ns;
    out.Set("nfs.self_us_per_request", Ratio(nfs_self_ns / 1e3, nfs_requests), "us");
    system->trace_sink()->Drain();
    AddSpanSelfTimes(system->trace_sink()->spans(), &out);
  }

  // -- restart on the same image, without formatting, and verify --
  // Release the suspended NFS workers' frames while the front end they wait
  // on still exists.
  system->CloseSchedulers();
  system->scheduler()->DestroyAllThreads();
  system.reset();
  if (g_inject == "flip-byte") {
    model.FlipByteForTest(0, 0);
  }
  auto again_or = pfs::SystemBuilder::Build(MakeConfig(opts, /*format=*/false));
  if (!again_or.ok()) {
    out.Fail("restart build: " + again_or.status().ToString());
    return out;
  }
  system = std::move(again_or).value();
  status = system->Setup();
  if (!status.ok()) {
    out.Fail("restart mount: " + status.ToString());
    return out;
  }
  sh.data = system->client();
  bool verified = false;
  system->scheduler()->Spawn("bench.verify", Verify(&sh, &verified));
  system->RunToCompletion();
  if (!verified) {
    out.Fail("verification after restart did not finish");
  }
  system.reset();
  std::remove(MakeConfig(opts, false).image_path.c_str());

  // -- results --
  out.attempted = sh.attempted;
  out.failed = sh.failed;
  // Every completed operation over the whole timed phase, so that a stall
  // of any length lowers the rate.
  const double seconds = static_cast<double>((finish - begin).nanos()) / 1e9;
  out.Set("ops_per_s", Ratio(static_cast<double>(sh.all_ms.size()), seconds), "1/s");
  out.Set("read_latency_ms", Median(sh.read_ms), "ms");
  out.Set("write_latency_ms", Median(sh.write_ms), "ms");
  out.Set("latency_p99_ms", Quantile(sh.all_ms, 0.99), "ms");
  out.Set("device_bytes_per_user_byte", Ratio(device_bytes, sh.user_bytes), "ratio");
  out.Set("peak_rss_mib", PeakRssMiB(), "MiB");
  return out;
}

}  // namespace perfbench
