// The two Patsy workloads: a seeded trace is replayed on the simulated
// Allspice server, round after round, for the run's host-time budget. Every
// round builds a fresh system and replays the same trace.
//
// Round 0 is replayed by the benchmark's own replayer, which has the
// per-client semantics of the program's TraceReplayer but records when each
// operation was due, dispatched and completed. It gives the simulated-clock
// results and feeds the namespace model. Every later round is replayed by
// the program's TraceReplayer; the fastest of them gives the simulator's
// speed, and each must complete exactly as many operations as round 0.
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "bench.h"
#include "core/random.h"
#include "checks.h"
#include "layers.h"
#include "patsy/patsy.h"
#include "trace/replayer.h"
#include "workload/generator.h"

namespace perfbench {
namespace {

using pfs::Duration;
using pfs::Fd;
using pfs::Result;
using pfs::Status;
using pfs::Task;
using pfs::TimePoint;
using pfs::TraceOp;
using pfs::TraceRecord;

struct Workload {
  pfs::SystemConfig config;
  std::vector<TraceRecord> records;
  Duration bound;  // simulated time the replay may take
};

// How long after the trace's last due time a healthy replay has to finish.
constexpr Duration kDrainTime = Duration::Seconds(60);

Duration LastDue(const std::vector<TraceRecord>& records) {
  int64_t last = 0;
  for (const TraceRecord& r : records) {
    last = std::max(last, r.time_us);
  }
  return Duration::Micros(last);
}

Workload MakeWorkload(const std::string& name, uint64_t seed) {
  Workload w;
  w.config = pfs::SystemConfig::AllspiceSim();
  // The seed of the simulator itself: its scheduler picks among runnable
  // threads at random (the paper's policy).
  w.config.seed = seed;
  if (name == "sprite-writedelay") {
    // The paper's baseline: the office/development trace under the
    // 30-second write-delay policy. The trace is the 1a calibration with its
    // own generator seed (101), not the run's: the write-back stall this
    // trace runs into then leaves the same operations unfinished on every
    // run, whatever the simulator's seed.
    const pfs::WorkloadParams p = pfs::WorkloadParams::SpriteLike("1a", 1.0);
    w.records = pfs::GenerateWorkload(p);
    w.config.flush_policy = "write-delay";
  } else {
    // §5.2's hand-crafted burst shape under whole-file NVRAM: a burst of 3 to
    // 5 MiB every 10 s from one client against steady reads from another.
    // Live data stays below 30 bursts x 5 MiB = 150 MiB, well inside /fs0.
    pfs::BurstWorkloadParams p;
    p.seed = seed;
    p.duration = Duration::Minutes(5);
    p.burst_interval = Duration::Seconds(10);
    p.burst_bytes = 5 * pfs::kMiB;
    p.io_chunk_kb = 64;
    p.background_reads_per_sec = 8.0;
    p.background_files = 64;
    // The generator's bursts are all alike, on a fixed 10 s grid: give each
    // burst (the writing client 0's open..close group) a seeded size and a
    // seeded 0-2 s delay, so the seed also decides where bursts fall against
    // the background reads.
    pfs::Rng rng(seed);
    int64_t shift_us = 0;
    uint64_t size = 0;
    for (TraceRecord& r : pfs::GenerateBurstWorkload(p)) {
      if (r.client == 0) {
        if (r.op == TraceOp::kOpen) {
          shift_us = static_cast<int64_t>(rng.NextBelow(2000000));
          size = 3 * pfs::kMiB + rng.NextBelow(33) * 64 * pfs::kKiB;
        }
        if (r.op == TraceOp::kWrite && r.offset >= size) {
          continue;
        }
        if (r.time_us >= 0) {
          r.time_us += shift_us;
        }
      }
      w.records.push_back(std::move(r));
    }
    w.config.flush_policy = "nvram-whole";
  }
  pfs::SynthesizeMissingTimes(&w.records);
  w.bound = LastDue(w.records) + kDrainTime;
  return w;
}

struct Op {
  const TraceRecord* record = nullptr;
  int64_t due_ns = 0;
  int64_t dispatch_ns = -1;
  int64_t done_ns = -1;
  bool ok = false;
};

// Replays a trace with one thread of control per trace client, as the
// paper's replayer does, recording for every operation when it was due,
// dispatched and completed.
class Replayer {
 public:
  Replayer(pfs::Scheduler* sched, pfs::ClientInterface* client,
           const std::vector<TraceRecord>& records)
      : sched_(sched), client_(client) {
    for (const TraceRecord& r : records) {
      per_client_[r.client].push_back(Op{&r});
    }
    for (auto& [id, ops] : per_client_) {
      std::stable_sort(ops.begin(), ops.end(), [](const Op& a, const Op& b) {
        return a.record->time_us < b.record->time_us;
      });
    }
  }

  void Start() {
    start_ = sched_->Now();
    for (auto& [id, ops] : per_client_) {
      for (Op& op : ops) {
        const int64_t at_us = std::max<int64_t>(0, op.record->time_us);
        op.due_ns = (start_ + Duration::Micros(at_us)).nanos();
      }
      sched_->Spawn("bench.client." + std::to_string(id), ClientThread(id));
    }
  }

  bool done() const { return finished_clients_ == per_client_.size(); }
  TimePoint start() const { return start_; }
  const std::map<uint32_t, std::vector<Op>>& ops() const { return per_client_; }
  // Indices (client, position) of completed operations in completion order.
  const std::vector<std::pair<uint32_t, size_t>>& completion_order() const {
    return completed_;
  }

 private:
  Task<Result<Fd>> FdFor(uint32_t client, const std::string& path, bool create) {
    const auto key = std::make_pair(client, path);
    auto it = open_fds_.find(key);
    if (it != open_fds_.end()) {
      co_return it->second;
    }
    pfs::OpenOptions options;
    options.create = create;
    auto fd_or = co_await client_->Open(path, options);
    if (!fd_or.ok() && fd_or.code() == pfs::ErrorCode::kNotFound && !create) {
      options.create = true;
      fd_or = co_await client_->Open(path, options);
    }
    PFS_CO_RETURN_IF_ERROR(fd_or.status());
    open_fds_[key] = *fd_or;
    co_return *fd_or;
  }

  Task<Status> Dispatch(uint32_t client, const TraceRecord& r) {
    switch (r.op) {
      case TraceOp::kOpen: {
        auto fd_or = co_await FdFor(client, r.path, r.create);
        co_return fd_or.status();
      }
      case TraceOp::kClose: {
        auto it = open_fds_.find(std::make_pair(client, r.path));
        if (it == open_fds_.end()) {
          co_return pfs::OkStatus();
        }
        const Fd fd = it->second;
        open_fds_.erase(it);
        co_return co_await client_->Close(fd);
      }
      case TraceOp::kRead: {
        PFS_CO_ASSIGN_OR_RETURN(const Fd fd, co_await FdFor(client, r.path, false));
        auto n = co_await client_->Read(fd, r.offset, r.length, {});
        co_return n.status();
      }
      case TraceOp::kWrite: {
        PFS_CO_ASSIGN_OR_RETURN(const Fd fd, co_await FdFor(client, r.path, true));
        auto n = co_await client_->Write(fd, r.offset, r.length, {});
        co_return n.status();
      }
      case TraceOp::kStat: {
        auto attrs = co_await client_->Stat(r.path);
        co_return attrs.status();
      }
      case TraceOp::kUnlink: {
        auto it = open_fds_.find(std::make_pair(client, r.path));
        if (it != open_fds_.end()) {
          const Fd fd = it->second;
          open_fds_.erase(it);
          (void)co_await client_->Close(fd);
        }
        co_return co_await client_->Unlink(r.path);
      }
      case TraceOp::kTruncate: {
        PFS_CO_ASSIGN_OR_RETURN(const Fd fd, co_await FdFor(client, r.path, true));
        co_return co_await client_->Truncate(fd, r.length);
      }
      case TraceOp::kMkdir:
        co_return co_await client_->Mkdir(r.path);
      case TraceOp::kRmdir:
        co_return co_await client_->Rmdir(r.path);
      case TraceOp::kRename:
        co_return co_await client_->Rename(r.path, r.path2);
    }
    co_return Status(pfs::ErrorCode::kUnsupported, "unhandled op");
  }

  Task<> ClientThread(uint32_t client) {
    std::vector<Op>& ops = per_client_[client];
    for (size_t i = 0; i < ops.size(); ++i) {
      Op& op = ops[i];
      const TimePoint due = TimePoint::FromNanos(op.due_ns);
      if (due > sched_->Now()) {
        co_await sched_->SleepUntil(due);
      }
      op.dispatch_ns = sched_->Now().nanos();
      const Status status = co_await Dispatch(client, *op.record);
      op.done_ns = sched_->Now().nanos();
      op.ok = status.ok();
      completed_.emplace_back(client, i);
    }
    // Close whatever the trace left open, as the paper's replayer does.
    std::vector<std::pair<uint32_t, std::string>> keys;
    for (const auto& [key, fd] : open_fds_) {
      if (key.first == client) {
        keys.push_back(key);
      }
    }
    for (const auto& key : keys) {
      const Fd fd = open_fds_[key];
      open_fds_.erase(key);
      (void)co_await client_->Close(fd);
    }
    ++finished_clients_;
  }

  pfs::Scheduler* sched_;
  pfs::ClientInterface* client_;
  TimePoint start_;
  std::map<uint32_t, std::vector<Op>> per_client_;
  std::map<std::pair<uint32_t, std::string>, Fd> open_fds_;
  std::vector<std::pair<uint32_t, size_t>> completed_;
  size_t finished_clients_ = 0;
};

// Stats every path in `paths` and records size or absence.
Task<> StatAll(pfs::ClientInterface* client, std::vector<std::string> paths,
               std::map<std::string, Observed>* out, bool* done) {
  for (const std::string& path : paths) {
    auto attrs = co_await client->Stat(path);
    if (attrs.ok()) {
      (*out)[path] = attrs->size;
    } else {
      (*out)[path] = std::nullopt;
    }
  }
  *done = true;
}

// The simulated results of round 0.
struct SimResults {
  uint64_t completed = 0;
  uint64_t errors = 0;
  uint64_t unfinished = 0;
  double read_mean_ms = 0;
  double write_mean_ms = 0;
  double p99_ms = 0;
  double lateness_ms = 0;
  uint64_t user_bytes = 0;
  uint64_t device_bytes = 0;
};

struct Round {
  SimResults sim;
  double replay_start_host = 0;  // HostNow() when the replay began
};

// A freshly built and set-up Allspice system for one round, or nullptr after
// recording the failure in `out`.
std::unique_ptr<pfs::System> BuildSystem(const Workload& w, bool traced, RunResult* out) {
  pfs::SystemConfig config = w.config;
  config.trace.enabled = traced;
  auto system_or = pfs::SystemBuilder::Build(config);
  if (!system_or.ok()) {
    out->Fail("build: " + system_or.status().ToString());
    return nullptr;
  }
  std::unique_ptr<pfs::System> system = std::move(system_or).value();
  const Status setup = system->Setup();
  if (!setup.ok()) {
    out->Fail("setup: " + setup.ToString());
    return nullptr;
  }
  return system;
}

// Builds a fresh system, replays the trace on it and checks the outcome.
// With `traced`, spans are recorded and client calls timed; `layers` then
// receives the per-layer metrics.
Round RunRound(const Workload& w, bool traced, RunResult* out, RunResult* layers) {
  Round round;
  std::unique_ptr<pfs::System> system = BuildSystem(w, traced, out);
  if (system == nullptr) {
    return round;
  }

  pfs::Scheduler* sched = system->scheduler();
  TimedClient timed(sched, system->client());
  pfs::ClientInterface* client = system->client();
  if (traced) {
    client = &timed;
  }
  Replayer replayer(sched, client, w.records);

  round.replay_start_host = HostNow();
  replayer.Start();
  const TimePoint end = replayer.start() + w.bound;
  while (!replayer.done() && sched->Now() < end) {
    system->RunForDuration(std::min(Duration::Seconds(1), end - sched->Now()));
  }
  const TimePoint stop = sched->Now();

  // -- simulated-clock results --
  SimResults& sim = round.sim;
  std::vector<double> reads, writes, all;
  double lateness_ns = 0;
  uint64_t dispatched = 0;
  std::set<std::string> busy_paths;  // touched by an operation that did not finish
  bool inject_early = g_inject == "early-done";
  for (const auto& [id, ops] : replayer.ops()) {
    for (const Op& op : ops) {
      const bool finished = op.done_ns >= 0;
      const int64_t end_ns = finished ? op.done_ns : stop.nanos();
      const double ms = static_cast<double>(end_ns - op.due_ns) / 1e6;
      all.push_back(ms);
      if (op.record->op == TraceOp::kRead) {
        reads.push_back(ms);
      } else if (op.record->op == TraceOp::kWrite) {
        writes.push_back(ms);
      }
      if (op.dispatch_ns >= 0) {
        ++dispatched;
        lateness_ns += static_cast<double>(op.dispatch_ns - op.due_ns);
      }
      if (!finished) {
        ++sim.unfinished;
        busy_paths.insert(op.record->path);
        if (op.record->op == TraceOp::kRename) {
          busy_paths.insert(op.record->path2);
        }
      } else if (!op.ok) {
        ++sim.errors;
      } else {
        ++sim.completed;
        if (op.record->op == TraceOp::kWrite) {
          sim.user_bytes += op.record->length;
        }
      }
      // The client slept until the operation was due, so this holds unless
      // the scheduler woke it early or its clock ran backwards.
      int64_t due_ns = op.due_ns;
      if (finished && inject_early) {
        due_ns = op.done_ns + 1;
        inject_early = false;
      }
      if (finished && op.done_ns < due_ns) {
        out->Fail("an operation of client " + std::to_string(id) +
                  " completed before it was due");
      }
    }
  }
  sim.read_mean_ms = Mean(reads);
  sim.write_mean_ms = Mean(writes);
  sim.p99_ms = Quantile(all, 0.99);
  sim.lateness_ms = dispatched == 0 ? 0.0 : lateness_ns / dispatched / 1e6;
  sim.device_bytes = LayoutLogBytes(*system);

  // -- correctness: namespace model, byte chain --
  NamespaceModel model;
  for (const auto& [client_id, index] : replayer.completion_order()) {
    const Op& op = replayer.ops().at(client_id)[index];
    if (op.ok) {
      model.Apply(*op.record);
    }
  }
  std::vector<std::string> paths;
  for (const std::string& p : model.universe()) {
    if (!busy_paths.contains(p)) {
      paths.push_back(p);
    }
  }
  std::map<std::string, Observed> observed;
  bool stat_done = false;
  sched->Spawn("bench.check", StatAll(system->client(), paths, &observed, &stat_done));
  for (int i = 0; i < 600 && !stat_done; ++i) {
    system->RunForDuration(Duration::Seconds(1));
  }
  if (!stat_done) {
    out->Fail("namespace check: Stat calls did not finish within 600 simulated seconds");
  }
  if (g_inject == "ns-size") {
    for (const auto& [path, size] : observed) {
      if (size.has_value()) {
        model.SetSizeForTest(path, *size + 1);
        break;
      }
    }
  }
  for (const std::string& e : CheckNamespace(model, observed)) {
    out->Fail("namespace model: " + e);
  }
  uint64_t bus_bytes = 0;
  for (const auto& b : system->busses()) {
    bus_bytes += b->bytes_transferred();
  }
  const uint64_t cleaned = CacheCleanedBytes(*system);
  uint64_t device_bytes = sim.device_bytes;
  if (g_inject == "byte-chain") {
    device_bytes = std::min(device_bytes, cleaned - 1);
  }
  for (const std::string& e : CheckByteChain(cleaned, device_bytes, bus_bytes)) {
    out->Fail("byte accounting: " + e);
  }

  if (traced && layers != nullptr) {
    AddLayerCounters(*system, sim.completed, stop - replayer.start(), layers);
    layers->Set("trace.dispatch_lateness_ms", sim.lateness_ms, "ms");
    layers->Set("client.read_us", timed.reads().MeanUs(), "us");
    layers->Set("client.write_us", timed.writes().MeanUs(), "us");
    layers->Set("client.meta_us", timed.meta().MeanUs(), "us");
    // The Patsy workloads have no NFS front end.
    layers->Set("nfs.requests", 0, "count");
    layers->Set("nfs.self_us_per_request", 0, "us");
    pfs::TraceSink* sink = system->trace_sink();
    sink->Drain();
    AddSpanSelfTimes(sink->spans(), layers);
  }
  for (int s = 0; s < system->shard_count(); ++s) {
    system->shard_scheduler(s)->DestroyAllThreads();
  }
  return round;
}

// A round replayed by the program's TraceReplayer, for the simulator's
// speed: the host time of the replay and what it completed.
struct SpeedRound {
  uint64_t completed = 0;
  uint64_t errors = 0;
  double host_s = 0;
};

SpeedRound RunSpeedRound(const Workload& w, bool traced, RunResult* out) {
  SpeedRound round;
  std::unique_ptr<pfs::System> system = BuildSystem(w, traced, out);
  if (system == nullptr) {
    return round;
  }
  pfs::Scheduler* sched = system->scheduler();
  TimedClient timed(sched, system->client());
  pfs::ClientInterface* client = system->client();
  if (traced) {
    client = &timed;
  }
  pfs::TraceReplayer replayer(sched, client);
  replayer.AddRecords(w.records);

  const double t_replay = HostNow();
  const TimePoint end = sched->Now() + w.bound;
  replayer.Start();
  while (replayer.ops_completed() + replayer.errors() < w.records.size() &&
         sched->Now() < end) {
    system->RunForDuration(std::min(Duration::Seconds(1), end - sched->Now()));
  }
  round.host_s = HostNow() - t_replay;
  round.completed = replayer.ops_completed();
  round.errors = replayer.errors();
  for (int s = 0; s < system->shard_count(); ++s) {
    system->shard_scheduler(s)->DestroyAllThreads();
  }
  return round;
}

}  // namespace

RunResult RunPatsyWorkload(const Options& opts) {
  RunResult out;
  const double t_start = HostNow();
  const Workload w = MakeWorkload(opts.workload, opts.seed);
  const Round first = RunRound(w, opts.trace, &out, &out);
  const SimResults& sim = first.sim;
  out.Set("setup_s", first.replay_start_host - opts.start_host, "s");

  // At least one speed round, then more until the budget is spent. Every
  // round replays the same operations on a freshly built system, so the
  // program's speed is the same in each; the fastest round is the one the
  // host slowed least. (This host slows whole processes by up to half for
  // seconds at a time; see README.md, Host noise.)
  double best_rate = 0;
  uint64_t speed_rounds = 0;
  while (out.correct && (speed_rounds == 0 || HostNow() - t_start < opts.seconds)) {
    const SpeedRound r = RunSpeedRound(w, opts.trace, &out);
    if (r.completed != sim.completed || r.errors != sim.errors) {
      out.Fail("TraceReplayer round " + std::to_string(speed_rounds + 1) + " completed " +
               std::to_string(r.completed) + " operations with " +
               std::to_string(r.errors) + " errors; round 0 completed " +
               std::to_string(sim.completed) + " with " + std::to_string(sim.errors));
    }
    best_rate = std::max(best_rate, Ratio(r.completed, r.host_s));
    ++speed_rounds;
  }

  const uint64_t rounds = 1 + speed_rounds;
  out.attempted = rounds * w.records.size();
  out.failed = rounds * (sim.unfinished + sim.errors);
  out.Set("ops_per_s", best_rate, "1/s");
  out.Set("read_latency_ms", sim.read_mean_ms, "ms");
  out.Set("write_latency_ms", sim.write_mean_ms, "ms");
  out.Set("latency_p99_ms", sim.p99_ms, "ms");
  out.Set("device_bytes_per_user_byte", Ratio(sim.device_bytes, sim.user_bytes), "ratio");
  out.Set("peak_rss_mib", PeakRssMiB(), "MiB");
  out.Set("rounds", static_cast<double>(rounds), "count");
  return out;
}

}  // namespace perfbench
