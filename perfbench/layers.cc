#include "layers.h"

#include <algorithm>
#include <unordered_map>

#include "layout/lfs_layout.h"

namespace perfbench {

void AddSpanSelfTimes(const std::vector<pfs::TraceSpan>& spans, RunResult* out) {
  // Group by request; within a request a span's children are the spans of
  // deeper stages that lie inside it (the stage enum is ordered by depth).
  // driver.batch spans, and spans recorded outside any request, count as
  // self time only.
  std::unordered_map<uint64_t, std::vector<const pfs::TraceSpan*>> by_trace;
  for (const pfs::TraceSpan& s : spans) {
    by_trace[s.trace_id].push_back(&s);
  }
  double self_ns[pfs::kTraceStageCount] = {};
  uint64_t count[pfs::kTraceStageCount] = {};
  std::vector<std::pair<int64_t, int64_t>> cover;
  for (auto& [id, group] : by_trace) {
    for (const pfs::TraceSpan* s : group) {
      cover.clear();
      if (id != 0 && s->stage != pfs::TraceStage::kDriverBatch) {
        for (const pfs::TraceSpan* c : group) {
          if (c->stage > s->stage && c->stage != pfs::TraceStage::kDriverBatch &&
              c->begin_ns >= s->begin_ns && c->end_ns <= s->end_ns) {
            cover.emplace_back(c->begin_ns, c->end_ns);
          }
        }
      }
      std::sort(cover.begin(), cover.end());
      int64_t covered = 0;
      int64_t reach = s->begin_ns;
      for (const auto& [b, e] : cover) {
        const int64_t from = std::max(b, reach);
        if (e > from) {
          covered += e - from;
          reach = e;
        }
      }
      const size_t k = static_cast<size_t>(s->stage);
      self_ns[k] += static_cast<double>(s->end_ns - s->begin_ns - covered);
      ++count[k];
    }
  }
  for (size_t k = 0; k < pfs::kTraceStageCount; ++k) {
    const std::string name =
        std::string("span.") + pfs::TraceStageName(static_cast<pfs::TraceStage>(k));
    out->Set(name + ".self_ms_mean", Ratio(self_ns[k] / 1e6, count[k]), "ms");
  }
}

namespace {

// The data blocks an LFS layout wrote for flushes: log blocks over write cost.
uint64_t LfsDataBlocks(const pfs::LfsLayout& lfs) {
  return static_cast<uint64_t>(Ratio(lfs.log_blocks_written(), lfs.WriteCost()) + 0.5);
}

// The sum of a histogram's samples, in ms.
double TotalMs(const pfs::LatencyHistogram& h) {
  return h.mean().ToMillisF() * static_cast<double>(h.count());
}

}  // namespace

uint64_t CacheCleanedBytes(pfs::System& system) {
  uint64_t bytes = 0;
  for (int s = 0; s < system.shard_count(); ++s) {
    pfs::BufferCache* cache = system.shard_cache(s);
    bytes += cache->blocks_flushed() * cache->block_size();
  }
  return bytes;
}

uint64_t LayoutLogBytes(pfs::System& system) {
  uint64_t bytes = 0;
  for (int f = 0; f < system.filesystem_count(); ++f) {
    if (auto* lfs = dynamic_cast<pfs::LfsLayout*>(system.layout(f))) {
      bytes += lfs->log_blocks_written() * system.cache()->block_size();
    }
  }
  return bytes;
}

void AddLayerCounters(pfs::System& system, uint64_t ops, pfs::Duration elapsed,
                      RunResult* out) {
  // -- sched --
  uint64_t steps = 0;
  int64_t idle_ns = 0;
  for (int s = 0; s < system.shard_count(); ++s) {
    steps += system.shard_scheduler(s)->context_switches();
    idle_ns += system.shard_scheduler(s)->idle_nanos();
  }
  out->Set("sched.steps_per_op", Ratio(steps, ops), "steps/op");
  out->Set("sched.idle_ms", idle_ns / 1e6, "ms");

  // -- cache --
  uint64_t hits = 0, misses = 0, absorbed = 0, evictions = 0, flushed = 0, fills = 0;
  double fill_ms = 0;
  for (int s = 0; s < system.shard_count(); ++s) {
    pfs::BufferCache* c = system.shard_cache(s);
    hits += c->hits();
    misses += c->misses();
    absorbed += c->absorbed_dirty_blocks();
    evictions += c->evictions();
    flushed += c->blocks_flushed();
    fills += c->fill_latency().count();
    fill_ms += TotalMs(c->fill_latency());
  }
  out->Set("cache.hit_ratio", Ratio(hits, hits + misses), "ratio");
  out->Set("cache.absorbed_blocks", absorbed, "count");
  out->Set("cache.evictions", evictions, "count");
  out->Set("cache.fill_ms_mean", Ratio(fill_ms, fills), "ms");

  // -- layout --
  uint64_t log_blocks = 0, data_blocks = 0, cleaned = 0, relocated = 0;
  for (int f = 0; f < system.filesystem_count(); ++f) {
    if (auto* lfs = dynamic_cast<pfs::LfsLayout*>(system.layout(f))) {
      log_blocks += lfs->log_blocks_written();
      data_blocks += LfsDataBlocks(*lfs);
      cleaned += lfs->segments_cleaned();
      relocated += lfs->blocks_relocated();
    }
  }
  out->Set("cache.cleaned_per_block_written", Ratio(flushed, data_blocks), "ratio");
  out->Set("layout.log_blocks_written", log_blocks, "count");
  out->Set("layout.write_cost", Ratio(log_blocks, data_blocks), "ratio");
  out->Set("layout.segments_cleaned", cleaned, "count");
  out->Set("layout.blocks_relocated", relocated, "count");

  // -- volume --
  uint64_t vreqs = 0, coalesced = 0;
  double vlat_ms = 0;
  for (const auto& v : system.volumes()) {
    vreqs += v->requests();
    coalesced += v->coalesced_fragments();
    vlat_ms += TotalMs(v->latency());
  }
  out->Set("volume.requests", vreqs, "count");
  out->Set("volume.coalesced", coalesced, "count");
  out->Set("volume.latency_ms_mean", Ratio(vlat_ms, vreqs), "ms");

  // -- driver --
  uint64_t dops = 0, batches = 0, waits = 0;
  double wait_ms = 0, service_ms = 0;
  for (const auto& d : system.drivers()) {
    dops += d->io_latency().count();
    service_ms += TotalMs(d->io_latency());
    waits += d->queue_wait().count();
    wait_ms += TotalMs(d->queue_wait());
    batches += d->batches();
  }
  out->Set("driver.queue_wait_ms_mean", Ratio(wait_ms, waits), "ms");
  out->Set("driver.service_ms_mean", Ratio(service_ms, dops), "ms");
  out->Set("driver.reqs_per_batch", Ratio(dops, batches), "reqs");
  out->Set("driver.batches", batches, "count");

  // -- disk and bus (simulated backend only) --
  uint64_t immediate = 0, destages = 0, disk_hits = 0;
  for (const auto& d : system.disks()) {
    immediate += d->immediate_writes();
    destages += d->destages();
    disk_hits += d->cache_hit_reads();
  }
  out->Set("disk.immediate_writes", immediate, "count");
  out->Set("disk.destages", destages, "count");
  out->Set("disk.cache_hit_reads", disk_hits, "count");
  uint64_t bus_bytes = 0;
  double busy_ns = 0;
  for (const auto& b : system.busses()) {
    bus_bytes += b->bytes_transferred();
    busy_ns += static_cast<double>(b->busy_time().nanos());
  }
  const double span_ns = static_cast<double>(elapsed.nanos()) * system.busses().size();
  out->Set("bus.utilization", Ratio(busy_ns, span_ns), "ratio");
  out->Set("bus.bytes_transferred", bus_bytes, "bytes");
}

}  // namespace perfbench
