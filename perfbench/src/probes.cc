// Copyright 2026 the pdblb authors. MIT license.

#include "probes.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <utility>

#include "bufmgr/buffer_manager.h"
#include "core/control_node.h"
#include "core/strategies.h"
#include "engine/cluster.h"
#include "iosim/disk.h"
#include "join/pphj.h"
#include "lockmgr/lock_manager.h"
#include "netsim/network.h"
#include "simkern/resource.h"
#include "simkern/rng.h"
#include "simkern/scheduler.h"
#include "simkern/task.h"

namespace perfbench {

using pdblb::AccessPattern;
using pdblb::BufferManager;
using pdblb::ControlNode;
using pdblb::DiskArray;
using pdblb::JoinPlan;
using pdblb::LoadBalancingPolicy;
using pdblb::LockKey;
using pdblb::LockManager;
using pdblb::LockMode;
using pdblb::Network;
using pdblb::PageKey;
using pdblb::Pphj;
using pdblb::SystemConfig;
namespace sim = pdblb::sim;

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kBatches = 15;
constexpr int32_t kProbeRelation = 1;

double ElapsedNs(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string Format(const char* fmt, double a, double b) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), fmt, a, b);
  return buf;
}

/// Runs `batches` timed calls of `batch(b)`, each covering `calls` calls
/// into the layer, under one span each; returns the median ns per call.
template <typename F>
double TimeBatches(const std::string& metric, int batches, int64_t calls,
                   SpanRecorder* spans, int parent, F&& batch) {
  std::vector<double> ns_per_call;
  ns_per_call.reserve(static_cast<size_t>(batches));
  for (int b = 0; b < batches; ++b) {
    ScopedSpan span(spans, metric + " batch", parent);
    Clock::time_point t0 = Clock::now();
    batch(b);
    ns_per_call.push_back(ElapsedNs(t0) / static_cast<double>(calls));
  }
  return Median(std::move(ns_per_call));
}

/// One PE's storage stack (CPU, disk array, buffer manager) on a private
/// scheduler, configured like the workload's PEs.
struct StorageRig {
  explicit StorageRig(const SystemConfig& cfg)
      : cpu(sched, cfg.cpus_per_pe, "probe.cpu"),
        disks(sched, cfg.disk, cfg.costs, cfg.mips_per_pe, cpu, "probe"),
        buffer(sched, cfg.buffer, disks, "probe.buf") {}

  sim::Scheduler sched;
  sim::Resource cpu;
  DiskArray disks;
  BufferManager buffer;
};

// --- coroutine drivers (parameters are copied into the frame) -------------

sim::Task<> FetchRanges(BufferManager& buf, int64_t first, int64_t stride,
                        int64_t count, int64_t calls) {
  for (int64_t i = 0; i < calls; ++i) {
    co_await buf.FetchRange(PageKey{kProbeRelation, first + i * stride},
                            count);
  }
}

sim::Task<> ReserveRelease(BufferManager& buf, int min_pages, int want,
                           int64_t calls, int64_t* full_grants) {
  for (int64_t i = 0; i < calls; ++i) {
    int granted = co_await buf.ReserveWait(min_pages, want);
    if (granted == want) ++*full_grants;
    buf.ReleaseReservation(granted);
  }
}

sim::Task<> ReadStripes(DiskArray& disks, int64_t first, int64_t stride,
                        int64_t pages, int64_t calls) {
  for (int64_t i = 0; i < calls; ++i) {
    co_await disks.ReadStriped(PageKey{kProbeRelation, first + i * stride},
                               pages);
  }
}

sim::Task<> RandomReads(DiskArray& disks, int64_t first, int64_t stride,
                        int64_t calls) {
  for (int64_t i = 0; i < calls; ++i) {
    co_await disks.Read(PageKey{kProbeRelation, first + i * stride},
                        AccessPattern::kRandom);
  }
}

sim::Task<> RandomWrites(DiskArray& disks, int64_t first, int64_t calls,
                         bool log_instead) {
  for (int64_t i = 0; i < calls; ++i) {
    if (log_instead) {
      co_await disks.LogWrite();
    } else {
      co_await disks.WriteRandom(PageKey{kProbeRelation, first + i});
    }
  }
}

sim::Task<> Transfers(Network& net, int num_pes, int64_t first,
                      int64_t calls, int64_t bytes, bool local) {
  for (int64_t i = first; i < first + calls; ++i) {
    int src = static_cast<int>(i % num_pes);
    int hop = 1 + static_cast<int>((i / num_pes) % (num_pes - 1));
    int dst = local ? src : (src + hop) % num_pes;
    co_await net.Transfer(src, dst, bytes);
  }
}

sim::Task<> LockTxns(LockManager& locks, int64_t first_txn, int64_t calls,
                     int locks_per_txn, bool release) {
  for (int64_t t = first_txn; t < first_txn + calls; ++t) {
    for (int k = 0; k < locks_per_txn; ++k) {
      co_await locks.Lock(t, LockKey{kProbeRelation, t * locks_per_txn + k},
                          LockMode::kExclusive);
    }
    if (release) locks.ReleaseAll(t);
  }
}

sim::Task<> PphjJoin(Pphj& join, int64_t inner, int64_t outer, int batches,
                     bool probe, double* batch_ns) {
  co_await join.AcquireMemory();
  Clock::time_point t0 = Clock::now();
  for (int i = 0; i < batches; ++i) {
    co_await join.InsertInnerBatch(inner / batches);
  }
  for (int i = 0; probe && i < batches; ++i) {
    co_await join.ProbeBatch(outer / batches);
  }
  *batch_ns = ElapsedNs(t0);
  co_await join.CompleteProbe();
  join.Release();
}

// --- the probes ---------------------------------------------------------

struct ProbeContext {
  const ProbeInputs& in;
  bool sabotage;
  SpanRecorder* spans;
  int parent;
};

// Pages per FetchRange call: a short scan run that fits the buffer.
int64_t RangePages(const SystemConfig& cfg) {
  return std::min<int64_t>(4, cfg.buffer.buffer_pages);
}

ProbeResult FetchHit(const ProbeContext& ctx, const std::string& metric) {
  constexpr int64_t kCalls = 2000;
  StorageRig rig(ctx.in.config);
  const int64_t count = RangePages(ctx.in.config);
  if (!ctx.sabotage) {  // warm: the range becomes resident
    rig.sched.Spawn(FetchRanges(rig.buffer, 0, 0, count, 1));
    rig.sched.Run();
  }
  const int64_t hits0 = rig.buffer.buffer_hits();
  const int64_t misses0 = rig.buffer.buffer_misses();
  int64_t next = 1 << 20;  // sabotage: fresh pages on every call
  ProbeResult r;
  r.metric = metric;
  r.ns_per_call = TimeBatches(metric, kBatches, kCalls, ctx.spans,
                              ctx.parent, [&](int) {
    if (ctx.sabotage) {
      rig.sched.Spawn(FetchRanges(rig.buffer, next, count, count, kCalls));
      next += kCalls * count;
    } else {
      rig.sched.Spawn(FetchRanges(rig.buffer, 0, 0, count, kCalls));
    }
    rig.sched.Run();
  });
  r.calls = kBatches * kCalls;
  const int64_t hits = rig.buffer.buffer_hits() - hits0;
  const int64_t misses = rig.buffer.buffer_misses() - misses0;
  r.path_ok = misses == 0 && hits == r.calls * count;
  r.detail = Format("hit ratio %.4f over %.0f page fetches",
                    hits + misses == 0 ? 0.0
                                       : static_cast<double>(hits) /
                                             static_cast<double>(hits + misses),
                    static_cast<double>(hits + misses));
  return r;
}

ProbeResult FetchMiss(const ProbeContext& ctx, const std::string& metric) {
  constexpr int64_t kCalls = 200;
  StorageRig rig(ctx.in.config);
  const int64_t count = RangePages(ctx.in.config);
  int64_t next = 0;
  ProbeResult r;
  r.metric = metric;
  r.ns_per_call = TimeBatches(metric, kBatches, kCalls, ctx.spans,
                              ctx.parent, [&](int) {
    // Sabotage re-reads one range, which stays resident after the first.
    int64_t stride = ctx.sabotage ? 0 : count;
    rig.sched.Spawn(FetchRanges(rig.buffer, next, stride, count, kCalls));
    rig.sched.Run();
    next += kCalls * stride;
  });
  r.calls = kBatches * kCalls;
  const int64_t hits = rig.buffer.buffer_hits();
  const int64_t misses = rig.buffer.buffer_misses();
  r.path_ok = hits == 0 && misses == r.calls * count;
  r.detail = Format("miss ratio %.4f over %.0f page fetches",
                    hits + misses == 0
                        ? 0.0
                        : static_cast<double>(misses) /
                              static_cast<double>(hits + misses),
                    static_cast<double>(hits + misses));
  return r;
}

ProbeResult ReserveReleaseProbe(const ProbeContext& ctx,
                                const std::string& metric) {
  constexpr int64_t kCalls = 20000;
  StorageRig rig(ctx.in.config);
  const int want = rig.buffer.capacity();
  // Sabotage holds part of the pool, so no grant can be complete.
  if (ctx.sabotage) rig.buffer.TryReserve(std::max(1, want / 2));
  int64_t full_grants = 0;
  ProbeResult r;
  r.metric = metric;
  r.ns_per_call = TimeBatches(metric, kBatches, kCalls, ctx.spans,
                              ctx.parent, [&](int) {
    rig.sched.Spawn(
        ReserveRelease(rig.buffer, 1, want, kCalls, &full_grants));
    rig.sched.Run();
  });
  r.calls = kBatches * kCalls;
  r.path_ok = full_grants == r.calls && rig.buffer.reserved() == 0 &&
              rig.buffer.memory_queue_length() == 0;
  r.detail = Format("%.0f of %.0f reservations granted in full",
                    static_cast<double>(full_grants),
                    static_cast<double>(r.calls));
  return r;
}

ProbeResult ScanPages(const ProbeContext& ctx, const std::string& metric) {
  constexpr int64_t kCalls = 40;
  constexpr int64_t kPages = 64;  // fits the controller cache (sabotage)
  StorageRig rig(ctx.in.config);
  int64_t next = 0;
  ProbeResult r;
  r.metric = metric;
  r.ns_per_call = TimeBatches(metric, kBatches, kCalls * kPages, ctx.spans,
                              ctx.parent, [&](int) {
    // Sabotage re-reads one stripe, which the controller cache then holds.
    int64_t stride = ctx.sabotage ? 0 : kPages;
    rig.sched.Spawn(ReadStripes(rig.disks, next, stride, kPages, kCalls));
    rig.sched.Run();
    next += kCalls * stride;
  });
  r.calls = kBatches * kCalls;
  const int64_t pages = r.calls * kPages;
  r.path_ok = rig.disks.cache_hits() == 0 &&
              rig.disks.logical_reads() == pages &&
              rig.disks.physical_reads() > 0;
  r.detail = Format("%.0f controller-cache hits over %.0f scanned pages",
                    static_cast<double>(rig.disks.cache_hits()),
                    static_cast<double>(rig.disks.logical_reads()));
  return r;
}

ProbeResult RandomRead(const ProbeContext& ctx, const std::string& metric) {
  constexpr int64_t kCalls = 500;
  constexpr int64_t kStride = 7919;  // distinct, non-adjacent pages
  StorageRig rig(ctx.in.config);
  int64_t next = 0;
  ProbeResult r;
  r.metric = metric;
  r.ns_per_call = TimeBatches(metric, kBatches, kCalls, ctx.spans,
                              ctx.parent, [&](int) {
    int64_t stride = ctx.sabotage ? 0 : kStride;
    rig.sched.Spawn(RandomReads(rig.disks, next, stride, kCalls));
    rig.sched.Run();
    next += kCalls * stride;
  });
  r.calls = kBatches * kCalls;
  r.path_ok = rig.disks.cache_hits() == 0 &&
              rig.disks.physical_reads() == r.calls;
  r.detail = Format("%.0f physical reads for %.0f random reads",
                    static_cast<double>(rig.disks.physical_reads()),
                    static_cast<double>(r.calls));
  return r;
}

ProbeResult Write(const ProbeContext& ctx, const std::string& metric) {
  constexpr int64_t kCalls = 500;
  StorageRig rig(ctx.in.config);
  int64_t next = 0;
  ProbeResult r;
  r.metric = metric;
  r.ns_per_call = TimeBatches(metric, kBatches, kCalls, ctx.spans,
                              ctx.parent, [&](int) {
    // Sabotage appends to the log, which writes no data page.
    rig.sched.Spawn(RandomWrites(rig.disks, next, kCalls, ctx.sabotage));
    rig.sched.Run();
    next += kCalls;
  });
  r.calls = kBatches * kCalls;
  r.path_ok = rig.disks.physical_writes() == r.calls;
  r.detail = Format("%.0f physical writes for %.0f calls",
                    static_cast<double>(rig.disks.physical_writes()),
                    static_cast<double>(r.calls));
  return r;
}

ProbeResult Transfer(const ProbeContext& ctx, const std::string& metric) {
  constexpr int64_t kCalls = 500;
  constexpr int64_t kPacketsPerMessage = 4;
  const SystemConfig& cfg = ctx.in.config;
  const int n = std::max(2, cfg.num_pes);
  sim::Scheduler sched;
  std::vector<std::unique_ptr<sim::Resource>> cpus;
  std::vector<sim::Resource*> cpu_ptrs;
  for (int pe = 0; pe < n; ++pe) {
    cpus.push_back(std::make_unique<sim::Resource>(
        sched, cfg.cpus_per_pe, "probe.cpu" + std::to_string(pe)));
    cpu_ptrs.push_back(cpus.back().get());
  }
  Network net(sched, cfg.network, cfg.costs, cfg.mips_per_pe,
              std::move(cpu_ptrs));
  const int64_t bytes =
      kPacketsPerMessage * static_cast<int64_t>(cfg.network.packet_size_bytes);
  int64_t next = 0;
  ProbeResult r;
  r.metric = metric;
  r.ns_per_call = TimeBatches(metric, kBatches, kCalls, ctx.spans,
                              ctx.parent, [&](int) {
    // Sabotage sends every message to its own PE: a free local transfer.
    sched.Spawn(Transfers(net, n, next, kCalls, bytes, ctx.sabotage));
    sched.Run();
    next += kCalls;
  });
  r.calls = kBatches * kCalls;
  r.path_ok = net.messages_sent() == r.calls &&
              net.packets_sent() == r.calls * kPacketsPerMessage;
  r.detail = Format("%.0f messages, %.0f packets sent",
                    static_cast<double>(net.messages_sent()),
                    static_cast<double>(net.packets_sent()));
  return r;
}

ProbeResult LockRelease(const ProbeContext& ctx, const std::string& metric) {
  constexpr int64_t kCalls = 5000;
  const int locks_per_txn = std::max(1, ctx.in.config.oltp.tuple_accesses);
  sim::Scheduler sched;
  LockManager locks(sched);
  int64_t next_txn = 1;
  ProbeResult r;
  r.metric = metric;
  r.ns_per_call = TimeBatches(metric, kBatches, kCalls, ctx.spans,
                              ctx.parent, [&](int) {
    // Sabotage never releases: the transactions keep their locks.
    sched.Spawn(
        LockTxns(locks, next_txn, kCalls, locks_per_txn, !ctx.sabotage));
    sched.Run();
    next_txn += kCalls;
  });
  r.calls = kBatches * kCalls;
  r.path_ok = locks.locks_granted() == r.calls * locks_per_txn &&
              locks.lock_waits() == 0 && !locks.HoldsAnyLock(1) &&
              !locks.HoldsAnyLock(next_txn - 1);
  r.detail = Format("%.0f locks granted, %.0f waits",
                    static_cast<double>(locks.locks_granted()),
                    static_cast<double>(locks.lock_waits()));
  return r;
}

ProbeResult PphjBatch(const ProbeContext& ctx, const std::string& metric) {
  constexpr int kJoins = 25;
  constexpr int kBatchesPerPhase = 16;
  const SystemConfig& cfg = ctx.in.config;
  // One PE's share of a join run at the cost model's p_su-opt degree.
  pdblb::JoinPlanRequest request;
  {
    pdblb::Cluster cluster(cfg);
    request = cluster.plan_request();
  }
  const int degree = std::max(1, request.psu_opt);
  const int64_t inner = cfg.InnerInputTuples() / degree;
  const int64_t outer = cfg.OuterInputTuples() / degree;
  Pphj::Params params;
  params.temp_relation_id = -1;
  params.expected_inner_tuples = inner;
  params.blocking_factor = cfg.relation_a.blocking_factor;
  params.fudge_factor = cfg.join_query.fudge_factor;
  params.want_pages = static_cast<int>(
      (request.hash_table_pages + degree - 1) / degree);
  params.opportunistic_growth = cfg.pphj_opportunistic_growth;

  int ok_joins = 0;
  int64_t temp_written = 0;
  const int calls_per_join = 2 * kBatchesPerPhase;
  std::vector<double> ns_per_call;
  for (int j = 0; j < kJoins; ++j) {
    StorageRig rig(cfg);
    Pphj join(rig.sched, rig.buffer, rig.disks, rig.cpu, cfg.costs,
              cfg.mips_per_pe, params);
    double batch_ns = 0.0;
    {
      ScopedSpan span(ctx.spans, metric + " batch", ctx.parent);
      // Sabotage builds but never probes.
      rig.sched.Spawn(PphjJoin(join, inner, outer, kBatchesPerPhase,
                               !ctx.sabotage, &batch_ns));
      rig.sched.Run();
    }
    ns_per_call.push_back(batch_ns / calls_per_join);
    const int64_t inner_sent = inner / kBatchesPerPhase * kBatchesPerPhase;
    const int64_t outer_sent = outer / kBatchesPerPhase * kBatchesPerPhase;
    if (join.inner_tuples_received() == inner_sent &&
        join.direct_probes() + join.deferred_probes() == outer_sent &&
        rig.buffer.reserved() == 0) {
      ++ok_joins;
    }
    temp_written += join.temp_pages_written();
  }
  ProbeResult r;
  r.metric = metric;
  r.ns_per_call = Median(std::move(ns_per_call));
  r.calls = static_cast<int64_t>(kJoins) * calls_per_join;
  r.path_ok = ok_joins == kJoins;
  r.detail = Format("%.0f joins built and probed, %.0f temp pages written",
                    ok_joins, static_cast<double>(temp_written));
  return r;
}

/// Valid plan: degree >= 1 and `pes` lists `degree` distinct PEs.
bool ValidPlan(const JoinPlan& plan, int num_pes, std::vector<char>& seen) {
  if (plan.degree < 1 || static_cast<int>(plan.pes.size()) != plan.degree) {
    return false;
  }
  std::fill(seen.begin(), seen.end(), 0);
  for (pdblb::PeId pe : plan.pes) {
    if (pe < 0 || pe >= num_pes || seen[static_cast<size_t>(pe)]) {
      return false;
    }
    seen[static_cast<size_t>(pe)] = 1;
  }
  return true;
}

void ReportRandomLoads(ControlNode& control, const SystemConfig& cfg,
                       sim::Rng& rng) {
  for (int pe = 0; pe < control.num_pes(); ++pe) {
    control.Report(pe, rng.Uniform(0.1, 0.9),
                   static_cast<int>(rng.Uniform(0.0, cfg.buffer.buffer_pages)),
                   rng.Uniform(0.1, 0.6));
  }
}

ProbeResult Plan(const ProbeContext& ctx, const std::string& metric) {
  constexpr int64_t kCalls = 200;
  const SystemConfig& base = ctx.in.config;
  const int n = base.num_pes;
  sim::Rng rng(ctx.in.seed);
  std::vector<char> seen(static_cast<size_t>(n), 0);
  int64_t valid = 0;
  int64_t calls = 0;
  std::vector<double> ns_per_call;
  for (const pdblb::StrategyConfig& strategy : ctx.in.strategies) {
    SystemConfig cfg = base;
    cfg.strategy = strategy;
    pdblb::JoinPlanRequest request;
    {
      pdblb::Cluster cluster(cfg);
      request = cluster.plan_request();
    }
    std::unique_ptr<LoadBalancingPolicy> policy =
        LoadBalancingPolicy::Create(strategy);
    ControlNode control(n, cfg.adaptive_selection_feedback);
    for (int b = 0; b < kBatches; ++b) {
      ReportRandomLoads(control, cfg, rng);
      ScopedSpan span(ctx.spans, metric + " batch", ctx.parent);
      Clock::time_point t0 = Clock::now();
      // Sabotage plans nothing.
      for (int64_t i = 0; !ctx.sabotage && i < kCalls; ++i) {
        JoinPlan plan = policy->Plan(request, control, rng);
        if (ValidPlan(plan, n, seen)) ++valid;
      }
      ns_per_call.push_back(ElapsedNs(t0) / kCalls);
      calls += kCalls;
    }
  }
  ProbeResult r;
  r.metric = metric;
  r.ns_per_call = Median(std::move(ns_per_call));
  r.calls = calls;
  r.path_ok = calls > 0 && valid == calls;
  r.detail = Format("%.0f valid plans of %.0f calls",
                    static_cast<double>(valid), static_cast<double>(calls));
  return r;
}

ProbeResult Report(const ProbeContext& ctx, const std::string& metric) {
  constexpr int64_t kCalls = 100000;
  const int n = ctx.in.config.num_pes;
  ControlNode control(n, ctx.in.config.adaptive_selection_feedback);
  auto cpu_of = [](int64_t i) { return static_cast<double>(i % 97 + 1) / 100.0; };
  auto mem_of = [](int64_t i) { return static_cast<int>(i % 50 + 1); };
  auto disk_of = [](int64_t i) { return static_cast<double>(i % 89 + 1) / 100.0; };
  int64_t next = 0;
  ProbeResult r;
  r.metric = metric;
  r.ns_per_call = TimeBatches(metric, kBatches, kCalls, ctx.spans,
                              ctx.parent, [&](int) {
    // Sabotage reports nothing.
    for (int64_t i = next; !ctx.sabotage && i < next + kCalls; ++i) {
      control.Report(static_cast<pdblb::PeId>(i % n), cpu_of(i), mem_of(i),
                     disk_of(i));
    }
    next += kCalls;
  });
  r.calls = kBatches * kCalls;
  // Each PE's view must hold the last values reported for it.
  int stale = 0;
  for (int pe = 0; pe < n; ++pe) {
    int64_t last = next - 1 - (next - 1 - pe) % n;
    const pdblb::PeLoadInfo& info = control.info(pe);
    if (info.cpu_util != cpu_of(last) ||
        info.free_memory_pages != mem_of(last) ||
        info.disk_util != disk_of(last)) {
      ++stale;
    }
  }
  r.path_ok = stale == 0;
  r.detail = Format("%.0f of %.0f PE views hold the last report",
                    static_cast<double>(n - stale), static_cast<double>(n));
  return r;
}

using ProbeFn = ProbeResult (*)(const ProbeContext&, const std::string&);

const std::vector<std::pair<std::string, ProbeFn>>& Probes() {
  static const std::vector<std::pair<std::string, ProbeFn>> kProbes = {
      {"bufmgr.fetch_hit_ns", &FetchHit},
      {"bufmgr.fetch_miss_ns", &FetchMiss},
      {"bufmgr.reserve_release_ns", &ReserveReleaseProbe},
      {"iosim.scan_page_ns", &ScanPages},
      {"iosim.random_read_ns", &RandomRead},
      {"iosim.write_ns", &Write},
      {"netsim.transfer_ns", &Transfer},
      {"lockmgr.lock_release_ns", &LockRelease},
      {"join.pphj_batch_ns", &PphjBatch},
      {"core.plan_ns", &Plan},
      {"core.report_ns", &Report},
  };
  return kProbes;
}

}  // namespace

const std::vector<std::string>& ProbeMetricNames() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> names;
    for (const auto& [name, fn] : Probes()) names.push_back(name);
    return names;
  }();
  return kNames;
}

std::vector<ProbeResult> RunProbes(const ProbeInputs& inputs,
                                   const std::string& sabotage,
                                   SpanRecorder* spans, int parent) {
  std::vector<ProbeResult> results;
  for (const auto& [name, fn] : Probes()) {
    ScopedSpan span(spans, "probe " + name, parent);
    ProbeContext ctx{inputs, sabotage == name, spans, span.id()};
    results.push_back(fn(ctx, name));
  }
  return results;
}

}  // namespace perfbench
