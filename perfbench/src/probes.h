// Copyright 2026 the pdblb authors. MIT license.
//
// Layer probes: per-layer host timings measured from outside the program.
// Each probe makes a fixed number of calls into one layer's public
// functions on a private sim::Scheduler, in timed batches, and reports the
// median host nanoseconds per call over the batches.  Parameters (PE count,
// buffer pages, disks per PE, controller-cache pages, strategies) come from
// the workload's own configurations.  Each probe also checks, from the
// layer's counters, that its calls took the path the metric names (the hit
// probe must see only hits, the transfer probe only remote messages, ...).

#ifndef PDBLB_PERFBENCH_PROBES_H_
#define PDBLB_PERFBENCH_PROBES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.h"
#include "spans.h"

namespace perfbench {

struct ProbeResult {
  std::string metric;         ///< e.g. "bufmgr.fetch_hit_ns"
  double ns_per_call = 0.0;   ///< median over the timed batches
  int64_t calls = 0;          ///< calls made over all batches
  bool path_ok = false;       ///< the path check passed
  std::string detail;         ///< what the path check saw
};

struct ProbeInputs {
  pdblb::SystemConfig config;  ///< the workload's probe configuration
  std::vector<pdblb::StrategyConfig> strategies;
  uint64_t seed = 0;
};

/// Metric names of every probe, in the order RunProbes reports them.
const std::vector<std::string>& ProbeMetricNames();

/// Runs every probe.  When `sabotage` names a probe metric, that probe's
/// calls are deliberately steered off the path it names, so its path check
/// must fail (the benchmark's own tests use this).  Spans go to `spans`
/// (may be null) under `parent`.
std::vector<ProbeResult> RunProbes(const ProbeInputs& inputs,
                                   const std::string& sabotage,
                                   SpanRecorder* spans, int parent);

}  // namespace perfbench

#endif  // PDBLB_PERFBENCH_PROBES_H_
