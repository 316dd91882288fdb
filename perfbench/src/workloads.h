// Copyright 2026 the pdblb authors. MIT license.
//
// The benchmark's workloads: three fault-free figure grids, declared
// through runner::Sweep with the figure drivers' configurations; only the
// measurement horizon differs (workloads.cc).  README.md says why each was
// chosen.

#ifndef PDBLB_PERFBENCH_WORKLOADS_H_
#define PDBLB_PERFBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "common/config.h"
#include "runner/sweep.h"

namespace perfbench {

struct Workload {
  std::string name;
  pdblb::runner::Sweep sweep;
  /// Worker threads of the measured sweep.
  int jobs = 1;
  /// The share of --seconds one round (one whole-grid sweep) stands for: a
  /// measure run makes round(--seconds / round_seconds) rounds, at least 3.
  /// A constant, so the work a run does depends only on --seconds, never on
  /// the host's speed.
  double round_seconds = 1.0;
  /// A different worker count, used only to check that the results CSV
  /// does not depend on it.
  int check_jobs = 2;
};

/// Workload names in their canonical order.
const std::vector<std::string>& WorkloadNames();

/// Declares the named workload; false when the name is unknown.
bool MakeWorkload(const std::string& name, Workload* out);

/// The configuration the layer probes take their parameters from: the
/// grid's first point at its largest PE count.
const pdblb::SystemConfig& ProbeConfig(const Workload& workload);

/// The distinct strategies of the grid's multi-user points, in grid order.
std::vector<pdblb::StrategyConfig> GridStrategies(const Workload& workload);

}  // namespace perfbench

#endif  // PDBLB_PERFBENCH_WORKLOADS_H_
