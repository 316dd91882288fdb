// Copyright 2026 the pdblb authors. MIT license.

#include "workloads.h"

#include <algorithm>
#include <thread>

#include "common/table.h"

namespace perfbench {

using pdblb::OltpPlacement;
using pdblb::StrategyConfig;
using pdblb::SystemConfig;
using pdblb::runner::SweepPoint;
namespace strategies = pdblb::strategies;

namespace {

// Join arrivals a point's measurement window must expect.  The figure
// drivers use one horizon for a whole grid; at their --fast horizon the
// 10-PE Fig. 9 points expect under four arrivals and some seeds complete no
// join at all, so the window is stretched, point by point, until it expects
// this many (it is never shorter than the driver's).
constexpr double kMinJoinArrivals = 20.0;

void SetHorizon(SystemConfig& cfg, double warmup_ms, double measurement_ms) {
  cfg.warmup_ms = warmup_ms;
  const double arrivals_per_ms =
      cfg.join_query.arrival_rate_per_pe_qps * cfg.num_pes / 1000.0;
  cfg.measurement_ms = std::max(measurement_ms,
                                kMinJoinArrivals / arrivals_per_ms);
}

// The figure drivers' --fast horizon.
void ShortHorizon(SystemConfig& cfg) { SetHorizon(cfg, 1500.0, 5000.0); }

// The figure drivers' full horizon.  Fig. 7 needs it: at the short horizon
// its 20-PE point at 0.025 QPS/PE completes no join.
void FullHorizon(SystemConfig& cfg) { SetHorizon(cfg, 4000.0, 20000.0); }

int HostCores() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

void Add(pdblb::runner::Sweep& sweep, std::string name, std::string series,
         int n, SystemConfig cfg) {
  sweep.Add(SweepPoint{std::move(name), std::move(series),
                       static_cast<double>(n), std::to_string(n),
                       std::move(cfg)});
}

// Paper Fig. 5: six static-degree strategies plus single-user, 10..80 PE,
// homogeneous joins at 0.25 QPS/PE.
void JoinScaleout(pdblb::runner::Sweep& sweep) {
  const std::vector<StrategyConfig> strategy_set = {
      strategies::PsuNoIORandom(), strategies::PsuNoIOLUC(),
      strategies::PsuNoIOLUM(),    strategies::PsuOptRandom(),
      strategies::PsuOptLUC(),     strategies::PsuOptLUM(),
  };
  for (int n : {10, 20, 40, 60, 80}) {
    for (const StrategyConfig& strategy : strategy_set) {
      SystemConfig cfg;
      cfg.num_pes = n;
      cfg.strategy = strategy;
      ShortHorizon(cfg);
      Add(sweep, "fig5/" + strategy.Name() + "/" + std::to_string(n),
          strategy.Name(), n, cfg);
    }
    SystemConfig su;
    su.num_pes = n;
    su.single_user_mode = true;
    su.single_user_queries = 10;
    su.strategy = strategies::PsuOptLUM();
    ShortHorizon(su);
    Add(sweep, "fig5/single-user(p_su-opt)/" + std::to_string(n),
        "single-user (p_su-opt)", n, su);
  }
}

// Paper Fig. 9: joins at 0.075 QPS/PE beside 100 TPS of debit-credit OLTP
// per OLTP node (A or B nodes), 5 disks per PE.
void MixedOltp(pdblb::runner::Sweep& sweep) {
  const std::vector<StrategyConfig> strategy_set = {
      strategies::PsuOptRandom(), strategies::PsuNoIORandom(),
      strategies::PsuNoIOLUM(),   strategies::PmuCpuLUM(),
      strategies::OptIOCpu(),
  };
  for (auto placement : {OltpPlacement::kANodes, OltpPlacement::kBNodes}) {
    std::string tag =
        placement == OltpPlacement::kANodes ? "9a/OLTP-on-A" : "9b/OLTP-on-B";
    for (int n : {10, 20, 40, 60, 80}) {
      for (const StrategyConfig& strategy : strategy_set) {
        SystemConfig cfg;
        cfg.num_pes = n;
        cfg.join_query.arrival_rate_per_pe_qps = 0.075;
        cfg.oltp.enabled = true;
        cfg.oltp.placement = placement;
        cfg.disk.disks_per_pe = 5;
        cfg.strategy = strategy;
        ShortHorizon(cfg);
        Add(sweep,
            "fig" + tag + "/" + strategy.Name() + "/" + std::to_string(n),
            tag + " " + strategy.Name(), n, cfg);
      }
    }
  }
}

SystemConfig MemoryBoundConfig(int n, double rate, StrategyConfig strategy) {
  SystemConfig cfg;
  cfg.num_pes = n;
  cfg.buffer.buffer_pages = 5;
  cfg.disk.disks_per_pe = 1;
  cfg.join_query.arrival_rate_per_pe_qps = rate;
  cfg.strategy = strategy;
  FullHorizon(cfg);
  return cfg;
}

// Paper Fig. 7: 5 buffer pages and 1 disk per PE, p_mu-cpu+LUM and
// MIN-IO-SUOPT at two low rates plus single-user, 20..80 PE.
void MemoryBound(pdblb::runner::Sweep& sweep) {
  for (int n : {20, 30, 40, 60, 80}) {
    for (double rate : {0.05, 0.025}) {
      for (auto strategy :
           {strategies::PmuCpuLUM(), strategies::MinIOSuOpt()}) {
        std::string series = strategy.Name() + " @" +
                             pdblb::TextTable::Num(rate, 3) + " QPS/PE";
        Add(sweep, "fig7/" + series + "/" + std::to_string(n), series, n,
            MemoryBoundConfig(n, rate, strategy));
      }
    }
    SystemConfig su = MemoryBoundConfig(n, 0.05, strategies::PsuOptLUM());
    su.single_user_mode = true;
    su.single_user_queries = 20;
    Add(sweep, "fig7/single-user/" + std::to_string(n), "single-user", n,
        su);
  }
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "join-scaleout", "mixed-oltp", "memory-bound"};
  return kNames;
}

bool MakeWorkload(const std::string& name, Workload* out) {
  const int parallel = std::min(4, HostCores());
  out->name = name;
  out->sweep = pdblb::runner::Sweep();
  if (name == "join-scaleout") {
    JoinScaleout(out->sweep);
    out->round_seconds = 3.0;
    out->jobs = 1;
    out->check_jobs = std::max(2, parallel);
  } else if (name == "mixed-oltp") {
    MixedOltp(out->sweep);
    out->round_seconds = 6.0;
    out->jobs = 1;
    out->check_jobs = std::max(2, parallel);
  } else if (name == "memory-bound") {
    MemoryBound(out->sweep);
    out->round_seconds = 0.75;
    out->jobs = parallel;
    out->check_jobs = parallel == 1 ? 2 : 1;
  } else {
    return false;
  }
  return true;
}

const SystemConfig& ProbeConfig(const Workload& workload) {
  const auto& points = workload.sweep.points();
  const SweepPoint* best = &points.front();
  for (const SweepPoint& p : points) {
    if (p.config.num_pes > best->config.num_pes) best = &p;
  }
  return best->config;
}

std::vector<StrategyConfig> GridStrategies(const Workload& workload) {
  std::vector<StrategyConfig> out;
  std::vector<std::string> seen;
  for (const SweepPoint& p : workload.sweep.points()) {
    if (p.config.single_user_mode) continue;
    std::string name = p.config.strategy.Name();
    if (std::find(seen.begin(), seen.end(), name) != seen.end()) continue;
    seen.push_back(name);
    out.push_back(p.config.strategy);
  }
  return out;
}

}  // namespace perfbench
