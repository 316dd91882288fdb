// Copyright 2026 the pdblb authors. MIT license.
//
// Determinism: every experiment is exactly reproducible from its seed, for
// every workload class, architecture, CC scheme and join method — and
// different seeds genuinely change the outcome.  This is what makes the
// figure reproductions trustworthy.

#include <gtest/gtest.h>

#include "engine/cluster.h"

namespace pdblb {
namespace {

MetricsReport RunOnce(const SystemConfig& cfg) {
  Cluster cluster(cfg);
  return cluster.Run();
}

void ExpectIdentical(const MetricsReport& a, const MetricsReport& b) {
  EXPECT_DOUBLE_EQ(a.join_rt_ms, b.join_rt_ms);
  EXPECT_EQ(a.joins_completed, b.joins_completed);
  EXPECT_DOUBLE_EQ(a.avg_degree, b.avg_degree);
  EXPECT_DOUBLE_EQ(a.cpu_utilization, b.cpu_utilization);
  EXPECT_DOUBLE_EQ(a.oltp_rt_ms, b.oltp_rt_ms);
  EXPECT_EQ(a.oltp_completed, b.oltp_completed);
  EXPECT_DOUBLE_EQ(a.scan_rt_ms, b.scan_rt_ms);
  EXPECT_DOUBLE_EQ(a.update_rt_ms, b.update_rt_ms);
  EXPECT_DOUBLE_EQ(a.multiway_rt_ms, b.multiway_rt_ms);
  EXPECT_EQ(a.lock_waits, b.lock_waits);
  // The kernel event count is part of the deterministic surface: two runs
  // of the same seed must dispatch exactly the same events.  Note the
  // accounting change with the frameless-awaiter kernel: a contended
  // Resource::Use now costs one calendar event (the end-of-service resume)
  // instead of two (grant wake-up + service delay), and channel value
  // hand-offs bypass the calendar entirely — so absolute kernel_events
  // values are much lower than under the PR 1 kernel and calendar-
  // bypassing resumes are pinned separately via kernel_handoffs.
  // (Wall-clock derived fields like kernel_events_per_sec are
  // intentionally excluded.)
  EXPECT_EQ(a.kernel_events, b.kernel_events);
  EXPECT_EQ(a.kernel_handoffs, b.kernel_handoffs);
}

SystemConfig SmallConfig() {
  SystemConfig cfg;
  cfg.num_pes = 10;
  cfg.warmup_ms = 500.0;
  cfg.measurement_ms = 4000.0;
  return cfg;
}

TEST(DeterminismTest, BaseJoinWorkload) {
  SystemConfig cfg = SmallConfig();
  ExpectIdentical(RunOnce(cfg), RunOnce(cfg));
}

TEST(DeterminismTest, DifferentSeedsDiffer) {
  SystemConfig a = SmallConfig();
  SystemConfig b = SmallConfig();
  b.seed = 4711;
  MetricsReport ra = RunOnce(a);
  MetricsReport rb = RunOnce(b);
  EXPECT_NE(ra.join_rt_ms, rb.join_rt_ms);
}

TEST(DeterminismTest, AllClassesMixed) {
  SystemConfig cfg = SmallConfig();
  cfg.join_query.arrival_rate_per_pe_qps = 0.05;
  cfg.scan_query.enabled = true;
  cfg.scan_query.arrival_rate_per_pe_qps = 0.05;
  cfg.update_query.enabled = true;
  cfg.update_query.arrival_rate_per_pe_qps = 0.05;
  cfg.multiway_join.enabled = true;
  cfg.multiway_join.arrival_rate_per_pe_qps = 0.02;
  cfg.oltp.enabled = true;
  cfg.oltp.tps_per_node = 20.0;
  ExpectIdentical(RunOnce(cfg), RunOnce(cfg));
}

TEST(DeterminismTest, SharedDiskArchitecture) {
  SystemConfig cfg = SmallConfig();
  cfg.architecture = Architecture::kSharedDisk;
  cfg.oltp.enabled = true;
  cfg.oltp.placement = OltpPlacement::kANodes;
  cfg.oltp.tps_per_node = 50.0;
  ExpectIdentical(RunOnce(cfg), RunOnce(cfg));
}

TEST(DeterminismTest, TwoPhaseLockingScheme) {
  SystemConfig cfg = SmallConfig();
  cfg.cc_scheme = CcScheme::kTwoPhaseLocking;
  cfg.update_query.enabled = true;
  cfg.update_query.arrival_rate_per_pe_qps = 0.2;
  ExpectIdentical(RunOnce(cfg), RunOnce(cfg));
}

TEST(DeterminismTest, SortMergeJoinMethod) {
  SystemConfig cfg = SmallConfig();
  cfg.local_join_method = LocalJoinMethod::kSortMerge;
  ExpectIdentical(RunOnce(cfg), RunOnce(cfg));
}

TEST(DeterminismTest, SkewedRedistribution) {
  SystemConfig cfg = SmallConfig();
  cfg.join_query.redistribution_skew = 1.0;
  cfg.strategy.skew_aware_assignment = true;
  ExpectIdentical(RunOnce(cfg), RunOnce(cfg));
}

TEST(DeterminismTest, SingleUserMode) {
  SystemConfig cfg = SmallConfig();
  cfg.single_user_mode = true;
  cfg.single_user_queries = 10;
  ExpectIdentical(RunOnce(cfg), RunOnce(cfg));
}

TEST(DeterminismTest, RateMatchStrategy) {
  SystemConfig cfg = SmallConfig();
  cfg.strategy = strategies::RateMatchLUC();
  ExpectIdentical(RunOnce(cfg), RunOnce(cfg));
}

// Frozen disk-subsystem counts of a small Fig. 9a-shaped run (joins beside
// debit-credit OLTP on the A nodes, 5 disks per PE), summed over the PEs.
// The controller cache and the page buffer are both exact LRU; a stale LRU
// position in either one moves these numbers.  They are golden: update
// them only for a deliberate change to the disk or buffer model.
TEST(DeterminismTest, Fig9ShapedDiskCountsArePinned) {
  SystemConfig cfg;
  cfg.num_pes = 10;
  cfg.join_query.arrival_rate_per_pe_qps = 0.075;
  cfg.oltp.enabled = true;
  cfg.oltp.placement = OltpPlacement::kANodes;
  cfg.disk.disks_per_pe = 5;
  cfg.strategy = strategies::OptIOCpu();
  cfg.warmup_ms = 1500.0;
  cfg.measurement_ms = 20000.0;
  cfg.seed = 1995;
  Cluster cluster(cfg);
  MetricsReport report = cluster.Run();
  ASSERT_GT(report.joins_completed, 0);
  ASSERT_GT(report.oltp_completed, 0);

  int64_t logical_reads = 0, physical_reads = 0, physical_writes = 0;
  int64_t cache_hits = 0;
  for (PeId pe = 0; pe < cluster.num_pes(); ++pe) {
    const DiskArray& d = cluster.pe(pe).disks();
    logical_reads += d.logical_reads();
    physical_reads += d.physical_reads();
    physical_writes += d.physical_writes();
    cache_hits += d.cache_hits();
  }
  EXPECT_EQ(logical_reads, 17910);
  EXPECT_EQ(physical_reads, 6976);
  EXPECT_EQ(physical_writes, 5243);
  EXPECT_EQ(cache_hits, 3773);
}

}  // namespace
}  // namespace pdblb
