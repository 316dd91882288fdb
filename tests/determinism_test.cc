// Copyright 2026 the pdblb authors. MIT license.
//
// Determinism: every experiment is exactly reproducible from its seed, for
// every workload class, architecture, CC scheme and join method — and
// different seeds genuinely change the outcome.  This is what makes the
// figure reproductions trustworthy.

#include <gtest/gtest.h>

#include "common/config.h"
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

/// All five query classes at once: joins, scans, updates, multi-way joins
/// and debit-credit OLTP.
SystemConfig AllClassesConfig() {
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
  return cfg;
}

TEST(DeterminismTest, AllClassesMixed) {
  SystemConfig cfg = AllClassesConfig();
  ExpectIdentical(RunOnce(cfg), RunOnce(cfg));
}

// Frozen outcome of the all-classes mix.  Every executor's event sequence
// (start-up and commit fan-outs, local-join set-up, build/probe phases,
// lock requests) feeds these counts, so a reordered co_await or spawn in
// any of them moves at least one.  They are golden: update them only for a
// deliberate change to an executor's behaviour.
TEST(DeterminismTest, AllClassesMixedIsPinned) {
  MetricsReport r = RunOnce(AllClassesConfig());
  EXPECT_EQ(r.kernel_events, 31085);
  EXPECT_EQ(r.kernel_handoffs, 1127);
  EXPECT_EQ(r.joins_completed, 2);
  EXPECT_EQ(r.scans_completed, 2);
  EXPECT_EQ(r.updates_completed, 3);
  EXPECT_EQ(r.multiway_completed, 1);
  EXPECT_EQ(r.oltp_completed, 151);
  EXPECT_EQ(r.lock_waits, 5);
  EXPECT_EQ(r.update_aborts, 0);
}

// A longer, busier all-classes mix under strict 2PL and the fault
// supervisor: a crash and recovery cancel resident attempts of every class
// mid-flight, and a deadline times some of them out.  After the drain no
// admission slot, buffer reservation or memory-queue entry may survive at
// any PE (the conservation checks of tests/chaos_test.cc).  The retry,
// timeout and event counts are golden, like the pin above.
TEST(DeterminismTest, SupervisedAllClassesUnder2plConserveResources) {
  SystemConfig cfg = AllClassesConfig();
  cfg.measurement_ms = 16000.0;
  cfg.join_query.arrival_rate_per_pe_qps = 0.1;
  cfg.scan_query.arrival_rate_per_pe_qps = 0.1;
  cfg.update_query.arrival_rate_per_pe_qps = 0.1;
  cfg.multiway_join.arrival_rate_per_pe_qps = 0.05;
  cfg.cc_scheme = CcScheme::kTwoPhaseLocking;
  ASSERT_TRUE(
      ParseFaultSpec("crash@6000:pe3;recover@9000:pe3;timeout=4000",
                     &cfg.faults)
          .ok());
  Cluster cluster(cfg);
  MetricsReport r = cluster.Run();
  EXPECT_EQ(r.pe_crashes, 1);
  EXPECT_EQ(r.pe_recoveries, 1);
  EXPECT_GT(r.joins_completed, 0);
  EXPECT_GT(r.scans_completed, 0);
  EXPECT_GT(r.updates_completed, 0);
  EXPECT_GT(r.multiway_completed, 0);
  EXPECT_GT(r.oltp_completed, 0);
  EXPECT_EQ(r.queries_retried, 24);
  EXPECT_EQ(r.queries_timed_out, 1);
  EXPECT_EQ(r.kernel_events, 206678);
  for (PeId pe = 0; pe < cfg.num_pes; ++pe) {
    EXPECT_EQ(cluster.pe(pe).admission().busy(), 0) << "pe " << pe;
    EXPECT_EQ(cluster.pe(pe).admission().queue_length(), 0u) << "pe " << pe;
    EXPECT_EQ(cluster.pe(pe).buffer().reserved(), 0) << "pe " << pe;
    EXPECT_EQ(cluster.pe(pe).buffer().memory_queue_length(), 0u)
        << "pe " << pe;
  }
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
