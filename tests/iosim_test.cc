// Copyright 2026 the pdblb authors. MIT license.
//
// Unit tests for the disk subsystem: the paper's timing parameters,
// prefetching, the controller LRU cache, striping and the log disk.

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <vector>

#include "iosim/disk.h"
#include "simkern/resource.h"
#include "simkern/scheduler.h"

namespace pdblb {
namespace {

struct Fixture {
  sim::Scheduler sched;
  sim::Resource cpu{sched, 1, "cpu"};
  CpuCosts costs;
  DiskConfig config;

  std::unique_ptr<DiskArray> MakeDisks() {
    return std::make_unique<DiskArray>(sched, config, costs, 20.0, cpu, "t");
  }
};

TEST(DiskTest, RandomReadTiming) {
  Fixture f;
  auto disks = f.MakeDisks();
  SimTime end = -1;
  f.sched.Spawn([](Fixture& fx, DiskArray& d, SimTime* out) -> sim::Task<> {
    co_await d.Read(PageKey{1, 0}, AccessPattern::kRandom);
    *out = fx.sched.Now();
  }(f, *disks, &end));
  f.sched.Run();
  // io_overhead CPU (3000/20MIPS = 0.15) + disk (15 + 1*1) + controller (1)
  // + transmission (0.4) = 17.55 ms.
  EXPECT_NEAR(end, 17.55, 1e-9);
  EXPECT_EQ(disks->physical_reads(), 1);
  EXPECT_EQ(disks->cache_hits(), 0);
}

TEST(DiskTest, SequentialReadPrefetchesFourPages) {
  Fixture f;
  auto disks = f.MakeDisks();
  SimTime end = -1;
  f.sched.Spawn([](DiskArray& d, sim::Scheduler& s, SimTime* out) -> sim::Task<> {
    for (int i = 0; i < 4; ++i) {
      co_await d.Read(PageKey{1, i}, AccessPattern::kSequential);
    }
    *out = s.Now();
  }(*disks, f.sched, &end));
  f.sched.Run();
  // First read: 0.15 + (15+4) + 4*1 + 0.4 = 23.55; next three are cache
  // hits: 0.15 + 1 + 0.4 = 1.55 each.  Total 28.2 ms.
  EXPECT_NEAR(end, 23.55 + 3 * 1.55, 1e-9);
  EXPECT_EQ(disks->physical_reads(), 1);  // one physical I/O for 4 pages
  EXPECT_EQ(disks->cache_hits(), 3);
  EXPECT_EQ(disks->logical_reads(), 4);
}

TEST(DiskTest, PaperPrefetchAnchor19ms) {
  // "For a prefetching of 4 pages, the average disk access time is 19 ms."
  Fixture f;
  auto disks = f.MakeDisks();
  (void)disks;
  EXPECT_DOUBLE_EQ(
      f.config.avg_access_time_ms + 4 * f.config.prefetch_delay_per_page_ms,
      19.0);
}

TEST(DiskTest, CacheEvictsLru) {
  Fixture f;
  f.config.disk_cache_pages = 4;
  f.config.prefetch_pages = 1;
  auto disks = f.MakeDisks();
  f.sched.Spawn([](DiskArray& d) -> sim::Task<> {
    // Fill cache with pages 0..3, then read 4 (evicts 0), then 0 again.
    for (int i = 0; i < 5; ++i) {
      co_await d.Read(PageKey{1, i}, AccessPattern::kRandom);
    }
    co_await d.Read(PageKey{1, 0}, AccessPattern::kRandom);
  }(*disks));
  f.sched.Run();
  EXPECT_EQ(disks->physical_reads(), 6);  // page 0 had to be re-read
  EXPECT_EQ(disks->cache_hits(), 0);
}

TEST(DiskTest, CacheHitAvoidsDiskAccess) {
  Fixture f;
  f.config.prefetch_pages = 1;
  auto disks = f.MakeDisks();
  f.sched.Spawn([](DiskArray& d) -> sim::Task<> {
    co_await d.Read(PageKey{1, 7}, AccessPattern::kRandom);
    co_await d.Read(PageKey{1, 7}, AccessPattern::kRandom);
  }(*disks));
  f.sched.Run();
  EXPECT_EQ(disks->physical_reads(), 1);
  EXPECT_EQ(disks->cache_hits(), 1);
}

TEST(DiskTest, StripedReadUsesMultipleDisks) {
  Fixture f;
  f.config.disk_cache_pages = 0;  // force physical I/O
  auto disks = f.MakeDisks();
  SimTime end = -1;
  f.sched.Spawn([](DiskArray& d, sim::Scheduler& s, SimTime* out) -> sim::Task<> {
    co_await d.ReadStriped(PageKey{1, 0}, 40);  // 10 batches of 4
    *out = s.Now();
  }(*disks, f.sched, &end));
  f.sched.Run();
  // 10 batches in parallel across 10 disks: wall time far below the serial
  // 10 * 19 ms; bounded below by one batch (19) + controller serialization
  // (40 pages * 1 ms).
  EXPECT_EQ(disks->physical_reads(), 10);
  EXPECT_LT(end, 80.0);
  EXPECT_GE(end, 19.0);
}

TEST(DiskTest, StripedReadServesCachedPagesCheaply) {
  Fixture f;
  auto disks = f.MakeDisks();
  SimTime first = -1, second = -1;
  f.sched.Spawn([](DiskArray& d, sim::Scheduler& s, SimTime* t1,
                   SimTime* t2) -> sim::Task<> {
    co_await d.ReadStriped(PageKey{1, 0}, 16);
    *t1 = s.Now();
    co_await d.ReadStriped(PageKey{1, 0}, 16);  // all cached now
    *t2 = s.Now() - *t1;
  }(*disks, f.sched, &first, &second));
  f.sched.Run();
  EXPECT_LT(second, first);
  EXPECT_EQ(disks->physical_reads(), 4);
}

TEST(DiskTest, WriteBatchTimingAndCaching) {
  Fixture f;
  auto disks = f.MakeDisks();
  f.sched.Spawn([](DiskArray& d) -> sim::Task<> {
    co_await d.WriteBatch(PageKey{-1, 0}, 4);
    // Reading back the just-written pages hits the controller cache.
    co_await d.Read(PageKey{-1, 2}, AccessPattern::kSequential);
  }(*disks));
  f.sched.Run();
  EXPECT_EQ(disks->physical_writes(), 1);
  EXPECT_EQ(disks->cache_hits(), 1);
}

TEST(DiskTest, LogWriteUsesDedicatedDisk) {
  Fixture f;
  auto disks = f.MakeDisks();
  SimTime end = -1;
  f.sched.Spawn([](DiskArray& d, sim::Scheduler& s, SimTime* out) -> sim::Task<> {
    co_await d.LogWrite();
    *out = s.Now();
  }(*disks, f.sched, &end));
  f.sched.Run();
  EXPECT_NEAR(end, 0.15 + 5.0, 1e-9);  // CPU overhead + log append
  EXPECT_EQ(disks->physical_reads(), 0);
  EXPECT_DOUBLE_EQ(disks->DataDiskUtilization(), 0.0);  // log disk separate
}

TEST(DiskTest, UtilizationAccounting) {
  Fixture f;
  f.config.disks_per_pe = 2;
  f.config.disk_cache_pages = 0;
  f.config.prefetch_pages = 1;
  auto disks = f.MakeDisks();
  f.sched.Spawn([](DiskArray& d) -> sim::Task<> {
    co_await d.Read(PageKey{1, 0}, AccessPattern::kRandom);
  }(*disks));
  f.sched.Run();
  // One disk busy 16 ms out of ~17.55 total on a 2-disk array.
  EXPECT_GT(disks->DataDiskUtilization(), 0.3);
  EXPECT_LT(disks->DataDiskUtilization(), 0.5);
  disks->ResetStats();
  EXPECT_EQ(disks->physical_reads(), 0);
}

// Parameterized: striped read completes all pages for various counts.
class StripedReadTest : public ::testing::TestWithParam<int> {};

TEST_P(StripedReadTest, ReadsAllPages) {
  Fixture f;
  f.config.disk_cache_pages = 0;
  auto disks = f.MakeDisks();
  int n = GetParam();
  f.sched.Spawn([](DiskArray& d, int count) -> sim::Task<> {
    co_await d.ReadStriped(PageKey{1, 0}, count);
  }(*disks, n));
  f.sched.Run();
  EXPECT_EQ(disks->logical_reads(), n);
  int expected_batches = (n + f.config.prefetch_pages - 1) /
                         f.config.prefetch_pages;
  EXPECT_EQ(disks->physical_reads(), expected_batches);
}

INSTANTIATE_TEST_SUITE_P(Counts, StripedReadTest,
                         ::testing::Values(1, 3, 4, 5, 16, 17, 63, 200));

// ------------------------------------------- controller cache vs. a model
// Seeded random Read / ReadStriped / WriteBatch traces replayed through
// DiskArray and, in lockstep, through a naive std::list exact-LRU model of
// the controller.  After every step the counters and the cached page set
// must agree with the model.

class ReferenceDisk {
 public:
  ReferenceDisk(int capacity, int prefetch)
      : capacity_(capacity), prefetch_(prefetch) {}

  bool Cached(PageKey page) const {
    return std::find(lru_.begin(), lru_.end(), page) != lru_.end();
  }
  size_t size() const { return lru_.size(); }

  // Mirrors DiskArray::Read; returns true on a controller-cache hit.
  bool Read(PageKey page, bool sequential) {
    ++logical_reads;
    if (Cached(page)) {
      ++cache_hits;
      Insert(page);
      return true;
    }
    ++physical_reads;
    int fetch = sequential ? prefetch_ : 1;
    for (int i = 0; i < fetch; ++i) Insert(Page(page, i));
    return false;
  }

  void ReadStriped(PageKey first, int64_t count) {
    int64_t i = 0;
    while (i < count) {
      PageKey page = Page(first, i);
      if (Cached(page)) {
        ++cache_hits;
        ++logical_reads;
        Insert(page);
        ++i;
        continue;
      }
      int fetch = static_cast<int>(std::min<int64_t>(prefetch_, count - i));
      logical_reads += fetch;
      ++physical_reads;
      for (int k = 0; k < fetch; ++k) Insert(Page(page, k));
      i += fetch;
    }
  }

  void WriteBatch(PageKey first, int count) {
    ++physical_writes;
    for (int i = 0; i < count; ++i) Insert(Page(first, i));
  }

  int64_t logical_reads = 0;
  int64_t physical_reads = 0;
  int64_t physical_writes = 0;
  int64_t cache_hits = 0;

 private:
  static PageKey Page(PageKey first, int64_t i) {
    return PageKey{first.relation_id, first.page_no + i};
  }

  void Insert(PageKey page) {
    if (capacity_ <= 0) return;
    lru_.remove(page);
    lru_.push_front(page);
    while (static_cast<int>(lru_.size()) > capacity_) lru_.pop_back();
  }

  int capacity_;
  int prefetch_;
  std::list<PageKey> lru_;  // front = most recently used
};

enum class CacheOp { kRead, kReadSequential, kReadStriped, kWriteBatch };

struct CacheStep {
  int target;  // which array (and model) the step goes to
  CacheOp op;
  PageKey page;
  int count;
};

std::vector<CacheStep> RandomCacheTrace(uint64_t seed, int steps, int targets,
                                        int span) {
  uint64_t x = seed * 0x9e3779b97f4a7c15ULL + 1;
  auto next = [&x](uint64_t bound) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return static_cast<int>(x % bound);
  };
  std::vector<CacheStep> trace;
  for (int i = 0; i < steps; ++i) {
    CacheStep step;
    step.target = next(static_cast<uint64_t>(targets));
    step.op = static_cast<CacheOp>(next(4));
    step.page = PageKey{1 + next(2), next(static_cast<uint64_t>(span))};
    step.count = step.op == CacheOp::kReadStriped ? 1 + next(12)
                 : step.op == CacheOp::kWriteBatch ? 1 + next(6)
                                                   : 1;
    trace.push_back(step);
  }
  return trace;
}

void ExpectMatchesModel(const DiskArray& d, const ReferenceDisk& m, int span,
                        int step) {
  SCOPED_TRACE(::testing::Message() << "after step " << step);
  EXPECT_EQ(d.logical_reads(), m.logical_reads);
  EXPECT_EQ(d.physical_reads(), m.physical_reads);
  EXPECT_EQ(d.physical_writes(), m.physical_writes);
  EXPECT_EQ(d.cache_hits(), m.cache_hits);
  EXPECT_EQ(static_cast<size_t>(d.cached_pages()), m.size());
  // Pages up to a full prefetch/batch beyond the span can be cached.
  for (int32_t rel = 1; rel <= 2; ++rel) {
    for (int64_t p = 0; p < span + 16; ++p) {
      ASSERT_EQ(d.IsCached(PageKey{rel, p}), m.Cached(PageKey{rel, p}))
          << "page " << rel << "/" << p;
    }
  }
}

sim::Task<> ReplayAgainstModel(std::vector<DiskArray*> arrays,
                               std::vector<ReferenceDisk>* models,
                               std::vector<CacheStep> trace, int span) {
  for (size_t i = 0; i < trace.size(); ++i) {
    const CacheStep& s = trace[i];
    DiskArray& d = *arrays[s.target];
    ReferenceDisk& m = (*models)[s.target];
    switch (s.op) {
      case CacheOp::kRead:
      case CacheOp::kReadSequential: {
        bool sequential = s.op == CacheOp::kReadSequential;
        int64_t hits_before = d.cache_hits();
        bool hit = m.Read(s.page, sequential);
        co_await d.Read(s.page, sequential ? AccessPattern::kSequential
                                           : AccessPattern::kRandom);
        EXPECT_EQ(d.cache_hits() - hits_before, hit ? 1 : 0) << "step " << i;
        break;
      }
      case CacheOp::kReadStriped:
        m.ReadStriped(s.page, s.count);
        co_await d.ReadStriped(s.page, s.count);
        break;
      case CacheOp::kWriteBatch:
        m.WriteBatch(s.page, s.count);
        co_await d.WriteBatch(s.page, s.count);
        break;
    }
    for (size_t t = 0; t < arrays.size(); ++t) {
      ExpectMatchesModel(*arrays[t], (*models)[t], span, static_cast<int>(i));
    }
    if (::testing::Test::HasFailure()) co_return;
  }
}

void RunCacheModel(int capacity, uint64_t seed) {
  SCOPED_TRACE(::testing::Message()
               << "capacity " << capacity << ", seed " << seed);
  Fixture f;
  f.config.disk_cache_pages = capacity;
  auto disks = f.MakeDisks();
  // A page universe about twice the cache keeps hits and evictions mixed.
  const int span = std::max(4, capacity);
  std::vector<ReferenceDisk> models{
      ReferenceDisk(capacity, f.config.prefetch_pages)};
  f.sched.Spawn(ReplayAgainstModel({disks.get()}, &models,
                                   RandomCacheTrace(seed, 1500, 1, span),
                                   span));
  f.sched.Run();
  EXPECT_GT(disks->physical_reads(), 0);
  if (capacity > 0) {
    EXPECT_GT(disks->cache_hits(), 0);
  }
}

TEST(DiskCacheModelTest, RandomTracesMatchReferenceLru) {
  for (int capacity : {1, 2, 5, 16, 64}) {
    for (uint64_t seed : {1u, 2u, 3u}) RunCacheModel(capacity, seed);
  }
}

TEST(DiskCacheModelTest, DisabledCacheNeverHits) {
  RunCacheModel(/*capacity=*/0, /*seed=*/7);
}

TEST(DiskCacheModelTest, SharedDiskFacadesKeepPrivateCaches) {
  // Two Shared-Disk facades over one master pool: the spindles are shared,
  // but each facade's controller cache is its own exact LRU.
  Fixture f;
  f.config.disk_cache_pages = 8;
  sim::Resource cpu_b(f.sched, 1, "cpu_b");
  DiskArray master(f.sched, f.config, f.costs, 20.0, f.cpu, "pool");
  DiskArray facade_a(f.sched, f.config, f.costs, 20.0, f.cpu, "a", master);
  DiskArray facade_b(f.sched, f.config, f.costs, 20.0, cpu_b, "b", master);
  const int span = 12;
  std::vector<ReferenceDisk> models(
      3, ReferenceDisk(8, f.config.prefetch_pages));
  f.sched.Spawn(ReplayAgainstModel({&master, &facade_a, &facade_b}, &models,
                                   RandomCacheTrace(11, 1500, 3, span), span));
  f.sched.Run();
  EXPECT_GT(facade_a.cache_hits(), 0);
  EXPECT_GT(facade_b.cache_hits(), 0);
}

}  // namespace
}  // namespace pdblb
