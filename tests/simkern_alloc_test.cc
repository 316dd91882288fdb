// Copyright 2026 the pdblb authors. MIT license.
//
// Verifies the kernel's zero-allocation dispatch guarantee: once a
// simulation reaches steady state (calendar reserved, callback cells and
// coroutine frames recycled), dispatching events performs no heap
// allocations at all.  This lives in its own test binary because it
// replaces the global operator new/delete to count heap traffic.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "bufmgr/buffer_manager.h"
#include "common/config.h"
#include "iosim/disk.h"
#include "simkern/channel.h"
#include "simkern/latch.h"
#include "simkern/resource.h"
#include "simkern/scheduler.h"
#include "simkern/task.h"
#include "simkern/tracer.h"

namespace {
uint64_t g_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocations;
  return std::malloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  ++g_allocations;
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (size + static_cast<std::size_t>(align) -
                                    1) &
                                       ~(static_cast<std::size_t>(align) - 1)))
    return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace pdblb::sim {
namespace {

Task<> TimerLoop(Scheduler& sched, SimTime period, int64_t rounds) {
  for (int64_t i = 0; i < rounds; ++i) {
    co_await sched.Delay(period);
  }
}

Task<> ZeroDelayLoop(Scheduler& sched, int64_t rounds) {
  for (int64_t i = 0; i < rounds; ++i) {
    co_await sched.Delay(0.0);
  }
}

Task<> ShortLived(Scheduler& sched) { co_await sched.Delay(0.5); }

// Spawning a child per iteration churns coroutine frames; the frame arena
// must recycle them without touching the heap.
Task<> FrameChurnLoop(Scheduler& sched, int64_t rounds) {
  for (int64_t i = 0; i < rounds; ++i) {
    co_await ShortLived(sched);
  }
}

struct RearmingCallback {
  Scheduler* sched;
  int64_t remaining;
  SimTime period;
  uint64_t context[2];  // sized like a realistic completion callback

  void operator()() {
    if (--remaining > 0) {
      sched->ScheduleCallback(sched->Now() + period, *this);
    }
  }
};

TEST(SchedulerAllocTest, SteadyStateDispatchAllocatesNothing) {
  Scheduler sched;
  sched.Reserve(/*events=*/1024, /*callbacks=*/256);

  constexpr int64_t kRounds = 200000;
  for (int i = 0; i < 16; ++i) {
    sched.Spawn(TimerLoop(sched, 1.0 + 0.013 * i, kRounds));
  }
  for (int i = 0; i < 4; ++i) {
    sched.Spawn(ZeroDelayLoop(sched, kRounds));
  }
  sched.Spawn(FrameChurnLoop(sched, kRounds));
  sched.ScheduleCallback(1.0,
                         RearmingCallback{&sched, kRounds, 0.7, {1, 2}});

  // Warm-up: grow the calendar/slab/arena to their steady-state sizes.
  sched.RunUntil(500.0);
  uint64_t events_before = sched.events_processed();
  ASSERT_GT(events_before, 10000u);

  uint64_t allocations_before = g_allocations;
  sched.RunUntil(5000.0);
  uint64_t allocations_after = g_allocations;
  uint64_t dispatched = sched.events_processed() - events_before;

  EXPECT_GT(dispatched, 50000u);
  EXPECT_EQ(allocations_after - allocations_before, 0u)
      << "dispatching " << dispatched << " events allocated "
      << (allocations_after - allocations_before) << " times";
}

// --- blocking primitives ---------------------------------------------------
// The frameless Resource::Use awaiter and the ring-buffer waiter/value
// queues extend the zero-allocation guarantee from dispatch to *blocking*:
// once the rings have grown to the high-water mark of each queue, contended
// acquisitions, channel traffic and latch fork/joins touch the heap exactly
// never.  (The old kernel allocated a coroutine frame per Use and paid
// std::deque chunk churn on every queue at chunk boundaries, forever.)

Task<> ContendedClient(Scheduler& sched, Resource& res, SimTime hold,
                       int64_t rounds) {
  for (int64_t i = 0; i < rounds; ++i) {
    co_await res.Use(hold);
  }
  (void)sched;
}

TEST(SchedulerAllocTest, ContendedResourceUseAllocatesNothing) {
  Scheduler sched;
  sched.Reserve(/*events=*/1024);
  Resource res(sched, /*servers=*/3, "cpu");
  // 48 clients against 3 servers: essentially every acquisition queues.
  for (int i = 0; i < 48; ++i) {
    sched.Spawn(ContendedClient(sched, res, 0.4 + 0.01 * i, 50000));
  }
  sched.RunUntil(500.0);  // warm-up: rings and frame arena reach steady state
  ASSERT_GT(res.max_queue_length(), 16u) << "shape is not actually contended";

  uint64_t allocations_before = g_allocations;
  uint64_t completed_before = res.completed();
  sched.RunUntil(5000.0);
  EXPECT_GT(res.completed() - completed_before, 20000u);
  EXPECT_EQ(g_allocations - allocations_before, 0u)
      << "contended Resource::Use must not allocate in steady state";
}

Task<> PingPongProducer(Scheduler& sched, Channel<int64_t>& ch, int burst,
                        int64_t rounds) {
  for (int64_t i = 0; i < rounds; ++i) {
    co_await sched.Delay(1.0);
    // Bursts larger than the ring's inline capacity keep the value queue
    // at its grown (heap) capacity — the "at capacity" steady state.
    for (int k = 0; k < burst; ++k) ch.Send(i * burst + k);
  }
  ch.Close();
}

Task<> PingPongConsumer(Channel<int64_t>& ch, uint64_t* received) {
  while (auto v = co_await ch.Receive()) {
    ++*received;
  }
}

TEST(SchedulerAllocTest, ChannelSendRecvAtCapacityAllocatesNothing) {
  Scheduler sched;
  sched.Reserve(/*events=*/256);
  Channel<int64_t> ch(sched);
  uint64_t received = 0;
  sched.Spawn(PingPongConsumer(ch, &received));
  sched.Spawn(PingPongProducer(sched, ch, /*burst=*/16, /*rounds=*/100000));
  sched.RunUntil(200.0);  // warm-up grows the value ring past inline capacity
  ASSERT_GT(received, 1000u);

  uint64_t allocations_before = g_allocations;
  uint64_t received_before = received;
  sched.RunUntil(20000.0);
  EXPECT_GT(received - received_before, 100000u);
  EXPECT_EQ(g_allocations - allocations_before, 0u)
      << "channel send/recv at capacity must not allocate in steady state";
}

Task<> LatchChild(Scheduler& sched, Latch* latch, SimTime delay) {
  co_await sched.Delay(delay);
  latch->CountDown();
}

// Repeated fork/join: a brand-new Latch per round, children spawned from
// the recycled frame arena, the single waiter held in the latch's inline
// ring slots.  No round may touch the heap after warm-up.
Task<> ForkJoinLoop(Scheduler& sched, int fanout, int64_t rounds,
                    uint64_t* joins) {
  for (int64_t i = 0; i < rounds; ++i) {
    Latch latch(sched, fanout);
    for (int f = 0; f < fanout; ++f) {
      sched.Spawn(LatchChild(sched, &latch, 0.5 + 0.1 * f));
    }
    co_await latch.Wait();
    ++*joins;
  }
}

TEST(SchedulerAllocTest, LatchFanOutAllocatesNothing) {
  Scheduler sched;
  sched.Reserve(/*events=*/256);
  uint64_t joins = 0;
  sched.Spawn(ForkJoinLoop(sched, /*fanout=*/8, /*rounds=*/100000, &joins));
  sched.RunUntil(100.0);  // warm-up
  ASSERT_GT(joins, 10u);

  uint64_t allocations_before = g_allocations;
  uint64_t joins_before = joins;
  sched.RunUntil(30000.0);
  EXPECT_GT(joins - joins_before, 10000u);
  EXPECT_EQ(g_allocations - allocations_before, 0u)
      << "latch fork/join fan-out must not allocate in steady state";
}

// Tracing must preserve the zero-allocation guarantee: the record ring is
// pre-allocated at Tracer construction and the per-dispatch Record() only
// writes into it (wrapping in place once full — the 4096-record ring here
// wraps thousands of times below).  In a PDBLB_TRACE=OFF build AttachTracer
// is a no-op and this test degenerates to the plain dispatch test, so the
// compiled-out path is covered by the same assertion in the OFF CI build.
TEST(SchedulerAllocTest, DispatchWithTracingEnabledAllocatesNothing) {
  Scheduler sched;
  Tracer tracer(/*capacity=*/4096);
  sched.AttachTracer(&tracer);
  sched.Reserve(/*events=*/1024, /*callbacks=*/256);

  constexpr int64_t kRounds = 200000;
  for (int i = 0; i < 8; ++i) {
    sched.Spawn(TimerLoop(sched, 1.0 + 0.013 * i, kRounds));
  }
  for (int i = 0; i < 2; ++i) {
    sched.Spawn(ZeroDelayLoop(sched, kRounds));
  }
  Resource res(sched, /*servers=*/2, "cpu",
               TraceTag(TraceSubsystem::kCpu, 1));
  for (int i = 0; i < 8; ++i) {
    sched.Spawn(ContendedClient(sched, res, 0.4 + 0.01 * i, kRounds));
  }
  Channel<int64_t> ch(sched);
  uint64_t received = 0;
  sched.Spawn(PingPongConsumer(ch, &received));
  sched.Spawn(PingPongProducer(sched, ch, /*burst=*/16, /*rounds=*/kRounds));

  sched.RunUntil(500.0);  // warm-up
  uint64_t events_before = sched.events_processed();
  ASSERT_GT(events_before, 10000u);

  uint64_t allocations_before = g_allocations;
  sched.RunUntil(5000.0);
  uint64_t dispatched = sched.events_processed() - events_before;
  EXPECT_GT(dispatched, 50000u);
  EXPECT_EQ(g_allocations - allocations_before, 0u)
      << "dispatching " << dispatched
      << " events with tracing enabled must not allocate";

  if (kTraceCompiledIn) {
    EXPECT_GT(tracer.ring().total(), tracer.ring().capacity())
        << "shape did not exercise ring wrap-around";
    uint64_t recorded = 0;
    for (const TraceBreakdown& b : tracer.breakdown()) recorded += b.events;
    EXPECT_EQ(recorded,
              sched.events_processed() + sched.inline_resumes());
  } else {
    EXPECT_EQ(tracer.ring().total(), 0u);
  }
}

// Cancellation must be allocation-free in steady state: SpawnWithId feeds
// the recycled frame arena and the detached-frame registry's ring slots,
// Cancel scrubs calendar/ring entries in place (tombstones, no compaction)
// and destroying the victim unhooks it from the resource's waiter ring.
// After warm-up, a spawn/park/cancel cycle touches the heap exactly never.
Task<> CancelChurnLoop(Scheduler& sched, Resource& res, int64_t rounds,
                       uint64_t* cancelled) {
  for (int64_t i = 0; i < rounds; ++i) {
    // One victim parked in the calendar, one parked in the resource queue
    // (the resource's single server is held by a permanent holder).  The
    // timer victim's horizon is finite: a cancelled calendar entry is a
    // tombstone dropped when its timestamp drains, so victims parked at
    // "never" would pile tombstones up and grow the heap forever — bounded
    // pending-time keeps the tombstone population at a steady state.
    uint64_t timer_victim = sched.SpawnWithId(TimerLoop(sched, 50.0, 1));
    uint64_t queue_victim = sched.SpawnWithId(ContendedClient(
        sched, res, /*hold=*/1.0, /*rounds=*/1));
    co_await sched.Delay(0.5);
    if (sched.Cancel(timer_victim)) ++*cancelled;
    if (sched.Cancel(queue_victim)) ++*cancelled;
  }
}

TEST(SchedulerAllocTest, CancellationAllocatesNothing) {
  Scheduler sched;
  sched.Reserve(/*events=*/256);
  Resource res(sched, /*servers=*/1, "cpu");
  sched.Spawn(ContendedClient(sched, res, /*hold=*/1e9, /*rounds=*/1));
  uint64_t cancelled = 0;
  constexpr int64_t kRounds = 100000;
  sched.Spawn(CancelChurnLoop(sched, res, kRounds, &cancelled));
  sched.RunUntil(100.0);  // warm-up: arena/registry/rings reach steady state
  ASSERT_GT(cancelled, 100u);

  uint64_t allocations_before = g_allocations;
  uint64_t cancelled_before = cancelled;
  sched.RunUntil(20000.0);
  EXPECT_GT(cancelled - cancelled_before, 10000u);
  EXPECT_EQ(g_allocations - allocations_before, 0u)
      << "cancelling " << (cancelled - cancelled_before)
      << " parked frames allocated "
      << (g_allocations - allocations_before) << " times";
}

// --- buffer pool -----------------------------------------------------------
// The slot-indexed frame table extends the guarantee to the buffer manager:
// hits touch only the open-addressing index and the policy's intrusive
// links; misses, evictions and dirty writebacks recycle frames through the
// fixed slot array and the coroutine arena; FetchRange leases its run
// scratch from a recycled pool.  After warm-up, steady-state churn under
// every eviction policy allocates exactly never.  (The old manager paid
// std::list/unordered_map node churn on every miss, forever.)
//
// The disk controller cache is disabled here: a striped read spawns one
// TaskGroup member per controller-cached page, and a 28-page scan of cached
// pages outgrows the group's inline member capacity.  The controller cache
// itself is pinned allocation-free by DiskControllerCacheChurnAllocatesNothing
// below.

Task<> BufferChurnLoop(Scheduler& sched, BufferManager& buf, int64_t rounds,
                       uint64_t* fetches) {
  uint64_t rng = 0x2545f4914f6cdd1dULL;
  for (int64_t i = 0; i < rounds; ++i) {
    // Four hot fetches (32-page working set, half the 64-page pool): hits
    // in steady state.
    for (int k = 0; k < 4; ++k) {
      rng ^= rng << 13;
      rng ^= rng >> 7;
      rng ^= rng << 17;
      co_await buf.Fetch(PageKey{1, static_cast<int64_t>(rng % 32)},
                         AccessPattern::kRandom);
      ++*fetches;
    }
    // One cold fetch from a universe far larger than the pool: a miss that
    // forces an eviction, every round.
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    PageKey cold{1, 100 + static_cast<int64_t>(rng % 4096)};
    co_await buf.Fetch(cold, AccessPattern::kRandom);
    ++*fetches;
    // Dirty it so its eviction takes the async writeback path.
    buf.MarkDirty(cold);
    // A sequential scan with missing runs exercises the leased run scratch
    // and striped prefetch.  28 pages = 7 prefetch batches: below the
    // TaskGroup's inline member capacity, so the per-call group never grows.
    if (i % 16 == 0) {
      co_await buf.FetchRange(PageKey{2, (i % 8) * 28}, 28);
      ++*fetches;
    }
  }
}

TEST(SchedulerAllocTest, BufferPoolChurnAllocatesNothing) {
  const EvictionPolicyKind kinds[] = {
      EvictionPolicyKind::kLru, EvictionPolicyKind::kLruK,
      EvictionPolicyKind::kLfu, EvictionPolicyKind::kClock};
  for (EvictionPolicyKind kind : kinds) {
    SCOPED_TRACE(EvictionPolicyName(kind));
    Scheduler sched;
    sched.Reserve(/*events=*/256);
    Resource cpu(sched, /*servers=*/1, "cpu");
    CpuCosts costs;
    DiskConfig disk_config;
    disk_config.disk_cache_pages = 0;  // see section comment
    BufferConfig buf_config;
    buf_config.buffer_pages = 64;
    buf_config.eviction = kind;
    DiskArray disks(sched, disk_config, costs, 20.0, cpu, "t");
    BufferManager buf(sched, buf_config, disks, "buf");

    uint64_t fetches = 0;
    sched.Spawn(BufferChurnLoop(sched, buf, /*rounds=*/1000000, &fetches));
    // Warm-up: fill the pool, reach eviction steady state, grow the frame
    // arena and the run-scratch pool to their high-water marks.
    sched.RunUntil(20000.0);
    ASSERT_GT(buf.evictions(), 100) << "shape does not actually evict";
    ASSERT_GT(buf.buffer_hits(), 100u);

    uint64_t allocations_before = g_allocations;
    uint64_t fetches_before = fetches;
    int64_t writebacks_before = buf.dirty_writebacks();
    sched.RunUntil(200000.0);
    EXPECT_GT(fetches - fetches_before, 5000u);
    EXPECT_GT(buf.dirty_writebacks() - writebacks_before, 100);
    EXPECT_EQ(g_allocations - allocations_before, 0u)
        << "fetch hit/miss/evict/writeback churn allocated under "
        << EvictionPolicyName(kind);
  }
}

// The disk controller cache uses the frame table's idiom
// (iosim/page_cache.h).  Its slots and page index are sized on the first
// insert; after that, cache hits, inserts and LRU evictions through Read,
// ReadStriped and WriteBatch allocate nothing.

Task<> DiskCacheChurnLoop(DiskArray& disks, int64_t rounds, uint64_t* ops) {
  uint64_t rng = 0x9e3779b97f4a7c15ULL;
  auto next = [&rng](uint64_t bound) {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return static_cast<int64_t>(rng % bound);
  };
  for (int64_t i = 0; i < rounds; ++i) {
    // Hot random reads over 16 pages of a 64-page cache: hits.
    for (int k = 0; k < 4; ++k) {
      co_await disks.Read(PageKey{1, next(16)}, AccessPattern::kRandom);
    }
    // Cold reads from a universe far larger than the cache: misses whose
    // inserts (four pages for the sequential prefetch) evict.
    co_await disks.Read(PageKey{2, next(4096)}, AccessPattern::kRandom);
    co_await disks.Read(PageKey{2, next(4096)}, AccessPattern::kSequential);
    // Striped reads mix cached and missing pages.  At most 8 pages keep the
    // per-call TaskGroup within its inline member capacity.
    co_await disks.ReadStriped(PageKey{1, next(24)}, 8);
    co_await disks.WriteBatch(PageKey{3, next(4096)}, 4);
    *ops += 8;
  }
}

TEST(SchedulerAllocTest, DiskControllerCacheChurnAllocatesNothing) {
  Scheduler sched;
  sched.Reserve(/*events=*/256);
  Resource cpu(sched, /*servers=*/1, "cpu");
  CpuCosts costs;
  DiskConfig disk_config;
  disk_config.disk_cache_pages = 64;
  DiskArray disks(sched, disk_config, costs, 20.0, cpu, "t");

  uint64_t ops = 0;
  sched.Spawn(DiskCacheChurnLoop(disks, /*rounds=*/1000000, &ops));
  // Warm-up: size the cache, fill it, grow the frame arena.
  sched.RunUntil(20000.0);
  ASSERT_EQ(disks.cached_pages(), 64) << "shape does not fill the cache";
  ASSERT_GT(disks.cache_hits(), 100);

  uint64_t allocations_before = g_allocations;
  uint64_t ops_before = ops;
  int64_t hits_before = disks.cache_hits();
  int64_t reads_before = disks.physical_reads();
  sched.RunUntil(200000.0);
  EXPECT_GT(ops - ops_before, 5000u);
  EXPECT_GT(disks.cache_hits() - hits_before, 1000);
  EXPECT_GT(disks.physical_reads() - reads_before, 1000);
  EXPECT_EQ(g_allocations - allocations_before, 0u)
      << "controller-cache hit/insert/evict churn allocated";
}

TEST(SchedulerAllocTest, AllocationCounterIsLive) {
  // Sanity-check the instrumentation itself.
  uint64_t before = g_allocations;
  int* p = new int(1);
  EXPECT_GT(g_allocations, before);
  delete p;
}

}  // namespace
}  // namespace pdblb::sim
