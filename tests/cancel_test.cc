// Copyright 2026 the pdblb authors. MIT license.
//
// Regression tests for Scheduler::Cancel: destroying a suspended frame must
// remove its pending calendar/ring entries (no ghost dispatch) and unhook it
// from whatever primitive it is parked in — Delay, Resource (both queued and
// granted-but-pending), Channel, Latch, TaskGroup, LockManager and the
// buffer manager's memory queue.  Each test parks a victim, cancels it
// mid-wait, and checks that (a) the victim never runs, (b) waiters behind it
// are served normally, and (c) no server/lock/reservation is leaked.  A
// Network::Send cancelled in flight must never run its delivery
// continuation.
// Finally, a composite scenario with cancellations must replay bit-identical
// (same event trace bytes, same event count) across reruns, and scheduler
// teardown must destroy every frame still suspended.

#include <gtest/gtest.h>

#include <string>

#include "bufmgr/buffer_manager.h"
#include "common/config.h"
#include "engine/cluster.h"
#include "iosim/disk.h"
#include "lockmgr/lock_manager.h"
#include "netsim/network.h"
#include "simkern/channel.h"
#include "simkern/latch.h"
#include "simkern/resource.h"
#include "simkern/scheduler.h"
#include "simkern/task.h"
#include "simkern/task_group.h"
#include "simkern/tracer.h"

namespace pdblb {
namespace {

using sim::Channel;
using sim::Latch;
using sim::Resource;
using sim::Scheduler;
using sim::Task;
using sim::TaskGroup;
using sim::Tracer;

Task<> FlagAfterDelay(Scheduler& sched, SimTime delay, bool* ran) {
  co_await sched.Delay(delay);
  *ran = true;
}

TEST(CancelTest, CancelRemovesPendingDelay) {
  Scheduler sched;
  bool ran = false;
  uint64_t id = sched.SpawnWithId(FlagAfterDelay(sched, 10.0, &ran));
  EXPECT_TRUE(sched.Alive(id));
  sched.ScheduleCallback(5.0, [&] {
    EXPECT_TRUE(sched.Cancel(id));
    EXPECT_FALSE(sched.Alive(id));
    EXPECT_FALSE(sched.Cancel(id)) << "stale ids must no-op";
  });
  sched.Run();
  EXPECT_FALSE(ran) << "cancelled frame was ghost-dispatched";
  EXPECT_EQ(sched.pending_events(), 0u);
}

TEST(CancelTest, CancelIdOfCompletedFrameIsStale) {
  Scheduler sched;
  bool ran = false;
  uint64_t id = sched.SpawnWithId(FlagAfterDelay(sched, 1.0, &ran));
  sched.Run();
  EXPECT_TRUE(ran);
  EXPECT_FALSE(sched.Alive(id));
  EXPECT_FALSE(sched.Cancel(id));
}

Task<> UseAndFlag(Resource& res, SimTime hold, bool* ran) {
  co_await res.Use(hold);
  *ran = true;
}

Task<> AcquireAndFlag(Scheduler& sched, Resource& res, SimTime hold,
                      bool* ran) {
  co_await res.Acquire();
  co_await sched.Delay(hold);
  res.Release();
  *ran = true;
}

// Victim parked in the resource's waiter queue: the cancel must erase its
// queue entry so the grant chain skips straight to the waiter behind it.
TEST(CancelTest, CancelWaiterQueuedInResourceAcquire) {
  Scheduler sched;
  Resource res(sched, /*servers=*/1, "cpu");
  bool holder = false, victim = false, behind = false;
  sched.Spawn(AcquireAndFlag(sched, res, 10.0, &holder));
  uint64_t victim_id =
      sched.SpawnWithId(AcquireAndFlag(sched, res, 1.0, &victim));
  sched.Spawn(AcquireAndFlag(sched, res, 1.0, &behind));
  sched.ScheduleCallback(5.0, [&] { EXPECT_TRUE(sched.Cancel(victim_id)); });
  sched.Run();
  EXPECT_TRUE(holder);
  EXPECT_FALSE(victim);
  EXPECT_TRUE(behind) << "waiter behind the cancelled one was never granted";
  EXPECT_EQ(res.completed(), 2u);
}

// Victim cancelled in the window between Release() granting it a server and
// the grant event dispatching: CancelWaiter must hand the server back.  The
// cancel callback is scheduled at the exact release timestamp, after the
// holder's resume in same-time FIFO order, so it runs once the victim is
// granted-but-pending.
TEST(CancelTest, CancelGrantedButPendingResourceWaiter) {
  Scheduler sched;
  Resource res(sched, /*servers=*/1, "cpu");
  bool holder = false, victim = false, behind = false;
  sched.Spawn(UseAndFlag(res, 10.0, &holder));  // resume@10 inserted first
  uint64_t victim_id = sched.SpawnWithId(UseAndFlag(res, 1.0, &victim));
  sched.Spawn(UseAndFlag(res, 1.0, &behind));
  sched.ScheduleCallback(10.0, [&] { sched.Cancel(victim_id); });
  sched.Run();
  EXPECT_TRUE(holder);
  EXPECT_FALSE(victim);
  EXPECT_TRUE(behind) << "server leaked by cancelling a granted waiter";
  EXPECT_EQ(res.completed(), 2u);
}

Task<> ReceiveAndFlag(Channel<int>& ch, int* got, bool* closed) {
  while (auto v = co_await ch.Receive()) {
    *got = *v;
  }
  *closed = true;
}

TEST(CancelTest, CancelConsumerParkedInChannelReceive) {
  Scheduler sched;
  Channel<int> ch(sched);
  int victim_got = 0, other_got = 0;
  bool victim_closed = false, other_closed = false;
  uint64_t victim_id =
      sched.SpawnWithId(ReceiveAndFlag(ch, &victim_got, &victim_closed));
  sched.Spawn(ReceiveAndFlag(ch, &other_got, &other_closed));
  sched.ScheduleCallback(5.0, [&] { sched.Cancel(victim_id); });
  sched.ScheduleCallback(8.0, [&] {
    ch.Send(42);
    ch.Close();
  });
  sched.Run();
  EXPECT_EQ(victim_got, 0);
  EXPECT_FALSE(victim_closed);
  EXPECT_EQ(other_got, 42) << "value lost to a cancelled consumer";
  EXPECT_TRUE(other_closed);
}

Task<> WaitLatchAndFlag(Latch& latch, bool* ran) {
  co_await latch.Wait();
  *ran = true;
}

TEST(CancelTest, CancelWaiterParkedInLatchWait) {
  Scheduler sched;
  Latch latch(sched, 1);
  bool victim = false, other = false;
  uint64_t victim_id = sched.SpawnWithId(WaitLatchAndFlag(latch, &victim));
  sched.Spawn(WaitLatchAndFlag(latch, &other));
  sched.ScheduleCallback(5.0, [&] { sched.Cancel(victim_id); });
  sched.ScheduleCallback(8.0, [&] { latch.CountDown(); });
  sched.Run();
  EXPECT_FALSE(victim);
  EXPECT_TRUE(other);
}

Task<> WaitGroupAndFlag(TaskGroup& group, bool* ran) {
  co_await group.Wait();
  *ran = true;
}

TEST(CancelTest, CancelWaiterParkedInTaskGroupWait) {
  Scheduler sched;
  TaskGroup group(sched);
  bool member_done = false, victim = false, other = false;
  group.Spawn(FlagAfterDelay(sched, 10.0, &member_done));
  uint64_t victim_id = sched.SpawnWithId(WaitGroupAndFlag(group, &victim));
  sched.Spawn(WaitGroupAndFlag(group, &other));
  sched.ScheduleCallback(5.0, [&] { sched.Cancel(victim_id); });
  sched.Run();
  EXPECT_TRUE(member_done);
  EXPECT_FALSE(victim);
  EXPECT_TRUE(other);
  EXPECT_EQ(group.active(), 0);
}

// Two PEs joined by the default network (20 MIPS): a one-packet Send takes
// 0.5 ms of sender CPU, 0.1 ms on the wire and 0.75 ms of receiver CPU.
struct TwoPeNetwork {
  Scheduler sched;
  Resource cpu0{sched, 1, "cpu0"};
  Resource cpu1{sched, 1, "cpu1"};
  Network net{sched, NetworkConfig{}, CpuCosts{}, 20.0, {&cpu0, &cpu1}};
};

TEST(CancelTest, CancelSendMidWireNeverDelivers) {
  TwoPeNetwork n;
  bool delivered = false;
  bool behind = false;
  uint64_t victim_id = n.sched.SpawnWithId(
      n.net.Send(0, 1, 100, [&delivered] { delivered = true; }));
  n.sched.Spawn(n.net.Send(0, 1, 100, [&behind] { behind = true; }));
  // 0.55 ms: the victim is on the wire, the second send holds cpu0.
  n.sched.ScheduleCallback(0.55,
                           [&] { EXPECT_TRUE(n.sched.Cancel(victim_id)); });
  n.sched.Run();
  EXPECT_FALSE(delivered) << "a cancelled send ran its continuation";
  EXPECT_TRUE(behind);
  EXPECT_EQ(n.cpu0.busy(), 0);
  EXPECT_EQ(n.cpu1.busy(), 0);
  EXPECT_EQ(n.cpu1.completed(), 1u) << "only the surviving send is received";
  EXPECT_EQ(n.sched.pending_events(), 0u);
}

TEST(CancelTest, CancelSendQueuedOnReceiverCpuReturnsTheServer) {
  TwoPeNetwork n;
  bool holder = false;
  bool delivered = false;
  bool behind = false;
  n.sched.Spawn(UseAndFlag(n.cpu1, 10.0, &holder));
  uint64_t victim_id = n.sched.SpawnWithId(
      n.net.Send(0, 1, 100, [&delivered] { delivered = true; }));
  SimTime behind_at = -1;
  n.sched.Spawn(n.net.Send(0, 1, 100, [&] {
    behind = true;
    behind_at = n.sched.Now();
  }));
  // 5 ms: both sends wait for cpu1, the victim first in line.
  n.sched.ScheduleCallback(5.0, [&] {
    EXPECT_EQ(n.cpu1.queue_length(), 2u);
    EXPECT_TRUE(n.sched.Cancel(victim_id));
    EXPECT_EQ(n.cpu1.queue_length(), 1u);
  });
  n.sched.Run();
  EXPECT_TRUE(holder);
  EXPECT_FALSE(delivered) << "a cancelled send ran its continuation";
  EXPECT_TRUE(behind) << "the send behind the cancelled one was never served";
  // The send behind takes cpu1 straight after the holder.
  EXPECT_NEAR(behind_at, 10.0 + 0.75, 1e-9);
  EXPECT_EQ(n.cpu1.busy(), 0);
  EXPECT_EQ(n.cpu1.completed(), 2u);
}

Task<> LockDelayRelease(Scheduler& sched, LockManager& lm, TxnId txn,
                        SimTime start, SimTime hold, bool* granted) {
  co_await sched.Delay(start);
  bool ok = co_await lm.Lock(txn, LockKey{1, 7}, LockMode::kExclusive);
  if (granted != nullptr) *granted = ok;
  if (ok) {
    co_await sched.Delay(hold);
    lm.ReleaseAll(txn);
  }
}

TEST(CancelTest, CancelWaiterParkedInLockManagerWait) {
  Scheduler sched;
  LockManager lm(sched);
  bool victim_granted = false, behind_granted = false;
  sched.Spawn(LockDelayRelease(sched, lm, 1, 0.0, 10.0, nullptr));
  uint64_t victim_id = sched.SpawnWithId(
      LockDelayRelease(sched, lm, 2, 1.0, 1.0, &victim_granted));
  sched.Spawn(LockDelayRelease(sched, lm, 3, 2.0, 1.0, &behind_granted));
  sched.ScheduleCallback(5.0, [&] { sched.Cancel(victim_id); });
  sched.Run();
  EXPECT_FALSE(victim_granted) << "cancelled lock waiter was granted";
  EXPECT_TRUE(behind_granted)
      << "lock never reached the waiter behind the cancelled one";
  EXPECT_FALSE(lm.HoldsAnyLock(2));
  EXPECT_FALSE(lm.HoldsAnyLock(3));
}

struct BufFixture {
  sim::Scheduler sched;
  sim::Resource cpu{sched, 1, "cpu"};
  CpuCosts costs;
  DiskConfig disk_config;
  BufferConfig buf_config;
  std::unique_ptr<DiskArray> disks;
  std::unique_ptr<BufferManager> buffer;

  explicit BufFixture(int pages) {
    buf_config.buffer_pages = pages;
    disks = std::make_unique<DiskArray>(sched, disk_config, costs, 20.0, cpu,
                                        "t");
    buffer =
        std::make_unique<BufferManager>(sched, buf_config, *disks, "buf");
  }
};

Task<> ReserveDelayRelease(Scheduler& sched, BufferManager& buf, int pages,
                           SimTime start, SimTime hold, bool* granted) {
  co_await sched.Delay(start);
  int got = co_await buf.ReserveWait(pages, pages);
  if (granted != nullptr) *granted = true;
  co_await sched.Delay(hold);
  buf.ReleaseReservation(got);
}

TEST(CancelTest, CancelWaiterParkedInBufferMemoryQueue) {
  BufFixture f(10);
  bool victim = false, behind = false;
  f.sched.Spawn(
      ReserveDelayRelease(f.sched, *f.buffer, 8, 0.0, 10.0, nullptr));
  uint64_t victim_id = f.sched.SpawnWithId(
      ReserveDelayRelease(f.sched, *f.buffer, 5, 1.0, 1.0, &victim));
  f.sched.Spawn(
      ReserveDelayRelease(f.sched, *f.buffer, 4, 2.0, 1.0, &behind));
  f.sched.ScheduleCallback(5.0, [&] { f.sched.Cancel(victim_id); });
  f.sched.Run();
  EXPECT_FALSE(victim);
  EXPECT_TRUE(behind)
      << "memory queue never served the waiter behind the cancelled one";
  EXPECT_EQ(f.buffer->reserved(), 0) << "reservation leaked";
}

// Composite scenario exercising every cancellation path above.  Replaying
// it must produce the identical event stream: same trace bytes, same event
// count.  This is the kernel-level half of the determinism contract that
// lets fault injection stay bit-identical across --jobs values and reruns.
struct ScenarioResult {
  uint64_t events = 0;
  std::string trace;
};

ScenarioResult RunCancellationScenario() {
  Scheduler sched;
  Tracer tracer(/*capacity=*/1 << 14);
  sched.AttachTracer(&tracer);

  Resource res(sched, 1, "cpu");
  Channel<int> ch(sched);
  Latch latch(sched, 1);
  bool sink_bool = false;
  int sink_int = 0;

  sched.Spawn(UseAndFlag(res, 10.0, &sink_bool));
  uint64_t res_victim = sched.SpawnWithId(UseAndFlag(res, 1.0, &sink_bool));
  sched.Spawn(UseAndFlag(res, 1.0, &sink_bool));
  uint64_t delay_victim =
      sched.SpawnWithId(FlagAfterDelay(sched, 50.0, &sink_bool));
  uint64_t ch_victim =
      sched.SpawnWithId(ReceiveAndFlag(ch, &sink_int, &sink_bool));
  sched.Spawn(ReceiveAndFlag(ch, &sink_int, &sink_bool));
  uint64_t latch_victim =
      sched.SpawnWithId(WaitLatchAndFlag(latch, &sink_bool));
  sched.Spawn(WaitLatchAndFlag(latch, &sink_bool));

  sched.ScheduleCallback(5.0, [&] {
    sched.Cancel(res_victim);
    sched.Cancel(delay_victim);
    sched.Cancel(ch_victim);
    sched.Cancel(latch_victim);
  });
  sched.ScheduleCallback(8.0, [&] {
    ch.Send(7);
    ch.Close();
    latch.CountDown();
  });
  sched.Run();
  return ScenarioResult{sched.events_processed(), tracer.ToCsv()};
}

TEST(CancelTest, CancellationScenarioReplaysBitIdentical) {
  ScenarioResult a = RunCancellationScenario();
  ScenarioResult b = RunCancellationScenario();
  EXPECT_GT(a.events, 0u);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.trace, b.trace) << "cancellation perturbed the event trace";
  if (sim::kTraceCompiledIn) {
    EXPECT_NE(a.trace, Tracer::kCsvHeader) << "scenario recorded no events";
  }
}

// Composed-fault unwind regression: disk retry chains, a partition and a PE
// crash all land inside the same few hundred milliseconds, so attempts that
// are stalled in injected disk retries get cancelled by the partition while
// the crash tears down whatever retried onto the failed PE.  Each RAII guard
// (admission, locks, buffer reservation) must release exactly once — a
// double release would corrupt the admission slot count below, a leak would
// trip the post-run conservation checks and leak detection.
TEST(CancelTest, ComposedFaultsUnwindGuardsExactlyOnce) {
  SystemConfig cfg;
  cfg.num_pes = 8;
  cfg.warmup_ms = 1000.0;
  cfg.measurement_ms = 6000.0;
  cfg.join_query.arrival_rate_per_pe_qps = 0.5;
  cfg.cc_scheme = CcScheme::kTwoPhaseLocking;  // TxnLocksGuard in play too
  cfg.faults.io_error_rate = 0.2;              // long injected retry chains
  cfg.faults.io_retry_penalty_ms = 20.0;
  cfg.faults.events = {{3000.0, FaultKind::kPartition, 0, 3},
                       {3050.0, FaultKind::kCrash, 3},
                       {3500.0, FaultKind::kRecover, 3},
                       {3600.0, FaultKind::kHeal, 0, 3}};
  cfg.faults.retry.max_attempts = 5;
  cfg.faults.retry.initial_backoff_ms = 100.0;

  auto run = [&] {
    Cluster cluster(cfg);
    MetricsReport r = cluster.Run();
    for (PeId pe = 0; pe < cfg.num_pes; ++pe) {
      EXPECT_EQ(cluster.pe(pe).admission().busy(), 0)
          << "admission slot leaked or double-released at pe " << pe;
      EXPECT_EQ(cluster.pe(pe).buffer().reserved(), 0) << "pe " << pe;
      EXPECT_EQ(cluster.pe(pe).buffer().memory_queue_length(), 0u)
          << "pe " << pe;
    }
    return r;
  };
  MetricsReport r1 = run();
  EXPECT_GT(r1.queries_retried, 0) << "the composed faults cancelled nothing";
  EXPECT_GT(r1.io_errors, 0);
  EXPECT_EQ(r1.link_partitions, 1);
  EXPECT_EQ(r1.pe_crashes, 1);
  MetricsReport r2 = run();
  EXPECT_EQ(r1.kernel_events, r2.kernel_events)
      << "composed-fault unwind is not deterministic";
  EXPECT_EQ(r1.queries_retried, r2.queries_retried);
}

// --- structured cancellation ----------------------------------------------
// ~Scheduler destroys suspended detached frames: locals' destructors run and
// nothing leaks (the ASan CI job keeps that honest without suppressions).

Task<> UseLoop(Resource& res, SimTime hold, int rounds) {
  for (int i = 0; i < rounds; ++i) co_await res.Use(hold);
}

struct DtorProbe {
  int* counter;
  explicit DtorProbe(int* c) : counter(c) {}
  DtorProbe(const DtorProbe&) = delete;
  DtorProbe& operator=(const DtorProbe&) = delete;
  ~DtorProbe() { ++*counter; }
};

Task<> BlockOnChannel(Channel<int>& ch, int* destroyed) {
  DtorProbe probe(destroyed);
  auto v = co_await ch.Receive();  // never satisfied in these tests
  (void)v;
}

Task<> BlockOnResource(Resource& res, int* destroyed) {
  DtorProbe probe(destroyed);
  co_await res.Acquire();
  res.Release();
}

Task<> ParentOfBlockedChild(Channel<int>& ch, int* destroyed) {
  DtorProbe probe(destroyed);
  co_await BlockOnChannel(ch, destroyed);  // owned child, not registered
}

TEST(StructuredCancellationTest, TeardownDestroysSuspendedFrames) {
  int destroyed = 0;
  {
    Scheduler sched;
    Channel<int> ch(sched);
    Resource res(sched, 1, "cpu");
    sched.Spawn(BlockOnChannel(ch, &destroyed));
    sched.Spawn(UseLoop(res, 1e9, 1));  // holds the only server
    sched.Spawn(BlockOnResource(res, &destroyed));
    sched.RunUntil(1.0);
    EXPECT_EQ(sched.detached_in_flight(), 3u);
    EXPECT_EQ(destroyed, 0);
  }  // ch/res die first (reverse declaration), then ~Scheduler the frames
  EXPECT_EQ(destroyed, 2);
}

TEST(StructuredCancellationTest, DestroyingAParentDestroysItsOwnedChild) {
  int destroyed = 0;
  {
    Scheduler sched;
    Channel<int> ch(sched);
    sched.Spawn(ParentOfBlockedChild(ch, &destroyed));
    sched.RunUntil(1.0);
    // Only the detached root registers; the blocked child is owned by (and
    // destroyed through) the parent's frame.
    EXPECT_EQ(sched.detached_in_flight(), 1u);
  }
  EXPECT_EQ(destroyed, 2) << "parent and child frame locals must be destroyed";
}

TEST(StructuredCancellationTest, CompletedFramesUnregisterThemselves) {
  Scheduler sched;
  Resource res(sched, 4, "cpu");
  for (int i = 0; i < 16; ++i) sched.Spawn(UseLoop(res, 0.5, 10));
  EXPECT_EQ(sched.detached_in_flight(), 16u);
  sched.Run();
  EXPECT_EQ(sched.detached_in_flight(), 0u);
}

}  // namespace
}  // namespace pdblb
