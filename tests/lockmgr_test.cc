// Copyright 2026 the pdblb authors. MIT license.
//
// Unit tests for concurrency control: strict 2PL grant/wait rules, FCFS
// fairness, lock upgrades, and central global deadlock detection.

#include <gtest/gtest.h>

#include "lockmgr/deadlock_detector.h"
#include "lockmgr/lock_manager.h"
#include "simkern/scheduler.h"

namespace pdblb {
namespace {

sim::Task<> LockOne(LockManager& lm, TxnId txn, LockKey key, LockMode mode,
                    std::vector<std::pair<TxnId, bool>>* log) {
  bool ok = co_await lm.Lock(txn, key, mode);
  log->push_back({txn, ok});
}

TEST(LockManagerTest, SharedLocksAreCompatible) {
  sim::Scheduler sched;
  LockManager lm(sched);
  std::vector<std::pair<TxnId, bool>> log;
  sched.Spawn(LockOne(lm, 1, {1, 7}, LockMode::kShared, &log));
  sched.Spawn(LockOne(lm, 2, {1, 7}, LockMode::kShared, &log));
  sched.Run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_TRUE(log[0].second);
  EXPECT_TRUE(log[1].second);
  EXPECT_EQ(lm.lock_waits(), 0);
}

TEST(LockManagerTest, ExclusiveConflictsWait) {
  sim::Scheduler sched;
  LockManager lm(sched);
  std::vector<std::pair<TxnId, bool>> log;
  sched.Spawn(LockOne(lm, 1, {1, 7}, LockMode::kExclusive, &log));
  sched.Spawn(LockOne(lm, 2, {1, 7}, LockMode::kExclusive, &log));
  sched.RunUntil(1.0);
  ASSERT_EQ(log.size(), 1u);  // txn 2 waits
  EXPECT_EQ(lm.lock_waits(), 1);

  lm.ReleaseAll(1);
  sched.Run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[1].first, 2);
  EXPECT_TRUE(log[1].second);
}

TEST(LockManagerTest, ReleaseGrantsAllCompatibleWaiters) {
  sim::Scheduler sched;
  LockManager lm(sched);
  std::vector<std::pair<TxnId, bool>> log;
  sched.Spawn(LockOne(lm, 1, {1, 7}, LockMode::kExclusive, &log));
  sched.Spawn(LockOne(lm, 2, {1, 7}, LockMode::kShared, &log));
  sched.Spawn(LockOne(lm, 3, {1, 7}, LockMode::kShared, &log));
  sched.RunUntil(1.0);
  lm.ReleaseAll(1);
  sched.Run();
  ASSERT_EQ(log.size(), 3u);  // both shared waiters granted together
}

TEST(LockManagerTest, FcfsPreventsStarvation) {
  sim::Scheduler sched;
  LockManager lm(sched);
  std::vector<std::pair<TxnId, bool>> log;
  sched.Spawn(LockOne(lm, 1, {1, 7}, LockMode::kShared, &log));
  sched.Spawn(LockOne(lm, 2, {1, 7}, LockMode::kExclusive, &log));  // waits
  sched.Spawn(LockOne(lm, 3, {1, 7}, LockMode::kShared, &log));  // behind X
  sched.RunUntil(1.0);
  EXPECT_EQ(log.size(), 1u);  // the late S request must not jump the queue
  lm.ReleaseAll(1);
  sched.Run();
  ASSERT_EQ(log.size(), 2u);  // X granted; S still behind the X holder
  EXPECT_EQ(log[1].first, 2);
  lm.ReleaseAll(2);
  sched.Run();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[2].first, 3);
}

TEST(LockManagerTest, ReRequestIsGranted) {
  sim::Scheduler sched;
  LockManager lm(sched);
  std::vector<std::pair<TxnId, bool>> log;
  sched.Spawn(LockOne(lm, 1, {1, 7}, LockMode::kShared, &log));
  sched.Spawn(LockOne(lm, 1, {1, 7}, LockMode::kShared, &log));
  sched.Run();
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(lm.lock_waits(), 0);
}

TEST(LockManagerTest, UpgradeWhenSoleHolder) {
  sim::Scheduler sched;
  LockManager lm(sched);
  std::vector<std::pair<TxnId, bool>> log;
  sched.Spawn(LockOne(lm, 1, {1, 7}, LockMode::kShared, &log));
  sched.Spawn(LockOne(lm, 1, {1, 7}, LockMode::kExclusive, &log));
  sched.Spawn(LockOne(lm, 2, {1, 7}, LockMode::kShared, &log));  // must wait
  sched.RunUntil(1.0);
  EXPECT_EQ(log.size(), 2u);
  lm.ReleaseAll(1);
  sched.Run();
  EXPECT_EQ(log.size(), 3u);
}

TEST(LockManagerTest, ReleaseAllClearsState) {
  sim::Scheduler sched;
  LockManager lm(sched);
  std::vector<std::pair<TxnId, bool>> log;
  sched.Spawn(LockOne(lm, 1, {1, 1}, LockMode::kExclusive, &log));
  sched.Spawn(LockOne(lm, 1, {1, 2}, LockMode::kExclusive, &log));
  sched.Run();
  EXPECT_TRUE(lm.HoldsAnyLock(1));
  lm.ReleaseAll(1);
  EXPECT_FALSE(lm.HoldsAnyLock(1));
}

TEST(LockManagerTest, WaitForEdgesReported) {
  sim::Scheduler sched;
  LockManager lm(sched);
  std::vector<std::pair<TxnId, bool>> log;
  sched.Spawn(LockOne(lm, 1, {1, 7}, LockMode::kExclusive, &log));
  sched.Spawn(LockOne(lm, 2, {1, 7}, LockMode::kExclusive, &log));
  sched.RunUntil(1.0);
  std::vector<WaitForEdge> edges;
  lm.CollectWaitForEdges(&edges);
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0].waiter, 2);
  EXPECT_EQ(edges[0].holder, 1);
  EXPECT_EQ(edges[0].key, (LockKey{1, 7}));
}

TEST(LockManagerTest, AbortWaiterResumesWithFailure) {
  sim::Scheduler sched;
  LockManager lm(sched);
  std::vector<std::pair<TxnId, bool>> log;
  sched.Spawn(LockOne(lm, 1, {1, 7}, LockMode::kExclusive, &log));
  sched.Spawn(LockOne(lm, 2, {1, 7}, LockMode::kExclusive, &log));
  sched.RunUntil(1.0);
  EXPECT_TRUE(lm.AbortWaiter(2, {1, 7}));
  sched.Run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[1].first, 2);
  EXPECT_FALSE(log[1].second);  // aborted
  EXPECT_EQ(lm.deadlock_aborts(), 1);
}

TEST(LockManagerTest, AbortingQueuedXGrantsSharedBehindItOnlyOnItsKey) {
  sim::Scheduler sched;
  LockManager lm(sched);
  std::vector<std::pair<TxnId, bool>> log;
  const LockKey a{1, 7};
  const LockKey b{1, 8};
  sched.Spawn(LockOne(lm, 1, a, LockMode::kShared, &log));
  sched.Spawn(LockOne(lm, 2, a, LockMode::kExclusive, &log));  // waits
  sched.Spawn(LockOne(lm, 3, a, LockMode::kShared, &log));     // behind X
  sched.Spawn(LockOne(lm, 4, b, LockMode::kExclusive, &log));
  sched.Spawn(LockOne(lm, 5, b, LockMode::kShared, &log));     // waits
  sched.RunUntil(1.0);
  ASSERT_EQ(log.size(), 2u);  // txns 1 and 4

  // The victim is aborted only on the key it waits on.
  EXPECT_FALSE(lm.AbortWaiter(2, b));
  EXPECT_TRUE(lm.AbortWaiter(2, a));
  sched.Run();
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log[2], (std::pair<TxnId, bool>{2, false}));  // aborted
  EXPECT_EQ(log[3], (std::pair<TxnId, bool>{3, true}));   // S joins S
  EXPECT_EQ(lm.deadlock_aborts(), 1);

  // Key b's queue is unchanged: txn 5 still waits for txn 4, and it is the
  // only waiter left anywhere.
  std::vector<WaitForEdge> edges;
  lm.CollectWaitForEdges(&edges);
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0].waiter, 5);
  EXPECT_EQ(edges[0].holder, 4);
  EXPECT_EQ(edges[0].key, b);
  lm.ReleaseAll(4);
  sched.Run();
  ASSERT_EQ(log.size(), 5u);
  EXPECT_EQ(log[4], (std::pair<TxnId, bool>{5, true}));
}

TEST(DeadlockDetectorTest, FindsSimpleCycle) {
  std::vector<WaitForEdge> edges{{1, 2}, {2, 1}};
  auto victims = DeadlockDetector::FindCycleVictims(edges);
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0], 2);  // youngest (largest id) on the cycle
}

TEST(DeadlockDetectorTest, NoCycleNoVictims) {
  std::vector<WaitForEdge> edges{{1, 2}, {2, 3}, {1, 3}};
  EXPECT_TRUE(DeadlockDetector::FindCycleVictims(edges).empty());
}

TEST(DeadlockDetectorTest, FindsLongerCycle) {
  std::vector<WaitForEdge> edges{{1, 2}, {2, 3}, {3, 4}, {4, 1}};
  auto victims = DeadlockDetector::FindCycleVictims(edges);
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0], 4);
}

TEST(DeadlockDetectorTest, MultipleIndependentCycles) {
  std::vector<WaitForEdge> edges{{1, 2}, {2, 1}, {5, 6}, {6, 5}};
  auto victims = DeadlockDetector::FindCycleVictims(edges);
  ASSERT_EQ(victims.size(), 2u);
}

TEST(DeadlockDetectorTest, ResolvesCrossPeDeadlock) {
  sim::Scheduler sched;
  LockManager lm0(sched), lm1(sched);
  DeadlockDetector detector(sched, {&lm0, &lm1}, 10.0);

  std::vector<std::pair<TxnId, bool>> log;
  // txn 1 holds k0@PE0, txn 2 holds k1@PE1; after a delay (so that both
  // first acquisitions interleave) each requests the other's lock.
  auto txn1 = [](sim::Scheduler& s, LockManager& a, LockManager& b,
                 std::vector<std::pair<TxnId, bool>>* out) -> sim::Task<> {
    (void)co_await a.Lock(1, {1, 0}, LockMode::kExclusive);
    co_await s.Delay(1.0);
    bool ok = co_await b.Lock(1, {1, 1}, LockMode::kExclusive);
    out->push_back({1, ok});
  };
  auto txn2 = [](sim::Scheduler& s, LockManager& a, LockManager& b,
                 std::vector<std::pair<TxnId, bool>>* out) -> sim::Task<> {
    (void)co_await b.Lock(2, {1, 1}, LockMode::kExclusive);
    co_await s.Delay(1.0);
    bool ok = co_await a.Lock(2, {1, 0}, LockMode::kExclusive);
    out->push_back({2, ok});
  };
  sched.Spawn(txn1(sched, lm0, lm1, &log));
  sched.Spawn(txn2(sched, lm0, lm1, &log));
  sched.RunUntil(5.0);
  EXPECT_TRUE(log.empty());  // genuinely deadlocked

  auto victims = detector.DetectAndResolve();
  sched.Run();
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0], 2);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].first, 2);
  EXPECT_FALSE(log[0].second);
  // Releasing the victim's locks lets txn 1 finish.
  lm1.ReleaseAll(2);
  lm0.ReleaseAll(2);
  sched.Run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_TRUE(log[1].second);
}

}  // namespace
}  // namespace pdblb
