// Copyright 2026 the pdblb authors. MIT license.
//
// Concurrency control (paper Section 4): distributed strict two-phase
// locking with long read/write locks.  Each PE owns a lock table for the
// data it stores; a central deadlock detector (deadlock_detector.h)
// periodically collects wait-for edges from all PEs and resolves global
// deadlocks by aborting a victim.
//
// Under the default multiversion scheme, read-only queries take no locks
// (the paper points to multiversion CC for read-only queries), so the lock
// manager sees the OLTP classes, the update class's exclusive page locks
// and elastic fragment moves.  Under CcScheme::kTwoPhaseLocking, join and
// scan queries also take long shared page locks at every home they read.

#ifndef PDBLB_LOCKMGR_LOCK_MANAGER_H_
#define PDBLB_LOCKMGR_LOCK_MANAGER_H_

#include <coroutine>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/units.h"
#include "simkern/scheduler.h"
#include "simkern/task.h"

namespace pdblb {

enum class LockMode { kShared, kExclusive };

/// Lockable object: a tuple of a relation.
struct LockKey {
  int32_t relation_id = 0;
  int64_t tuple_id = 0;
  bool operator==(const LockKey&) const = default;
};

struct LockKeyHash {
  size_t operator()(const LockKey& k) const {
    uint64_t x = (static_cast<uint64_t>(static_cast<uint32_t>(k.relation_id))
                  << 44) ^
                 static_cast<uint64_t>(k.tuple_id);
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    return static_cast<size_t>(x);
  }
};

/// A wait-for edge: `waiter`, queued on `key`, waits for `holder`.
struct WaitForEdge {
  TxnId waiter;
  TxnId holder;
  LockKey key;
};

/// Per-PE lock table implementing strict 2PL.
class LockManager {
 public:
  /// `tag` attributes grant/abort wake-ups in event traces.
  explicit LockManager(
      sim::Scheduler& sched,
      sim::TraceTag tag = sim::TraceTag(sim::TraceSubsystem::kLock))
      : sched_(sched), tag_(tag) {}
  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  /// Acquires `key` in `mode` for `txn`, waiting FCFS behind incompatible
  /// holders.  Re-requests by a holding transaction are granted (including
  /// S->X upgrade when it is the sole holder).  Returns false if the
  /// transaction was chosen as a deadlock victim while waiting.
  sim::Task<bool> Lock(TxnId txn, LockKey key, LockMode mode);

  /// Releases all locks of `txn` (end of transaction under strict 2PL) and
  /// grants any now-compatible waiters.
  void ReleaseAll(TxnId txn);

  /// Appends this PE's wait-for edges (waiter -> each incompatible holder).
  void CollectWaitForEdges(std::vector<WaitForEdge>* edges) const;

  /// Aborts a waiting transaction: removes its pending request on `key`
  /// (the key its wait-for edges name) and resumes it with failure.  Returns
  /// true if the txn was found waiting on `key`.
  bool AbortWaiter(TxnId victim, LockKey key);

  /// True if `txn` currently holds any lock here (for tests).
  bool HoldsAnyLock(TxnId txn) const;

  int64_t locks_granted() const { return locks_granted_; }
  int64_t lock_waits() const { return lock_waits_; }
  int64_t deadlock_aborts() const { return deadlock_aborts_; }
  void ResetStats();

 private:
  struct Holder {
    TxnId txn;
    LockMode mode;
  };
  struct Waiter {
    TxnId txn;
    LockMode mode;
    std::coroutine_handle<> handle;
    bool granted = false;
    bool aborted = false;
  };
  struct Entry {
    std::vector<Holder> holders;
    std::deque<Waiter*> waiters;
  };

  static bool Compatible(LockMode a, LockMode b) {
    return a == LockMode::kShared && b == LockMode::kShared;
  }

  /// True if `txn` could be granted `mode` on `entry` right now.
  static bool CanGrant(const Entry& entry, TxnId txn, LockMode mode);

  /// Records a grant of `mode` on `key` to `txn`: a new holder (noted in
  /// held_), or an upgrade of the txn's existing hold to kExclusive.
  void Grant(LockKey key, Entry& entry, TxnId txn, LockMode mode);

  /// Grants queue heads while possible.
  void GrantWaiters(LockKey key, Entry& entry);

  sim::Scheduler& sched_;
  sim::TraceTag tag_;
  std::unordered_map<LockKey, Entry, LockKeyHash> table_;
  std::unordered_map<TxnId, std::vector<LockKey>> held_;

  int64_t locks_granted_ = 0;
  int64_t lock_waits_ = 0;
  int64_t deadlock_aborts_ = 0;
};

}  // namespace pdblb

#endif  // PDBLB_LOCKMGR_LOCK_MANAGER_H_
