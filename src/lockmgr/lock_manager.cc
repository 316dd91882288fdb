// Copyright 2026 the pdblb authors. MIT license.

#include "lockmgr/lock_manager.h"

#include <algorithm>
#include <cassert>

namespace pdblb {

bool LockManager::CanGrant(const Entry& entry, TxnId txn, LockMode mode) {
  for (const Holder& h : entry.holders) {
    if (h.txn == txn) {
      if (h.mode == LockMode::kExclusive || mode == LockMode::kShared) {
        return true;  // already strong enough (or re-requesting S)
      }
      continue;  // S->X upgrade: only if no other holder conflicts
    }
    if (!Compatible(h.mode, mode)) return false;
  }
  return true;
}

void LockManager::Grant(LockKey key, Entry& entry, TxnId txn, LockMode mode) {
  auto it = std::find_if(entry.holders.begin(), entry.holders.end(),
                         [&](const Holder& h) { return h.txn == txn; });
  if (it == entry.holders.end()) {
    entry.holders.push_back(Holder{txn, mode});
    held_[txn].push_back(key);
  } else if (mode == LockMode::kExclusive) {
    it->mode = LockMode::kExclusive;
  }
  ++locks_granted_;
}

sim::Task<bool> LockManager::Lock(TxnId txn, LockKey key, LockMode mode) {
  Entry& entry = table_[key];

  // FCFS fairness: a new request must also wait behind queued waiters,
  // unless the transaction already holds the lock (avoid self-deadlock).
  bool holds_here = std::any_of(
      entry.holders.begin(), entry.holders.end(),
      [&](const Holder& h) { return h.txn == txn; });

  if ((entry.waiters.empty() || holds_here) && CanGrant(entry, txn, mode)) {
    Grant(key, entry, txn, mode);  // fresh grant or upgrade
    co_return true;
  }

  // Wait FCFS.
  ++lock_waits_;
  Waiter waiter{txn, mode, nullptr, false, false};
  entry.waiters.push_back(&waiter);

  // `waiter` lives on this coroutine frame; the queue holds a raw pointer
  // into it.  The awaiter's destructor undoes that registration when the
  // frame is destroyed mid-suspension (Scheduler::Cancel cascade): either
  // the waiter is still queued (erase it) or it was already granted/aborted
  // and a wake event is in flight (scrub it).  A granted lock stays held —
  // the cancelling supervisor runs ReleaseAll(txn) afterwards.  The
  // scheduler pointer is stored directly because at full teardown the
  // manager itself may already be gone.
  struct Awaiter {
    sim::Scheduler* sched;
    LockManager* mgr;
    LockKey key;
    Waiter* w;
    std::coroutine_handle<> pending = nullptr;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      pending = h;
      w->handle = h;
    }
    void await_resume() noexcept { pending = nullptr; }
    ~Awaiter() {
      if (!pending || sched->tearing_down()) return;
      auto it = mgr->table_.find(key);
      if (it != mgr->table_.end()) {
        auto& ws = it->second.waiters;
        auto pos = std::find(ws.begin(), ws.end(), w);
        if (pos != ws.end()) {
          ws.erase(pos);
          // Removing a blocked waiter may unblock the queue behind it.
          mgr->GrantWaiters(key, it->second);
          return;
        }
      }
      sched->CancelHandle(pending);
    }
  };
  co_await Awaiter{&sched_, this, key, &waiter};

  if (waiter.aborted) {
    ++deadlock_aborts_;
    co_return false;
  }
  assert(waiter.granted);
  co_return true;
}

void LockManager::GrantWaiters(LockKey key, Entry& entry) {
  while (!entry.waiters.empty()) {
    Waiter* w = entry.waiters.front();
    if (!CanGrant(entry, w->txn, w->mode)) break;
    entry.waiters.pop_front();
    Grant(key, entry, w->txn, w->mode);
    w->granted = true;
    assert(w->handle);
    sched_.ScheduleHandle(sched_.Now(), w->handle, tag_);
  }
}

void LockManager::ReleaseAll(TxnId txn) {
  auto it = held_.find(txn);
  if (it == held_.end()) return;
  std::vector<LockKey> keys = std::move(it->second);
  held_.erase(it);
  for (const LockKey& key : keys) {
    auto entry_it = table_.find(key);
    if (entry_it == table_.end()) continue;
    Entry& entry = entry_it->second;
    entry.holders.erase(
        std::remove_if(entry.holders.begin(), entry.holders.end(),
                       [&](const Holder& h) { return h.txn == txn; }),
        entry.holders.end());
    GrantWaiters(key, entry);
    if (entry.holders.empty() && entry.waiters.empty()) {
      table_.erase(entry_it);
    }
  }
}

void LockManager::CollectWaitForEdges(std::vector<WaitForEdge>* edges) const {
  for (const auto& [key, entry] : table_) {
    for (const Waiter* w : entry.waiters) {
      for (const Holder& h : entry.holders) {
        if (h.txn != w->txn && !Compatible(h.mode, w->mode)) {
          edges->push_back(WaitForEdge{w->txn, h.txn, key});
        }
      }
      // Only holder edges are reported.  A waiter also waits for every
      // earlier incompatible waiter in the FCFS queue, and those edges are
      // missing: a cycle that closes through a waiter chain (e.g. S queued
      // behind a queued X) is never detected and ends only by timeout.
    }
  }
}

bool LockManager::AbortWaiter(TxnId victim, LockKey key) {
  auto entry_it = table_.find(key);
  if (entry_it == table_.end()) return false;
  Entry& entry = entry_it->second;
  bool found = false;
  for (auto it = entry.waiters.begin(); it != entry.waiters.end();) {
    if ((*it)->txn == victim) {
      Waiter* w = *it;
      it = entry.waiters.erase(it);
      w->aborted = true;
      assert(w->handle);
      sched_.ScheduleHandle(sched_.Now(), w->handle, tag_);
      found = true;
    } else {
      ++it;
    }
  }
  // Removing a blocked waiter may unblock the queue behind it.  Every other
  // entry's queue is unchanged, and each release, cancel and abort already
  // regranted its own entry, so no other entry can have a grantable head.
  if (found) GrantWaiters(key, entry);
  return found;
}

bool LockManager::HoldsAnyLock(TxnId txn) const {
  auto it = held_.find(txn);
  return it != held_.end() && !it->second.empty();
}

void LockManager::ResetStats() {
  locks_granted_ = 0;
  lock_waits_ = 0;
  deadlock_aborts_ = 0;
}

}  // namespace pdblb
