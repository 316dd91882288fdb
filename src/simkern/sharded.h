// Copyright 2026 the pdblb authors. MIT license.
//
// ShardedScheduler: conservative-window parallel execution of a partitioned
// discrete-event simulation (the classic conservative PDES recipe, shaped
// to this kernel's determinism contract).
//
// The model: the simulation consists of `num_entities` *entities* (for the
// cluster reproduction: PEs), each owning private state — resources,
// channels, counters — and interacting with other entities only through
// timestamped *messages* with a minimum delivery delay, the **lookahead**
// (for the netsim layer: the wire time of one packet, see
// netsim/shard_mailbox.h).  Entities are partitioned into `num_shards`
// contiguous groups; each shard owns an independent `Scheduler` (calendar +
// ring + hand-off lane) and runs on its own worker thread.
//
// Execution alternates windows and barriers:
//
//   loop:
//     drain mailboxes           (coordinator: inject pending messages)
//     m = min over shards of NextEventTime();  done when all empty
//     window = [m, m + lookahead)
//     all shards RunBefore(m + lookahead)      (parallel, no interaction)
//
// Safety: a message sent while executing an event at time t >= m arrives at
// t + delay >= m + lookahead — never inside the current window — so by the
// time a window opens, every event that can occur inside it is already in
// some shard's calendar.  (Float rounding preserves this: rounding is
// monotone, so fl(t + d) >= fl(m + L) whenever t >= m, d >= L.)
//
// Determinism and shard-count invariance: cross-shard sends append to a
// per-(source, destination) shard-pair SPSC mailbox, drained only at
// barriers, and every message dispatches in the scheduler's *message band*
// — ordered at equal timestamps after all shard-local events and among
// messages by (origin entity, per-origin ordinal) (see
// Scheduler::MessageSeq).  That key depends only on the entity-level
// simulation, not on the partition, the thread schedule, or whether the
// send was co-located (direct calendar push) or remote (mailbox
// injection).  Consequently, as long as entities touch only their own
// state outside of Post(), per-entity results are bit-identical for every
// shard count and across parallel/serial execution — the property the
// seeded stress suite (tests/sharded_test.cc) pins.  (The ordering key
// uses the origin *entity*, not the origin shard: a shard id would change
// with the shard count and break the invariance.)
//
// What this layer does NOT give: same-timestamp interleaving between
// entities in different shards is not preserved relative to the
// single-queue kernel — it doesn't need to be, because entities without
// shared state commute at equal timestamps.  Workloads that share mutable
// state across entities must keep all involved entities in one shard.  The
// full engine's executors touch many PEs from one coroutine, so a Cluster
// always runs on one plain Scheduler; this layer is a kernel-level
// experiment, exercised by tests/sharded_test.cc and the bench_simkern
// ShardedCluster* shapes (see simkern/README.md, "Sharded execution").

#ifndef PDBLB_SIMKERN_SHARDED_H_
#define PDBLB_SIMKERN_SHARDED_H_

#include <cassert>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/units.h"
#include "simkern/scheduler.h"

namespace pdblb::sim {

/// Phase-separated single-producer/single-consumer mailbox for one
/// (source shard, destination shard) pair.  The producer is the source
/// shard's worker inside a window; the only consumer is the coordinator at
/// the window barrier, after every worker has quiesced — the barrier's
/// mutex is the publication edge, so the hot Push needs no atomics.  (A
/// lock-free queue would only pay off if shards drained mid-window;
/// windows are the determinism mechanism, so they cannot.)  Capacity is
/// retained across Clear(): steady-state cross-shard traffic allocates
/// nothing in the mailbox itself.
template <typename M>
class ShardMailbox {
 public:
  void Push(M m) { items_.push_back(std::move(m)); }
  bool empty() const { return items_.empty(); }
  size_t size() const { return items_.size(); }
  std::vector<M>& items() { return items_; }
  void Clear() { items_.clear(); }

 private:
  std::vector<M> items_;
};

/// S shard schedulers executing one simulation under conservative windows.
class ShardedScheduler {
 public:
  struct Options {
    int num_shards = 1;
    /// Entities are the unit of partitioning and of message attribution;
    /// ids must stay below 2^12 (they ride in the message sequence word).
    int num_entities = 1;
    /// Minimum cross-entity message delay; every Post() must respect it.
    SimTime lookahead_ms = 0.1;
    /// false: execute windows serially on the calling thread (bit-identical
    /// results by construction — debugging / overhead measurement mode).
    bool parallel = true;
  };

  explicit ShardedScheduler(const Options& options);
  ShardedScheduler(const ShardedScheduler&) = delete;
  ShardedScheduler& operator=(const ShardedScheduler&) = delete;
  ~ShardedScheduler();

  int num_shards() const { return num_shards_; }
  int num_entities() const { return num_entities_; }
  SimTime lookahead_ms() const { return lookahead_ms_; }

  /// Contiguous balanced partition: entity e lives on shard
  /// floor(e * S / E).  Fixed at construction; entities do not migrate.
  int shard_of(int entity) const {
    assert(entity >= 0 && entity < num_entities_);
    return static_cast<int>(static_cast<int64_t>(entity) * num_shards_ /
                            num_entities_);
  }

  Scheduler& shard(int s) { return *shards_[static_cast<size_t>(s)]; }
  /// The scheduler that owns `entity` — where its resources and processes
  /// must live.
  Scheduler& home(int entity) { return shard(shard_of(entity)); }

  /// Sends a message from entity `from` to entity `to`: `fn` runs on the
  /// destination shard at absolute time `at`.  Must be called from `from`'s
  /// shard (its worker thread during a window, or the setup thread before
  /// Run()).  Co-located sends push straight into the target calendar and
  /// need only a positive delay; sends that cross a shard boundary go
  /// through the shard-pair mailbox, are injected at the next barrier, and
  /// must respect the lookahead (`at >= home(from).Now() + lookahead_ms`) —
  /// the conservative-window safety argument rests on it.  The declared
  /// lookahead is therefore a *workload contract*: the minimum delay of any
  /// message that may cross shards under the shard counts the workload
  /// supports (traffic that stays inside a partition block may undercut
  /// it, and coarsens the windows for free).  Both routes dispatch under
  /// the identical message-band key, so the route itself is unobservable
  /// to the simulation.
  template <typename F>
  void Post(int from, int to, SimTime at, F&& fn, TraceTag tag = {}) {
    assert(to >= 0 && to < num_entities_);
    int src = shard_of(from);
    int dst = shard_of(to);
    assert(src == dst
               ? at > shards_[static_cast<size_t>(src)]->Now()
               : at >= shards_[static_cast<size_t>(src)]->Now() +
                           lookahead_ms_ &&
                     "cross-shard Post must respect the lookahead");
    uint64_t ordinal = next_ordinal_[static_cast<size_t>(from)].value++;
    assert(ordinal < Scheduler::kMaxMessageOrdinal);
    uint64_t seq =
        Scheduler::MessageSeq(static_cast<uint16_t>(from), ordinal, tag);
    if (src == dst) {
      shards_[static_cast<size_t>(dst)]->ScheduleMessageCallback(
          at, seq, std::forward<F>(fn));
    } else {
      MailboxFor(src, dst).Push(
          Mail{at, seq, std::function<void()>(std::forward<F>(fn))});
    }
  }

  /// Runs windows until every shard calendar and every mailbox is empty.
  /// May be called repeatedly (more work can be posted in between).
  void Run();

  // --- statistics ---------------------------------------------------------
  /// Sum of the shard schedulers' dispatched events.
  uint64_t events_processed() const;
  /// Sum of the shard schedulers' hand-off lane resumes.
  uint64_t inline_resumes() const;
  /// Messages sent through Post() (co-located and cross-shard).
  uint64_t messages_posted() const;
  /// Messages that crossed a shard boundary (mailbox route).
  uint64_t cross_shard_messages() const { return cross_shard_messages_; }
  /// Conservative windows executed (barrier count).
  uint64_t windows() const { return windows_; }

 private:
  struct Mail {
    SimTime at;
    uint64_t seq;
    std::function<void()> fn;
  };
  // One cache line per mailbox / per-entity ordinal counter: each is
  // written by exactly one shard's thread, and padding keeps neighbours
  // (the only cross-thread adjacency) off shared lines.
  struct alignas(64) PaddedMailbox {
    ShardMailbox<Mail> box;
  };
  struct alignas(64) PaddedCounter {
    uint64_t value = 0;
  };

  ShardMailbox<Mail>& MailboxFor(int src, int dst) {
    return mailboxes_[static_cast<size_t>(src) *
                          static_cast<size_t>(num_shards_) +
                      static_cast<size_t>(dst)]
        .box;
  }

  // Coordinator-only: injects every pending mailbox message into its
  // destination calendar.  Injection order is irrelevant — the message-band
  // key is total — but the injection itself is single-threaded.  Debug
  // builds assert here that every drained message lands at or after the
  // bound of the window it was sent in: Post() already checks the per-send
  // contract against the *sender's* clock, and this second check catches
  // anything that would erode an in-flight delay below the lookahead after
  // the send (no such path exists today; a future fault-domain interaction
  // — say a slowlink edge rewriting wire times — must not introduce one
  // undetected).
  void DrainMailboxes();
  // Runs every shard's RunBefore(bound), on the worker pool or serially.
  void ExecuteWindow(SimTime bound);
  void StartWorkers();
  void StopWorkers();
  void WorkerLoop(size_t shard_index);

  int num_shards_;
  int num_entities_;
  SimTime lookahead_ms_;
  bool parallel_;

  std::vector<std::unique_ptr<Scheduler>> shards_;
  std::vector<PaddedMailbox> mailboxes_;     // S x S, source-major
  std::vector<PaddedCounter> next_ordinal_;  // per entity
  uint64_t windows_ = 0;
  uint64_t cross_shard_messages_ = 0;
  // Bound of the most recently executed window within the current Run()
  // call; the DrainMailboxes lookahead-contract assertion compares drained
  // arrival times against it.  Reset at the top of Run() because setup
  // work posted between Run() calls is checked against the sender's clock
  // only (shard clocks may trail the last window bound arbitrarily).
  SimTime last_window_bound_ = -std::numeric_limits<SimTime>::infinity();

  // Worker pool: shard 0 runs on the coordinator (calling) thread, shard s
  // on workers_[s - 1].  A shard is always executed by the same thread;
  // the barrier mutex publishes mailbox drains and calendar injections
  // between window epochs.
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  uint64_t epoch_ = 0;
  SimTime window_bound_ = 0.0;
  int running_ = 0;
  bool stop_ = false;
};

}  // namespace pdblb::sim

#endif  // PDBLB_SIMKERN_SHARDED_H_
