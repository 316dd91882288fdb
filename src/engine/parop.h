// Copyright 2026 the pdblb authors. MIT license.
//
// PAROP: the parallelization meta-operator of the paper's query processing
// system (Section 4).  Every parallel executor is built from one skeleton,
// and this file holds each piece of it once:
//
//   - StartSubqueries: the coordinator's start-up fan-out of control
//     messages to the participating PEs;
//   - SetUpLocalJoins: one local join per join processor, with working
//     space acquired in global PE order;
//   - RunPhase: one build or probe phase, where sources scan base-relation
//     fragments (or redistribute an intermediate result) and stream tuple
//     batches through per-destination channels to the join processors;
//   - Commit: the commit fan-out, either the read-only optimized single
//     round or a full two-phase commit.
//
// The executors keep only their own logic: planning, skew weights, 2PL
// read locks, Shared Disk scan placement, per-stage re-planning, update
// processing and deadlock retry.  Each helper is a sim::Task<> the caller
// co_awaits; awaiting a task starts and resumes it by symmetric transfer,
// so the skeleton adds no calendar event of its own.

#ifndef PDBLB_ENGINE_PAROP_H_
#define PDBLB_ENGINE_PAROP_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "catalog/relation.h"
#include "engine/cluster.h"
#include "join/local_join.h"
#include "simkern/task.h"

namespace pdblb::parop {

/// `total` split into `parts` near-equal shares (remainder spread left).
std::vector<int64_t> SplitEvenly(int64_t total, int parts);

/// Charges `instructions` on `pe`'s CPU server.  Returns the resource's
/// frameless Use awaiter directly — `co_await UseCpu(...)` suspends the
/// caller on the CPU's wait queue without an intermediate coroutine frame.
inline auto UseCpu(Cluster& c, PeId pe, int64_t instructions) {
  return c.pe(pe).cpu().Use(
      InstructionsToMs(instructions, c.config().mips_per_pe));
}

/// Acquires a long page-level read lock for a read-only (sub)query under
/// CcScheme::kTwoPhaseLocking.  A read-only deadlock victim releases its
/// PE-local read locks (breaking any cycle through this node), backs off
/// and re-acquires — the cursor-stability-style degradation a performance
/// simulator can afford for queries that a real system would run under
/// multiversion CC anyway (paper footnote 1).
sim::Task<> LockPageShared(Cluster& c, PeId node, TxnId txn, PageKey page);

/// Subquery start-up: the coordinator sends one control message to every
/// PE of `dests` but itself, serializing its send costs while the
/// deliveries run in parallel.  Completes when all have arrived.
sim::Task<> StartSubqueries(Cluster& c, PeId coord,
                            const std::vector<PeId>& dests);

enum class CommitProtocol {
  kReadOnly,  ///< one round (the paper's read-only optimization)
  kTwoPhase,  ///< prepare with forced log writes, then commit
};

/// Distributed commit from `coord` to every PE of `dests` but itself: the
/// coordinator serializes its message sends, the rounds run in parallel.
/// Under kTwoPhase the coordinator forces its own log write after sending
/// the prepares, while the participants prepare.
sim::Task<> Commit(Cluster& c, PeId coord, const std::vector<PeId>& dests,
                   CommitProtocol protocol);

/// One local join per join processor `pes[j]`, expecting `inner[j]` and
/// `outer[j]` tuples and asking for `want_pages[j]` pages of working space.
/// Completes once memory is held at every join processor.  Memory is
/// acquired in ascending PE id (a global resource order), so concurrent
/// joins cannot deadlock on each other's memory queues even when one
/// query's hash table spans a large share of the cluster memory.
sim::Task<std::vector<std::unique_ptr<LocalJoin>>> SetUpLocalJoins(
    Cluster& c, const std::vector<PeId>& pes,
    const std::vector<int64_t>& inner, const std::vector<int64_t>& outer,
    const std::vector<int>& want_pages);

/// One stage of a parallel hash join: local join `joins[j]` runs at join
/// processor `pes[j]`, receives the share `dest_frac[j]` of every input the
/// stage redistributes, and produces `result[j]` tuples for the coordinator
/// `coord`.
struct JoinStage {
  PeId coord = 0;
  std::vector<PeId> pes;
  std::vector<double> dest_frac;
  std::vector<int64_t> result;
  std::vector<std::unique_ptr<LocalJoin>> joins;
};

/// The input of one phase.  A base-relation scan (`rel` set) reads
/// `tuples[i]` selected tuples of the fragment homed at `homes[i]` at
/// `sites[i]` (the fragment's owner, or a Shared Disk scan processor),
/// read-locking every page at the home for `read_lock_txn` when it is
/// non-zero.  An intermediate result (`rel == nullptr`) is redistributed
/// from the previous stage's join processors `sites`, `tuples[i]` each.
/// Build it as a named local: GCC 12 destroys an aggregate temporary
/// created inside a co_await expression twice.
struct PhaseInput {
  const Relation* rel = nullptr;
  std::vector<PeId> homes;
  std::vector<PeId> sites;
  std::vector<int64_t> tuples;
  TxnId read_lock_txn = 0;
};

/// What the join processors do with a phase's input.
enum class Consume {
  kBuild,              ///< insert it into the hash tables
  kProbeKeepResult,    ///< probe; the result stays at the join processor
  kProbeShipResult,    ///< probe; ship the result to the coordinator, even
                       ///< an empty one (a one-packet message)
  kProbeShipNonEmpty,  ///< probe; ship only a non-empty result
};

/// Runs one build or probe phase of `stage`: one channel per join
/// processor, the consumers, and the sources of `input`, whose batch sends
/// stream out while they run.  The channels close once every source and
/// send is done; completes when every consumer has drained its channel.
/// Probe consumers charge their result's output CPU and release their
/// local join's memory.
sim::Task<> RunPhase(Cluster& c, const JoinStage& stage,
                     const PhaseInput& input, Consume consume);

}  // namespace pdblb::parop

#endif  // PDBLB_ENGINE_PAROP_H_
