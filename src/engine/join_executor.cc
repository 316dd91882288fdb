// Copyright 2026 the pdblb authors. MIT license.

#include "engine/join_executor.h"

#include <cmath>
#include <set>
#include <vector>

#include "core/skew.h"
#include "engine/faults.h"
#include "engine/parop.h"

namespace pdblb {

using parop::SplitEvenly;
using parop::UseCpu;

sim::Task<> ExecuteJoinQuery(Cluster& c, QueryAttempt* qa) {
  sim::Scheduler& sched = c.sched();
  const SystemConfig& cfg = c.config();
  const CpuCosts& costs = cfg.costs;
  const SimTime t0 = sched.Now();

  // Random coordinator placement (paper: queries are assigned to a
  // coordinating PE uniformly over all PEs).  Under elastic resize the draw
  // is remapped to the nearest member (the draw itself always happens, so
  // the RNG stream matches resize-free runs).
  const PeId coord = c.MemberPe(
      static_cast<PeId>(c.workload_rng().UniformInt(0, c.num_pes() - 1)));
  if (qa != nullptr && !qa->AddParticipant(coord)) co_return;
  if (c.control().ShouldShed()) {
    // Overload shedding: reject before queueing for an admission slot, so a
    // shed query holds nothing and costs nothing.  kResourceExhausted is
    // final — the supervisor does not retry it.
    c.metrics().RecordQueryShed(sched.Now());
    if (qa != nullptr) qa->outcome = StatusCode::kResourceExhausted;
    co_return;
  }
  co_await c.pe(coord).admission().Acquire();
  AdmissionGuard admission(sched, c.pe(coord).admission());
  co_await UseCpu(c, coord, costs.initiate_txn);

  // Under strict 2PL the read-only query locks every scanned page; under
  // the base assumption / multiversion CC it reads lock-free (footnote 1).
  const TxnId read_txn =
      cfg.cc_scheme == CcScheme::kTwoPhaseLocking ? c.NextTxnId() : 0;
  TxnLocksGuard read_locks(&c, read_txn);

  // Consult the control node for the current system state (request+reply).
  co_await c.net().ControlMessage(coord, 0);
  co_await c.net().ControlMessage(0, coord);
  JoinPlan plan =
      c.policy().Plan(c.plan_request(), c.control(), c.workload_rng());
  const int p = plan.degree;

  // All PEs that take part in this query: scan processors and join
  // processors.  Under Shared Nothing the data allocation prescribes the
  // scan placement (each fragment's current owner); under Shared Disk
  // ([27]) any PE can scan any fragment, so the least CPU-utilized PEs are
  // picked as scan processors.
  const std::vector<PeId>& a_nodes = c.db().a_nodes();
  const std::vector<PeId>& b_nodes = c.db().b_nodes();
  std::vector<PeId> a_exec = c.OwnersOf(c.db().a().id(), a_nodes);
  std::vector<PeId> b_exec = c.OwnersOf(c.db().b().id(), b_nodes);
  if (cfg.architecture == Architecture::kSharedDisk) {
    std::vector<PeLoadInfo> by_cpu = c.control().CpuSorted();
    for (size_t i = 0; i < a_exec.size(); ++i) {
      a_exec[i] = by_cpu[i % by_cpu.size()].pe;
    }
    for (size_t i = 0; i < b_exec.size(); ++i) {
      b_exec[i] = by_cpu[i % by_cpu.size()].pe;
    }
  }
  std::set<PeId> participant_set(a_exec.begin(), a_exec.end());
  participant_set.insert(b_exec.begin(), b_exec.end());
  if (!c.elastic_enabled()) {
    // The homes are the scan sites (Shared Nothing) or the lock sites whose
    // liveness the query needs (Shared Disk).  Under elastic resize a home
    // may be a drained (even dead) PE whose fragment now lives elsewhere —
    // only the owners above actually serve the query, so only those gate
    // its fate.
    participant_set.insert(a_nodes.begin(), a_nodes.end());
    participant_set.insert(b_nodes.begin(), b_nodes.end());
  }
  participant_set.insert(plan.pes.begin(), plan.pes.end());
  const std::vector<PeId> participants(participant_set.begin(),
                                       participant_set.end());
  if (qa != nullptr && !qa->AddParticipants(participants)) co_return;
  for (PeId pe : participants) read_locks.AddPe(pe);
  if (c.elastic_enabled()) {
    // Read locks are taken at the homes' lock managers regardless of who
    // executes the scan; the guard must cover them for crash unwind.
    for (PeId pe : a_nodes) read_locks.AddPe(pe);
    for (PeId pe : b_nodes) read_locks.AddPe(pe);
  }

  co_await parop::StartSubqueries(c, coord, participants);

  // One local join instance per join processor.  The partitioning function's
  // per-destination fractions are uniform in the paper's base setting; with
  // configured redistribution skew they follow a Zipf law, and the mapping
  // of partitions to the selected PEs is either size-aware (largest subjoin
  // to the best PE — the planner returns PEs in goodness order) or random
  // (a size-oblivious hash partitioner).
  const int64_t inner_total = cfg.InnerInputTuples();
  const int64_t outer_total = cfg.OuterInputTuples();
  const int64_t result_total = static_cast<int64_t>(
      cfg.join_query.result_size_factor * static_cast<double>(inner_total));
  const double theta = cfg.join_query.redistribution_skew;
  // With no skew all weights are equal and the assignment is a no-op; skip
  // the permutation so the RNG stream (and thus the base experiments) is
  // untouched.
  const std::vector<double> dest_frac =
      theta > 0.0 ? AssignWeights(ZipfWeights(p, theta),
                                  cfg.strategy.skew_aware_assignment,
                                  c.workload_rng())
                  : ZipfWeights(p, 0.0);
  parop::JoinStage stage{coord, plan.pes, dest_frac,
                         SplitWeighted(result_total, dest_frac), {}};
  std::vector<int64_t> inner_share = SplitWeighted(inner_total, dest_frac);
  std::vector<int> want_pages(p, plan.pages_per_pe);
  if (theta > 0.0) {
    // Skewed subjoins need working space proportional to their share; the
    // control node's uniform estimate is corrected so back-to-back joins
    // do not stack their dominant partitions on the same PE.
    const int bf = cfg.relation_a.blocking_factor;
    for (int j = 0; j < p; ++j) {
      int64_t share_pages = (inner_share[j] + bf - 1) / bf;
      want_pages[j] = static_cast<int>(std::llround(std::ceil(
          cfg.join_query.fudge_factor * static_cast<double>(share_pages))));
      c.control().NoteSubjoinSize(plan.pes[j],
                                  want_pages[j] - plan.pages_per_pe,
                                  dest_frac[j] * static_cast<double>(p));
    }
  }
  stage.joins = co_await parop::SetUpLocalJoins(
      c, plan.pes, inner_share, SplitWeighted(outer_total, dest_frac),
      want_pages);

  // Building phase: scan A, redistribute, build hash tables.  Probing phase:
  // scan B, redistribute, probe, ship the results to the coordinator.
  const parop::PhaseInput scan_a{
      &c.db().a(), a_nodes, a_exec,
      SplitEvenly(inner_total, static_cast<int>(a_nodes.size())), read_txn};
  const parop::PhaseInput scan_b{
      &c.db().b(), b_nodes, b_exec,
      SplitEvenly(outer_total, static_cast<int>(b_nodes.size())), read_txn};
  co_await parop::RunPhase(c, stage, scan_a, parop::Consume::kBuild);
  co_await parop::RunPhase(c, stage, scan_b,
                           parop::Consume::kProbeShipResult);

  // Distributed commit with the read-only optimization (one round), which
  // also releases the read locks at the scan processors.
  co_await parop::Commit(c, coord, participants,
                         parop::CommitProtocol::kReadOnly);
  if (read_txn != 0) {
    for (PeId dest : participants) c.pe(dest).locks().ReleaseAll(read_txn);
    if (c.elastic_enabled()) {
      // Locks live at the homes' lock managers, which under elastic
      // resize may not be participants (drained homes).
      for (PeId pe : a_nodes) c.pe(pe).locks().ReleaseAll(read_txn);
      for (PeId pe : b_nodes) c.pe(pe).locks().ReleaseAll(read_txn);
    }
  }
  read_locks.Disarm();
  co_await UseCpu(c, coord, costs.terminate_txn);
  admission.ReleaseNow();

  int64_t temp_written = 0;
  int64_t temp_read = 0;
  for (const auto& j : stage.joins) {
    temp_written += j->temp_pages_written();
    temp_read += j->temp_pages_read();
  }
  c.metrics().RecordJoin(sched.Now() - t0, p, temp_written, temp_read,
                         sched.Now());
  if (plan.degraded) {
    // Supervised queries defer the degraded count to the supervisor (which
    // also folds in retry-degradation); unsupervised ones count here.
    if (qa != nullptr) {
      qa->degraded_plan = true;
    } else {
      c.metrics().RecordQueryDegraded(sched.Now());
    }
  }
}

}  // namespace pdblb
