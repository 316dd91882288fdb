// Copyright 2026 the pdblb authors. MIT license.

#include "engine/multiway_executor.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "core/skew.h"
#include "engine/faults.h"
#include "engine/parop.h"

namespace pdblb {

using parop::SplitEvenly;
using parop::UseCpu;

sim::Task<> ExecuteMultiwayJoinQuery(Cluster& c, QueryAttempt* qa) {
  sim::Scheduler& sched = c.sched();
  const SystemConfig& cfg = c.config();
  const CpuCosts& costs = cfg.costs;
  const SimTime t0 = sched.Now();
  const int stages = cfg.multiway_join.ways - 1;

  // The draw is always made so the workload RNG stream is identical between
  // elastic and resize-free runs; MemberPe is the identity without elastic.
  const PeId coord = c.MemberPe(
      static_cast<PeId>(c.workload_rng().UniformInt(0, c.num_pes() - 1)));
  if (qa != nullptr && !qa->AddParticipant(coord)) co_return;
  if (c.control().ShouldShed()) {
    // Overload shedding: reject before queueing for an admission slot (see
    // join_executor.cc); kResourceExhausted is final, never retried.
    c.metrics().RecordQueryShed(sched.Now());
    if (qa != nullptr) qa->outcome = StatusCode::kResourceExhausted;
    co_return;
  }
  co_await c.pe(coord).admission().Acquire();
  AdmissionGuard admission(sched, c.pe(coord).admission());
  co_await UseCpu(c, coord, costs.initiate_txn);
  bool degraded = false;

  // Intermediate-result location: empty before stage 1 (inner comes from
  // the scan of A).
  std::vector<PeId> result_pes;
  std::vector<int64_t> result_at;
  int64_t inner_total = cfg.InnerInputTuples();
  std::set<PeId> all_participants;

  for (int k = 1; k <= stages; ++k) {
    const bool first = k == 1;
    const bool final_stage = k == stages;

    // Outer input: relation B for stage 1, relation C afterwards.
    const Relation& outer_rel = first ? c.db().b() : c.db().c();
    const std::vector<PeId>& outer_nodes =
        first ? c.db().b_nodes() : c.db().all_nodes();
    const int64_t outer_total = static_cast<int64_t>(
        cfg.join_query.scan_selectivity *
        static_cast<double>(outer_rel.num_tuples()));
    const int64_t result_total = static_cast<int64_t>(
        cfg.join_query.result_size_factor * static_cast<double>(inner_total));

    // Consult the control node and plan this stage.
    co_await c.net().ControlMessage(coord, 0);
    co_await c.net().ControlMessage(0, coord);
    JoinPlanRequest req = c.plan_request();
    if (!first) {
      const int bf = cfg.relation_a.blocking_factor;
      int64_t inner_pages = (inner_total + bf - 1) / bf;
      req.hash_table_pages = static_cast<int64_t>(std::ceil(
          cfg.join_query.fudge_factor * static_cast<double>(inner_pages)));
      req.psu_noio = static_cast<int>(std::clamp<int64_t>(
          (req.hash_table_pages + cfg.buffer.buffer_pages - 1) /
              cfg.buffer.buffer_pages,
          1, cfg.num_pes));
    }
    JoinPlan plan = c.policy().Plan(req, c.control(), c.workload_rng());
    const int p = plan.degree;
    degraded = degraded || plan.degraded;

    // Base-relation fragments execute at their current owner; under elastic
    // resize that can differ from the declustering home (catalog/ownership.h).
    const std::vector<PeId> outer_exec =
        c.OwnersOf(outer_rel.id(), outer_nodes);
    const std::vector<PeId> a_exec =
        first ? c.OwnersOf(c.db().a().id(), c.db().a_nodes())
              : std::vector<PeId>();

    // This stage's participants: inner sources, outer scan nodes, join PEs.
    // Owners (not homes) participate: a fragment migrated off a drained PE
    // must stay queryable after that PE dies.
    std::set<PeId> participant_set(outer_exec.begin(), outer_exec.end());
    if (first) {
      participant_set.insert(a_exec.begin(), a_exec.end());
    } else {
      participant_set.insert(result_pes.begin(), result_pes.end());
    }
    participant_set.insert(plan.pes.begin(), plan.pes.end());
    const std::vector<PeId> participants(participant_set.begin(),
                                         participant_set.end());
    if (qa != nullptr && !qa->AddParticipants(participants)) co_return;
    co_await parop::StartSubqueries(c, coord, participants);
    all_participants.insert(participants.begin(), participants.end());

    // Local joins for this stage (uniform partitioning).
    const std::vector<double> dest_frac = ZipfWeights(p, 0.0);
    parop::JoinStage stage{coord, plan.pes, dest_frac,
                           SplitWeighted(result_total, dest_frac), {}};
    stage.joins = co_await parop::SetUpLocalJoins(
        c, plan.pes, SplitWeighted(inner_total, dest_frac),
        SplitWeighted(outer_total, dest_frac),
        std::vector<int>(p, plan.pages_per_pe));

    // Building phase: inner from the A scan (stage 1) or from the previous
    // stage's result processors.  Probing phase: outer scanned from B
    // (stage 1) or C; only the final stage ships its result.
    const parop::PhaseInput inner =
        first ? parop::PhaseInput{&c.db().a(), c.db().a_nodes(), a_exec,
                                  SplitEvenly(inner_total,
                                              static_cast<int>(a_exec.size())),
                                  0}
              : parop::PhaseInput{nullptr, {}, result_pes, result_at, 0};
    const parop::PhaseInput outer{
        &outer_rel, outer_nodes, outer_exec,
        SplitEvenly(outer_total, static_cast<int>(outer_nodes.size())), 0};
    co_await parop::RunPhase(c, stage, inner, parop::Consume::kBuild);
    co_await parop::RunPhase(c, stage, outer,
                             final_stage ? parop::Consume::kProbeShipNonEmpty
                                         : parop::Consume::kProbeKeepResult);

    // The result becomes the next stage's inner.
    result_pes = plan.pes;
    result_at = stage.result;
    inner_total = result_total;
  }

  // Read-only optimized commit across everything that participated.
  const std::vector<PeId> committers(all_participants.begin(),
                                     all_participants.end());
  co_await parop::Commit(c, coord, committers,
                         parop::CommitProtocol::kReadOnly);
  co_await UseCpu(c, coord, costs.terminate_txn);
  admission.ReleaseNow();
  c.metrics().RecordMultiwayJoin(sched.Now() - t0, stages, sched.Now());
  if (degraded) {
    // Any overload-capped stage marks the whole query degraded; supervised
    // queries defer the count to the supervisor.
    if (qa != nullptr) {
      qa->degraded_plan = true;
    } else {
      c.metrics().RecordQueryDegraded(sched.Now());
    }
  }
}

}  // namespace pdblb
