// Copyright 2026 the pdblb authors. MIT license.

#include "engine/parop.h"

#include <algorithm>

#include "core/skew.h"
#include "simkern/channel.h"
#include "simkern/task_group.h"

namespace pdblb::parop {
namespace {

/// A redistribution batch: some tuples travelling to one operator instance.
struct Batch {
  int64_t tuples = 0;
};
using BatchChannel = sim::Channel<Batch>;
using Channels = std::vector<std::unique_ptr<BatchChannel>>;

/// Ships one tuple batch over the network, then hands it to the consumer.
/// Not a coroutine: the hand-off rides in the Send task's own frame, so
/// the network holds one frame per in-flight message (the TaskGroup that
/// spawns it adds its member wrapper).
sim::Task<> SendBatch(Cluster& c, PeId src, PeId dst, int64_t tuples,
                      int tuple_size, BatchChannel* channel) {
  return c.net().Send(src, dst, tuples * tuple_size,
                      [channel, tuples] { channel->Send(Batch{tuples}); });
}

/// Wire + receiver-side cost of a control message whose send costs the
/// coordinator already serialized itself.
sim::Task<> DeliverControl(Cluster& c, PeId dest) {
  co_await c.sched().Delay(c.config().network.wire_time_per_packet_ms);
  const CpuCosts& costs = c.config().costs;
  co_await UseCpu(c, dest, costs.receive_message + costs.copy_message);
}

/// One participant's part of the read-only-optimized commit (single round):
/// receive the commit message, release resources, acknowledge.
sim::Task<> CommitRound(Cluster& c, PeId coord, PeId dest) {
  const CpuCosts& costs = c.config().costs;
  double wire = c.config().network.wire_time_per_packet_ms;
  co_await c.sched().Delay(wire);
  co_await UseCpu(c, dest, costs.receive_message + costs.copy_message);
  co_await UseCpu(c, dest, costs.send_message + costs.copy_message);
  co_await c.sched().Delay(wire);
  co_await UseCpu(c, coord, costs.receive_message + costs.copy_message);
}

/// One participant's part of a full two-phase commit (update transactions):
/// prepare round with a forced log write, then the commit round.
sim::Task<> TwoPhaseCommitRounds(Cluster& c, PeId coord, PeId dest) {
  const CpuCosts& costs = c.config().costs;
  double wire = c.config().network.wire_time_per_packet_ms;
  // Phase 1: prepare.  The participant forces its log before voting.
  co_await c.sched().Delay(wire);
  co_await UseCpu(c, dest, costs.receive_message + costs.copy_message);
  co_await c.pe(dest).disks().LogWrite();
  co_await UseCpu(c, dest, costs.send_message + costs.copy_message);
  co_await c.sched().Delay(wire);
  co_await UseCpu(c, coord, costs.receive_message + costs.copy_message);
  // Phase 2: commit.
  co_await UseCpu(c, coord, costs.send_message + costs.copy_message);
  co_await CommitRound(c, coord, dest);
}

/// Join-processor side of the building phase.  Memory was already acquired
/// by SetUpLocalJoins.
sim::Task<> BuildConsumer(LocalJoin* join, BatchChannel* channel) {
  while (auto batch = co_await channel->Receive()) {
    co_await join->InsertInnerBatch(batch->tuples);
  }
}

/// Join-processor side of the probing phase, including the deferred joins
/// of disk-resident partitions and, as `consume` says, the result transfer
/// to the coordinator.
sim::Task<> ProbeConsumer(Cluster& c, const JoinStage& stage, int j,
                          BatchChannel* channel, Consume consume) {
  LocalJoin* join = stage.joins[j].get();
  const PeId join_pe = stage.pes[j];
  const int64_t result_tuples = stage.result[j];
  while (auto batch = co_await channel->Receive()) {
    co_await join->ProbeBatch(batch->tuples);
  }
  co_await join->CompleteProbe();
  co_await UseCpu(c, join_pe,
                  result_tuples * c.config().costs.write_output_tuple);
  if (consume == Consume::kProbeShipResult ||
      (consume == Consume::kProbeShipNonEmpty && result_tuples > 0)) {
    // A transfer to the coordinator's own PE is a free local hand-off.
    co_await c.net().Transfer(
        join_pe, stage.coord,
        result_tuples * c.config().relation_a.tuple_size_bytes);
  }
  join->Release();
}

/// Parallel scan of one fragment with dynamic redistribution: reads the
/// selected page range through `node`'s buffer, charges per-tuple CPU, and
/// streams page-sized packets to the join processors.  `home` is the PE
/// whose fragment is scanned (geometry, page keys, read-lock site); under
/// Shared Disk any scan processor `node` may scan it — the pages come off
/// the shared spindles through `node`'s storage adapter.
sim::Task<> ScanRedistribute(Cluster& c, PeId node, PeId home,
                             const Relation& rel, int64_t sel_tuples,
                             TxnId read_lock_txn, const JoinStage& stage,
                             const Channels& channels, sim::TaskGroup& sends) {
  if (sel_tuples <= 0) co_return;
  const SystemConfig& cfg = c.config();
  const CpuCosts& costs = cfg.costs;
  ProcessingElement& pe = c.pe(node);

  const int bf = rel.blocking_factor();
  const int tuple_size = rel.config().tuple_size_bytes;
  const int64_t frag_pages = rel.PagesAt(home);
  const int64_t pages =
      std::min<int64_t>(frag_pages, (sel_tuples + bf - 1) / bf);
  const int64_t start =
      c.workload_rng().UniformInt(0, std::max<int64_t>(0, frag_pages - 1));

  // Clustered B+-tree descent to the start of the selected range.
  co_await UseCpu(c, node, costs.read_tuple * rel.IndexLevels(home));

  const std::vector<PeId>& dests = stage.pes;
  const std::vector<double>& dest_frac = stage.dest_frac;
  const int p = static_cast<int>(dests.size());
  const int64_t packet_tuples =
      std::max<int64_t>(1, cfg.network.packet_size_bytes / tuple_size);

  std::vector<int64_t> per_dest = SplitWeighted(sel_tuples, dest_frac);
  std::vector<double> accum(p, 0.0);
  std::vector<int64_t> sent(p, 0);

  // Pages are processed in striped groups: one group's I/O is spread across
  // the whole disk array (horizontal declustering over disks), then CPU is
  // charged per prefetch chunk while packets stream out.
  const int64_t group_pages =
      static_cast<int64_t>(cfg.disk.prefetch_pages) * cfg.disk.disks_per_pe;
  int64_t remaining = sel_tuples;
  int64_t processed = 0;
  while (processed < pages && remaining > 0) {
    int64_t pos = (start + processed) % frag_pages;
    int64_t len = std::min({group_pages, pages - processed, frag_pages - pos});
    if (read_lock_txn != 0) {
      for (int64_t i = 0; i < len; ++i) {
        co_await LockPageShared(c, home, read_lock_txn,
                                rel.DataPage(home, pos + i));
      }
    }
    co_await pe.buffer().FetchRange(rel.DataPage(home, pos), len);
    processed += len;

    for (int64_t chunk = 0; chunk < len && remaining > 0;
         chunk += cfg.disk.prefetch_pages) {
      int64_t chunk_pages =
          std::min<int64_t>(cfg.disk.prefetch_pages, len - chunk);
      int64_t in_chunk = std::min<int64_t>(chunk_pages * bf, remaining);
      remaining -= in_chunk;
      co_await UseCpu(c, node,
                      in_chunk * (costs.read_tuple + costs.hash_tuple +
                                  costs.write_output_tuple));
      // Hash partitioning: every destination accumulates its partition
      // fraction; full packets are shipped as soon as they fill.
      for (int j = 0; j < p; ++j) {
        accum[j] += static_cast<double>(in_chunk) * dest_frac[j];
        while (accum[j] >= static_cast<double>(packet_tuples) &&
               sent[j] + packet_tuples <= per_dest[j]) {
          accum[j] -= static_cast<double>(packet_tuples);
          sent[j] += packet_tuples;
          sends.Spawn(SendBatch(c, node, dests[j], packet_tuples, tuple_size,
                                channels[j].get()));
        }
      }
    }
  }
  // Final partial packet per (scan node, destination) pair: this is the
  // redistribution overhead that grows with the number of nodes.
  for (int j = 0; j < p; ++j) {
    int64_t rest = per_dest[j] - sent[j];
    if (rest > 0) {
      sends.Spawn(
          SendBatch(c, node, dests[j], rest, tuple_size, channels[j].get()));
    }
  }
}

/// Redistributes `tuples` tuples already materialized at `src` (an
/// intermediate result of a multi-way join) to the join processors:
/// per-tuple output CPU plus packetized network transfers.
sim::Task<> Redistribute(Cluster& c, PeId src, int64_t tuples,
                         const JoinStage& stage, const Channels& channels,
                         sim::TaskGroup& sends) {
  if (tuples <= 0) co_return;
  const SystemConfig& cfg = c.config();
  const CpuCosts& costs = cfg.costs;
  const int tuple_size = cfg.relation_a.tuple_size_bytes;
  const int p = static_cast<int>(stage.pes.size());
  const int64_t packet_tuples =
      std::max<int64_t>(1, cfg.network.packet_size_bytes / tuple_size);

  // Partitioning CPU: hash + output-buffer write per tuple.
  co_await UseCpu(
      c, src, tuples * (costs.hash_tuple + costs.write_output_tuple));

  std::vector<int64_t> per_dest = SplitWeighted(tuples, stage.dest_frac);
  for (int j = 0; j < p; ++j) {
    int64_t left = per_dest[j];
    while (left > 0) {
      int64_t batch = std::min(packet_tuples, left);
      left -= batch;
      sends.Spawn(SendBatch(c, src, stage.pes[j], batch, tuple_size,
                            channels[j].get()));
    }
  }
}

}  // namespace

std::vector<int64_t> SplitEvenly(int64_t total, int parts) {
  std::vector<int64_t> out(parts, total / parts);
  int64_t rem = total % parts;
  for (int64_t i = 0; i < rem; ++i) ++out[static_cast<size_t>(i)];
  return out;
}

sim::Task<> LockPageShared(Cluster& c, PeId node, TxnId txn, PageKey page) {
  LockManager& locks = c.pe(node).locks();
  while (!co_await locks.Lock(txn, LockKey{page.relation_id, page.page_no},
                              LockMode::kShared)) {
    locks.ReleaseAll(txn);
    co_await c.sched().Delay(10.0);
  }
}

sim::Task<> StartSubqueries(Cluster& c, PeId coord,
                            const std::vector<PeId>& dests) {
  const CpuCosts& costs = c.config().costs;
  sim::TaskGroup startup(c.sched());
  for (PeId dest : dests) {
    if (dest == coord) continue;
    co_await UseCpu(c, coord, costs.send_message + costs.copy_message);
    startup.Spawn(DeliverControl(c, dest));
  }
  co_await startup.Wait();
}

sim::Task<> Commit(Cluster& c, PeId coord, const std::vector<PeId>& dests,
                   CommitProtocol protocol) {
  const CpuCosts& costs = c.config().costs;
  const bool two_phase = protocol == CommitProtocol::kTwoPhase;
  sim::TaskGroup commits(c.sched());
  for (PeId dest : dests) {
    if (dest == coord) continue;
    co_await UseCpu(c, coord, costs.send_message + costs.copy_message);
    commits.Spawn(two_phase ? TwoPhaseCommitRounds(c, coord, dest)
                            : CommitRound(c, coord, dest));
  }
  if (two_phase) co_await c.pe(coord).disks().LogWrite();
  co_await commits.Wait();
}

sim::Task<std::vector<std::unique_ptr<LocalJoin>>> SetUpLocalJoins(
    Cluster& c, const std::vector<PeId>& pes,
    const std::vector<int64_t>& inner, const std::vector<int64_t>& outer,
    const std::vector<int>& want_pages) {
  const SystemConfig& cfg = c.config();
  const int p = static_cast<int>(pes.size());
  std::vector<std::unique_ptr<LocalJoin>> joins;
  joins.reserve(p);
  for (int j = 0; j < p; ++j) {
    LocalJoinParams params;
    params.temp_relation_id = c.NextTempRelationId();
    params.expected_inner_tuples = inner[j];
    params.expected_outer_tuples = outer[j];
    params.blocking_factor = cfg.relation_a.blocking_factor;
    params.fudge_factor = cfg.join_query.fudge_factor;
    params.want_pages = want_pages[j];
    params.write_batch_pages = cfg.disk.prefetch_pages;
    params.opportunistic_growth = cfg.pphj_opportunistic_growth;
    ProcessingElement& pe = c.pe(pes[j]);
    joins.push_back(CreateLocalJoin(cfg.local_join_method, c.sched(),
                                    pe.buffer(), pe.disks(), pe.cpu(),
                                    cfg.costs, cfg.mips_per_pe, params));
  }

  std::vector<int> order(p);
  for (int j = 0; j < p; ++j) order[j] = j;
  std::sort(order.begin(), order.end(),
            [&](int a, int b) { return pes[a] < pes[b]; });
  const SimTime queued_at = c.sched().Now();
  for (int j : order) co_await joins[j]->AcquireMemory();
  c.metrics().RecordMemoryQueueWait(c.sched().Now() - queued_at,
                                    c.sched().Now());
  co_return joins;
}

sim::Task<> RunPhase(Cluster& c, const JoinStage& stage,
                     const PhaseInput& input, Consume consume) {
  sim::Scheduler& sched = c.sched();
  const int p = static_cast<int>(stage.pes.size());
  Channels channels;
  for (int j = 0; j < p; ++j) {
    channels.push_back(std::make_unique<BatchChannel>(sched));
  }
  sim::TaskGroup consumers(sched);
  for (int j = 0; j < p; ++j) {
    consumers.Spawn(consume == Consume::kBuild
                        ? BuildConsumer(stage.joins[j].get(),
                                        channels[j].get())
                        : ProbeConsumer(c, stage, j, channels[j].get(),
                                        consume));
  }
  sim::TaskGroup sources(sched);
  sim::TaskGroup sends(sched);
  for (size_t i = 0; i < input.sites.size(); ++i) {
    if (input.rel != nullptr) {
      sources.Spawn(ScanRedistribute(c, input.sites[i], input.homes[i],
                                     *input.rel, input.tuples[i],
                                     input.read_lock_txn, stage, channels,
                                     sends));
    } else {
      sources.Spawn(Redistribute(c, input.sites[i], input.tuples[i], stage,
                                 channels, sends));
    }
  }
  co_await sources.Wait();
  co_await sends.Wait();
  for (auto& ch : channels) ch->Close();
  co_await consumers.Wait();
}

}  // namespace pdblb::parop
