// Copyright 2026 the pdblb authors. MIT license.
//
// The network side of sharded execution (paper Section 4 network model +
// conservative PDES): the wire is the *only* inter-PE coupling with a
// guaranteed minimum latency, so the per-packet wire time is the
// conservative-window lookahead, and every cross-shard interaction is a
// wire message routed through the sharded kernel's per-shard-pair SPSC
// mailboxes (simkern/sharded.h).
//
// ShardWire is the packetized transport for shard-confined workloads (the
// bench_simkern ShardedCluster* shapes): the sharded analogue of
// Network::Transfer's wire leg.  The endpoint CPU costs of a transfer stay
// with the caller (they are entity-local work on the sending/receiving
// entity's own resources); the wire delay — at least one packet, hence at
// least the lookahead — is what crosses shards.

#ifndef PDBLB_NETSIM_SHARD_MAILBOX_H_
#define PDBLB_NETSIM_SHARD_MAILBOX_H_

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/config.h"
#include "common/units.h"
#include "simkern/sharded.h"

namespace pdblb {

/// The conservative lookahead the network model guarantees: every message
/// is at least one packet on the wire, so no cross-PE interaction can take
/// effect sooner than this after its send instant.
inline SimTime ShardLookaheadMs(const NetworkConfig& config) {
  return config.wire_time_per_packet_ms;
}

/// Packetized PE-to-PE message transport over ShardedScheduler::Post.
/// `Send` may only be called from the source PE's shard (the Post
/// contract); `on_delivered` runs on the destination PE's shard at the
/// wire-arrival instant, tagged network/<src> in event traces.
class ShardWire {
 public:
  /// The scheduler's declared lookahead must not exceed the wire time of
  /// one packet *unless* the workload guarantees that faster traffic stays
  /// shard-local (Post asserts the per-message contract in debug builds):
  /// a workload with only block-local messaging may declare an arbitrarily
  /// coarse lookahead and get correspondingly coarse windows.
  ShardWire(sim::ShardedScheduler& sharded, const NetworkConfig& config)
      : sharded_(sharded), config_(config),
        stats_(static_cast<size_t>(sharded.num_entities())) {
    assert(config_.wire_time_per_packet_ms > 0.0);
  }
  ShardWire(const ShardWire&) = delete;
  ShardWire& operator=(const ShardWire&) = delete;

  /// Packets needed for `bytes` (at least 1 for any message).
  int64_t PacketsFor(int64_t bytes) const {
    if (bytes <= 0) return 1;
    return (bytes + config_.packet_size_bytes - 1) / config_.packet_size_bytes;
  }

  /// Ships `bytes` from PE `src` to PE `dst`; `fn` runs on `dst`'s shard
  /// when the last packet lands (store-and-forward, like
  /// Network::Transfer).  Unlike Transfer, src == dst still rides the wire:
  /// a message to yourself is rare and a zero-delay special case would make
  /// delivery semantics depend on co-location.
  template <typename F>
  void Send(int src, int dst, int64_t bytes, F&& fn) {
    int64_t packets = PacketsFor(bytes);
    PerEntityStats& s = stats_[static_cast<size_t>(src)];
    ++s.messages;
    s.packets += packets;
    s.bytes += bytes;
    SimTime at = sharded_.home(src).Now() +
                 config_.wire_time_per_packet_ms * static_cast<double>(packets);
    sharded_.Post(src, dst, at, std::forward<F>(fn),
                  sim::TraceTag(sim::TraceSubsystem::kNetwork,
                                static_cast<uint16_t>(src)));
  }

  // --- statistics (sum after Run(); per-entity cells are single-writer) ---
  int64_t messages_sent() const { return Sum(&PerEntityStats::messages); }
  int64_t packets_sent() const { return Sum(&PerEntityStats::packets); }
  int64_t bytes_sent() const { return Sum(&PerEntityStats::bytes); }
  /// Messages sent by one PE (shard-count-invariant; used by the
  /// determinism suite).
  int64_t messages_sent_by(int src) const {
    return stats_[static_cast<size_t>(src)].messages;
  }

 private:
  // One cache line per sending entity: written only by the owning shard's
  // thread, padded so block-boundary neighbours never share a line.
  struct alignas(64) PerEntityStats {
    int64_t messages = 0;
    int64_t packets = 0;
    int64_t bytes = 0;
  };

  int64_t Sum(int64_t PerEntityStats::* field) const {
    int64_t total = 0;
    for (const PerEntityStats& s : stats_) total += s.*field;
    return total;
  }

  sim::ShardedScheduler& sharded_;
  NetworkConfig config_;
  std::vector<PerEntityStats> stats_;
};

}  // namespace pdblb

#endif  // PDBLB_NETSIM_SHARD_MAILBOX_H_
