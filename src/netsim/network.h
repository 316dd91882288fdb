// Copyright 2026 the pdblb authors. MIT license.
//
// Communication network model (paper Section 4): messages are disassembled
// into fixed-size packets; per-message and per-packet CPU overhead is charged
// on the sending and receiving PEs, the wire adds a per-packet transmission
// delay.  The interconnect itself is a scalable high-speed network (EDS-like)
// and is modeled contention-free; the *CPU* cost of communication is the
// scarce resource, which is exactly the effect the paper's load-balancing
// trade-off hinges on.

#ifndef PDBLB_NETSIM_NETWORK_H_
#define PDBLB_NETSIM_NETWORK_H_

#include <cstdint>
#include <vector>

#include "common/config.h"
#include "common/units.h"
#include "simkern/resource.h"
#include "simkern/scheduler.h"
#include "simkern/task.h"

namespace pdblb {

/// Packetized point-to-point message transport.
class Network {
 public:
  /// `cpus[pe]` is PE `pe`'s CPU resource; the network charges the paper's
  /// send/receive/copy instruction counts there.  A flat table instead of a
  /// callback: endpoint lookup on the per-message hot path is one indexed
  /// load, with no type-erased indirection.
  Network(sim::Scheduler& sched, const NetworkConfig& net_config,
          const CpuCosts& costs, double mips,
          std::vector<sim::Resource*> cpus);

  /// Which counters a message is accounted in.
  enum class Traffic {
    kForeground,  ///< messages_sent / packets_sent / bytes_sent
    kBulk,        ///< bulk_messages_sent / bulk_bytes_sent (migration)
  };

  /// Transfers `bytes` from `src` to `dst` as one logical message, then
  /// runs `then()` once the receiver has processed it:
  ///   sender CPU:   send_message + copy_message * packets
  ///   wire:         wire_time_per_packet * packets (pure delay)
  ///   receiver CPU: receive_message + copy_message * packets
  /// Local transfers (src == dst) are free: co-located operators
  /// communicate via memory, so `then()` runs as soon as the task starts
  /// and no counter moves.  The continuation lives in this task's frame, so
  /// a caller that only hands the message on (a redistribution batch into
  /// its consumer's channel) needs no coroutine of its own: one frame per
  /// in-flight message.  A cancelled Send never runs `then()`.
  template <typename Then>
  sim::Task<> Send(PeId src, PeId dst, int64_t bytes, Then then,
                   Traffic traffic = Traffic::kForeground);

  /// Send with nothing to run on delivery.  Completes when the receiver
  /// has processed the message.
  sim::Task<> Transfer(PeId src, PeId dst, int64_t bytes);

  /// A short control message (startup, commit votes): one packet.
  sim::Task<> ControlMessage(PeId src, PeId dst);

  /// Bulk data transfer (fragment migration): same packetization, CPU
  /// charges and wire delay as Transfer, but accounted separately so the
  /// foreground message counters stay comparable across elastic and
  /// resize-free runs.
  sim::Task<> TransferBulk(PeId src, PeId dst, int64_t bytes);

  /// Packets needed for `bytes` (at least 1 for a non-empty message).
  int64_t PacketsFor(int64_t bytes) const;

  // --- link faults (engine/faults.h) --------------------------------------
  // Per-link partition flags and wire-delay multipliers.  The state tables
  // are lazily allocated on the first Set* call, so the fault-free path
  // touches nothing; Send itself only consults the multiplier (>= 1:
  // a slowdown never speeds a link up).  Partitions
  // are enforced one level up: the FaultInjector fails attempts that would
  // span a cut link (kUnavailable into the Supervise retry path) instead of
  // erroring the byte-stream, which has no failure channel.
  /// Cuts or restores the (symmetric) a<->b link.
  void SetPartitioned(PeId a, PeId b, bool partitioned);
  /// True when the a<->b link is currently cut; false when never armed.
  bool Partitioned(PeId a, PeId b) const;
  /// True when any link is currently cut (cheap fault-free early-out).
  bool AnyPartitions() const { return partitioned_links_ > 0; }
  /// Multiplies the (symmetric) a<->b wire delay by `factor` (>= 1; 1.0
  /// restores).
  void SetLinkDelayMultiplier(PeId a, PeId b, double factor);

  // --- statistics ---------------------------------------------------------
  int64_t messages_sent() const { return messages_sent_; }
  int64_t packets_sent() const { return packets_sent_; }
  int64_t bytes_sent() const { return bytes_sent_; }
  /// Bulk (migration) traffic, kept out of the foreground counters above.
  int64_t bulk_messages_sent() const { return bulk_messages_sent_; }
  int64_t bulk_bytes_sent() const { return bulk_bytes_sent_; }
  void ResetStats();

 private:
  size_t LinkIndex(PeId a, PeId b) const {
    return static_cast<size_t>(a) * cpus_.size() + static_cast<size_t>(b);
  }

  sim::Scheduler& sched_;
  NetworkConfig config_;
  CpuCosts costs_;
  double mips_;
  std::vector<sim::Resource*> cpus_;

  // n x n link state, symmetric, empty until a fault arms it.
  std::vector<uint8_t> partitioned_;
  std::vector<double> link_delay_factor_;
  int partitioned_links_ = 0;

  int64_t messages_sent_ = 0;
  int64_t packets_sent_ = 0;
  int64_t bytes_sent_ = 0;
  int64_t bulk_messages_sent_ = 0;
  int64_t bulk_bytes_sent_ = 0;
};

template <typename Then>
sim::Task<> Network::Send(PeId src, PeId dst, int64_t bytes, Then then,
                          Traffic traffic) {
  if (src != dst) {
    const int64_t packets = PacketsFor(bytes);
    if (traffic == Traffic::kForeground) {
      ++messages_sent_;
      packets_sent_ += packets;
      bytes_sent_ += bytes;
    } else {
      ++bulk_messages_sent_;
      bulk_bytes_sent_ += bytes;
    }

    // Sender-side CPU: message setup plus one buffer copy per packet.
    co_await cpus_[src]->Use(InstructionsToMs(
        costs_.send_message + costs_.copy_message * packets, mips_));

    // Wire latency (store-and-forward across packets).  Traced as network
    // time with the sending PE as origin; the CPU shares of the transfer
    // are charged on (and attributed to) the endpoint CPUs.  A slow link
    // stretches the wire share only (the endpoint CPU work is unchanged).
    double wire_ms =
        config_.wire_time_per_packet_ms * static_cast<double>(packets);
    if (!link_delay_factor_.empty()) {
      wire_ms *= link_delay_factor_[LinkIndex(src, dst)];
    }
    co_await sched_.Delay(
        wire_ms, sim::TraceTag(sim::TraceSubsystem::kNetwork,
                               static_cast<uint16_t>(src)));

    // Receiver-side CPU.
    co_await cpus_[dst]->Use(InstructionsToMs(
        costs_.receive_message + costs_.copy_message * packets, mips_));
  }
  then();
}

}  // namespace pdblb

#endif  // PDBLB_NETSIM_NETWORK_H_
