// Copyright 2026 the pdblb authors. MIT license.

#include "netsim/network.h"

#include <cassert>

namespace pdblb {

Network::Network(sim::Scheduler& sched, const NetworkConfig& net_config,
                 const CpuCosts& costs, double mips,
                 std::vector<sim::Resource*> cpus)
    : sched_(sched), config_(net_config), costs_(costs), mips_(mips),
      cpus_(std::move(cpus)) {}

void Network::SetPartitioned(PeId a, PeId b, bool partitioned) {
  assert(a != b);
  if (partitioned_.empty()) {
    partitioned_.assign(cpus_.size() * cpus_.size(), 0);
  }
  uint8_t value = partitioned ? 1 : 0;
  if (partitioned_[LinkIndex(a, b)] == value) return;
  partitioned_[LinkIndex(a, b)] = value;
  partitioned_[LinkIndex(b, a)] = value;
  partitioned_links_ += partitioned ? 1 : -1;
}

bool Network::Partitioned(PeId a, PeId b) const {
  if (partitioned_.empty()) return false;
  return partitioned_[LinkIndex(a, b)] != 0;
}

void Network::SetLinkDelayMultiplier(PeId a, PeId b, double factor) {
  assert(a != b);
  assert(factor >= 1.0);
  if (link_delay_factor_.empty()) {
    link_delay_factor_.assign(cpus_.size() * cpus_.size(), 1.0);
  }
  link_delay_factor_[LinkIndex(a, b)] = factor;
  link_delay_factor_[LinkIndex(b, a)] = factor;
}

int64_t Network::PacketsFor(int64_t bytes) const {
  if (bytes <= 0) return 1;
  return (bytes + config_.packet_size_bytes - 1) / config_.packet_size_bytes;
}

sim::Task<> Network::Transfer(PeId src, PeId dst, int64_t bytes) {
  return Send(src, dst, bytes, [] {});
}

sim::Task<> Network::ControlMessage(PeId src, PeId dst) {
  return Send(src, dst, 1, [] {});
}

sim::Task<> Network::TransferBulk(PeId src, PeId dst, int64_t bytes) {
  return Send(src, dst, bytes, [] {}, Traffic::kBulk);
}

void Network::ResetStats() {
  messages_sent_ = 0;
  packets_sent_ = 0;
  bytes_sent_ = 0;
  bulk_messages_sent_ = 0;
  bulk_bytes_sent_ = 0;
}

}  // namespace pdblb
