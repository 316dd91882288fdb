// Copyright 2026 the pdblb authors. MIT license.
//
// Unit tests for the network model: packet disassembly, CPU cost charging
// at both endpoints, wire latency, local-transfer shortcuts and the
// delivery continuation of Network::Send.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "netsim/network.h"
#include "simkern/resource.h"
#include "simkern/scheduler.h"

namespace pdblb {
namespace {

struct Fixture {
  sim::Scheduler sched;
  std::vector<std::unique_ptr<sim::Resource>> cpus;
  NetworkConfig config;
  CpuCosts costs;
  std::unique_ptr<Network> net;

  explicit Fixture(int pes = 4) {
    for (int i = 0; i < pes; ++i) {
      cpus.push_back(std::make_unique<sim::Resource>(sched, 1, "cpu"));
    }
    std::vector<sim::Resource*> cpu_table;
    for (auto& cpu : cpus) cpu_table.push_back(cpu.get());
    net = std::make_unique<Network>(sched, config, costs, 20.0,
                                    std::move(cpu_table));
  }
};

TEST(NetworkTest, PacketsForBytes) {
  Fixture f;
  EXPECT_EQ(f.net->PacketsFor(0), 1);
  EXPECT_EQ(f.net->PacketsFor(1), 1);
  EXPECT_EQ(f.net->PacketsFor(8192), 1);
  EXPECT_EQ(f.net->PacketsFor(8193), 2);
  EXPECT_EQ(f.net->PacketsFor(5 * 8192), 5);
}

TEST(NetworkTest, SinglePacketTransferTiming) {
  Fixture f;
  SimTime end = -1;
  f.sched.Spawn([](Fixture& fx, SimTime* out) -> sim::Task<> {
    co_await fx.net->Transfer(0, 1, 100);
    *out = fx.sched.Now();
  }(f, &end));
  f.sched.Run();
  // Sender (5000+5000)/20k = 0.5 ms, wire 0.1 ms, receiver
  // (10000+5000)/20k = 0.75 ms.
  EXPECT_NEAR(end, 0.5 + 0.1 + 0.75, 1e-9);
  EXPECT_EQ(f.net->messages_sent(), 1);
  EXPECT_EQ(f.net->packets_sent(), 1);
}

TEST(NetworkTest, MultiPacketMessageChargesPerPacket) {
  Fixture f;
  SimTime end = -1;
  f.sched.Spawn([](Fixture& fx, SimTime* out) -> sim::Task<> {
    co_await fx.net->Transfer(0, 1, 3 * 8192);
    *out = fx.sched.Now();
  }(f, &end));
  f.sched.Run();
  // Sender (5000+3*5000)/20k = 1.0; wire 0.3; receiver (10000+3*5000)/20k
  // = 1.25.
  EXPECT_NEAR(end, 1.0 + 0.3 + 1.25, 1e-9);
  EXPECT_EQ(f.net->packets_sent(), 3);
  EXPECT_EQ(f.net->bytes_sent(), 3 * 8192);
}

TEST(NetworkTest, LocalTransferIsFree) {
  Fixture f;
  SimTime end = -1;
  f.sched.Spawn([](Fixture& fx, SimTime* out) -> sim::Task<> {
    co_await fx.net->Transfer(2, 2, 1 << 20);
    *out = fx.sched.Now();
  }(f, &end));
  f.sched.Run();
  EXPECT_DOUBLE_EQ(end, 0.0);
  EXPECT_EQ(f.net->messages_sent(), 0);
}

TEST(NetworkTest, SendRunsThenOnceAfterReceiverCpu) {
  Fixture f;
  int calls = 0;
  SimTime ran_at = -1;
  SimTime end = -1;
  f.sched.Spawn([](Fixture& fx, int* calls, SimTime* ran_at,
                   SimTime* out) -> sim::Task<> {
    co_await fx.net->Send(0, 1, 100, [&fx, calls, ran_at] {
      ++*calls;
      *ran_at = fx.sched.Now();
    });
    *out = fx.sched.Now();
  }(f, &calls, &ran_at, &end));
  f.sched.Run();
  EXPECT_EQ(calls, 1);
  // Sender CPU 0.5 ms + wire 0.1 ms + receiver CPU 0.75 ms.
  EXPECT_NEAR(ran_at, 0.5 + 0.1 + 0.75, 1e-9);
  EXPECT_DOUBLE_EQ(end, ran_at);
  EXPECT_EQ(f.cpus[0]->completed(), 1u);
  EXPECT_EQ(f.cpus[1]->completed(), 1u);
}

TEST(NetworkTest, LocalSendRunsThenSynchronously) {
  Fixture f;
  bool ran = false;
  bool checked = false;
  f.sched.Spawn([](Fixture& fx, bool* ran, bool* checked) -> sim::Task<> {
    co_await fx.sched.Delay(2.0);
    const uint64_t events = fx.sched.events_processed();
    co_await fx.net->Send(2, 2, 1 << 20, [ran] { *ran = true; });
    EXPECT_TRUE(*ran);
    EXPECT_EQ(fx.sched.events_processed(), events)
        << "a local send must not pass through the calendar";
    EXPECT_DOUBLE_EQ(fx.sched.Now(), 2.0);
    *checked = true;
  }(f, &ran, &checked));
  f.sched.Run();
  EXPECT_TRUE(checked);
  EXPECT_EQ(f.net->messages_sent(), 0);
  EXPECT_EQ(f.net->packets_sent(), 0);
  EXPECT_EQ(f.net->bytes_sent(), 0);
  EXPECT_EQ(f.net->bulk_messages_sent(), 0);
  EXPECT_EQ(f.net->bulk_bytes_sent(), 0);
  EXPECT_EQ(f.cpus[2]->completed(), 0u);
}

TEST(NetworkTest, SendCountsLikeTransfer) {
  const int64_t bytes = 3 * 8192 + 5;
  Fixture via_transfer;
  Fixture via_send;
  SimTime transfer_end = -1;
  SimTime send_end = -1;
  via_transfer.sched.Spawn([](Fixture& fx, int64_t bytes,
                              SimTime* out) -> sim::Task<> {
    co_await fx.net->Transfer(0, 3, bytes);
    *out = fx.sched.Now();
  }(via_transfer, bytes, &transfer_end));
  via_send.sched.Spawn([](Fixture& fx, int64_t bytes,
                          SimTime* out) -> sim::Task<> {
    co_await fx.net->Send(0, 3, bytes, [] {});
    *out = fx.sched.Now();
  }(via_send, bytes, &send_end));
  via_transfer.sched.Run();
  via_send.sched.Run();
  EXPECT_EQ(via_send.net->messages_sent(), via_transfer.net->messages_sent());
  EXPECT_EQ(via_send.net->packets_sent(), via_transfer.net->packets_sent());
  EXPECT_EQ(via_send.net->bytes_sent(), via_transfer.net->bytes_sent());
  EXPECT_EQ(via_send.net->packets_sent(), 4);
  EXPECT_EQ(via_send.net->bytes_sent(), bytes);
  EXPECT_DOUBLE_EQ(send_end, transfer_end);
  EXPECT_EQ(via_send.sched.events_processed(),
            via_transfer.sched.events_processed());
}

TEST(NetworkTest, BulkTransferUsesOnlyBulkCounters) {
  Fixture f;
  SimTime end = -1;
  f.sched.Spawn([](Fixture& fx, SimTime* out) -> sim::Task<> {
    co_await fx.net->TransferBulk(0, 1, 3 * 8192);
    *out = fx.sched.Now();
  }(f, &end));
  f.sched.Run();
  // Same cost structure as a foreground transfer of the same size.
  EXPECT_NEAR(end, 1.0 + 0.3 + 1.25, 1e-9);
  EXPECT_EQ(f.net->bulk_messages_sent(), 1);
  EXPECT_EQ(f.net->bulk_bytes_sent(), 3 * 8192);
  EXPECT_EQ(f.net->messages_sent(), 0);
  EXPECT_EQ(f.net->packets_sent(), 0);
  EXPECT_EQ(f.net->bytes_sent(), 0);
}

TEST(NetworkTest, SenderCpuContentionDelaysTransfer) {
  Fixture f;
  SimTime end = -1;
  // Occupy the sender CPU for 10 ms; the transfer must queue behind it.
  f.sched.Spawn([](Fixture& fx) -> sim::Task<> {
    co_await fx.cpus[0]->Use(10.0);
  }(f));
  f.sched.Spawn([](Fixture& fx, SimTime* out) -> sim::Task<> {
    co_await fx.net->Transfer(0, 1, 100);
    *out = fx.sched.Now();
  }(f, &end));
  f.sched.Run();
  EXPECT_NEAR(end, 10.0 + 1.35, 1e-9);
}

TEST(NetworkTest, ControlMessageIsOnePacket) {
  Fixture f;
  f.sched.Spawn([](Fixture& fx) -> sim::Task<> {
    co_await fx.net->ControlMessage(0, 3);
  }(f));
  f.sched.Run();
  EXPECT_EQ(f.net->packets_sent(), 1);
}

TEST(NetworkTest, StatsReset) {
  Fixture f;
  f.sched.Spawn([](Fixture& fx) -> sim::Task<> {
    co_await fx.net->Transfer(0, 1, 8192 * 2);
  }(f));
  f.sched.Run();
  EXPECT_GT(f.net->messages_sent(), 0);
  f.net->ResetStats();
  EXPECT_EQ(f.net->messages_sent(), 0);
  EXPECT_EQ(f.net->packets_sent(), 0);
  EXPECT_EQ(f.net->bytes_sent(), 0);
}

}  // namespace
}  // namespace pdblb
