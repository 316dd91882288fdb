// Copyright 2026 the pdblb authors. MIT license.
//
// Sharded-scheduler suite:
//  * message-band ordering: at equal timestamps, local events precede
//    message arrivals and messages order by (origin, ordinal) — regardless
//    of co-location, shard count, or post order;
//  * seeded stress: an 80-entity message-passing workload produces
//    bit-identical per-entity results for 1, 2 and 4 shards, parallel and
//    serial, across reruns (the shard-count-invariance contract);
//  * structured cancellation: ~Scheduler destroys suspended detached
//    frames (locals' destructors run; nothing leaks — the ASan CI job
//    keeps that honest without suppressions).

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/config.h"
#include "netsim/shard_mailbox.h"
#include "simkern/channel.h"
#include "simkern/resource.h"
#include "simkern/scheduler.h"
#include "simkern/sharded.h"
#include "simkern/task.h"
#include "simkern/tracer.h"

namespace pdblb::sim {
namespace {

// --- message-band ordering ------------------------------------------------

TEST(MessageBandTest, LocalEventsPrecedeSameTimeMessages) {
  // Entity 1 posts a message to entity 0 arriving at exactly t=1.0, where
  // entity 0 also has a local callback.  The band contract: local first,
  // message second — for S=1 (co-located fast path) and S=2 (mailbox
  // route) alike.
  for (int shards : {1, 2}) {
    ShardedScheduler::Options opts;
    opts.num_shards = shards;
    opts.num_entities = 2;
    opts.lookahead_ms = 0.5;
    opts.parallel = false;
    ShardedScheduler ss(opts);
    std::vector<std::string> order;
    ss.home(0).ScheduleCallback(1.0, [&] { order.push_back("local"); });
    ss.Post(1, 0, 1.0, [&] { order.push_back("message"); });
    ss.Run();
    EXPECT_EQ(order, (std::vector<std::string>{"local", "message"}))
        << "shards=" << shards;
  }
}

TEST(MessageBandTest, SameTimeMessagesOrderByOriginNotPostOrder) {
  // Entities 3, 2, 1 (posted in that order) all hit entity 0 at t=2.0; the
  // dispatch order must be origin order 1, 2, 3 for every shard count —
  // that key is what makes results shard-count-invariant.
  for (int shards : {1, 2, 4}) {
    ShardedScheduler::Options opts;
    opts.num_shards = shards;
    opts.num_entities = 4;
    opts.lookahead_ms = 0.5;
    opts.parallel = false;
    ShardedScheduler ss(opts);
    std::vector<int> order;
    for (int origin : {3, 2, 1}) {
      ss.Post(origin, 0, 2.0, [&order, origin] { order.push_back(origin); });
    }
    ss.Run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3})) << "shards=" << shards;
  }
}

TEST(MessageBandTest, OrdinalOrdersSameOriginSameTimeMessages) {
  ShardedScheduler::Options opts;
  opts.num_shards = 2;
  opts.num_entities = 2;
  opts.lookahead_ms = 0.5;
  opts.parallel = false;
  ShardedScheduler ss(opts);
  std::vector<int> order;
  for (int k = 0; k < 4; ++k) {
    ss.Post(1, 0, 3.0, [&order, k] { order.push_back(k); });
  }
  ss.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

// --- the sharded cluster workload ----------------------------------------
// E entities; entity e loops `rounds` times over a private CPU service and
// every `msg_every`-th round ships `bytes` to a peer; deliveries spawn a
// handler charging the receiver's CPU.  Entities touch only their own
// state outside ShardWire::Send, so per-entity results must not depend on
// the shard count, the execution mode, or the run.

struct Entity {
  std::unique_ptr<Resource> cpu;
  uint64_t delivered = 0;
  SimTime done_time = 0.0;
  SimTime last_delivery_time = 0.0;
};

struct Workload {
  ShardedScheduler* ss;
  ShardWire* wire;
  std::vector<Entity> entities;
  int rounds;
  int msg_every;
  int stride;  // peer = block-local (+1) for stride 0, else (e+stride)%E
  int64_t bytes;
};

int PeerOf(const Workload& w, int e) {
  int n = static_cast<int>(w.entities.size());
  if (w.stride == 0) {
    // Block-local neighbour: stays inside a 20-entity block, which keeps
    // the peer co-located for every shard count that divides E/20 blocks.
    int block = e / 20 * 20;
    return block + (e - block + 1) % 20;
  }
  return (e + w.stride) % n;
}

Task<> HandleDelivery(Workload& w, int dst) {
  co_await w.entities[dst].cpu->Use(0.21 + 0.003 * dst);
  Entity& ent = w.entities[dst];
  ++ent.delivered;
  ent.last_delivery_time = w.ss->home(dst).Now();
}

Task<> EntityDriver(Workload& w, int e) {
  Entity& ent = w.entities[e];
  for (int r = 0; r < w.rounds; ++r) {
    co_await ent.cpu->Use(0.37 + 0.013 * e);
    if (w.msg_every > 0 && r % w.msg_every == 0) {
      int dst = PeerOf(w, e);
      w.wire->Send(e, dst, w.bytes,
                   [&w, dst] { w.ss->home(dst).Spawn(HandleDelivery(w, dst)); });
    }
  }
  ent.done_time = w.ss->home(e).Now();
}

// One per-entity result row; every field must be bit-identical across
// shard counts, execution modes and reruns.
using EntityResult =
    std::tuple<uint64_t, uint64_t, double, double, double, int64_t>;

// Per-entity projection of the event traces: for every (subsystem, origin)
// pair with a meaningful origin (cpu/<pe>, network/<src>), the timestamp
// sequence of its records across all shard tracers.  A shard's trace is
// time-ordered and a pair's records all live in one shard (an entity's cpu
// in its home shard, its sends in its peer's), so the projection is a
// well-defined sequence — and it must be bit-identical for every shard
// count, even though the raw per-shard traces obviously differ.
using TraceProjection = std::map<std::pair<uint8_t, uint16_t>,
                                 std::vector<SimTime>>;

TraceProjection ProjectTraces(const std::vector<std::unique_ptr<Tracer>>& ts) {
  TraceProjection proj;
  for (const auto& t : ts) {
    for (size_t i = 0; i < t->ring().size(); ++i) {
      const TraceRecord& r = t->ring().At(i);
      auto subsystem = static_cast<TraceSubsystem>(r.tag >> TraceTag::kOriginBits);
      if (subsystem != TraceSubsystem::kCpu &&
          subsystem != TraceSubsystem::kNetwork) {
        continue;  // kernel/0 spawn records carry no entity identity
      }
      proj[{static_cast<uint8_t>(subsystem),
            static_cast<uint16_t>(r.tag & TraceTag::kOriginMask)}]
          .push_back(r.at);
    }
  }
  return proj;
}

std::vector<EntityResult> RunWorkload(int num_entities, int shards,
                                      bool parallel, int stride,
                                      uint64_t* windows_out = nullptr,
                                      uint64_t* cross_out = nullptr,
                                      TraceProjection* traces_out = nullptr) {
  NetworkConfig net;  // defaults: 8 KB packets, 0.1 ms wire time
  ShardedScheduler::Options opts;
  opts.num_shards = shards;
  opts.num_entities = num_entities;
  opts.lookahead_ms = ShardLookaheadMs(net);
  opts.parallel = parallel;
  ShardedScheduler ss(opts);
  std::vector<std::unique_ptr<Tracer>> tracers;
  if (traces_out != nullptr) {
    for (int s = 0; s < shards; ++s) {
      tracers.push_back(std::make_unique<Tracer>(1 << 18));
      ss.shard(s).AttachTracer(tracers.back().get());
    }
  }
  ShardWire wire(ss, net);
  Workload w{&ss, &wire, {}, /*rounds=*/40, /*msg_every=*/4, stride,
             /*bytes=*/20000};
  w.entities.resize(static_cast<size_t>(num_entities));
  for (int e = 0; e < num_entities; ++e) {
    w.entities[static_cast<size_t>(e)].cpu = std::make_unique<Resource>(
        ss.home(e), 1, "cpu" + std::to_string(e),
        TraceTag(TraceSubsystem::kCpu, static_cast<uint16_t>(e)));
  }
  for (int e = 0; e < num_entities; ++e) {
    ss.home(e).Spawn(EntityDriver(w, e));
  }
  ss.Run();
  if (windows_out != nullptr) *windows_out = ss.windows();
  if (cross_out != nullptr) *cross_out = ss.cross_shard_messages();
  if (traces_out != nullptr) *traces_out = ProjectTraces(tracers);

  std::vector<EntityResult> results;
  results.reserve(w.entities.size());
  for (int e = 0; e < num_entities; ++e) {
    const Entity& ent = w.entities[static_cast<size_t>(e)];
    results.emplace_back(ent.delivered, ent.cpu->completed(),
                         ent.cpu->BusyIntegral(), ent.done_time,
                         ent.last_delivery_time, wire.messages_sent_by(e));
  }
  return results;
}

TEST(ShardedStressTest, PerEntityResultsInvariantAcrossShardCounts) {
  // Cross-shard-heavy wiring (peer on the opposite half of the cluster).
  std::vector<EntityResult> base = RunWorkload(80, 1, false, /*stride=*/40);
  uint64_t sum_delivered = 0;
  for (const EntityResult& r : base) sum_delivered += std::get<0>(r);
  ASSERT_GT(sum_delivered, 0u) << "workload delivered nothing";

  // 3 exercises uneven partitions (80/3: blocks of 27/27/26); 80 is the
  // shards == num_entities boundary (every entity its own calendar).
  for (int shards : {2, 3, 4, 80}) {
    for (bool parallel : {false, true}) {
      uint64_t cross = 0;
      std::vector<EntityResult> got =
          RunWorkload(80, shards, parallel, 40, nullptr, &cross);
      EXPECT_EQ(got, base) << "shards=" << shards << " parallel=" << parallel;
      EXPECT_GT(cross, 0u) << "heavy wiring must cross shards";
    }
  }
}

TEST(ShardedStressTest, PerEntityResultsInvariantWhenTrafficIsShardLocal) {
  std::vector<EntityResult> base = RunWorkload(80, 1, false, /*stride=*/0);
  for (int shards : {2, 4}) {
    uint64_t cross = 1;
    std::vector<EntityResult> got =
        RunWorkload(80, shards, true, 0, nullptr, &cross);
    EXPECT_EQ(got, base) << "shards=" << shards;
    EXPECT_EQ(cross, 0u) << "block-local wiring must stay co-located";
  }
}

TEST(ShardedStressTest, RerunsAreBitIdentical) {
  std::vector<EntityResult> a = RunWorkload(40, 4, true, 20);
  std::vector<EntityResult> b = RunWorkload(40, 4, true, 20);
  EXPECT_EQ(a, b);
}

TEST(ShardedStressTest, PerEntityTraceProjectionInvariantAcrossShardCounts) {
  if (!kTraceCompiledIn) GTEST_SKIP() << "PDBLB_TRACE=OFF build";
  // The raw per-shard traces differ with S by construction (different
  // calendars); the per-entity projection may not.
  TraceProjection base;
  RunWorkload(40, 1, false, /*stride=*/20, nullptr, nullptr, &base);
  ASSERT_FALSE(base.empty());
  for (int shards : {2, 3, 4}) {
    TraceProjection got;
    RunWorkload(40, shards, true, 20, nullptr, nullptr, &got);
    EXPECT_EQ(got, base) << "shards=" << shards;
  }
}

TEST(ShardedStressTest, CountersAreConsistent) {
  uint64_t windows = 0;
  uint64_t cross = 0;
  RunWorkload(40, 4, false, 20, &windows, &cross);
  EXPECT_GT(windows, 0u);
  EXPECT_GT(cross, 0u);
}

#ifndef NDEBUG
TEST(ShardedDeathTest, CrossShardPostInsideLookaheadAsserts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  ShardedScheduler::Options opts;
  opts.num_shards = 2;
  opts.num_entities = 2;
  opts.lookahead_ms = 1.0;
  opts.parallel = false;  // no worker threads: fork-safe
  ShardedScheduler ss(opts);
  // 0.5 < lookahead: the sender-side contract check must refuse it (and
  // anything that slipped past it would hit the DrainMailboxes window
  // assertion at the next barrier).
  EXPECT_DEATH(ss.Post(0, 1, 0.5, [] {}), "lookahead");
}
#endif

// --- structured cancellation ----------------------------------------------

Task<> UseLoop(Resource& res, SimTime hold, int rounds) {
  for (int i = 0; i < rounds; ++i) co_await res.Use(hold);
}

struct DtorProbe {
  int* counter;
  explicit DtorProbe(int* c) : counter(c) {}
  DtorProbe(const DtorProbe&) = delete;
  DtorProbe& operator=(const DtorProbe&) = delete;
  ~DtorProbe() { ++*counter; }
};

Task<> BlockOnChannel(Channel<int>& ch, int* destroyed) {
  DtorProbe probe(destroyed);
  auto v = co_await ch.Receive();  // never satisfied in these tests
  (void)v;
}

Task<> BlockOnResource(Resource& res, int* destroyed) {
  DtorProbe probe(destroyed);
  co_await res.Acquire();
  res.Release();
}

Task<> ParentOfBlockedChild(Channel<int>& ch, int* destroyed) {
  DtorProbe probe(destroyed);
  co_await BlockOnChannel(ch, destroyed);  // owned child, not registered
}

TEST(StructuredCancellationTest, TeardownDestroysSuspendedFrames) {
  int destroyed = 0;
  {
    Scheduler sched;
    Channel<int> ch(sched);
    Resource res(sched, 1, "cpu");
    sched.Spawn(BlockOnChannel(ch, &destroyed));
    sched.Spawn(UseLoop(res, 1e9, 1));  // holds the only server
    sched.Spawn(BlockOnResource(res, &destroyed));
    sched.RunUntil(1.0);
    EXPECT_EQ(sched.detached_in_flight(), 3u);
    EXPECT_EQ(destroyed, 0);
  }  // ch/res die first (reverse declaration), then ~Scheduler the frames
  EXPECT_EQ(destroyed, 2);
}

TEST(StructuredCancellationTest, DestroyingAParentDestroysItsOwnedChild) {
  int destroyed = 0;
  {
    Scheduler sched;
    Channel<int> ch(sched);
    sched.Spawn(ParentOfBlockedChild(ch, &destroyed));
    sched.RunUntil(1.0);
    // Only the detached root registers; the blocked child is owned by (and
    // destroyed through) the parent's frame.
    EXPECT_EQ(sched.detached_in_flight(), 1u);
  }
  EXPECT_EQ(destroyed, 2) << "parent and child frame locals must be destroyed";
}

TEST(StructuredCancellationTest, CompletedFramesUnregisterThemselves) {
  Scheduler sched;
  Resource res(sched, 4, "cpu");
  for (int i = 0; i < 16; ++i) sched.Spawn(UseLoop(res, 0.5, 10));
  EXPECT_EQ(sched.detached_in_flight(), 16u);
  sched.Run();
  EXPECT_EQ(sched.detached_in_flight(), 0u);
}

TEST(StructuredCancellationTest, ShardedTeardownDestroysAllShardsFrames) {
  // Mid-flight teardown of a sharded run: RunUntil a prefix of the windows
  // by bounding rounds low, then drop everything while messages and
  // blocked handlers are still pending.  Nothing may leak (ASan CI).
  int destroyed = 0;
  {
    ShardedScheduler::Options opts;
    opts.num_shards = 4;
    opts.num_entities = 8;
    opts.lookahead_ms = 0.1;
    opts.parallel = false;
    ShardedScheduler ss(opts);
    std::vector<std::unique_ptr<Channel<int>>> chans;
    for (int e = 0; e < 8; ++e) {
      chans.push_back(std::make_unique<Channel<int>>(ss.home(e)));
      ss.home(e).Spawn(BlockOnChannel(*chans[static_cast<size_t>(e)],
                                      &destroyed));
    }
    // Undelivered cross-shard mail parked in a mailbox must also be
    // destroyed cleanly with the ShardedScheduler.
    ss.Post(0, 7, 5.0, [] {});
    for (int s = 0; s < 4; ++s) ss.shard(s).RunUntil(0.5);
    EXPECT_EQ(destroyed, 0);
  }
  EXPECT_EQ(destroyed, 8);
}

}  // namespace
}  // namespace pdblb::sim
