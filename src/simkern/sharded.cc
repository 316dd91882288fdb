// Copyright 2026 the pdblb authors. MIT license.

#include "simkern/sharded.h"

#include <limits>

#include "simkern/task.h"

namespace pdblb::sim {

ShardedScheduler::ShardedScheduler(const Options& options)
    : num_shards_(options.num_shards),
      num_entities_(options.num_entities),
      lookahead_ms_(options.lookahead_ms),
      parallel_(options.parallel) {
  assert(num_shards_ >= 1);
  assert(num_entities_ >= num_shards_);
  assert(num_entities_ < (1 << Scheduler::kMessageOriginBits));
  assert(lookahead_ms_ > 0.0 && "conservative windows need lookahead");
  shards_.reserve(static_cast<size_t>(num_shards_));
  for (int s = 0; s < num_shards_; ++s) {
    shards_.push_back(std::make_unique<Scheduler>());
  }
  mailboxes_.resize(static_cast<size_t>(num_shards_) *
                    static_cast<size_t>(num_shards_));
  next_ordinal_.resize(static_cast<size_t>(num_entities_));
}

ShardedScheduler::~ShardedScheduler() { StopWorkers(); }

uint64_t ShardedScheduler::events_processed() const {
  uint64_t total = 0;
  for (const auto& s : shards_) total += s->events_processed();
  return total;
}

uint64_t ShardedScheduler::inline_resumes() const {
  uint64_t total = 0;
  for (const auto& s : shards_) total += s->inline_resumes();
  return total;
}

uint64_t ShardedScheduler::messages_posted() const {
  uint64_t total = 0;
  for (const PaddedCounter& c : next_ordinal_) total += c.value;
  return total;
}

void ShardedScheduler::DrainMailboxes() {
  for (size_t src = 0; src < static_cast<size_t>(num_shards_); ++src) {
    for (size_t dst = 0; dst < static_cast<size_t>(num_shards_); ++dst) {
      ShardMailbox<Mail>& box = mailboxes_[src * num_shards_ + dst].box;
      if (box.empty()) continue;
      cross_shard_messages_ += box.size();
      Scheduler& target = *shards_[dst];
      for (Mail& mail : box.items()) {
        // Lookahead contract, checked at the receiving end: a message sent
        // inside window [m, m + L) must land at >= m + L.  See the
        // declaration comment for why this exists alongside Post()'s
        // sender-side assert.
        assert(mail.at >= last_window_bound_ &&
               "cross-shard message arrived inside the declared lookahead");
        target.ScheduleMessageCallback(mail.at, mail.seq, std::move(mail.fn));
      }
      box.Clear();
    }
  }
}

void ShardedScheduler::Run() {
  constexpr SimTime kInf = std::numeric_limits<SimTime>::infinity();
  // Setup posts between Run() calls are only bound by the sender's clock,
  // which may trail the previous Run's final window; exempt them from the
  // drain-time window check.
  last_window_bound_ = -kInf;
  for (;;) {
    // Barrier phase (coordinator only): deliver cross-shard messages, then
    // find the global minimum next event.  Any message sent during the
    // *next* window arrives at >= m + lookahead, so after this drain every
    // event the window can contain is already in a calendar.
    DrainMailboxes();
    SimTime m = kInf;
    for (const auto& s : shards_) {
      SimTime t = s->NextEventTime();
      if (t < m) m = t;
    }
    if (m == kInf) break;
    ++windows_;
    last_window_bound_ = m + lookahead_ms_;
    ExecuteWindow(last_window_bound_);
  }
}

void ShardedScheduler::ExecuteWindow(SimTime bound) {
  if (!parallel_ || num_shards_ == 1) {
    // Serial mode: same windows, same injections, same per-shard dispatch —
    // bit-identical to the parallel mode by construction (shards do not
    // interact inside a window).
    for (auto& s : shards_) s->RunBefore(bound);
    return;
  }
  if (workers_.empty()) StartWorkers();
  {
    std::lock_guard<std::mutex> lock(mu_);
    window_bound_ = bound;
    running_ = num_shards_ - 1;
    ++epoch_;
  }
  start_cv_.notify_all();
  shards_[0]->RunBefore(bound);
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return running_ == 0; });
}

void ShardedScheduler::StartWorkers() {
  workers_.reserve(static_cast<size_t>(num_shards_ - 1));
  for (int s = 1; s < num_shards_; ++s) {
    workers_.emplace_back(
        [this, s] { WorkerLoop(static_cast<size_t>(s)); });
  }
}

void ShardedScheduler::StopWorkers() {
  if (workers_.empty()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
  workers_.clear();
}

void ShardedScheduler::WorkerLoop(size_t shard_index) {
  uint64_t seen_epoch = 0;
  for (;;) {
    SimTime bound;
    {
      std::unique_lock<std::mutex> lock(mu_);
      start_cv_.wait(lock, [&] { return stop_ || epoch_ != seen_epoch; });
      if (stop_) break;
      seen_epoch = epoch_;
      bound = window_bound_;
    }
    shards_[shard_index]->RunBefore(bound);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --running_;
    }
    done_cv_.notify_one();
  }
  // Completed frames were recycled into this worker's thread-local arena;
  // release them so a ShardedScheduler built inside a parallel host does
  // not pin every shard's peak frame footprint until process exit — the same
  // discipline the sweep runner applies per finished point.
  TrimFrameArenaThreadCache();
}

}  // namespace pdblb::sim
