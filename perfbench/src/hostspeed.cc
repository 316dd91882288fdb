// Copyright 2026 the pdblb authors. MIT license.

#include "hostspeed.h"

#include <algorithm>

namespace perfbench {

namespace {

constexpr size_t kStateWords = size_t{1} << 19;  // 4 MiB
constexpr uint32_t kPendingEvents = 8192;
constexpr int kDispatches = 24576;

uint64_t Mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

// Min-heap order on (time, entity).
bool Later(const HostSpeed::Event& a, const HostSpeed::Event& b) {
  return a.time != b.time ? a.time > b.time : a.entity > b.entity;
}

}  // namespace

HostSpeed::HostSpeed()
    : start_(std::chrono::steady_clock::now()), state_(kStateWords) {
  for (size_t i = 0; i < state_.size(); ++i) state_[i] = Mix(i);
  calendar_.reserve(kPendingEvents);
  log_.reserve(4096);
}

double HostSpeed::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

double HostSpeed::Slice() {
  const double t0 = Now();
  // The calendar's storage is reserved once: a slice must not call the
  // allocator, or it would change the heap the measured sweep runs on.
  calendar_.clear();
  uint64_t h = 11;
  for (uint32_t e = 0; e < kPendingEvents; ++e) {
    h = Mix(h + e);
    calendar_.push_back({h % 1000, e});
    std::push_heap(calendar_.begin(), calendar_.end(), Later);
  }
  for (int k = 0; k < kDispatches; ++k) {
    std::pop_heap(calendar_.begin(), calendar_.end(), Later);
    Event& ev = calendar_.back();
    uint64_t& s = state_[(Mix(ev.entity) + static_cast<uint64_t>(k)) &
                         (kStateWords - 1)];
    s += ev.entity;
    h = Mix(h + s);
    if (h & 1) s ^= h;
    ev.time += h % 997 + 1;
    std::push_heap(calendar_.begin(), calendar_.end(), Later);
  }
  sink_ += calendar_.front().entity;
  const double t1 = Now();
  log_.push_back({t1, t1 - t0});
  return t1 - t0;
}

double HostSpeed::Scale(double from, double to) const {
  if (log_.empty()) return 1.0;
  std::vector<double> near;
  for (const Logged& s : log_) {
    if (s.end >= from - kWindowSeconds && s.end <= to + kWindowSeconds) {
      near.push_back(s.seconds);
    }
  }
  if (near.empty()) {
    for (const Logged& s : log_) near.push_back(s.seconds);
  }
  std::sort(near.begin(), near.end());
  const size_t n = near.size();
  const double median =
      n % 2 == 1 ? near[n / 2] : 0.5 * (near[n / 2 - 1] + near[n / 2]);
  return median > 0.0 ? kReferenceSliceSeconds / median : 1.0;
}

double HostSpeed::ResidentMb() const {
  const size_t bytes = state_.capacity() * sizeof(state_[0]) +
                       calendar_.capacity() * sizeof(calendar_[0]) +
                       log_.capacity() * sizeof(log_[0]);
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

std::vector<double> HostSpeed::Durations() const {
  std::vector<double> out;
  for (const Logged& s : log_) out.push_back(s.seconds);
  return out;
}

}  // namespace perfbench
