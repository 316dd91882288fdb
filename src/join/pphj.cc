// Copyright 2026 the pdblb authors. MIT license.

#include "join/pphj.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace pdblb {

Pphj::Pphj(sim::Scheduler& sched, BufferManager& buffer, DiskArray& disks,
           sim::Resource& cpu, const CpuCosts& costs, double mips,
           Params params)
    : sched_(sched), buffer_(buffer), disks_(disks), cpu_(cpu), costs_(costs),
      mips_(mips), params_(params) {
  int64_t expected_pages = PagesForTuples(params_.expected_inner_tuples);
  num_partitions_ = std::max(
      1, static_cast<int>(std::ceil(std::sqrt(
             params_.fudge_factor * static_cast<double>(expected_pages)))));
  // PPHJ needs at least one page per partition, but never more than the
  // whole buffer (tiny-memory configurations).
  min_pages_ = std::min(num_partitions_, buffer_.capacity());
}

Pphj::~Pphj() { Release(); }

int Pphj::PagesForTuples(int64_t tuples) const {
  if (tuples <= 0) return 0;
  double pages = params_.fudge_factor * static_cast<double>(tuples) /
                 static_cast<double>(params_.blocking_factor);
  return static_cast<int>(std::ceil(pages));
}

sim::Task<> Pphj::AcquireMemory() {
  assert(!acquired_);
  int want = std::min(std::max(params_.want_pages, min_pages_),
                      buffer_.capacity());
  reserved_pages_ = co_await buffer_.ReserveWait(min_pages_, want);
  acquired_ = true;
  resident_partitions_ = num_partitions_;
  buffer_.RegisterVictim(this);
}

int Pphj::SpillDownTo(int limit) {
  int freed = 0;
  while (resident_partitions_ > 0 &&
         PagesForTuples(mem_inner_tuples_) > limit) {
    int64_t slice = mem_inner_tuples_ / resident_partitions_;
    int slice_pages = PagesForTuples(slice);
    mem_inner_tuples_ -= slice;
    disk_inner_tuples_ += slice;
    --resident_partitions_;
    if (slice_pages > 0) {
      temp_pages_written_ += slice_pages;
      freed += slice_pages;
      // Asynchronous sequential write of the spilled partition.
      PageKey first{params_.temp_relation_id, next_temp_page_};
      next_temp_page_ += slice_pages;
      sched_.Spawn(disks_.WriteBatch(first, slice_pages));
    }
  }
  return freed;
}

void Pphj::FlushAppends(bool final_flush) {
  int batch = params_.write_batch_pages;
  while (pending_append_pages_ >= batch) {
    PageKey first{params_.temp_relation_id, next_temp_page_};
    next_temp_page_ += batch;
    temp_pages_written_ += batch;
    pending_append_pages_ -= batch;
    sched_.Spawn(disks_.WriteBatch(first, batch));
  }
  if (final_flush && pending_append_pages_ > 0) {
    int count = static_cast<int>(pending_append_pages_);
    PageKey first{params_.temp_relation_id, next_temp_page_};
    next_temp_page_ += count;
    temp_pages_written_ += count;
    pending_append_pages_ = 0;
    sched_.Spawn(disks_.WriteBatch(first, count));
  }
}

sim::Task<> Pphj::EnsureMinimumMemory() {
  while (reserved_pages_ < min_pages_) {
    suspended_ = true;
    int got = co_await buffer_.ReserveWait(min_pages_ - reserved_pages_,
                                           min_pages_ - reserved_pages_);
    reserved_pages_ += got;
  }
  suspended_ = false;
}

void Pphj::TryGrow() {
  if (!acquired_ || released_ || !params_.opportunistic_growth) return;
  int want = std::min(std::max(params_.want_pages, min_pages_),
                      buffer_.capacity());
  if (reserved_pages_ >= want) return;
  reserved_pages_ += buffer_.TryReserve(want - reserved_pages_);
}

sim::Task<> Pphj::InsertInnerBatch(int64_t tuples) {
  assert(acquired_);
  if (reserved_pages_ < min_pages_) co_await EnsureMinimumMemory();
  TryGrow();

  inner_received_ += tuples;
  // Uniform hashing: a resident_partitions_/num_partitions_ share of the
  // batch lands in memory, the rest is appended to spilled partitions.
  int64_t to_mem = tuples * resident_partitions_ / num_partitions_;
  int64_t to_disk = tuples - to_mem;
  mem_inner_tuples_ += to_mem;
  disk_inner_tuples_ += to_disk;
  pending_append_pages_ += PagesForTuples(to_disk);

  co_await cpu_.Use(InstructionsToMs(
      tuples * (costs_.hash_tuple + costs_.insert_hash_table), mips_));

  // Overflow: the resident partitions no longer fit the working space.
  if (PagesForTuples(mem_inner_tuples_) > reserved_pages_) {
    SpillDownTo(reserved_pages_);
  }
  FlushAppends(false);
}

sim::Task<> Pphj::ProbeBatch(int64_t tuples) {
  assert(acquired_);
  if (reserved_pages_ < min_pages_) co_await EnsureMinimumMemory();
  TryGrow();

  // Direct probes hit resident partitions; the rest is deferred.
  int64_t direct = inner_received_ > 0
                       ? tuples * mem_inner_tuples_ / inner_received_
                       : tuples;
  int64_t deferred = tuples - direct;
  direct_probes_ += direct;
  deferred_probes_ += deferred;
  pending_append_pages_ += PagesForTuples(deferred);

  int64_t instr = direct * costs_.probe_hash_table +
                  deferred * costs_.write_output_tuple;  // append to B part.
  co_await cpu_.Use(InstructionsToMs(instr, mips_));
  FlushAppends(false);
}

sim::Task<> Pphj::CompleteProbe() {
  assert(acquired_);
  FlushAppends(true);

  if (disk_inner_tuples_ > 0 || deferred_probes_ > 0) {
    co_await EnsureMinimumMemory();

    // Read back the spilled inner partitions and rebuild their hash tables
    // (striped across the local disk array).
    int inner_pages = PagesForTuples(disk_inner_tuples_);
    co_await disks_.ReadStriped(PageKey{params_.temp_relation_id, 0},
                                inner_pages);
    temp_pages_read_ += inner_pages;
    co_await cpu_.Use(InstructionsToMs(
        disk_inner_tuples_ * (costs_.hash_tuple + costs_.insert_hash_table),
        mips_));

    // Read back the deferred outer tuples and probe.
    int outer_pages = PagesForTuples(deferred_probes_);
    co_await disks_.ReadStriped(
        PageKey{params_.temp_relation_id, inner_pages}, outer_pages);
    temp_pages_read_ += outer_pages;
    co_await cpu_.Use(InstructionsToMs(
        deferred_probes_ * (costs_.hash_tuple + costs_.probe_hash_table),
        mips_));
  }
}

void Pphj::Release() {
  if (!acquired_ || released_) return;
  released_ = true;
  // At scheduler teardown the owning frame is destroyed after the buffer
  // manager (Cluster member order); giving back the reservation would touch
  // a dead object, and nobody is left to account it anyway.
  if (sched_.tearing_down()) return;
  buffer_.UnregisterVictim(this);
  buffer_.ReleaseReservation(reserved_pages_);
  reserved_pages_ = 0;
}

int Pphj::StealPages(int wanted) {
  if (!acquired_ || released_) return 0;
  int freed = SpillDownTo(
      std::max(0, PagesForTuples(mem_inner_tuples_) - wanted));
  // Also give back reservation slack not backed by resident tuples.
  int used = PagesForTuples(mem_inner_tuples_);
  int slack = reserved_pages_ - freed - used;
  if (freed < wanted && slack > 0) {
    freed += std::min(slack, wanted - freed);
  }
  freed = std::min(freed, reserved_pages_);
  reserved_pages_ -= freed;
  return freed;
}

double Pphj::ResidentFraction() const {
  if (inner_received_ <= 0) return 1.0;
  return static_cast<double>(mem_inner_tuples_) /
         static_cast<double>(inner_received_);
}

}  // namespace pdblb
