// Copyright 2026 the pdblb authors. MIT license.
//
// The two allocation-free building blocks of every page cache in pdblb —
// the buffer manager's frame table (bufmgr/buffer_manager.h) and the disk
// controller's LRU cache (iosim/disk.h):
//
//  * PageIndex — an open-addressing PageKey -> slot map over a flat bucket
//    array.  Buckets store slot + 1 (0 = empty), probe linearly under a
//    power-of-two mask, and are sized for <= 50% load.  Deletion shifts
//    displaced entries backwards, so lookups never see tombstones.  The
//    index stores no keys: it reads them from the caller's slot array.
//  * LruList — a doubly-linked recency list threaded through the caller's
//    slot array (head = most recently used, tail = least recently used).
//
// Both operate on any slot array whose elements carry `PageKey page` and
// `int32_t prev, next` members.  Neither allocates after PageIndex::Init().

#ifndef PDBLB_IOSIM_PAGE_CACHE_H_
#define PDBLB_IOSIM_PAGE_CACHE_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

#include "catalog/relation.h"

namespace pdblb {

class PageIndex {
 public:
  /// Sizes the index for up to `capacity` entries and empties it.  An index
  /// that was never initialised finds nothing.
  void Init(size_t capacity) {
    size_t buckets = 16;
    while (buckets < capacity * 2) buckets <<= 1;
    buckets_.assign(buckets, 0);
    mask_ = static_cast<uint32_t>(buckets - 1);
  }

  /// Removes every entry; keeps the size.
  void Clear() { std::fill(buckets_.begin(), buckets_.end(), 0); }

  /// Slot holding `page`, or -1.
  template <class Slots>
  int32_t Find(const Slots& slots, PageKey page) const {
    if (buckets_.empty()) return -1;
    uint32_t i = Home(page);
    while (buckets_[i] != 0) {
      int32_t slot = buckets_[i] - 1;
      if (slots[slot].page == page) return slot;
      i = (i + 1) & mask_;
    }
    return -1;
  }

  /// Indexes `slot` under `page`, which must not be indexed yet.
  void Insert(PageKey page, int32_t slot) {
    uint32_t i = Home(page);
    while (buckets_[i] != 0) i = (i + 1) & mask_;
    buckets_[i] = slot + 1;
  }

  /// Unindexes `page`, which must be indexed; `slots` still holds it.
  template <class Slots>
  void Erase(const Slots& slots, PageKey page) {
    uint32_t i = Home(page);
    while (true) {
      assert(buckets_[i] != 0 && "erasing a page that is not indexed");
      if (slots[buckets_[i] - 1].page == page) break;
      i = (i + 1) & mask_;
    }
    // Backward-shift deletion: pull every displaced entry of the probe chain
    // forward so lookups never need tombstones.
    uint32_t j = i;
    while (true) {
      j = (j + 1) & mask_;
      if (buckets_[j] == 0) break;
      uint32_t home = Home(slots[buckets_[j] - 1].page);
      // Move entry j into the hole at i iff probing from its home bucket
      // would have passed i (cyclic distance test).
      if (((j - home) & mask_) >= ((j - i) & mask_)) {
        buckets_[i] = buckets_[j];
        i = j;
      }
    }
    buckets_[i] = 0;
  }

 private:
  uint32_t Home(PageKey page) const {
    return static_cast<uint32_t>(PageKeyHash{}(page)) & mask_;
  }

  std::vector<int32_t> buckets_;
  uint32_t mask_ = 0;
};

class LruList {
 public:
  /// Least recently used slot, or -1 when empty.
  int32_t tail() const { return tail_; }

  template <class Slots>
  void PushFront(Slots& slots, int32_t slot) {
    slots[slot].prev = -1;
    slots[slot].next = head_;
    if (head_ >= 0) slots[head_].prev = slot;
    head_ = slot;
    if (tail_ < 0) tail_ = slot;
  }

  template <class Slots>
  void Unlink(Slots& slots, int32_t slot) {
    auto& s = slots[slot];
    if (s.prev >= 0) slots[s.prev].next = s.next;
    if (s.next >= 0) slots[s.next].prev = s.prev;
    if (head_ == slot) head_ = s.next;
    if (tail_ == slot) tail_ = s.prev;
    s.prev = -1;
    s.next = -1;
  }

  /// Marks a listed slot most recently used.
  template <class Slots>
  void MoveToFront(Slots& slots, int32_t slot) {
    if (head_ == slot) return;
    Unlink(slots, slot);
    PushFront(slots, slot);
  }

  void Clear() {
    head_ = -1;
    tail_ = -1;
  }

 private:
  int32_t head_ = -1;
  int32_t tail_ = -1;
};

}  // namespace pdblb

#endif  // PDBLB_IOSIM_PAGE_CACHE_H_
