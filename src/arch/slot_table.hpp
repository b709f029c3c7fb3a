// Indexed table of pending values keyed by (slot index, generation) ids.
//
// The rpc layer parks one reply continuation per outstanding round trip
// here: any thread inserts (an injector registering its reply), and the
// thread that receives the reply takes it back by id. An id is
// `generation << 32 | index`, so a lookup is an array index plus one
// compare-and-swap on the slot's tag — no hashing, no allocation.
//
//   * Slots live in chunks of doubling size (64, 128, 256, ...) that never
//     move once allocated, so a take() indexes a chunk while another
//     thread grows the table. The first chunk is allocated on first
//     insert.
//   * A free list of slot indices sits behind a spinlock held only for one
//     O(1) pop or push; the value is written outside it and published by a
//     release store of the slot's tag.
//   * take() retires the slot's generation before freeing it: a stale id
//     (already taken, or from a slot's earlier life) fails the tag
//     compare and returns false — it never yields another insert's value.
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "arch/spinlock.hpp"

namespace arch {

template <typename T>
class SlotTable {
 public:
  // Slots in chunk 0; chunk k holds kFirstChunk << k.
  static constexpr std::uint32_t kFirstChunk = 64;

  SlotTable() = default;
  SlotTable(const SlotTable&) = delete;
  SlotTable& operator=(const SlotTable&) = delete;

  // Values still parked are destroyed unrun.
  ~SlotTable() {
    for (auto& c : chunks_) delete[] c.load(std::memory_order_acquire);
  }

  // Parks v; returns its id (never 0). Any thread.
  std::uint64_t insert(T v) {
    const std::uint32_t i = acquire_index();
    Slot& s = *slot(i);
    s.value = std::move(v);
    const std::uint32_t gen = s.tag.load(std::memory_order_relaxed) >> 1;
    s.tag.store((gen << 1) | 1, std::memory_order_release);
    return (static_cast<std::uint64_t>(gen) << 32) | i;
  }

  // Moves the value parked under `id` into out and frees the slot. False
  // (out untouched) when id is unknown or stale.
  bool take(std::uint64_t id, T& out) {
    const auto i = static_cast<std::uint32_t>(id);
    const auto gen = static_cast<std::uint32_t>(id >> 32) & kGenMask;
    Slot* s = slot(i);
    if (!s) return false;
    std::uint32_t armed = (gen << 1) | 1;
    const std::uint32_t retired = ((gen + 1) & kGenMask) << 1;
    if (!s->tag.compare_exchange_strong(armed, retired,
                                        std::memory_order_acquire,
                                        std::memory_order_relaxed))
      return false;
    out = std::move(s->value);
    s->value = T();
    SpinGuard g(mu_);
    s->next_free = free_head_;
    free_head_ = i;
    return true;
  }

  // Slots allocated so far (all chunks).
  std::size_t capacity() const {
    std::size_t n = 0;
    for (std::uint32_t k = 0; k < kChunks; ++k)
      if (chunks_[k].load(std::memory_order_acquire))
        n += std::size_t{kFirstChunk} << k;
    return n;
  }

 private:
  static constexpr std::uint32_t kChunks = 26;  // 2^32 slots in total
  static constexpr std::uint32_t kGenMask = 0x7fffffff;
  static constexpr std::uint32_t kNone = UINT32_MAX;

  struct Slot {
    // generation << 1 | armed. Generations start at 1, so no id is 0.
    std::atomic<std::uint32_t> tag{2};
    std::uint32_t next_free = kNone;  // under mu_
    T value{};
  };

  static std::uint32_t chunk_of(std::uint32_t i) {
    return static_cast<std::uint32_t>(std::bit_width(i / kFirstChunk + 1)) -
           1;
  }
  static std::uint32_t chunk_base(std::uint32_t k) {
    return kFirstChunk * ((1u << k) - 1);
  }

  // The slot at index i, or null if its chunk was never allocated.
  Slot* slot(std::uint32_t i) const {
    const std::uint32_t k = chunk_of(i);
    if (k >= kChunks) return nullptr;
    Slot* c = chunks_[k].load(std::memory_order_acquire);
    return c ? c + (i - chunk_base(k)) : nullptr;
  }

  std::uint32_t acquire_index() {
    std::uint32_t i;
    {
      SpinGuard g(mu_);
      if (free_head_ != kNone) {
        i = free_head_;
        free_head_ = slot(i)->next_free;
        return i;
      }
      i = high_water_++;
    }
    // A fresh index: its chunk may not exist yet. Racing growers of the
    // same chunk agree through the CAS; the loser frees its copy.
    const std::uint32_t k = chunk_of(i);
    if (!chunks_[k].load(std::memory_order_acquire)) {
      Slot* c = new Slot[std::size_t{kFirstChunk} << k];
      Slot* expected = nullptr;
      if (!chunks_[k].compare_exchange_strong(expected, c,
                                              std::memory_order_acq_rel))
        delete[] c;
    }
    return i;
  }

  Spinlock mu_;
  std::uint32_t free_head_ = kNone;  // under mu_
  std::uint32_t high_water_ = 0;     // under mu_
  std::atomic<Slot*> chunks_[kChunks] = {};
};

}  // namespace arch
