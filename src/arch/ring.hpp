// Multi-producer single-consumer byte ring for variable-size records.
//
// This is the wire of the substrate: each rank owns one inbox ring placed in
// the shared arena, every other rank produces into it. Producers serialize on
// a short spinlock only to *reserve* space; the payload memcpy happens outside
// the lock and is published with a per-record ready flag. The consumer drains
// records strictly in reservation order, so a slow producer stalls delivery
// of records behind it but never corrupts the stream (same in-order delivery
// a GASNet conduit provides per peer pair).
//
// The structure is POD-over-raw-memory: it is placement-created over a region
// of the arena and contains no pointers, so it works identically whether the
// ranks are threads or forked processes.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>

#include "arch/cacheline.hpp"
#include "arch/spinlock.hpp"

namespace arch {

class MpscByteRing {
 public:
  // Record states. WRAP records carry no payload; their size field is the
  // number of bytes skipped to reach the start of the buffer.
  enum : std::uint32_t { kNotReady = 0, kReady = 1, kWrap = 2 };

  // alignas(8): record positions advance by align_up(..., alignof), so
  // this sets the payload alignment every producer sees. The AM layer
  // places a WireHeader (which carries std::uint64_t fields) directly at
  // the payload start — 4-aligned records would misalign it whenever an
  // odd-sized record precedes (UBSan-visible on real traffic).
  struct alignas(8) RecordHeader {
    std::atomic<std::uint32_t> state;
    std::uint32_t size;  // payload bytes (data) or skip bytes (wrap)
  };
  static_assert(sizeof(RecordHeader) == 8 && alignof(RecordHeader) == 8);

  // Total bytes needed to host a ring with `capacity` payload-buffer bytes.
  static std::size_t footprint(std::size_t capacity) {
    return align_up(sizeof(MpscByteRing), cacheline_size) + capacity;
  }

  // Placement-creates a ring over `mem` (which must provide footprint()
  // bytes). capacity must be a power of two.
  static MpscByteRing* create(void* mem, std::size_t capacity) {
    auto* r = ::new (mem) MpscByteRing();
    r->capacity_ = capacity;
    return r;
  }

  std::size_t capacity() const { return capacity_; }

  // Largest payload a single record may carry. Anything bigger must go
  // through the rendezvous path of the AM engine. The static form serves
  // callers that know the capacity but have no ring instance yet (the
  // shm-file transport, whose rings appear lazily).
  static std::size_t max_record_payload(std::size_t capacity) {
    return capacity / 4 - sizeof(RecordHeader);
  }
  std::size_t max_record_payload() const {
    return max_record_payload(capacity_);
  }

  // Opaque ticket handed back by try_reserve and redeemed by commit().
  struct Ticket {
    RecordHeader* hdr = nullptr;
    void* payload = nullptr;
  };

  // Reserves a record of `size` payload bytes. Returns an invalid ticket
  // (payload == nullptr) when the ring lacks space; the caller is expected to
  // poll its own inbox and retry (see AmEngine::send for the deadlock-freedom
  // argument). The returned payload pointer may be filled without holding any
  // lock; call commit() to publish.
  Ticket try_reserve(std::size_t size) {
    const std::size_t need =
        align_up(sizeof(RecordHeader) + size, alignof(RecordHeader));
    SpinGuard g(lock_);
    std::uint64_t head = head_.load(std::memory_order_relaxed);
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    std::size_t pos = head & (capacity_ - 1);
    std::size_t contiguous = capacity_ - pos;
    std::uint64_t total_need = need;
    if (contiguous < need) total_need = contiguous + need;  // wrap + record
    if (capacity_ - (head - tail) < total_need) return {};
    if (contiguous < need) {
      // Publish a wrap marker covering the unusable bytes at the end.
      auto* wh = header_at(pos);
      wh->size = static_cast<std::uint32_t>(contiguous);
      wh->state.store(kWrap, std::memory_order_release);
      head += contiguous;
      pos = 0;
    }
    auto* h = header_at(pos);
    h->size = static_cast<std::uint32_t>(size);
    h->state.store(kNotReady, std::memory_order_relaxed);
    head_.store(head + need, std::memory_order_release);
    return Ticket{h, buffer() + pos + sizeof(RecordHeader)};
  }

  // Publishes a reserved record after its payload is fully written.
  static void commit(const Ticket& t) {
    t.hdr->state.store(kReady, std::memory_order_release);
  }

  // Consumes at most one record, invoking visit(payload, size) on it.
  // Returns false if the ring is empty or the next record is not yet
  // committed. Single consumer only.
  template <typename Visit>
  bool try_consume(Visit&& visit) {
    std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    for (;;) {
      if (tail == head_.load(std::memory_order_acquire)) return false;
      auto* h = header_at(tail & (capacity_ - 1));
      const std::uint32_t st = h->state.load(std::memory_order_acquire);
      if (st == kNotReady) return false;  // in-order: wait for the producer
      if (st == kWrap) {
        tail += h->size;
        tail_.store(tail, std::memory_order_release);
        continue;
      }
      visit(static_cast<void*>(reinterpret_cast<std::byte*>(h) +
                               sizeof(RecordHeader)),
            static_cast<std::size_t>(h->size));
      tail += align_up(sizeof(RecordHeader) + h->size, alignof(RecordHeader));
      tail_.store(tail, std::memory_order_release);
      return true;
    }
  }

  bool empty() const {
    return tail_.load(std::memory_order_acquire) ==
           head_.load(std::memory_order_acquire);
  }

 private:
  MpscByteRing() = default;

  RecordHeader* header_at(std::size_t pos) {
    return reinterpret_cast<RecordHeader*>(buffer() + pos);
  }

  std::byte* buffer() {
    return reinterpret_cast<std::byte*>(this) +
           align_up(sizeof(MpscByteRing), cacheline_size);
  }

  alignas(cacheline_size) Spinlock lock_;      // serializes producers
  alignas(cacheline_size) std::atomic<std::uint64_t> head_{0};
  alignas(cacheline_size) std::atomic<std::uint64_t> tail_{0};
  std::size_t capacity_ = 0;
};

}  // namespace arch
