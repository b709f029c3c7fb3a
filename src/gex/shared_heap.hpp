// First-fit free-list allocator over a raw memory region.
//
// Two uses in the runtime:
//  * the global shared heap (rendezvous buffers for large active messages),
//    where any rank may allocate and any rank may free;
//  * each rank's shared segment (upcxx::allocate), where the owner allocates
//    and frees but remote ranks RMA into the memory.
//
// All bookkeeping lives inside the managed region itself (offset-linked, no
// pointers), so the allocator works across forked processes. A single
// spinlock guards the free list; allocation is O(free blocks), which is fine
// for the rendezvous/segment use cases (few, mostly large, blocks).
#pragma once

#include <cstddef>
#include <cstdint>

#include "arch/spinlock.hpp"

namespace gex {

class SharedHeap {
 public:
  // Placement-creates a heap over `region` of `bytes` bytes (which includes
  // the heap header itself). Returns the heap object, which lives at the
  // start of the region.
  static SharedHeap* create(void* region, std::size_t bytes);

  // Allocates `bytes` (rounded up to 16) with at least 16-byte alignment,
  // or returns nullptr when no block fits.
  void* allocate(std::size_t bytes, std::size_t align = 16);

  // Returns a block obtained from allocate(). Coalesces with neighbours.
  void deallocate(void* p);

  // Diagnostics.
  std::size_t bytes_free() const;
  std::size_t largest_free_block() const;
  bool contains(const void* p) const {
    auto u = reinterpret_cast<std::uintptr_t>(p);
    auto b = reinterpret_cast<std::uintptr_t>(this);
    return u >= b && u < b + total_;
  }

  SharedHeap(const SharedHeap&) = delete;
  SharedHeap& operator=(const SharedHeap&) = delete;

 private:
  SharedHeap() = default;

  // Block header preceding every allocation; free blocks additionally link
  // to the next free block by offset from the heap base.
  struct Block {
    std::uint64_t size;  // bytes of the whole block including header
    std::uint64_t next_free;  // offset of next free block, or kNull; kUsed
  };
  static constexpr std::uint64_t kNull = ~0ull;
  static constexpr std::uint64_t kUsed = ~0ull - 1;

  std::byte* base() { return reinterpret_cast<std::byte*>(this); }
  const std::byte* base() const {
    return reinterpret_cast<const std::byte*>(this);
  }
  Block* at(std::uint64_t off) {
    return reinterpret_cast<Block*>(base() + off);
  }
  const Block* at(std::uint64_t off) const {
    return reinterpret_cast<const Block*>(base() + off);
  }

  mutable arch::Spinlock lock_;
  std::size_t total_ = 0;
  std::uint64_t first_block_ = 0;  // offset of the first block
  std::uint64_t free_head_ = kNull;
};

}  // namespace gex
