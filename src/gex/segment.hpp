// Segment registry: the one name for remote memory.
//
// Remote memory is named the way GASNet-EX names it: by *segment* and
// *offset*, resolved against the owning rank's own mapping. Every region a
// wire record or a global_ptr may point into — the global shared heap
// (rendezvous buffers), each rank's shared segment
// (upcxx::allocate, device segments), and the inbox-ring arena — gets a
// small id, and an address is an (id, offset) pair packed into one u64.
// upcxx::global_ptr carries exactly this value, and the wire carries it
// unchanged, so no byte anywhere depends on a peer's virtual-address
// layout.
//
// Wire format: bits 63..48 = segment id (1-based; 0 is reserved invalid
// and is the null address), bits 47..0 = byte offset into the segment. A
// leaked raw x86-64 pointer has zero top bits, so it decodes to the
// reserved id and is rejected — the registry doubles as the wire's
// address-hygiene check.
//
// The registry is built once at Arena::create (before threads spawn or
// processes fork) and is immutable afterwards. Ids agree on every rank of
// the job by construction — the same static-agreement contract as the AM
// handler registry. A segment this process does not map (a peer's, on a
// rank that shares no memory) keeps its id but decodes to null here.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace gex {

// A packed (segment id, offset) address.
using WireAddr = std::uint64_t;

inline constexpr int kWireAddrOffsetBits = 48;
inline constexpr std::uint64_t kWireAddrOffsetMask =
    (std::uint64_t{1} << kWireAddrOffsetBits) - 1;

inline constexpr std::uint16_t wire_segment_id(WireAddr wa) {
  return static_cast<std::uint16_t>(wa >> kWireAddrOffsetBits);
}

class SegmentMap {
 public:
  // Registers [base, base+bytes) under the returned id (1-based). A null
  // base reserves the id for a segment this process does not map. Call
  // only during Arena::create; `name` must outlive the map (string
  // literals).
  std::uint16_t add(const void* base, std::size_t bytes, const char* name);

  // Packs p into a wire address, or returns 0 when p lies in no mapped
  // segment (the caller decides whether that is fatal).
  WireAddr try_encode(const void* p) const;

  // This process's address for `wa`, or nullptr when the id is
  // unregistered, its segment is not mapped here, or the offset runs past
  // it. O(1) — the id indexes the table, then one bounds check and one
  // add — and it writes nothing, so any thread may call it.
  void* try_decode(WireAddr wa) const {
    const std::uint64_t i = (wa >> kWireAddrOffsetBits) - 1;  // id 0 wraps
    if (i >= segs_.size()) return nullptr;
    const Seg& s = segs_[i];
    const std::uint64_t off = wa & kWireAddrOffsetMask;
    return off < s.bytes ? const_cast<std::byte*>(s.base) + off : nullptr;
  }

  // Aborting variants for the wire paths: an encode failure means a record
  // was about to carry an unregistered (process-private) address; a decode
  // failure means the wire delivered bytes that do not resolve through the
  // registry. Both are protocol bugs, never user errors. decode counts
  // each success (decode_count).
  WireAddr encode(const void* p) const;
  void* decode(WireAddr wa) const;

  bool contains(const void* p) const { return try_encode(p) != 0; }
  std::size_t segment_count() const { return segs_.size(); }
  const char* segment_name(std::uint16_t id) const;

  // Total successful wire-record decodes (all ranks of a thread-backend
  // job share the map). Tests use the delta across a traffic burst to
  // prove every record that landed resolved through the registry.
  std::uint64_t decode_count() const {
    return decodes_.load(std::memory_order_relaxed);
  }

 private:
  struct Seg {
    const std::byte* base;  // null: not mapped in this process
    std::size_t bytes;      // 0 when not mapped
    const char* name;
  };
  std::vector<Seg> segs_;  // index + 1 == id
  mutable std::atomic<std::uint64_t> decodes_{0};
};

// The segment map of the job this process runs — one SPMD region at a time
// per process (gex::launch). Arena::create installs its map and
// Arena::destroy removes it; global_ptr resolves through it from any
// thread of the process, injector threads included.
inline const SegmentMap* g_job_segmap = nullptr;

inline const SegmentMap& job_segmap() { return *g_job_segmap; }

}  // namespace gex
