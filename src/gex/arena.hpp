// The arena is the "network": one shared mapping created before the ranks
// start, containing everything ranks use to communicate.
//
// Layout (all offsets fixed at creation):
//
//   [ControlBlock][scratch: nranks slots][inbox rings: nranks]
//   [global shared heap][per-rank shared segments: nranks]
//
// The mapping is MAP_SHARED|MAP_ANONYMOUS and is created by the launcher
// before threads are spawned or processes forked, so every rank sees it at
// the same virtual address. That is the property that lets global_ptr carry
// raw addresses (the moral equivalent of GASNet's PSHM cross-mapping).
#pragma once

#include <cstddef>
#include <cstdint>

#include "arch/cacheline.hpp"
#include "arch/ring.hpp"
#include "gex/config.hpp"
#include "gex/segment.hpp"
#include "gex/shared_heap.hpp"

namespace gex {

// Per-arena bootstrap state. Also hosts the world barrier used by the
// launcher and by upcxx::barrier's fallback path.
struct ControlBlock {
  std::uint32_t nranks = 0;
  std::size_t segment_bytes = 0;

  // Sense-reversing centralized barrier over all world ranks.
  arch::Padded<std::atomic<std::uint32_t>> barrier_arrived;
  arch::Padded<std::atomic<std::uint32_t>> barrier_epoch;

  // Set non-zero by any rank that fails; the launcher reports it.
  arch::Padded<std::atomic<std::int32_t>> error_flag;
};

// Fixed-size per-rank scratch slot used by bootstrap collectives
// (team split exchange, allgather of small values).
inline constexpr std::size_t kScratchSlot = 256;

// Job-wide control operations (world barrier, error propagation) for
// deployments whose ranks share no memory: an isolated socket rank cannot
// reach the peer's ControlBlock, so its SocketRuntime implements this over
// the bootstrap connection and installs itself via set_control_plane.
// world_barrier()/signal_error() then delegate; the local ControlBlock
// error flag stays the in-process signal every wait loop reads.
class ControlPlane {
 public:
  virtual ~ControlPlane() = default;
  // Blocks until every world rank arrives (or the job is failing).
  virtual void barrier() = 0;
  // Tells every other rank that this rank failed.
  virtual void broadcast_error() = 0;
};

class Arena {
 public:
  // Maps and initializes an arena for `cfg`. Aborts on OOM.
  static Arena* create(const Config& cfg);
  // Maps a *private* per-process arena at the fixed address
  // cfg.socket_arena_base (isolated socket ranks). Identical layout and
  // base on every rank, so global_ptr raw addresses and segment-map ids
  // agree across processes that share nothing; the bytes behind each
  // rank's segment are authoritative only on that rank, which is exactly
  // the PGAS model once every transfer rides the AM wire — the config is
  // forced to socket/am/atomics-over-am accordingly.
  static Arena* create_private(const Config& cfg);
  // Unmaps. Only the launcher calls this, after all ranks are done.
  static void destroy(Arena* a);

  const Config& config() const { return cfg_; }
  int nranks() const { return cfg_.ranks; }

  ControlBlock& control() { return *ctrl_; }
  arch::MpscByteRing& inbox(int rank) { return *rings_[rank]; }
  SharedHeap& heap() { return *heap_; }
  SharedHeap& segment_heap(int rank) { return *seg_heaps_[rank]; }
  std::byte* scratch(int rank) { return scratch_ + rank * kScratchSlot; }

  // Wire-address name space over this arena's regions (global heap, rank
  // segments, ring arena). Built at create, immutable afterwards; every
  // address a wire record carries is encoded/decoded through it.
  const SegmentMap& segmap() const { return segmap_; }

  std::byte* segment_base(int rank) const {
    return seg_base_ + static_cast<std::size_t>(rank) * cfg_.segment_bytes;
  }

  // True if p points anywhere inside some rank's shared segment.
  bool in_segments(const void* p) const {
    auto u = reinterpret_cast<std::uintptr_t>(p);
    auto b = reinterpret_cast<std::uintptr_t>(seg_base_);
    return u >= b && u < b + static_cast<std::size_t>(cfg_.ranks) *
                                 cfg_.segment_bytes;
  }

  // Owning rank of a shared-segment address; -1 if outside all segments.
  int rank_of(const void* p) const {
    if (!in_segments(p)) return -1;
    auto u = reinterpret_cast<std::uintptr_t>(p);
    auto b = reinterpret_cast<std::uintptr_t>(seg_base_);
    return static_cast<int>((u - b) / cfg_.segment_bytes);
  }

  // Blocks until all world ranks arrive. Spins; used at startup/teardown and
  // by tests. Application barriers go through the AM-based collectives.
  // Delegates to the installed ControlPlane when ranks share no memory.
  void world_barrier();

  // Marks the job as failing: sets the local error flag (what every
  // error-aware wait loop reads) and, with a ControlPlane installed,
  // broadcasts the failure so peers that cannot see this mapping learn it.
  void signal_error();

  void set_control_plane(ControlPlane* cp) { cp_ = cp; }
  ControlPlane* control_plane() const { return cp_; }

  // Per-rank endpoint slot (socket transport, shared-arena mode): each
  // rank publishes its AM listen port here at transport construction;
  // senders read the peer's slot before the first connect. Zero until
  // published. Isolated ranks exchange ports through the launcher instead.
  std::atomic<std::uint32_t>& port_slot(int rank) { return ports_[rank]; }

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

 private:
  Arena() = default;
  static Arena* create_at(const Config& cfg, std::uint64_t fixed_base);

  Config cfg_;
  void* map_base_ = nullptr;
  std::size_t map_bytes_ = 0;
  ControlBlock* ctrl_ = nullptr;
  ControlPlane* cp_ = nullptr;
  std::atomic<std::uint32_t>* ports_ = nullptr;
  std::byte* scratch_ = nullptr;
  arch::MpscByteRing** rings_ = nullptr;  // process-local pointer table
  SharedHeap* heap_ = nullptr;
  SharedHeap** seg_heaps_ = nullptr;
  std::byte* seg_base_ = nullptr;
  SegmentMap segmap_;
};

}  // namespace gex
