// The arena holds everything ranks use to communicate. It is created
// before the ranks start.
//
// Shared arena (thread and process backends), offsets fixed at creation:
//
//   [ControlBlock][port slots][inbox rings: nranks]
//   [global shared heap][per-rank shared segments: nranks]
//
// One MAP_SHARED|MAP_ANONYMOUS mapping, created before threads spawn or
// processes fork, so every rank reaches every region — the moral
// equivalent of GASNet's PSHM cross-mapping.
//
// Private arena (an isolated socket rank, which shares no memory with its
// peers): [ControlBlock][port slots][global shared heap][own segment], in
// a private mapping wherever the kernel places it. It maps no rings and no
// peer segments.
//
// Either way the SegmentMap gives every region the same id on every rank —
// the heap 1, rank r's segment r + 2, the rings nranks + 2 — and registers
// the regions this process does not map as unmapped. global_ptr and the
// wire name memory by (segment id, offset) (gex/segment.hpp), so no rank
// depends on where another rank's mapping landed.
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

  // Sense-reversing centralized barrier over all world ranks.
  arch::Padded<std::atomic<std::uint32_t>> barrier_arrived;
  arch::Padded<std::atomic<std::uint32_t>> barrier_epoch;

  // Set non-zero by any rank that fails; the launcher reports it. Read
  // only through gex::job_failed() (gex/wait.hpp).
  arch::Padded<std::atomic<std::int32_t>> error_flag;
};

// Job-wide control operations (world barrier, error propagation) for
// deployments whose ranks share no memory: an isolated socket rank cannot
// reach the peer's ControlBlock, so its SocketRuntime implements this over
// the bootstrap connection and installs itself via set_control_plane.
// world_barrier()/signal_error() then delegate; the local ControlBlock
// error flag stays the in-process signal gex::job_failed() reads.
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
  // Maps and initializes a shared arena for `cfg`. Aborts on OOM.
  static Arena* create(const Config& cfg);
  // Maps a private arena for isolated socket rank `me`: its control block,
  // the heap and its own segment only. Peers cannot read this mapping, so
  // every byte must travel over the AM wire: the config is forced to
  // socket/am/atomics-over-am whatever the caller's Config said.
  static Arena* create_private(const Config& cfg, int me);
  // Unmaps. Only the launcher calls this, after all ranks are done.
  static void destroy(Arena* a);

  const Config& config() const { return cfg_; }
  int nranks() const { return cfg_.ranks; }

  ControlBlock& control() { return *ctrl_; }
  arch::MpscByteRing& inbox(int rank) { return *rings_[rank]; }
  SharedHeap& heap() { return *heap_; }
  // The allocator of a segment this process maps.
  SharedHeap& segment_heap(int rank) { return *seg_heaps_[rank]; }

  // Wire-address name space over this arena's regions (global heap, rank
  // segments, ring arena). Built at create, immutable afterwards; every
  // global_ptr and every address a wire record carries is one of its
  // wire addresses.
  const SegmentMap& segmap() const { return segmap_; }

  // The segment id of rank `rank`'s shared segment, on every rank.
  static constexpr std::uint16_t segment_id(int rank) {
    return static_cast<std::uint16_t>(rank + 2);
  }
  // The rank whose shared segment `wa` names; -1 for any other id.
  int segment_owner(WireAddr wa) const {
    const int r = wire_segment_id(wa) - 2;
    return r >= 0 && r < cfg_.ranks ? r : -1;
  }
  // Base of rank `rank`'s shared segment in this process; null when this
  // process does not map it.
  std::byte* segment_base(int rank) const {
    return static_cast<std::byte*>(segmap_.try_decode(
        WireAddr{segment_id(rank)} << kWireAddrOffsetBits));
  }

  // Blocks until all world ranks arrive or the job fails (gex::wait_until).
  // Used at startup/teardown and by tests. Application barriers go through
  // the AM-based collectives. Delegates to the installed ControlPlane when
  // ranks share no memory.
  void world_barrier();

  // Marks the job as failing: sets the local error flag (what
  // gex::job_failed() reads) and, with a ControlPlane installed,
  // broadcasts the failure so peers that cannot see this mapping learn it.
  void signal_error();

  void set_control_plane(ControlPlane* cp) { cp_ = cp; }

  // Per-rank endpoint slot (socket transport, shared-arena mode): each
  // rank publishes its AM listen port here at transport construction;
  // senders read the peer's slot before the first connect. Zero until
  // published. Isolated ranks exchange ports through the launcher instead.
  std::atomic<std::uint32_t>& port_slot(int rank) { return ports_[rank]; }

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

 private:
  Arena() = default;
  // Maps every rank's segment (only < 0) or only rank `only`'s.
  static Arena* map(const Config& cfg, int only);

  Config cfg_;
  void* map_base_ = nullptr;
  std::size_t map_bytes_ = 0;
  ControlBlock* ctrl_ = nullptr;
  ControlPlane* cp_ = nullptr;
  std::atomic<std::uint32_t>* ports_ = nullptr;
  arch::MpscByteRing** rings_ = nullptr;  // process-local; null if unmapped
  SharedHeap* heap_ = nullptr;
  SharedHeap** seg_heaps_ = nullptr;  // null entries: segments not mapped
  SegmentMap segmap_;
};

}  // namespace gex
