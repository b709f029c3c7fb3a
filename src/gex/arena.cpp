#include "gex/arena.hpp"

#include <sys/mman.h>

#include <cstdio>
#include <cstdlib>
#include <new>
#include <thread>

#include "arch/spinlock.hpp"

// Old glibc headers may lack the flag (Linux 4.17+); the raw value is ABI.
#ifndef MAP_FIXED_NOREPLACE
#define MAP_FIXED_NOREPLACE 0x100000
#endif

namespace gex {

Arena* Arena::create(const Config& cfg_in) {
  return create_at(cfg_in, 0);
}

Arena* Arena::create_private(const Config& cfg_in) {
  Config cfg = cfg_in;
  // An isolated rank's peers cannot read this mapping: every byte must
  // travel over the AM wire, whatever the caller's Config said.
  cfg.am_transport = AmTransport::kSocket;
  cfg.rma_wire = RmaWire::kAm;
  cfg.atomics_use_am = true;
  return create_at(cfg, cfg.socket_arena_base);
}

Arena* Arena::create_at(const Config& cfg_in, std::uint64_t fixed_base) {
  Config cfg = cfg_in;
  cfg.normalize();  // hand-built Configs get the same invariants as env ones
  const int P = cfg.ranks;
  const std::size_t ring_fp = arch::MpscByteRing::footprint(cfg.ring_bytes);

  std::size_t off = 0;
  auto reserve = [&off](std::size_t bytes) {
    std::size_t at = off;
    off += arch::align_up(bytes, arch::cacheline_size);
    return at;
  };
  const std::size_t ctrl_off = reserve(sizeof(ControlBlock));
  const std::size_t ports_off = reserve(sizeof(std::atomic<std::uint32_t>) * P);
  const std::size_t scratch_off = reserve(kScratchSlot * P);
  std::size_t ring_off0 = off;
  for (int r = 0; r < P; ++r) reserve(ring_fp);
  const std::size_t heap_off = reserve(cfg.heap_bytes);
  // Segments are page-aligned for tidy NUMA behaviour.
  off = arch::align_up(off, 4096);
  const std::size_t seg_off = off;
  off += static_cast<std::size_t>(P) * cfg.segment_bytes;

  // Shared mode: one anonymous shared mapping wherever the kernel places
  // it, created pre-fork so every rank inherits the same address. Isolated
  // mode (fixed_base != 0): a *private* per-process mapping pinned at the
  // agreed address so the layout — and with it every global_ptr raw
  // address and segment id — matches across unrelated processes.
  // MAP_NORESERVE: a 32-rank job maps 32 copies of the full layout, but
  // each rank only ever touches its own slice.
  void* want = fixed_base
                   ? reinterpret_cast<void*>(static_cast<std::uintptr_t>(
                         fixed_base))
                   : nullptr;
  const int flags =
      fixed_base ? MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE |
                       MAP_FIXED_NOREPLACE
                 : MAP_SHARED | MAP_ANONYMOUS;
  void* mem = ::mmap(want, off, PROT_READ | PROT_WRITE, flags, -1, 0);
  if (mem == MAP_FAILED || (want && mem != want)) {
    std::fprintf(stderr,
                 "gex: failed to map %zu MiB arena (ranks=%d seg=%zu MiB%s)\n",
                 off >> 20, P, cfg.segment_bytes >> 20,
                 want ? ", fixed base taken — set UPCXX_SOCKET_ARENA_BASE"
                      : "");
    std::abort();
  }

  auto* a = new Arena();
  a->cfg_ = cfg;
  a->map_base_ = mem;
  a->map_bytes_ = off;
  auto* base = static_cast<std::byte*>(mem);

  a->ctrl_ = ::new (base + ctrl_off) ControlBlock();
  a->ctrl_->nranks = static_cast<std::uint32_t>(P);
  a->ctrl_->segment_bytes = cfg.segment_bytes;

  // Endpoint slots start zero (fresh zero-filled mapping) = unpublished.
  a->ports_ = reinterpret_cast<std::atomic<std::uint32_t>*>(base + ports_off);

  a->scratch_ = base + scratch_off;

  a->rings_ = new arch::MpscByteRing*[P];
  for (int r = 0; r < P; ++r) {
    a->rings_[r] = arch::MpscByteRing::create(
        base + ring_off0 + static_cast<std::size_t>(r) *
                               arch::align_up(ring_fp, arch::cacheline_size),
        cfg.ring_bytes);
  }

  a->heap_ = SharedHeap::create(base + heap_off, cfg.heap_bytes);

  a->seg_base_ = base + seg_off;
  a->seg_heaps_ = new SharedHeap*[P];
  for (int r = 0; r < P; ++r) {
    a->seg_heaps_[r] =
        SharedHeap::create(a->segment_base(r), cfg.segment_bytes);
  }

  // Wire-address name space (gex/segment.hpp): registered before any rank
  // exists, so every rank — thread or fork — inherits one identical map
  // and segment ids agree across the wire by construction. The heap covers
  // rendezvous and bounce-pool buffers; the rank segments cover every
  // global_ptr (device segments are carved from them); the ring arena is
  // registered so no region a record could name is left out.
  a->segmap_.add(base + heap_off, cfg.heap_bytes, "heap");
  for (int r = 0; r < P; ++r)
    a->segmap_.add(a->segment_base(r), cfg.segment_bytes, "segment");
  a->segmap_.add(base + ring_off0, heap_off - ring_off0, "rings");
  return a;
}

void Arena::destroy(Arena* a) {
  if (!a) return;
  ::munmap(a->map_base_, a->map_bytes_);
  delete[] a->rings_;
  delete[] a->seg_heaps_;
  delete a;
}

void Arena::signal_error() {
  ctrl_->error_flag.value.store(1, std::memory_order_release);
  if (cp_) cp_->broadcast_error();
}

void Arena::world_barrier() {
  if (cp_) {
    cp_->barrier();
    return;
  }
  auto& arrived = ctrl_->barrier_arrived.value;
  auto& epoch = ctrl_->barrier_epoch.value;
  auto& err = ctrl_->error_flag.value;
  // A failed rank never arrives; bail out so survivors can tear down
  // instead of spinning forever (the barrier state is then meaningless, but
  // the launcher destroys the arena right after).
  if (err.load(std::memory_order_acquire) != 0) return;
  const std::uint32_t my_epoch = epoch.load(std::memory_order_acquire);
  if (arrived.fetch_add(1, std::memory_order_acq_rel) + 1 ==
      ctrl_->nranks) {
    arrived.store(0, std::memory_order_relaxed);
    epoch.store(my_epoch + 1, std::memory_order_release);
  } else {
    // Spin with periodic yields: on oversubscribed hosts (CI runners) the
    // releasing rank needs the core.
    std::uint32_t spins = 0;
    while (epoch.load(std::memory_order_acquire) == my_epoch) {
      if (err.load(std::memory_order_acquire) != 0) return;
      arch::cpu_relax();
      if ((++spins & 0x3FF) == 0) std::this_thread::yield();
    }
  }
}

}  // namespace gex
