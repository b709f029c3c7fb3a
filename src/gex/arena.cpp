#include "gex/arena.hpp"

#include <sys/mman.h>

#include <cstdio>
#include <cstdlib>
#include <new>

#include "gex/wait.hpp"

namespace gex {

namespace {
// The control block of the job this process runs, installed and removed
// with g_job_segmap; job_failed() reads its error flag from any thread.
ControlBlock* g_job_ctrl = nullptr;
}  // namespace

bool job_failed() {
  return g_job_ctrl != nullptr &&
         g_job_ctrl->error_flag.value.load(std::memory_order_acquire) != 0;
}

Arena* Arena::create(const Config& cfg) { return map(cfg, -1); }

Arena* Arena::create_private(const Config& cfg_in, int me) {
  Config cfg = cfg_in;
  // An isolated rank's peers cannot read this mapping: every byte must
  // travel over the AM wire, whatever the caller's Config said.
  cfg.am_transport = AmTransport::kSocket;
  cfg.rma_wire = RmaWire::kAm;
  cfg.atomics_use_am = true;
  return map(cfg, me);
}

Arena* Arena::map(const Config& cfg_in, int only) {
  Config cfg = cfg_in;
  cfg.normalize();  // hand-built Configs get the same invariants as env ones
  const int P = cfg.ranks;
  const bool shared = only < 0;
  const std::size_t ring_slot = arch::align_up(
      arch::MpscByteRing::footprint(cfg.ring_bytes), arch::cacheline_size);

  std::size_t off = 0;
  auto reserve = [&off](std::size_t bytes) {
    std::size_t at = off;
    off += arch::align_up(bytes, arch::cacheline_size);
    return at;
  };
  const std::size_t ctrl_off = reserve(sizeof(ControlBlock));
  const std::size_t ports_off = reserve(sizeof(std::atomic<std::uint32_t>) * P);
  const std::size_t rings_bytes = ring_slot * static_cast<std::size_t>(P);
  const std::size_t ring_off = reserve(shared ? rings_bytes : 0);
  const std::size_t heap_off = reserve(cfg.heap_bytes);
  // Segments are page-aligned for tidy NUMA behaviour.
  off = arch::align_up(off, 4096);
  const std::size_t seg_off = off;
  off += static_cast<std::size_t>(shared ? P : 1) * cfg.segment_bytes;

  // Shared: one anonymous shared mapping, created pre-fork so every rank
  // inherits it. Private: this process's memory alone. Either way the
  // kernel picks the address: nothing outside this process depends on it.
  void* mem = ::mmap(nullptr, off, PROT_READ | PROT_WRITE,
                     (shared ? MAP_SHARED : MAP_PRIVATE) | MAP_ANONYMOUS, -1,
                     0);
  if (mem == MAP_FAILED) {
    std::fprintf(stderr,
                 "gex: failed to map %zu MiB arena (ranks=%d seg=%zu MiB)\n",
                 off >> 20, P, cfg.segment_bytes >> 20);
    std::abort();
  }

  auto* a = new Arena();
  a->cfg_ = cfg;
  a->map_base_ = mem;
  a->map_bytes_ = off;
  auto* base = static_cast<std::byte*>(mem);

  a->ctrl_ = ::new (base + ctrl_off) ControlBlock();
  a->ctrl_->nranks = static_cast<std::uint32_t>(P);

  // Endpoint slots start zero (fresh zero-filled mapping) = unpublished.
  a->ports_ = reinterpret_cast<std::atomic<std::uint32_t>*>(base + ports_off);

  if (shared) {
    a->rings_ = new arch::MpscByteRing*[P];
    for (int r = 0; r < P; ++r)
      a->rings_[r] = arch::MpscByteRing::create(
          base + ring_off + static_cast<std::size_t>(r) * ring_slot,
          cfg.ring_bytes);
  }

  a->heap_ = SharedHeap::create(base + heap_off, cfg.heap_bytes);

  // Wire-address name space (gex/segment.hpp): ids are assigned in the
  // same order on every rank, mapped or not, so they agree across the wire
  // by construction. The heap covers rendezvous buffers;
  // the rank segments cover every global_ptr (device segments are carved
  // from them); the ring arena is registered so no region a record could
  // name is left out.
  a->segmap_.add(base + heap_off, cfg.heap_bytes, "heap");
  a->seg_heaps_ = new SharedHeap*[P]();
  for (int r = 0; r < P; ++r) {
    std::byte* seg = nullptr;
    if (shared)
      seg = base + seg_off + static_cast<std::size_t>(r) * cfg.segment_bytes;
    else if (r == only)
      seg = base + seg_off;
    a->segmap_.add(seg, cfg.segment_bytes, "segment");
    if (seg) a->seg_heaps_[r] = SharedHeap::create(seg, cfg.segment_bytes);
  }
  a->segmap_.add(shared ? base + ring_off : nullptr, rings_bytes, "rings");
  g_job_segmap = &a->segmap_;
  g_job_ctrl = a->ctrl_;
  return a;
}

void Arena::destroy(Arena* a) {
  if (!a) return;
  if (g_job_segmap == &a->segmap_) g_job_segmap = nullptr;
  if (g_job_ctrl == a->ctrl_) g_job_ctrl = nullptr;
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
  // A failed rank never arrives; bail out so survivors can tear down
  // instead of waiting forever (the barrier state is then meaningless, but
  // the launcher destroys the arena right after).
  if (job_failed()) return;
  auto& arrived = ctrl_->barrier_arrived.value;
  auto& epoch = ctrl_->barrier_epoch.value;
  const std::uint32_t my_epoch = epoch.load(std::memory_order_acquire);
  if (arrived.fetch_add(1, std::memory_order_acq_rel) + 1 ==
      ctrl_->nranks) {
    arrived.store(0, std::memory_order_relaxed);
    epoch.store(my_epoch + 1, std::memory_order_release);
    return;
  }
  // Nothing to poll: every round yields, since on an oversubscribed host
  // the releasing rank needs the core. Released or failed, the barrier is
  // over for this rank.
  (void)wait_until(
      [&] { return epoch.load(std::memory_order_acquire) != my_epoch; },
      [] { return 0; });
}

}  // namespace gex
