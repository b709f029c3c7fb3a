// Simulated device memory (paper §VI: "Future work will enhance UPC++'s
// one-sided communication to express transfers to and from other memories
// (such as that of GPUs)"). This reproduces the memory-kinds API UPC++
// shipped after the paper: a device type, a device_allocator that creates a
// per-rank device segment, and global_ptr<T, memory_kind> values that can
// only be moved with upcxx::copy (copy.hpp).
//
// Substitution (documented in DESIGN.md): there is no GPU in this
// environment, so the "device" is a distinct region of the shared arena that
// the type system treats as non-host-addressable (global_ptr<T, sim_device>
// provides no local()). Transfers optionally charge a simulated PCIe-style
// cost (fixed latency + per-byte time), set in code with
// experimental::set_sim_device_params, so benches can expose the
// host-staging vs direct-copy tradeoffs the real feature is about.
#pragma once

#include <cassert>
#include <cstring>

#include "gex/runtime.hpp"
#include "gex/shared_heap.hpp"
#include "upcxx/global_ptr.hpp"
#include "upcxx/progress.hpp"

namespace upcxx {

// The simulated accelerator device type (the analog of upcxx::cuda_device).
struct sim_device {
  static constexpr memory_kind kind = memory_kind::sim_device;
  using id_type = int;
  static constexpr id_type invalid_device_id = -1;
};

namespace detail {

// Simulated device-transfer parameters: free by default; tests and
// benches set them per SPMD region (experimental::set_sim_device_params).
struct SimDeviceParams {
  std::uint64_t latency_ns = 0;  // fixed per-transfer cost
  double ns_per_byte = 0.0;      // 1 / bandwidth
};

inline SimDeviceParams& sim_device_params() {
  thread_local SimDeviceParams params;
  return params;
}

// Per-transfer toll: one DMA per copy touching device memory, regardless of
// how many endpoints are devices (a direct d2d is a single DMA, exactly why
// it beats staging through the host — GPUDirect's point).
inline std::uint64_t device_transfer_cost_ns(std::size_t bytes,
                                             int device_ends) {
  if (device_ends == 0) return 0;
  const auto& p = sim_device_params();
  return p.latency_ns +
         static_cast<std::uint64_t>(p.ns_per_byte *
                                    static_cast<double>(bytes));
}

}  // namespace detail

namespace experimental {

// Overrides the simulated device-transfer cost model for the calling rank
// (latency per transfer end, plus per-byte cost derived from GB/s; pass 0
// gbps for infinite bandwidth).
inline void set_sim_device_params(std::uint64_t latency_ns, double gbps) {
  auto& p = detail::sim_device_params();
  p.latency_ns = latency_ns;
  p.ns_per_byte = gbps > 0.0 ? 1.0 / gbps : 0.0;  // 1 GB/s == 1 byte/ns
}

}  // namespace experimental

// A per-rank device segment. Construction is collective over the world team
// (every rank opens its own device); pointers into the segment may be sent
// to any rank and used as upcxx::copy endpoints from anywhere, exactly like
// the real device_allocator.
template <typename Device>
class device_allocator {
 public:
  static constexpr memory_kind kind = Device::kind;

  // Collective: carves a device segment of `bytes` bytes for this rank.
  explicit device_allocator(std::size_t bytes)
      : bytes_(bytes) {
    auto* r = gex::self();
    assert(r && "device_allocator outside SPMD region");
    // The "device" storage lives in the rank's shared segment so that peer
    // ranks (including forked processes) can reach it — the moral equivalent
    // of GASNet memory-kinds making device segments remotely addressable.
    region_ = r->arena->segment_heap(r->me).allocate(bytes, 64);
    assert(region_ && "shared segment exhausted creating device segment");
    heap_ = gex::SharedHeap::create(region_, bytes);
    ::upcxx::barrier();
  }

  ~device_allocator() {
    if (!region_) return;
    auto* r = gex::self();
    if (r) r->arena->segment_heap(r->me).deallocate(region_);
  }

  device_allocator(const device_allocator&) = delete;
  device_allocator& operator=(const device_allocator&) = delete;

  device_allocator(device_allocator&& o) noexcept
      : region_(o.region_), heap_(o.heap_), bytes_(o.bytes_) {
    o.region_ = nullptr;
    o.heap_ = nullptr;
  }

  // Allocates n device objects; null global_ptr when the segment is full.
  template <typename T>
  global_ptr<T, kind> allocate(std::size_t n = 1,
                               std::size_t align = alignof(T)) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "device memory holds trivially copyable objects");
    void* p = heap_->allocate(n * sizeof(T), align < 16 ? 16 : align);
    if (!p) return {};
    return global_ptr<T, kind>::from_raw(gex::rank_me(),
                                         static_cast<T*>(p));
  }

  // Frees device memory allocated by this rank's allocator.
  template <typename T>
  void deallocate(global_ptr<T, kind> g) {
    if (g.is_null()) return;
    assert(g.where() == gex::rank_me() &&
           "deallocate must run on the owning rank");
    heap_->deallocate(gex::job_segmap().try_decode(g.wire_addr()));
  }

  std::size_t segment_bytes() const { return bytes_; }
  std::size_t bytes_free() const { return heap_->bytes_free(); }

 private:
  void* region_ = nullptr;
  gex::SharedHeap* heap_ = nullptr;
  std::size_t bytes_ = 0;
};

}  // namespace upcxx
