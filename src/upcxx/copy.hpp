// Generalized asynchronous copy between any pair of global/local memory
// locations and memory *kinds* — the direction-agnostic upcxx::copy the
// paper's future-work section (§VI) points toward. Host and simulated-device
// endpoints use one spelling; the completion cost model charges the wire for
// remote endpoints and the simulated PCIe for each device endpoint
// (device_allocator.hpp).
//
// Data paths mirror rput/rget (rma.hpp) and are wire-agnostic:
//   * a remote copy rides gex::XferEngine whenever rput would (every size
//     on the am wire, at or above Config::rma_async_min on the direct
//     wire), and so does a local one that pays a device toll at or above
//     Config::rma_async_min on either wire: chunks move through the
//     target's channel (a local copy's is the own-rank channel, a memcpy
//     on any wire) and the simulated-PCIe cost gates landing via the
//     engine's extra-toll hook, so it *composes* with the virtual wire
//     clock instead of being charged at injection — overlapped device
//     copies pipeline exactly like host RMA
//     (bench/micro_copy_devmem.cpp's async section measures this). A
//     third-party copy (both endpoints remote) is a put to the destination
//     rank whose payload is read through the cross-map, so its source must
//     be mapped here (is_local); a rank that shares no memory would stage
//     through a get first;
//   * otherwise the move is a synchronous memcpy at injection with the
//     device/wire cost charged to operation completion, as before.
//
// Completions are delivered through the same detail::cx_state pipeline as
// rput/rget/rpc. Buffers handed to an asynchronous copy must stay valid
// until source completion (source side) / operation completion (both).
#pragma once

#include "upcxx/device_allocator.hpp"
#include "upcxx/rma.hpp"

namespace upcxx {

namespace detail {

// This process's address of a global_ptr of any memory kind (the host-only
// local() refuses device kinds).
template <typename T, memory_kind K>
T* mapped(global_ptr<T, K> g) {
  assert(g.is_local() && "copy endpoint not mapped in this process");
  return static_cast<T*>(gex::job_segmap().try_decode(g.wire_addr()));
}

// The one data-motion body behind every copy() overload: moves `bytes`
// between `local` and `target`'s memory at `remote` (is_get: remote ->
// local). `cx_target` is the rank remote_cx notifications go to (the
// remote endpoint, matching the per-overload conventions below).
template <typename Cxs>
auto copy_impl(Cxs cxs, intrank_t target, gex::WireAddr remote, void* local,
               bool is_get, std::size_t bytes, int dev_ends,
               intrank_t cx_target) {
  // op_state(), not gex::rank_me(): injector threads have no gex TLS rank.
  const bool far = target != op_state().rank->me;
  const std::uint64_t dev_ns = device_transfer_cost_ns(bytes, dev_ends);
  const std::uint64_t wire_delay = far ? 2 * op_state().sim_latency_ns : 0;
  if ((far || dev_ns > 0) && use_xfer(bytes, far)) {
    // issue_xfer_ns is op_context-routed: the same call works from the
    // master persona and from injector threads.
    return issue_xfer_ns(std::move(cxs), target, remote, local, bytes,
                         wire_delay, is_get, /*extra_landing_ns=*/dev_ns);
  }
  // Synchronous move — the direct wire, or a local copy: the target's
  // memory is mapped here. Thread-safe as-is (the memcpy is the caller's
  // own; the completion hooks route off-persona), so injectors fall
  // through.
  if (bytes) {
    void* theirs = gex::job_segmap().try_decode(remote);
    assert(theirs && "synchronous copy to memory not mapped here");
    if (is_get)
      std::memcpy(local, theirs, bytes);
    else
      std::memcpy(theirs, local, bytes);
  }
  return finish_rma_ns(std::move(cxs), cx_target, wire_delay + dev_ns);
}

}  // namespace detail

// global -> global, any memory kinds (either side may be owned by any rank;
// the simulated device is host-backed, so a device endpoint moves like a
// host one). A copy into this rank is a get from the source's owner;
// anything else is a put to the destination's owner.
template <typename T, memory_kind KS, memory_kind KD,
          typename Cxs = default_cx_t>
auto copy(global_ptr<T, KS> src, global_ptr<T, KD> dest, std::size_t n,
          Cxs cxs = Cxs{}) {
  static_assert(std::is_trivially_copyable_v<T>);
  assert(!src.is_null() && !dest.is_null());
  constexpr int dev_ends = (KS == memory_kind::sim_device ? 1 : 0) +
                           (KD == memory_kind::sim_device ? 1 : 0);
  if (dest.where() == detail::op_state().rank->me)
    return detail::copy_impl(std::move(cxs), src.where(), src.wire_addr(),
                             detail::mapped(dest), /*is_get=*/true,
                             n * sizeof(T), dev_ends, dest.where());
  return detail::copy_impl(std::move(cxs), dest.where(), dest.wire_addr(),
                           detail::mapped(src), /*is_get=*/false,
                           n * sizeof(T), dev_ends, dest.where());
}

// local host -> global (host or device).
template <typename T, memory_kind KD, typename Cxs = default_cx_t>
auto copy(const T* src, global_ptr<T, KD> dest, std::size_t n,
          Cxs cxs = Cxs{}) {
  static_assert(std::is_trivially_copyable_v<T>);
  assert(!dest.is_null());
  constexpr int dev_ends = KD == memory_kind::sim_device ? 1 : 0;
  return detail::copy_impl(std::move(cxs), dest.where(), dest.wire_addr(),
                           const_cast<T*>(src),  // read-only use
                           /*is_get=*/false, n * sizeof(T), dev_ends,
                           dest.where());
}

// global (host or device) -> local host.
template <typename T, memory_kind KS, typename Cxs = default_cx_t>
auto copy(global_ptr<T, KS> src, T* dest, std::size_t n, Cxs cxs = Cxs{}) {
  static_assert(std::is_trivially_copyable_v<T>);
  assert(!src.is_null());
  constexpr int dev_ends = KS == memory_kind::sim_device ? 1 : 0;
  return detail::copy_impl(std::move(cxs), src.where(), src.wire_addr(), dest,
                           /*is_get=*/true, n * sizeof(T), dev_ends,
                           src.where());
}

}  // namespace upcxx
