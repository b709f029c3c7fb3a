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
//     rank whose payload is read through the cross-map — honest for the
//     write side; a distributed backend would stage through a get first;
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

// The one data-motion body behind every copy() overload. `cx_target` is
// the rank remote_cx notifications go to (the remote endpoint, matching
// the per-overload conventions below).
template <typename Cxs>
auto copy_impl(Cxs cxs, intrank_t src_rank, intrank_t dst_rank, void* dst,
               const void* src, std::size_t bytes, int dev_ends,
               intrank_t cx_target) {
  // op_state(), not gex::rank_me(): injector threads have no gex TLS rank.
  const intrank_t me = op_state().rank->me;
  const bool remote = src_rank != me || dst_rank != me;
  const std::uint64_t dev_ns = device_transfer_cost_ns(bytes, dev_ends);
  const bool is_get = src_rank != me && dst_rank == me;
  const intrank_t target = is_get ? src_rank : dst_rank;
  const std::uint64_t wire_delay = remote ? 2 * op_state().sim_latency_ns : 0;
  if ((remote || dev_ns > 0) && use_xfer(bytes, remote)) {
    // issue_xfer_ns is op_context-routed: the same call works from the
    // master persona and from injector threads.
    return issue_xfer_ns(std::move(cxs), target, dst, src, bytes,
                         wire_delay, is_get, /*extra_landing_ns=*/dev_ns);
  }
  // Synchronous move: thread-safe as-is (the memcpy is the caller's own;
  // the completion hooks route off-persona), so injectors fall through.
  if (bytes) std::memcpy(dst, src, bytes);
  return finish_rma_ns(std::move(cxs), cx_target, wire_delay + dev_ns);
}

}  // namespace detail

// global -> global, any memory kinds (either side may be owned by any rank;
// on the shared arena the initiator or the AM target performs the move —
// and the simulated device is host-backed, so the same holds).
template <typename T, memory_kind KS, memory_kind KD,
          typename Cxs = default_cx_t>
auto copy(global_ptr<T, KS> src, global_ptr<T, KD> dest, std::size_t n,
          Cxs cxs = Cxs{}) {
  static_assert(std::is_trivially_copyable_v<T>);
  assert(!src.is_null() && !dest.is_null());
  arch::relaxed_inc(detail::op_state().stats.rputs);
  constexpr int dev_ends = (KS == memory_kind::sim_device ? 1 : 0) +
                           (KD == memory_kind::sim_device ? 1 : 0);
  return detail::copy_impl(std::move(cxs), src.where(), dest.where(),
                           dest.raw_address(), src.raw_address(),
                           n * sizeof(T), dev_ends, dest.where());
}

// local host -> global (host or device).
template <typename T, memory_kind KD, typename Cxs = default_cx_t>
auto copy(const T* src, global_ptr<T, KD> dest, std::size_t n,
          Cxs cxs = Cxs{}) {
  static_assert(std::is_trivially_copyable_v<T>);
  assert(!dest.is_null());
  arch::relaxed_inc(detail::op_state().stats.rputs);
  constexpr int dev_ends = KD == memory_kind::sim_device ? 1 : 0;
  return detail::copy_impl(std::move(cxs), detail::op_state().rank->me,
                           dest.where(), dest.raw_address(), src,
                           n * sizeof(T), dev_ends, dest.where());
}

// global (host or device) -> local host.
template <typename T, memory_kind KS, typename Cxs = default_cx_t>
auto copy(global_ptr<T, KS> src, T* dest, std::size_t n, Cxs cxs = Cxs{}) {
  static_assert(std::is_trivially_copyable_v<T>);
  assert(!src.is_null());
  arch::relaxed_inc(detail::op_state().stats.rgets);
  constexpr int dev_ends = KS == memory_kind::sim_device ? 1 : 0;
  return detail::copy_impl(std::move(cxs), src.where(),
                           detail::op_state().rank->me, dest,
                           src.raw_address(), n * sizeof(T), dev_ends,
                           src.where());
}

}  // namespace upcxx
