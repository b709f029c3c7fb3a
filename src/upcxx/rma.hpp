// One-sided RMA: rput/rget plus the non-contiguous variants (paper §II).
//
// Every call is *wire-agnostic*: the data path is selected per target by
// the resolved RMA wire (gex::resolve_rma_wire, UPCXX_RMA_WIRE=direct|am):
//
//   direct wire, small — the data motion is a memcpy performed by the
//     initiator at injection (exactly what GASNet does over PSHM). Zero
//     allocation; source completion is inherently synchronous.
//   direct wire, large contiguous (at or above Config::rma_async_min) —
//     handed to gex::XferEngine (the paper's actQ): decomposed into
//     pipelined chunks in the target's channel, drained by internal
//     progress with bounded work per poll, so the initiating call returns
//     immediately and a progress-thread persona overlaps the copy with
//     computation.
//   am wire, every op — the XferEngine again, with its wire bound to
//     gex::RmaAmProtocol: each chunk is one AM put/get request (eager
//     payloads inline in the ring, larger ones staged), each ack or reply a
//     chunk completion, under the same per-channel budget and bandwidth
//     clock as the direct wire. A small op is a one-chunk transfer; a
//     non-contiguous shape is one scatter-put / gather-get entry per
//     target rank. The channel is the one queue in front of the
//     protocol's credit window.
//
// Completion semantics on all paths follow the paper's model:
//   * source completion — the source buffer is reusable (on the am wire:
//     the payload has been copied into the wire, which for an op waiting
//     on credits happens at a later progress call);
//   * operation completion — remotely complete, including the
//     network-level acknowledgment a blocking rput waits for (§IV-B);
//     under simulated latency this costs a full round trip (2 hops) past
//     the data landing;
//   * remote completion — fires an RPC at the target after the data lands
//     (on the am wire, after the target's ack — the RPC can never overtake
//     the data). Irregular transfers whose fragment lists span several
//     target ranks notify each distinct target once.
// All completion signals are delivered through detail::cx_state
// (completion.hpp) — the one pipeline shared with copy() and rpc — and
// reach user code only via the progress engine's compQ, never synchronously
// inside the injection call (except promise fulfillment for events that are
// synchronous by construction), matching §III.
//
// Ordering note: as in real UPC++, two RMAs touching the same remote region
// are unordered unless sequenced through completions. On the direct wire a
// small synchronous put can land before a still-draining large one; on the
// am wire every op to one target shares its channel's FIFO, so a small op
// no longer overtakes a large one issued before it. Barrier entry drains
// the engine's pending chunks (on the am wire that puts every request in
// the target's inbox ahead of the barrier message), so the common "put,
// barrier, read" idiom keeps its pre-engine meaning.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>
#include <memory>
#include <vector>

#include "arch/atomics.hpp"
#include "gex/xfer.hpp"
#include "upcxx/completion.hpp"
#include "upcxx/global_ptr.hpp"
#include "upcxx/progress.hpp"
#include "upcxx/rpc.hpp"

namespace upcxx {

namespace detail {

// Applies every completion in `cxs` for an operation whose data motion
// already happened synchronously; returns the value the RMA call returns.
// `delay_ns` is the simulated time to operation completion (0 = complete at
// injection — the zero-allocation fast path every small blocking rput on
// the direct wire takes).
template <typename Cxs>
auto finish_rma_ns(Cxs&& cxs, intrank_t target, std::uint64_t delay_ns) {
  cx_state<std::decay_t<Cxs>> st(std::move(cxs), target);
  st.source_now();
  st.remote_now();
  st.operation_done(delay_ns);
  return st.result();
}

// Hop-based wrapper: the simulated wire distance to operation completion in
// units of the configured per-hop latency.
template <typename Cxs>
auto finish_rma(Cxs&& cxs, intrank_t target, std::uint64_t hops) {
  return finish_rma_ns(std::forward<Cxs>(cxs), target,
                       hops * op_state().sim_latency_ns);
}

// True when this rank's RMA rides the AM protocol instead of touching the
// target's segment directly. Reads only configuration frozen at rank
// startup, so it answers correctly on injector threads too (op_state).
inline bool wire_am() { return op_state().rma_wire_am; }

// True when a contiguous transfer of `bytes` should ride the asynchronous
// data-motion engine instead of the injection-time path: always for a
// remote transfer on the am wire, otherwise at or above rma_async_min.
// Off-persona-safe for the same reason as wire_am().
inline bool use_xfer(std::size_t bytes, bool remote = true) {
  auto& p = op_state();
  return p.rank->xfer != nullptr &&
         ((p.rma_wire_am && remote) ||
          (p.rma_async_min != 0 && bytes >= p.rma_async_min));
}

// Hands a contiguous transfer to the XferEngine and wires its two
// callbacks into the completion pipeline. The cx_state outlives the call
// (shared between the source and landed callbacks), so its futures are
// materialized up front; the wire-hop delay to operation completion is
// charged after the data lands. Works on either wire — the engine's chunk
// movers differ, the completion pipeline does not — and from any thread:
// the cx_state is built on the *calling* thread (its futures stay affine
// to this thread's persona), op_context ships only the engine dispatch to
// the rank's progress persona and routes each completion hook back home.
// remote_now() stays on the progress persona: it only reads the remote-cx
// items (the notification AM's payload), so the target's notification
// fires at data-landing time instead of one inbox round trip later.
// `hold` is a caller-side copy of the source (a scalar put's value): source
// completion fires at once, and the engine's on_source keeps the copy
// alive until the request has read it out.
template <typename Cxs>
auto issue_xfer_ns(Cxs cxs, intrank_t target, void* dst, const void* src,
                   std::size_t bytes, std::uint64_t delay, bool is_get,
                   std::uint64_t extra_landing_ns = 0,
                   std::shared_ptr<const void> hold = nullptr) {
  auto st = std::make_shared<cx_state<Cxs>>(std::move(cxs), target);
  st->prepare_deferred();
  const op_context cx = op_context::current();
  cx.run_at_rank([cx, st, target, dst, src, bytes, delay, is_get,
                  extra_landing_ns, hold = std::move(hold)]() mutable {
    gex::XferEngine::Callback on_source;
    if (hold) {
      // The caller's value was copied into `hold` at injection, so its
      // source is free now; the holder lives until the engine read it out.
      on_source = [hold = std::move(hold)] {};
      if constexpr (has_source_completions<Cxs>)
        cx.complete_now([st] { st->source_now(); });
    } else if constexpr (has_source_completions<Cxs>) {
      on_source = [cx, st] { cx.complete_now([st] { st->source_now(); }); };
    }
    persona().rank->xfer->submit(
        target, dst, src, bytes, std::move(on_source),
        [cx, st, delay] {
          // Data is visible at the target: notify it (1 more hop carried
          // by the rpc itself), then complete the operation after the
          // round-trip acknowledgment.
          st->remote_now();
          cx.complete_after_ns(delay, [st] { st->operation_done(0); });
        },
        is_get, extra_landing_ns);
  });
  return st->result();
}

// Matched fragment runs grouped by target rank — the unit the am wire's
// scatter-put / gather-get records carry. `remote` and `local` line up
// index-by-index in wire order.
struct AmFragGroup {
  intrank_t target;
  std::vector<gex::XferEngine::Frag> remote;
  std::vector<gex::XferEngine::LocalFrag> local;
};

inline AmFragGroup& am_frag_group(std::vector<AmFragGroup>& groups,
                                  intrank_t target) {
  for (auto& g : groups)
    if (g.target == target) return g;
  groups.push_back(AmFragGroup{target, {}, {}});
  return groups.back();
}

// Queues one scatter-put or gather-get per target group — a run entry in
// that target's XferEngine channel — and delivers completions: source
// completion once every group's request has been issued; each target is
// remote-notified once when its fragments landed (its ack/reply arrived);
// the operation completes when every target has. `is_get` hands each
// group's local runs to the wire as the reply's scatter list.
// op_context-routed like the contiguous issue path, so irregular/strided
// transfers work from injector threads too (the fragment descriptors
// travel inside the dispatched closure; the user buffers they point at are
// pinned until source/operation completion by the usual RMA contract).
template <typename Cxs>
auto issue_am_fragments(Cxs cxs, std::vector<AmFragGroup> groups,
                        bool is_get) {
  assert(!groups.empty());
  auto st = std::make_shared<cx_state<Cxs>>(std::move(cxs),
                                            groups.front().target);
  st->prepare_deferred();
  const std::uint64_t delay = 2 * op_state().sim_latency_ns;
  const op_context cx = op_context::current();
  cx.run_at_rank([cx, st, groups = std::move(groups), is_get,
                  delay]() mutable {
    struct Left {
      std::size_t unsourced, unlanded;
    };
    auto left = std::make_shared<Left>(Left{groups.size(), groups.size()});
    auto& xfer = *persona().rank->xfer;
    for (auto& g : groups) {
      gex::XferEngine::Callback on_source;
      if constexpr (has_source_completions<Cxs>)
        on_source = [cx, st, left] {
          if (--left->unsourced == 0)
            cx.complete_now([st] { st->source_now(); });
        };
      xfer.submit_runs(
          g.target, std::move(g.remote), std::move(g.local),
          std::move(on_source),
          [cx, st, left, t = g.target, delay] {
            st->remote_now(t);
            if (--left->unlanded == 0)
              cx.complete_after_ns(delay, [st] { st->operation_done(0); });
          },
          is_get);
    }
  });
  return st->result();
}

}  // namespace detail

// Default completion: operation future.
using default_cx_t = detail::completions<detail::op_future_cx>;
inline default_cx_t default_cx() { return operation_cx::as_future(); }

// ------------------------------------------------------------------- rput

// Bulk put: copies n elements from local src to remote dest. At or above
// Config::rma_async_min bytes the transfer is asynchronous: src must stay
// valid until source completion, dest until operation completion.
template <typename T, typename Cxs = default_cx_t>
auto rput(const T* src, global_ptr<T> dest, std::size_t n,
          Cxs cxs = Cxs{}) {
  static_assert(std::is_trivially_copyable_v<T>,
                "RMA requires trivially copyable element types");
  assert(!dest.is_null());
  arch::relaxed_inc(detail::op_state().stats.rputs);
  const std::size_t bytes = n * sizeof(T);
  if (detail::use_xfer(bytes)) {
    return detail::issue_xfer_ns(std::move(cxs), dest.where(), dest.local(),
                                 src, bytes,
                                 2 * detail::op_state().sim_latency_ns,
                                 /*is_get=*/false);
  }
  // Direct-wire injection path: runs unchanged on injector threads — the
  // memcpy is the initiator's own, and every completion hook routes
  // off-persona correctly. This is the multi-thread scaling fast path.
  // 0-byte puts are legal (and may pass a null src); memcpy is not.
  if (bytes) std::memcpy(dest.local(), src, bytes);
  return detail::finish_rma(std::move(cxs), dest.where(), /*hops=*/2);
}

// Scalar value put. On the direct wire it is consumed synchronously (a
// memcpy). On the am wire it is a one-chunk engine transfer like any
// other, but the source is the by-value parameter itself, which dies when
// this call returns.
template <typename T, typename Cxs = default_cx_t>
auto rput(T value, global_ptr<T> dest, Cxs cxs = Cxs{}) {
  static_assert(std::is_trivially_copyable_v<T>,
                "RMA requires trivially copyable element types");
  assert(!dest.is_null());
  arch::relaxed_inc(detail::op_state().stats.rputs);
  if (detail::wire_am()) {
    // The put may wait in its channel for a credit: stage the value in a
    // holder the engine's on_source keeps alive until the request has
    // copied it out.
    auto holder = std::make_shared<T>(value);
    const void* src = holder.get();
    return detail::issue_xfer_ns(
        std::move(cxs), dest.where(), dest.local(), src, sizeof(T),
        2 * detail::op_state().sim_latency_ns, /*is_get=*/false,
        /*extra_landing_ns=*/0, std::move(holder));
  }
  std::memcpy(dest.local(), &value, sizeof(T));
  return detail::finish_rma(std::move(cxs), dest.where(), /*hops=*/2);
}

// ------------------------------------------------------------------- rget

// Bulk get: copies n elements from remote src into local dest. Large
// transfers are asynchronous (see rput); dest must stay valid until
// operation completion.
template <typename T, typename Cxs = default_cx_t>
auto rget(global_ptr<T> src, T* dest, std::size_t n, Cxs cxs = Cxs{}) {
  static_assert(std::is_trivially_copyable_v<T>);
  assert(!src.is_null());
  arch::relaxed_inc(detail::op_state().stats.rgets);
  const std::size_t bytes = n * sizeof(T);
  if (detail::use_xfer(bytes)) {
    return detail::issue_xfer_ns(std::move(cxs), src.where(), dest,
                                 src.local(), bytes,
                                 2 * detail::op_state().sim_latency_ns,
                                 /*is_get=*/true);
  }
  if (bytes) std::memcpy(dest, src.local(), bytes);
  return detail::finish_rma(std::move(cxs), src.where(), /*hops=*/2);
}

// Scalar get: future carries the fetched value. The read happens at
// completion time (after the simulated round trip / the AM reply),
// matching a real get.
template <typename T>
future<T> rget(global_ptr<T> src) {
  static_assert(std::is_trivially_copyable_v<T>);
  assert(!src.is_null());
  arch::relaxed_inc(detail::op_state().stats.rgets);
  if (detail::wire_am()) {
    // A one-chunk engine get whose reply scatters into a shared holder;
    // the value ships to the future through compQ (plus the modeled round
    // trip) like every other deferred completion — back through the
    // initiating persona's inbox when an injector thread asked, where the
    // promise lives.
    auto buf = std::make_shared<T>();
    promise<T> pr;
    const std::uint64_t delay = 2 * detail::op_state().sim_latency_ns;
    const detail::op_context cx = detail::op_context::current();
    cx.run_at_rank([cx, buf, pr, src, delay]() mutable {
      detail::persona().rank->xfer->submit(
          src.where(), buf.get(), src.local(), sizeof(T), {},
          [cx, buf, pr, delay]() mutable {
            cx.complete_after_ns(delay, [buf, pr]() mutable {
              pr.fulfill_result(*buf);
            });
          },
          /*is_get=*/true);
    });
    return pr.get_future();
  }
  if (detail::op_state().sim_latency_ns == 0) {
    // PSHM fast path: the load is the transfer — thread-safe by nature,
    // so injector threads take it unchanged.
    return make_future(*src.local());
  }
  promise<T> pr;
  detail::push_completion_after(2, [pr, src]() mutable {
    pr.fulfill_result(*src.local());
  });
  return pr.get_future();
}

// --------------------------------------------------- non-contiguous RMA
//
// The paper highlights vector/indexed/strided transfers as productivity
// features for multidimensional data. Fragment lists use (pointer, element
// count) pairs, as in upcxx::rput_irregular.

// Read-only local fragment (the gather side of a put).
template <typename T>
struct src_fragment {
  const T* ptr;
  std::size_t n;
};
// Writable local fragment (the scatter side of a get).
template <typename T>
struct local_fragment {
  T* ptr;
  std::size_t n;
};
// Remote fragment (either direction).
template <typename T>
struct dst_fragment {
  global_ptr<T> ptr;
  std::size_t n;
};

namespace detail {

// Completion delivery for a fragment list spanning one or more target
// ranks whose data motion already happened synchronously: remote_cx
// notifications go to each distinct target exactly once (after all its
// fragments landed — the whole list is copied before any notification is
// sent); operation completion is charged one round trip. `targets` yields
// the target rank of fragment i; fragment lists are short, so the
// distinct-target scan is quadratic rather than allocating.
template <typename Cxs, typename TargetOf>
auto finish_rma_fragments(Cxs&& cxs, std::size_t nfrags, TargetOf&& targets) {
  // nfrags == 0 is legal (an empty transfer): every completion fires, no
  // remote rank is notified because none is named.
  cx_state<std::decay_t<Cxs>> st(std::move(cxs),
                                 nfrags ? targets(0) : intrank_t{0});
  st.source_now();
  for (std::size_t i = 0; i < nfrags; ++i) {
    const intrank_t t = targets(i);
    bool seen = false;
    for (std::size_t j = 0; j < i && !seen; ++j) seen = targets(j) == t;
    if (!seen) st.remote_now(t);
  }
  st.operation_done(2 * op_state().sim_latency_ns);
  return st.result();
}

// Pairs a local fragment list against a remote one into maximal matched
// runs — fn(local_ptr, remote_gptr, nelems) — walking both lists in order
// exactly as the synchronous copy loops used to. LocalFrag's element
// pointer type carries constness (const T* for puts, T* for gets).
template <typename T, typename LocalPtr, typename LocalVec, typename Fn>
void pair_fragment_runs(const LocalVec& locals,
                        const std::vector<dst_fragment<T>>& remotes,
                        Fn&& fn) {
  std::size_t li = 0, lo = 0;  // local fragment index/offset
  // Exhausted and zero-length local fragments contribute nothing; skipping
  // them up front keeps every fn() run non-empty (a zero-length local
  // fragment used to wedge this loop: take == 0 made no progress).
  auto skip_consumed = [&] {
    while (li < locals.size() && lo == locals[li].n) {
      ++li;
      lo = 0;
    }
  };
  for (const auto& r : remotes) {
    assert(!r.ptr.is_null());
    std::size_t need = r.n, ro = 0;
    while (need) {
      skip_consumed();
      assert(li < locals.size() && "local side shorter than remote side");
      const std::size_t take = std::min(need, locals[li].n - lo);
      fn(static_cast<LocalPtr>(locals[li].ptr) + lo, r.ptr + ro, take);
      ro += take;
      lo += take;
      need -= take;
    }
  }
  skip_consumed();  // trailing zero-length local fragments are legal
  assert(li == locals.size() && lo == 0 &&
         "remote side shorter than local side");
}

}  // namespace detail

// Irregular put: total source elements must equal total destination
// elements; fragments may differ in shape (gather locally / scatter
// remotely) and destination fragments may live on different ranks — each
// distinct target rank receives remote_cx notifications once.
template <typename T, typename Cxs = default_cx_t>
auto rput_irregular(const std::vector<src_fragment<T>>& srcs,
                    const std::vector<dst_fragment<T>>& dsts,
                    Cxs cxs = Cxs{}) {
  static_assert(std::is_trivially_copyable_v<T>);
  arch::relaxed_inc(detail::op_state().stats.rputs);
  if (dsts.empty()) {
    // Empty transfer: complete locally (no remote rank is named, so no
    // remote_cx fires). Any local fragments must be zero-length too.
    return detail::finish_rma_fragments(
        std::move(cxs), 0, [](std::size_t) { return intrank_t{0}; });
  }
  if (detail::wire_am()) {
    std::vector<detail::AmFragGroup> groups;
    // Every distinct destination rank gets a group up front: a target
    // whose fragments are all zero-length still receives one (payload-
    // free) scatter record, so its remote_cx notification fires exactly
    // as on the direct wire.
    for (const auto& d : dsts) detail::am_frag_group(groups, d.ptr.where());
    detail::pair_fragment_runs<T, const T*>(
        srcs, dsts, [&](const T* lp, global_ptr<T> rp, std::size_t n) {
          auto& g = detail::am_frag_group(groups, rp.where());
          g.remote.push_back({reinterpret_cast<std::uintptr_t>(rp.local()),
                              n * sizeof(T)});
          g.local.push_back(
              {const_cast<T*>(lp), n * sizeof(T)});  // read-only use
        });
    return detail::issue_am_fragments(std::move(cxs), std::move(groups),
                                      /*is_get=*/false);
  }
  detail::pair_fragment_runs<T, const T*>(
      srcs, dsts, [](const T* lp, global_ptr<T> rp, std::size_t n) {
        std::memcpy(rp.local(), lp, n * sizeof(T));
      });
  return detail::finish_rma_fragments(
      std::move(cxs), dsts.size(),
      [&](std::size_t i) { return dsts[i].ptr.where(); });
}

// Irregular get (mirror of rput_irregular): remote source fragments gather
// into writable local fragments. Source fragments may span ranks; each
// distinct source-owning rank receives remote_cx notifications once.
template <typename T, typename Cxs = default_cx_t>
auto rget_irregular(const std::vector<dst_fragment<T>>& srcs,
                    const std::vector<local_fragment<T>>& dsts,
                    Cxs cxs = Cxs{}) {
  static_assert(std::is_trivially_copyable_v<T>);
  arch::relaxed_inc(detail::op_state().stats.rgets);
  if (srcs.empty()) {
    return detail::finish_rma_fragments(
        std::move(cxs), 0, [](std::size_t) { return intrank_t{0}; });
  }
  if (detail::wire_am()) {
    std::vector<detail::AmFragGroup> groups;
    for (const auto& s : srcs) detail::am_frag_group(groups, s.ptr.where());
    detail::pair_fragment_runs<T, T*>(
        dsts, srcs, [&](T* lp, global_ptr<T> rp, std::size_t n) {
          auto& g = detail::am_frag_group(groups, rp.where());
          g.remote.push_back({reinterpret_cast<std::uintptr_t>(rp.local()),
                              n * sizeof(T)});
          g.local.push_back({lp, n * sizeof(T)});
        });
    return detail::issue_am_fragments(std::move(cxs), std::move(groups),
                                      /*is_get=*/true);
  }
  detail::pair_fragment_runs<T, T*>(
      dsts, srcs, [](T* lp, global_ptr<T> rp, std::size_t n) {
        std::memcpy(lp, rp.local(), n * sizeof(T));
      });
  return detail::finish_rma_fragments(
      std::move(cxs), srcs.size(),
      [&](std::size_t i) { return srcs[i].ptr.where(); });
}

// Strided put/get over Dim-dimensional blocks. Strides are in *bytes*
// (matching upcxx::rput_strided); extents count elements per dimension with
// extent[Dim-1] iterating contiguously element-by-element.
namespace detail {

// Walks the common Dim-dimensional iteration space and invokes
// fn(a_run, b_run, run_bytes) for each maximal contiguous run: whole
// innermost rows when both sides are element-contiguous there, single
// elements otherwise. Both the direct wire (fn = memcpy) and the am wire
// (fn = collect fragment descriptors) drive their data motion off the same
// enumeration.
template <typename T, int Dim, typename Fn>
void strided_for_each_run(const std::byte* a, const std::ptrdiff_t* as,
                          std::byte* b, const std::ptrdiff_t* bs,
                          const std::size_t* extent, int dim, Fn&& fn) {
  if (dim == Dim - 1) {
    const auto elem = static_cast<std::ptrdiff_t>(sizeof(T));
    if (as[dim] == elem && bs[dim] == elem) {
      fn(a, b, extent[dim] * sizeof(T));
      return;
    }
    for (std::size_t i = 0; i < extent[dim]; ++i)
      fn(a + static_cast<std::ptrdiff_t>(i) * as[dim],
         b + static_cast<std::ptrdiff_t>(i) * bs[dim], sizeof(T));
    return;
  }
  for (std::size_t i = 0; i < extent[dim]; ++i)
    strided_for_each_run<T, Dim>(
        a + static_cast<std::ptrdiff_t>(i) * as[dim], as,
        b + static_cast<std::ptrdiff_t>(i) * bs[dim], bs, extent, dim + 1,
        fn);
}

// Builds the am-wire fragment group of a strided transfer: `remote_is_b`
// puts b-side runs on the wire as remote descriptors and a-side runs as
// the local list (a put); inverted for gets.
template <typename T, int Dim>
std::vector<AmFragGroup> strided_am_group(
    const std::byte* a, const std::ptrdiff_t* as, std::byte* b,
    const std::ptrdiff_t* bs, const std::size_t* extent, intrank_t target,
    bool remote_is_b) {
  std::vector<AmFragGroup> groups;
  auto& g = am_frag_group(groups, target);
  strided_for_each_run<T, Dim>(
      a, as, b, bs, extent, 0,
      [&](const std::byte* ra, std::byte* rb, std::size_t bytes) {
        const std::byte* remote = remote_is_b ? rb : ra;
        const std::byte* local = remote_is_b ? ra : rb;
        g.remote.push_back(
            {reinterpret_cast<std::uintptr_t>(remote), bytes});
        g.local.push_back(
            {const_cast<std::byte*>(local), bytes});
      });
  return groups;
}

}  // namespace detail

template <int Dim, typename T, typename Cxs = default_cx_t>
auto rput_strided(const T* src_base,
                  const std::array<std::ptrdiff_t, Dim>& src_strides,
                  global_ptr<T> dst_base,
                  const std::array<std::ptrdiff_t, Dim>& dst_strides,
                  const std::array<std::size_t, Dim>& extents,
                  Cxs cxs = Cxs{}) {
  static_assert(std::is_trivially_copyable_v<T>);
  arch::relaxed_inc(detail::op_state().stats.rputs);
  auto* a = reinterpret_cast<const std::byte*>(src_base);
  auto* b = reinterpret_cast<std::byte*>(dst_base.local());
  if (detail::wire_am()) {
    auto groups = detail::strided_am_group<T, Dim>(
        a, src_strides.data(), b, dst_strides.data(), extents.data(),
        dst_base.where(), /*remote_is_b=*/true);
    if (!groups.front().remote.empty())
      return detail::issue_am_fragments(std::move(cxs), std::move(groups),
                                        /*is_get=*/false);
    return detail::finish_rma(std::move(cxs), dst_base.where(), 2);
  }
  detail::strided_for_each_run<T, Dim>(
      a, src_strides.data(), b, dst_strides.data(), extents.data(), 0,
      [](const std::byte* ra, std::byte* rb, std::size_t bytes) {
        std::memcpy(rb, ra, bytes);
      });
  return detail::finish_rma(std::move(cxs), dst_base.where(), 2);
}

template <int Dim, typename T, typename Cxs = default_cx_t>
auto rget_strided(global_ptr<T> src_base,
                  const std::array<std::ptrdiff_t, Dim>& src_strides,
                  T* dst_base,
                  const std::array<std::ptrdiff_t, Dim>& dst_strides,
                  const std::array<std::size_t, Dim>& extents,
                  Cxs cxs = Cxs{}) {
  static_assert(std::is_trivially_copyable_v<T>);
  arch::relaxed_inc(detail::op_state().stats.rgets);
  auto* a = reinterpret_cast<const std::byte*>(src_base.local());
  auto* b = reinterpret_cast<std::byte*>(dst_base);
  if (detail::wire_am()) {
    auto groups = detail::strided_am_group<T, Dim>(
        a, src_strides.data(), b, dst_strides.data(), extents.data(),
        src_base.where(), /*remote_is_b=*/false);
    if (!groups.front().remote.empty())
      return detail::issue_am_fragments(std::move(cxs), std::move(groups),
                                        /*is_get=*/true);
    return detail::finish_rma(std::move(cxs), src_base.where(), 2);
  }
  detail::strided_for_each_run<T, Dim>(
      a, src_strides.data(), b, dst_strides.data(), extents.data(), 0,
      [](const std::byte* ra, std::byte* rb, std::size_t bytes) {
        std::memcpy(rb, ra, bytes);
      });
  return detail::finish_rma(std::move(cxs), src_base.where(), 2);
}

}  // namespace upcxx
