// Remote procedure calls (paper §II, Fig 2).
//
// rpc(target, fn, args...) ships the callable and serialized arguments to
// `target`, executes fn there during the target's *user-level* progress, and
// returns a future for the (possibly future-valued) result:
//   * fn returning void       -> future<>
//   * fn returning future<U..>-> future<U...> (result sent when ready)
//   * fn returning R          -> future<R'>, R' = deserialized form of R
// rpc_ff (“fire-and-forget”) skips the acknowledgment; the paper notes its
// progression matches rget/rput rather than the two-way RPC of Fig 2.
//
// The callable must be trivially copyable (a function pointer or a lambda
// with trivially-copyable captures) — the same restriction real UPC++ places
// on TriviallySerializable function objects. Arguments may be any
// serializable type, including upcxx::view and upcxx::dist_object&.
#pragma once

#include <cassert>
#include <cstring>
#include <type_traits>

#include "arch/atomics.hpp"
#include "upcxx/completion.hpp"
#include "upcxx/future.hpp"
#include "upcxx/progress.hpp"
#include "upcxx/serialization.hpp"

namespace upcxx {

namespace detail {

// Writes the callable as a pod (alignment-safe). An empty callable (a
// captureless lambda) has no state, so nothing — not even its one
// indeterminate byte — goes on the wire.
template <typename Ar, typename F>
void serialization_write_fn(Ar& ar, const F& fn) {
  if constexpr (!std::is_empty_v<F>) {
    ar.align(alignof(F) > kWireAlign ? kWireAlign : alignof(F));
    ar.bytes(&fn, sizeof(F));
  }
}

// Reads the callable back. Capturing lambdas are not default-constructible,
// so reconstitute through aligned storage and trivial copy; an empty
// callable reads nothing.
template <typename F>
F read_fn(Reader& r) {
  struct Box {
    alignas(F) unsigned char bytes[sizeof(F)];
  } box{};
  if constexpr (!std::is_empty_v<F>) {
    r.align(alignof(F) > kWireAlign ? kWireAlign : alignof(F));
    std::memcpy(box.bytes, r.raw(sizeof(F)), sizeof(F));
  }
  return *reinterpret_cast<F*>(box.bytes);
}

// ---- reply plumbing --------------------------------------------------------

// Reply wire format: [op_id][serialized results...]; one generic dispatcher
// takes the continuation registered at injection time out of its slot (an
// index and a generation compare — injector threads register concurrently,
// see PersonaState::replies) and runs it outside the table (it may send,
// or ship values to another persona).
inline void reply_dispatch(int /*src*/, Reader& r) {
  const auto op_id = r.pod<std::uint64_t>();
  arch::UniqueFunction<void(Reader&)> fn;
  if (!persona().replies.take(op_id, fn)) {
    assert(false && "reply for an unknown or already answered op");
    return;
  }
  fn(r);
}

// Sends the serialized results of an executed RPC back to the initiator.
// Replies ride the aggregated path: the executing rank is inside user
// progress (which flushes), so batching costs no attentiveness.
template <typename... U>
void send_reply(int initiator, std::uint64_t op_id, const U&... results) {
  SizeArchive sa;
  sa.bytes(&op_id, sizeof op_id);
  serialize_args(sa, results...);
  send_msg<&reply_dispatch>(initiator, sa.size(), [&](WriteArchive& wa) {
    wa.bytes(&op_id, sizeof op_id);
    serialize_args(wa, results...);
  });
}

// ---- request dispatchers ---------------------------------------------------

// invoke fn with a deserialized-args tuple, handling the void / value /
// future-returning cases uniformly. `Reply` is called with the result values
// once available (possibly later, for future-returning fns).
template <typename F, typename ArgsTuple, typename Reply>
void invoke_and_reply(F& fn, ArgsTuple& args, Reply reply) {
  using R = decltype(std::apply(fn, args));
  if constexpr (std::is_void_v<R>) {
    std::apply(fn, args);
    reply();
  } else if constexpr (is_future_v<R>) {
    auto fut = std::apply(fn, args);
    fut.then_raw([reply](auto&... vals) mutable { reply(vals...); });
  } else {
    reply(std::apply(fn, args));
  }
}

// Round-trip RPC request: [op_id][F][args...].
template <typename F, typename... Args>
void rpc_request_dispatch(int src, Reader& r) {
  const auto op_id = r.pod<std::uint64_t>();
  F fn = read_fn<F>(r);
  auto args = deserialize_tuple<Args...>(r);
  arch::relaxed_inc(persona().stats.rpcs_executed);
  invoke_and_reply(fn, args, [src, op_id](const auto&... results) {
    send_reply(src, op_id, results...);
  });
}

// Fire-and-forget request: [F][args...].
template <typename F, typename... Args>
void rpc_ff_dispatch(int /*src*/, Reader& r) {
  F fn = read_fn<F>(r);
  auto args = deserialize_tuple<Args...>(r);
  arch::relaxed_inc(persona().stats.rpcs_executed);
  std::apply(fn, args);
}

// The future type rpc() returns for a callable F applied to Args.
template <typename F, typename... Args>
using rpc_return_t = future_from_result_t<
    std::invoke_result_t<F, deserialized_type_t<Args>&...>>;

// Registers the initiator-side continuation that deserializes the reply and
// fulfills the promise behind `Fut`.
template <typename Fut>
struct reply_fulfiller;

template <typename... U>
struct reply_fulfiller<future<U...>> {
  static future<U...> attach(std::uint64_t* op_id_out) {
    promise<U...> pr;
    // The continuation runs on the master persona (reply_dispatch), but the
    // promise's state is affine to the *initiating* thread's persona.
    // Deserialize on the master — the wire buffer dies with the dispatch —
    // then op_context routes the fulfillment: in place for a master-persona
    // initiator, home via lpc_ff for an injector thread.
    const op_context cx = op_context::current();
    *op_id_out = register_reply([cx, pr](Reader& r) mutable {
      if constexpr (sizeof...(U) == 0) {
        (void)r;
        cx.complete_now([pr]() mutable { pr.fulfill_anonymous(1); });
      } else {
        auto vals = deserialize_tuple<U...>(r);
        cx.complete_now([pr, vals = std::move(vals)]() mutable {
          std::apply(
              [&pr](auto&&... v) {
                pr.fulfill_result(std::forward<decltype(v)>(v)...);
              },
              std::move(vals));
        });
      }
    });
    if constexpr (sizeof...(U) == 0) pr.require_anonymous(1);
    return sizeof...(U) == 0 ? pr.finalize() : pr.get_future();
  }
};

// Implementation bodies shared by the public entry points and the internal
// latency-sensitive callers (AM atomics, remote completion notifications)
// that opt out of aggregation via wire_mode::immediate.

template <typename F, typename... Args>
void rpc_ff_impl(intrank_t target, wire_mode mode, F fn, Args&&... args) {
  static_assert(std::is_trivially_copyable_v<F>,
                "RPC callables must be trivially copyable");
  arch::relaxed_inc(op_state().stats.rpcs_sent);
  SizeArchive sa;
  serialization_write_fn(sa, fn);
  serialize_args(sa, args...);
  send_msg<&rpc_ff_dispatch<F, std::decay_t<Args>...>>(
      target, sa.size(),
      [&](WriteArchive& wa) {
        serialization_write_fn(wa, fn);
        serialize_args(wa, args...);
      },
      mode);
}

// Remote completion notification (declared in completion.hpp so cx_state
// can signal through it): ship fn(args...) to the target on the immediate
// wire path. The args tuple is serialized, never consumed, so multi-target
// fragment lists can notify each target from one completion object.
template <typename F, typename ArgsTuple>
void remote_rpc_send(intrank_t target, const F& fn, const ArgsTuple& args) {
  std::apply(
      [&](const auto&... a) {
        rpc_ff_impl(target, wire_mode::immediate, fn, a...);
      },
      args);
}

template <typename F, typename... Args>
auto rpc_impl(intrank_t target, wire_mode mode, F fn, Args&&... args)
    -> rpc_return_t<F, std::decay_t<Args>...> {
  static_assert(std::is_trivially_copyable_v<F>,
                "RPC callables must be trivially copyable");
  using Fut = rpc_return_t<F, std::decay_t<Args>...>;
  arch::relaxed_inc(op_state().stats.rpcs_sent);
  std::uint64_t op_id = 0;
  Fut fut = reply_fulfiller<Fut>::attach(&op_id);
  SizeArchive sa;
  sa.bytes(&op_id, sizeof op_id);
  serialization_write_fn(sa, fn);
  serialize_args(sa, args...);
  send_msg<&rpc_request_dispatch<F, std::decay_t<Args>...>>(
      target, sa.size(),
      [&](WriteArchive& wa) {
        wa.bytes(&op_id, sizeof op_id);
        serialization_write_fn(wa, fn);
        serialize_args(wa, args...);
      },
      mode);
  return fut;
}

}  // namespace detail

// ----------------------------------------------------------------- rpc_ff

// Ships fn+args to target for execution; no acknowledgment, no result.
template <typename F, typename... Args>
void rpc_ff(intrank_t target, F fn, Args&&... args) {
  detail::rpc_ff_impl(target, detail::wire_mode::aggregated, fn,
                      std::forward<Args>(args)...);
}

// -------------------------------------------------------------------- rpc

// Round-trip RPC returning a future for fn's result (see header comment).
template <typename F, typename... Args>
auto rpc(intrank_t target, F fn, Args&&... args)
    -> detail::rpc_return_t<F, std::decay_t<Args>...> {
  return detail::rpc_impl(target, detail::wire_mode::aggregated, fn,
                          std::forward<Args>(args)...);
}

// RPC with explicit completions — rpc(target, cx, fn, args...), as in
// UPC++. Operation completion means "the result has arrived back at the
// initiator"; supported forms are operation_cx::as_future() (returns the
// result future), ::as_promise(p) (counts readiness into p, result values
// discarded — the flood pattern of §IV-B applied to RPCs), and ::as_lpc(f)
// (runs f on the initiator at completion). Source and remote completions do
// not apply to RPCs and are rejected at compile time.
template <typename Cxs, typename F, typename... Args,
          typename = std::enable_if_t<
              detail::is_completions<std::decay_t<Cxs>>::value>>
auto rpc(intrank_t target, Cxs cxs, F fn, Args&&... args) {
  using CxsD = std::decay_t<Cxs>;
  static_assert(!detail::has_non_op_completions<CxsD>,
                "rpc supports operation completions only "
                "(no source_cx / remote_cx)");
  auto fut = rpc(target, fn, std::forward<Args>(args)...);
  // Same completion pipeline as the RMA calls: the result future's
  // readiness is the operation-completion event; cx_state delivers it
  // through whatever mechanisms were requested. (The op-future case is the
  // result future itself, returned below.)
  if constexpr (CxsD::template has<detail::is_op_promise>() ||
                CxsD::template has<detail::is_op_lpc>()) {
    detail::cx_state<CxsD> st(std::move(cxs), target);
    fut.then_raw([st = std::move(st)](auto&...) mutable {
      st.operation_done(0);
    });
  }
  if constexpr (CxsD::template has<detail::is_op_future>()) {
    return fut;
  } else {
    return;
  }
}

}  // namespace upcxx
