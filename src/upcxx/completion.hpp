// Completion objects (paper §II and §IV-B: operation_cx::as_promise(p)).
//
// UPC++ communication calls accept a *completions* value describing how each
// completion event should be signaled:
//   operation_cx — the whole operation is complete (remotely visible);
//   source_cx   — the source buffer is reusable (local completion);
//   remote_cx   — execute an RPC at the target once the data has landed.
// Variants: as_future() (the default; the call returns a future),
// as_promise(p) (register a dependency on an existing promise — the flood
// bandwidth benchmark's mechanism), as_lpc(fn) (run a local callback, now
// available for both operation and source events), and
// remote_cx::as_rpc(fn, args...).
//
// Completions combine with operator|, e.g.
//   rput(src, dst, n, operation_cx::as_promise(p) | remote_cx::as_rpc(f, a));
// Requesting both source_cx::as_future() and operation_cx::as_future() in
// one call is supported: the call returns std::tuple<future<>, future<>>
// with the source future first.
//
// detail::cx_state below is the single completion-delivery pipeline every
// communication call uses (rput/rget, the irregular and strided variants,
// copy(), rpc): the op-specific code decides *when* each completion event
// has happened (synchronously at injection, after a simulated delay, or
// from an XferEngine callback once an asynchronous transfer drains) and
// cx_state knows *how* to signal it through the requested mechanism.
#pragma once

#include <cassert>
#include <cstdint>
#include <optional>
#include <tuple>
#include <type_traits>
#include <utility>

#include "arch/small_fn.hpp"
#include "upcxx/future.hpp"

namespace upcxx {

namespace detail {

struct op_future_cx {};
struct src_future_cx {};

struct op_promise_cx {
  promise<> pr;
};
struct src_promise_cx {
  promise<> pr;
};

struct op_lpc_cx {
  arch::UniqueFunction<void()> fn;
};
struct src_lpc_cx {
  arch::UniqueFunction<void()> fn;
};

template <typename F, typename... Args>
struct remote_rpc_cx {
  F fn;
  std::tuple<std::decay_t<Args>...> args;
};

template <typename... Cx>
struct completions {
  std::tuple<Cx...> items;

  // Does this completion list contain an element matching predicate Trait?
  template <template <typename> class Trait>
  static constexpr bool has() {
    return (Trait<Cx>::value || ...);
  }
};

template <>
struct completions<> {
  std::tuple<> items;
  template <template <typename> class Trait>
  static constexpr bool has() {
    return false;
  }
};

template <typename... A, typename... B>
completions<A..., B...> operator|(completions<A...> a, completions<B...> b) {
  return {std::tuple_cat(std::move(a.items), std::move(b.items))};
}

// Trait predicates used by rput/rget/rpc to decide their return type.
template <typename T>
struct is_op_future : std::is_same<T, op_future_cx> {};
template <typename T>
struct is_src_future : std::is_same<T, src_future_cx> {};
template <typename T>
struct is_op_promise : std::is_same<T, op_promise_cx> {};
template <typename T>
struct is_src_promise : std::is_same<T, src_promise_cx> {};
template <typename T>
struct is_op_lpc : std::is_same<T, op_lpc_cx> {};
template <typename T>
struct is_src_lpc : std::is_same<T, src_lpc_cx> {};
template <typename T>
struct is_remote_rpc : std::false_type {};
template <typename F, typename... A>
struct is_remote_rpc<remote_rpc_cx<F, A...>> : std::true_type {};

// Is T a completions<...> pack? Used to disambiguate the rpc overload that
// takes explicit completions from the plain rpc(target, fn, args...) form.
template <typename T>
struct is_completions : std::false_type {};
template <typename... Cx>
struct is_completions<completions<Cx...>> : std::true_type {};

// ---- progress-engine hooks -------------------------------------------------
// cx_state signals through the progress engine and the wire; the providers
// live above this header (progress.hpp / rpc.hpp). Declared here so the
// pipeline can be defined in one place without an include cycle; templates
// instantiate at call sites that see the definitions.
//
// Threading: both hooks are safe off-persona (an injector thread under an
// upcxx::injection_scope). push_compq then routes to the calling thread's
// own persona inbox — its "completion shard" — and push_completion_after_ns
// runs the timer on the master but fires the callback back on the calling
// persona, so a cx_state built by an injector thread always signals where
// its promises live. A cx_state must only ever be *driven* (source_now /
// operation_done) on the persona that built it; the engines honor this by
// shipping deferred transitions home via lpc_ff rather than calling in.

void push_compq(arch::UniqueFunction<void()> fn);
void push_completion_after_ns(std::uint64_t delay_ns,
                              arch::UniqueFunction<void()> fn);

// Ships fn(args...) to `target` on the latency-sensitive immediate wire
// path (remote completion notifications must not sit in the aggregation
// buffer). Defined in rpc.hpp.
template <typename F, typename ArgsTuple>
void remote_rpc_send(intrank_t target, const F& fn, const ArgsTuple& args);

// ---- the unified completion pipeline ---------------------------------------

// cx_state owns a completions pack plus the promise state backing any
// requested futures, and delivers each completion event exactly once:
//
//   source_now()            — signal source completion (buffer reusable);
//   remote_now([target])    — send the remote_cx notifications to a target
//                             (callable repeatedly for multi-target ops);
//   operation_done(delay)   — signal operation completion, deferred by
//                             delay nanoseconds (0 = now);
//   result()                — the value the communication call returns.
//
// Invariants the callers rely on:
//   * The synchronous fast path (source_now + remote_now + operation_done(0)
//     + result, all before returning) performs NO allocation beyond what the
//     user's completion objects already carry: promises are fulfilled in
//     place, LPCs move into compQ, and a requested future is the rank's
//     cached ready future. Every small blocking rput takes this path, and
//     E1 is sensitive to a single malloc here.
//   * For deferred delivery (simulated latency, or an asynchronous transfer
//     whose XferEngine callbacks fire later), promise-backed futures are
//     materialized on demand — or up front via prepare_deferred() when the
//     cx_state must outlive the call (the async path moves it into the
//     engine callbacks before result() is taken).
//   * LPC completions always run from the progress engine, never
//     synchronously inside the injection call.
template <typename Cxs>
class cx_state {
  using CxsD = std::decay_t<Cxs>;

 public:
  static constexpr bool want_op_future = CxsD::template has<is_op_future>();
  static constexpr bool want_src_future = CxsD::template has<is_src_future>();

  cx_state(CxsD&& cxs, intrank_t target)
      : cxs_(std::move(cxs)), target_(target) {}

  cx_state(cx_state&&) = default;
  cx_state& operator=(cx_state&&) = default;

  // Materializes the promises behind any requested futures so result() can
  // be taken before the (asynchronous) completion signals arrive.
  void prepare_deferred() {
    if constexpr (want_op_future) op_promise();
    if constexpr (want_src_future) src_promise();
  }

  // The source buffer is reusable. Fulfills source promises in place and
  // queues source LPCs for the next user-level progress.
  void source_now() {
    std::apply([&](auto&... item) { (source_one(item), ...); }, cxs_.items);
    if constexpr (want_src_future) {
      if (src_pr_) {
        src_pr_->fulfill_anonymous(1);
      } else {
        src_sync_ = true;
      }
    }
  }

  // Sends every remote_cx notification to `target` over the immediate wire
  // path. Multi-target operations (irregular fragment lists) call this once
  // per distinct target; argument tuples are serialized per send, never
  // consumed.
  void remote_now(intrank_t target) {
    std::apply([&](auto&... item) { (remote_one(item, target), ...); },
               cxs_.items);
  }
  void remote_now() { remote_now(target_); }

  // Operation completion, deferred by delay_ns (0 = complete now; LPCs and
  // futures still deliver through the progress engine / compQ).
  void operation_done(std::uint64_t delay_ns) {
    if (delay_ns == 0) {
      std::apply([&](auto&... item) { (op_one_now(item), ...); },
                 cxs_.items);
      if constexpr (want_op_future) {
        if (op_pr_) {
          op_pr_->fulfill_anonymous(1);
        } else {
          op_sync_ = true;
        }
      }
    } else {
      std::apply([&](auto&... item) { (op_one_after(item, delay_ns), ...); },
                 cxs_.items);
      if constexpr (want_op_future) {
        push_completion_after_ns(delay_ns, [pr = op_promise()]() mutable {
          pr.fulfill_anonymous(1);
        });
      }
    }
  }

  // The communication call's return value: future for op_future, future for
  // src_future, tuple (source first) for both, void for neither. Call once.
  auto result() {
    if constexpr (want_src_future && want_op_future) {
      return std::make_tuple(take_src_future(), take_op_future());
    } else if constexpr (want_op_future) {
      return take_op_future();
    } else if constexpr (want_src_future) {
      return take_src_future();
    } else {
      return;
    }
  }

 private:
  template <typename C>
  void source_one(C& cx) {
    if constexpr (std::is_same_v<C, src_promise_cx>) {
      cx.pr.fulfill_anonymous(1);
    } else if constexpr (std::is_same_v<C, src_lpc_cx>) {
      push_compq(std::move(cx.fn));
    }
  }

  template <typename C>
  void remote_one(C& cx, intrank_t target) {
    if constexpr (is_remote_rpc<C>::value) {
      remote_rpc_send(target, cx.fn, cx.args);
    } else {
      (void)cx;
      (void)target;
    }
  }

  template <typename C>
  void op_one_now(C& cx) {
    if constexpr (std::is_same_v<C, op_promise_cx>) {
      cx.pr.fulfill_anonymous(1);
    } else if constexpr (std::is_same_v<C, op_lpc_cx>) {
      push_compq(std::move(cx.fn));
    }
  }

  template <typename C>
  void op_one_after(C& cx, std::uint64_t delay_ns) {
    if constexpr (std::is_same_v<C, op_promise_cx>) {
      push_completion_after_ns(delay_ns, [pr = cx.pr]() mutable {
        pr.fulfill_anonymous(1);
      });
    } else if constexpr (std::is_same_v<C, op_lpc_cx>) {
      push_completion_after_ns(delay_ns, std::move(cx.fn));
    }
  }

  promise<>& op_promise() {
    if (!op_pr_) {
      op_pr_.emplace();
      op_pr_->require_anonymous(1);
    }
    return *op_pr_;
  }
  promise<>& src_promise() {
    if (!src_pr_) {
      src_pr_.emplace();
      src_pr_->require_anonymous(1);
    }
    return *src_pr_;
  }

  future<> take_op_future() {
    if (op_pr_) return op_pr_->finalize();
    assert(op_sync_ && "operation future taken before any completion signal");
    return ready_future();
  }
  future<> take_src_future() {
    if (src_pr_) return src_pr_->finalize();
    assert(src_sync_ && "source future taken before any completion signal");
    return ready_future();
  }

  CxsD cxs_;
  intrank_t target_;
  // Lazily materialized so the synchronous fast path never touches the
  // allocator (a promise carries shared state).
  std::optional<promise<>> op_pr_;
  std::optional<promise<>> src_pr_;
  bool op_sync_ = false;
  bool src_sync_ = false;
};

// True when Cxs contains a source-kind completion. Engines that move the
// data off the initiating thread ship source_now() home only then: for any
// other Cxs it does nothing, and an injector would pay an LPC for it.
template <typename Cxs>
inline constexpr bool has_source_completions =
    Cxs::template has<is_src_future>() ||
    Cxs::template has<is_src_promise>() || Cxs::template has<is_src_lpc>();

// True when Cxs contains any source- or remote-kind completion (rpc rejects
// those at compile time).
template <typename Cxs>
inline constexpr bool has_non_op_completions =
    has_source_completions<Cxs> || Cxs::template has<is_remote_rpc>();

}  // namespace detail

// Public completion factories, named as in UPC++.
struct operation_cx {
  static detail::completions<detail::op_future_cx> as_future() {
    return {};
  }
  static detail::completions<detail::op_promise_cx> as_promise(
      const promise<>& p) {
    // Each registration adds one dependency, retired on completion.
    detail::completions<detail::op_promise_cx> c{std::tuple<detail::op_promise_cx>{
        detail::op_promise_cx{p}}};
    std::get<0>(c.items).pr.require_anonymous(1);
    return c;
  }
  template <typename Fn>
  static detail::completions<detail::op_lpc_cx> as_lpc(Fn&& fn) {
    return {std::tuple<detail::op_lpc_cx>{
        detail::op_lpc_cx{std::forward<Fn>(fn)}}};
  }
};

struct source_cx {
  static detail::completions<detail::src_future_cx> as_future() {
    return {};
  }
  static detail::completions<detail::src_promise_cx> as_promise(
      const promise<>& p) {
    detail::completions<detail::src_promise_cx> c{
        std::tuple<detail::src_promise_cx>{detail::src_promise_cx{p}}};
    std::get<0>(c.items).pr.require_anonymous(1);
    return c;
  }
  // Runs fn on the initiator once the source buffer is reusable — parity
  // with operation_cx::as_lpc. On the synchronous wire this fires at the
  // next user-level progress; on the asynchronous engine path it fires once
  // the last chunk has been read out of the source buffer.
  template <typename Fn>
  static detail::completions<detail::src_lpc_cx> as_lpc(Fn&& fn) {
    return {std::tuple<detail::src_lpc_cx>{
        detail::src_lpc_cx{std::forward<Fn>(fn)}}};
  }
};

struct remote_cx {
  // Executes fn(args...) at the target rank once the transferred data is
  // visible there (the v1.0 feature §V-A credits for streamlined DHT
  // insertion).
  template <typename F, typename... Args>
  static detail::completions<detail::remote_rpc_cx<F, Args...>> as_rpc(
      F fn, Args&&... args) {
    return {std::tuple<detail::remote_rpc_cx<F, Args...>>{
        detail::remote_rpc_cx<F, Args...>{
            std::move(fn), std::tuple<std::decay_t<Args>...>(
                               std::forward<Args>(args)...)}}};
  }
};

}  // namespace upcxx
