// Futures and promises — the asynchrony vocabulary of UPC++ v1.0 (paper §II).
//
// Semantics reproduced from the paper and the v1.0 spec:
//  * A future is the consumer side of a non-blocking operation; a promise is
//    the producer side. Multiple futures may view one promise's state.
//  * Futures/promises are *persona-local*: they manage dependencies within a
//    rank's thread of control and are deliberately not thread-safe (§II,
//    "used to manage asynchronous dependencies within a thread").
//  * `.then(cb)` chains a callback, producing a new future for cb's result;
//    future-returning callbacks are unwrapped.
//  * `when_all(...)` conjoins futures, concatenating their value lists.
//  * A promise carries a dependency counter: `require_anonymous` registers
//    dependencies, `fulfill_anonymous` retires them, `finalize` retires the
//    initial dependency and hands out the future ("list of futures to
//    satisfy" — paper Fig 2 discussion).
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "arch/small_fn.hpp"
#include "gex/wait.hpp"

namespace upcxx {

// Rank index type (world or team relative), as in UPC++.
using intrank_t = int;

// Thrown by blocking waits (future::wait, barrier, and every blocking
// operation built on them) when another rank of the job has failed: the
// awaited completion may depend on the dead rank and could otherwise never
// arrive, so the wait surfaces the job failure instead of spinning forever.
// Every blocking loop of the runtime ends on the same check
// (gex::wait_until); user-level waits react by throwing this.
class rank_failed : public std::runtime_error {
 public:
  rank_failed();
};

template <typename... T>
class future;
template <typename... T>
class promise;

// Progress levels (paper §III): internal progress polls the substrate and
// retires active operations; user progress also drains compQ, running RPCs
// and callbacks.
enum class progress_level { internal, user };

namespace detail {

// One round of progress at `lvl` (defined in progress.cpp); returns the
// work it did: messages handled, chunks moved, completions retired, LPCs
// run. upcxx::progress wraps it, and blocking waits hand it to
// gex::wait_until as their poll.
int progress_work(progress_level lvl);
[[noreturn]] void throw_rank_failed();

template <typename... T>
struct FutureState {
  bool ready = false;
  std::optional<std::tuple<T...>> value;
  // Dependency counter for the owning promise (a promise starts with one
  // anonymous dependency that finalize()/fulfill_result() retires).
  std::int64_t deps = 1;
  std::vector<arch::UniqueFunction<void(std::tuple<T...>&)>> callbacks;

  void mark_ready() {
    assert(!ready);
    if constexpr (sizeof...(T) == 0) {
      if (!value) value.emplace();
    }
    assert(value && "promise finalized without a result");
    ready = true;
    // Callbacks may attach more callbacks to *other* futures, but not to
    // this one re-entrantly once ready (then() short-circuits on ready).
    auto cbs = std::move(callbacks);
    callbacks.clear();
    for (auto& cb : cbs) cb(*value);
  }

  void retire_deps(std::int64_t n) {
    assert(deps >= n && "fulfilled more dependencies than required");
    deps -= n;
    if (deps == 0) mark_ready();
  }
};

// ---- type computations -----------------------------------------------------

template <typename T>
struct is_future : std::false_type {};
template <typename... T>
struct is_future<future<T...>> : std::true_type {};
template <typename T>
inline constexpr bool is_future_v = is_future<std::decay_t<T>>::value;

// future_from_result<R>: the future type produced by a .then callback
// returning R (void -> future<>, future<U...> -> future<U...>, else
// future<R>).
template <typename R>
struct future_from_result {
  using type = future<R>;
};
template <>
struct future_from_result<void> {
  using type = future<>;
};
template <typename... U>
struct future_from_result<future<U...>> {
  using type = future<U...>;
};
template <typename R>
using future_from_result_t = typename future_from_result<std::decay_t<R>>::type;

// Concatenation of value lists for when_all.
template <typename A, typename B>
struct future_cat;
template <typename... A, typename... B>
struct future_cat<future<A...>, future<B...>> {
  using type = future<A..., B...>;
};
template <typename... Fs>
struct futures_cat {
  using type = future<>;
};
template <typename F>
struct futures_cat<F> {
  using type = F;
};
template <typename F, typename... Rest>
struct futures_cat<F, Rest...> {
  using type =
      typename future_cat<F, typename futures_cat<Rest...>::type>::type;
};

}  // namespace detail

// ----------------------------------------------------------------- future<T>

template <typename... T>
class future {
 public:
  using state_t = detail::FutureState<T...>;
  // result type: void for 0 values, T for 1, tuple for many.
  using result_type = std::conditional_t<
      sizeof...(T) == 0, void,
      std::conditional_t<sizeof...(T) == 1,
                         std::tuple_element_t<0, std::tuple<T..., void>>,
                         std::tuple<T...>>>;

  future() = default;  // non-ready, unattached future
  explicit future(std::shared_ptr<state_t> st) : st_(std::move(st)) {}

  bool valid() const { return st_ != nullptr; }

  bool is_ready() const { return st_ && st_->ready; }

  // Returns the i-th value (requires readiness).
  template <std::size_t I = 0>
  const std::tuple_element_t<I, std::tuple<T...>>& result_ref() const {
    assert(is_ready());
    return std::get<I>(*st_->value);
  }

  result_type result() const {
    assert(is_ready());
    if constexpr (sizeof...(T) == 0) {
      return;
    } else if constexpr (sizeof...(T) == 1) {
      return std::get<0>(*st_->value);
    } else {
      return *st_->value;
    }
  }

  const std::tuple<T...>& result_tuple() const {
    assert(is_ready());
    return *st_->value;
  }

  // Blocks (spinning on user progress) until ready; returns the result.
  // Matches the paper: "the wait call is simply a spin loop around
  // progress". Throws rank_failed once another rank of the job has died —
  // the completion this future awaits may depend on that rank, and a
  // failed job must tear down instead of hanging in user waits. A
  // completion delivered before the failure is still returned.
  result_type wait() const {
    if (!gex::wait_until([this] { return is_ready(); }, [] {
          return detail::progress_work(progress_level::user);
        }))
      detail::throw_rank_failed();
    return result();
  }

  // Chains `fn` to run on the values once ready; returns the future of fn's
  // (possibly future-valued) result. Runs immediately when already ready.
  template <typename Fn>
  auto then(Fn&& fn) const
      -> detail::future_from_result_t<std::invoke_result_t<Fn, T&...>> {
    using R = std::invoke_result_t<Fn, T&...>;
    using FutR = detail::future_from_result_t<R>;
    assert(st_ && "then() on an invalid future");
    auto pr = std::make_shared<typename FutR::state_t>();
    auto run = [pr, f = std::forward<Fn>(fn)](std::tuple<T...>& vals) mutable {
      if constexpr (std::is_void_v<R>) {
        std::apply(f, vals);
        pr->value.emplace();
        pr->retire_deps(1);
      } else if constexpr (detail::is_future_v<R>) {
        auto inner = std::apply(f, vals);
        inner.then_raw([pr](auto&... inner_vals) {
          pr->value.emplace(inner_vals...);
          pr->retire_deps(1);
        });
      } else {
        pr->value.emplace(std::apply(f, vals));
        pr->retire_deps(1);
      }
    };
    if (st_->ready) {
      run(*st_->value);
    } else {
      st_->callbacks.emplace_back(std::move(run));
    }
    return FutR(pr);
  }

  // Internal: like then() but fn takes raw refs and no new future is made.
  template <typename Fn>
  void then_raw(Fn&& fn) const {
    assert(st_);
    if (st_->ready) {
      std::apply(fn, *st_->value);
    } else {
      st_->callbacks.emplace_back(
          [f = std::forward<Fn>(fn)](std::tuple<T...>& vals) mutable {
            std::apply(f, vals);
          });
    }
  }

  std::shared_ptr<state_t> state() const { return st_; }

 private:
  std::shared_ptr<state_t> st_;
};

// --------------------------------------------------------------- promise<T>

template <typename... T>
class promise {
 public:
  using state_t = detail::FutureState<T...>;

  promise() : st_(std::make_shared<state_t>()) {}

  // Registers n additional dependencies that must be fulfilled before the
  // associated future becomes ready.
  void require_anonymous(std::int64_t n) {
    assert(!st_->ready);
    st_->deps += n;
  }

  // Retires n dependencies.
  void fulfill_anonymous(std::int64_t n) { st_->retire_deps(n); }

  // Supplies the result values and retires one dependency.
  template <typename... U>
  void fulfill_result(U&&... vals) {
    assert(!st_->value && "result already supplied");
    st_->value.emplace(std::forward<U>(vals)...);
    st_->retire_deps(1);
  }

  // Retires the initial dependency and returns the future. Call exactly
  // once, after all require/fulfill registration is set up.
  future<T...> finalize() {
    st_->retire_deps(1);
    return future<T...>(st_);
  }

  future<T...> get_future() const { return future<T...>(st_); }

 private:
  std::shared_ptr<state_t> st_;
};

// ------------------------------------------------------------- constructors

// make_future(v...): a trivially ready future carrying v...
template <typename... V>
future<std::decay_t<V>...> make_future(V&&... v) {
  auto st = std::make_shared<detail::FutureState<std::decay_t<V>...>>();
  st->value.emplace(std::forward<V>(v)...);
  st->ready = true;
  st->deps = 0;
  return future<std::decay_t<V>...>(std::move(st));
}

// when_all: conjoins futures into one whose value list is the concatenation
// of the inputs' lists (paper §II).
namespace detail {

// Collects per-input value tuples, then concatenates them into the output
// future's value list once every input is ready.
template <typename FutOut, typename... Fs>
struct WhenAllStager {
  using StOut = typename FutOut::state_t;
  std::shared_ptr<StOut> st = std::make_shared<StOut>();
  std::tuple<std::optional<
      std::decay_t<decltype(std::declval<Fs>().result_tuple())>>...>
      parts;
  std::size_t remaining = sizeof...(Fs);

  template <std::size_t... I>
  void finish(std::index_sequence<I...>) {
    st->value.emplace(std::tuple_cat(std::move(*std::get<I>(parts))...));
    st->retire_deps(1);
  }
  void complete() { finish(std::index_sequence_for<Fs...>{}); }
};

}  // namespace detail

template <typename... Fs>
auto when_all(Fs... fs) ->
    typename detail::futures_cat<std::decay_t<Fs>...>::type {
  using FutOut = typename detail::futures_cat<std::decay_t<Fs>...>::type;
  auto stager = std::make_shared<
      detail::WhenAllStager<FutOut, std::decay_t<Fs>...>>();
  [&]<std::size_t... I>(std::index_sequence<I...>) {
    (fs.then_raw([stager](auto&... vals) {
      std::get<I>(stager->parts).emplace(vals...);
      if (--stager->remaining == 0) stager->complete();
    }),
     ...);
  }(std::index_sequence_for<Fs...>{});
  if constexpr (sizeof...(Fs) == 0) stager->complete();
  return FutOut(stager->st);
}

// when_all_range: conjoins a runtime-sized collection of homogeneous
// futures. For future<T> inputs the result carries the values in input
// order; for future<> inputs it is a bare future<>.
template <typename T>
future<std::vector<T>> when_all_range(const std::vector<future<T>>& fs) {
  struct State {
    std::vector<T> values;
    std::size_t remaining;
  };
  auto pr = std::make_shared<detail::FutureState<std::vector<T>>>();
  auto st = std::make_shared<State>();
  st->values.resize(fs.size());
  st->remaining = fs.size();
  if (fs.empty()) {
    pr->value.emplace(std::vector<T>{});
    pr->retire_deps(1);
    return future<std::vector<T>>(pr);
  }
  for (std::size_t i = 0; i < fs.size(); ++i) {
    fs[i].then_raw([pr, st, i](T& v) {
      st->values[i] = v;
      if (--st->remaining == 0) {
        pr->value.emplace(std::move(st->values));
        pr->retire_deps(1);
      }
    });
  }
  return future<std::vector<T>>(pr);
}

inline future<> when_all_range(const std::vector<future<>>& fs) {
  promise<> pr;
  pr.require_anonymous(static_cast<std::int64_t>(fs.size()));
  for (const auto& f : fs)
    f.then_raw([pr]() mutable { pr.fulfill_anonymous(1); });
  return pr.finalize();
}

namespace detail {
// A cached, already-ready future<> shared by all synchronously-completed
// operations on this rank — the zero-allocation fast path for operations
// that complete at injection (RMA/atomics on the zero-latency wire).
inline const future<>& ready_future() {
  thread_local future<> f = make_future();
  return f;
}
}  // namespace detail

// to_future: identity on futures, wraps plain values.
template <typename T>
auto to_future(T&& v) {
  if constexpr (detail::is_future_v<T>) {
    return std::forward<T>(v);
  } else {
    return make_future(std::forward<T>(v));
  }
}

}  // namespace upcxx
