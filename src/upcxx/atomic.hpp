// Remote atomics (paper §II): atomic_domain<T> with offloadable operations.
//
// The paper notes that on capable NICs (Cray Aries) remote atomic updates
// are offloaded, improving latency and scalability [8]. On our shared-memory
// wire the analog of offload is a direct CPU atomic on the target's segment
// (no target-CPU involvement, no AM); the software fallback routes the
// operation through an AM executed by the owner, like a conduit without
// offload. The backend is selected per-domain (kDirect/kAm) or from
// Config::atomics_use_am; bench/abl_atomics compares the two, reproducing
// the offloaded-vs-software distinction.
//
// As in UPC++, an atomic_domain is constructed collectively with the set of
// operations it will support, and all accesses to a location should go
// through domains with compatible backends (mixing direct and AM domains on
// one hot location is allowed here because both ultimately use CPU atomics).
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <initializer_list>
#include <vector>

#include "upcxx/collectives.hpp"
#include "upcxx/global_ptr.hpp"
#include "upcxx/rpc.hpp"

namespace upcxx {

enum class atomic_op {
  load,
  store,
  add,
  fetch_add,
  sub,
  fetch_sub,
  inc,
  fetch_inc,
  dec,
  fetch_dec,
  min,
  fetch_min,
  max,
  fetch_max,
  compare_exchange,
  bit_and,
  fetch_bit_and,
  bit_or,
  fetch_bit_or,
  bit_xor,
  fetch_bit_xor,
};

enum class atomic_backend { kDefault, kDirect, kAm };

// Per-type op validity, following the UPC++ spec's tables: integral types
// support every operation; floating-point types support load/store,
// add/sub and min/max (plus fetch variants) — no bitwise ops, no inc/dec,
// no compare_exchange.
template <typename T>
constexpr bool atomic_op_allowed(atomic_op op) {
  if constexpr (std::is_integral_v<T>) {
    return true;
  } else {
    switch (op) {
      case atomic_op::load:
      case atomic_op::store:
      case atomic_op::add:
      case atomic_op::fetch_add:
      case atomic_op::sub:
      case atomic_op::fetch_sub:
      case atomic_op::min:
      case atomic_op::fetch_min:
      case atomic_op::max:
      case atomic_op::fetch_max:
        return true;
      default:
        return false;
    }
  }
}

namespace detail {

// The primitive each op reduces to, applied with std::atomic_ref on the
// target location. Returns the *previous* value.
template <typename T>
T apply_atomic(atomic_op op, T* loc, T a, T b) {
  std::atomic_ref<T> ref(*loc);
  switch (op) {
    case atomic_op::load:
      return ref.load(std::memory_order_acquire);
    case atomic_op::store:
      ref.store(a, std::memory_order_release);
      return T{};
    case atomic_op::add:
    case atomic_op::fetch_add:
      if constexpr (std::is_integral_v<T>) {
        return ref.fetch_add(a, std::memory_order_acq_rel);
      } else {
        T old = ref.load(std::memory_order_relaxed);
        while (!ref.compare_exchange_weak(old, old + a,
                                          std::memory_order_acq_rel)) {
        }
        return old;
      }
    case atomic_op::sub:
    case atomic_op::fetch_sub:
      if constexpr (std::is_integral_v<T>) {
        return ref.fetch_sub(a, std::memory_order_acq_rel);
      } else {
        T old = ref.load(std::memory_order_relaxed);
        while (!ref.compare_exchange_weak(old, old - a,
                                          std::memory_order_acq_rel)) {
        }
        return old;
      }
    case atomic_op::inc:
    case atomic_op::fetch_inc:
      return apply_atomic(atomic_op::fetch_add, loc, T{1}, T{});
    case atomic_op::dec:
    case atomic_op::fetch_dec:
      return apply_atomic(atomic_op::fetch_sub, loc, T{1}, T{});
    case atomic_op::min:
    case atomic_op::fetch_min: {
      T old = ref.load(std::memory_order_relaxed);
      while (a < old && !ref.compare_exchange_weak(
                            old, a, std::memory_order_acq_rel)) {
      }
      return old;
    }
    case atomic_op::max:
    case atomic_op::fetch_max: {
      T old = ref.load(std::memory_order_relaxed);
      while (old < a && !ref.compare_exchange_weak(
                            old, a, std::memory_order_acq_rel)) {
      }
      return old;
    }
    case atomic_op::compare_exchange: {
      T expected = a;
      ref.compare_exchange_strong(expected, b, std::memory_order_acq_rel);
      return expected;  // previous value, as in upcxx
    }
    case atomic_op::bit_and:
    case atomic_op::fetch_bit_and:
      if constexpr (std::is_integral_v<T>) {
        return ref.fetch_and(a, std::memory_order_acq_rel);
      } else {
        assert(false && "bitwise atomic on non-integral type");
        return T{};
      }
    case atomic_op::bit_or:
    case atomic_op::fetch_bit_or:
      if constexpr (std::is_integral_v<T>) {
        return ref.fetch_or(a, std::memory_order_acq_rel);
      } else {
        assert(false && "bitwise atomic on non-integral type");
        return T{};
      }
    case atomic_op::bit_xor:
    case atomic_op::fetch_bit_xor:
      if constexpr (std::is_integral_v<T>) {
        return ref.fetch_xor(a, std::memory_order_acq_rel);
      } else {
        assert(false && "bitwise atomic on non-integral type");
        return T{};
      }
  }
  return T{};
}

}  // namespace detail

template <typename T>
class atomic_domain {
  static_assert(std::is_trivially_copyable_v<T> && sizeof(T) <= 8,
                "atomic_domain supports 32/64-bit scalar types");

 public:
  // Collective constructor: every team member supplies the same op set.
  atomic_domain(std::initializer_list<atomic_op> ops, const team& tm = world(),
                atomic_backend backend = atomic_backend::kDefault)
      : ops_(ops.begin(), ops.end()), team_(&tm) {
    for (auto op : ops_) {
      assert(atomic_op_allowed<T>(op) &&
             "atomic op not supported for this element type (see the "
             "UPC++ spec's per-type tables)");
      (void)op;  // assert-only in release builds
    }
    if (backend == atomic_backend::kDefault) {
      direct_ = !gex::arena().config().atomics_use_am;
    } else {
      direct_ = (backend == atomic_backend::kDirect);
    }
    // Collective construction, as required by the UPC++ spec.
    barrier(tm);
  }

  atomic_domain(const atomic_domain&) = delete;
  atomic_domain& operator=(const atomic_domain&) = delete;

  bool uses_direct_backend() const { return direct_; }

  // Value-returning operations yield future<T>; pure updates yield
  // future<>.
  future<T> load(global_ptr<T> p) { return fetch_op(atomic_op::load, p, T{}, T{}); }
  future<> store(global_ptr<T> p, T v) { return update_op(atomic_op::store, p, v, T{}); }
  future<> add(global_ptr<T> p, T v) { return update_op(atomic_op::add, p, v, T{}); }
  future<T> fetch_add(global_ptr<T> p, T v) { return fetch_op(atomic_op::fetch_add, p, v, T{}); }
  future<> sub(global_ptr<T> p, T v) { return update_op(atomic_op::sub, p, v, T{}); }
  future<T> fetch_sub(global_ptr<T> p, T v) { return fetch_op(atomic_op::fetch_sub, p, v, T{}); }
  future<> inc(global_ptr<T> p) { return update_op(atomic_op::inc, p, T{}, T{}); }
  future<T> fetch_inc(global_ptr<T> p) { return fetch_op(atomic_op::fetch_inc, p, T{}, T{}); }
  future<> dec(global_ptr<T> p) { return update_op(atomic_op::dec, p, T{}, T{}); }
  future<T> fetch_dec(global_ptr<T> p) { return fetch_op(atomic_op::fetch_dec, p, T{}, T{}); }
  future<> min(global_ptr<T> p, T v) { return update_op(atomic_op::min, p, v, T{}); }
  future<T> fetch_min(global_ptr<T> p, T v) { return fetch_op(atomic_op::fetch_min, p, v, T{}); }
  future<> max(global_ptr<T> p, T v) { return update_op(atomic_op::max, p, v, T{}); }
  future<T> fetch_max(global_ptr<T> p, T v) { return fetch_op(atomic_op::fetch_max, p, v, T{}); }
  // Returns the previous value (compare succeeded iff result == expected).
  future<T> compare_exchange(global_ptr<T> p, T expected, T desired) {
    return fetch_op(atomic_op::compare_exchange, p, expected, desired);
  }
  // Bitwise ops (integral element types only).
  future<> bit_and(global_ptr<T> p, T v) { return update_op(atomic_op::bit_and, p, v, T{}); }
  future<T> fetch_bit_and(global_ptr<T> p, T v) { return fetch_op(atomic_op::fetch_bit_and, p, v, T{}); }
  future<> bit_or(global_ptr<T> p, T v) { return update_op(atomic_op::bit_or, p, v, T{}); }
  future<T> fetch_bit_or(global_ptr<T> p, T v) { return fetch_op(atomic_op::fetch_bit_or, p, v, T{}); }
  future<> bit_xor(global_ptr<T> p, T v) { return update_op(atomic_op::bit_xor, p, v, T{}); }
  future<T> fetch_bit_xor(global_ptr<T> p, T v) { return fetch_op(atomic_op::fetch_bit_xor, p, v, T{}); }

 private:
  void check(atomic_op op) const {
    bool listed = false;
    for (auto o : ops_) listed |= (o == op);
    assert(listed && "atomic op not declared in this domain");
    (void)listed;
  }

  // Both issue paths are persona-agnostic: the direct path is a plain CPU
  // atomic plus a completion timer (push_completion_after routes itself home
  // through op_context when the caller is an injector thread), and the AM
  // path is rpc_impl, which serializes caller-side and hands the descriptor
  // over the rank's injection queue. No master-persona assert anywhere — an
  // atomic_domain op from inside an injection_scope just works.
  future<T> fetch_op(atomic_op op, global_ptr<T> p, T a, T b) {
    check(op);
    assert(!p.is_null());
    if (direct_) {
      // "Offloaded": perform the CPU atomic immediately; deliver the result
      // through the progress engine after the simulated round trip (or
      // synchronously on the zero-latency wire, like a NIC doorbell that
      // has already rung).
      T prev = detail::apply_atomic(op, p.local(), a, b);
      if (detail::op_state().sim_latency_ns == 0) return make_future(prev);
      promise<T> pr;
      detail::push_completion_after(2, [pr, prev]() mutable {
        pr.fulfill_result(prev);
      });
      return pr.get_future();
    }
    // Software path: AM to the owner, which applies the op in user progress
    // and replies with the previous value. Atomics are latency-sensitive
    // (callers typically block on the result), so they skip aggregation.
    return detail::rpc_impl(
        p.where(), detail::wire_mode::immediate,
        [](global_ptr<T> gp, int op_i, T a, T b) {
          return detail::apply_atomic(static_cast<atomic_op>(op_i),
                                      gp.local(), a, b);
        },
        p, static_cast<int>(op), a, b);
  }

  future<> update_op(atomic_op op, global_ptr<T> p, T a, T b) {
    check(op);
    assert(!p.is_null());
    if (direct_) {
      detail::apply_atomic(op, p.local(), a, b);
      if (detail::op_state().sim_latency_ns == 0)
        return detail::ready_future();
      promise<> pr;
      pr.require_anonymous(1);
      detail::push_completion_after(2, [pr]() mutable {
        pr.fulfill_anonymous(1);
      });
      return pr.finalize();
    }
    return detail::rpc_impl(
        p.where(), detail::wire_mode::immediate,
        [](global_ptr<T> gp, int op_i, T a, T b) {
          detail::apply_atomic(static_cast<atomic_op>(op_i), gp.local(), a,
                               b);
        },
        p, static_cast<int>(op), a, b);
  }

  std::vector<atomic_op> ops_;
  const team* team_;
  bool direct_ = true;
};

}  // namespace upcxx
