// Typed collectives over the generic reduce/broadcast engine (team.cpp).
//
// The paper lists collectives among UPC++'s asynchronous operation types and
// notes "current work includes adding a rich set of non-blocking collective
// operations"; we provide the set the applications and benchmarks need:
// barrier, broadcast, reduce_one, reduce_all — all future-based.
#pragma once

#include <cstring>
#include <functional>
#include <memory>
#include <type_traits>

#include "upcxx/dist_object.hpp"
#include "upcxx/team.hpp"

namespace upcxx {

// Standard reduction functors (upcxx::op_fast_add etc.).
struct op_fast_add {
  template <typename T>
  T operator()(const T& a, const T& b) const {
    return a + b;
  }
};
struct op_fast_mul {
  template <typename T>
  T operator()(const T& a, const T& b) const {
    return a * b;
  }
};
struct op_fast_min {
  template <typename T>
  T operator()(const T& a, const T& b) const {
    return b < a ? b : a;
  }
};
struct op_fast_max {
  template <typename T>
  T operator()(const T& a, const T& b) const {
    return a < b ? b : a;
  }
};
struct op_fast_bit_or {
  template <typename T>
  T operator()(const T& a, const T& b) const {
    return a | b;
  }
};
struct op_fast_bit_and {
  template <typename T>
  T operator()(const T& a, const T& b) const {
    return a & b;
  }
};

// ------------------------------------------------------------------ barrier

inline future<> barrier_async(const team& tm = world()) {
  // Barrier entry drains this rank's aggregation buffers and forces every
  // pending XferEngine chunk onto the wire: everything sent before the
  // barrier is on the wire — and every RMA issued before the barrier is
  // visible at its target — before any rank can observe the barrier
  // complete (tests/test_aggregation.cpp relies on this ordering). From an
  // injector thread the drains are rank state, so they ship through the
  // rank's injection queue, behind this thread's earlier sends and RMA
  // (which the master has therefore staged or dispatched by the time they
  // run) and ahead of the collective entry that coll_enter queues next.
  detail::op_context::current().run_at_rank([] {
    detail::flush_aggregation();
    detail::drain_xfer_copies();
  });
  promise<> pr;
  detail::CollOps ops;
  ops.up = true;
  ops.down = true;
  ops.combine = [](std::vector<std::byte>&, detail::Reader&) {};
  ops.deliver = [pr](detail::Reader&) mutable { pr.fulfill_anonymous(1); };
  pr.require_anonymous(1);
  detail::coll_enter(tm, 0, {}, std::move(ops));
  return pr.finalize();
}

inline void barrier(const team& tm) { barrier_async(tm).wait(); }
inline void barrier() { barrier(world()); }

// ---------------------------------------------------------------- broadcast

// Broadcasts a serializable value from team rank `root`; everyone (root
// included) receives it through the returned future.
template <typename T>
future<T> broadcast(T value, intrank_t root, const team& tm = world()) {
  promise<T> pr;
  detail::CollOps ops;
  ops.up = false;
  ops.down = true;
  ops.deliver = [pr](detail::Reader& r) mutable {
    pr.fulfill_result(serialization<std::decay_t<T>>::deserialize(r));
  };
  detail::VectorArchive contrib;
  if (tm.rank_me() == root)
    serialization<std::decay_t<T>>::serialize(contrib, value);
  detail::coll_enter(tm, root, std::move(contrib).take(), std::move(ops));
  return pr.get_future();
}

// Bulk broadcast: replicates buf[0..n) from root into every rank's buf.
template <typename T>
future<> broadcast(T* buf, std::size_t n, intrank_t root,
                   const team& tm = world()) {
  static_assert(std::is_trivially_copyable_v<T>,
                "bulk broadcast requires a trivially copyable type");
  promise<> pr;
  pr.require_anonymous(1);
  detail::CollOps ops;
  ops.up = false;
  ops.down = true;
  ops.deliver = [pr, buf, n](detail::Reader& r) mutable {
    if (n) std::memcpy(buf, r.raw(n * sizeof(T)), n * sizeof(T));
    pr.fulfill_anonymous(1);
  };
  std::vector<std::byte> contrib;
  if (tm.rank_me() == root && n) {
    contrib.resize(n * sizeof(T));
    std::memcpy(contrib.data(), buf, n * sizeof(T));
  }
  detail::coll_enter(tm, root, std::move(contrib), std::move(ops));
  return pr.finalize();
}

// ------------------------------------------------------------------- reduce

namespace detail {

template <typename T, typename BinaryOp>
future<T> reduce_generic(T value, BinaryOp op, intrank_t root, const team& tm,
                         bool all) {
  static_assert(std::is_trivially_copyable_v<T>,
                "reductions require a trivially copyable type");
  promise<T> pr;
  CollOps ops;
  ops.up = true;
  ops.down = all;
  ops.combine = [op](std::vector<std::byte>& accum, Reader& r) mutable {
    T a;
    std::memcpy(&a, accum.data(), sizeof(T));
    T b = r.pod<T>();
    a = op(a, b);
    std::memcpy(accum.data(), &a, sizeof(T));
  };
  ops.deliver = [pr](Reader& r) mutable {
    if (r.remaining() >= sizeof(T)) {
      pr.fulfill_result(r.pod<T>());
    } else {
      // Non-root rank of a rooted reduction: value unspecified (as in
      // UPC++); deliver a default-constructed T.
      pr.fulfill_result(T{});
    }
  };
  std::vector<std::byte> contrib(sizeof(T) + 8);
  // Match the wire framing combine/deliver expect: align(8)+pod.
  WriteArchive wa(contrib.data());
  serialization<T>::serialize(wa, value);
  contrib.resize(wa.written());
  coll_enter(tm, root, std::move(contrib), std::move(ops));
  return pr.get_future();
}

}  // namespace detail

// Reduction to one rank: the result is delivered at team rank `root`
// (other ranks' futures carry an unspecified — here default — value).
template <typename T, typename BinaryOp>
future<T> reduce_one(T value, BinaryOp op, intrank_t root,
                     const team& tm = world()) {
  return detail::reduce_generic(value, op, root, tm, /*all=*/false);
}

// Reduction delivered to every rank.
template <typename T, typename BinaryOp>
future<T> reduce_all(T value, BinaryOp op, const team& tm = world()) {
  return detail::reduce_generic(value, op, 0, tm, /*all=*/true);
}

// ------------------------------------------------------- gather/allgather
//
// Part of the "rich set of non-blocking collective operations" the paper
// lists as current work. Contributions are tagged with the contributor's
// team rank on the wire, accumulated up the tree, and (for allgather)
// broadcast back down; the deliverer reassembles rank order.

namespace detail {

template <typename T>
future<std::vector<T>> gather_generic(const T& value, intrank_t root,
                                      const team& tm, bool all) {
  promise<std::vector<T>> pr;
  const int P = tm.rank_n();
  CollOps ops;
  ops.up = true;
  ops.down = all;
  // Accumulator: concatenated [rank, serialized value] records.
  ops.combine = [](std::vector<std::byte>& accum, Reader& r) {
    const std::size_t n = r.remaining();
    const std::size_t at = accum.size();
    accum.resize(at + n);
    std::memcpy(accum.data() + at, r.raw(n), n);
  };
  ops.deliver = [pr, P](Reader& r) mutable {
    std::vector<T> out(static_cast<std::size_t>(P));
    std::vector<bool> seen(static_cast<std::size_t>(P), false);
    while (r.remaining() > 0) {
      const auto rank = r.pod<std::uint32_t>();
      T v = serialization<std::decay_t<T>>::deserialize(r);
      assert(rank < static_cast<std::uint32_t>(P) && !seen[rank]);
      seen[rank] = true;
      out[rank] = std::move(v);
      r.align(8);  // records are 8-aligned back to back
    }
    if (r.remaining() == 0 && !seen.empty()) {
      // Root of a rooted gather sees everything; non-roots see nothing and
      // deliver an empty vector (checked by the caller).
      bool complete = true;
      for (bool s : seen) complete &= s;
      if (!complete) {
        pr.fulfill_result(std::vector<T>{});
        return;
      }
    }
    pr.fulfill_result(std::move(out));
  };
  // My contribution record: [team rank][value], 8-aligned.
  VectorArchive contrib;
  serialization<std::uint32_t>::serialize(
      contrib, static_cast<std::uint32_t>(tm.rank_me()));
  serialization<std::decay_t<T>>::serialize(contrib, value);
  contrib.align(8);
  coll_enter(tm, root, std::move(contrib).take(), std::move(ops));
  return pr.get_future();
}

}  // namespace detail

// Gathers one value per rank; the vector (indexed by team rank) is
// delivered at `root` (non-root futures carry an empty vector).
template <typename T>
future<std::vector<T>> gather(const T& value, intrank_t root,
                              const team& tm = world()) {
  return detail::gather_generic(value, root, tm, /*all=*/false);
}

// Gathers one value per rank and delivers the full vector everywhere.
template <typename T>
future<std::vector<T>> allgather(const T& value, const team& tm = world()) {
  return detail::gather_generic(value, 0, tm, /*all=*/true);
}

// Inclusive prefix scan: rank i receives op(v_0, ..., v_i). Built on
// allgather (fine at the team sizes a single node hosts; a tree scan is a
// drop-in replacement behind the same signature).
template <typename T, typename BinaryOp>
future<T> scan_inclusive(T value, BinaryOp op, const team& tm = world()) {
  static_assert(std::is_trivially_copyable_v<T>);
  const intrank_t me = tm.rank_me();
  return allgather(value, tm).then([me, op](std::vector<T>& all) {
    T acc = all[0];
    for (intrank_t i = 1; i <= me; ++i) acc = op(acc, all[i]);
    return acc;
  });
}

// Exclusive prefix scan: rank i receives op(v_0, ..., v_{i-1}); rank 0
// receives a value-initialized T (as with MPI_Exscan, whose rank-0 result is
// undefined — we pin it for testability).
template <typename T, typename BinaryOp>
future<T> scan_exclusive(T value, BinaryOp op, const team& tm = world()) {
  static_assert(std::is_trivially_copyable_v<T>);
  const intrank_t me = tm.rank_me();
  return allgather(value, tm).then([me, op](std::vector<T>& all) {
    if (me == 0) return T{};
    T acc = all[0];
    for (intrank_t i = 1; i < me; ++i) acc = op(acc, all[i]);
    return acc;
  });
}

// ------------------------------------------------- bulk elementwise reduce

namespace detail {

template <typename T, typename BinaryOp>
future<> reduce_bulk_generic(const T* src, T* dst, std::size_t n, BinaryOp op,
                             intrank_t root, const team& tm, bool all) {
  static_assert(std::is_trivially_copyable_v<T>,
                "bulk reductions require a trivially copyable type");
  promise<> pr;
  pr.require_anonymous(1);
  const bool i_receive = all || tm.rank_me() == root;
  CollOps ops;
  ops.up = true;
  ops.down = all;
  ops.combine = [n, op](std::vector<std::byte>& accum, Reader& r) mutable {
    auto* a = reinterpret_cast<T*>(accum.data());
    const T* b = static_cast<const T*>(r.raw(n * sizeof(T)));
    for (std::size_t i = 0; i < n; ++i) a[i] = op(a[i], b[i]);
  };
  ops.deliver = [pr, dst, n, i_receive](Reader& r) mutable {
    if (n && i_receive && r.remaining() >= n * sizeof(T))
      std::memcpy(dst, r.raw(n * sizeof(T)), n * sizeof(T));
    pr.fulfill_anonymous(1);
  };
  std::vector<std::byte> contrib(n * sizeof(T));
  if (n) std::memcpy(contrib.data(), src, n * sizeof(T));
  coll_enter(tm, root, std::move(contrib), std::move(ops));
  return pr.finalize();
}

}  // namespace detail

// Elementwise reduction of src[0..n) into dst[0..n) at team rank `root`
// (dst untouched elsewhere). src and dst may alias.
template <typename T, typename BinaryOp>
future<> reduce_one(const T* src, T* dst, std::size_t n, BinaryOp op,
                    intrank_t root, const team& tm = world()) {
  return detail::reduce_bulk_generic(src, dst, n, op, root, tm,
                                     /*all=*/false);
}

// Elementwise reduction delivered into every rank's dst.
template <typename T, typename BinaryOp>
future<> reduce_all(const T* src, T* dst, std::size_t n, BinaryOp op,
                    const team& tm = world()) {
  return detail::reduce_bulk_generic(src, dst, n, op, 0, tm, /*all=*/true);
}

// -------------------------------------------------------------- alltoall
//
// Personalized exchange: send[j] goes to team rank j; the future carries
// recv with recv[i] = the value team rank i sent here. Implemented with the
// point-to-point strategy the paper's extend-add uses (one RPC per peer,
// counted by a promise) rather than a rooted tree — the same design choice
// MUMPS makes versus STRUMPACK's collective (§IV-D). T may be any
// serializable type, including std::vector (yielding an alltoallv).

template <typename T>
future<std::vector<T>> alltoall(const std::vector<T>& send,
                                const team& tm = world()) {
  const int P = tm.rank_n();
  assert(static_cast<int>(send.size()) == P &&
         "alltoall: one value per team rank");
  struct State {
    std::vector<T> recv;
    promise<> pr;
  };
  auto st = std::make_shared<State>();
  st->recv.resize(static_cast<std::size_t>(P));
  st->pr.require_anonymous(P);
  // The dist_object gives peers a name for this call's state; construction
  // order is collective, so ids agree. An early peer RPC parks until our
  // representative exists (dist_object requeue semantics).
  auto dobj = std::make_shared<dist_object<std::shared_ptr<State>>>(st, tm);
  const int me = tm.rank_me();
  st->recv[me] = send[me];
  st->pr.fulfill_anonymous(1);
  for (int j = 0; j < P; ++j) {
    if (j == me) continue;
    rpc_ff(tm[j],
           [](dist_object<std::shared_ptr<State>>& d, int from, const T& v) {
             (*d)->recv[from] = v;
             (*d)->pr.fulfill_anonymous(1);
           },
           *dobj, me, send[j]);
  }
  // dobj is captured so the representative outlives all inbound RPCs: the
  // promise fulfills on exactly the last one.
  return st->pr.finalize().then(
      [st, dobj] { return std::move(st->recv); });
}

}  // namespace upcxx
