// oldupcxx: a UPC++ v0.1-style API layer (paper §V-A, Fig 9).
//
// The paper compares symPACK built on the *predecessor* UPC++ (Zheng et al.
// 2014) against the v1.0 redesign, finding near-identical performance — the
// point being that the richer futures model costs nothing. To reproduce that
// experiment we implement the v0.1 idioms over the same runtime:
//
//   * `event` — readiness-only completion object with *explicit lifetime
//     management* (the burden §V-A calls out). Events count registered
//     operations and are waited on or tested; they carry no values and
//     cannot be chained.
//   * `async(rank, &event)(fn, args...)` — remote task launch; the callable
//     cannot return a value to the initiator (asyncs "could not" — §V-A).
//   * `allocate<T>(rank, n)` — *blocking* remote allocation (the v0.1 DHT
//     insert needs this; §V-A notes it hurts latency).
//   * `async_copy(src, dst, n, &event)` — one-sided copy with event
//     completion; no operation chaining, no completion handlers.
//   * `async_wait()` — drain all outstanding implicit-event operations.
#pragma once

#include <cassert>
#include <cstdint>

#include "gex/wait.hpp"
#include "upcxx/upcxx.hpp"

namespace oldupcxx {

using upcxx::global_ptr;

// Readiness-only completion object. Unlike v1.0 futures, the user owns the
// event and must keep it alive until every registered operation signals.
class event {
 public:
  event() = default;
  event(const event&) = delete;
  event& operator=(const event&) = delete;

  ~event() {
    assert(pending_ == 0 &&
           "event destroyed with operations outstanding (v0.1 lifetime bug)");
  }

  bool isdone() const { return pending_ == 0; }

  // Spins user progress until every registered operation has signaled.
  // Throws upcxx::rank_failed once a rank of the job has died, like a v1.0
  // future::wait: an operation that depends on a dead rank never signals.
  void wait() {
    if (!gex::wait_until([this] { return pending_ == 0; }, [] {
          return upcxx::detail::progress_work(upcxx::progress_level::user);
        }))
      upcxx::detail::throw_rank_failed();
  }

  bool test() {
    upcxx::progress();
    return pending_ == 0;
  }

  // Internal: operation registration/signaling.
  void incref() { ++pending_; }
  void decref() {
    assert(pending_ > 0);
    --pending_;
  }

 private:
  int pending_ = 0;
};

namespace detail {

// Signals `e` on the initiating rank once a remote ack arrives. Events are
// persona-local raw pointers, valid because v0.1 requires the user to keep
// the event alive (asserted in ~event).
inline void signal_local(event* e) {
  if (e) e->decref();
}

}  // namespace detail

// The default "implicit" event tracking fire-and-forget asyncs, drained by
// async_wait() — v0.1 programs often relied on this global sink.
event& system_event();

// Launcher object: async(rank, &e)(fn, args...).
class async_launcher {
 public:
  async_launcher(upcxx::intrank_t target, event* done)
      : target_(target), done_(done) {}

  template <typename F, typename... Args>
  void operator()(F fn, Args&&... args) {
    static_assert(std::is_trivially_copyable_v<F>,
                  "v0.1 async callables must be shippable");
    event* e = done_ ? done_ : &system_event();
    e->incref();
    // v0.1 asyncs cannot return values; completion is ack-only.
    upcxx::rpc(target_, std::move(fn), std::forward<Args>(args)...)
        .then([e] { detail::signal_local(e); });
  }

 private:
  upcxx::intrank_t target_;
  event* done_;
};

inline async_launcher async(upcxx::intrank_t target, event* done = nullptr) {
  return async_launcher(target, done);
}

// Drains every operation registered on the implicit system event.
inline void async_wait() { system_event().wait(); }

// Blocking remote allocation (v0.1 semantics; §V-A: "incurs both a blocking
// remote allocation and a blocking RMA").
template <typename T>
global_ptr<T> allocate(upcxx::intrank_t rank, std::size_t count) {
  if (rank == upcxx::rank_me()) return upcxx::allocate<T>(count);
  return upcxx::rpc(rank,
                    [](std::uint64_t n) {
                      return upcxx::allocate<T>(static_cast<std::size_t>(n));
                    },
                    static_cast<std::uint64_t>(count))
      .wait();
}

template <typename T>
void deallocate(global_ptr<T> g) {
  if (g.is_null()) return;
  if (g.where() == upcxx::rank_me()) {
    upcxx::deallocate(g);
    return;
  }
  upcxx::rpc(g.where(), [](global_ptr<T> p) { upcxx::deallocate(p); }, g)
      .wait();
}

// One-sided copy between any combination of local/remote global pointers,
// completion signaled on `done` (or the system event).
template <typename T>
void async_copy(global_ptr<T> src, global_ptr<T> dst, std::size_t count,
                event* done = nullptr) {
  event* e = done ? done : &system_event();
  e->incref();
  // Data motion on the shared arena is a memcpy either way; completion goes
  // through the progress engine like any v1.0 RMA.
  upcxx::rput(src.local(), dst, count,
              upcxx::operation_cx::as_lpc([e] { detail::signal_local(e); }));
}

// Blocking copy (v0.1 upcxx::copy).
template <typename T>
void copy(global_ptr<T> src, global_ptr<T> dst, std::size_t count) {
  event e;
  async_copy(src, dst, count, &e);
  e.wait();
}

// v0.1 barrier.
inline void barrier() { upcxx::barrier(); }

}  // namespace oldupcxx
