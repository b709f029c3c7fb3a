// Personas — the UPC++ notion of a thread of execution within a rank.
//
// The paper (§II) notes that futures and promises "are used to manage
// asynchronous dependencies within a thread and not for direct communication
// between threads or processes". Personas are the spec's mechanism that makes
// that rule usable in multithreaded ranks: every thread owns a *default
// persona*, each rank owns a distinguished *master persona*, and threads
// exchange work by posting LPCs (local procedure calls) to each other's
// persona inboxes — the one deliberately thread-safe entry point.
//
// Discipline reproduced from the spec (SEQ thread mode, which is what the
// paper's experiments use):
//   * Communication (rput/rget/rpc/atomics/collectives) may be initiated only
//     by the thread currently holding the rank's master persona. Worker
//     threads request communication by posting an LPC to the master persona.
//   * upcxx::progress() run by the master-holding thread polls the wire and
//     drains the rank-level queues; run by any other thread it drains only
//     the inboxes of the personas that thread holds.
//   * The master persona may migrate: the holder calls
//     liberate_master_persona(), and another thread of the same rank acquires
//     it with a persona_scope. While held elsewhere, the original thread must
//     not communicate.
//
// future/promise objects remain persona-affine and not thread-safe; an LPC
// with a result ships the *values* across threads and fulfills a future
// belonging to the calling persona, on the calling persona's thread.
#pragma once

#include <atomic>
#include <cassert>
#include <tuple>
#include <type_traits>
#include <utility>

#include "arch/mpsc_queue.hpp"
#include "arch/small_fn.hpp"
#include "upcxx/future.hpp"

namespace upcxx {

class persona;
class persona_scope;

namespace detail {

struct PersonaState;  // rank-level runtime state (progress.hpp)
using Lpc = arch::UniqueFunction<void()>;

// Opaque identity of the calling thread (address of a thread-local).
const void* thread_marker();

// Lazily creates the calling thread's default persona and stack.
void ensure_default_persona();

// The calling thread's persona stack manipulation (persona.cpp).
void persona_stack_push(persona* p);
void persona_stack_pop(persona* p);
bool persona_stack_contains(const persona* p);

// Runs the queued LPCs of every persona the calling thread holds (those
// queued when each inbox's drain began). Called from user-level progress;
// returns the number run.
int drain_persona_inboxes();

// Master-persona plumbing used by init_persona()/fini_persona().
void adopt_master(persona& p, PersonaState* st);
void drop_master(persona& p);

// Rank-context rebinding when the master persona migrates (progress.cpp).
void bind_rank_context(PersonaState* st);
PersonaState* rank_context();

}  // namespace detail

// A persona: an inbox of deferred work plus an owning-thread marker. The
// inbox is an arch::MpscQueue: any thread pushes an LPC (constructed in
// place in the queue's current block — no allocation in steady state, no
// lock beyond the queue's producer cursor), and only the thread holding
// the persona runs them, in FIFO order, during its progress calls.
class persona {
 public:
  persona() = default;
  persona(const persona&) = delete;
  persona& operator=(const persona&) = delete;
  ~persona() = default;

  // True if the calling thread currently holds this persona.
  bool active_with_caller() const {
    return owner_.load(std::memory_order_acquire) == detail::thread_marker();
  }

  // Fire-and-forget LPC: schedules fn to run during a progress call made by
  // whichever thread holds this persona. Thread-safe; may be called by any
  // thread, with or without a rank context.
  template <typename Fn>
  void lpc_ff(Fn&& fn) {
    inbox_.push(std::forward<Fn>(fn));
  }

  // LPC with a result: fn runs on this persona; its result is shipped back
  // and fulfills a future belonging to the *calling* persona, delivered on
  // the calling persona's thread. fn's result must be movable; a
  // future-returning fn is unwrapped on the target persona first.
  template <typename Fn>
  auto lpc(Fn&& fn)
      -> detail::future_from_result_t<std::invoke_result_t<Fn>>;

  // Number of LPCs this persona has executed (observable progress for tests
  // and benches; relaxed counter).
  std::uint64_t lpcs_executed() const {
    return lpcs_executed_.load(std::memory_order_relaxed);
  }

 private:
  friend class persona_scope;
  friend void detail::ensure_default_persona();
  friend void detail::persona_stack_push(persona*);
  friend void detail::persona_stack_pop(persona*);
  friend int detail::drain_persona_inboxes();
  friend void detail::adopt_master(persona&, detail::PersonaState*);
  friend void detail::drop_master(persona&);
  friend void liberate_master_persona();

  // Every user-level progress call on every thread probes this inbox
  // (MpscQueue::empty_hint: two loads, no lock) before draining it.
  arch::MpscQueue inbox_;
  std::atomic<const void*> owner_{nullptr};
  std::atomic<std::uint64_t> lpcs_executed_{0};
  // Non-null only on a rank's master persona: holding it carries the right
  // (and obligation) to progress the rank-level queues.
  detail::PersonaState* rank_state_ = nullptr;
};

// The calling thread's default persona (created on first use, always at the
// bottom of the thread's persona stack).
persona& default_persona();

// The persona at the top of the calling thread's stack: the one new
// asynchronous operations are registered on.
persona& current_persona();

// The rank's master persona. Requires a rank context on the calling thread
// (i.e. the caller is the rank's primordial thread or currently holds the
// master persona); worker threads should instead receive a persona& from
// their spawner before the master is liberated.
persona& master_persona();

// Releases the master persona from the calling thread (which must hold it as
// its current persona) so another thread may acquire it via persona_scope.
// The rank context is unbound: this thread must not communicate until it
// re-acquires the master persona.
void liberate_master_persona();

// RAII acquisition of a persona onto the calling thread's stack. Acquiring a
// persona owned by another thread is a programming error (assert); use the
// mutex overload when several threads contend for one persona.
class persona_scope {
 public:
  explicit persona_scope(persona& p) : p_(&p) { acquire(); }

  // Locks mu before acquiring and unlocks after release, serializing
  // contending threads (mirrors upcxx::persona_scope(mutex, persona)).
  template <typename Mutex>
  persona_scope(Mutex& mu, persona& p) : p_(&p) {
    mu.lock();
    unlock_ = [&mu] { mu.unlock(); };
    acquire();
  }

  ~persona_scope() {
    release();
    if (unlock_) unlock_();
  }

  persona_scope(const persona_scope&) = delete;
  persona_scope& operator=(const persona_scope&) = delete;

 private:
  void acquire();
  void release();

  persona* p_;
  arch::UniqueFunction<void()> unlock_;
};

template <typename Fn>
auto persona::lpc(Fn&& fn)
    -> detail::future_from_result_t<std::invoke_result_t<Fn>> {
  using R = std::invoke_result_t<Fn>;
  using Fut = detail::future_from_result_t<R>;
  auto st = std::make_shared<typename Fut::state_t>();
  persona* reply_to = &current_persona();
  lpc_ff([st, reply_to, f = std::forward<Fn>(fn)]() mutable {
    if constexpr (std::is_void_v<R>) {
      f();
      reply_to->lpc_ff([st] {
        st->value.emplace();
        st->retire_deps(1);
      });
    } else if constexpr (detail::is_future_v<R>) {
      // Unwrap on the target persona, then ship the values.
      f().then_raw([st, reply_to](auto&... vals) {
        auto tup = std::make_tuple(vals...);
        reply_to->lpc_ff([st, tup = std::move(tup)]() mutable {
          st->value.emplace(std::move(tup));
          st->retire_deps(1);
        });
      });
    } else {
      auto v = f();
      reply_to->lpc_ff([st, v = std::move(v)]() mutable {
        st->value.emplace(std::move(v));
        st->retire_deps(1);
      });
    }
  });
  return Fut(st);
}

}  // namespace upcxx
