#include "upcxx/persona.hpp"

#include <climits>
#include <vector>

#include "gex/runtime.hpp"
#include "upcxx/progress.hpp"

namespace upcxx {
namespace detail {

// NOTE: inside namespace detail the unqualified name `persona` denotes the
// rank-state accessor function detail::persona(); the class is spelled
// ::upcxx::persona throughout this file.

namespace {

// The stack of personas held by this thread, bottom first. The default
// persona is lazily pushed on first use so plain threads (not spawned by the
// runtime) can participate.
thread_local std::vector<::upcxx::persona*> tls_stack;
thread_local ::upcxx::persona tls_default_persona;

}  // namespace

void ensure_default_persona() {
  if (tls_stack.empty()) {
    tls_default_persona.owner_.store(thread_marker(),
                                     std::memory_order_release);
    tls_stack.push_back(&tls_default_persona);
  }
}

const void* thread_marker() {
  return static_cast<const void*>(&tls_default_persona);
}

void persona_stack_push(::upcxx::persona* p) {
  ensure_default_persona();
  tls_stack.push_back(p);
}

void persona_stack_pop(::upcxx::persona* p) {
  assert(!tls_stack.empty() && tls_stack.back() == p &&
         "persona_scope released out of LIFO order");
  (void)p;
  tls_stack.pop_back();
}

bool persona_stack_contains(const ::upcxx::persona* p) {
  for (const ::upcxx::persona* q : tls_stack)
    if (q == p) return true;
  return false;
}

int drain_persona_inboxes() {
  ensure_default_persona();
  // Index-based walk: an LPC body may acquire/release personas (mutating
  // the stack) or call progress() re-entrantly — the inbox unlinks each
  // LPC before running it, so a nested drain simply continues after it.
  // The empty probe keeps the common idle case free of stores.
  int ran = 0;
  for (std::size_t i = 0; i < tls_stack.size(); ++i) {
    ::upcxx::persona* p = tls_stack[i];
    if (p->inbox_.empty_hint()) continue;
    const int n = p->inbox_.run(INT_MAX);
    p->lpcs_executed_.fetch_add(static_cast<std::uint64_t>(n),
                                std::memory_order_relaxed);
    ran += n;
  }
  return ran;
}

void adopt_master(::upcxx::persona& p, PersonaState* st) {
  ensure_default_persona();
  p.rank_state_ = st;
  p.owner_.store(thread_marker(), std::memory_order_release);
  tls_stack.push_back(&p);
}

void drop_master(::upcxx::persona& p) {
  assert(!tls_stack.empty() && tls_stack.back() == &p &&
         "rank teardown requires the master persona on top of the "
         "primordial thread's stack");
  tls_stack.pop_back();
  p.owner_.store(nullptr, std::memory_order_release);
  p.rank_state_ = nullptr;
}

}  // namespace detail

persona& default_persona() {
  detail::ensure_default_persona();
  return detail::tls_default_persona;
}

persona& current_persona() {
  detail::ensure_default_persona();
  return *detail::tls_stack.back();
}

persona& master_persona() {
  auto* st = detail::rank_context();
  assert(st && "master_persona(): no rank context on this thread; pass a "
               "persona& from the rank's primordial thread instead");
  return detail::master_of(*st);
}

void liberate_master_persona() {
  persona& m = master_persona();
  assert(m.active_with_caller() && &current_persona() == &m &&
         "liberate_master_persona(): caller must hold the master persona as "
         "its current persona");
  detail::persona_stack_pop(&m);
  m.owner_.store(nullptr, std::memory_order_release);
  detail::bind_rank_context(nullptr);
}

void reacquire_master_persona(persona& m) {
  assert(m.rank_state_ && "reacquire_master_persona(): not a master persona");
  assert(m.owner_.load(std::memory_order_acquire) == nullptr &&
         "reacquire_master_persona(): the master persona is still held");
  detail::adopt_master(m, m.rank_state_);
  detail::bind_rank_context(m.rank_state_);
}

void persona_scope::acquire() {
  const void* me = detail::thread_marker();
  const void* expected = nullptr;
  if (!p_->owner_.compare_exchange_strong(expected, me,
                                          std::memory_order_acq_rel)) {
    assert(expected == me &&
           "persona_scope: persona is held by another thread (liberate it "
           "first, or serialize with the mutex overload)");
  }
  detail::persona_stack_push(p_);
  // Acquiring a master persona migrates the rank context to this thread.
  if (p_->rank_state_) detail::bind_rank_context(p_->rank_state_);
}

void persona_scope::release() {
  detail::persona_stack_pop(p_);
  if (!detail::persona_stack_contains(p_)) {
    p_->owner_.store(nullptr, std::memory_order_release);
    if (p_->rank_state_) detail::bind_rank_context(nullptr);
  }
}

}  // namespace upcxx
