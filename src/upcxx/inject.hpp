// Thread-safe op injection: initiate ops from app threads.
//
// The persona discipline (persona.hpp) says communication is initiated
// only by the thread holding the rank's master persona; worker threads
// post LPCs to it. That serializes every initiation through one thread —
// exactly the bottleneck a serving workload with many app threads hits.
// This header is the sanctioned bypass: an `injector` captures the rank's
// runtime state on a thread that has the rank context, and an
// `injection_scope` binds it to an app thread, after which that thread may
// call rpc/rpc_ff, rput/rget (contiguous, irregular, strided), copy,
// collectives (barrier/broadcast/reduce/allgather/...), atomic_domain
// operations, and dist_object::fetch directly. Every public entry point
// routes through detail::op_context (progress.hpp): *state stays put;
// descriptors cross over; completions cross back.* Under the hood:
//
//   * Small sync RMA against the direct wire completes entirely on the
//     calling thread (the same zero-allocation memcpy fast path the
//     master uses — this is where multi-thread injection scales), as do
//     direct-backend atomics (a CPU atomic is a CPU atomic).
//   * Everything else is prepared caller-side (serialization, completion
//     state, collective fold/deliver closures) and handed to the rank
//     through block MPSC queues (arch::MpscQueue: records built in place,
//     no allocation in steady state) — the thread-hash-sharded submit
//     queue (PersonaState::submit_shards, kSubmitShards of them) for
//     engine dispatches, the wire shards for serialized sends — all
//     drained by the one thread holding the rank context, inside its
//     progress calls (the wire drain packs small messages into
//     Aggregator frames).
//   * Completions ship back to the initiating thread's own persona inbox,
//     so the returned futures/promises stay persona-affine: they become
//     ready during *this thread's* upcxx::progress() / future::wait()
//     calls, never concurrently from another thread.
//
// Still master-persona-only: team/dist_object/atomic_domain *construction*
// and destruction (collective setup, like upcxx::init itself). Collectives
// injected from several threads concurrently must be issued symmetrically
// across ranks, the same rule real UPC++ imposes on unordered collectives
// over one team; one thread's collectives stay FIFO through its submit
// shard, so per-thread sequences agree rank-to-rank.
//
// Lifetime: the injector must not outlive the SPMD region that created
// it, and every injection_scope must be destroyed (thread joined or scope
// exited) before fini_persona tears the rank down — the final barrier in
// upcxx::run only quiesces work that has already been submitted.
#pragma once

#include <cassert>

#include "upcxx/progress.hpp"

namespace upcxx {

// Capability handle to a rank's runtime state. Create it on a thread that
// has the rank context (the primordial thread, or a holder of the master
// persona); hand copies to app threads. Copyable and cheap — it is just a
// pointer whose validity is the SPMD region's lifetime.
class injector {
 public:
  injector() : st_(&detail::persona()) {}

 private:
  friend class injection_scope;
  detail::PersonaState* st_;
};

// RAII binding of an injector to the calling thread. While alive, this
// thread may initiate operations off-persona (see header comment). Not
// nestable, and invalid on a thread that already has a rank context (the
// master's thread initiates directly and must not shadow itself).
class injection_scope {
 public:
  explicit injection_scope(const injector& inj) {
    assert(!detail::has_persona() &&
           "injection_scope on a thread that already has the rank context");
    assert(!detail::inject_context() && "injection_scope is not nestable");
    detail::bind_inject_context(inj.st_);
  }

  ~injection_scope() { detail::bind_inject_context(nullptr); }

  injection_scope(const injection_scope&) = delete;
  injection_scope& operator=(const injection_scope&) = delete;
};

}  // namespace upcxx
