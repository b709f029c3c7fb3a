#include "upcxx/progress.hpp"

#include <atomic>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>

#include "arch/fixed_registry.hpp"

#include "arch/timer.hpp"
#include "gex/rma_am.hpp"
#include "gex/xfer.hpp"
#include "upcxx/collectives.hpp"
#include "upcxx/team.hpp"

namespace upcxx {

rank_failed::rank_failed()
    : std::runtime_error(
          "upcxx: a peer rank failed; the awaited operation may never "
          "complete") {}

namespace detail {

namespace {
thread_local PersonaState* tls_persona = nullptr;
// Injection binding (upcxx::injection_scope): lets an app thread without a
// rank context reach the rank state's thread-safe subset. Never set on a
// thread that also has tls_persona (the scope asserts).
thread_local PersonaState* tls_inject = nullptr;
}

PersonaState& persona() {
  assert(tls_persona &&
         "no rank context: call inside upcxx::run(), from the thread "
         "holding the master persona");
  return *tls_persona;
}

bool has_persona() { return tls_persona != nullptr; }

PersonaState& op_state() {
  if (tls_persona) return *tls_persona;
  assert(tls_inject &&
         "no rank or injection context: initiate operations from the "
         "master persona's thread, or bind an upcxx::injection_scope");
  return *tls_inject;
}

bool has_op_state() { return tls_persona != nullptr || tls_inject != nullptr; }

void bind_inject_context(PersonaState* st) { tls_inject = st; }

PersonaState* inject_context() { return tls_inject; }

void throw_rank_failed() { throw rank_failed(); }

void bind_rank_context(PersonaState* st) {
  tls_persona = st;
  gex::bind_self(st ? st->rank : nullptr);
}

PersonaState* rank_context() { return tls_persona; }

void push_compq(Lpc fn) {
  if (tls_persona) {
    tls_persona->compq.push_back(std::move(fn));
    return;
  }
  // Completion-shard routing: an off-persona initiator's "compQ" is its
  // own persona inbox, drained by this thread's user-level progress — so
  // the scheduled fn (promise fulfillment, .then callback) still runs
  // persona-affine, with no rank-global lock involved.
  current_persona().lpc_ff(std::move(fn));
}

void push_completion_after(std::uint64_t wire_hops, Lpc fn) {
  push_completion_after_ns(wire_hops * op_state().sim_latency_ns,
                           std::move(fn));
}

void push_completion_after_ns(std::uint64_t delay_ns, Lpc fn) {
  if (!tls_persona) {
    if (delay_ns == 0) {
      current_persona().lpc_ff(std::move(fn));
      return;
    }
    // The timed queue is master-owned: route the timer through the master
    // persona and ship the firing back to the initiating persona, where
    // fn's captured completion state lives.
    const op_context cx = op_context::current();
    cx.run_at_rank([cx, delay_ns, fn = std::move(fn)]() mutable {
      cx.complete_after_ns(delay_ns, std::move(fn));
    });
    return;
  }
  auto& p = *tls_persona;
  if (delay_ns == 0) {
    p.compq.push_back(std::move(fn));
    return;
  }
  p.timed.push(
      TimedEntry{arch::now_ns() + delay_ns, p.timed_seq++, std::move(fn)});
}

// ------------------------------------------------- MPSC injection hand-off

int drain_injectq(PersonaState& st) {
  assert(tls_persona == &st && "the injection queue's consumer needs the "
                               "rank context");
  bool sent = false;
  const int n = st.injectq.drain(64, [&](const arch::MpscQueue::Record& r) {
    send_wire(static_cast<int>(r.tag), r.size, wire_mode::aggregated,
              [&](std::byte* p) { std::memcpy(p, r.data, r.size); });
    sent = true;
  });
  // Everything this drain staged leaves now, ahead of any later send.
  if (sent) st.rank->agg->flush_all();
  return n;
}

// ----------------------------------------------------- dispatch registry

namespace {

// Same fixed-slot registry as the gex AM handler table, one level up.
// Registration happens during static init (DispatchReg), so in practice the
// table is immutable by the time ranks communicate.
arch::FixedRegistry<DispatchFn, 4096>& dispatch_registry() {
  static arch::FixedRegistry<DispatchFn, 4096> r;
  return r;
}

}  // namespace

DispatchIdx register_dispatch(DispatchFn fn) {
  return static_cast<DispatchIdx>(
      dispatch_registry().add(fn, nullptr, "upcxx dispatch"));
}

DispatchFn dispatch_at(DispatchIdx idx) {
  return dispatch_registry().at(idx, "upcxx dispatch");
}

std::size_t dispatch_count() { return dispatch_registry().count(); }

void flush_aggregation() {
  if (!has_persona()) return;
  persona().rank->agg->flush_all();
}

void drain_xfer_copies() {
  if (!has_persona()) return;
  auto* rank = persona().rank;
  // Barrier-entry contract: every RMA issued before the barrier must be in
  // its target's inbox before our barrier message goes out. On the am wire
  // the engine's drain stops at the credit window, so keep pumping acks
  // (which retire credits) until the channels are empty. Peers draining
  // toward the same barrier serve our requests from their own loops, so
  // this terminates — unless a peer died: its acks will never come, and
  // the teardown path cancels.
  (void)gex::wait_until(
      [rank] {
        rank->xfer->drain_copies();
        return !rank->xfer->copies_pending();
      },
      [rank] { return rank->am->poll() + rank->rma_am->poll(); });
}

// Schedules a delivery for user-level progress (the paper's "insert into
// the target's compQ", Fig 2): now, or no earlier than send time + one
// wire hop under simulated latency.
template <typename Run>
void deliver_at_user_progress(PersonaState& p, std::uint64_t send_ns,
                              Run&& run) {
  if (p.sim_latency_ns == 0)
    p.compq.push_back(std::forward<Run>(run));
  else
    p.timed.push(TimedEntry{send_ns + p.sim_latency_ns, p.timed_seq++,
                            std::forward<Run>(run)});
}

// Receives one upcxx message sent as its own record. Eager payloads must
// be copied out of the ring before the handler returns; rendezvous
// payloads are adopted in place. Both delivery handlers drop what arrives
// after fini_persona: a failed job skips the final barrier, so a peer's
// late traffic can reach the teardown polls of a rank whose upcxx layer is
// gone (an unadopted rendezvous block is freed by the engine).
void am_delivery(gex::AmContext& cx) {
  if (!has_persona()) return;
  const int src = cx.src;
  const std::size_t n = cx.size;
  const bool rdzv = cx.is_rendezvous;
  std::byte* buf;
  if (rdzv) {
    buf = static_cast<std::byte*>(cx.adopt());
  } else {
    buf = static_cast<std::byte*>(std::malloc(n));
    std::memcpy(buf, cx.data, n);
  }
  gex::AmEngine* eng = cx.engine;
  deliver_at_user_progress(persona(), cx.send_ns, [src, n, buf, rdzv, eng] {
    std::uint64_t prefix;
    std::memcpy(&prefix, buf, kMsgPrefix);
    Reader r(buf + kMsgPrefix, n - kMsgPrefix);
    dispatch_at(static_cast<DispatchIdx>(prefix))(src, r);
    if (rdzv)
      eng->release_rendezvous(buf);
    else
      std::free(buf);
  });
}

// Receives an Aggregator frame of upcxx messages: one malloc+memcpy out of
// the ring, one compQ entry, N dispatches. The entry tracks its own resume
// offset so a dist_object_unready requeue (progress() below) retries the
// *failing* message without re-running its predecessors.
void am_frame_delivery(gex::AmContext& cx) {
  if (!has_persona()) return;
  const int src = cx.src;
  const std::size_t fsize = cx.size;
  // malloc is 16-aligned and sub-messages sit at 8-byte offsets, so the
  // bodies' serialized data is read in place.
  auto* buf = static_cast<std::byte*>(std::malloc(fsize));
  std::memcpy(buf, cx.data, fsize);
  deliver_at_user_progress(
      persona(), cx.send_ns,
      [src, fsize, buf, off = std::size_t{0}]() mutable {
        while (off + sizeof(gex::FrameMsgHeader) <= fsize) {
          auto* mh = reinterpret_cast<gex::FrameMsgHeader*>(buf + off);
          auto* body = reinterpret_cast<std::byte*>(mh + 1);
          std::uint64_t prefix;
          std::memcpy(&prefix, body, kMsgPrefix);
          Reader r(body + kMsgPrefix, mh->size - kMsgPrefix);
          // A throw leaves `off` on this message, so the requeued entry
          // resumes exactly here.
          dispatch_at(static_cast<DispatchIdx>(prefix))(src, r);
          off += sizeof(gex::FrameMsgHeader) +
                 arch::align_up(mh->size, gex::kFrameAlign);
        }
        std::free(buf);
      });
}

}  // namespace detail

int detail::progress_work(progress_level lvl) {
  // A thread without a rank context (a worker that does not hold the master
  // persona) still progresses the personas it does hold: user-level progress
  // drains their LPC inboxes. The rank-level queues and the wire belong to
  // the master persona's holder alone.
  const int lpcs =
      lvl == progress_level::user ? detail::drain_persona_inboxes() : 0;
  if (!detail::has_persona()) return lpcs;
  auto& p = detail::persona();
  // User-level progress flushes the aggregation buffers first: staged
  // messages must never outlive their sender's attentiveness window, so any
  // spin-on-progress wait drains its own staging as a side effect
  // (DESIGN.md, message layer v2). Internal progress leaves the buffers
  // alone to keep batches intact across back-to-back injection calls.
  if (lvl == progress_level::user) p.rank->agg->flush_all();
  // Internal progress: poll the wire (stages incoming messages), fire the
  // AM RMA protocol's due completions and deferred replies (its handlers
  // only record work — nothing is injected from inside a ring consume),
  // advance the data-motion engine by a bounded number of chunks, and retire timed active operations whose completion time has
  // passed. The protocol's standalone-ack flush runs LAST, after the
  // engine: chunk requests issued in between are reverse traffic that
  // carries the acks piggybacked, so the flush only spends a ring record
  // on whatever found no ride.
  // Off-persona injection first: queued op closures dispatch into the
  // engines (so this poll round already moves their chunks), and queued
  // messages reach the target rings ahead of our poll of the replies they
  // will generate. This thread IS the wire consumer: injected small
  // messages join the Aggregator's frames (flushed before the drain
  // returns) and a full-ring stall may self-poll.
  int work = lpcs + detail::drain_injectq(p);
  work += p.rank->am->poll();
  work += p.rank->rma_am->poll_requests();
  work += p.rank->xfer->poll();
  work += p.rank->rma_am->flush_acks();
  if (!p.timed.empty()) {
    const std::uint64_t now = arch::now_ns();
    while (!p.timed.empty() && p.timed.top().due_ns <= now) {
      p.compq.push_back(std::move(p.timed.top().fn));
      p.timed.pop();
      ++work;
    }
  }
  if (lvl == progress_level::internal) return work;

  // User progress: drain compQ. Entries may enqueue more work (an RPC that
  // issues further communication); we drain only what was present at entry
  // to keep one progress call bounded.
  std::size_t budget = p.compq.size();
  while (budget-- > 0 && !p.compq.empty()) {
    auto fn = std::move(p.compq.front());
    p.compq.pop_front();
    try {
      fn();
    } catch (const detail::dist_object_unready&) {
      // RPC referencing a dist_object this rank has not constructed yet:
      // park it at the back of compQ and retry on a later progress call.
      // (Message staging buffers are owned by the closure, so requeueing is
      // safe and idempotent.)
      p.compq.push_back(std::move(fn));
      continue;
    }
    ++p.stats.lpcs_run;
    ++work;
  }
  return work;
}

void init_persona() {
  auto* r = gex::self();
  assert(r && "init_persona outside SPMD region");
  auto* st = new detail::PersonaState();
  st->rank = r;
  st->sim_latency_ns = r->arena->config().sim_latency_ns;
  st->rma_async_min = r->arena->config().rma_async_min;
  st->rma_wire_am = r->rma_wire_am;
  r->upcxx_state = st;
  detail::tls_persona = st;
  // The primordial thread holds the master persona from init (spec: the
  // thread calling init receives the master persona).
  detail::adopt_master(st->master, st);
  detail::init_world_team();
}

void fini_persona() {
  auto* r = gex::self();
  assert(r);
  // Land every in-flight transfer while the persona still exists: the
  // engine's and the AM protocol's completion callbacks push into this
  // rank's compQ and may send remote notifications, neither of which is
  // possible after teardown. Give up when a peer failed — on the am wire
  // idleness needs the peer's acks, and a dead peer never sends them.
  auto* pst = static_cast<detail::PersonaState*>(r->upcxx_state);
  const bool drained = gex::wait_until(
      [pst, r] {
        return pst->injectq.empty_hint() && r->xfer->idle() &&
               r->rma_am->idle();
      },
      [] { return detail::progress_work(progress_level::user); });
  // A failed peer holds credits that will never be returned: cancel the
  // protocol's in-flight requests so the final drain below does not try to
  // send into a dead rank's ring (ops still in the engine's channels stay
  // there: the protocol reports no credits once the job failed).
  if (!drained) r->rma_am->fail_all_peers();
  // Final drain so peers' teardown traffic (e.g. late rpc_ff acks) does not
  // sit in malloc'd staging buffers.
  for (int i = 0; i < 16; ++i) progress();
  detail::fini_world_team();
  auto* st = static_cast<detail::PersonaState*>(r->upcxx_state);
  detail::drop_master(st->master);
  detail::tls_persona = nullptr;
  r->upcxx_state = nullptr;
  delete st;
}

int run(const gex::Config& cfg, const std::function<void()>& fn) {
  return gex::launch(cfg, [&fn] {
    init_persona();
    // All personas exist before any user communication (init_world_team
    // performs a world barrier).
    try {
      fn();
    } catch (...) {
      fini_persona();
      throw;
    }
    // Quiesce: make sure every rank is done sending before teardown. A
    // failed peer never joins the barrier; the wait gives up when the job
    // fails, so survivors tear down instead of spinning forever
    // (failure-injection tests rely on this).
    auto barrier_done = barrier_async();
    (void)gex::wait_until([&] { return barrier_done.is_ready(); }, [] {
      return detail::progress_work(progress_level::user);
    });
    fini_persona();
  });
}

int run(int ranks, const std::function<void()>& fn) {
  gex::Config cfg = gex::Config::from_env();
  cfg.ranks = ranks;
  return run(cfg, fn);
}

int run_env(const std::function<void()>& fn) {
  return run(gex::Config::from_env(), fn);
}

}  // namespace upcxx
