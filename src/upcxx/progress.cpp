#include "upcxx/progress.hpp"

#include <atomic>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <thread>

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

std::uint64_t progress_work_counter() {
  return tls_persona ? tls_persona->work_events : 0;
}

bool job_failed() {
  auto* st = tls_persona;
  if (!st || !st->rank || !st->rank->arena) return false;
  return st->rank->arena->control().error_flag.value.load(
             std::memory_order_acquire) != 0;
}

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

std::uint32_t submit_shard_of_caller() {
  // Shard by initiating thread, not round-robin: one thread's submissions
  // must stay FIFO (a thread that enters barrier() then reduce() relies on
  // its collective sequence numbers being allocated in that order), and a
  // stable thread->shard map gives that while spreading unrelated
  // injectors across queue tails.
  const auto h = std::hash<const void*>{}(thread_marker());
  return static_cast<std::uint32_t>(h % PersonaState::kSubmitShards);
}

int drain_submitq(PersonaState& st, int budget) {
  assert(tls_persona == &st && "submitq closures need the rank context");
  // The shards are MPSC queues with the master persona as the single
  // consumer; a fixed drain order keeps each thread's submissions FIFO
  // (within its shard) without any cross-shard coordination.
  int work = 0;
  for (auto& q : st.submit_shards) {
    if (budget - work <= 0) break;
    if (q.empty_hint()) continue;
    work += q.run(budget - work);
  }
  return work;
}

namespace {

// Writes one queued upcxx message into `target`'s ring as its own record.
void send_wire_record(gex::AmEngine& eng, const arch::MpscQueue::Record& r,
                      bool may_poll) {
  auto sb = eng.prepare(static_cast<int>(r.tag), am_delivery_index(), r.size,
                        may_poll);
  std::memcpy(sb.data, r.data, r.size);
  eng.commit(sb);
}

// Moves shard `shard`'s messages on the wire's consumer thread, with the
// shard lock held: small ones into the Aggregator, the rest direct after
// flushing their target (per-target FIFO). Before returning (and so
// before the lock is released — a helper taking the shard next writes to
// the rings directly) every target of the shard is flushed: nothing this
// drain staged can be overtaken.
int drain_wire_shard_locked(PersonaState& st, std::uint32_t shard,
                            bool to_empty) {
  auto& q = st.wire_shards[shard].q;
  auto& eng = *st.rank->am;
  gex::Aggregator* agg = st.rank->agg;
  auto move = [&](const arch::MpscQueue::Record& r) {
    const int target = static_cast<int>(r.tag);
    if (agg && rides_frame(*agg, r.size)) {
      std::memcpy(agg->put(target, am_delivery_index(), r.size), r.data,
                  r.size);
      return;
    }
    if (agg && agg->enabled()) agg->flush(target);
    send_wire_record(eng, r, /*may_poll=*/true);
  };
  const int n = to_empty ? q.drain_all(move) : q.drain(64, move);
  if (n && agg && agg->enabled())
    for (int t = static_cast<int>(shard); t < st.rank->arena->nranks();
         t += static_cast<int>(PersonaState::kWireShards))
      agg->flush(t);
  return n;
}

}  // namespace

int drain_wire_shards(PersonaState& st, bool to_empty) {
  assert(tls_persona == &st && "the wire's consumer drains with the rank "
                               "context");
  int work = 0;
  for (std::uint32_t s = 0; s < PersonaState::kWireShards; ++s) {
    auto& sh = st.wire_shards[s];
    if (sh.q.empty_hint()) continue;
    if (to_empty) {
      // A helper mid-drain finishes its messages first; they are in the
      // rings once it lets go. It may be stalled on a full ring whose
      // consumer is itself waiting on a message in our ring, so keep
      // polling meanwhile, as any stalled send on this thread does.
      while (!sh.mu.try_lock())
        if (st.rank->am->poll() == 0) std::this_thread::yield();
    } else if (!sh.mu.try_lock()) {
      continue;  // a helper owns this shard right now
    }
    work += drain_wire_shard_locked(st, s, to_empty);
    sh.mu.unlock();
  }
  return work;
}

int drain_wire_shard(PersonaState& st, std::uint32_t shard) {
  auto& sh = st.wire_shards[shard];
  if (sh.q.empty_hint()) return 0;
  if (!sh.mu.try_lock()) return 0;  // a competing drainer owns this shard
  // Bounded so one drain cannot monopolize a helper pass. The lock is
  // held across reserve -> memcpy -> commit, so a shard's sends hit the
  // target ring in queue order and the transport's per-pair FIFO carries
  // the ordering end to end.
  auto& eng = *st.rank->am;
  const int work = sh.q.drain(64, [&](const arch::MpscQueue::Record& r) {
    send_wire_record(eng, r, /*may_poll=*/false);
  });
  sh.mu.unlock();
  return work;
}

bool inject_queues_empty(PersonaState& st) {
  for (auto& q : st.submit_shards)
    if (!q.empty_hint()) return false;
  for (auto& sh : st.wire_shards)
    if (!sh.q.empty_hint()) return false;
  return true;
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
  auto* rank = persona().rank;
  if (rank && rank->agg) rank->agg->flush_all();
}

void drain_xfer_copies() {
  if (!has_persona()) return;
  auto* rank = persona().rank;
  if (!rank || !rank->xfer) return;
  // Barrier-entry contract: every RMA issued before the barrier must be in
  // its target's inbox before our barrier message goes out. On the am wire
  // the engine's drain stops at the credit window and requests can park in
  // the protocol's sender-side queue, so keep pumping acks (which retire
  // credits and release queued requests) until both are empty. Peers
  // draining toward the same barrier serve our requests from their own
  // loops, so this terminates — unless a peer died, which the error flag
  // reports (its acks will never come; the teardown path cancels).
  auto& err = rank->arena->control().error_flag.value;
  for (;;) {
    rank->xfer->drain_copies();
    const bool engine_pending = rank->xfer->copies_pending();
    const bool queued = rank->rma_am && rank->rma_am->queued() != 0;
    if (!engine_pending && !queued) break;
    if (err.load(std::memory_order_acquire) != 0) break;
    int work = rank->am->poll();
    if (rank->rma_am) work += rank->rma_am->poll();
    // The credits we are waiting on come from the peer; on a shared core
    // it needs the cycles more than a repeat poll of empty queues does.
    if (work == 0) std::this_thread::yield();
  }
}

// Receives one upcxx wire message: stages the payload locally and schedules
// its dispatch for user-level progress (the paper's "insert into the
// target's compQ", Fig 2). Eager payloads must be copied out of the ring
// before the handler returns; rendezvous payloads are adopted in place;
// frame sub-messages take a shared reference on the frame buffer, so an
// N-message frame costs one allocation and one copy total.
void am_delivery(gex::AmContext& cx) {
  auto& p = persona();
  const int src = cx.src;
  const std::size_t n = cx.size;
  enum class Own : std::uint8_t { kMalloc, kRendezvous, kFrame };
  std::byte* buf;
  void* frame = nullptr;
  Own own;
  if (cx.in_frame) {
    frame = cx.adopt_frame();
    buf = static_cast<std::byte*>(cx.data);
    own = Own::kFrame;
  } else if (cx.is_rendezvous) {
    buf = static_cast<std::byte*>(cx.adopt());
    own = Own::kRendezvous;
  } else {
    buf = static_cast<std::byte*>(std::malloc(n));
    std::memcpy(buf, cx.data, n);
    own = Own::kMalloc;
  }
  gex::AmEngine* eng = cx.engine;
  auto run = [src, n, buf, own, frame, eng] {
    std::uint64_t prefix;
    std::memcpy(&prefix, buf, kMsgPrefix);
    DispatchFn dispatch = dispatch_at(static_cast<DispatchIdx>(prefix));
    Reader r(buf + kMsgPrefix, n - kMsgPrefix);
    dispatch(src, r);
    switch (own) {
      case Own::kFrame:
        gex::release_frame(frame);
        break;
      case Own::kRendezvous:
        eng->release_rendezvous(buf);
        break;
      case Own::kMalloc:
        std::free(buf);
        break;
    }
  };
  if (p.sim_latency_ns == 0) {
    p.compq.push_back(std::move(run));
  } else {
    // Deliver no earlier than send time + one wire hop.
    p.timed.push(TimedEntry{cx.send_ns + p.sim_latency_ns, p.timed_seq++,
                            std::move(run)});
  }
}

// Whole-frame delivery: one adopt, one compQ entry, N dispatches. The entry
// tracks its own resume offset so a dist_object_unready requeue (progress()
// below) retries the *failing* message without re-running its predecessors.
void am_frame_delivery(gex::AmContext& cx) {
  auto& p = persona();
  const int src = cx.src;
  const std::size_t fsize = cx.size;
  void* frame = cx.adopt_frame();
  auto* buf = static_cast<std::byte*>(cx.data);
  auto run = [src, fsize, buf, frame, off = std::size_t{0}]() mutable {
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
    gex::release_frame(frame);
  };
  if (p.sim_latency_ns == 0) {
    p.compq.push_back(std::move(run));
  } else {
    p.timed.push(TimedEntry{cx.send_ns + p.sim_latency_ns, p.timed_seq++,
                            std::move(run)});
  }
}

}  // namespace detail

void progress(progress_level lvl) {
  // A thread without a rank context (a worker that does not hold the master
  // persona) still progresses the personas it does hold: user-level progress
  // drains their LPC inboxes. The rank-level queues and the wire belong to
  // the master persona's holder alone.
  const int lpcs =
      lvl == progress_level::user ? detail::drain_persona_inboxes() : 0;
  if (!detail::has_persona()) return;
  auto& p = detail::persona();
  // User-level progress flushes the aggregation buffers first: staged
  // messages must never outlive their sender's attentiveness window, so any
  // spin-on-progress wait drains its own staging as a side effect
  // (DESIGN.md, message layer v2). Internal progress leaves the buffers
  // alone to keep batches intact across back-to-back injection calls.
  if (lvl == progress_level::user && p.rank->agg) p.rank->agg->flush_all();
  // Internal progress: poll the wire (stages incoming messages), fire the
  // AM RMA protocol's due completions and queued-request releases (its
  // handlers only record work — nothing is injected from inside a ring
  // consume), advance the data-motion engine by a bounded number of
  // chunks, and retire timed active operations whose completion time has
  // passed. The protocol's standalone-ack flush runs LAST, after the
  // engine: chunk requests issued in between are reverse traffic that
  // carries the acks piggybacked, so the flush only spends a ring record
  // on whatever found no ride.
  // Off-persona injection first: submitted op closures dispatch into the
  // engines (so this poll round already moves their chunks), and staged
  // wire sends reach the target rings ahead of our poll of the replies
  // they will generate. This thread IS the wire consumer: injected small
  // messages join the Aggregator's frames (flushed before the drain
  // returns) and a full-ring stall may self-poll.
  int work = lpcs + detail::drain_submitq(p, 64);
  work += detail::drain_wire_shards(p);
  work += p.rank->am->poll();
  if (p.rank->rma_am) work += p.rank->rma_am->poll_requests();
  if (p.rank->xfer) work += p.rank->xfer->poll();
  if (p.rank->rma_am) work += p.rank->rma_am->flush_acks();
  if (!p.timed.empty()) {
    const std::uint64_t now = arch::now_ns();
    while (!p.timed.empty() && p.timed.top().due_ns <= now) {
      p.compq.push_back(std::move(p.timed.top().fn));
      p.timed.pop();
      ++work;
    }
  }
  p.work_events += static_cast<std::uint64_t>(work);
  if (lvl == progress_level::internal) return;

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
    arch::relaxed_inc(p.stats.lpcs_run);
    ++p.work_events;
  }
}

void init_persona() {
  auto* r = gex::self();
  assert(r && "init_persona outside SPMD region");
  auto* st = new detail::PersonaState();
  st->rank = r;
  st->sim_latency_ns = r->arena->config().sim_latency_ns;
  st->rma_async_min = r->arena->config().rma_async_min;
  st->rma_wire_am = r->rma_wire_am;
  // Aggregated upcxx frames take the whole-frame delivery path.
  r->am->set_frame_sink(detail::am_delivery_index(),
                        &detail::am_frame_delivery);
  r->upcxx_state = st;
  detail::tls_persona = st;
  // The primordial thread holds the master persona from init (spec: the
  // thread calling init receives the master persona).
  detail::adopt_master(st->master, st);
  // Gex-level blocking collectives (AmEngine::exchange) drive this while
  // spinning so frames they deliver get dispatched — without it a rank
  // blocked in team-split's allgather never executes peers' rpcs and the
  // job deadlocks on any transport (see Rank::progress_hook).
  r->progress_hook = [] { progress(progress_level::user); };
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
  auto& err = gex::arena().control().error_flag.value;
  while ((!detail::inject_queues_empty(*pst) || (r->xfer && !r->xfer->idle()) ||
          (r->rma_am && !r->rma_am->idle())) &&
         err.load(std::memory_order_acquire) == 0) {
    progress();
  }
  // A failed peer holds credits that will never be returned: cancel the
  // protocol's queued and in-flight requests so the final drain below does
  // not try to send into a dead rank's ring.
  if (r->rma_am && err.load(std::memory_order_acquire) != 0)
    r->rma_am->fail_all_peers();
  // Final drain so peers' teardown traffic (e.g. late rpc_ff acks) does not
  // sit in malloc'd staging buffers.
  for (int i = 0; i < 16; ++i) progress();
  detail::fini_world_team();
  r->progress_hook = nullptr;  // persona state dies with us
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
    // failed peer never joins the barrier; poll the substrate error flag so
    // survivors tear down instead of spinning forever (failure-injection
    // tests rely on this).
    auto barrier_done = barrier_async();
    auto& err = gex::arena().control().error_flag.value;
    while (!barrier_done.is_ready() &&
           err.load(std::memory_order_acquire) == 0) {
      const std::uint64_t w = detail::progress_work_counter();
      progress();
      if (detail::progress_work_counter() == w) std::this_thread::yield();
    }
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
