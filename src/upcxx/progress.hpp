// The UPC++ progress engine (paper §III).
//
// Each rank owns a persona: the per-thread runtime state through which all
// asynchronous operations progress. The paper's three queues map as follows:
//
//   defQ  — operations not yet handed to the substrate. On the shared-memory
//           wire, RMA injection is a memcpy and never back-pressures, and AM
//           sends spin internally, so ops pass through the deferred state
//           instantaneously; the state exists but is degenerate (documented
//           in DESIGN.md).
//   actQ  — operations handed to the substrate and awaiting completion.
//           With simulated wire latency enabled these sit in a time-ordered
//           queue (`timed_`); with zero latency they complete at injection.
//   compQ — completed operations and incoming RPCs awaiting *user-level*
//           progress: promise fulfillments, `.then` callbacks, RPC bodies.
//
// Progress levels match the paper: *internal* progress (performed by every
// communication call) polls the substrate and retires active operations;
// *user* progress (upcxx::progress(), wait()) additionally drains compQ and
// thus executes RPCs and callbacks. A rank that computes without calling
// into the library executes no RPCs — the attentiveness property §III
// describes, which tests/test_progress.cpp verifies.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <queue>
#include <unordered_map>
#include <vector>

#include "arch/atomics.hpp"
#include "arch/mpsc_queue.hpp"
#include "arch/slot_table.hpp"
#include "arch/small_fn.hpp"
#include "gex/agg.hpp"
#include "gex/runtime.hpp"
#include "upcxx/future.hpp"
#include "upcxx/persona.hpp"
#include "upcxx/serialization.hpp"

namespace upcxx {

class team;

enum class progress_level { internal, user };

// One round of progress. Never blocks.
void progress(progress_level lvl);
inline void progress() { progress(progress_level::user); }

// Rank identity (world).
inline intrank_t rank_me() { return gex::rank_me(); }
inline intrank_t rank_n() { return gex::rank_n(); }

namespace detail {

using Lpc = arch::UniqueFunction<void()>;

struct TimedEntry {
  std::uint64_t due_ns;
  std::uint64_t seq;  // FIFO tiebreak
  mutable Lpc fn;     // priority_queue only exposes const refs; fn is moved
                      // out exactly once when the entry fires
  bool operator<(const TimedEntry& o) const {
    // priority_queue is a max-heap; invert for earliest-first.
    return due_ns != o.due_ns ? due_ns > o.due_ns : seq > o.seq;
  }
};

struct PersonaState {
  gex::Rank* rank = nullptr;
  std::uint64_t sim_latency_ns = 0;
  // Cached Config::rma_async_min: contiguous RMA at or above this many
  // bytes rides the asynchronous XferEngine (0 = always synchronous).
  std::size_t rma_async_min = 0;
  // Resolved RMA wire (gex::resolve_rma_wire at init): when true, every
  // rput/rget/copy data path goes through the AM protocol
  // (gex/rma_am.hpp) instead of touching the target's segment directly —
  // the injection-time memcpy fast path is direct-wire only.
  bool rma_wire_am = false;

  // The rank's master persona: holding it carries the right to initiate
  // communication and the obligation to progress the queues below. Created
  // held by the rank's primordial thread; may migrate via
  // liberate_master_persona() + persona_scope (persona.hpp).
  ::upcxx::persona master;

  // The world team lives in the rank state (not a thread_local) so that
  // world() keeps working after the master persona migrates to another
  // thread. Destroyed in fini_persona (team is complete in progress.cpp).
  std::unique_ptr<::upcxx::team> world_team;

  // compQ: ready work executed only at user-level progress.
  std::deque<Lpc> compq;
  // actQ under simulated latency: completions ordered by due time.
  std::priority_queue<TimedEntry> timed;
  std::uint64_t timed_seq = 0;

  // Outstanding RPC replies: op id -> deserialize-and-fulfill action. The
  // op id is the slot index plus its generation (arch::SlotTable):
  // injector threads register concurrently with the master persona taking
  // arriving replies, and neither side hashes or allocates — a lock is
  // held only for the slot free list's pop or push.
  arch::SlotTable<arch::UniqueFunction<void(Reader&)>> replies;

  // dist_object registry: id -> object address, plus per-team id counters.
  std::unordered_map<std::uint64_t, void*> dist_registry;
  std::unordered_map<std::uint64_t, std::uint64_t> dist_counters;

  // Collective engine instances keyed by (team id, sequence). Type-erased
  // (the instance type lives in team.cpp); shared_ptr carries the deleter.
  struct CollInstance;
  std::unordered_map<std::uint64_t, std::shared_ptr<CollInstance>> colls;
  std::unordered_map<std::uint64_t, std::uint64_t> coll_seq;  // per team

  // Counters surfaced by tests and benches. Plain u64 fields (printf-able,
  // source-compatible readers) bumped through arch::relaxed_inc — injector
  // threads increment rputs/rgets/rpcs_sent concurrently with the master
  // persona's thread, and plain ++ would tear counts the tests assert on.
  // Read via experimental::stats() (relaxed loads) or directly after a
  // quiesce.
  struct Stats {
    std::uint64_t rpcs_executed = 0;
    std::uint64_t rpcs_sent = 0;
    std::uint64_t rputs = 0;
    std::uint64_t rgets = 0;
    std::uint64_t lpcs_run = 0;
    std::uint64_t colls_run = 0;  // collectives entered (per rank, any thread)
    std::uint64_t amos_run = 0;   // atomic_domain ops issued
  } stats;

  // ---- thread-safe injection (off-persona op initiation) ----
  //
  // App threads that hold neither the master persona nor a rank context
  // initiate operations by handing prepared work to the rank through two
  // kinds of arch::MpscQueue (block queues: records are built in place,
  // nothing is allocated in steady state, producers never wait on the
  // consumer):
  //
  //   submit_shards  op closures (serialization and cx_state setup already
  //                done caller-side) that need the rank context to
  //                dispatch into the XferEngine / AM RMA protocol, each
  //                constructed in place in its record whatever its capture
  //                size. Sharded by *initiating thread* (kSubmitShards;
  //                shard = hash(thread marker) mod count) so concurrent
  //                injectors don't contend on one producer cursor while
  //                each thread's own submissions stay FIFO within its
  //                shard — the property collective sequence-number
  //                agreement and per-thread RMA ordering rely on. All
  //                shards are drained by the master persona's internal
  //                progress in fixed order.
  //   wire_shards  upcxx messages ([idx prefix][body]) serialized by the
  //                caller straight into a byte record tagged with the
  //                target; shard index = target % kWireShards, so
  //                injectors sending to unrelated targets never contend
  //                on one producer cursor. The master (the wire's one
  //                consumer) moves small messages into the rank's
  //                Aggregator, so injected traffic leaves as frames, and
  //                flushes the shard's targets at the end of each drain,
  //                so one thread's sends to one target stay FIFO end to
  //                end; ordering against master-side sends to the same
  //                target is unspecified.
  //
  // Completions route the other way: deferred cx_state transitions are
  // shipped to the *initiating* thread's persona inbox (lpc_ff, the same
  // block queue), so futures and promises still fire persona-affine with
  // no global lock — the per-thread inboxes are the sharded completion
  // queues.
  static constexpr std::uint32_t kSubmitShards = 4;
  static constexpr std::uint32_t kWireShards = 4;
  std::array<arch::MpscQueue, kSubmitShards> submit_shards;
  std::array<arch::MpscQueue, kWireShards> wire_shards;  // tag = target

  // Monotone count of actions performed by progress calls on this rank
  // (messages handled, chunks moved, acks pumped, LPCs run). Spin loops
  // compare it across a progress call and yield the core immediately when
  // nothing happened — on oversubscribed or single-core hosts the peer that
  // must produce the awaited completion needs the cycles far more than a
  // repeat poll of empty queues does (the old fixed yield-every-256-spins
  // wasted a scheduling quantum per window refill on the am wire).
  std::uint64_t work_events = 0;
};

// The calling rank's runtime state. Asserts the calling thread holds a rank
// context (it is the rank's primordial thread or holds the master persona).
PersonaState& persona();

// True if the calling thread currently has a rank context.
bool has_persona();

// Injection context: upcxx::injection_scope (upcxx/inject.hpp) binds the
// rank's PersonaState to an app thread that holds no rank context, allowing
// it to initiate rpc/rput/rget/copy off-persona. op_state() is the union
// accessor — the rank state via either binding; it grants access to the
// *thread-safe* subset only (config fields, stats via relaxed_inc, the
// MPSC hand-off entry points below). Engine access (state.rank->am etc.)
// remains the master persona holder's exclusive right; op-layer code that
// touches engines still goes through persona().
PersonaState& op_state();
bool has_op_state();
void bind_inject_context(PersonaState* st);
PersonaState* inject_context();

// MPSC hand-off (thread-safe; producers take only the queue's cursor
// lock): enqueues a prepared op closure, constructed in place, to run with
// rank context at the master persona's next internal progress.
std::uint32_t submit_shard_of_caller();
template <typename Fn>
void submit_to_master(PersonaState& st, Fn&& fn) {
  st.submit_shards[submit_shard_of_caller()].push(std::forward<Fn>(fn));
}
// Serializes a `bytes`-byte upcxx message for `target` in place into its
// wire shard (write(std::byte*) fills the bytes) for the next drain.
template <typename Write>
void submit_wire_send(PersonaState& st, int target, std::size_t bytes,
                      Write&& write) {
  st.wire_shards[static_cast<std::uint32_t>(target) %
                 PersonaState::kWireShards]
      .push_bytes(bytes, static_cast<std::uint64_t>(target),
                    std::forward<Write>(write));
}
// Drain side; both require the rank context (the master persona's
// holder is the one consumer of every shard). drain_submitq runs the
// submitted closures, which dispatch into the engines. drain_wire_shards
// moves queued messages onto the wire: small ones ride the Aggregator,
// and each drained shard's targets are flushed before the next shard;
// with to_empty it moves everything queued at the call (barrier entry),
// otherwise at most 64 messages per shard. Both return items processed.
int drain_submitq(PersonaState& st, int budget);
int drain_wire_shards(PersonaState& st, bool to_empty = false);
// True when every injection queue (submitq + all wire shards) looks empty
// (teardown/idle checks; may be transiently false, never falsely empty at
// a quiesced rank).
bool inject_queues_empty(PersonaState& st);

// PersonaState::work_events of the calling thread's rank, or 0 without a
// rank context (a persona-less waiter always yields, which is right — some
// other thread drives the wire). Spin idiom:
//   auto w = detail::progress_work_counter();
//   ::upcxx::progress();
//   if (detail::progress_work_counter() == w) std::this_thread::yield();
std::uint64_t progress_work_counter();

// The master persona object of a rank state (used by upcxx::master_persona).
inline ::upcxx::persona& master_of(PersonaState& st) { return st.master; }

// Schedules fn for the next user-level progress on this rank.
void push_compq(Lpc fn);

// Schedules fn to "complete on the wire" after the simulated latency
// (immediately into compQ when latency is zero).
void push_completion_after(std::uint64_t wire_hops, Lpc fn);

// Same, with an explicit delay in nanoseconds (used by simulated-device
// transfers whose cost is not a multiple of the wire hop latency).
void push_completion_after_ns(std::uint64_t delay_ns, Lpc fn);

// ---- op_context: the one op-initiation dispatch --------------------------
//
// Captured at every public entry point (rput/rget/copy, collectives,
// atomics, rpc replies), op_context records where the op was initiated and
// routes the two thread-crossing moments every deferred operation has:
//
//   run_at_rank(fn)   the engine-touching half. Inline when the caller
//                     already holds the rank context; otherwise fn ships
//                     through the caller's submit shard and runs at the
//                     master persona's next internal progress. fn must
//                     capture everything it needs by value (caller-side
//                     serialization, cx_state construction) — it hands a
//                     descriptor over, never shared state.
//   complete_now / complete_after_ns
//                     the completion half, invoked later *with* the rank
//                     context (an engine callback, an ack handler). Routes
//                     the final hook home: run in place for a master-persona
//                     initiator (cx_state defers user-visible delivery to
//                     compQ itself), through the initiating persona's lpc_ff
//                     shard for an injector thread — so futures/promises
//                     always fire persona-affine, with no global lock.
//
// This is the dispatch invariant the threading model reduces to: *state
// stays put; descriptors cross over; completions cross back.*
struct op_context {
  PersonaState* st;
  ::upcxx::persona* init;  // the initiating thread's current persona
  bool on_persona;         // caller held the rank context at capture time

  static op_context current() {
    return {&op_state(), &::upcxx::current_persona(), has_persona()};
  }

  template <typename Fn>
  void run_at_rank(Fn&& fn) const {
    if (on_persona)
      fn();
    else
      submit_to_master(*st, std::forward<Fn>(fn));
  }

  // Callable only with the rank context held (master side).
  template <typename Fn>
  void complete_now(Fn&& fn) const {
    if (on_persona)
      fn();
    else
      init->lpc_ff(std::forward<Fn>(fn));
  }

  template <typename Fn>
  void complete_after_ns(std::uint64_t delay_ns, Fn&& fn) const {
    if (on_persona) {
      push_completion_after_ns(delay_ns, Lpc(std::forward<Fn>(fn)));
    } else if (delay_ns == 0) {
      init->lpc_ff(std::forward<Fn>(fn));  // no timer: straight home
    } else {
      ::upcxx::persona* home = init;
      push_completion_after_ns(
          delay_ns, Lpc([home, f = std::forward<Fn>(fn)]() mutable {
            home->lpc_ff(std::move(f));
          }));
    }
  }
};

// Registers a reply continuation; returns the op id to embed in the
// request. Any thread; no hashing, no allocation once the slot table has
// grown to the peak number of outstanding round trips.
inline std::uint64_t register_reply(arch::UniqueFunction<void(Reader&)> fn) {
  return op_state().replies.insert(std::move(fn));
}

// ---- message layer v2 ------------------------------------------------------
//
// Upcxx-level messages are [DispatchIdx prefix][serialized body]. The
// prefix is an index into the dispatch registry below — mirroring the gex
// handler registry one level up, so no wire message at any layer carries a
// raw function pointer. Messages ride one of two paths:
//
//   aggregated — staged in the rank's per-target gex::Aggregator and
//                flushed by user-level progress, barrier entry, or the
//                buffer caps. The bulk path: rpc, rpc_ff, RPC replies.
//   immediate  — injected into the target's ring now. Latency-sensitive
//                traffic: collective control messages, remote completion
//                notifications (remote_cx::as_rpc), AM-mode atomics.

// Upcxx-level message dispatch type: reads the body and acts. Runs during
// user progress on the target.
using DispatchFn = void (*)(int src, Reader& r);
using DispatchIdx = std::uint16_t;

enum class wire_mode { aggregated, immediate };

// Dispatch registry (defined in progress.cpp). Registration happens at
// static-initialization time through DispatchReg, so forked ranks agree on
// indices — same contract as gex::register_am_handler.
DispatchIdx register_dispatch(DispatchFn fn);
DispatchFn dispatch_at(DispatchIdx idx);
std::size_t dispatch_count();

template <DispatchFn Fn>
struct DispatchReg {
  static const DispatchIdx idx;
};
template <DispatchFn Fn>
const DispatchIdx DispatchReg<Fn>::idx = register_dispatch(Fn);

// The dispatch index travels as an 8-byte prefix so body alignment matches
// serialization's kWireAlign expectations.
inline constexpr std::size_t kMsgPrefix = 8;

// The gex AM handler that receives all upcxx-level traffic (defined in
// progress.cpp), and its registry index.
void am_delivery(gex::AmContext& cx);
inline gex::HandlerIdx am_delivery_index() {
  return gex::am_handler<&am_delivery>();
}

// Whole-frame sink (gex::AmEngine::set_frame_sink): receives an aggregated
// frame of upcxx messages in one call and schedules a single
// deferred-dispatch entry that walks the sub-messages.
void am_frame_delivery(gex::AmContext& cx);

// Flushes this rank's aggregation buffers (no-op without a rank context).
// Called from user-level progress and from barrier entry.
void flush_aggregation();

// Forces every pending XferEngine chunk onto the wire (no-op without a rank
// context). Called from barrier entry so data issued before a barrier is
// visible at its target before any rank observes the barrier complete —
// the ordering the synchronous memcpy wire used to give for free.
void drain_xfer_copies();

// True when a `total`-byte upcxx message should be staged in `agg` rather
// than sent as its own ring record: aggregation is on and the message is
// small (under the Aggregator's small-message cutoff, and eager-sized).
inline bool rides_frame(const gex::Aggregator& agg, std::size_t total) {
  return agg.enabled() && total <= agg.small_msg_cutoff() &&
         total <= agg.max_msg_bytes() && total <= gex::am().eager_max();
}

// Sends [idx][body] to target. `body_size` must equal what
// `write_body(WriteArchive&)` produces.
template <typename WriteBody>
void send_msg_idx(int target, DispatchIdx idx, std::size_t body_size,
                  WriteBody&& write_body, wire_mode mode) {
  const std::size_t total = kMsgPrefix + body_size;
  const std::uint64_t prefix = idx;
  if (!has_persona()) {
    // Off-persona injection: serialize caller-side straight into the
    // target's wire shard. Both wire modes behave alike here: the drain
    // on the wire's consumer thread stages small messages in the
    // Aggregator and flushes them in the same progress call.
    // Per-(thread,target) FIFO is preserved by the shard; ordering
    // against other personas is unspecified.
    submit_wire_send(op_state(), target, total, [&](std::byte* p) {
      std::memcpy(p, &prefix, kMsgPrefix);
      WriteArchive wa(p + kMsgPrefix);
      write_body(wa);
      assert(wa.written() == body_size);
    });
    return;
  }
  gex::Aggregator& agg = *gex::self()->agg;
  if (mode == wire_mode::aggregated && rides_frame(agg, total)) {
    auto* p = static_cast<std::byte*>(
        agg.put(target, am_delivery_index(), total));
    std::memcpy(p, &prefix, kMsgPrefix);
    WriteArchive wa(p + kMsgPrefix);
    write_body(wa);
    assert(wa.written() == body_size);
    return;
  }
  // Direct injection must not overtake messages already staged for this
  // target: upcxx delivery is per-target FIFO (and tests assert it), so
  // drain the staging buffer before bypassing it.
  if (agg.enabled()) agg.flush(target);
  auto& eng = gex::am();
  auto sb = eng.prepare(target, am_delivery_index(), total);
  auto* p = static_cast<std::byte*>(sb.data);
  std::memcpy(p, &prefix, kMsgPrefix);
  WriteArchive wa(p + kMsgPrefix);
  write_body(wa);
  assert(wa.written() == body_size);
  eng.commit(sb);
}

// Statically-registered form: the dispatch function is a template argument
// so its registry index is assigned before main (fork-safe).
template <DispatchFn Fn, typename WriteBody>
void send_msg(int target, std::size_t body_size, WriteBody&& write_body,
              wire_mode mode = wire_mode::aggregated) {
  send_msg_idx(target, DispatchReg<Fn>::idx, body_size,
               std::forward<WriteBody>(write_body), mode);
}

}  // namespace detail

// Schedules fn to run on this rank during a later *user-level* progress
// call and returns a future for its result — the persona LPC ("local
// procedure call") building block the completion system uses internally.
template <typename Fn>
auto lpc(Fn&& fn)
    -> detail::future_from_result_t<std::invoke_result_t<Fn>> {
  using R = std::invoke_result_t<Fn>;
  using Fut = detail::future_from_result_t<R>;
  auto st = std::make_shared<typename Fut::state_t>();
  detail::push_compq([st, f = std::forward<Fn>(fn)]() mutable {
    if constexpr (std::is_void_v<R>) {
      f();
      st->value.emplace();
      st->retire_deps(1);
    } else if constexpr (detail::is_future_v<R>) {
      f().then_raw([st](auto&... vals) {
        st->value.emplace(vals...);
        st->retire_deps(1);
      });
    } else {
      st->value.emplace(f());
      st->retire_deps(1);
    }
  });
  return Fut(st);
}

// Initializes/tears down the calling rank's persona. Wrapped by upcxx::run;
// exposed for harnesses that drive gex::launch directly.
void init_persona();
void fini_persona();

// Runs fn as an SPMD program over `ranks` ranks with personas initialized
// (the moral equivalent of upcxx::init()/finalize() bracketing main in a
// real UPC++ program). Returns the number of failed ranks.
int run(int ranks, const std::function<void()>& fn);
int run(const gex::Config& cfg, const std::function<void()>& fn);
// Ranks/backend taken from UPCXX_* environment variables.
int run_env(const std::function<void()>& fn);

// Barrier over all world ranks (collectives.hpp provides team barriers; this
// forwarding declaration lets low-level code use it without the header).
void barrier();

namespace experimental {

// Snapshot of the calling rank's operation counters — the paper-era
// UPCXX_ENABLE_STATS facility reduced to the counters the benches and tests
// use. Counters are monotonic within one SPMD region.
struct op_stats {
  std::uint64_t rputs = 0;
  std::uint64_t rgets = 0;
  std::uint64_t rpcs_sent = 0;
  std::uint64_t rpcs_executed = 0;
  std::uint64_t lpcs_run = 0;
  std::uint64_t colls_run = 0;
  std::uint64_t amos_run = 0;
};

inline op_stats stats() {
  // op_state(): readable from injector threads too; relaxed loads pair
  // with the relaxed_inc writers (mid-run values are monotone snapshots).
  const auto& s = detail::op_state().stats;
  return {arch::relaxed_load(s.rputs),          arch::relaxed_load(s.rgets),
          arch::relaxed_load(s.rpcs_sent),
          arch::relaxed_load(s.rpcs_executed),
          arch::relaxed_load(s.lpcs_run),
          arch::relaxed_load(s.colls_run),
          arch::relaxed_load(s.amos_run)};
}

}  // namespace experimental

}  // namespace upcxx
