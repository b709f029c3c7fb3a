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

#include <cstdint>
#include <deque>
#include <memory>
#include <queue>
#include <unordered_map>
#include <vector>

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

// One round of progress. Never blocks.
inline void progress(progress_level lvl) { detail::progress_work(lvl); }
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

  // Counters surfaced by benches and tests, read via experimental::stats().
  // Only the master persona's holder writes them (rpc dispatch and compQ
  // drain run there), so they are plain fields bumped with ++.
  struct Stats {
    std::uint64_t rpcs_executed = 0;
    std::uint64_t lpcs_run = 0;
  } stats;

  // ---- thread-safe injection (off-persona op initiation) ----
  //
  // App threads that hold neither the master persona nor a rank context
  // initiate operations by handing prepared work to the rank through one
  // arch::MpscQueue (a block queue: records are built in place, nothing is
  // allocated in steady state, producers never wait on the consumer). It
  // carries two kinds of record, consumed in reservation order by the
  // master persona's holder (drain_injectq):
  //
  //   closures   op closures (serialization and cx_state setup already
  //              done caller-side) that need the rank context to dispatch
  //              into the XferEngine / AM RMA protocol, each constructed
  //              in place whatever its capture size.
  //   messages   upcxx messages ([idx prefix][body]) serialized by the
  //              caller straight into a byte record tagged with the
  //              target. The drain sends them the way the master sends
  //              its own (small ones join the Aggregator's frames) and
  //              flushes the Aggregator before it returns.
  //
  // Reservation order keeps each injecting thread's ops in issue order up
  // to the master: a thread's collective sequence numbers are allocated in
  // the order it entered the collectives, and its sends to one target stay
  // FIFO end to end. Ordering against master-side sends to the same target
  // is unspecified.
  //
  // Completions route the other way: deferred cx_state transitions are
  // shipped to the *initiating* thread's persona inbox (lpc_ff, the same
  // block queue), so futures and promises still fire persona-affine with
  // no global lock — the per-thread inboxes are the sharded completion
  // queues.
  arch::MpscQueue injectq;
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
// *thread-safe* subset only (config fields and the producer side of
// injectq). Engine access (state.rank->am etc.)
// remains the master persona holder's exclusive right; op-layer code that
// touches engines still goes through persona().
PersonaState& op_state();
bool has_op_state();
void bind_inject_context(PersonaState* st);
PersonaState* inject_context();

// Runs or sends up to 64 injection records (closures run, messages move
// onto the wire) and, if any message moved, flushes the Aggregator.
// Requires the rank context: the master persona's holder is the queue's
// one consumer. Returns records consumed.
int drain_injectq(PersonaState& st);

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
//                     through the rank's injection queue and runs at the
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
//                     inbox for an injector thread — so futures/promises
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
      st->injectq.push(std::forward<Fn>(fn));
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

// The gex AM handlers that receive upcxx-level traffic (defined in
// progress.cpp): am_delivery takes a message sent as its own record,
// am_frame_delivery an Aggregator frame of them.
void am_delivery(gex::AmContext& cx);
void am_frame_delivery(gex::AmContext& cx);

// Flushes this rank's aggregation buffers (no-op without a rank context).
// Called from user-level progress and from barrier entry.
void flush_aggregation();

// Forces every pending XferEngine chunk onto the wire (no-op without a rank
// context). Called from barrier entry so data issued before a barrier is
// visible at its target before any rank observes the barrier complete —
// the ordering the synchronous memcpy wire used to give for free.
void drain_xfer_copies();

// Puts a `total`-byte upcxx message for `target` on the wire (rank context
// required); write(std::byte*) fills its bytes in place. An aggregated
// message that is small (under the Aggregator's small-message cutoff, and
// eager-sized) joins the target's frame; anything else first flushes that
// frame — upcxx delivery is per-target FIFO, and tests assert it — and
// goes out as its own record.
template <typename Write>
void send_wire(int target, std::size_t total, wire_mode mode, Write&& write) {
  gex::Aggregator& agg = *gex::self()->agg;
  if (mode == wire_mode::aggregated && agg.enabled() &&
      total <= agg.small_msg_cutoff() && total <= agg.max_msg_bytes() &&
      total <= gex::am().eager_max()) {
    write(static_cast<std::byte*>(
        agg.put(target, gex::am_handler<&am_frame_delivery>(), total)));
    return;
  }
  if (agg.enabled()) agg.flush(target);
  auto& eng = gex::am();
  auto sb = eng.prepare(target, gex::am_handler<&am_delivery>(), total);
  write(static_cast<std::byte*>(sb.data));
  eng.commit(sb);
}

// Sends [idx][body] to target. `body_size` must equal what
// `write_body(WriteArchive&)` produces. Off-persona (an injector thread)
// the message is serialized caller-side into the rank's injection queue,
// and the drain sends it as aggregated whatever `mode` says.
template <typename WriteBody>
void send_msg_idx(int target, DispatchIdx idx, std::size_t body_size,
                  WriteBody&& write_body, wire_mode mode) {
  const std::size_t total = kMsgPrefix + body_size;
  auto write = [&](std::byte* p) {
    const std::uint64_t prefix = idx;
    std::memcpy(p, &prefix, kMsgPrefix);
    WriteArchive wa(p + kMsgPrefix);
    write_body(wa);
    assert(wa.written() == body_size);
  };
  if (has_persona())
    send_wire(target, total, mode, write);
  else
    op_state().injectq.push_bytes(total, static_cast<std::uint64_t>(target),
                                  write);
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
// UPCXX_ENABLE_STATS facility reduced to the counters the benches use.
// Counters are monotonic within one SPMD region. Call from the thread
// holding the master persona, their one writer.
struct op_stats {
  std::uint64_t rpcs_executed = 0;
  std::uint64_t lpcs_run = 0;
};

inline op_stats stats() {
  const auto& s = detail::persona().stats;
  return {s.rpcs_executed, s.lpcs_run};
}

}  // namespace experimental

}  // namespace upcxx
