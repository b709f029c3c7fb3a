// Active-message RMA protocol — the `am` wire behind UPCXX_RMA_WIRE.
//
// The direct wire assumes the target's segment is cross-mapped (initiator
// memcpys straight into the target's heap — GASNet PSHM). A conduit without
// that property must move RMA through active messages instead; this file is
// that protocol, shaped like the real GASNet-EX AM-based rput/rget path:
//
//   PUT           [FragHdr][acks][racks][n descs][payload]
//                                          -> target scatters, owes an ACK
//   PUT_STAGED    [FragStagedHdr][acks][racks][n descs]
//                 (payload in the initiator's pooled bounce buffer)
//                                          -> target scatters, owes an ACK
//   GET           [FragHdr][acks][racks][n descs]
//                                          -> target gathers, REPLY
//   REPLY         [RepHdr][acks][racks][payload]
//                                          -> initiator scatters, completes
//   REPLY_STAGED  [RepStagedHdr][acks][racks]
//                 (payload in the target's pooled reply buffer)
//                                          -> initiator scatters, completes,
//                                             owes a rack
//   ACK           [AckHdr][acks][racks]    -> initiator completions
//
// One record shape per direction: a request names its remote runs with
// `n` (address, bytes) descriptors in the record itself, and a contiguous
// put or get is simply the n == 1 case. Payloads small enough to fit a
// record travel inline through the inbox ring (the eager put of small
// transfers); larger ones go through the pooled staging below with only
// the header and descriptors in the ring — the crossover
// bench/abl_am_protocol.cpp reports. Handlers are registered in the gex
// handler registry (gex/handlers.hpp) at static init, so forked ranks agree
// on indices; no code pointer ever rides the wire, and completion cookies
// are opaque initiator-local ids, not addresses.
//
// Flow control (UPCXX_AM_WINDOW): at most `window` unacknowledged requests
// may be in flight to one target; further requests park in the target's
// sender-side queue and go out as acks retire credits, so a flood of puts
// queues locally instead of spin-polling against the target's full ring and
// staging heap. The queue itself is bounded (kQueueSlack beyond the
// window); when it fills, the *injecting* call makes progress — polling our
// own inbox, which retires credits — until a slot frees, which is
// deadlock-free for the same reason the AmEngine's ring-full spin is: every
// stuck sender still drains its own inbox. Replies and acks never consume
// credits (a credit-gated ack would deadlock the very window it retires).
//
// Ack aggregation: every ack this rank owes is batched — all acks owed to
// one target per poll() collapse into a single multi-ack record, and any
// request or reply headed toward a peer carries the acks owed to that peer
// piggybacked after its header. A chunked transfer's ack traffic therefore
// costs a handful of ring transactions instead of one per chunk.
//
// Pooled put staging: a put payload too large to ride inline goes through
// a per-peer pool of recycled shared-heap bounce buffers instead of the
// AmEngine's allocate-per-message rendezvous path. The initiator gathers
// into a pool buffer (payload only — the descriptors ride in the record,
// so a 64 KiB chunk takes a 64 KiB block), ships a small PUT_STAGED
// record, and gets the buffer back when the target's ack arrives (the ack
// that already drives completion — no extra traffic). The pool is bounded
// by the credit window (at most `window` buffers can be in flight), so a
// steady chunked stream cycles through the same few cache-hot buffers with
// no allocator traffic — which is what lets the am wire track the direct
// wire's bandwidth instead of paying a cold DRAM round trip per chunk.
//
// Pooled reply staging (the get-direction mirror): a GET reply too large
// to ride inline goes through the *target's* per-peer pool of recycled
// shared-heap buffers instead of the AmEngine's allocate-per-message
// rendezvous path. The target gathers into a pool buffer, ships a small
// REPLY_STAGED descriptor (wire addresses only, exactly as every
// staged-put buffer), and gets the buffer back when the initiator's
// consumption ack arrives — a second cookie namespace ("racks") batched
// and piggybacked through the very same machinery as request acks, so a
// chunked rget stream recycles the same cache-hot blocks with no extra
// record traffic. At most `window` staged replies may be awaiting
// consumption per peer; past that bound (or on a momentarily exhausted
// heap) the reply falls back to the old inline/rendezvous REPLY path —
// staging is an optimization, never a requirement.
//
// Adaptive window (UPCXX_AM_WINDOW=auto, the default): instead of a
// hand-set window, each peer runs a small BBR-style controller
// (AmWindowController below) fed by request→ack round-trip times. While
// acks return within an envelope of the observed RTT floor the window
// grows (one credit per windowful of timely acks); when acks lag —
// queuing at the target, or window × chunk outgrowing the cache — it
// backs off multiplicatively (at most once per windowful). The window
// therefore converges on the host's own knee without any tuning, within
// [1, kMaxAmWindow]. An explicit UPCXX_AM_WINDOW=<n> pins it (tests, the
// am-window-1 CI job). Every window-derived bound (pools, queue slack,
// engine back-pressure) reads the *current* window, so the whole state
// machine tracks the moving operating point.
//
// Execution model (the part that differs from the direct wire): data lands
// when the *target* runs the request handler inside its AmEngine::poll —
// i.e. during any internal progress the target makes — not at initiator
// injection. Ring FIFO per rank pair still guarantees the barrier ordering:
// requests issued before a barrier message are handled at the target before
// the barrier message is, so "put, barrier, read" keeps its meaning —
// upcxx's barrier entry drains both the XferEngine's pending chunks and
// this protocol's sender-side queue before contributing to the barrier.
//
// Handler discipline: request handlers only copy bytes and *record* the ack
// or reply to send; nothing is injected from inside a handler (a reply send
// could spin on a full ring and re-enter the inbox ring's try_consume,
// which is not reentrant). poll() — called from the rank's internal
// progress right after AmEngine::poll — performs the deferred sends and
// fires initiator-side completion callbacks.
//
// Threading: per-rank object with a split issue path. The progress persona
// (worker 0) is the sole *consumer* — it alone runs AmEngine::poll, every
// request/reply handler, poll_requests/flush_acks, and every completion
// callback. Request *injection* (put/get — the XferEngine chunk movers) is
// additionally open to progress-pool helpers running
// XferEngine::issue_pass: the per-peer state they touch (sendq, owed acks,
// the put staging pool) sits behind a per-peer spinlock with bounded
// critical sections (never held across a send or a spin), the credit
// window is an atomic claimed by CAS, and the pending map has its own
// lock. Helpers never poll: their AmEngine::prepare calls pass
// may_poll=false (yield-spin on a full ring, which the *target* drains
// independently), and on an exhausted staging heap they requeue the
// request into the sendq instead of poll-spinning (every staged put, one
// run or many). on_consumer() — a thread-local marker stamped by the
// constructor and refreshed by every poll_requests — tells the two roles
// apart. Reply staging (reply_pool/reply_out) stays consumer-only plain
// state.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "arch/small_fn.hpp"
#include "arch/spinlock.hpp"
#include "gex/am.hpp"
#include "gex/xfer.hpp"

namespace gex {

// Per-target adaptive window controller (BBR-style). Fed one request→ack
// round-trip time per retired credit; maintains an RTT floor (true min
// with a slow upward drift so a stale floor from a quiet period cannot
// permanently misjudge a new traffic regime) and classifies each ack as
// timely iff rtt <= floor × envelope + kAmRttSlackNs. A windowful of
// consecutive timely acks grows the window by one (additive probe — the
// growth rate is one per RTT, like BBR's probe phase); a late ack shrinks
// it multiplicatively (×1/2), at most once per windowful so one
// scheduler blip doesn't collapse the pipeline. Window stays in
// [1, max]. Pure state machine — no clock of its own — so tests drive it
// with synthetic delays.
class AmWindowController {
 public:
  // Absolute slack added to the envelope: sub-microsecond shared-memory
  // RTT floors make a purely multiplicative envelope brittle (any
  // scheduler blip is 100× the floor), so lateness additionally requires
  // this much absolute queuing delay. The value sets the equilibrium
  // depth: an ack's RTT includes the service time of the window's other
  // in-flight chunks, so the controller settles near
  // (envelope×floor + slack) / chunk_service_time — 100 µs over ~10 µs
  // staged-chunk copies lands in the 8–16 range the window-sweep knee
  // (bench/abl_am_protocol) identifies, while still reacting to real
  // multi-window backlog rather than scheduler jitter.
  static constexpr std::uint64_t kAmRttSlackNs = 100'000;

  AmWindowController(std::uint32_t start, std::uint32_t max,
                     double envelope)
      : envelope_(envelope >= 1.0 ? envelope : 1.0),
        win_(start ? start : 1),
        max_(max ? max : 1) {
    if (win_.load(std::memory_order_relaxed) > max_)
      win_.store(max_, std::memory_order_relaxed);
  }

  // Feeds one ack RTT; returns +1 (window grew), -1 (shrank), 0 (held).
  // Single-writer (the consumer's completion loop); window() may be read
  // concurrently by helper issue passes, hence the atomic win_.
  int on_ack(std::uint64_t rtt_ns) {
    if (rtt_floor_ == 0 || rtt_ns < rtt_floor_) {
      rtt_floor_ = rtt_ns;
    } else {
      // Slow drift toward the observed RTT so the floor adapts when the
      // regime genuinely changes (~256 acks to cross a sustained gap).
      rtt_floor_ += (rtt_ns - rtt_floor_) >> 8;
    }
    ++since_shrink_;
    const std::uint32_t w = win_.load(std::memory_order_relaxed);
    const double bound =
        static_cast<double>(rtt_floor_) * envelope_ +
        static_cast<double>(kAmRttSlackNs);
    if (static_cast<double>(rtt_ns) > bound) {
      timely_ = 0;
      // One backoff per windowful: the acks already in flight when the
      // window shrank will mostly look late too — don't charge them.
      if (since_shrink_ >= w && w > 1) {
        win_.store(w / 2 > 0 ? w / 2 : 1, std::memory_order_relaxed);
        since_shrink_ = 0;
        return -1;
      }
      return 0;
    }
    if (++timely_ >= w && w < max_) {
      timely_ = 0;
      win_.store(w + 1, std::memory_order_relaxed);
      return +1;
    }
    return 0;
  }

  std::uint32_t window() const {
    return win_.load(std::memory_order_relaxed);
  }
  std::uint32_t max_window() const { return max_; }
  std::uint64_t rtt_floor_ns() const { return rtt_floor_; }

 private:
  double envelope_;
  std::atomic<std::uint32_t> win_;
  std::uint32_t max_;
  std::uint64_t rtt_floor_ = 0;
  std::uint32_t timely_ = 0;        // consecutive timely acks since a grow
  std::uint32_t since_shrink_ = 0;  // acks since the last backoff
};

class RmaAmProtocol {
 public:
  using Done = arch::UniqueFunction<void()>;

  // Sender-side queue slots beyond the window before an injecting call
  // blocks (making progress while it waits). Bounds the payload copies a
  // flood can park in private memory.
  static constexpr std::size_t kQueueSlack = 64;

  // A contiguous run in the *remote* rank's address space. In memory this
  // holds the initiator's view of the address (cross-mapped today); on the
  // wire it always travels as a (segment id, offset) pair resolved at the
  // owning rank — see wire_enc/wire_dec below.
  struct Frag {
    std::uint64_t addr;
    std::uint64_t bytes;
  };
  // A contiguous run in the initiator's address space.
  struct LocalFrag {
    void* ptr;
    std::size_t bytes;
  };

  // `w` is a resolved policy (gex::resolve_am_window at launch): a pinned
  // window, or the adaptive controller started at w.window per target.
  // The adaptive ceiling is footprint-clamped: ceiling × am-wire chunk is
  // the in-flight staging working set (same cache argument as the
  // kAmXferChunkBytes clamp), so letting RTT drift walk the window to
  // kMaxAmWindow at 64K chunks would trade a 4MB working set for depth
  // that is pure cache thrash. Budget 1MB, never below the start window.
  // Pre-creates one Peer per rank (Config::ranks), so peer() is an
  // index — no container mutation races with helper issue passes.
  explicit RmaAmProtocol(AmEngine* am,
                         AmWindowSetting w = {false, kDefaultAmWindow},
                         double rtt_envelope = kDefaultAmRttEnvelope);

  static std::uint32_t adaptive_ceiling(AmEngine* am);

  // The four entry points below are one path: a contiguous transfer is
  // the one-run case of the fragment records. Stats count one-run
  // requests as puts_sent/gets_sent and multi-run ones as frag_*.
  //
  // Contiguous put: the payload leaves src before this call returns (the
  // initiator may reuse src immediately) — copied into the wire when a
  // credit is available, into the sender-side queue otherwise. `done` fires
  // from a later poll() once the target has memcpy'd the payload and its
  // ack arrived.
  void put(int target, void* dst, const void* src, std::size_t bytes,
           Done done);

  // Contiguous get: `dst` must stay valid until `done` fires (the reply
  // handler scatters into it first).
  void get(int target, void* dst, const void* src, std::size_t bytes,
           Done done);

  // Scatter-put: local fragments are gathered directly into the request
  // payload (or the queue buffer when the window is full); the target
  // scatters into `dsts` in order. Total source and destination bytes must
  // match.
  void put_fragments(int target, const std::vector<Frag>& dsts,
                     const std::vector<LocalFrag>& srcs, Done done);

  // Gather-get: the target gathers `srcs` into one reply; the initiator
  // scatters the payload into `dsts` in order (each must stay valid until
  // `done` fires).
  void get_fragments(int target, const std::vector<Frag>& srcs,
                     std::vector<LocalFrag> dsts, Done done);

  // Fires due completion callbacks (returning their credits and releasing
  // queued requests), sends queued requests as credits allow, and flushes
  // deferred acks/replies — acks owed to one target coalesce into a single
  // multi-ack record per call. Called from internal progress after
  // AmEngine::poll (upcxx::progress does; run_rank's teardown loop does for
  // raw-gex users). Returns the number of actions performed.
  //
  // Equivalent to poll_requests() + flush_acks(). Drivers that issue more
  // protocol traffic between the two (upcxx internal progress runs the
  // XferEngine in between, whose chunk requests are the natural piggyback
  // carriers) call the halves explicitly so owed acks get a chance to ride
  // reverse traffic before a standalone record is spent on them.
  int poll() { return poll_requests() + flush_acks(); }

  // Completions, queued-request release, and deferred replies — everything
  // except standalone ack records.
  int poll_requests();

  // One multi-ack record per target still owed acks after the piggyback
  // opportunities above.
  int flush_acks();

  // No requests awaiting completion (in flight or queued), nothing
  // deferred to send, and no staged reply still awaiting its consumption
  // ack (the buffer is pinned until the rack arrives).
  bool idle() const;
  // Requests not yet completed, whether on the wire or still queued.
  std::size_t outstanding() const {
    arch::SpinGuard g(pending_mu_);
    return pending_.size();
  }
  // Requests parked sender-side waiting for credits.
  std::size_t queued() const {
    std::size_t n = 0;
    for (const auto& p : peers_)
      n += p->sendq_n.load(std::memory_order_acquire);
    return n;
  }
  // The pinned window, or — adaptive mode — the controller ceiling
  // (kMaxAmWindow): in both cases the hard bound every per-target window
  // and pool respects, which is what invariant checks compare against.
  std::uint32_t window() const { return adaptive_ ? max_window_ : window_; }
  bool adaptive_window() const { return adaptive_; }
  // The current operating window for `target` (moves in adaptive mode).
  std::uint32_t window_now(int target) const {
    if (target < 0 || static_cast<std::size_t>(target) >= peers_.size())
      return window_;
    return window_now(*peers_[target]);
  }

  // True when a request to `target` would go straight onto the wire (a
  // credit is free and nothing is queued ahead of it). The XferEngine's
  // chunk movers consult this (WireOps::ready) so chunks wait in the
  // engine — where they cost nothing — instead of piling up payload copies
  // in the sender-side queue. Reads the *current* window, so engine
  // back-pressure follows an adaptive window as it moves: a shrink simply
  // reports not-ready until in-flight requests drain below the new bound.
  // Pure atomic peeks — safe (and advisory) from any thread.
  bool can_accept(int target) const {
    if (target < 0 || static_cast<std::size_t>(target) >= peers_.size())
      return true;
    const Peer& p = *peers_[target];
    return p.sendq_n.load(std::memory_order_acquire) == 0 &&
           p.outstanding.load(std::memory_order_relaxed) < window_now(p);
  }

  // Teardown giving-up path: a peer (or the whole job) failed, its acks and
  // replies will never arrive. Releases every credit, cancels queued and
  // in-flight requests (their `done` callbacks are destroyed, not fired —
  // the arena error flag is the failure signal), and drops owed acks so no
  // later poll tries to send into a dead rank's possibly-full ring.
  void fail_all_peers();

  // XferEngine chunk movers backed by this protocol — install with
  // XferEngine::set_wire to put the chunked engine on the am wire.
  XferEngine::WireOps wire_ops();

  struct Stats {
    std::uint64_t puts_sent = 0;
    std::uint64_t gets_sent = 0;
    std::uint64_t frag_puts_sent = 0;
    std::uint64_t frag_gets_sent = 0;
    std::uint64_t puts_handled = 0;
    std::uint64_t gets_handled = 0;
    std::uint64_t acks_sent = 0;       // standalone multi-ack records
    std::uint64_t ack_cookies_sent = 0;  // cookies in standalone records
    std::uint64_t acks_piggybacked = 0;  // cookies on reverse traffic
    std::uint64_t replies_sent = 0;
    std::uint64_t requests_queued = 0;   // parked for lack of a credit
    std::uint64_t send_stalls = 0;       // spins waiting for a queue slot
    std::uint64_t max_outstanding = 0;   // peak in-flight to any one target
    std::uint64_t queued_peak = 0;       // peak sender-side queue depth
    std::uint64_t cancelled = 0;         // dropped by fail_all_peers
    std::uint64_t stale_completions = 0;  // acks/replies after a cancel
    std::uint64_t puts_staged = 0;       // puts through the bounce pool
    std::uint64_t stage_allocs = 0;      // pool misses (fresh heap blocks)
    // Pooled reply staging (target side unless noted).
    std::uint64_t replies_staged = 0;    // GET replies through the pool
    std::uint64_t reply_pool_hits = 0;   // stage acquisitions from the pool
    std::uint64_t reply_stage_allocs = 0;  // fresh heap blocks for replies
    std::uint64_t reply_fallbacks = 0;   // bound/heap exhausted -> old path
    std::uint64_t staged_replies_handled = 0;  // initiator: consumed
    std::uint64_t reply_ack_cookies_sent = 0;  // racks in standalone records
    std::uint64_t reply_acks_piggybacked = 0;  // racks on reverse traffic
    // Adaptive window controller, summed across peers.
    std::uint64_t window_grow = 0;
    std::uint64_t window_shrink = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  friend struct RmaAmHandlers;  // the registered AM handlers (rma_am.cpp)

  // A pool bounce buffer (shared-heap block, identical mapping in every
  // rank — the same addressing contract as rendezvous buffers).
  struct StageBuf {
    void* p = nullptr;
    std::size_t cap = 0;
  };
  struct Pending {
    int target;
    Done done;
    std::vector<LocalFrag> scatter;  // gets: local landing runs, wire order
    StageBuf stage{};  // staged puts: recycled into the pool on ack
    std::uint64_t send_ns = 0;  // wire-send time (adaptive RTT sampling)
  };
  // A window-blocked request. Puts own their payload (the caller's source
  // buffer is reusable the moment the injecting call returns); gets keep
  // their scatter list in pending_ like every other get.
  struct QueuedReq {
    enum Kind : std::uint8_t { kPut, kGet };
    Kind kind;
    std::uint64_t cookie;
    std::vector<Frag> remote;        // the remote runs, wire order
    std::vector<std::byte> payload;  // puts only: the gathered sources
  };
  struct QueuedReply {
    int target;
    std::uint64_t cookie;
    std::vector<Frag> gather;  // local (this rank's) source runs
  };
  // Per-target sender and receiver state: the credit window (with its
  // adaptive controller), the queue of window-blocked requests, the acks
  // and reply-consumption acks this rank owes that target, and both
  // staging pools (put bounce buffers as initiator, reply buffers as
  // target). `mu` guards sendq / acks_owed / racks_owed / stage_pool —
  // the state both the consumer and helper issue passes touch; critical
  // sections stay bounded (never across a send or a spin). `outstanding`
  // is the credit counter, claimed by CAS against window_now; `sendq_n`
  // mirrors sendq.size() for lock-free peeks (can_accept, credits).
  // reply_pool/reply_out are consumer-only plain state.
  struct Peer {
    Peer(int t, std::uint32_t start, std::uint32_t max, double envelope)
        : target(t), ctrl(start, max, envelope) {}
    const int target;
    AmWindowController ctrl;
    std::atomic<std::uint32_t> outstanding{0};  // on the wire, not retired
    std::atomic<std::size_t> sendq_n{0};        // mirrors sendq.size()
    mutable arch::Spinlock mu;
    std::deque<QueuedReq> sendq;
    std::vector<std::uint64_t> acks_owed;
    std::vector<std::uint64_t> racks_owed;  // staged replies consumed here
    std::vector<StageBuf> stage_pool;  // free bounce buffers, ready to reuse
    std::vector<StageBuf> reply_pool;  // free reply buffers, ready to reuse
    // Staged replies sent to this peer, pinned until its rack returns.
    std::unordered_map<std::uint64_t, StageBuf> reply_out;
  };

  // Wire-address translation (gex/segment.hpp): every remote/staged
  // address leaving this rank is packed to (segment id, offset) at record
  // encode, and every address arriving is resolved against this rank's own
  // mapping at decode — no wire byte depends on the peer's virtual-address
  // layout. Both abort on addresses outside the registered segments.
  WireAddr wire_enc(std::uint64_t addr) const;
  std::uint64_t wire_dec(WireAddr wa) const;

  Peer& peer(int target) {
    assert(target >= 0 &&
           static_cast<std::size_t>(target) < peers_.size() &&
           "peer rank outside the configured job size");
    return *peers_[static_cast<std::size_t>(target)];
  }
  // The operating window for one peer: pinned, or the controller's current
  // value. Every bound in the protocol (credits, queue cap, both staging
  // pools, engine back-pressure) derives from this so the state machine
  // follows an adaptive window as it moves.
  std::uint32_t window_now(const Peer& p) const {
    return adaptive_ ? p.ctrl.window() : window_;
  }
  // Consumer identity: poll_requests (and the constructor) stamp the
  // calling thread's marker; everything checking on_consumer() branches
  // between consumer behavior (may poll, may spin-with-poll) and helper
  // behavior (never polls, parks instead of spinning). A stale marker
  // only *softens* a helper's behavior — the true consumer re-stamps on
  // its next poll, so it never wrongly classifies itself as a helper
  // across a blocking spin.
  static const void* thread_marker() {
    static thread_local char tm;
    return &tm;
  }
  bool on_consumer() const {
    return consumer_tm_.load(std::memory_order_relaxed) == thread_marker();
  }
  // The job's error flag is up (a peer failed).
  bool job_failing() const;
  // Null .p when the job is failing and the heap is exhausted (the blocks
  // may be pinned by a dead peer's unacked requests) — the caller cancels.
  StageBuf acquire_stage(Peer& p, std::size_t bytes);
  void recycle_stage(Peer& p, StageBuf buf);
  // Reply-staging twin of acquire_stage, but *non-blocking*: null .p when
  // the per-peer staged-reply bound is reached or the heap has no block
  // right now — the caller falls back to the rendezvous REPLY path instead
  // of stalling the target's poll loop.
  StageBuf acquire_reply_stage(Peer& p, std::size_t bytes);
  // Initiator's rack arrived: unpin the staged reply buffer `cookie` and
  // recycle it into the peer's reply pool (freed if the pool is at its
  // bound — the window may have shrunk since the buffer went out).
  void recycle_reply(Peer& p, std::uint64_t cookie);
  void cancel_sent(Peer& p, std::uint64_t cookie);
  std::uint64_t new_pending(int target, Done done,
                            std::vector<LocalFrag> scatter);
  // Both ack namespaces owed to one target, drained together for embedding
  // in an outgoing record (request acks retire credits at the receiver;
  // reply acks unpin staged reply buffers).
  struct OwedAcks {
    std::vector<std::uint64_t> acks;   // request cookies
    std::vector<std::uint64_t> racks;  // staged-reply cookies
  };
  OwedAcks take_acks(int target);
  // Locked appends to the owed lists: handlers (consumer) record debts
  // while a helper's concurrent send to the same peer may be draining
  // them through take_acks.
  void owe_ack(int src, std::uint64_t cookie) {
    Peer& p = peer(src);
    arch::SpinGuard g(p.mu);
    p.acks_owed.push_back(cookie);
  }
  void owe_rack(int src, std::uint64_t cookie) {
    Peer& p = peer(src);
    arch::SpinGuard g(p.mu);
    p.racks_owed.push_back(cookie);
  }
  // Records the wire-send time of `cookie` for adaptive RTT sampling
  // (no-op when the window is pinned).
  void note_wire_send(std::uint64_t cookie);
  // CAS on p.outstanding against the current window; true means the
  // caller owns one credit and must send (or release it via cancel_sent or
  // a requeue). Fails while anything is parked in the sendq — queued
  // requests go first, and only flush_sendq (consumer) drains those.
  bool try_claim_credit(Peer& p);
  // Claims one credit ignoring the sendq (flush_sendq draining its own
  // queue). Shared CAS loop with try_claim_credit.
  bool claim_outstanding(Peer& p);
  void enqueue(Peer& p, QueuedReq q);
  // A window-blocked (or requeued) put: the remote runs plus an owned
  // copy of the gathered sources.
  static QueuedReq queued_put(std::uint64_t cookie, const Frag* dsts,
                              std::size_t ndsts, const LocalFrag* srcs,
                              std::size_t nsrcs);
  // Sends queued requests while credits allow; returns actions performed.
  int flush_sendq(Peer& p);

  // The one put and one get path every entry point funnels into (a
  // contiguous transfer is the one-run case): claim a credit and send, or
  // park the request in the peer's sendq.
  void start_put(int target, const Frag* dsts, std::size_t ndsts,
                 const LocalFrag* srcs, std::size_t nsrcs, Done done);
  void start_get(int target, const Frag* srcs, std::size_t n,
                 std::vector<LocalFrag> dsts, Done done);

  // A record under construction: the engine send buffer, the cursor past
  // its header and piggybacked acks, and how many of each it carries.
  struct Record {
    AmEngine::SendBuf sb;
    std::byte* body;
    std::uint32_t nacks;
    std::uint32_t nracks;
  };
  // Reserves a record for handler `h` with `body` bytes after the header
  // and drains the target's owed acks and racks into it (the header's
  // nacks/nracks are filled in here).
  template <typename H>
  Record open_record(int target, HandlerIdx h, H hdr, std::size_t body);
  // Commits a request or reply record, counting its piggybacked acks.
  void send_record(Record& r);
  // Writes `n` remote runs as wire descriptors; returns the end.
  std::byte* write_descs(std::byte* q, const Frag* runs,
                         std::size_t n) const;

  // Wire writers for a claimed credit: inline when header, descriptors
  // and payload fit a record, otherwise payload through the staging pool.
  void send_put_frag(int target, std::uint64_t cookie, const Frag* dsts,
                     std::size_t ndsts, const LocalFrag* srcs,
                     std::size_t nsrcs);
  void send_get_frag(int target, std::uint64_t cookie, const Frag* srcs,
                     std::size_t n);

  AmEngine* am_;
  bool adaptive_;          // window policy: controller vs pinned
  std::uint32_t window_;   // pinned window / adaptive starting window
  std::uint32_t max_window_;  // hard ceiling (== window_ when pinned)
  double envelope_;        // controller RTT envelope factor
  std::atomic<const void*> consumer_tm_{nullptr};
  // Guards pending_ and next_cookie_ (injected sends create entries while
  // the consumer's completion loop extracts them). Never held across a
  // send, a spin, or a user callback; leaf in the lock order (taken under
  // an XferEngine channel lock, never with a Peer::mu held).
  mutable arch::Spinlock pending_mu_;
  std::uint64_t next_cookie_ = 1;
  std::unordered_map<std::uint64_t, Pending> pending_;  // initiator side
  // One entry per rank, created up front (indexed by rank id): no
  // container mutation after construction, so helper issue passes hold
  // stable references without a container lock.
  std::vector<std::unique_ptr<Peer>> peers_;
  std::vector<QueuedReply> replies_;   // target side, deferred to poll()
  std::vector<std::uint64_t> completed_;  // acked/replied, done not yet run
  Stats stats_;
};

}  // namespace gex
