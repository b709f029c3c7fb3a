// Active-message RMA protocol — the `am` wire behind UPCXX_RMA_WIRE.
//
// The direct wire assumes the target's segment is cross-mapped (initiator
// memcpys straight into the target's heap — GASNet PSHM). A conduit without
// that property must move RMA through active messages instead; this file is
// that protocol, shaped like the real GASNet-EX AM-based rput/rget path:
//
//   PUT         [FragHdr][acks][n descs][payload]
//                                        -> target scatters, owes an ACK
//   PUT_STAGED  [FragStagedHdr][acks][n descs]
//               (payload in the initiator's pooled bounce buffer)
//                                        -> target scatters, owes an ACK
//   GET         [FragHdr][acks][n descs]
//                                        -> target gathers, REPLY
//   GET_STAGED  [FragStagedHdr][acks][n descs]
//               (landing room in the initiator's pooled bounce buffer)
//                                        -> target gathers into it, ACK
//   REPLY       [RepHdr][acks][payload]  -> initiator scatters, completes
//   ACK         [AckHdr][acks]           -> initiator completions (a
//                                           staged get scatters out of
//                                           its buffer first)
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
// may be in flight to one target. The protocol holds no queue of its own:
// every request comes from the XferEngine (gex/xfer.hpp), whose per-target
// channel is the one sender-side queue. The engine asks credits(target)
// before each issue and leaves the op in its channel — pointing at the
// caller's buffer, no payload copy — while the answer is 0, so a flood of
// puts waits locally instead of spin-polling against the target's full
// ring and staging heap, and goes out as acks retire credits. Replies and
// acks never consume credits (a credit-gated ack would deadlock the very
// window it retires).
//
// Ack aggregation: a put's ack is batched — all acks owed to one target
// per poll() collapse into a single multi-ack record, and any request or
// reply headed toward a peer carries the acks owed to that peer
// piggybacked after its header. A staged get's ack is the exception: it
// leaves in an ACK record right after its gather (draining every other
// ack owed to that peer with it), so the target's gather of the next
// chunk overlaps the initiator's scatter of this one.
//
// Pooled staging: a payload too large to ride inline goes through the
// initiator's per-peer pool of recycled shared-heap bounce buffers instead
// of the AmEngine's allocate-per-message rendezvous path — in both
// directions. A put gathers into a pool buffer (payload only — the
// descriptors ride in the record, so a 64 KiB chunk takes a 64 KiB block)
// and ships a small PUT_STAGED record; a get takes a block as landing room
// and ships GET_STAGED, the target gathers straight into it. Either way the
// buffer comes back when the target's ack arrives (the ack that already
// drives completion — no extra traffic). The pool is bounded by the credit
// window (at most `window` buffers can be in flight), so a steady chunked
// stream cycles through the same few cache-hot buffers with no allocator
// traffic — which is what lets the am wire track the direct wire's
// bandwidth instead of paying a cold DRAM round trip per chunk. Staging
// needs a cross-mapped heap: on a transport without one (socket) every
// request and reply rides inline, and chunk_bytes() sizes the engine's
// pieces so that always fits one record.
//
// Fixed window: every target gets the same credit window, kDefaultAmWindow
// (16) unless UPCXX_AM_WINDOW=<n> or Config::am_window pins another. 16 is
// the 1 MiB staging budget over the 64 KiB am-wire chunk, so the in-flight
// staging working set (window × chunk) stays cache-sized; a window
// adapted from ack RTTs measured no better (DESIGN.md).
//
// Execution model (the part that differs from the direct wire): data lands
// when the *target* runs the request handler inside its AmEngine::poll —
// i.e. during any internal progress the target makes — not at initiator
// injection. Ring FIFO per rank pair still guarantees the barrier ordering:
// requests issued before a barrier message are handled at the target before
// the barrier message is, so "put, barrier, read" keeps its meaning —
// upcxx's barrier entry drains the XferEngine's channels onto the wire
// before contributing to the barrier.
//
// Handler discipline: request handlers only copy bytes and *record* the ack
// or reply to send; nothing is injected from inside a handler (a reply send
// could spin on a full ring and re-enter the inbox ring's try_consume,
// which is not reentrant). poll() — called from the rank's internal
// progress right after AmEngine::poll — performs the deferred sends and
// fires initiator-side completion callbacks.
//
// Threading: one thread issues and consumes — the holder of the owning
// rank's context. It alone runs request injection (start_put/start_get,
// called by the XferEngine), AmEngine::poll with every request/reply
// handler, poll_requests/flush_acks and every completion callback;
// start_put, start_get and both poll halves assert it. The protocol state
// is therefore plain: no locks, and credits are plain counters.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "arch/small_fn.hpp"
#include "gex/am.hpp"
#include "gex/xfer.hpp"

namespace gex {

class RmaAmProtocol {
 public:
  using Done = arch::UniqueFunction<void()>;

  // A remote run holds the initiator's view of the address (cross-mapped
  // today); on the wire it always travels as a (segment id, offset) pair
  // resolved at the owning rank — see wire_enc/wire_dec below.
  using Frag = XferEngine::Frag;
  using LocalFrag = XferEngine::LocalFrag;

  // `window` is the per-target credit window (gex::resolve_am_window at
  // launch; 0 is treated as 1). Pre-creates one Peer per rank
  // (Config::ranks), so peer() is an index.
  explicit RmaAmProtocol(AmEngine* am,
                         std::uint32_t window = kDefaultAmWindow);

  // The XferEngine piece size on the am wire: `want` (Config::
  // xfer_chunk_bytes) capped at kAmXferChunkBytes, and on a transport
  // without shared memory also capped so that a request or reply carrying
  // one piece — payload plus 16 B per run descriptor — together with its
  // header and the at most `window` acks owed to its peer fits inside
  // AmEngine::inline_max().
  static std::size_t chunk_bytes(AmEngine& am, std::uint32_t window,
                                 std::size_t want);

  // The two entry points: one put path and one get path, each a single
  // request naming its remote runs (a contiguous transfer is the one-run
  // case). Stats count one-run requests as puts_sent/gets_sent and
  // multi-run ones as frag_*. The caller must hold a credit —
  // credits(target) > 0 — and each call claims one; the XferEngine is the
  // caller that checks.
  //
  // Scatter-put: the local runs are gathered, in order, straight into the
  // request record (or a pooled staging buffer) before this returns, so
  // the initiator may reuse them; the target scatters into `dsts` in
  // order. Total source and destination bytes must match. `done` fires
  // from a later poll() once the target has copied the payload and its ack
  // arrived.
  void start_put(int target, const Frag* dsts, std::size_t ndsts,
                 const LocalFrag* srcs, std::size_t nsrcs, Done done);
  // Gather-get: the target gathers `srcs` into one reply (or, for a payload
  // too large to ride inline, straight into a pooled bounce buffer of this
  // rank's); the initiator scatters the payload into `dsts` in order (each
  // must stay valid until `done` fires).
  void start_get(int target, const Frag* srcs, std::size_t n,
                 std::vector<LocalFrag> dsts, Done done);

  // Requests the window admits toward `target` right now: the window
  // minus requests in flight, and 0 once the job's error flag is up (so
  // nothing is ever sent into a dead rank's ring).
  std::uint32_t credits(int target) const;

  // Fires due completion callbacks (returning their credits) and flushes
  // deferred replies and acks — acks owed to one target coalesce into a
  // single multi-ack record per call. Called from internal progress after
  // AmEngine::poll (upcxx::progress does; run_rank's teardown loop does for
  // raw-gex users). Returns the number of actions performed.
  //
  // Equivalent to poll_requests() + flush_acks(). Drivers that issue more
  // protocol traffic between the two (upcxx internal progress runs the
  // XferEngine in between, whose chunk requests are the natural piggyback
  // carriers) call the halves explicitly so owed acks get a chance to ride
  // reverse traffic before a standalone record is spent on them.
  int poll() { return poll_requests() + flush_acks(); }

  // Completions and deferred replies — everything except standalone ack
  // records for puts (a staged get's ACK leaves right after its gather).
  int poll_requests();

  // One multi-ack record per target still owed acks after the piggyback
  // opportunities above.
  int flush_acks();

  // No requests awaiting completion and nothing deferred to send.
  bool idle() const;
  // Requests sent and not yet completed, summed over targets.
  std::size_t outstanding() const { return pending_.size(); }
  // The per-target credit window: the bound on requests in flight to one
  // target and on its staging pool.
  std::uint32_t window() const { return window_; }

  // Teardown giving-up path: a peer (or the whole job) failed, its acks and
  // replies will never arrive. Releases every credit, cancels in-flight
  // requests (their `done` callbacks are destroyed, not fired — the arena
  // error flag is the failure signal), and drops owed acks so no later
  // poll tries to send into a dead rank's possibly-full ring. Pooled
  // buffers and staged puts' buffers go back to the heap; an in-flight
  // staged get's buffer does not — a live target may still gather into
  // it — and stays allocated until the arena is torn down. Ops still in
  // the XferEngine's channels stay there: credits() reads 0 while the
  // error flag is up, so the engine never issues them.
  void fail_all_peers();

  // The XferEngine wire backed by this protocol (start_put, start_get,
  // credits) — install with XferEngine::set_wire to put the engine on the
  // am wire.
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
    std::uint64_t replies_sent = 0;       // inline replies
    std::uint64_t max_outstanding = 0;   // peak in-flight to any one target
    std::uint64_t cancelled = 0;         // dropped by fail_all_peers
    std::uint64_t stale_completions = 0;  // acks/replies after a cancel
    // Initiator-side staging, one shared bounce pool per peer.
    std::uint64_t puts_staged = 0;       // puts through the bounce pool
    std::uint64_t stage_allocs = 0;      // put pool misses (fresh blocks)
    std::uint64_t gets_staged = 0;       // gets landing in the bounce pool
    std::uint64_t reply_pool_hits = 0;   // get pool hits
    std::uint64_t reply_stage_allocs = 0;  // get pool misses (fresh blocks)
    // Always 0, kept only because upcxx_bench reads them (delete each with
    // that read at the next benchmark change): the protocol holds no queue
    // (credit-blocked ops wait in the XferEngine channel), a get too large
    // to ride inline is always staged, and the window is fixed.
    std::uint64_t requests_queued = 0;
    std::uint64_t send_stalls = 0;
    std::uint64_t reply_fallbacks = 0;
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
    // Staged puts and gets: the bounce buffer, recycled into the pool on
    // ack (a staged get scatters out of it first).
    StageBuf stage{};
  };
  struct QueuedReply {
    int target;
    std::uint64_t cookie;
    std::vector<Frag> gather;  // local (this rank's) source runs
    void* stage;  // GET_STAGED: the initiator's bounce buffer; else null
  };
  // Per-target sender and receiver state: the acks this rank owes that
  // target and its staging pool (as initiator). `outstanding` is the
  // credit counter, claimed against the window.
  struct Peer {
    explicit Peer(int t) : target(t) {}
    const int target;
    std::uint32_t outstanding = 0;  // on the wire, not retired
    std::vector<std::uint64_t> acks_owed;
    std::vector<StageBuf> stage_pool;  // free bounce buffers, ready to reuse
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
  // The job's error flag is up (a peer failed).
  bool job_failing() const;
  // A bounce buffer of at least `bytes` for a staged put (`get` false) or
  // get, counted as a pool hit or miss of that direction. Null .p when the
  // job is failing and the heap is exhausted (the blocks may be pinned by
  // a dead peer's unacked requests) — the caller cancels.
  StageBuf acquire_stage(Peer& p, std::size_t bytes, bool get);
  void recycle_stage(Peer& p, StageBuf buf);
  // acquire_stage for the pending request `cookie`, attached to it so the
  // ack recycles it. Null .p when none could be had: the request is then
  // cancelled (cancel_sent).
  StageBuf stage_for(Peer& p, std::uint64_t cookie, std::size_t bytes,
                     bool get);
  void cancel_sent(Peer& p, std::uint64_t cookie);
  std::uint64_t new_pending(int target, Done done,
                            std::vector<LocalFrag> scatter);
  // One multi-ack record carrying every ack owed to `p`.
  void send_acks(Peer& p);
  // Claims the credit the caller checked for (the one claim: the caller
  // then sends, or releases it via cancel_sent).
  void claim_credit(Peer& p);

  // A record under construction: the engine send buffer, the cursor past
  // its header and piggybacked acks, and how many acks it carries.
  struct Record {
    AmEngine::SendBuf sb;
    std::byte* body;
    std::uint32_t nacks;
  };
  // Reserves a record for handler `h` with `body` bytes after the header
  // and drains the target's owed acks into it (the header's nacks is
  // filled in here).
  template <typename H>
  Record open_record(int target, HandlerIdx h, H hdr, std::size_t body);
  // Commits a request or reply record, counting its piggybacked acks.
  void send_record(Record& r);
  // Writes `n` remote runs as wire descriptors; returns the end.
  std::byte* write_descs(std::byte* q, const Frag* runs,
                         std::size_t n) const;

  AmEngine* am_;
  const std::uint32_t window_;  // per-target credit window
  // The rank bound to the constructing thread (null outside an SPMD
  // region): the one rank whose context may drive this protocol.
  const Rank* const owner_;
  std::uint64_t next_cookie_ = 1;
  std::unordered_map<std::uint64_t, Pending> pending_;  // initiator side
  // One entry per rank, created up front (indexed by rank id).
  std::vector<std::unique_ptr<Peer>> peers_;
  std::vector<QueuedReply> replies_;   // target side, deferred to poll()
  std::vector<std::uint64_t> completed_;  // acked/replied, done not yet run
  Stats stats_;
};

}  // namespace gex
