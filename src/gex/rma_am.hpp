// Active-message RMA protocol — the `am` wire behind UPCXX_RMA_WIRE.
//
// The direct wire assumes the target's segment is cross-mapped (initiator
// memcpys straight into the target's heap — GASNet PSHM). A conduit without
// that property must move RMA through active messages instead; this file is
// that protocol, shaped like the real GASNet-EX AM-based rput/rget path:
//
//   PUT    [FragHdr][acks][n descs][payload] -> target scatters, owes an ACK
//   GET    [FragHdr][acks][n descs]          -> target gathers, REPLY
//   REPLY  [RepHdr][acks][payload]           -> initiator scatters, completes
//   ACK    [AckHdr][acks]                    -> initiator completions
//
// One record shape per direction: a request names its remote runs with
// `n` (address, bytes) descriptors in the record itself, and a contiguous
// put or get is simply the n == 1 case. Every record is an ordinary
// AmEngine record, so the engine alone decides how its bytes travel — as
// GASNet-EX's AM Medium/Long split does below its RMA: up to eager_max
// inline through the inbox ring, above it through the engine's shared-heap
// rendezvous (the ring carries only a descriptor, the target's handler
// reads the payload in the heap, and the engine frees the block when the
// handler returns), and on a transport without shared memory (socket)
// always inline, where chunk_bytes() sizes the XferEngine's pieces so
// every record fits. Large payloads therefore never fill a ring: a target
// that stops polling parks a window of heap blocks, not the ring every
// other sender to it shares. Handlers are registered in the gex handler
// registry (gex/handlers.hpp) at static init, so forked ranks agree on
// indices; no code pointer ever rides the wire, and completion cookies
// are opaque initiator-local ids, not addresses.
//
// Flow control (UPCXX_AM_WINDOW): at most `window` unacknowledged requests
// may be in flight to one target. The protocol holds no queue of its own:
// every request comes from the XferEngine (gex/xfer.hpp), whose per-target
// channel is the one sender-side queue. The engine asks credits(target)
// before each issue and leaves the op in its channel — pointing at the
// caller's buffer, no payload copy — while the answer is 0, so a flood of
// puts waits locally instead of spin-polling against the target's full
// ring and shared heap, and goes out as acks retire credits. Replies and
// acks never consume credits (a credit-gated ack would deadlock the very
// window it retires).
//
// Ack aggregation: a put's ack is batched — all acks owed to one target
// per poll() collapse into a single multi-ack record, and any request or
// reply headed toward a peer carries the acks owed to that peer
// piggybacked after its header.
//
// Fixed window: every target gets the same credit window, kDefaultAmWindow
// (16) unless UPCXX_AM_WINDOW=<n> or Config::am_window pins another. 16 is
// 1 MiB in flight over the 64 KiB am-wire chunk; a window adapted from ack
// RTTs measured no better (DESIGN.md).
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

  // A remote run's address is a wire address (gex/segment.hpp): it rides
  // the record as is and is resolved against the owning rank's own
  // mapping when the record is handled.
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
  // request record before this returns, so the initiator may reuse them;
  // the target scatters into `dsts` in order. Total source and destination
  // bytes must match. `done` fires from a later poll() once the target has
  // copied the payload and its ack arrived.
  void start_put(int target, const Frag* dsts, std::size_t ndsts,
                 const LocalFrag* srcs, std::size_t nsrcs, Done done);
  // Gather-get: the target gathers `srcs` into one reply; the initiator
  // scatters the payload into the `ndsts` runs at `dsts` in order (the
  // list is copied; each run must stay valid until `done` fires).
  void start_get(int target, const Frag* srcs, std::size_t n,
                 const LocalFrag* dsts, std::size_t ndsts, Done done);

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
  // records.
  int poll_requests();

  // One multi-ack record per target still owed acks after the piggyback
  // opportunities above.
  int flush_acks();

  // No requests awaiting completion and nothing deferred to send.
  bool idle() const;
  // Requests sent and not yet completed, summed over targets.
  std::size_t outstanding() const { return pending_.size(); }
  // The per-target credit window: the bound on requests in flight to one
  // target.
  std::uint32_t window() const { return window_; }

  // Teardown giving-up path: a peer (or the whole job) failed, its acks and
  // replies will never arrive. Releases every credit, cancels in-flight
  // requests (their `done` callbacks are destroyed, not fired — the arena
  // error flag is the failure signal), and drops owed acks so no later
  // poll tries to send into a dead rank's possibly-full ring. Ops still in
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
    std::uint64_t replies_sent = 0;
    std::uint64_t max_outstanding = 0;   // peak in-flight to any one target
    std::uint64_t cancelled = 0;         // dropped by fail_all_peers
    std::uint64_t stale_completions = 0;  // acks/replies after a cancel
    // Always 0, kept only because upcxx_bench reads them (delete each with
    // that read at the next benchmark change): the protocol holds no queue
    // (credit-blocked ops wait in the XferEngine channel), stages nothing
    // of its own (large payloads ride the AmEngine's rendezvous) and has a
    // fixed window.
    std::uint64_t puts_staged = 0;
    std::uint64_t stage_allocs = 0;
    std::uint64_t reply_pool_hits = 0;
    std::uint64_t reply_stage_allocs = 0;
    std::uint64_t requests_queued = 0;
    std::uint64_t send_stalls = 0;
    std::uint64_t reply_fallbacks = 0;
    std::uint64_t window_shrink = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  friend struct RmaAmHandlers;  // the registered AM handlers (rma_am.cpp)

  struct Pending {
    int target;
    Done done;
    std::vector<LocalFrag> scatter;  // gets: local landing runs, wire order
  };
  struct QueuedReply {
    int target;
    std::uint64_t cookie;
    std::vector<LocalFrag> gather;  // this rank's source runs, decoded
  };
  // Per-target sender and receiver state: the acks this rank owes that
  // target. `outstanding` is the credit counter, claimed against the
  // window.
  struct Peer {
    explicit Peer(int t) : target(t) {}
    const int target;
    std::uint32_t outstanding = 0;  // on the wire, not retired
    std::vector<std::uint64_t> acks_owed;
  };

  Peer& peer(int target) {
    assert(target >= 0 &&
           static_cast<std::size_t>(target) < peers_.size() &&
           "peer rank outside the configured job size");
    return *peers_[static_cast<std::size_t>(target)];
  }
  std::uint64_t new_pending(int target, Done done,
                            std::vector<LocalFrag> scatter);
  // One multi-ack record carrying every ack owed to `p`.
  void send_acks(Peer& p);
  // Claims the credit the caller checked for (the one claim: the caller
  // then sends).
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
