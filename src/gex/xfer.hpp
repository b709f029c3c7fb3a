// Asynchronous data-motion engine — the substrate's bulk-transfer path and
// the paper's actQ (§III) made real.
//
// Large RMA transfers (and every transfer on the AM wire) are decomposed
// into pipelined chunks held in *per-target channels* and drained by
// *internal* progress with bounded work per poll. The initiating call
// returns immediately after queueing; the actual data motion happens
// inside later poll() calls made by
// whichever thread holds the rank's master persona — so a dedicated
// progress-thread persona gives true communication/computation overlap on
// multicore, which is the property bench/abl_overlap.cpp measures.
//
// Channels: transfers to one target form a FIFO (chunks of transfer N+1
// never start before transfer N's finish), but *different* targets'
// channels advance independently — poll() deals its chunk budget round-
// robin across channels with queued work, so a saturated or slow link to
// one target (out of wire credits, or its acks withheld) never
// head-of-line-blocks traffic to another. Each channel owns its own
// virtual wire clock at the engine-wide Config::sim_bw_gbps.
//
// Wires: the engine decides *when* each chunk moves; a pluggable wire
// decides *how* (WireOps below). The built-in direct wire is an
// initiator-side memcpy into the cross-mapped arena — synchronous,
// zero-allocation, remotely visible on return. The AM wire
// (gex/rma_am.hpp, selected by UPCXX_RMA_WIRE=am) ships each chunk as an
// active-message put/get request and completes it when the target's ack
// arrives; the engine's completion pipeline is identical either way. On
// the AM wire the channels are the *only* sender-side queue: every op,
// small contiguous ones and non-contiguous fragment lists included, waits
// here until the protocol has a credit for its target. The channel to the
// engine's own rank never uses the wire: its entries move by memcpy, with
// no credit gate, whatever wire is installed — an own-rank endpoint may be
// process-private memory no wire request can address (a device-toll
// copy() to a host buffer), and landing still waits out the wire clock
// and the extra toll.
//
// Entries: a contiguous transfer is chunked; a run list (submit_runs — a
// scatter-put or gather-get over lists of runs) is cut into consecutive
// run entries, each one wire request carrying at most one chunk of
// payload plus its descriptors. Both share the channel's FIFO.
//
// Two completion signals per transfer, always in this order:
//   on_source — every byte has been read out of the source buffer (the
//               initiator may reuse it: UPC++ source completion). On the
//               direct wire this means the memcpys happened; on the AM
//               wire it means every chunk's payload was copied into the
//               wire (ring or staging heap).
//   on_landed — every byte is visible at the destination (direct: copied;
//               am: acked by the target) AND the simulated wire has
//               delivered it (see the bandwidth model below). The upcxx
//               layer sends remote_cx notifications and schedules
//               operation completion from this callback, so remote RPCs
//               never observe partially-landed data.
//
// Bandwidth model: with bw_gbps > 0 each channel maintains a virtual wire
// clock. Each chunk issued at real time t advances the clock
// by chunk_bytes / bw; a transfer "lands" only once the clock entry of its
// last chunk has passed. Copies themselves are never delayed (the memory
// system is the real wire here, exactly as GASNet PSHM), so the model
// caps *reported* bandwidth without serializing the actual data motion —
// fig3_rma_bandwidth uses this to produce a real bandwidth curve.
//
// Threading: one thread issues and consumes — the holder of the owning
// rank's context (the master persona's thread, or a progress_thread it
// migrated to). submit, poll and drain_copies assert it. Callbacks fire
// outside any chunk issue and may submit again; a submit that arrives
// while a channel is mid-issue (wire-call recursion) appends behind the
// transfer being issued, so per-target FIFO holds either way.
//
// Memory: entries are pooled nodes linked into their channel's FIFO, so
// an entry never moves while its chunks are on the wire (each chunk's
// done callback counts down the entry's own ack counter) and a steady
// stream of transfers allocates nothing in the engine. The pool never
// shrinks: it holds as many nodes as the most transfers ever queued at
// once, and nothing but the caller's outstanding ops bounds that.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "arch/small_fn.hpp"

namespace gex {

struct Rank;

class XferEngine {
 public:
  using Callback = arch::UniqueFunction<void()>;

  // Pieces issued per poll() by default: bounds the work one internal
  // progress call performs so injection-heavy loops stay responsive. A
  // piece is one chunk of a contiguous transfer or one whole run entry.
  static constexpr int kDefaultChunkBudget = 4;

  // A contiguous run in the *remote* rank's address space (the address as
  // this rank sees it; the AM wire encodes it as a segment offset).
  struct Frag {
    std::uint64_t addr;
    std::uint64_t bytes;
  };
  // A contiguous run in this rank's address space.
  struct LocalFrag {
    void* ptr;
    std::size_t bytes;
  };

  // A pluggable mover. `put` gathers the `local` runs, in order, into the
  // `remote` runs (equal totals) and must consume the local runs before
  // returning (the engine fires on_source once a transfer's last piece
  // has been issued); `get` scatters the `remote` runs into `local` and
  // must have written them by the time it calls done. Either way `done`
  // fires exactly once, when the data is remotely visible — synchronously
  // or from a later engine/AM poll (the AM wire, once the target's ack or
  // reply arrives). A contiguous chunk is the one-run case.
  //
  // `credits` is the wire's back-pressure: how many more requests it
  // accepts toward `target` right now — on the AM wire, the credit window
  // minus requests in flight, and 0 once the job's error flag is up. Each
  // put/get consumes one. The engine re-reads it before every issue, so a
  // channel whose count is 0 holds its entries (they cost nothing here —
  // the source stays pinned until on_source) and poll() deals the budget
  // it cannot use to other channels. Null = unmetered.
  struct WireOps {
    arch::UniqueFunction<void(int target, const Frag* remote,
                              std::size_t nremote, const LocalFrag* local,
                              std::size_t nlocal, Callback done)>
        put;
    arch::UniqueFunction<void(int target, const Frag* remote,
                              std::size_t nremote,
                              std::vector<LocalFrag> local, Callback done)>
        get;
    arch::UniqueFunction<std::uint32_t(int target)> credits;
  };

  // chunk_bytes: pipelining granularity (Config::xfer_chunk_bytes).
  // bw_gbps: simulated bandwidth of each channel's wire in GB/s; 0
  // disables the model.
  XferEngine(std::size_t chunk_bytes, double bw_gbps);

  // Installs a wire (replacing the built-in direct memcpy). Must happen
  // before any submit().
  void set_wire(WireOps ops) { wire_.emplace(std::move(ops)); }

  // Queues an asynchronous move of `bytes` between this rank and `target`
  // (is_get: dst is local, src remote; otherwise src is local, dst
  // remote). No data moves inside this call. Both buffers must stay valid
  // until on_source (src) / on_landed (dst) fire. Either callback may be
  // empty. extra_landing_ns adds a fixed toll to the transfer's landing
  // time on top of the wire clock — the simulated-PCIe cost of a
  // device-kind copy() composes with the wire model through it.
  void submit(int target, void* dst, const void* src, std::size_t bytes,
              Callback on_source, Callback on_landed, bool is_get = false,
              std::uint64_t extra_landing_ns = 0);

  // Queues a scatter-put (is_get false: the `local` runs are gathered into
  // the `remote` runs) or gather-get (the `remote` runs land in `local`)
  // as consecutive run entries, each one wire request (a memcpy of the
  // runs when `target` is the engine's own rank) whose payload plus
  // sizeof(Frag) per remote run — an AM-wire descriptor is an address
  // and a length too — fits chunk_bytes(), so it fits one AM record and
  // one staging block. Runs are split where they straddle an
  // entry boundary. on_source and on_landed ride the last entry: the
  // channel issues and retires in FIFO order. Needs an installed wire.
  // Buffer lifetimes as for submit().
  void submit_runs(int target, std::vector<Frag> remote,
                   std::vector<LocalFrag> local, Callback on_source,
                   Callback on_landed, bool is_get);

  // Bounded internal progress: issues at most `chunk_budget` pieces across
  // channels with queued work (per-channel FIFO is preserved), and fires
  // every due completion callback. The budget is dealt round-robin, one
  // piece at a time, to channels that still have work; channels without
  // wire credits are skipped (see WireOps::credits). Returns the number
  // of pieces issued plus callbacks fired; 0 means there was nothing
  // actionable.
  int poll(int chunk_budget = kDefaultChunkBudget);

  // Issues every queued chunk the wire will currently accept (unbounded,
  // but a channel out of credits stops its drain — the caller must keep
  // polling the wire's ack path and re-invoking until copies_pending() is
  // false; upcxx's barrier entry does). Fires the source callbacks as
  // transfers finish issuing; wire-time and ack gating of on_landed still
  // apply. Used at barrier entry so the pre-engine "data visible once
  // issued before a barrier" ordering survives (on the AM wire the
  // requests are then in the target's inbox ahead of any barrier
  // message), and at teardown.
  void drain_copies();

  // Spins poll() until nothing is in flight (teardown; under the bandwidth
  // model this waits out the virtual wire clock). On the AM wire this only
  // completes if acks keep arriving — drive AmEngine::poll and
  // RmaAmProtocol::poll alongside (upcxx::progress does; run_rank's
  // teardown loop does for raw-gex users).
  void drain_all();

  bool idle() const;
  std::size_t inflight() const;
  // True while chunks remain to be issued (as opposed to issued transfers
  // merely waiting out acks or the virtual wire clock). Progress-thread
  // loops use this to yield instead of hot-spinning when the engine only
  // needs an occasional clock check.
  bool copies_pending() const;

  std::size_t chunk_bytes() const { return chunk_bytes_; }
  double bw_gbps() const { return bw_gbps_; }
  std::size_t channel_count() const;
  // Pieces not yet issued on the link to `target`: chunks of contiguous
  // transfers, one per run entry.
  std::size_t pending_chunks(int target) const;

  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t chunks_copied = 0;
    std::uint64_t bytes_copied = 0;
    std::uint64_t landed = 0;
    std::uint64_t max_inflight = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  // One queued transfer: a pooled node in its channel's FIFO.
  struct Xfer {
    Xfer* next = nullptr;
    std::byte* dst = nullptr;
    const std::byte* src = nullptr;
    std::size_t bytes = 0;
    std::size_t off = 0;  // bytes issued so far
    bool is_get = false;
    bool runs = false;  // a run entry: `remote`/`local` issued whole
    std::vector<Frag> remote;
    std::vector<LocalFrag> local;
    Callback on_source;
    Callback on_landed;
    std::uint64_t extra_landing_ns = 0;
    std::uint64_t landed_due_ns = 0;  // virtual wire time of the last chunk
    // Pieces issued on a non-direct wire whose done has not fired yet.
    std::uint32_t unacked = 0;
  };

  // One target's lane: a single FIFO and its own wire clock. Entries from
  // `head` up to `issue` are fully issued and wait for acks / the virtual
  // wire clock (due times are monotone per channel); `issue` onward are
  // still to go out.
  struct Channel {
    int target = -1;
    bool own = false;  // target is the engine's own rank: never the wire
    Xfer* head = nullptr;
    Xfer* issue = nullptr;
    Xfer* tail = nullptr;
    std::uint64_t wire_free_ns_ = 0;
  };

  Channel& channel(int target);
  Xfer& enqueue(int target);

  // The channel has a piece to issue and the wire (if it is used) has a
  // credit for it.
  bool can_issue(const Channel& ch) {
    return ch.issue && (!wire_ || ch.own || !wire_->credits ||
                        wire_->credits(ch.target) > 0);
  }

  // Issues the next piece of the channel's first unissued transfer. When
  // the last byte goes out the transfer's on_source is fired, outside the
  // wire call (user code may re-enter poll() or submit()).
  void issue_one_chunk(Channel& ch);
  // Fires every due on_landed of the channel, in FIFO order. Returns
  // callbacks fired.
  int retire_landed(Channel& ch);

  std::size_t chunk_bytes_;
  double bw_gbps_;
  double ns_per_byte_;  // 0 when the bandwidth model is off

  std::optional<WireOps> wire_;
  // Every entry node ever made, and the ones free for reuse.
  std::vector<std::unique_ptr<Xfer>> nodes_;
  std::vector<Xfer*> free_;
  // Few targets; linear scan. unique_ptr entries so a Channel stays put
  // while completion callbacks grow the set mid-traversal — traversals go
  // by index.
  std::vector<std::unique_ptr<Channel>> channels_;
  std::size_t rr_ = 0;  // round-robin start cursor

  // Transfer population: active = submitted and not yet fully issued;
  // inflight = not yet retired.
  std::size_t active_count_ = 0;
  std::size_t inflight_count_ = 0;

  // The rank bound to the constructing thread (null outside an SPMD
  // region): the one rank whose context may drive this engine.
  const Rank* const owner_;

  Stats stats_;
};

}  // namespace gex
