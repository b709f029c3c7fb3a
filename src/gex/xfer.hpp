// Asynchronous data-motion engine — the substrate's bulk-transfer path and
// the paper's actQ (§III) made real.
//
// Large RMA transfers (and every transfer on the AM wire) are cut into
// pipelined pieces held in *per-target channels* and drained by
// *internal* progress with bounded work per poll. The initiating call
// returns immediately after queueing; the actual data motion happens
// inside later poll() calls made by
// whichever thread holds the rank's master persona — so a dedicated
// progress-thread persona gives true communication/computation overlap on
// multicore, which is the property bench/abl_overlap.cpp measures.
//
// Channels: transfers to one target form a FIFO (pieces of transfer N+1
// never start before transfer N's finish), but *different* targets'
// channels advance independently — poll() deals its piece budget round-
// robin across channels with queued work, so a saturated or slow link to
// one target (out of wire credits, or its acks withheld) never
// head-of-line-blocks traffic to another. Each channel owns its own
// virtual wire clock at the engine-wide Config::sim_bw_gbps.
//
// Addresses: the remote side of every entry is a wire address (gex/
// segment.hpp) — the (segment id, offset) name global_ptr carries — and
// the local side is a pointer in this process.
//
// Wires: the engine decides *when* each piece moves; a mover decides *how*
// (WireOps below). The built-in mover is itself a WireOps: it decodes the
// remote runs through the segment map and memcpys into the cross-mapped
// arena — synchronous, zero-allocation, remotely visible on return, done
// called before it returns. It is the default wire and always the
// own-rank channel's wire (this rank's own segment is always mapped here,
// so those entries need no credit, whatever wire is installed; landing
// still waits out the wire clock and the extra toll). The AM wire
// (gex/rma_am.hpp, selected by UPCXX_RMA_WIRE=am) ships each piece as an
// active-message put/get request and completes it when the target's ack
// arrives; the engine's completion pipeline is identical either way. On
// the AM wire the channels are the *only* sender-side queue: every op,
// small contiguous ones and non-contiguous fragment lists included, waits
// here until the protocol has a credit for its target.
//
// Entries: every transfer is a run list — a contiguous one is the one-run
// case — cut at submit into consecutive entries, one per piece. A piece
// carries at most chunk_bytes() of payload plus 16 B (sizeof(Frag), the
// descriptor the AM wire carries) for each remote run after its first;
// the first descriptor is part of the record overhead the AM wire already
// reserves. Both sides are cut at the same byte offsets, and the last
// entry carries the transfer's completions.
//
// Two completion signals per transfer, always in this order:
//   on_source — every byte has been read out of the source buffer (the
//               initiator may reuse it: UPC++ source completion). On the
//               direct wire this means the memcpys happened; on the AM
//               wire it means every piece's payload was copied into its
//               AM record (ring memory or a rendezvous block).
//   on_landed — every byte is visible at the destination (direct: copied;
//               am: acked by the target) AND the simulated wire has
//               delivered it (see the bandwidth model below). The upcxx
//               layer sends remote_cx notifications and schedules
//               operation completion from this callback, so remote RPCs
//               never observe partially-landed data.
//
// Bandwidth model: with bw_gbps > 0 each channel maintains a virtual wire
// clock. Each piece issued at real time t advances the clock by its
// bytes / bw; a transfer "lands" only once the clock entry of its last
// piece has passed. Copies themselves are never delayed (the memory
// system is the real wire here, exactly as GASNet PSHM), so the model
// caps *reported* bandwidth without serializing the actual data motion —
// fig3_rma_bandwidth uses this to produce a real bandwidth curve.
//
// Threading: one thread issues and consumes — the holder of the owning
// rank's context (the master persona's thread, or a progress_thread it
// migrated to). submit, poll and drain_copies assert it. Callbacks fire
// outside any mover call and may submit again; a submit that arrives
// while a channel is mid-issue (wire-call recursion) appends behind the
// transfer being issued, so per-target FIFO holds either way.
//
// Memory: entries are pooled nodes linked into their channel's FIFO, so
// an entry never moves while its piece is on the wire (the mover's done
// callback marks the entry itself), and a recycled node keeps its run
// vectors' capacity, so a steady stream of transfers allocates nothing in
// the engine. The pool never shrinks: it holds as many nodes as the most
// entries ever queued at once, and nothing but the caller's outstanding
// ops bounds that.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "arch/small_fn.hpp"
#include "gex/segment.hpp"

namespace gex {

struct Rank;

class XferEngine {
 public:
  using Callback = arch::UniqueFunction<void()>;

  // Pieces issued per poll() by default: bounds the work one internal
  // progress call performs so injection-heavy loops stay responsive. A
  // piece is one entry.
  static constexpr int kDefaultChunkBudget = 4;

  // A contiguous run in the *remote* rank's memory, by wire address.
  struct Frag {
    WireAddr addr;
    std::uint64_t bytes;
  };
  // A contiguous run in this rank's address space.
  struct LocalFrag {
    void* ptr;
    std::size_t bytes;
  };

  // A mover. `put` gathers the `local` runs, in order, into the `remote`
  // runs (equal totals) and must consume the local runs before returning
  // (the engine fires on_source once a transfer's last piece has been
  // issued); `get` scatters the `remote` runs into the `local` ones and
  // must have written them by the time it calls done (the run arrays live
  // only for the call: a mover that completes later copies them). Either
  // way `done` fires exactly once, when the data is remotely visible —
  // synchronously (the built-in mover) or from a later engine/AM poll (the
  // AM wire, once the target's ack or reply arrives).
  //
  // `credits` is the wire's back-pressure: how many more requests it
  // accepts toward `target` right now — on the AM wire, the credit window
  // minus requests in flight, and 0 once the job's error flag is up. Each
  // put/get consumes one. The engine re-reads it before every issue, so a
  // channel whose count is 0 holds its entries (they cost nothing here —
  // the source stays pinned until on_source) and poll() deals the budget
  // it cannot use to other channels. Null = unmetered.
  struct WireOps {
    using Move = arch::UniqueFunction<void(
        int target, const Frag* remote, std::size_t nremote,
        const LocalFrag* local, std::size_t nlocal, Callback done)>;
    Move put;
    Move get;
    arch::UniqueFunction<std::uint32_t(int target)> credits;
  };

  // map: resolves remote wire addresses for the built-in mover (the
  // arena's segment map); it must outlive the engine. chunk_bytes:
  // pipelining granularity (Config::xfer_chunk_bytes). bw_gbps: simulated
  // bandwidth of each channel's wire in GB/s; 0 disables the model.
  XferEngine(const SegmentMap& map, std::size_t chunk_bytes, double bw_gbps);

  // Installs a wire in place of the built-in mover for every target but
  // the engine's own rank. Must happen before any submit().
  void set_wire(WireOps ops) { wire_ = std::move(ops); }

  // Queues an asynchronous move of `bytes` between `local` and `target`'s
  // memory at `remote` (is_get: remote -> local; otherwise local ->
  // remote): the one-run case of submit_runs. No data moves inside this
  // call. Both buffers must stay valid until on_source (source side) /
  // on_landed (destination) fire. Either callback may be empty.
  // extra_landing_ns adds a fixed toll to the transfer's landing time on
  // top of the wire clock — the simulated-PCIe cost of a device-kind
  // copy() composes with the wire model through it.
  void submit(int target, WireAddr remote, void* local, std::size_t bytes,
              Callback on_source, Callback on_landed, bool is_get = false,
              std::uint64_t extra_landing_ns = 0);

  // Queues a scatter-put (is_get false: the `local` runs are gathered into
  // the `remote` runs) or gather-get (the `remote` runs land in `local`),
  // cut into entries as the header comment says; runs are split where
  // they straddle an entry boundary. on_source, on_landed and
  // extra_landing_ns ride the last entry: the channel issues and retires
  // in FIFO order. Buffer lifetimes as for submit().
  void submit_runs(int target, const std::vector<Frag>& remote,
                   const std::vector<LocalFrag>& local, Callback on_source,
                   Callback on_landed, bool is_get,
                   std::uint64_t extra_landing_ns = 0);

  // Bounded internal progress: issues at most `chunk_budget` pieces across
  // channels with queued work (per-channel FIFO is preserved), and fires
  // every due completion callback. The budget is dealt round-robin, one
  // piece at a time, to channels that still have work; channels without
  // wire credits are skipped (see WireOps::credits). Returns the number
  // of pieces issued plus callbacks fired; 0 means there was nothing
  // actionable.
  int poll(int chunk_budget = kDefaultChunkBudget);

  // Issues every queued piece the wire will currently accept (unbounded,
  // but a channel out of credits stops its drain — the caller must keep
  // polling the wire's ack path and re-invoking until copies_pending() is
  // false; upcxx's barrier entry does). Fires the source callbacks as
  // transfers finish issuing; wire-time and ack gating of on_landed still
  // apply. Used at barrier entry so the pre-engine "data visible once
  // issued before a barrier" ordering survives (on the AM wire the
  // requests are then in the target's inbox ahead of any barrier
  // message), and at teardown.
  void drain_copies();

  // Transfers (not pieces) submitted and not yet landed.
  bool idle() const;
  std::size_t inflight() const;
  // True while pieces remain to be issued (as opposed to issued transfers
  // merely waiting out acks or the virtual wire clock). Progress-thread
  // loops use this to yield instead of hot-spinning when the engine only
  // needs an occasional clock check.
  bool copies_pending() const;

  std::size_t chunk_bytes() const { return chunk_bytes_; }
  double bw_gbps() const { return bw_gbps_; }
  std::size_t channel_count() const;
  // Pieces (entries) not yet issued on the link to `target`.
  std::size_t pending_chunks(int target) const;

  // submitted, landed and max_inflight count transfers; chunks_copied and
  // bytes_copied count pieces and their payload bytes.
  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t chunks_copied = 0;
    std::uint64_t bytes_copied = 0;
    std::uint64_t landed = 0;
    std::uint64_t max_inflight = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  // One piece: a pooled node in its channel's FIFO.
  struct Xfer {
    Xfer* next = nullptr;
    std::vector<Frag> remote;
    std::vector<LocalFrag> local;
    std::size_t bytes = 0;  // payload: the remote runs' total
    bool is_get = false;
    bool last = false;   // the transfer's last entry: carries completions
    bool acked = false;  // the mover's done has fired
    Callback on_source;
    Callback on_landed;
    std::uint64_t extra_landing_ns = 0;
    std::uint64_t landed_due_ns = 0;  // virtual wire time of this piece
  };

  // One target's lane: a single FIFO and its own wire clock. Entries from
  // `head` up to `issue` are issued and wait for acks / the virtual wire
  // clock (due times are monotone per channel); `issue` onward are still
  // to go out.
  struct Channel {
    int target = -1;
    bool own = false;  // target is the engine's own rank: built-in mover
    Xfer* head = nullptr;
    Xfer* issue = nullptr;
    Xfer* tail = nullptr;
    std::uint64_t wire_free_ns_ = 0;
  };

  Channel& channel(int target);
  // Appends a fresh entry to the channel's FIFO.
  Xfer& enqueue(Channel& ch, bool is_get);
  // Returns a retired entry to the pool, keeping its vectors' capacity.
  void recycle(Xfer& x);
  // The one cutter: queues the runs as one transfer of entries.
  void cut(int target, const Frag* remote, std::size_t nremote,
           const LocalFrag* local, std::size_t nlocal, bool is_get,
           Callback on_source, Callback on_landed,
           std::uint64_t extra_landing_ns);

  WireOps& wire_of(const Channel& ch) { return ch.own ? direct_ : wire_; }
  // The channel has a piece to issue and its wire has a credit for it.
  bool can_issue(const Channel& ch) {
    WireOps& w = wire_of(ch);
    return ch.issue && (!w.credits || w.credits(ch.target) > 0);
  }

  // Issues the channel's next entry. When it is its transfer's last, the
  // transfer's on_source fires, outside the mover call (user code may
  // re-enter poll() or submit()).
  void issue_one_chunk(Channel& ch);
  // Fires every due on_landed of the channel, in FIFO order. Returns
  // callbacks fired.
  int retire_landed(Channel& ch);

  std::size_t chunk_bytes_;
  double bw_gbps_;
  double ns_per_byte_;  // 0 when the bandwidth model is off

  WireOps direct_;  // the built-in mover
  WireOps wire_;    // every other target's mover: direct_'s twin or set_wire
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
