// Active-message engine: the substrate's counterpart of GASNet-EX AMs.
//
// Wire format v2 (message layer v2): records carry a 16-bit index into the
// handler registry (handlers.hpp) — never a raw function pointer — plus an
// opaque payload. Three record kinds travel through a target's inbox ring:
//
//   eager       payload inline in the ring, up to Config::eager_max bytes.
//   rendezvous  payload staged in the global shared heap; the ring carries
//               only a descriptor (same two-protocol split real conduits
//               use; the subject of the abl_am_protocol bench).
//   frame       one ring record carrying N packed sub-messages
//               ([FrameMsgHeader][payload], built by gex::Aggregator) for
//               the one handler its header names. The engine delivers it
//               like an eager record — the handler gets the packed region
//               in ring memory and walks it — and only counts the
//               sub-messages (Stats::received is in message units).
//
// Handler rules (same as GASNet): handlers run inside poll() on the target
// rank, must not block and must not initiate communication. For eager
// messages and frames the payload lives in ring memory and must be consumed
// before the handler returns; rendezvous handlers may adopt() the heap
// buffer and free it later with release_rendezvous().
//
// Threading: one thread per rank sends and polls — the holder of the
// rank's context (prepare and poll assert it). A send stalled on a full
// ring polls that same inbox, which is what keeps cyclic backlogs moving.
//
// Layering (as GASNet-EX's AM layer): the engine has no collective and
// never runs the progress of a layer above it. Each layer gathers through
// its own messages and waits with its own progress.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "arch/ring.hpp"
#include "gex/arena.hpp"
#include "gex/handlers.hpp"
#include "gex/transport.hpp"

namespace gex {

class AmEngine;
struct Rank;

// ------------------------------------------------------------- wire format

// Record flags.
inline constexpr std::uint16_t kWireRendezvous = 1;
inline constexpr std::uint16_t kWireFrame = 2;

// Public (rather than an AmEngine private) so tests can statically verify
// that nothing pointer-shaped rides the ring.
struct WireHeader {
  HandlerIdx handler;   // registry index (a frame's one handler)
  std::uint16_t flags;  // kWireRendezvous | kWireFrame
  std::int32_t src;     // sender world rank
  // Send timestamp; only the simulated-latency delivery path reads it, so
  // it is stamped only when Config::sim_latency_ns > 0 (0 otherwise).
  std::uint64_t send_ns;
};
static_assert(sizeof(WireHeader) == 16, "keep the per-message header small");

// Sub-message header inside a frame; payload follows, padded to
// kFrameAlign so the next header is naturally aligned.
struct FrameMsgHeader {
  std::uint64_t size;  // payload bytes, unpadded
};
static_assert(sizeof(FrameMsgHeader) == 8);

inline constexpr std::size_t kFrameAlign = 8;

struct RdzvDesc {
  // Shared-heap location as a (segment id, offset) wire address — decoded
  // against the receiver's own mapping, never a raw pointer (the same
  // contract as every RMA record since segment-offset addressing).
  WireAddr buf;
  std::uint64_t size;
};

// --------------------------------------------------------------- AmContext

struct AmContext {
  AmEngine* engine = nullptr;
  int src = -1;             // sender world rank
  void* data = nullptr;     // payload bytes
  std::size_t size = 0;     // payload byte count
  std::uint64_t send_ns = 0;  // send timestamp (drives simulated latency)
  bool is_rendezvous = false;

  // Takes ownership of a rendezvous buffer; the engine will not free it.
  // Invalid for eager records and frames (they live in ring memory).
  void* adopt() {
    adopted = true;
    return data;
  }

  bool adopted = false;
};

// ---------------------------------------------------------------- AmEngine

class AmEngine {
 public:
  // Builds the engine on the transport resolved from arena->config()
  // (UPCXX_AM_TRANSPORT; gex/transport.hpp). The engine owns it.
  AmEngine(Arena* arena, int my_rank);
  ~AmEngine();

  int rank() const { return me_; }
  Arena& arena() { return *arena_; }
  Transport& transport() { return *transport_; }
  std::size_t eager_max() const { return eager_max_; }

  // Largest payload one wire record carries: the bound on a frame, and on
  // every payload prepare() ships on a transport whose peers cannot read
  // this rank's memory (socket), where nothing takes the rendezvous path.
  std::size_t inline_max() const {
    return transport_->max_record_payload() - sizeof(WireHeader);
  }

  // Two-phase zero-copy send: reserve space for `n` payload bytes addressed
  // to `target`, serialize into .data, then commit(). Never fails; if the
  // target ring (or the shared heap) is full the call polls its own inbox
  // while spinning, which guarantees progress (every rank stuck sending
  // still drains its inbox, so some ring in the cycle eventually empties).
  // Once the job's error flag is up a send that would wait is black-holed
  // instead: .data is scratch memory and commit() drops the record, the
  // way the socket transport drops records to a dead peer — a failed rank
  // never drains what it was sent, and the flag is the failure signal.
  // Sends never nest (handlers must not send), so one scratch buffer
  // serves every black-holed send.
  struct SendBuf {
    void* data = nullptr;
    std::size_t size = 0;

   private:
    friend class AmEngine;
    Transport::Ticket ticket;  // eager path
    int target = -1;
    HandlerIdx handler = 0;
    bool rendezvous = false;
    bool frame = false;
    bool discard = false;  // black-holed: commit() drops it
  };
  SendBuf prepare(int target, HandlerIdx h, std::size_t n);
  void commit(SendBuf& sb);

  // Reserves a frame record of `n` payload bytes (packed sub-messages, laid
  // out by gex::Aggregator) for handler `h`. Always travels inline through
  // the ring, whatever eager_max says; n must be <= inline_max().
  SendBuf prepare_frame(int target, HandlerIdx h, std::size_t n);

  // Convenience single-shot send.
  void send(int target, HandlerIdx h, const void* data, std::size_t n);

  // Drains ring records from this rank's inbox, invoking handlers, until
  // max_msgs messages were handled (a frame counts its sub-messages).
  // Returns the number of messages handled.
  int poll(int max_msgs = 64);

  // Frees a rendezvous buffer previously adopt()ed by a handler.
  void release_rendezvous(void* buf) { arena_->heap().deallocate(buf); }

  // Counters (per rank, for tests and benches). Written only by the
  // owning thread; read them on that thread, or after a quiesce.
  struct Stats {
    std::uint64_t sent_eager = 0;
    std::uint64_t sent_rendezvous = 0;
    std::uint64_t sent_frames = 0;
    std::uint64_t received = 0;        // messages (frame sub-messages count)
    std::uint64_t received_frames = 0;
    std::uint64_t send_stalls = 0;  // times a reserve had to spin
  };
  const Stats& stats() const { return stats_; }

 private:
  // Reserves sb.size payload bytes of one inline record to sb.target,
  // stalling until the transport has room.
  void reserve_record(SendBuf& sb);
  // Runs attempt() until it succeeds: true at once if it does, else a
  // gex::wait_until whose rounds count a send stall and poll this rank's
  // inbox. False once the job failed: the caller black-holes the send.
  template <class Try>
  bool retry(Try attempt);
  // Points sb at the scratch buffer and marks it dropped (see prepare).
  void black_hole(SendBuf& sb);

  Arena* arena_;
  int me_;
  // The rank bound to the constructing thread (null outside an SPMD
  // region). Only the thread holding that rank's context sends and polls.
  const Rank* const owner_;
  std::unique_ptr<Transport> transport_;
  std::size_t eager_max_;
  bool stamp_send_ns_;  // WireHeader::send_ns has a reader (sim latency)
  Stats stats_;
  std::vector<std::byte> discard_;  // black-holed sends' scratch payload
};

}  // namespace gex
