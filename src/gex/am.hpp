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
//   frame       one ring transaction carrying N packed sub-messages, each
//               with its own handler index (agg.hpp builds these). The
//               receive side copies the frame out of the ring once and all
//               sub-messages share that one buffer.
//
// Handler rules (same as GASNet): handlers run inside poll() on the target
// rank, must not block and must not initiate communication. For eager
// messages the payload lives in ring memory and must be consumed before the
// handler returns; rendezvous handlers may adopt() the heap buffer and free
// it later with release_rendezvous(); frame sub-message handlers may
// adopt_frame() to keep the shared frame buffer alive past the handler
// (release with release_frame()).
//
// Threading: one thread per rank sends and polls — the holder of the
// rank's context (prepare and poll assert it). A send stalled on a full
// ring polls that same inbox, which is what keeps cyclic backlogs moving.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
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
// Every sub-message of the frame targets the same handler (stored in the
// wire header); eligible for whole-frame sink delivery.
inline constexpr std::uint16_t kWireUniform = 4;

// Public (rather than an AmEngine private) so tests can statically verify
// that nothing pointer-shaped rides the ring.
struct WireHeader {
  HandlerIdx handler;   // registry index; ignored for frame records
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
  HandlerIdx handler;
  std::uint16_t flags;  // reserved (frame sub-messages are always eager)
  std::uint32_t size;   // payload bytes, unpadded
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

// Frees a frame buffer reference taken with AmContext::adopt_frame().
void release_frame(void* handle);

// --------------------------------------------------------------- AmContext

struct AmContext {
  AmEngine* engine = nullptr;
  int src = -1;             // sender world rank
  void* data = nullptr;     // payload bytes
  std::size_t size = 0;     // payload byte count
  std::uint64_t send_ns = 0;  // send timestamp (drives simulated latency)
  bool is_rendezvous = false;
  bool in_frame = false;    // sub-message of a multi-message frame

  // Takes ownership of a rendezvous buffer; the engine will not free it.
  // Invalid for eager or frame messages (their storage is not individually
  // owned).
  void* adopt() {
    adopted = true;
    return data;
  }

  // Takes a shared reference on the frame buffer holding this sub-message:
  // `data` stays valid until the returned handle is passed to
  // release_frame(). Only valid when in_frame.
  void* adopt_frame();

  bool adopted = false;
  void* frame = nullptr;  // engine-internal frame buffer handle
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

  // Largest payload a single frame record may carry through the ring.
  std::size_t max_frame_payload() const {
    return transport_->max_record_payload() - sizeof(WireHeader);
  }

  // Largest payload prepare() can ship without the shared-heap rendezvous
  // path — i.e. inside one wire record. On transports whose peers cannot
  // read this rank's memory (socket), every payload must fit under this;
  // the RMA protocol caps its eager/staged decisions with it.
  std::size_t inline_max() const {
    return transport_->max_record_payload() - sizeof(WireHeader);
  }

  // Two-phase zero-copy send: reserve space for `n` payload bytes addressed
  // to `target`, serialize into .data, then commit(). Never fails; if the
  // target ring is full the call polls its own inbox while spinning, which
  // guarantees progress (every rank stuck sending still drains its inbox, so
  // some ring in the cycle eventually empties).
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
    bool uniform = false;
  };
  SendBuf prepare(int target, HandlerIdx h, std::size_t n);
  void commit(SendBuf& sb);

  // Reserves a frame record of `n` payload bytes (packed sub-messages, laid
  // out by gex::Aggregator). Always travels inline through the ring; n must
  // be <= max_frame_payload(). When every staged sub-message targets one
  // handler, pass it as uniform_handler (with uniform = true) so the
  // receiver can hand the whole frame to a sink in one call.
  SendBuf prepare_frame(int target, std::size_t n,
                        HandlerIdx uniform_handler, bool uniform);

  // Registers a whole-frame delivery sink for uniform frames addressed to
  // handler `h`: instead of one handler call per sub-message, poll() makes
  // one sink call per frame (cx.data/cx.size cover the packed sub-message
  // region, cx.in_frame is set, and the frame buffer is adoptable). The
  // upcxx layer uses this to stage an entire frame with one allocation and
  // one deferred-dispatch entry. One sink per engine.
  using FrameSink = void (*)(AmContext&);
  void set_frame_sink(HandlerIdx h, FrameSink sink) {
    sink_handler_ = h;
    sink_ = sink;
  }

  // Convenience single-shot send.
  void send(int target, HandlerIdx h, const void* data, std::size_t n);

  // Keyed small-value allgather over `group` (n world ranks, this rank
  // among them): every member calls exchange with an agreed key and the
  // same group in the same order; on return `out` holds n*bytes with
  // member i's contribution at offset i*bytes. Self-synchronizing — each
  // member's value travels as an AM, and the call polls until all have
  // arrived — so it needs no shared scratch memory and works on every
  // transport (it replaces the arena scratch-slot exchanges that assumed a
  // shared mapping). Keys must be unique among concurrent exchanges and
  // agreed across the group (e.g. hash of a team id and a collective
  // counter). Bails out early, zero-filling missing slots, if the job
  // error flag rises.
  void exchange(std::uint64_t key, const int* group, std::size_t n,
                const void* mine, std::size_t bytes, void* out);

  // Drains up to max_msgs ring records from this rank's inbox, invoking
  // handlers (a frame record counts as one but may deliver many messages).
  // Returns the number of messages handled.
  int poll(int max_msgs = 64);

  // Frees a rendezvous buffer previously adopt()ed by a handler.
  void release_rendezvous(void* buf) { arena_->heap().deallocate(buf); }

  // Counters (per rank, for tests and the micro_am bench). Fields stay
  // plain u64 (printf-able), bumped through arch::relaxed_inc so benches
  // may sample them from another thread with arch::relaxed_load mid-run.
  // Read exactly after a quiesce.
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
  static void on_exchange(AmContext& cx);

  Arena* arena_;
  int me_;
  // The rank bound to the constructing thread (null outside an SPMD
  // region). Only the thread holding that rank's context sends and polls.
  const Rank* const owner_;
  std::unique_ptr<Transport> transport_;
  std::size_t eager_max_;
  bool stamp_send_ns_;  // WireHeader::send_ns has a reader (sim latency)
  HandlerIdx sink_handler_ = 0;
  FrameSink sink_ = nullptr;
  Stats stats_;
  // In-flight exchange() contributions, keyed by collective key then
  // sender rank. Touched only from poll handlers and exchange() itself
  // (consumer thread), so no lock.
  std::unordered_map<std::uint64_t,
                     std::unordered_map<int, std::vector<std::byte>>>
      exchanges_;
};

}  // namespace gex
