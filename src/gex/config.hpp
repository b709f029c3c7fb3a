// Runtime configuration of the substrate, settable via environment variables
// (mirroring GASNet's GASNET_* knobs). Read once at launch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace gex {

enum class Backend {
  kThread,    // ranks are threads of one process (default; used by tests)
  kProcess,   // ranks are forked processes sharing the arena (smp-conduit-like)
  kIsolated,  // forked processes that share no memory: each maps a private
              // arena and bootstraps over a control socket, as under
              // upcxx-run (socket transport, AM wire and AM atomics forced)
};

// RMA data-motion wire (UPCXX_RMA_WIRE=auto|direct|am). The `direct` wire
// moves bytes with initiator-side memcpys into the cross-mapped arena (the
// GASNet-PSHM fast path); the `am` wire ships every transfer through the
// active-message put/get protocol (gex/rma_am.hpp) — the conduit shape a
// non-shared-memory backend needs. `auto` picks per target: direct whenever
// the target's segment is cross-mapped (always true on this arena), am
// otherwise.
enum class RmaWire {
  kAuto,
  kDirect,
  kAm,
};

// AM transport (UPCXX_AM_TRANSPORT=auto|mmap|socket): what backs the inbox
// rings the AmEngine pushes records through (gex/transport.hpp). `mmap` is
// the shared-arena ring (the fast path). `socket` frames each record onto
// a non-blocking loopback TCP stream (gex/socket.hpp) — a transport that
// needs no shared memory at all, so payloads that would take the
// rendezvous path ship inline and UPCXX_RMA_WIRE resolves to `am` under
// it. `auto` consults the environment, then falls back to mmap.
enum class AmTransport {
  kAuto,
  kMmap,
  kSocket,
};

// Chunk granularity on the am wire: the XferEngine uses at most
// min(Config::xfer_chunk_bytes, kAmXferChunkBytes) there
// (RmaAmProtocol::chunk_bytes), so explicit small test chunkings still
// apply while a default transfer keeps at most window × chunk (1 MiB) of
// rendezvous blocks in flight to one target, and each chunk is one
// request the target handles while the next is in flight.
inline constexpr std::size_t kAmXferChunkBytes = 64 << 10;

struct Config {
  int ranks = 4;                          // UPCXX_RANKS
  Backend backend = Backend::kThread;     // UPCXX_BACKEND=thread|process
  std::size_t segment_bytes = 32 << 20;   // UPCXX_SEGMENT_MB
  std::size_t ring_bytes = 1 << 20;       // UPCXX_RING_KB (power of two)
  std::size_t eager_max = 8 << 10;        // UPCXX_EAGER_MAX (bytes)
  std::size_t heap_bytes = 64 << 20;      // UPCXX_HEAP_MB (shared heap)
  std::uint64_t sim_latency_ns = 0;       // UPCXX_SIM_LATENCY_NS
  bool atomics_use_am = false;            // software (AM) atomics

  // Message-layer v2 aggregation (gex/agg.hpp; frame caps are constants).
  bool agg_enabled = true;

  // Data-motion engine knobs (gex/xfer.hpp).
  // Simulated wire bandwidth in GB/s; 0 = unlimited (no model).
  double sim_bw_gbps = 0;                 // UPCXX_SIM_BW_GBPS
  // Chunk granularity of pipelined transfers (no environment knob; tests
  // set it to force chunking).
  std::size_t xfer_chunk_bytes = 256 << 10;
  // Direct wire: contiguous RMA at or above this many bytes rides the
  // asynchronous engine; below it, the zero-allocation synchronous path.
  // 0 disables the async path entirely. On the am wire every remote op
  // rides the engine regardless; only a local device-toll copy() still
  // consults this threshold there.
  std::size_t rma_async_min = 64 << 10;   // UPCXX_RMA_ASYNC_MIN (bytes)
  // RMA wire selection (see enum above).
  RmaWire rma_wire = RmaWire::kAuto;      // UPCXX_RMA_WIRE=auto|direct|am
  // AM-wire flow control: at most this many unacknowledged protocol
  // requests (put/get/fragment records) in flight per target; further ops
  // wait in the target's XferEngine channel and go out as acks retire
  // credits.
  // Small windows serialize (W=1 is the worst-case CI job); large windows
  // let a flood fill the target's ring and the shared heap with its
  // rendezvous blocks (window × chunk; see kAmXferChunkBytes). 0 = auto:
  // consult UPCXX_AM_WINDOW (so hand-built test Configs honor the CI
  // matrix, like rma_wire's kAuto); `auto` or an unset environment selects
  // kDefaultAmWindow, an explicit positive integer pins another window
  // for tests/CI. kAmWindowForceAuto selects the default even when the
  // environment pins a window. An explicit value wins over the
  // environment.
  std::uint32_t am_window = 0;            // UPCXX_AM_WINDOW
  // AM transport selection (see enum above).
  AmTransport am_transport = AmTransport::kAuto;  // UPCXX_AM_TRANSPORT
  // Unused: nothing reads it. Kept only because upcxx_bench assigns it;
  // delete it together with that line at the next benchmark change.
  int progress_threads = 1;
  // ------------------------------------------------- socket transport
  // Largest record the socket transport advertises via
  // Transport::max_record_payload (the stream itself accepts any size;
  // this caps what the inline-only AM paths will ship in one record).
  std::size_t socket_max_record = 8 << 20;
  // Deterministic fault injection inside the socket transport (set by
  // tests, never by the environment). A nonzero seed (xor'd with the rank,
  // so every schedule is reproducible) turns on short writes and short,
  // delayed reads at a fixed rate — exercising partial-write continuation
  // and header/body reassembly.
  std::uint64_t socket_fault_seed = 0;
  // Rank that _exit()s mid-stream after committing its Nth record,
  // leaving a half-written frame on the wire (die_rank < 0 disables).
  // Only meaningful when ranks are processes — in thread mode an _exit
  // would take the whole job down.
  int socket_fault_die_rank = -1;
  std::uint64_t socket_fault_die_at = 0;

  // Unused: nothing reads it. Kept only because upcxx_bench assigns it;
  // delete it together with that line at the next benchmark change.
  double am_rtt_envelope = 0;

  // Loads defaults overridden by environment variables; the result is
  // normalized. rma_wire, am_transport and am_window stay at auto: their
  // resolvers below read the environment at launch.
  static Config from_env();

  // Enforces the invariants the substrate assumes: positive sizes (zero
  // segment/heap/ring sizes fall back to defaults instead of silently
  // mis-shifting), power-of-two ring, eager payloads that fit a single
  // ring record. Arena creation normalizes its copy, so hand-built Configs
  // are covered too.
  void normalize();
};

// Resolves a Config's rma_wire to a concrete wire. kAuto consults
// UPCXX_RMA_WIRE (so hand-built Configs — the test helpers — still honor a
// CI-level wire override) and otherwise selects kDirect, because every
// target segment on this arena is cross-mapped — unless the AM transport
// resolves to socket, whose peers must be treated as not cross-mapped, in
// which case auto pins kAm. An explicitly set kDirect / kAm always wins
// over the environment (explicit kDirect under socket is legal only while
// ranks still share one arena — thread or plain process backends).
RmaWire resolve_rma_wire(const Config& cfg);

// Default AM-wire credit window: 1 MiB in flight per target over the
// am-wire chunk.
inline constexpr std::uint32_t kDefaultAmWindow =
    (std::size_t{1} << 20) / kAmXferChunkBytes;
// Config::am_window sentinel: kDefaultAmWindow regardless of the
// environment (benchmark series that must measure the default under any
// CI window pin).
inline constexpr std::uint32_t kAmWindowForceAuto = 0xFFFFFFFFu;
// Unused: nothing reads it. Kept only because upcxx_bench assigns it to
// Config::am_rtt_envelope; delete both at the next benchmark change.
inline constexpr double kDefaultAmRttEnvelope = 4.0;

// Resolves a Config's am_window to the per-target credit window:
// kAmWindowForceAuto gives kDefaultAmWindow; any other explicit (non-zero)
// value pins; 0 (auto) consults UPCXX_AM_WINDOW — a positive integer
// pins, `auto`/unset/garbage gives kDefaultAmWindow.
std::uint32_t resolve_am_window(const Config& cfg);

// Resolves a Config's am_transport. kAuto consults UPCXX_AM_TRANSPORT (so
// hand-built Configs — the test helpers — honor a CI-level transport
// override) and otherwise selects kMmap. An explicit kMmap / kSocket wins
// over the environment.
AmTransport resolve_am_transport(const Config& cfg);

}  // namespace gex
