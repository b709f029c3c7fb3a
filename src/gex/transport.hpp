// Pluggable AM transport: where the inbox rings live.
//
// The AmEngine's wire is a per-target byte ring of records. How those
// rings are *backed* is a deployment property, not a protocol one — and
// with segment-offset wire addressing (gex/segment.hpp) no record byte
// depends on the peer's virtual-address mapping, so the rings no longer
// have to live in the one pre-fork cross-mapped arena. This interface cuts
// the engine's ring push/pop behind a virtual seam (one call per *record*,
// never per byte — the payload memcpy still goes straight into ring
// memory) with two implementations:
//
//   mmap     (default) — the per-rank MPSC rings inside the shared arena
//            mapping, exactly the pre-existing fast path. Zero new cost:
//            one virtual dispatch per reserve/commit/consume.
//   socket   — records framed onto non-blocking loopback TCP streams
//            (gex/socket.hpp): reserve hands back a private staging
//            buffer, commit frames and write()s it through per-peer send
//            queues with partial-write continuation, and an epoll loop
//            per rank assembles inbound frames. Its peers share no
//            memory, so shared_memory() below is false and every payload
//            the layers above ship must ride inline.
//
// Selection: UPCXX_AM_TRANSPORT=mmap|socket|auto
// (Config::am_transport; auto consults the environment so hand-built test
// configs honor the CI matrix, then defaults to mmap).
//
// Ordering contract (all implementations): records from one sender to
// one receiver are delivered FIFO. Cross-sender order is unspecified —
// the same per-pair guarantee a GASNet conduit gives, and the only one
// the layers above rely on (the barrier argument in rma_am.hpp is
// per-pair). Deadlock freedom is unchanged: a sender spinning on a full
// ring drains its own inbox via AmEngine::poll, whichever transport backs
// it.
//
// Bootstrap: on the mmap transport the control block (world barrier,
// error flag) and the data segments remain in the shared arena mapping.
// Isolated socket ranks have no shared mapping — their control plane
// moves onto small records over a bootstrap socket (gex::SocketRuntime,
// installed as the arena's ControlPlane hook).
#pragma once

#include <cstddef>
#include <cstdint>

#include "arch/ring.hpp"

namespace gex {

class Arena;

class Transport {
 public:
  // Opaque reserve handle. `h` is transport-private (the ring's record
  // header, or the socket transport's staging buffer); `target` is echoed
  // so a commit that must route the staged bytes knows the destination.
  struct Ticket {
    void* h = nullptr;
    void* payload = nullptr;
    int target = -1;
  };
  using RecordVisitor = void (*)(void* payload, std::size_t bytes, void* cx);

  virtual ~Transport() = default;

  // Reserves a record of `bytes` payload bytes addressed to `target`'s
  // inbox. Ticket.payload is null when the wire currently lacks space; the
  // caller polls its own inbox and retries (AmEngine::prepare).
  virtual Ticket try_reserve(int target, std::size_t bytes) = 0;

  // Publishes a reserved record once its payload is fully written.
  virtual void commit(const Ticket& t) = 0;

  // Consumes at most one record from this rank's inbox, invoking
  // visit(payload, bytes, cx) on it. Returns false when nothing is ready.
  virtual bool try_consume(RecordVisitor visit, void* cx) = 0;

  // Largest payload a single record may carry.
  virtual std::size_t max_record_payload() const = 0;

  // True when the peer can dereference this rank's shared mappings (heap
  // and segments). The AM layers consult this before shipping a payload
  // by reference: rendezvous descriptors are only sound on a shared-memory
  // transport; otherwise every byte must travel inline in the record.
  virtual bool shared_memory() const { return true; }

  // Every committed record has been handed to the wire (ring transports:
  // trivially true at commit; socket: the per-peer send queues drained
  // into the kernel). run_rank drains this before the final barrier so
  // no acks are stranded in a user-space queue at teardown.
  virtual bool tx_quiesced() { return true; }

  // Sends that carried two or more queued frames in one syscall (socket
  // transport writev coalescing). Ring transports have no syscalls to
  // coalesce, so the count stays zero.
  virtual std::uint64_t tx_writev_batches() const { return 0; }

  virtual const char* name() const = 0;
};

// Builds the transport resolved from arena->config() (see
// resolve_am_transport) for rank `me`. Caller owns the result.
Transport* make_transport(Arena* arena, int me);

}  // namespace gex
