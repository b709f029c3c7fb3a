// Rank lifecycle: the launcher creates the arena, starts the ranks (threads
// or forked processes), runs the SPMD function on each, and tears down.
//
// Mirrors the paper's constraint that the runtime introduces *no hidden
// threads*: each rank is exactly one thread of control, and all progress
// happens inside explicit library calls made by that rank.
#pragma once

#include <functional>

#include "gex/am.hpp"
#include "gex/arena.hpp"
#include "gex/config.hpp"

namespace gex {

class Aggregator;
class XferEngine;
class RmaAmProtocol;

// Per-rank runtime state. Upper layers (upcxx, minimpi) hang their own
// per-rank state off the opaque slots so the substrate stays layered.
struct Rank {
  int me = -1;
  Arena* arena = nullptr;
  AmEngine* am = nullptr;
  Aggregator* agg = nullptr;
  XferEngine* xfer = nullptr;
  RmaAmProtocol* rma_am = nullptr;
  // Resolved RMA wire for this rank (resolve_rma_wire at launch): true
  // when rput/rget/copy must ride the AM protocol instead of touching the
  // target's segment directly. The XferEngine has the matching wire ops
  // installed when set.
  bool rma_wire_am = false;
  void* upcxx_state = nullptr;
  void* minimpi_state = nullptr;
};

// The calling thread's rank context; null outside an SPMD region.
Rank* self();
// Rebinds the calling thread's rank context. Used by the upcxx persona layer
// when the master persona (and with it the right to poll the wire) migrates
// to another thread of the same rank. Pass nullptr to unbind.
void bind_self(Rank* r);
// Asserting accessors.
int rank_me();
int rank_n();
Arena& arena();
AmEngine& am();
Aggregator& agg();
XferEngine& xfer();
RmaAmProtocol& rma_am();

// Runs `fn` as an SPMD program over cfg.ranks ranks. Returns the number of
// ranks that failed (threw / exited non-zero). Re-entrant launches are not
// supported (one SPMD region at a time per process tree).
int launch(const Config& cfg, const std::function<void()>& fn);

// Convenience: launch with Config::from_env().
int launch_env(const std::function<void()>& fn);

}  // namespace gex
