#include "gex/config.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "arch/cacheline.hpp"

namespace gex {
namespace {

// Strict numeric env parsing: an unset/empty variable means "use the
// default", but a *set* variable must parse completely — trailing garbage
// ("64k"), non-numeric strings, and out-of-range magnitudes are rejected
// loudly instead of silently falling back (the old behavior, which made a
// typo'd knob indistinguishable from the default until a bench lied).

// Parses v as a whole decimal integer. Returns false (after warning under
// `name`) on malformed or out-of-range input.
bool parse_long(const char* name, const char* v, long& out) {
  errno = 0;
  char* end = nullptr;
  const long r = std::strtol(v, &end, 10);
  if (end == v || *end != '\0') {
    std::fprintf(stderr, "gex: ignoring %s=%s (not a number)\n", name, v);
    return false;
  }
  if (errno == ERANGE) {
    std::fprintf(stderr, "gex: ignoring %s=%s (out of range)\n", name, v);
    return false;
  }
  out = r;
  return true;
}

// Positive-valued knob: 0 or negative values are rejected (with a warning)
// rather than silently shifted into a zero-byte mapping.
long env_positive(const char* name, long dflt) {
  const char* v = std::getenv(name);
  if (!v || !*v) return dflt;
  long r = dflt;
  if (!parse_long(name, v, r)) return dflt;
  if (r <= 0) {
    std::fprintf(stderr, "gex: ignoring %s=%ld (must be positive)\n", name,
                 r);
    return dflt;
  }
  return r;
}

// Non-negative knob (0 is meaningful: "disabled" / "no model").
long env_nonnegative(const char* name, long dflt) {
  const char* v = std::getenv(name);
  if (!v || !*v) return dflt;
  long r = dflt;
  if (!parse_long(name, v, r)) return dflt;
  if (r < 0) {
    std::fprintf(stderr, "gex: ignoring %s=%ld (must be >= 0)\n", name, r);
    return dflt;
  }
  return r;
}

// Parses an UPCXX_RMA_WIRE value; kAuto for unknown strings (with a
// warning) so a typo degrades to the default wire instead of aborting.
RmaWire parse_rma_wire(const char* v) {
  if (std::strcmp(v, "direct") == 0) return RmaWire::kDirect;
  if (std::strcmp(v, "am") == 0) return RmaWire::kAm;
  if (std::strcmp(v, "auto") != 0)
    std::fprintf(stderr,
                 "gex: ignoring UPCXX_RMA_WIRE=%s (expected auto|direct|am)\n",
                 v);
  return RmaWire::kAuto;
}

// Same contract for UPCXX_AM_TRANSPORT.
AmTransport parse_am_transport(const char* v) {
  if (std::strcmp(v, "mmap") == 0) return AmTransport::kMmap;
  if (std::strcmp(v, "socket") == 0) return AmTransport::kSocket;
  if (std::strcmp(v, "auto") != 0)
    std::fprintf(stderr,
                 "gex: ignoring UPCXX_AM_TRANSPORT=%s (expected "
                 "auto|mmap|socket)\n",
                 v);
  return AmTransport::kAuto;
}

}  // namespace

std::uint32_t resolve_am_window(const Config& cfg) {
  if (cfg.am_window == kAmWindowForceAuto) return kDefaultAmWindow;
  if (cfg.am_window != 0) return cfg.am_window;
  if (const char* v = std::getenv("UPCXX_AM_WINDOW");
      v && *v && std::strcmp(v, "auto") != 0) {
    // A positive integer pins the window (the CI am-window-1 job); garbage
    // warns and degrades to the default.
    long n = 0;
    if (parse_long("UPCXX_AM_WINDOW", v, n)) {
      if (n > 0) return static_cast<std::uint32_t>(n);
      std::fprintf(stderr,
                   "gex: ignoring UPCXX_AM_WINDOW=%ld (must be positive)\n",
                   n);
    }
  }
  return kDefaultAmWindow;
}

RmaWire resolve_rma_wire(const Config& cfg) {
  RmaWire w = cfg.rma_wire;
  if (w == RmaWire::kAuto) {
    if (const char* v = std::getenv("UPCXX_RMA_WIRE"); v && *v)
      w = parse_rma_wire(v);
    // Auto under the socket transport pins the am wire: a socket peer's
    // segment must be treated as not cross-mapped (isolated ranks really
    // cannot reach it), so initiator-side memcpys are off the table.
    if (w == RmaWire::kAuto &&
        resolve_am_transport(cfg) == AmTransport::kSocket)
      return RmaWire::kAm;
  }
  // Auto: every segment on this arena is cross-mapped, so the direct wire
  // is always reachable. A backend whose targets are not cross-mapped would
  // return kAm here for those targets.
  return w == RmaWire::kAm ? RmaWire::kAm : RmaWire::kDirect;
}

AmTransport resolve_am_transport(const Config& cfg) {
  AmTransport t = cfg.am_transport;
  if (t == AmTransport::kAuto) {
    if (const char* v = std::getenv("UPCXX_AM_TRANSPORT"); v && *v)
      t = parse_am_transport(v);
  }
  return t == AmTransport::kAuto ? AmTransport::kMmap : t;
}

void Config::normalize() {
  const Config d;  // defaults
  if (ranks < 1) ranks = 1;
  if (segment_bytes == 0) segment_bytes = d.segment_bytes;
  if (heap_bytes == 0) heap_bytes = d.heap_bytes;
  // The ring must be a power of two and big enough to hold at least one
  // maximal eager record plus headroom.
  if (ring_bytes < (std::size_t{8} << 10)) ring_bytes = std::size_t{8} << 10;
  std::size_t p2 = 1;
  while (p2 < ring_bytes) p2 <<= 1;
  ring_bytes = p2;
  // An eager record must fit safely inside a quarter ring alongside its
  // wire header (see MpscByteRing::max_record_payload); 64 bytes covers
  // header + alignment.
  const std::size_t record_cap = ring_bytes / 4 - 64;
  if (eager_max > record_cap) eager_max = record_cap;
  // Data-motion engine: a negative or non-finite bandwidth means "no
  // model"; chunks below 256 bytes would make per-chunk bookkeeping
  // dominate the copies.
  if (!(sim_bw_gbps > 0) || !std::isfinite(sim_bw_gbps)) sim_bw_gbps = 0;
  if (xfer_chunk_bytes < 256) xfer_chunk_bytes = 256;
  // am_window 0 means auto (resolve_am_window consults the environment),
  // so normalize leaves it alone.
  // A socket record must at least hold a maximal eager payload plus
  // headers.
  if (socket_max_record < (std::size_t{64} << 10))
    socket_max_record = std::size_t{64} << 10;
}

Config Config::from_env() {
  Config c;
  c.ranks = static_cast<int>(
      env_positive("UPCXX_RANKS", static_cast<long>(c.ranks)));
  if (const char* b = std::getenv("UPCXX_BACKEND")) {
    if (std::strcmp(b, "process") == 0) c.backend = Backend::kProcess;
  }
  c.segment_bytes =
      static_cast<std::size_t>(env_positive(
          "UPCXX_SEGMENT_MB", static_cast<long>(c.segment_bytes >> 20)))
      << 20;
  c.ring_bytes = static_cast<std::size_t>(env_positive(
                     "UPCXX_RING_KB", static_cast<long>(c.ring_bytes >> 10)))
                 << 10;
  c.eager_max = static_cast<std::size_t>(
      env_positive("UPCXX_EAGER_MAX", static_cast<long>(c.eager_max)));
  c.heap_bytes = static_cast<std::size_t>(env_positive(
                     "UPCXX_HEAP_MB", static_cast<long>(c.heap_bytes >> 20)))
                 << 20;
  c.sim_latency_ns = static_cast<std::uint64_t>(
      env_nonnegative("UPCXX_SIM_LATENCY_NS", 0));
  if (const char* v = std::getenv("UPCXX_SIM_BW_GBPS"); v && *v) {
    char* end = nullptr;
    const double bw = std::strtod(v, &end);
    if (end != v && *end == '\0' && bw >= 0 && std::isfinite(bw)) {
      c.sim_bw_gbps = bw;
    } else {
      std::fprintf(stderr,
                   "gex: ignoring UPCXX_SIM_BW_GBPS=%s (must be a finite "
                   "non-negative number)\n",
                   v);
    }
  }
  // 0 is meaningful here (disable the async path), so no env_positive.
  c.rma_async_min = static_cast<std::size_t>(env_nonnegative(
      "UPCXX_RMA_ASYNC_MIN", static_cast<long>(c.rma_async_min)));
  // UPCXX_RMA_WIRE, UPCXX_AM_TRANSPORT and UPCXX_AM_WINDOW have one reader
  // each, their resolver (resolve_rma_wire and friends), which a field
  // left at auto consults at launch — so hand-built Configs follow the
  // environment exactly like this one.
  c.normalize();
  return c;
}

}  // namespace gex
