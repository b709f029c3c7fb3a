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

long env_long(const char* name, long dflt) {
  const char* v = std::getenv(name);
  if (!v || !*v) return dflt;
  long r = dflt;
  parse_long(name, v, r);
  return r;
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
    // A positive integer pins the window (the CI am-window-1 job).
    // Garbage already warned in from_env; degrade to the default.
    long n = 0;
    if (parse_long("UPCXX_AM_WINDOW", v, n) && n > 0)
      return static_cast<std::uint32_t>(n);
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
  // A single record (eager message or aggregation frame) must fit safely
  // inside a quarter ring alongside its wire header (see
  // MpscByteRing::max_record_payload); 64 bytes covers header + alignment.
  const std::size_t record_cap = ring_bytes / 4 - 64;
  if (eager_max > record_cap) eager_max = record_cap;
  if (agg_max_bytes > record_cap) agg_max_bytes = record_cap;
  if (agg_max_bytes < 256) agg_max_bytes = 256;
  if (agg_max_msgs == 0) agg_max_msgs = 1;
  // Data-motion engine: a negative or non-finite bandwidth means "no
  // model"; chunks below 256 bytes would make per-chunk bookkeeping
  // dominate the copies.
  if (!(sim_bw_gbps > 0) || !std::isfinite(sim_bw_gbps)) sim_bw_gbps = 0;
  if (xfer_chunk_bytes < 256) xfer_chunk_bytes = 256;
  // am_window 0 means auto (resolve_am_window consults the environment),
  // so normalize leaves it alone.
  // Socket knobs: a record must at least hold a maximal eager payload plus
  // headers; fault probabilities are percentages; the fixed arena base
  // must be page-aligned for MAP_FIXED_NOREPLACE.
  if (socket_max_record < (std::size_t{64} << 10))
    socket_max_record = std::size_t{64} << 10;
  if (socket_fault_short_write_pct > 100) socket_fault_short_write_pct = 100;
  if (socket_fault_short_read_pct > 100) socket_fault_short_read_pct = 100;
  socket_arena_base &= ~std::uint64_t{4095};
  if (socket_arena_base == 0) socket_arena_base = d.socket_arena_base;
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
  if (const char* a = std::getenv("UPCXX_ATOMICS")) {
    c.atomics_use_am = (std::strcmp(a, "am") == 0);
  }
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
  if (const char* v = std::getenv("UPCXX_RMA_WIRE"); v && *v) {
    c.rma_wire = parse_rma_wire(v);
  }
  if (const char* v = std::getenv("UPCXX_AM_TRANSPORT"); v && *v) {
    c.am_transport = parse_am_transport(v);
  }
  // 0 (auto → kDefaultAmWindow) stays 0 unless the environment names a
  // window; `auto` is the spelled-out default. resolve_am_window turns it
  // into the window at launch.
  if (const char* v = std::getenv("UPCXX_AM_WINDOW");
      v && *v && std::strcmp(v, "auto") != 0) {
    if (long n = env_long("UPCXX_AM_WINDOW", 0); n != 0) {
      if (n > 0) {
        c.am_window = static_cast<std::uint32_t>(n);
      } else {
        std::fprintf(stderr,
                     "gex: ignoring UPCXX_AM_WINDOW=%ld (must be positive)\n",
                     n);
      }
    }
  }
  c.socket_max_record =
      static_cast<std::size_t>(env_positive(
          "UPCXX_SOCKET_MAX_RECORD_KB",
          static_cast<long>(c.socket_max_record >> 10)))
      << 10;
  if (const char* v = std::getenv("UPCXX_SOCKET_ARENA_BASE"); v && *v) {
    // Hex (0x...) or decimal; strtoull base 0 accepts both.
    errno = 0;
    char* end = nullptr;
    const unsigned long long b = std::strtoull(v, &end, 0);
    if (end != v && *end == '\0' && errno != ERANGE && b != 0) {
      c.socket_arena_base = b;
    } else {
      std::fprintf(stderr,
                   "gex: ignoring UPCXX_SOCKET_ARENA_BASE=%s (not a "
                   "non-zero address)\n",
                   v);
    }
  }
  c.socket_isolated = env_long("UPCXX_SOCKET_ISOLATED", 0) != 0;
  c.socket_fault_seed = static_cast<std::uint64_t>(
      env_nonnegative("UPCXX_SOCKET_FAULT_SEED", 0));
  c.socket_fault_short_write_pct = static_cast<std::uint32_t>(
      env_nonnegative("UPCXX_SOCKET_FAULT_SHORT_WRITE_PCT", 0));
  c.socket_fault_short_read_pct = static_cast<std::uint32_t>(
      env_nonnegative("UPCXX_SOCKET_FAULT_SHORT_READ_PCT", 0));
  c.socket_fault_die_rank = static_cast<int>(
      env_nonnegative("UPCXX_SOCKET_FAULT_DIE_RANK", -1));
  c.socket_fault_die_at = static_cast<std::uint64_t>(
      env_nonnegative("UPCXX_SOCKET_FAULT_DIE_AT", 0));
  c.agg_enabled = env_long("UPCXX_AGG", 1) != 0;
  c.agg_max_bytes = static_cast<std::size_t>(env_positive(
      "UPCXX_AGG_MAX_BYTES", static_cast<long>(c.agg_max_bytes)));
  c.agg_max_msgs = static_cast<std::uint32_t>(env_positive(
      "UPCXX_AGG_MAX_MSGS", static_cast<long>(c.agg_max_msgs)));
  c.normalize();
  return c;
}

}  // namespace gex
