// upcxx_bench — the repository benchmark.
//
// Four workloads, each in its own process (`--workload all` re-executes this
// binary once per workload so set-up time and peak RSS are per workload),
// each over 2 ranks that are threads of that process, with at most 4 busy
// threads in total. The load is a closed loop: a fixed number of outstanding
// ops per rank, a new op issued only when one completes — the shape of
// UPC++ callers (DHT, k-mer, solver codes) that each wait on futures. The
// seed drives generators in this file; the library only receives the
// generated keys, sizes and op kinds. Every result is verified.
//
//   kv_zipf_mmap    dht::RpcOnlyMap, 2^20 preloaded 16 B keys with 64 B
//                   values derived from key+seed, Zipf(0.99), 95% find /
//                   5% insert (overwrite with the same value), 32
//                   outstanding per rank, mmap rings: the fine-grained RPC
//                   path (dht -> rpc -> Aggregator -> AmEngine -> ring).
//   kv_zipf_socket  the same over the loopback-TCP transport: every frame
//                   crosses a socket; op layer and aggregation are unchanged.
//                   Run directly or with `all` only: it is not a
//                   BENCHMARK.json workload, because its run-to-run spread
//                   on a shared host exceeds the bounds (README.md).
//   rma_bulk_am     1 MiB rput/rget (50/50) over the AM wire, 4 outstanding
//                   per rank, cycling over 16 remote slots (16 MiB per rank):
//                   XferEngine chunking, credits, adaptive window, staging
//                   pools. Bypasses dht, rpc and the Aggregator.
//   inject_mixed    per rank one app thread in an injection_scope and a
//                   progress_thread holding the master persona; 16
//                   outstanding: 60% rpc round trip, 30% 64 B rput over the
//                   AM wire, 10% AM fetch_add. Every op crosses to the
//                   progress thread through the MPSC shards and its
//                   completion comes back as an lpc_ff. Bypasses XferEngine.
//
// Each workload pins every gex::Config field it depends on, so UPCXX_*
// environment knobs cannot change what is measured.
//
// A workload process runs at least kSetupMinCycles set-up cycles (launch,
// segments, preload, the barrier that opens warm-up), more while they total
// under half a second; setup_s is their median. The
// last cycle continues into a `--warmup` closed loop (lazy set-up, AM-window
// ramp, page faults) and a `--duration` timed phase cut into 1 s windows.
// With `--trace FILE` the second half of the timed phase records spans
// around every call the loop makes into the library (sampled), reads the
// layers' stats() counters around it, writes the spans as JSON lines to
// FILE and prints the per-layer metrics; end-to-end numbers then come from
// the untraced first half.
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "apps/dht/dht.hpp"
#include "arch/rng.hpp"
#include "arch/timer.hpp"
#include "bench_core.hpp"
#include "gex/agg.hpp"
#include "gex/rma_am.hpp"
#include "gex/xfer.hpp"
#include "upcxx/upcxx.hpp"

extern char** environ;

namespace {

constexpr std::uint64_t kSecNs = 1'000'000'000;
constexpr int kRanks = 2;
constexpr int kSetupMinCycles = 3;
constexpr double kSetupMinTotalS = 0.5;
constexpr int kSetupMaxCycles = 31;

struct Options {
  std::string workload = "all";
  std::uint64_t seed = 1;
  int duration = 20;
  int warmup = 3;
  std::string trace;  // span output file; empty = untraced
};

// Bijective 64-bit mixer (splitmix64 finalizer).
std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Seed of one rank's op stream, distinct per workload family and rank (the
// two kv workloads share theirs: same inputs, different transport).
std::uint64_t stream_seed(const Options& o, std::uint64_t family, int me) {
  return mix64(o.seed ^
               mix64(family * kRanks + static_cast<std::uint64_t>(me) + 1));
}

// ------------------------------------------------------------------ spans

enum SpanName : std::uint32_t {
  kOpSpan,
  kDhtFind,
  kDhtInsert,
  kRpcSpan,
  kRputSpan,
  kRgetSpan,
  kAmoSpan,
  kProgressSpan,
};
const std::vector<std::string> kSpanNames = {
    "op",        "dht.find",   "dht.insert", "upcxx.rpc",
    "upcxx.rput", "upcxx.rget", "upcxx.amo",  "upcxx.progress"};
// Every 256th progress call on a driving thread is recorded as a span; ops
// are sampled per workload (every op on rma_bulk_am, every 256th on the
// million-op-per-second workloads) so a 20 s traced half stays under the
// per-thread capacity.
constexpr std::uint64_t kProgressSamplePeriod = 256;
constexpr std::uint64_t kFastOpSamplePeriod = 256;
constexpr std::size_t kSpanCapacity = std::size_t{1} << 18;  // per thread

// ------------------------------------------------- per-rank results

// Completions of one measured phase on one driving thread.
struct PhaseRec {
  std::uint64_t t0 = 0;
  std::vector<std::uint64_t> win_ops, win_bytes;  // 1 s windows
  ubench::Histogram lat;                           // issue -> completion, ns
  // Traced phases only: progress calls on the driving thread, how many
  // completed at least one op, and the time spent inside them.
  std::uint64_t progress_calls = 0, progress_useful = 0, progress_ns = 0;

  void start(std::uint64_t t, int seconds) {
    t0 = t;
    win_ops.assign(static_cast<std::size_t>(seconds), 0);
    win_bytes.assign(static_cast<std::size_t>(seconds), 0);
  }
  void count(std::uint64_t t, std::uint64_t lat_ns, std::uint64_t bytes) {
    const std::size_t w = (t - t0) / kSecNs;
    if (w >= win_ops.size()) return;
    ++win_ops[w];
    win_bytes[w] += bytes;
    lat.record(lat_ns);
  }
};

using Counters = std::map<std::string, std::uint64_t>;

// Ranks are threads of this process; each writes only its own slot, and
// main reads them after upcxx::run has joined the ranks.
struct RankOut {
  PhaseRec rec;     // timed phase (its untraced first half when tracing)
  PhaseRec traced;  // traced second half
  Counters c0, c1;  // layer counters around the traced half
  std::unique_ptr<ubench::SpanBuffer> spans;
  std::uint64_t attempted = 0, failed = 0;
};
std::array<RankOut, kRanks> g_out;
std::uint64_t g_setup_end_ns = 0;  // written by rank 0

// Ends a set-up cycle: the barrier that opens warm-up.
void open_warmup() {
  upcxx::barrier();
  if (upcxx::rank_me() == 0) g_setup_end_ns = arch::now_ns();
}

// Must run on the thread holding the rank's master persona. In every
// workload here that thread is the only one moving the engines, so their
// plain counters are read race-free; the upcxx op counters are relaxed
// loads (injector threads bump them).
Counters read_counters() {
  const gex::Rank& r = *gex::self();
  const auto up = upcxx::experimental::stats();
  const auto& am = r.am->stats();
  const auto& ag = r.agg->stats();
  const auto& xf = r.xfer->stats();
  const auto& ra = r.rma_am->stats();
  return {
      {"upcxx.rpcs_executed", up.rpcs_executed},
      {"upcxx.lpcs_run", up.lpcs_run},
      {"agg.msgs", ag.msgs},
      {"agg.frames", ag.frames},
      {"agg.flushes_capacity", ag.flushes_capacity},
      {"agg.flushes_explicit", ag.flushes_explicit},
      {"am.sent_eager", am.sent_eager},
      {"am.sent_rendezvous", am.sent_rendezvous},
      {"am.sent_frames", am.sent_frames},
      {"am.received", am.received},
      {"am.received_frames", am.received_frames},
      {"am.send_stalls", am.send_stalls},
      {"transport.tx_writev_batches", r.am->transport().tx_writev_batches()},
      {"xfer.chunks_copied", xf.chunks_copied},
      {"xfer.bytes_copied", xf.bytes_copied},
      {"xfer.max_inflight", xf.max_inflight},
      {"rma_am.requests",
       ra.puts_sent + ra.gets_sent + ra.frag_puts_sent + ra.frag_gets_sent},
      {"rma_am.acks_piggybacked", ra.acks_piggybacked},
      {"rma_am.ack_cookies_sent", ra.ack_cookies_sent},
      {"rma_am.requests_queued", ra.requests_queued},
      {"rma_am.send_stalls", ra.send_stalls},
      {"rma_am.max_outstanding", ra.max_outstanding},
      {"rma_am.puts_staged", ra.puts_staged},
      {"rma_am.stage_allocs", ra.stage_allocs},
      {"rma_am.reply_pool_hits", ra.reply_pool_hits},
      {"rma_am.reply_stage_allocs", ra.reply_stage_allocs},
      {"rma_am.reply_fallbacks", ra.reply_fallbacks},
      {"rma_am.window_shrink", ra.window_shrink},
  };
}

// ------------------------------------------------------- closed loop

// Keeps `depth` ops outstanding on one driving thread. A workload W
// provides kDepth, issue(slot) -> span name, ready(slot), and
// complete(slot) -> payload bytes (which also verifies the result).
class Loop {
 public:
  Loop(int depth, std::uint64_t op_sample_period)
      : depth_(depth),
        sample_period_(op_sample_period),
        busy_(static_cast<std::size_t>(depth), 0),
        t_issue_(static_cast<std::size_t>(depth), 0),
        op_span_(static_cast<std::size_t>(depth), 0) {
    for (int s = depth - 1; s >= 0; --s) free_.push_back(s);
  }

  // Runs until end_ns. rec records completions inside the phase; spans,
  // when set, records sampled requests and progress calls.
  template <typename W>
  void run(W& w, std::uint64_t end_ns, PhaseRec* rec,
           ubench::SpanBuffer* spans) {
    std::uint64_t now = arch::now_ns();
    while (now < end_ns) {
      for (int n = 0; n < depth_ && !free_.empty(); ++n) {
        const int s = free_.back();
        free_.pop_back();
        const std::uint64_t req = ++reqs_;
        const std::uint64_t t = arch::now_ns();
        const std::uint32_t name = w.issue(s);
        const std::uint64_t t1 = arch::now_ns();
        t_issue_[s] = t;
        op_span_[s] = 0;
        if (spans && req % sample_period_ == 0) {
          op_span_[s] = spans->open(kOpSpan, 0, req, t);
          if (op_span_[s]) spans->add(name, op_span_[s], req, t, t1);
        }
        busy_[s] = 1;
        if (w.ready(s)) finish(w, s, t1, end_ns, rec, spans);
      }
      // Traced: every progress call is timed, every 256th becomes a span.
      const std::uint64_t tp = spans ? arch::now_ns() : 0;
      upcxx::progress();
      now = arch::now_ns();
      if (spans && ++progress_calls_ % kProgressSamplePeriod == 0)
        spans->add(kProgressSpan, 0, 0, tp, now);
      bool any = false;
      for (int s = 0; s < depth_; ++s)
        if (busy_[s] && w.ready(s)) {
          finish(w, s, now, end_ns, rec, spans);
          any = true;
        }
      if (rec && spans) {
        ++rec->progress_calls;
        rec->progress_useful += any;
        rec->progress_ns += now - tp;
      }
    }
  }

  // Waits for every outstanding op (verified, not recorded).
  template <typename W>
  void drain(W& w) {
    while (std::find(busy_.begin(), busy_.end(), 1) != busy_.end()) {
      upcxx::progress();
      for (int s = 0; s < depth_; ++s)
        if (busy_[s] && w.ready(s)) finish(w, s, 0, 0, nullptr, nullptr);
    }
  }

 private:
  template <typename W>
  void finish(W& w, int s, std::uint64_t t, std::uint64_t end_ns,
              PhaseRec* rec, ubench::SpanBuffer* spans) {
    const std::uint64_t bytes = w.complete(s);
    busy_[s] = 0;
    free_.push_back(s);
    if (spans) spans->close(op_span_[s], t);
    if (rec && t < end_ns) rec->count(t, t - t_issue_[s], bytes);
  }

  int depth_;
  std::uint64_t sample_period_;
  std::vector<int> free_;
  std::vector<char> busy_;
  std::vector<std::uint64_t> t_issue_, op_span_;
  std::uint64_t reqs_ = 0, progress_calls_ = 0;
};

// Warm-up, then the timed phase (second half traced when --trace), on the
// rank's driving thread. `snapshot` reads the layer counters with the
// master persona.
template <typename W, typename Snapshot>
void measure_rank(W& w, const Options& o, int me,
                  std::uint64_t op_sample_period, Snapshot&& snapshot) {
  RankOut& out = g_out[static_cast<std::size_t>(me)];
  const bool tracing = !o.trace.empty();
  if (tracing)
    out.spans = std::make_unique<ubench::SpanBuffer>(
        static_cast<std::uint32_t>(me), kSpanCapacity);
  Loop loop(W::kDepth, op_sample_period);
  loop.run(w, arch::now_ns() + static_cast<std::uint64_t>(o.warmup) * kSecNs,
           nullptr, nullptr);
  loop.drain(w);
  upcxx::barrier();

  const std::uint64_t t0 = arch::now_ns();
  const int untraced = tracing ? o.duration / 2 : o.duration;
  const std::uint64_t t_half =
      t0 + static_cast<std::uint64_t>(untraced) * kSecNs;
  out.rec.start(t0, untraced);
  loop.run(w, t_half, &out.rec, nullptr);
  if (tracing) {
    out.c0 = snapshot();
    out.traced.start(t_half, o.duration - untraced);
    loop.run(w, t0 + static_cast<std::uint64_t>(o.duration) * kSecNs,
             &out.traced, out.spans.get());
    out.c1 = snapshot();
  }
  loop.drain(w);
  upcxx::barrier();
  out.attempted += w.attempted;
  out.failed += w.failed;
}

gex::Config base_config() {
  gex::Config c;  // library defaults, never the environment
  c.ranks = kRanks;
  c.backend = gex::Backend::kThread;
  c.sim_latency_ns = 0;
  c.sim_bw_gbps = 0;
  c.atomics_use_am = false;
  c.agg_enabled = true;
  c.rma_wire = gex::RmaWire::kDirect;
  c.am_transport = gex::AmTransport::kMmap;
  c.am_window = gex::kAmWindowForceAuto;
  c.am_rtt_envelope = gex::kDefaultAmRttEnvelope;
  c.progress_threads = 1;
  return c;
}

// --------------------------------------------------------------- kv_*

constexpr std::uint64_t kKvKeys = std::uint64_t{1} << 20;
constexpr std::uint64_t kKvMask = kKvKeys - 1;
constexpr std::size_t kValueBytes = 64;
constexpr int kKvInsertPct = 5;

// YCSB's Zipfian generator (Gray et al.): rank 0 is the hottest.
class Zipf {
 public:
  Zipf(std::uint64_t n, double theta) : n_(n) {
    double zetan = 0;
    for (std::uint64_t i = 1; i <= n; ++i)
      zetan += 1.0 / std::pow(static_cast<double>(i), theta);
    zetan_ = zetan;
    alpha_ = 1.0 / (1.0 - theta);
    half_pow_ = std::pow(0.5, theta);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
           (1.0 - (1.0 + half_pow_) / zetan);
  }

  std::uint64_t next(arch::Xoshiro256& rng) const {
    const double u = rng.next_double();
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < 1.0 + half_pow_) return 1;
    const auto r = static_cast<std::uint64_t>(
        static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return std::min(r, n_ - 1);
  }

 private:
  std::uint64_t n_;
  double zetan_, alpha_, half_pow_, eta_;
};
std::unique_ptr<Zipf> g_zipf;

// Keys and values derived from the seed, shared by preload, loop and checks.
struct KvSpace {
  std::uint64_t seed;

  // Zipf rank -> key index: a seeded bijection on [0, 2^20), so the hot
  // keys move with the seed and spread over both ranks.
  std::uint64_t index_of(std::uint64_t rank) const {
    std::uint64_t x = (rank ^ seed) & kKvMask;
    x = (x * 0x9E3779B1u) & kKvMask;
    x ^= x >> 11;
    x = (x * 0x85EBCA6Bu) & kKvMask;
    return x ^ (x >> 9);
  }
  // 16 hex characters, distinct per index.
  void key(std::uint64_t idx, std::string& out) const {
    static constexpr char kHex[] = "0123456789abcdef";
    std::uint64_t h = mix64(idx ^ mix64(seed));
    out.resize(16);
    for (int i = 15; i >= 0; --i, h >>= 4) out[i] = kHex[h & 15];
  }
  void value(std::uint64_t idx, char* out) const {
    for (std::size_t w = 0; w < kValueBytes / 8; ++w) {
      const std::uint64_t v = mix64(idx * 8 + w + mix64(seed + 1));
      std::memcpy(out + 8 * w, &v, 8);
    }
  }
};

class KvLoad {
 public:
  static constexpr int kDepth = 32;

  KvLoad(dht::RpcOnlyMap& map, const KvSpace& ks, std::uint64_t rng_seed)
      : map_(map), ks_(ks), rng_(rng_seed), slots_(kDepth) {}

  std::uint32_t issue(int s) {
    Slot& sl = slots_[s];
    sl.idx = ks_.index_of(g_zipf->next(rng_));
    sl.is_find = rng_.next_below(100) >= kKvInsertPct;
    ks_.key(sl.idx, key_);
    if (sl.is_find) {
      sl.find = map_.find(key_);
      return kDhtFind;
    }
    ks_.value(sl.idx, val_.data());
    sl.insert = map_.insert(key_, val_);
    return kDhtInsert;
  }

  bool ready(int s) const {
    const Slot& sl = slots_[s];
    return sl.is_find ? sl.find.is_ready() : sl.insert.is_ready();
  }

  std::uint64_t complete(int s) {
    Slot& sl = slots_[s];
    ++attempted;
    if (sl.is_find) {
      const auto& v = sl.find.result_ref();
      char expect[kValueBytes];
      ks_.value(sl.idx, expect);
      if (!v || v->size() != kValueBytes ||
          std::memcmp(v->data(), expect, kValueBytes) != 0)
        ++failed;
      sl.find = {};
    } else {
      sl.insert = {};
    }
    return kValueBytes;
  }

  std::uint64_t attempted = 0, failed = 0;

 private:
  struct Slot {
    std::uint64_t idx = 0;
    bool is_find = true;
    upcxx::future<std::optional<std::string>> find;
    upcxx::future<> insert;
  };
  dht::RpcOnlyMap& map_;
  const KvSpace& ks_;
  arch::Xoshiro256 rng_;
  std::vector<Slot> slots_;
  std::string key_, val_ = std::string(kValueBytes, '\0');
};

void kv_body(const Options& o, bool measure) {
  const int me = upcxx::rank_me();
  const KvSpace ks{o.seed};
  dht::RpcOnlyMap map;
  // Preload: each rank inserts the keys of its parity, in batches that
  // ride aggregated frames.
  {
    std::vector<std::pair<std::string, std::string>> batch;
    std::string k, v(kValueBytes, '\0');
    for (std::uint64_t idx = static_cast<std::uint64_t>(me); idx < kKvKeys;
         idx += kRanks) {
      ks.key(idx, k);
      ks.value(idx, v.data());
      batch.emplace_back(k, v);
      if (batch.size() == 4096) {
        map.insert_batch(batch).wait();
        batch.clear();
      }
    }
    if (!batch.empty()) map.insert_batch(batch).wait();
  }
  upcxx::barrier();
  const std::uint64_t stored =
      upcxx::reduce_all(static_cast<std::uint64_t>(map.local_size()),
                        upcxx::op_fast_add{})
          .wait();
  RankOut& out = g_out[static_cast<std::size_t>(me)];
  ++out.attempted;
  if (stored != kKvKeys) ++out.failed;
  open_warmup();
  if (!measure) return;
  KvLoad w(map, ks, stream_seed(o, 0, me));
  measure_rank(w, o, me, kFastOpSamplePeriod, [] { return read_counters(); });
}

gex::Config kv_mmap_config() { return base_config(); }

gex::Config kv_socket_config() {
  gex::Config c = base_config();
  c.am_transport = gex::AmTransport::kSocket;
  c.rma_wire = gex::RmaWire::kAm;  // a socket peer is not cross-mapped
  return c;
}

// -------------------------------------------------------- rma_bulk_am

constexpr std::size_t kBulkBytes = std::size_t{1} << 20;
// 16 MiB per rank: more than a core's 2 MiB L2, a small share of the
// 300 MiB L3 that a 4-vCPU KVM guest shares with other tenants. 64 slots
// swung more between runs there (ops/s quartile spread 0.12 against 0.08
// over 8 interleaved pairs).
constexpr std::uint64_t kBulkSlots = 16;
constexpr std::size_t kPage = 4096;
constexpr std::size_t kPages = kBulkBytes / kPage;
constexpr std::uint64_t kFullCheckEvery = 64;

// Content of one slot generation: a seeded base pattern shared by all
// slots with a stamp of (owner, slot, generation, page) in the first 8
// bytes of every 4 KiB page.
struct BulkPattern {
  std::uint64_t seed = 0;
  std::vector<char> base;

  explicit BulkPattern(std::uint64_t s) : seed(s), base(kBulkBytes) {
    std::uint64_t st = mix64(s ^ 0xb01cull);
    for (std::size_t i = 0; i < kBulkBytes; i += 8) {
      const std::uint64_t v = arch::splitmix64(st);
      std::memcpy(base.data() + i, &v, 8);
    }
  }
  std::uint64_t stamp(int owner, std::uint64_t slot, std::uint64_t gen,
                      std::size_t page) const {
    return mix64(seed ^ (static_cast<std::uint64_t>(owner) << 62) ^
                 (slot << 52) ^ (gen << 12) ^ page);
  }
  void stamp_all(char* buf, int owner, std::uint64_t slot,
                 std::uint64_t gen) const {
    for (std::size_t p = 0; p < kPages; ++p) {
      const std::uint64_t v = stamp(owner, slot, gen, p);
      std::memcpy(buf + p * kPage, &v, 8);
    }
  }
  bool check(const char* buf, int owner, std::uint64_t slot,
             std::uint64_t gen, bool full) const {
    for (std::size_t p = 0; p < kPages; ++p) {
      const std::uint64_t v = stamp(owner, slot, gen, p);
      if (std::memcmp(buf + p * kPage, &v, 8) != 0) return false;
      if (full && std::memcmp(buf + p * kPage + 8,
                              base.data() + p * kPage + 8, kPage - 8) != 0)
        return false;
    }
    return true;
  }
};
std::unique_ptr<BulkPattern> g_pattern;

class BulkLoad {
 public:
  static constexpr int kDepth = 4;

  BulkLoad(upcxx::global_ptr<char> peer_base, int peer, std::uint64_t seed)
      : pat_(*g_pattern),
        peer_base_(peer_base),
        peer_(peer),
        rng_(seed),
        gen_(kBulkSlots, 0),
        puts_(kBulkSlots, 0),
        gets_(kBulkSlots, 0),
        order_(kBulkSlots) {
    std::iota(order_.begin(), order_.end(), 0);
    for (std::uint64_t i = kBulkSlots - 1; i > 0; --i)
      std::swap(order_[i], order_[rng_.next_below(i + 1)]);
    for (int s = 0; s < kDepth; ++s) {
      src_[s] = pat_.base;
      dst_[s].assign(kBulkBytes, 0);
    }
  }

  std::uint32_t issue(int s) {
    Op& op = ops_[s];
    op.is_put = rng_.next_below(2) == 0;
    // Next slot of the seeded cycle this op may touch: a put needs the slot
    // idle, a get needs no put in flight. With 4 outstanding over 16 slots
    // a skip needs an op to fall 12 completions behind, so the sequence is
    // the seed's in practice.
    do {
      op.slot = order_[next_++ % kBulkSlots];
    } while (puts_[op.slot] != 0 || (op.is_put && gets_[op.slot] != 0));
    const auto dst =
        peer_base_ + static_cast<std::ptrdiff_t>(op.slot * kBulkBytes);
    if (op.is_put) {
      op.gen = gen_[op.slot] + 1;
      ++puts_[op.slot];
      pat_.stamp_all(src_[s].data(), peer_, op.slot, op.gen);
      op.f = upcxx::rput(src_[s].data(), dst, kBulkBytes);
      return kRputSpan;
    }
    op.gen = gen_[op.slot];
    ++gets_[op.slot];
    op.f = upcxx::rget(dst, dst_[s].data(), kBulkBytes);
    return kRgetSpan;
  }

  bool ready(int s) const { return ops_[s].f.is_ready(); }

  std::uint64_t complete(int s) {
    Op& op = ops_[s];
    ++attempted;
    if (op.is_put) {
      gen_[op.slot] = op.gen;
      --puts_[op.slot];
    } else {
      --gets_[op.slot];
      const bool full = ++gets_done_ % kFullCheckEvery == 0;
      if (!pat_.check(dst_[s].data(), peer_, op.slot, op.gen, full)) ++failed;
    }
    op.f = {};
    return kBulkBytes;
  }

  std::uint64_t attempted = 0, failed = 0;

 private:
  struct Op {
    bool is_put = false;
    std::uint64_t slot = 0, gen = 0;
    upcxx::future<> f;
  };
  const BulkPattern& pat_;
  upcxx::global_ptr<char> peer_base_;
  int peer_;
  arch::Xoshiro256 rng_;
  std::vector<std::uint64_t> gen_, puts_, gets_, order_;
  std::uint64_t next_ = 0, gets_done_ = 0;
  std::array<Op, kDepth> ops_;
  std::array<std::vector<char>, kDepth> src_, dst_;
};

void bulk_body(const Options& o, bool measure) {
  const int me = upcxx::rank_me();
  const int peer = 1 - me;
  auto mine = upcxx::allocate<char>(kBulkSlots * kBulkBytes);
  for (std::uint64_t slot = 0; slot < kBulkSlots; ++slot) {
    char* p = mine.local() + slot * kBulkBytes;
    std::memcpy(p, g_pattern->base.data(), kBulkBytes);
    g_pattern->stamp_all(p, me, slot, 0);
  }
  upcxx::dist_object<upcxx::global_ptr<char>> dir(mine);
  const auto peer_base = dir.fetch(peer).wait();
  open_warmup();
  if (measure) {
    BulkLoad w(peer_base, peer, stream_seed(o, 1, me));
    measure_rank(w, o, me, 1, [] { return read_counters(); });
  }
  upcxx::barrier();  // the peer is done with this rank's slots
  upcxx::deallocate(mine);
}

gex::Config bulk_config() {
  gex::Config c = base_config();
  c.rma_wire = gex::RmaWire::kAm;
  c.segment_bytes = std::size_t{32} << 20;  // 16 slots of 1 MiB + slack
  return c;
}

// ------------------------------------------------------- inject_mixed

constexpr std::uint64_t kCounters = 8;
constexpr std::uint64_t kPutSlots = 64;  // a multiple of InjectLoad::kDepth
constexpr std::size_t kSmallPut = 64;

std::uint64_t rpc_body(std::uint64_t x) { return mix64(x) ^ 0x5bd1e995u; }

// Content of the seq-th 64 B put by `writer` into `slot`.
void small_pattern(std::uint64_t seed, int writer, std::uint64_t slot,
                   std::uint64_t seq, char* out) {
  for (std::size_t w = 0; w < kSmallPut / 8; ++w) {
    const std::uint64_t v =
        mix64(seed ^ (static_cast<std::uint64_t>(writer) << 60) ^
              (slot << 48) ^ (seq << 3) ^ w);
    std::memcpy(out + 8 * w, &v, 8);
  }
}

class InjectLoad {
 public:
  static constexpr int kDepth = 16;

  InjectLoad(upcxx::atomic_domain<std::uint64_t>& ad, int me, int peer,
             upcxx::global_ptr<std::uint64_t> peer_counters,
             upcxx::global_ptr<char> peer_slots, std::uint64_t seed,
             std::uint64_t rng_seed)
      : ad_(ad),
        me_(me),
        peer_(peer),
        peer_counters_(peer_counters),
        peer_slots_(peer_slots),
        seed_(seed),
        rng_(rng_seed),
        fetched_(kCounters),
        last_seq_(kPutSlots, 0) {}

  std::uint32_t issue(int s) {
    Op& op = ops_[s];
    const std::uint64_t k = rng_.next_below(10);
    if (k < 6) {
      op.kind = kRpcSpan;
      const std::uint64_t x = rng_.next();
      op.expect = rpc_body(x);
      op.val = upcxx::rpc(
          peer_, [](std::uint64_t v) { return rpc_body(v); }, x);
    } else if (k < 9) {
      op.kind = kRputSpan;
      // Remote slot r belongs to loop slot r % kDepth, so at most one put
      // to it is in flight and the last one issued is the one it holds.
      const std::uint64_t slot =
          static_cast<std::uint64_t>(s) +
          kDepth * rng_.next_below(kPutSlots / kDepth);
      last_seq_[slot] = ++seq_;
      small_pattern(seed_, me_, slot, seq_, src_[s].data());
      op.put = upcxx::rput(
          src_[s].data(),
          peer_slots_ + static_cast<std::ptrdiff_t>(slot * kSmallPut),
          kSmallPut);
    } else {
      op.kind = kAmoSpan;
      op.counter = rng_.next_below(kCounters);
      fetched_[op.counter].push_back(false);
      op.val = ad_.fetch_add(
          peer_counters_ + static_cast<std::ptrdiff_t>(op.counter), 1);
    }
    return op.kind;
  }

  bool ready(int s) const {
    const Op& op = ops_[s];
    return op.kind == kRputSpan ? op.put.is_ready() : op.val.is_ready();
  }

  std::uint64_t complete(int s) {
    Op& op = ops_[s];
    ++attempted;
    if (op.kind == kRputSpan) {
      op.put = {};
      return kSmallPut;
    }
    const std::uint64_t got = op.val.result();
    op.val = {};
    if (op.kind == kRpcSpan) {
      if (got != op.expect) ++failed;
      return 16;  // argument + result
    }
    // Only this thread adds to the peer's counters, but adds in flight
    // together may apply in any order: each fetched value must be below the
    // number of adds issued so far, and come back once.
    std::vector<bool>& seen = fetched_[op.counter];
    if (got >= seen.size() || seen[got])
      ++failed;
    else
      seen[got] = true;
    return 8;
  }

  // Adds issued to each of the peer's counters.
  std::vector<std::uint64_t> issued() const {
    std::vector<std::uint64_t> n;
    for (const auto& seen : fetched_) n.push_back(seen.size());
    return n;
  }
  const std::vector<std::uint64_t>& last_seq() const { return last_seq_; }

  std::uint64_t attempted = 0, failed = 0;

 private:
  struct Op {
    std::uint32_t kind = kRpcSpan;
    std::uint64_t expect = 0;   // rpc result
    std::uint64_t counter = 0;  // fetch_add target
    upcxx::future<std::uint64_t> val;
    upcxx::future<> put;
  };
  upcxx::atomic_domain<std::uint64_t>& ad_;
  int me_, peer_;
  upcxx::global_ptr<std::uint64_t> peer_counters_;
  upcxx::global_ptr<char> peer_slots_;
  std::uint64_t seed_;
  arch::Xoshiro256 rng_;
  // Per counter, one flag per add issued: has its previous value come back.
  std::vector<std::vector<bool>> fetched_;
  std::vector<std::uint64_t> last_seq_;
  std::uint64_t seq_ = 0;
  std::array<Op, kDepth> ops_;
  std::array<std::array<char, kSmallPut>, kDepth> src_{};
};

void inject_body(const Options& o, bool measure) {
  const int me = upcxx::rank_me();
  const int peer = 1 - me;
  auto counters = upcxx::allocate<std::uint64_t>(kCounters);
  std::fill_n(counters.local(), kCounters, 0);
  auto slots = upcxx::allocate<char>(kPutSlots * kSmallPut);
  std::fill_n(slots.local(), kPutSlots * kSmallPut, 0);
  upcxx::atomic_domain<std::uint64_t> ad({upcxx::atomic_op::fetch_add});
  upcxx::dist_object<upcxx::global_ptr<std::uint64_t>> dir_c(counters);
  upcxx::dist_object<upcxx::global_ptr<char>> dir_s(slots);
  const auto peer_counters = dir_c.fetch(peer).wait();
  const auto peer_slots = dir_s.fetch(peer).wait();
  open_warmup();
  if (measure) {
    InjectLoad w(ad, me, peer, peer_counters, peer_slots, o.seed,
                 stream_seed(o, 2, me));
    upcxx::injector inj;
    {
      upcxx::progress_thread pt;
      upcxx::injection_scope scope(inj);
      measure_rank(w, o, me, kFastOpSamplePeriod, [&pt] {
        return pt.lpc([] { return read_counters(); }).wait();
      });
    }  // scope ends, then pt stops and the master persona returns here
    // Every add and put of both ranks applied before the barrier that
    // closed the timed phase: check them against the peer's issue record.
    upcxx::dist_object<std::vector<std::uint64_t>> issued(w.issued());
    upcxx::dist_object<std::vector<std::uint64_t>> last(w.last_seq());
    const auto peer_issued = issued.fetch(peer).wait();
    const auto peer_last = last.fetch(peer).wait();
    RankOut& out = g_out[static_cast<std::size_t>(me)];
    for (std::uint64_t c = 0; c < kCounters; ++c) {
      ++out.attempted;
      if (counters.local()[c] != peer_issued.at(c)) ++out.failed;
    }
    for (std::uint64_t slot = 0; slot < kPutSlots; ++slot) {
      if (peer_last.at(slot) == 0) continue;
      char expect[kSmallPut];
      small_pattern(o.seed, peer, slot, peer_last[slot], expect);
      ++out.attempted;
      if (std::memcmp(slots.local() + slot * kSmallPut, expect, kSmallPut))
        ++out.failed;
    }
  }
  upcxx::barrier();  // the peer is done with this rank's memory
  upcxx::deallocate(counters);
  upcxx::deallocate(slots);
}

gex::Config inject_config() {
  gex::Config c = base_config();
  // Every op leaves the injector thread: the rput rides the AM protocol and
  // the fetch_add is an AM to the counter's owner, so neither completes
  // caller-side at issue.
  c.rma_wire = gex::RmaWire::kAm;
  c.atomics_use_am = true;
  return c;
}

// ----------------------------------------------------------- registry

// Generator tables built before the first set-up cycle: they are the
// benchmark's own cost, not the library's set-up.
void kv_prepare(const Options&) {
  g_zipf = std::make_unique<Zipf>(kKvKeys, 0.99);
}
void bulk_prepare(const Options& o) {
  g_pattern = std::make_unique<BulkPattern>(o.seed);
}
void no_prepare(const Options&) {}

struct WorkloadDef {
  const char* name;
  gex::Config (*config)();
  void (*prepare)(const Options&);
  void (*body)(const Options&, bool measure);
};
const WorkloadDef kWorkloads[] = {
    {"kv_zipf_mmap", kv_mmap_config, kv_prepare, kv_body},
    {"kv_zipf_socket", kv_socket_config, kv_prepare, kv_body},
    {"rma_bulk_am", bulk_config, bulk_prepare, bulk_body},
    {"inject_mixed", inject_config, no_prepare, inject_body},
};

// ----------------------------------------------------------- reporting

void put(ubench::Metrics& ms, const std::string& name, double v,
         const char* unit) {
  ms[name] = ubench::Metric{v, unit};
}

// Per-window sums over ranks.
std::vector<double> window_sums(bool traced, bool bytes) {
  std::vector<double> out;
  for (const RankOut& r : g_out) {
    const PhaseRec& p = traced ? r.traced : r.rec;
    const auto& win = bytes ? p.win_bytes : p.win_ops;
    if (out.size() < win.size()) out.resize(win.size(), 0);
    for (std::size_t i = 0; i < win.size(); ++i)
      out[i] += static_cast<double>(win[i]);
  }
  return out;
}

// Peak resident set of this process's own address space (VmHWM). getrusage's
// maxrss would not do: it keeps the peak of the process that exec'd this
// one, so a launcher's ~15 MB would hide a smaller workload.
double peak_rss_mb() {
  double kb = std::numeric_limits<double>::quiet_NaN();
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return kb;
  char line[256];
  while (std::fgets(line, sizeof line, f))
    if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) break;
  std::fclose(f);
  return kb * 1024.0 / 1e6;
}

void end_to_end(ubench::Metrics& ms, const std::vector<double>& setup_s,
                std::uint64_t attempted, std::uint64_t failed) {
  ubench::Histogram lat;
  for (const RankOut& r : g_out) lat.merge(r.rec.lat);
  put(ms, "setup_s", ubench::median(setup_s), "s");
  put(ms, "ops_per_s", ubench::median(window_sums(false, false)), "1/s");
  put(ms, "mb_per_s", ubench::median(window_sums(false, true)) / 1e6, "MB/s");
  const double p50 = lat.percentile(50), p90 = lat.percentile(90);
  put(ms, "lat_p50_us", p50 / 1e3, "us");
  // The tail's shape: host speed moves p50 and p90 together, so this stays
  // steady where p90 itself swings with the host, and a tail regression
  // that leaves the median alone still shows. (p99 over p50 swings too much
  // on rma_bulk_am, where the adaptive AM window turns jitter into tail.)
  put(ms, "lat_p90_over_p50", ubench::ratio(p90, p50), "ratio");
  put(ms, "bench.lat_p90_us", p90 / 1e3, "us");
  put(ms, "bench.lat_p99_us", lat.percentile(99) / 1e3, "us");
  put(ms, "peak_rss_mb", peak_rss_mb(), "MB");
  put(ms, "error_rate",
      static_cast<double>(failed) / static_cast<double>(attempted), "frac");
  put(ms, "bench.lat_samples", static_cast<double>(lat.count()), "count");
}

void per_layer(ubench::Metrics& ms, const Options& o) {
  using ubench::ratio;
  std::vector<const ubench::SpanBuffer*> bufs;
  double ops = 0, wall_ns = 0, calls = 0, useful = 0, prog_ns = 0;
  double dropped = 0, spans = 0;
  for (const RankOut& r : g_out) {
    bufs.push_back(r.spans.get());
    for (std::uint64_t n : r.traced.win_ops) ops += static_cast<double>(n);
    wall_ns += static_cast<double>(r.traced.win_ops.size() * kSecNs);
    prog_ns += static_cast<double>(r.traced.progress_ns);
    calls += static_cast<double>(r.traced.progress_calls);
    useful += static_cast<double>(r.traced.progress_useful);
    dropped += static_cast<double>(r.spans->dropped());
    spans += static_cast<double>(r.spans->spans().size());
  }
  const auto sums = ubench::reduce_self_time(bufs, kSpanNames);
  auto self_p = [&](std::initializer_list<const char*> names, double p) {
    ubench::Histogram h;
    for (const char* n : names)
      if (auto it = sums.find(n); it != sums.end()) h.merge(it->second.self_ns);
    return h.percentile(p);
  };
  // The loop's issue call into the library, whichever layer it enters.
  const std::initializer_list<const char*> issue = {
      "dht.find", "dht.insert", "upcxx.rpc", "upcxx.rput", "upcxx.rget",
      "upcxx.amo"};
  put(ms, "api.issue_ns_p50", self_p(issue, 50), "ns");
  put(ms, "api.issue_ns_p99", self_p(issue, 99), "ns");
  put(ms, "dht.issue_ns_p50", self_p({"dht.find", "dht.insert"}, 50), "ns");
  put(ms, "upcxx.rpc_issue_ns_p50", self_p({"upcxx.rpc"}, 50), "ns");
  put(ms, "upcxx.rput_issue_ns_p50", self_p({"upcxx.rput"}, 50), "ns");
  put(ms, "upcxx.rget_issue_ns_p50", self_p({"upcxx.rget"}, 50), "ns");
  put(ms, "upcxx.amo_issue_ns_p50", self_p({"upcxx.amo"}, 50), "ns");
  put(ms, "upcxx.progress_ns_p50", self_p({"upcxx.progress"}, 50), "ns");
  put(ms, "upcxx.progress_busy_frac", ratio(prog_ns, wall_ns), "frac");
  put(ms, "upcxx.progress_useful_frac", ratio(useful, calls), "frac");

  // Counter deltas over the traced half, summed over ranks; peaks are the
  // largest end value.
  auto delta = [&](const char* k) {
    double d = 0;
    for (const RankOut& r : g_out)
      d += static_cast<double>(r.c1.at(k) - r.c0.at(k));
    return d;
  };
  auto peak = [&](const char* k) {
    double m = 0;
    for (const RankOut& r : g_out)
      m = std::max(m, static_cast<double>(r.c1.at(k)));
    return m;
  };
  double rpcs_max = 0;
  for (const RankOut& r : g_out)
    rpcs_max = std::max(rpcs_max,
                        static_cast<double>(r.c1.at("upcxx.rpcs_executed") -
                                            r.c0.at("upcxx.rpcs_executed")));
  put(ms, "upcxx.lpcs_per_op", ratio(delta("upcxx.lpcs_run"), ops), "1/op");
  put(ms, "upcxx.rpcs_executed_imbalance",
      ratio(rpcs_max, delta("upcxx.rpcs_executed") / kRanks), "ratio");

  put(ms, "agg.msgs_per_frame", ratio(delta("agg.msgs"), delta("agg.frames")),
      "1/frame");
  put(ms, "agg.frames_per_op", ratio(delta("agg.frames"), ops), "1/op");
  put(ms, "agg.capacity_flush_frac",
      ratio(delta("agg.flushes_capacity"),
            delta("agg.flushes_capacity") + delta("agg.flushes_explicit")),
      "frac");

  const double records = delta("am.sent_eager") +
                         delta("am.sent_rendezvous") + delta("am.sent_frames");
  put(ms, "am.sent_records_per_op", ratio(records, ops), "1/op");
  put(ms, "am.recv_msgs_per_frame",
      ratio(delta("am.received"), delta("am.received_frames")), "1/frame");
  put(ms, "am.send_stalls_per_kop",
      ratio(1000 * delta("am.send_stalls"), ops), "1/kop");
  put(ms, "am.rendezvous_frac",
      ratio(delta("am.sent_rendezvous"),
            delta("am.sent_eager") + delta("am.sent_rendezvous")),
      "frac");
  put(ms, "transport.writev_batches_per_krec",
      ratio(1000 * delta("transport.tx_writev_batches"), records), "1/krec");

  put(ms, "xfer.chunks_per_op", ratio(delta("xfer.chunks_copied"), ops),
      "1/op");
  put(ms, "xfer.bytes_per_chunk",
      ratio(delta("xfer.bytes_copied"), delta("xfer.chunks_copied")), "B");
  put(ms, "xfer.max_inflight", peak("xfer.max_inflight"), "count");

  const double reqs = delta("rma_am.requests");
  put(ms, "rma_am.requests_per_op", ratio(reqs, ops), "1/op");
  put(ms, "rma_am.ack_piggyback_frac",
      ratio(delta("rma_am.acks_piggybacked"),
            delta("rma_am.acks_piggybacked") +
                delta("rma_am.ack_cookies_sent")),
      "frac");
  put(ms, "rma_am.queued_frac", ratio(delta("rma_am.requests_queued"), reqs),
      "frac");
  put(ms, "rma_am.max_outstanding", peak("rma_am.max_outstanding"), "count");
  put(ms, "rma_am.send_stalls_per_kop",
      ratio(1000 * delta("rma_am.send_stalls"), ops), "1/kop");
  put(ms, "rma_am.put_stage_hit_frac",
      1 - ratio(delta("rma_am.stage_allocs"), delta("rma_am.puts_staged")),
      "frac");
  put(ms, "rma_am.reply_stage_hit_frac",
      ratio(delta("rma_am.reply_pool_hits"),
            delta("rma_am.reply_pool_hits") +
                delta("rma_am.reply_stage_allocs")),
      "frac");
  put(ms, "rma_am.reply_fallbacks_per_kop",
      ratio(1000 * delta("rma_am.reply_fallbacks"), ops), "1/kop");
  put(ms, "rma_am.window_shrink_per_kop",
      ratio(1000 * delta("rma_am.window_shrink"), ops), "1/kop");

  put(ms, "bench.trace_overhead_frac",
      1 - ratio(ubench::median(window_sums(true, false)),
                ubench::median(window_sums(false, false))),
      "frac");
  put(ms, "bench.trace_spans", spans, "count");
  put(ms, "bench.trace_dropped", dropped, "count");

  if (!ubench::write_spans_jsonl(o.trace, bufs, kSpanNames))
    std::fprintf(stderr, "upcxx_bench: cannot write trace %s\n",
                 o.trace.c_str());
}

int run_workload(const WorkloadDef& def, const Options& o) {
  // Watchdog: a hung rank (e.g. a peer died mid-op) must not hang the run.
  alarm(static_cast<unsigned>(o.warmup + o.duration + 30 * kSetupMinCycles +
                              60));
  std::printf("== %s  seed=%llu duration=%ds warmup=%ds%s ==\n", def.name,
              static_cast<unsigned long long>(o.seed), o.duration, o.warmup,
              o.trace.empty() ? "" : "  traced");
  def.prepare(o);

  // At least kSetupMinCycles cycles, more while they add up to under half a
  // second (a cheap set-up needs many samples for a steady median); the
  // last cycle continues into the measurement.
  std::vector<double> setup_s;
  int launch_failures = 0;
  double setup_total = 0;
  for (int i = 0;; ++i) {
    const bool measure = i + 1 >= kSetupMinCycles &&
                         (setup_total >= kSetupMinTotalS || i + 1 >= kSetupMaxCycles);
    g_setup_end_ns = 0;
    const std::uint64_t t = arch::now_ns();
    launch_failures +=
        upcxx::run(def.config(), [&o, &def, measure] { def.body(o, measure); });
    setup_s.push_back(g_setup_end_ns > t
                          ? static_cast<double>(g_setup_end_ns - t) * 1e-9
                          : std::numeric_limits<double>::quiet_NaN());
    if (measure || launch_failures) break;
    setup_total += setup_s.back();
  }

  std::uint64_t attempted = 0, failed = 0;
  for (const RankOut& r : g_out) {
    attempted += r.attempted;
    failed += r.failed;
  }
  failed += static_cast<std::uint64_t>(launch_failures);
  attempted = std::max<std::uint64_t>(attempted, 1);

  ubench::Metrics ms;
  end_to_end(ms, setup_s, attempted, failed);
  if (!o.trace.empty() && launch_failures == 0) per_layer(ms, o);

  std::printf("  setup cycles (s):");
  for (double s : setup_s) std::printf(" %.4f", s);
  std::printf("\n  1 s windows (ops):");
  for (double n : window_sums(false, false)) std::printf(" %.0f", n);
  std::printf("\n");
  for (const auto& [name, m] : ms)
    std::printf("  %-36s %16.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  bool correct = failed == 0;
  for (const char* k :
       {"setup_s", "ops_per_s", "mb_per_s", "lat_p50_us", "lat_p90_over_p50",
        "peak_rss_mb"})
    correct = correct && std::isfinite(ms.at(k).value);
  std::printf("  verification: %llu checked, %llu failed -> %s\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              correct ? "PASS" : "FAIL");
  std::printf("RESULT {\"workload\": \"%s\", \"correct\": %s, "
              "\"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              def.name, correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              ubench::json_metrics(ms).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

// Re-executes this binary once per workload.
int run_all(const Options& o) {
  int rc = 0;
  for (const WorkloadDef& def : kWorkloads) {
    std::vector<std::string> args = {
        "upcxx_bench", "--workload", def.name,
        "--seed",      std::to_string(o.seed),
        "--duration",  std::to_string(o.duration),
        "--warmup",    std::to_string(o.warmup)};
    if (!o.trace.empty()) {
      args.push_back("--trace");
      args.push_back(o.trace + "." + def.name);
    }
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    std::fflush(stdout);
    pid_t pid = 0;
    int status = 0;
    if (posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, argv.data(),
                    environ) != 0 ||
        waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      std::fprintf(stderr, "upcxx_bench: workload %s failed\n", def.name);
      rc = 1;
    }
  }
  return rc;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "upcxx_bench: %s\n"
               "usage: upcxx_bench [--workload NAME|all] [--seed S] "
               "[--duration SECONDS] [--warmup SECONDS] [--trace FILE]\n"
               "workloads: kv_zipf_mmap kv_zipf_socket rma_bulk_am "
               "inject_mixed\n",
               why);
  std::exit(2);
}

long parse_int(const char* s, long lo, long hi, const char* what) {
  char* end = nullptr;
  const long v = std::strtol(s, &end, 10);
  if (end == s || *end != '\0' || v < lo || v > hi) usage(what);
  return v;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      char* end = nullptr;
      o.seed = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0') usage("bad --seed");
    } else if (a == "--duration") {
      o.duration = static_cast<int>(parse_int(v, 1, 3600, "bad --duration"));
    } else if (a == "--warmup") {
      o.warmup = static_cast<int>(parse_int(v, 0, 600, "bad --warmup"));
    } else if (a == "--trace") {
      o.trace = v;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (!o.trace.empty() && o.duration < 2)
    usage("--trace needs --duration >= 2 (half untraced, half traced)");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  if (o.workload == "all") return run_all(o);
  for (const WorkloadDef& def : kWorkloads)
    if (o.workload == def.name) return run_workload(def, o);
  usage(("unknown workload " + o.workload).c_str());
}
