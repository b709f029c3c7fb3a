// Fig 3b reproduction: flood put bandwidth, UPC++ non-blocking rput tracked
// by a promise vs MPI-3 Put in a passive-target epoch flushed at the end
// (IMB Unidir_put aggregate mode).
//
// Paper setup and code outline (§IV-B): issue many rputs with
// operation_cx::as_promise(p), occasional progress every 10 iterations,
// p.finalize().wait() at the end; bandwidth = volume / elapsed. Paper
// result: comparable at small and large sizes, UPC++ up to 33% ahead in the
// 1KB-256KB midrange (most pronounced at 8KB) where per-op software
// overhead, not wire bandwidth, is the limiter.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "arch/timer.hpp"
#include "bench_util.hpp"
#include "minimpi/minimpi.hpp"
#include "upcxx/upcxx.hpp"

namespace {

double upcxx_flood(upcxx::global_ptr<char> dest, const char* src,
                   std::size_t size, int iters) {
  // Verbatim structure of the paper's code outline.
  upcxx::promise<> p;
  const double t0 = arch::now_s();
  for (int it = 0; it < iters; ++it) {
    upcxx::rput(src, dest, size, upcxx::operation_cx::as_promise(p));
    if (!(it % 10)) upcxx::progress();
  }
  p.finalize().wait();
  const double dt = arch::now_s() - t0;
  return static_cast<double>(size) * iters / dt;  // bytes/s
}

double mpi_flood(minimpi::Win& win, const char* src, std::size_t size,
                 int iters) {
  const double t0 = arch::now_s();
  for (int it = 0; it < iters; ++it) win.put(src, size, 1, 0);
  win.flush(1);
  const double dt = arch::now_s() - t0;
  return static_cast<double>(size) * iters / dt;
}

// Rounds behind each of the two median checks below.
constexpr int kRounds = 5;

// One 2-rank job (wire and transport as `cfg` says) in which rank 0 floods
// rank 1 at each size after a warm 4MB put: MB/s per size, the best of
// `trials` floods. Empty if a rank failed.
std::vector<double> flood_job(gex::Config cfg, std::vector<std::size_t> sizes,
                              int trials) {
  cfg.ranks = 2;
  static std::vector<double> mbs;
  mbs.clear();
  const int fails = upcxx::run(cfg, [sizes, trials] {
    const int me = upcxx::rank_me();
    constexpr std::size_t kMax = 4 << 20;
    auto seg = upcxx::allocate<char>(kMax);
    upcxx::dist_object<upcxx::global_ptr<char>> dir(seg);
    auto peer = dir.fetch(1 - me).wait();
    static std::vector<char> src;
    if (me == 0) src.assign(kMax, 'a');
    upcxx::barrier();
    if (me == 0) upcxx::rput(src.data(), peer, kMax).wait();
    upcxx::barrier();
    for (std::size_t size : sizes) {
      const auto volume =
          static_cast<std::size_t>((64u << 20) * benchutil::work_scale());
      const int iters =
          static_cast<int>(std::max<std::size_t>(8, volume / size));
      double best = 0;
      for (int t = 0; t < trials; ++t) {
        if (me == 0)
          best = std::max(best, upcxx_flood(peer, src.data(), size, iters));
        upcxx::barrier();
      }
      if (me == 0) mbs.push_back(best / 1e6);
    }
    upcxx::barrier();
    upcxx::deallocate(seg);
  });
  if (fails) mbs.clear();
  return mbs;
}

}  // namespace

int main() {
  std::printf(
      "Fig 3b — Flood Put Bandwidth (higher is better)\n"
      "UPC++ promise-tracked rput flood vs minimpi Put flood + flush, 2 "
      "ranks, best of %d trials\n\n",
      benchutil::reps(10, 3));
  benchutil::ShapeChecks checks;
  struct Row {
    std::size_t size;
    double upcxx_mbs, mpi_mbs;
  };
  static std::vector<Row> rows;

  gex::Config cfg = gex::Config::from_env();
  cfg.ranks = 2;
  // The paper's Fig 3b is a native-conduit (direct-wire) comparison; pin
  // it so a global UPCXX_RMA_WIRE=am doesn't turn the UPC++-vs-MPI claims
  // into a cross-wire mismatch — the am wire has its own series below.
  cfg.rma_wire = gex::RmaWire::kDirect;
  int fails = upcxx::run(cfg, [] {
    const int me = upcxx::rank_me();
    constexpr std::size_t kMax = 4 << 20;
    auto seg = upcxx::allocate<char>(kMax);
    upcxx::dist_object<upcxx::global_ptr<char>> dir(seg);
    auto peer = dir.fetch(1 - me).wait();
    // Quiesce upcxx before minimpi::init() and Win::create(): init spins
    // the raw arena barrier and minimpi's waits poll only the AM engine,
    // so neither serves upcxx progress — if a peer's fetch reply is still
    // pending when a rank enters them, the pair deadlocks (observed
    // deterministically on single-core hosts).
    upcxx::barrier();
    minimpi::init();
    std::vector<char> exposure(kMax), src(kMax, 'y');
    auto win = minimpi::Win::create(exposure.data(), exposure.size());

    const int trials = benchutil::reps(10, 3);
    for (std::size_t size = 4; size <= kMax; size <<= 2) {
      // Keep per-trial volume roughly constant; BENCH_QUICK shrinks it so
      // smoke runs on one-core hosts finish in seconds per size.
      const auto volume = static_cast<std::size_t>(
          (64u << 20) * benchutil::work_scale());
      const int iters =
          static_cast<int>(std::max<std::size_t>(32, volume / size));
      double best_u = 0, best_m = 0;
      for (int t = 0; t < trials; ++t) {
        if (me == 0)
          best_u = std::max(best_u, upcxx_flood(peer, src.data(), size,
                                                iters));
        upcxx::barrier();
        if (me == 0)
          best_m = std::max(best_m, mpi_flood(win, src.data(), size, iters));
        upcxx::barrier();
      }
      if (me == 0)
        rows.push_back({size, best_u / 1e6, best_m / 1e6});
    }
    win.free();
    minimpi::finalize();
    upcxx::barrier();
    upcxx::deallocate(seg);
  });
  if (fails) return 2;

  std::printf("%10s %14s %14s %12s\n", "size", "UPC++ (MB/s)", "MPI (MB/s)",
              "UPC++/MPI");
  double best_mid_ratio = 0;
  std::size_t best_mid_size = 0;
  for (const auto& r : rows) {
    std::printf("%10s %14.1f %14.1f %11.2fx\n",
                benchutil::human_size(r.size).c_str(), r.upcxx_mbs,
                r.mpi_mbs, r.upcxx_mbs / r.mpi_mbs);
    if (r.size >= 1024 && r.size <= 262144) {
      const double ratio = r.upcxx_mbs / r.mpi_mbs;
      if (ratio > best_mid_ratio) {
        best_mid_ratio = ratio;
        best_mid_size = r.size;
      }
    }
  }
  std::printf(
      "\nPaper: bandwidths comparable at the extremes; UPC++ ahead in the "
      "1KB-256KB midrange (up to 33%% at 8KB).\n");
  std::printf("Measured midrange peak advantage: %.0f%% at %s\n",
              (best_mid_ratio - 1) * 100,
              benchutil::human_size(best_mid_size).c_str());
  checks.expect(best_mid_ratio >= 1.0,
                "UPC++ matches or beats MPI somewhere in the 1KB-256KB "
                "midrange");
  const auto& big = rows.back();
  checks.expect(big.upcxx_mbs / big.mpi_mbs > 0.8 &&
                    big.upcxx_mbs / big.mpi_mbs < 1.25,
                "bandwidths comparable at 4MB (memcpy-bound)");

  // ---- simulated bandwidth cap (UPCXX_SIM_BW_GBPS) -------------------------
  // With the cap set, large rputs ride the asynchronous XferEngine whose
  // virtual wire clock gates operation completion: the flood's reported
  // bandwidth must track the configured cap rather than memcpy speed — a
  // real bandwidth curve instead of a memory benchmark. Small messages stay
  // on the synchronous path and ramp toward the cap from above or below
  // depending on the host's memcpy speed.
  double cap_gbps = 2.0;
  if (const char* e = std::getenv("UPCXX_SIM_BW_GBPS"); e && *e)
    cap_gbps = std::atof(e);
  std::printf("\nSimulated wire cap: UPCXX_SIM_BW_GBPS=%.2f (async engine, "
              "chunked)\n", cap_gbps);
  gex::Config simcfg = gex::Config::from_env();
  simcfg.ranks = 2;
  simcfg.rma_wire = gex::RmaWire::kDirect;
  simcfg.sim_bw_gbps = cap_gbps;
  simcfg.rma_async_min = 64 << 10;
  // Per-size GB/s of each trial; the check reads the median.
  struct SimRow {
    std::size_t size;
    std::vector<double> gbps;
  };
  static std::vector<SimRow> sim_rows;
  static double s_cap;
  s_cap = cap_gbps;
  fails = upcxx::run(simcfg, [] {
    const int me = upcxx::rank_me();
    constexpr std::size_t kMax = 4 << 20;
    auto seg = upcxx::allocate<char>(kMax);
    upcxx::dist_object<upcxx::global_ptr<char>> dir(seg);
    auto peer = dir.fetch(1 - me).wait();
    static std::vector<char> src;
    if (me == 0) src.assign(kMax, 's');
    for (std::size_t size : {std::size_t{256} << 10, std::size_t{1} << 20,
                             kMax}) {
      // ~32 MB per trial: a few tens of ms of virtual wire time.
      const int iters = static_cast<int>(std::max<std::size_t>(
          4, static_cast<std::size_t>((32u << 20) * benchutil::work_scale())
                 / size));
      SimRow row{size, {}};
      for (int t = 0; t < kRounds; ++t) {
        if (me == 0)
          row.gbps.push_back(upcxx_flood(peer, src.data(), size, iters) /
                             1e9);
        upcxx::barrier();
      }
      if (me == 0) sim_rows.push_back(std::move(row));
    }
    upcxx::barrier();
    upcxx::deallocate(seg);
  });
  if (fails) return 2;

  std::printf("%10s %28s %12s\n", "size", "reported (GB/s) [range]",
              "of cap");
  for (const auto& r : sim_rows)
    std::printf("%10s %28s %11.0f%%\n",
                benchutil::human_size(r.size).c_str(),
                benchutil::spread(r.gbps, "%.3f [%.3f-%.3f]").c_str(),
                100 * benchutil::median(r.gbps) / s_cap);
  const double simbw_4mb_gbps = benchutil::median(sim_rows.back().gbps);
  const double big_frac = simbw_4mb_gbps / s_cap;
  checks.expect(big_frac >= 0.8 && big_frac <= 1.2,
                "reported bandwidth within 20% of the configured cap at "
                "4MB");

  // ---- wire=am flood -------------------------------------------------------
  // The same promise-tracked flood with the RMA wire pinned to the AM
  // protocol: every transfer moves as put requests through the target's
  // inbox (chunked to the am-wire chunk), and completion waits for acks.
  // Run at the default credit window and emitted as the wire=am series
  // next to wire=direct in BENCH_JSON.
  // Same treatment as the direct-wire flood above (volume, trial count,
  // and a warm first put): the series are divided into each other below,
  // so asymmetric measurement would misstate the protocol cost.
  const int trials = benchutil::reps(10, 3);
  const std::vector<std::size_t> am_sizes{std::size_t{8} << 10,
                                          std::size_t{256} << 10, 4 << 20};
  std::printf(
      "\nAM-wire flood (UPCXX_RMA_WIRE=am: request/ack protocol)\n");
  gex::Config amcfg = gex::Config::from_env();
  amcfg.rma_wire = gex::RmaWire::kAm;
  amcfg.am_window = gex::kAmWindowForceAuto;  // the default even under CI pins
  const auto wire_am_mbs = flood_job(amcfg, am_sizes, trials);
  if (wire_am_mbs.empty()) return 2;

  std::printf("%10s %16s\n", "size", "am (MB/s)");
  for (std::size_t i = 0; i < am_sizes.size(); ++i)
    std::printf("%10s %16.1f\n", benchutil::human_size(am_sizes[i]).c_str(),
                wire_am_mbs[i]);
  // The two wires run in separate jobs, and a slow phase of the host
  // between them would decide their ratio: each round runs one direct-wire
  // job and one am-wire job back to back, and the check reads the median
  // of the per-round ratios.
  gex::Config directcfg = gex::Config::from_env();
  directcfg.rma_wire = gex::RmaWire::kDirect;
  std::vector<double> am_ratios;
  for (int round = 0; round < kRounds; ++round) {
    const auto direct = flood_job(directcfg, {4 << 20}, trials);
    const auto am = flood_job(amcfg, {4 << 20}, trials);
    if (direct.empty() || am.empty()) return 2;
    am_ratios.push_back(am[0] / direct[0]);
  }
  const double am_vs_direct = benchutil::median(am_ratios);
  checks.note("am wire over direct wire at 4MB, " +
              std::to_string(kRounds) + " paired rounds: " +
              benchutil::spread(am_ratios, "%.2f [%.2f-%.2f]") +
              " (default credit window + pooled staging both directions + "
              "batched acks; the residual is the extra copy)");
  // Flow control + hot pooled staging + ack batching keep the request/ack
  // protocol within shouting distance of the direct memcpy wire (was ~35%
  // before the transport performance layer). The floor leaves margin for
  // scheduler noise on oversubscribed single-core hosts; the JSON metrics
  // carry the exact ratios.
  checks.expect(am_vs_direct >= 0.5,
                "am-wire flood reaches at least half of direct-wire "
                "bandwidth at 4MB");

  // ---- transport=socket flood ----------------------------------------------
  // The same am-wire flood with the records framed onto loopback TCP
  // (UPCXX_AM_TRANSPORT=socket): every chunk rides a kernel socket instead
  // of a shared ring, staging is inline-only, and completion still waits
  // for acks. No pass/fail floor — loopback throughput is host-dependent —
  // but the series lands in BENCH_JSON next to the ring transports.
  std::printf(
      "\nSocket-transport flood (UPCXX_AM_TRANSPORT=socket: records framed "
      "onto loopback TCP)\n");
  gex::Config sockcfg = gex::Config::from_env();
  sockcfg.am_transport = gex::AmTransport::kSocket;
  sockcfg.rma_wire = gex::RmaWire::kAm;
  const auto socket_mbs = flood_job(sockcfg, am_sizes, trials);
  if (socket_mbs.empty()) return 2;
  std::printf("%10s %16s\n", "size", "socket (MB/s)");
  for (std::size_t i = 0; i < am_sizes.size(); ++i)
    std::printf("%10s %16.1f\n", benchutil::human_size(am_sizes[i]).c_str(),
                socket_mbs[i]);
  const double socket_vs_direct = socket_mbs.back() / big.upcxx_mbs;
  {
    char nbuf[160];
    std::snprintf(nbuf, sizeof nbuf,
                  "socket transport reaches %.0f%% of direct-wire bandwidth "
                  "at 4MB (loopback TCP + inline-only staging)",
                  100 * socket_vs_direct);
    checks.note(nbuf);
  }

  benchutil::JsonReport json("fig3_rma_bandwidth");
  json.metric("midrange_peak_ratio", best_mid_ratio);
  json.metric("upcxx_4mb_mbs", big.upcxx_mbs);
  json.metric("mpi_4mb_mbs", big.mpi_mbs);
  json.metric("simbw_cap_gbps", s_cap);
  json.metric("simbw_4mb_gbps", simbw_4mb_gbps);
  for (std::size_t i = 0; i < am_sizes.size(); ++i) {
    json.metric("am_" + std::to_string(am_sizes[i]) + "_mbs", wire_am_mbs[i]);
    json.metric("socket_" + std::to_string(am_sizes[i]) + "_mbs",
                socket_mbs[i]);
  }
  json.metric("am_4mb_vs_direct", am_vs_direct);
  json.metric("socket_4mb_vs_direct", socket_vs_direct);
  json.write();
  return checks.summary("fig3_rma_bandwidth");
}
