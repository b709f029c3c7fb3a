// Ablation A2 (§III / DESIGN.md): eager vs rendezvous active-message
// protocol around the configurable threshold.
//
// Payloads at or below eager_max travel inline through the inbox ring (one
// copy in, one copy out); larger payloads are staged in the shared heap and
// only a descriptor crosses the ring (zero-copy delivery via view
// adoption). This bench sweeps RPC payload size for two thresholds to show
// the crossover and justify the 8 KiB default.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "arch/timer.hpp"
#include "bench_util.hpp"
#include "gex/rma_am.hpp"
#include "gex/runtime.hpp"
#include "upcxx/upcxx.hpp"

namespace {
std::atomic<long> g_received{0};
}

int main() {
  std::printf(
      "Ablation — AM eager/rendezvous threshold (RPC payload throughput, 2 "
      "ranks)\n\n");
  const std::vector<std::size_t> sizes{256, 1024, 4096, 16384, 65536,
                                       262144};
  const std::vector<std::size_t> thresholds{512, 8192, 65536};
  // Every compared point is the median of reps(5, 3) runs, and the runs
  // of all points interleave (trial-major), so a slow phase of the host
  // lands on every configuration alike instead of deciding one point.
  const int trials = benchutil::reps(5, 3);
  // RPC payload MB/s of one run.
  const auto rpc_run = [](std::size_t th, std::size_t sz) -> double {
    gex::Config cfg = gex::Config::from_env();
    cfg.ranks = 2;
    cfg.eager_max = th;
    cfg.ring_bytes = 1 << 20;
    cfg.heap_bytes = 256 << 20;
    const int iters = static_cast<int>(
        std::max<std::size_t>(64, ((16u << 20) / sz)) *
        benchutil::work_scale());
    static double mbs;
    int fails = upcxx::run(cfg, [sz, iters] {
      g_received = 0;
      std::vector<double> payload(sz / sizeof(double));
      upcxx::barrier();
      if (upcxx::rank_me() == 0) {
        const double t0 = arch::now_s();
        upcxx::promise<> p;
        for (int i = 0; i < iters; ++i) {
          p.require_anonymous(1);
          upcxx::rpc(1,
                     [](upcxx::view<double> v) {
                       g_received.fetch_add(static_cast<long>(v.size()),
                                            std::memory_order_relaxed);
                     },
                     upcxx::make_view(payload.data(),
                                      payload.data() + payload.size()))
              .then([p]() mutable { p.fulfill_anonymous(1); });
          if (!(i % 8)) upcxx::progress();
        }
        p.finalize().wait();
        mbs = static_cast<double>(sz) * iters / (arch::now_s() - t0) / 1e6;
      } else {
        const long expect = static_cast<long>(iters) *
                            static_cast<long>(sz / sizeof(double));
        while (g_received.load(std::memory_order_relaxed) < expect)
          upcxx::progress();
      }
      upcxx::barrier();
    });
    return fails ? -1 : mbs;
  };
  // MB/s per (threshold, size).
  std::vector<std::vector<std::vector<double>>> rpc_runs(
      thresholds.size(), std::vector<std::vector<double>>(sizes.size()));
  for (int t = 0; t < trials; ++t)
    for (std::size_t ti = 0; ti < thresholds.size(); ++ti)
      for (std::size_t si = 0; si < sizes.size(); ++si) {
        const double mbs = rpc_run(thresholds[ti], sizes[si]);
        if (mbs < 0) return 2;
        rpc_runs[ti][si].push_back(mbs);
      }
  std::vector<std::vector<double>> rate(thresholds.size());
  for (std::size_t ti = 0; ti < thresholds.size(); ++ti)
    for (const auto& runs : rpc_runs[ti])
      rate[ti].push_back(benchutil::median(runs));

  std::printf("%10s", "payload");
  for (std::size_t th : thresholds)
    std::printf("  eager<=%-8s", benchutil::human_size(th).c_str());
  std::printf("\n");
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    std::printf("%10s", benchutil::human_size(sizes[i]).c_str());
    for (std::size_t t = 0; t < thresholds.size(); ++t)
      std::printf("  %10.1fMB/s", rate[t][i]);
    std::printf("\n");
  }

  // ---- RMA AM protocol (wire=am): eager/rendezvous crossover ---------------
  // The put/get request handlers (gex/rma_am.cpp) ride the same
  // two-protocol split: a request whose payload fits eager_max travels
  // inline through the ring, larger ones stage in the shared heap with a
  // descriptor. Blocking rput latency per payload size under two
  // thresholds locates the crossover for the new handlers; rget follows
  // the reply path (the reply carries the payload).
  const std::vector<std::size_t> rma_sizes{256, 1024, 4096, 16384, 65536};
  const std::vector<std::size_t> rma_thresholds{512, 65536};
  // One run: blocking put and get latency in us, at one size and
  // threshold.
  const auto rma_run = [](std::size_t th, std::size_t sz, double& put,
                          double& get) {
    gex::Config cfg = gex::Config::from_env();
    cfg.ranks = 2;
    cfg.rma_wire = gex::RmaWire::kAm;
    cfg.rma_async_min = 0;  // one protocol request per op, no chunking
    cfg.eager_max = th;
    cfg.ring_bytes = 1 << 20;
    cfg.heap_bytes = 128 << 20;
    const int iters = static_cast<int>(
        std::max<std::size_t>(128, ((8u << 20) / sz)) *
        benchutil::work_scale());
    static double s_put_us, s_get_us;
    int fails = upcxx::run(cfg, [sz, iters] {
      static upcxx::global_ptr<char> remote;
      if (upcxx::rank_me() == 1) remote = upcxx::allocate<char>(sz);
      upcxx::barrier();
      if (upcxx::rank_me() == 0) {
        std::vector<char> buf(sz, 'p');
        upcxx::rput(buf.data(), remote, sz).wait();  // warm
        double t0 = arch::now_s();
        for (int i = 0; i < iters; ++i)
          upcxx::rput(buf.data(), remote, sz).wait();
        s_put_us = (arch::now_s() - t0) / iters * 1e6;
        t0 = arch::now_s();
        for (int i = 0; i < iters; ++i)
          upcxx::rget(remote, buf.data(), sz).wait();
        s_get_us = (arch::now_s() - t0) / iters * 1e6;
      }
      upcxx::barrier();  // rank 1 serves requests inside this barrier
      if (upcxx::rank_me() == 1) upcxx::deallocate(remote);
      upcxx::barrier();
    });
    put = s_put_us;
    get = s_get_us;
    return fails == 0;
  };
  // us per blocking op: [threshold][size], puts then gets.
  using Runs = std::vector<std::vector<std::vector<double>>>;
  Runs put_runs(rma_thresholds.size(),
                std::vector<std::vector<double>>(rma_sizes.size())),
      get_runs = put_runs;
  for (int t = 0; t < trials; ++t)
    for (std::size_t ti = 0; ti < rma_thresholds.size(); ++ti)
      for (std::size_t si = 0; si < rma_sizes.size(); ++si) {
        double put = 0, get = 0;
        if (!rma_run(rma_thresholds[ti], rma_sizes[si], put, get)) return 2;
        put_runs[ti][si].push_back(put);
        get_runs[ti][si].push_back(get);
      }
  std::vector<std::vector<double>> put_us(rma_thresholds.size()),
      get_us(rma_thresholds.size());
  for (std::size_t ti = 0; ti < rma_thresholds.size(); ++ti)
    for (std::size_t si = 0; si < rma_sizes.size(); ++si) {
      put_us[ti].push_back(benchutil::median(put_runs[ti][si]));
      get_us[ti].push_back(benchutil::median(get_runs[ti][si]));
    }

  std::printf(
      "\nRMA AM protocol (UPCXX_RMA_WIRE=am), blocking op latency in us:\n");
  std::printf("%10s", "payload");
  for (std::size_t th : rma_thresholds)
    std::printf("  put@eag%-7s  get@eag%-7s",
                benchutil::human_size(th).c_str(),
                benchutil::human_size(th).c_str());
  std::printf("\n");
  for (std::size_t i = 0; i < rma_sizes.size(); ++i) {
    std::printf("%10s", benchutil::human_size(rma_sizes[i]).c_str());
    for (std::size_t t = 0; t < rma_thresholds.size(); ++t)
      std::printf("  %13.2f  %13.2f", put_us[t][i], get_us[t][i]);
    std::printf("\n");
  }
  // The crossover: smallest payload where rendezvous requests (everything
  // above the 512B threshold) beat the all-eager configuration.
  std::size_t crossover = 0;
  for (std::size_t i = 0; i < rma_sizes.size(); ++i) {
    if (rma_sizes[i] > rma_thresholds[0] && put_us[0][i] < put_us[1][i]) {
      crossover = rma_sizes[i];
      break;
    }
  }

  // ---- flow-control window sweep (UPCXX_AM_WINDOW) -------------------------
  // The credit window caps unacknowledged requests per target; the sweep
  // makes the knee visible next to the eager/rendezvous crossover above.
  // W=1 is fully serialized (each put waits out its predecessor's ack);
  // widening the window pipelines request/ack rounds until the in-flight
  // rendezvous blocks outgrow the cache and the curve flattens or dips.
  const std::vector<std::uint32_t> windows{1, 4, 16, 64};
  constexpr std::size_t kSweepBytes = 32 << 10;  // rendezvous puts
  // One flood of kSweepBytes ops at window w: puts, or gets (the payload
  // moves target-to-initiator: the target gathers into a rendezvous reply,
  // the initiator scatters out of it and the engine frees the block). The
  // get knee should mirror the put knee — if it doesn't, the reply path is
  // the bottleneck, not the request window. Returns MB/s, or -1 on failure.
  const auto window_run = [](std::uint32_t w, bool get) -> double {
    gex::Config cfg = gex::Config::from_env();
    cfg.ranks = 2;
    cfg.rma_wire = gex::RmaWire::kAm;
    cfg.rma_async_min = 0;  // one protocol request per op
    cfg.am_window = w;
    cfg.ring_bytes = 1 << 20;
    cfg.heap_bytes = 128 << 20;
    const int iters = static_cast<int>(256 * benchutil::work_scale());
    static double s_mbs;
    int fails = upcxx::run(cfg, [iters, get] {
      static upcxx::global_ptr<char> remote;
      if (upcxx::rank_me() == 1) remote = upcxx::allocate<char>(kSweepBytes);
      upcxx::barrier();
      if (upcxx::rank_me() == 0) {
        std::vector<char> buf(kSweepBytes, 'w');
        const auto op = [&](auto cx) {
          if (get)
            return upcxx::rget(remote, buf.data(), kSweepBytes, cx);
          return upcxx::rput(buf.data(), remote, kSweepBytes, cx);
        };
        op(upcxx::operation_cx::as_future()).wait();  // warm
        upcxx::promise<> p;
        const double t0 = arch::now_s();
        for (int i = 0; i < iters; ++i) {
          op(upcxx::operation_cx::as_promise(p));
          if (!(i % 8)) upcxx::progress();
        }
        p.finalize().wait();
        s_mbs = static_cast<double>(kSweepBytes) * iters /
                (arch::now_s() - t0) / 1e6;
      }
      upcxx::barrier();
      if (upcxx::rank_me() == 1) upcxx::deallocate(remote);
      upcxx::barrier();
    });
    return fails ? -1 : s_mbs;
  };
  // Each point is the median of `trials` runs; the runs of every window
  // and direction interleave, like the RPC sweep's.
  std::vector<std::vector<double>> put_win_runs(windows.size()),
      get_win_runs(windows.size());
  for (int t = 0; t < trials; ++t)
    for (std::size_t wi = 0; wi < windows.size(); ++wi) {
      const double put = window_run(windows[wi], false);
      const double get = window_run(windows[wi], true);
      if (put < 0 || get < 0) return 2;
      put_win_runs[wi].push_back(put);
      get_win_runs[wi].push_back(get);
    }
  std::vector<double> win_mbs, get_win_mbs;
  for (std::size_t wi = 0; wi < windows.size(); ++wi) {
    win_mbs.push_back(benchutil::median(put_win_runs[wi]));
    get_win_mbs.push_back(benchutil::median(get_win_runs[wi]));
  }
  std::printf(
      "\nFlow-control window sweep (32KB flood, wire=am), both directions:\n");
  std::printf("%10s %14s %14s\n", "window", "put (MB/s)", "get (MB/s)");
  for (std::size_t i = 0; i < windows.size(); ++i)
    std::printf("%10u %14.1f %14.1f\n", windows[i], win_mbs[i],
                get_win_mbs[i]);

  // ---- put/get symmetry at 4MB, default window -----------------------------
  // Large transfers with every knob at its default (credit window,
  // chunking). Every large chunk rides the AmEngine's rendezvous path in
  // both directions — a put's request and a get's reply alike are one
  // shared-heap block plus a descriptor — so the two directions should be
  // near-symmetric. Both ranks' rendezvous counts are surfaced in
  // BENCH_JSON so a regression here is attributable.
  constexpr std::size_t kBigBytes = 4 << 20;
  static double s_put4_mbs, s_get4_mbs;
  static gex::AmEngine::Stats s_stats[2];
  {
    gex::Config cfg = gex::Config::from_env();
    cfg.ranks = 2;
    cfg.rma_wire = gex::RmaWire::kAm;
    cfg.am_window = gex::kAmWindowForceAuto;  // the default even under CI pins
    cfg.ring_bytes = 1 << 20;
    cfg.heap_bytes = 256 << 20;
    const int iters = static_cast<int>(std::max(
        8.0, 16 * benchutil::work_scale()));
    int fails = upcxx::run(cfg, [iters, trials] {
      static upcxx::global_ptr<char> remote;
      if (upcxx::rank_me() == 1) remote = upcxx::allocate<char>(kBigBytes);
      upcxx::barrier();
      if (upcxx::rank_me() == 0) {
        std::vector<char> buf(kBigBytes, 's');
        // Each direction's rate is the median of `trials` floods, and put
        // and get floods alternate, so a slow phase of the host lands on
        // both directions alike instead of deciding the ratio.
        const auto flood = [&](bool get) {
          upcxx::promise<> p;
          const double t0 = arch::now_s();
          for (int i = 0; i < iters; ++i) {
            if (get)
              upcxx::rget(remote, buf.data(), kBigBytes,
                          upcxx::operation_cx::as_promise(p));
            else
              upcxx::rput(buf.data(), remote, kBigBytes,
                          upcxx::operation_cx::as_promise(p));
          }
          p.finalize().wait();
          return static_cast<double>(kBigBytes) * iters /
                 (arch::now_s() - t0) / 1e6;
        };
        upcxx::rput(buf.data(), remote, kBigBytes).wait();  // warm
        upcxx::rget(remote, buf.data(), kBigBytes).wait();
        std::vector<double> put_runs, get_runs;
        for (int t = 0; t < trials; ++t) {
          put_runs.push_back(flood(false));
          get_runs.push_back(flood(true));
        }
        s_put4_mbs = benchutil::median(put_runs);
        s_get4_mbs = benchutil::median(get_runs);
      }
      upcxx::barrier();  // rank 1 serves requests inside this barrier
      s_stats[upcxx::rank_me()] = gex::am().stats();
      upcxx::barrier();
      if (upcxx::rank_me() == 1) upcxx::deallocate(remote);
      upcxx::barrier();
    });
    if (fails) return 2;
  }
  const double get_vs_put = s_get4_mbs / s_put4_mbs;
  std::printf(
      "\n4MB put/get symmetry (default window): put %.1f MB/s, get %.1f MB/s "
      "(get/put = %.2f)\n",
      s_put4_mbs, s_get4_mbs, get_vs_put);
  // Rank 0 sends the puts' requests, rank 1 only the gets' replies.
  const auto put_rdzv = static_cast<double>(s_stats[0].sent_rendezvous);
  const auto reply_rdzv = static_cast<double>(s_stats[1].sent_rendezvous);
  std::printf(
      "  rendezvous records: rank 0 (puts) %.0f, rank 1 (get replies) %.0f\n",
      put_rdzv, reply_rdzv);

  benchutil::ShapeChecks checks;
  // The knee: any pipelining at all must beat full serialization. Compare
  // the best windowed median against W=1's.
  const double best_windowed =
      *std::max_element(win_mbs.begin() + 1, win_mbs.end());
  checks.expect(best_windowed > win_mbs[0],
                "a pipelined window beats W=1 full serialization");
  // The get direction overlaps even at W=1 — the target can serve request
  // k+1 while the initiator scatters reply k, so full serialization never
  // quite happens and "windowed strictly beats W=1" is not a stable claim
  // the way it is for puts. Guard against pathology instead: widening the
  // window must not collapse the rate.
  const double best_get_windowed =
      *std::max_element(get_win_mbs.begin() + 1, get_win_mbs.end());
  checks.expect(best_get_windowed >= get_win_mbs[0] * 0.7,
                "widened windows do not collapse get-direction bandwidth");
  // The headline symmetry claim: the get direction keeps pace with puts
  // at large sizes (within 10%).
  checks.expect(get_vs_put >= 0.9,
                "4MB gets within 10% of puts at the default window");
  checks.expect(reply_rdzv > 0, "4MB gets exercised the rendezvous path");
  if (crossover)
    checks.note("rma-am put eager->rendezvous crossover at " +
                benchutil::human_size(crossover));
  else
    checks.note("rma-am put: eager wins at every measured size on this "
                "host (ring copy beats heap staging)");
  checks.expect(put_us[0][4] <= put_us[1][4] * 2.0,
                "rendezvous puts not pathological at 64KB payloads");
  std::printf(
      "\nExpected shape: small payloads are insensitive to the threshold; "
      "large payloads benefit from rendezvous (single staging copy instead "
      "of squeezing through the ring).\n");
  // The real protocol crossover: at 16KB payloads the default config ships
  // rendezvous while the 64KB-threshold config squeezes them through the
  // ring (flow-control stalls); rendezvous must win clearly there. At
  // 256KB all three configs are rendezvous, so that point only measures
  // heap-state noise — reported, not asserted.
  const std::size_t i16k = 3;  // sizes[3] == 16KB
  checks.expect(rate[1][i16k] >= rate[2][i16k],
                "rendezvous beats all-eager for 16KB payloads");
  checks.expect(rate[1][0] >= rate[0][0] * 0.5,
                "default threshold not pathological for small payloads");
  benchutil::JsonReport json("abl_am_protocol");
  for (std::size_t i = 0; i < windows.size(); ++i)
    json.metric("window_" + std::to_string(windows[i]) + "_mbs",
                win_mbs[i]);
  json.metric("window_best_vs_w1", best_windowed / win_mbs[0]);
  for (std::size_t i = 0; i < windows.size(); ++i)
    json.metric("get_window_" + std::to_string(windows[i]) + "_mbs",
                get_win_mbs[i]);
  json.metric("get_window_best_vs_w1", best_get_windowed / get_win_mbs[0]);
  json.metric("put_4mb_mbs", s_put4_mbs);
  json.metric("get_4mb_mbs", s_get4_mbs);
  json.metric("get_vs_put_4mb", get_vs_put);
  json.metric("put_rendezvous_records", put_rdzv);
  json.metric("reply_rendezvous_records", reply_rdzv);
  if (crossover)
    json.metric("put_crossover_bytes", static_cast<double>(crossover));
  json.write();
  return checks.summary("abl_am_protocol");
}
