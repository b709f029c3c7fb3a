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
  // MB/s per (threshold, size).
  static std::vector<std::vector<double>> rate;

  for (std::size_t th : thresholds) {
    rate.emplace_back();
    for (std::size_t sz : sizes) {
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
                         g_received.fetch_add(
                             static_cast<long>(v.size()),
                             std::memory_order_relaxed);
                       },
                       upcxx::make_view(payload.data(),
                                        payload.data() + payload.size()))
                .then([p]() mutable { p.fulfill_anonymous(1); });
            if (!(i % 8)) upcxx::progress();
          }
          p.finalize().wait();
          mbs = static_cast<double>(sz) * iters /
                (arch::now_s() - t0) / 1e6;
        } else {
          const long expect =
              static_cast<long>(iters) *
              static_cast<long>(sz / sizeof(double));
          while (g_received.load(std::memory_order_relaxed) < expect)
            upcxx::progress();
        }
        upcxx::barrier();
      });
      if (fails) return 2;
      rate.back().push_back(mbs);
    }
  }

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
  // us per blocking op: [threshold][size], puts then gets.
  static std::vector<std::vector<double>> put_us, get_us;
  for (std::size_t th : rma_thresholds) {
    put_us.emplace_back();
    get_us.emplace_back();
    for (std::size_t sz : rma_sizes) {
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
      if (fails) return 2;
      put_us.back().push_back(s_put_us);
      get_us.back().push_back(s_get_us);
    }
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
  // staging outgrows the cache and the curve flattens or dips.
  const std::vector<std::uint32_t> windows{1, 4, 16, 64};
  constexpr std::size_t kSweepBytes = 32 << 10;  // staged-pool puts
  static std::vector<double> win_mbs;
  win_mbs.clear();
  for (std::uint32_t w : windows) {
    gex::Config cfg = gex::Config::from_env();
    cfg.ranks = 2;
    cfg.rma_wire = gex::RmaWire::kAm;
    cfg.rma_async_min = 0;  // one protocol request per rput
    cfg.am_window = w;
    cfg.ring_bytes = 1 << 20;
    cfg.heap_bytes = 128 << 20;
    const int iters = static_cast<int>(256 * benchutil::work_scale());
    static double s_mbs;
    int fails = upcxx::run(cfg, [iters] {
      static upcxx::global_ptr<char> remote;
      if (upcxx::rank_me() == 1) remote = upcxx::allocate<char>(kSweepBytes);
      upcxx::barrier();
      if (upcxx::rank_me() == 0) {
        std::vector<char> buf(kSweepBytes, 'w');
        upcxx::rput(buf.data(), remote, kSweepBytes).wait();  // warm
        upcxx::promise<> p;
        const double t0 = arch::now_s();
        for (int i = 0; i < iters; ++i) {
          upcxx::rput(buf.data(), remote, kSweepBytes,
                      upcxx::operation_cx::as_promise(p));
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
    if (fails) return 2;
    win_mbs.push_back(s_mbs);
  }
  // Get-direction knee: same flood, but the payload moves target-to-
  // initiator (the initiator stages a pooled shared-heap block, the target
  // gathers into it and acks, the ack recycles the block). The knee should
  // mirror the put sweep's — if it doesn't, get staging is the bottleneck,
  // not the request window.
  static std::vector<double> get_win_mbs;
  get_win_mbs.clear();
  for (std::uint32_t w : windows) {
    gex::Config cfg = gex::Config::from_env();
    cfg.ranks = 2;
    cfg.rma_wire = gex::RmaWire::kAm;
    cfg.rma_async_min = 0;  // one protocol request per rget
    cfg.am_window = w;
    cfg.ring_bytes = 1 << 20;
    cfg.heap_bytes = 128 << 20;
    const int iters = static_cast<int>(256 * benchutil::work_scale());
    static double s_mbs;
    int fails = upcxx::run(cfg, [iters] {
      static upcxx::global_ptr<char> remote;
      if (upcxx::rank_me() == 1) remote = upcxx::allocate<char>(kSweepBytes);
      upcxx::barrier();
      if (upcxx::rank_me() == 0) {
        std::vector<char> buf(kSweepBytes);
        upcxx::rget(remote, buf.data(), kSweepBytes).wait();  // warm
        upcxx::promise<> p;
        const double t0 = arch::now_s();
        for (int i = 0; i < iters; ++i) {
          upcxx::rget(remote, buf.data(), kSweepBytes,
                      upcxx::operation_cx::as_promise(p));
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
    if (fails) return 2;
    get_win_mbs.push_back(s_mbs);
  }
  std::printf(
      "\nFlow-control window sweep (32KB flood, wire=am), both directions:\n");
  std::printf("%10s %14s %14s\n", "window", "put (MB/s)", "get (MB/s)");
  for (std::size_t i = 0; i < windows.size(); ++i)
    std::printf("%10u %14.1f %14.1f\n", windows[i], win_mbs[i],
                get_win_mbs[i]);

  // ---- put/get symmetry at 4MB, default window -----------------------------
  // Large transfers with every knob at its default (credit window,
  // chunking). Before pooled get staging, every rendezvous reply was a
  // fresh shared-heap allocation plus a descriptor round-trip, and gets
  // trailed puts badly at this size; with staged gets recycling the
  // initiator's bounce pool, as puts do, the two directions should be
  // near-symmetric. The protocol counters from both ranks are surfaced in
  // BENCH_JSON so a regression here is attributable (pool hits vs misses).
  constexpr std::size_t kBigBytes = 4 << 20;
  static double s_put4_mbs, s_get4_mbs;
  static gex::RmaAmProtocol::Stats s_stats[2];
  {
    gex::Config cfg = gex::Config::from_env();
    cfg.ranks = 2;
    cfg.rma_wire = gex::RmaWire::kAm;
    cfg.am_window = gex::kAmWindowForceAuto;  // the default even under CI pins
    cfg.ring_bytes = 1 << 20;
    cfg.heap_bytes = 256 << 20;
    const int iters = static_cast<int>(std::max(
        8.0, 16 * benchutil::work_scale()));
    int fails = upcxx::run(cfg, [iters] {
      static upcxx::global_ptr<char> remote;
      if (upcxx::rank_me() == 1) remote = upcxx::allocate<char>(kBigBytes);
      upcxx::barrier();
      if (upcxx::rank_me() == 0) {
        std::vector<char> buf(kBigBytes, 's');
        // Best of several trials per direction: a single flood is at the
        // mercy of one descheduling blip, and the symmetry ratio divides
        // two of them. The envelope is the signal (same treatment as the
        // fig3 floods).
        const int trials = benchutil::reps(5, 3);
        upcxx::rput(buf.data(), remote, kBigBytes).wait();  // warm
        s_put4_mbs = 0;
        for (int t = 0; t < trials; ++t) {
          upcxx::promise<> pp;
          const double t0 = arch::now_s();
          for (int i = 0; i < iters; ++i)
            upcxx::rput(buf.data(), remote, kBigBytes,
                        upcxx::operation_cx::as_promise(pp));
          pp.finalize().wait();
          s_put4_mbs = std::max(s_put4_mbs,
                                static_cast<double>(kBigBytes) * iters /
                                    (arch::now_s() - t0) / 1e6);
        }
        upcxx::rget(remote, buf.data(), kBigBytes).wait();  // warm
        s_get4_mbs = 0;
        for (int t = 0; t < trials; ++t) {
          upcxx::promise<> gp;
          const double t0 = arch::now_s();
          for (int i = 0; i < iters; ++i)
            upcxx::rget(remote, buf.data(), kBigBytes,
                        upcxx::operation_cx::as_promise(gp));
          gp.finalize().wait();
          s_get4_mbs = std::max(s_get4_mbs,
                                static_cast<double>(kBigBytes) * iters /
                                    (arch::now_s() - t0) / 1e6);
        }
      }
      upcxx::barrier();  // rank 1 serves requests inside this barrier
      s_stats[upcxx::rank_me()] = gex::rma_am().stats();
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
  const auto stat_sum = [](auto f) {
    return static_cast<double>(f(s_stats[0]) + f(s_stats[1]));
  };
  const double st_gets_staged =
      stat_sum([](const auto& s) { return s.gets_staged; });
  const double st_reply_pool_hits =
      stat_sum([](const auto& s) { return s.reply_pool_hits; });
  const double st_reply_stage_allocs =
      stat_sum([](const auto& s) { return s.reply_stage_allocs; });
  std::printf(
      "  protocol counters (both ranks): gets_staged=%.0f "
      "reply_pool_hits=%.0f reply_stage_allocs=%.0f\n",
      st_gets_staged, st_reply_pool_hits, st_reply_stage_allocs);

  benchutil::ShapeChecks checks;
  // The knee: any pipelining at all must beat full serialization. Compare
  // the best windowed rate against W=1 (individual points are noisy on
  // oversubscribed hosts; the envelope is the signal).
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
  // The headline symmetry claim: pooled get staging makes the get
  // direction keep pace with puts at large sizes (within 10%).
  checks.expect(get_vs_put >= 0.9,
                "4MB gets within 10% of puts at the default window");
  checks.expect(st_gets_staged > 0, "4MB gets exercised the staged-get path");
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
  json.metric("gets_staged", st_gets_staged);
  json.metric("reply_pool_hits", st_reply_pool_hits);
  json.metric("reply_stage_allocs", st_reply_stage_allocs);
  if (crossover)
    json.metric("put_crossover_bytes", static_cast<double>(crossover));
  json.write();
  return checks.summary("abl_am_protocol");
}
