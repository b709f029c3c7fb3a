// Ablation: multi-threaded op injection (upcxx/inject.hpp) — the PR's
// scaling claim, made measurable.
//
// Series 1 — direct-wire rput injection: T ∈ {1,2,4} injector threads on
// rank 0 each issue small (64B) synchronous rputs at the peer's segment.
// Below rma_async_min on the direct wire every op completes caller-side
// (memcpy + completion hooks, no master round-trip, no lock), so
// aggregate throughput should scale near-linearly with threads. The
// enforced shape check is the PR's acceptance bar: >= 3x aggregate ops/s
// at T=4 vs T=1, on hosts with >= 4 hardware threads.
//
// Series 2 — rpc_ff pipeline: T injector threads enqueue fire-and-forget
// rpcs (serialized caller-side into the MPSC wire shards), the master
// drains the shards onto the wire, the peer executes. End-to-end
// throughput is master-bound by design, so this series is reported, not
// enforced — it documents that the hand-off does not collapse under
// producers.
//
// Series 3 — mixed rpc + collective: T injectors per rank interleave rpc
// round trips with rank-level barriers on a deterministic schedule — the
// whole op_context surface under concurrency. Reported.
#include <atomic>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "arch/timer.hpp"
#include "bench_util.hpp"
#include "upcxx/upcxx.hpp"

namespace {

constexpr int kSeries[] = {1, 2, 4};
constexpr std::size_t kOpBytes = 64;
// Per-thread slice of the peer segment: each thread owns kSlots slots of
// kOpBytes and cycles through them, so threads never share a cache line.
constexpr std::size_t kSlots = 64;

struct Results {
  double rput_ops_per_s[3] = {0, 0, 0};
  double rpcff_ops_per_s[3] = {0, 0, 0};
  double mixed_ops_per_s[3] = {0, 0, 0};
};
Results g_r;

std::atomic<long> g_ff_executed{0};

void rput_series(int ops_per_thread) {
  const int me = upcxx::rank_me();
  const std::size_t span = 8 * kSlots * kOpBytes;  // max threads * slice
  auto seg = upcxx::allocate<char>(span);
  upcxx::dist_object<upcxx::global_ptr<char>> dir(seg);
  auto peer = dir.fetch(1 - me).wait();

  for (int si = 0; si < 3; ++si) {
    const int T = kSeries[si];
    upcxx::barrier();
    if (me == 0) {
      upcxx::injector inj;
      std::vector<std::thread> ts;
      const double t0 = arch::now_s();
      for (int t = 0; t < T; ++t)
        ts.emplace_back([&, t] {
          upcxx::injection_scope scope(inj);
          char src[kOpBytes];
          std::memset(src, 'a' + t, sizeof src);
          auto base = peer + static_cast<std::ptrdiff_t>(t * kSlots *
                                                         kOpBytes);
          for (int i = 0; i < ops_per_thread; ++i)
            upcxx::rput(src,
                        base + static_cast<std::ptrdiff_t>(
                                   (i % kSlots) * kOpBytes),
                        kOpBytes)
                .wait();
        });
      for (auto& th : ts) th.join();
      const double dt = arch::now_s() - t0;
      g_r.rput_ops_per_s[si] = static_cast<double>(T) * ops_per_thread / dt;
    }
    upcxx::barrier();
  }
  upcxx::deallocate(seg);
}

void rpcff_series(int ops_per_thread) {
  const int me = upcxx::rank_me();
  for (int si = 0; si < 3; ++si) {
    const int T = kSeries[si];
    g_ff_executed = 0;
    upcxx::barrier();
    const long total = static_cast<long>(T) * ops_per_thread;
    if (me == 0) {
      upcxx::injector inj;
      std::atomic<int> alive{T};
      std::vector<std::thread> ts;
      const double t0 = arch::now_s();
      for (int t = 0; t < T; ++t)
        ts.emplace_back([&] {
          upcxx::injection_scope scope(inj);
          for (int i = 0; i < ops_per_thread; ++i)
            upcxx::rpc_ff(1, [] { g_ff_executed.fetch_add(1); });
          alive.fetch_sub(1, std::memory_order_release);
        });
      // Master: flush the wire shards and wait until the peer ran it all
      // (thread backend: the counter is process-shared).
      while (alive.load(std::memory_order_acquire) != 0 ||
             g_ff_executed.load() < total)
        upcxx::progress();
      const double dt = arch::now_s() - t0;
      g_r.rpcff_ops_per_s[si] = static_cast<double>(total) / dt;
      for (auto& th : ts) th.join();
    } else {
      // Peer: serve requests until rank 0 is done with this series.
      while (g_ff_executed.load() < total) upcxx::progress();
    }
    upcxx::barrier();
  }
}

void mixed_series(int ops_per_thread) {
  const int me = upcxx::rank_me();
  for (int si = 0; si < 3; ++si) {
    const int T = kSeries[si];
    upcxx::barrier();
    upcxx::injector inj;
    std::atomic<int> alive{T};
    std::vector<std::thread> ts;
    const double t0 = arch::now_s();
    // Both ranks run the same schedule: the barrier entry counts must
    // match, and the rpcs cross in both directions. rank_me() reads gex
    // TLS that injector threads don't carry — capture the peer up front.
    const int peer = 1 - me;
    for (int t = 0; t < T; ++t)
      ts.emplace_back([&] {
        upcxx::injection_scope scope(inj);
        for (int i = 0; i < ops_per_thread; ++i) {
          const int r = upcxx::rpc(peer, [](int x) { return x; }, i).wait();
          (void)r;
          if (i % 8 == 7) upcxx::barrier();
        }
        alive.fetch_sub(1, std::memory_order_release);
      });
    while (alive.load(std::memory_order_acquire) != 0) upcxx::progress();
    for (auto& th : ts) th.join();
    const double dt = arch::now_s() - t0;
    if (me == 0)
      g_r.mixed_ops_per_s[si] = static_cast<double>(T) *
                                (ops_per_thread + ops_per_thread / 8) / dt;
    upcxx::barrier();
  }
}

}  // namespace

int main() {
  const int rput_ops = static_cast<int>(40000 * benchutil::work_scale());
  const int ff_ops = static_cast<int>(8000 * benchutil::work_scale());
  const int mixed_ops = static_cast<int>(2000 * benchutil::work_scale());
  const bool quick = benchutil::reps(2, 1) == 1;
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf(
      "ABL — multi-threaded injection (2 ranks, %u hardware threads)\n"
      "64B ops, threads own disjoint peer slices; sync fast path / MPSC "
      "hand-off\n\n",
      hw);

  gex::Config cfg = gex::Config::from_env();
  cfg.ranks = 2;
  cfg.sim_bw_gbps = 0;
  cfg.sim_latency_ns = 0;
  if (upcxx::run(cfg, [rput_ops, ff_ops, mixed_ops] {
        rput_series(rput_ops);
        rpcff_series(ff_ops);
        mixed_series(mixed_ops);
      }))
    return 2;

  benchutil::JsonReport json("abl_mt");
  std::printf("direct-wire rput injection (sync fast path):\n");
  for (int si = 0; si < 3; ++si) {
    std::printf("  T=%d  %12.0f ops/s\n", kSeries[si],
                g_r.rput_ops_per_s[si]);
    json.metric("inject_rput_ops_per_s_t" + std::to_string(kSeries[si]),
                g_r.rput_ops_per_s[si]);
  }
  const double scale4 = g_r.rput_ops_per_s[2] / g_r.rput_ops_per_s[0];
  std::printf("  scaling at T=4: %.2fx\n\n", scale4);
  json.metric("inject_rput_scaling_t4", scale4);

  std::printf("rpc_ff pipeline (MPSC shards -> master -> peer):\n");
  for (int si = 0; si < 3; ++si) {
    std::printf("  T=%d  %12.0f ops/s\n", kSeries[si],
                g_r.rpcff_ops_per_s[si]);
    json.metric("inject_rpcff_ops_per_s_t" + std::to_string(kSeries[si]),
                g_r.rpcff_ops_per_s[si]);
  }

  std::printf("\nmixed rpc + collective injection (rpc round trips, "
              "barrier every 8):\n");
  for (int si = 0; si < 3; ++si) {
    std::printf("  T=%d  %12.0f ops/s\n", kSeries[si],
                g_r.mixed_ops_per_s[si]);
    json.metric("mixed_ops_per_s_t" + std::to_string(kSeries[si]),
                g_r.mixed_ops_per_s[si]);
  }
  json.write();

  benchutil::ShapeChecks checks;
  if (!quick && hw >= 4 && !benchutil::under_tsan()) {
    checks.expect(scale4 >= 3.0,
                  "direct-wire injection throughput scales >= 3x from 1 to "
                  "4 app threads");
  } else {
    checks.note("smoke host (<4 hw threads, BENCH_QUICK, or TSan): T=4 "
                "scaling " + std::to_string(scale4) +
                "x reported, not enforced");
  }
  checks.expect(g_r.rpcff_ops_per_s[2] > 0 && g_r.mixed_ops_per_s[2] > 0,
                "threaded rpc_ff and mixed series completed");
  return checks.summary("abl_mt");
}
