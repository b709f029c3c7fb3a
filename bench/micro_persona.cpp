// Micro — personas and cross-thread LPCs (paper §III: no hidden threads;
// the persona API lets applications build their own progress thread).
//
// Measures:
//   1. self-LPC throughput (enqueue + drain on one thread) — the progress
//      engine's baseline callback cost;
//   2. cross-thread lpc_ff throughput, 1 and 4 producers into one inbox —
//      the handoff cost a progress-thread design pays per message;
//   3. lpc round-trip latency (value shipped to another thread's persona
//      and the result shipped back);
//   4. attentiveness: RPC servicing rate at a rank that is busy computing,
//      with and without a dedicated progress thread holding the master
//      persona — the §III stall the persona pattern exists to avoid.
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "arch/timer.hpp"
#include "bench_util.hpp"
#include "upcxx/upcxx.hpp"

namespace {

std::atomic<long> g_hits{0};

}  // namespace

int main() {
  std::printf("Micro — personas / cross-thread LPC\n\n");
  benchutil::ShapeChecks checks;
  benchutil::JsonReport json("micro_persona");
  const int n = static_cast<int>(200000 * benchutil::work_scale());

  // ---------------------------------------------------------- 1. self-LPC
  upcxx::run(1, [&] {
    long sink = 0;
    const double t0 = arch::now_s();
    for (int i = 0; i < n; ++i) {
      upcxx::current_persona().lpc_ff([&sink, i] { sink += i; });
      if ((i & 255) == 0) upcxx::progress();
    }
    while (sink < static_cast<long>(n) * (n - 1) / 2) upcxx::progress();
    const double dt = arch::now_s() - t0;
    std::printf("self-LPC:            %8.1f ns/op (%d ops)\n", dt / n * 1e9,
                n);
    json.metric("self_lpc_ns", dt / n * 1e9);
  });

  // ------------------------------------------- 2. cross-thread throughput
  // Producer series 1 -> N: contention on one inbox as app threads scale.
  for (int producers : {1, 2, 4}) {
    upcxx::run(1, [&] {
      std::atomic<long> done{0};
      upcxx::persona& master = upcxx::master_persona();
      const int per = n / producers;
      const double t0 = arch::now_s();
      std::vector<std::thread> ts;
      for (int p = 0; p < producers; ++p)
        ts.emplace_back([&master, &done, per] {
          for (int i = 0; i < per; ++i)
            master.lpc_ff([&done] {
              done.fetch_add(1, std::memory_order_relaxed);
            });
        });
      while (done.load(std::memory_order_relaxed) <
             static_cast<long>(per) * producers)
        upcxx::progress();
      for (auto& t : ts) t.join();
      const double dt = arch::now_s() - t0;
      const double total = static_cast<double>(per) * producers;
      std::printf("cross-thread lpc_ff: %8.1f ns/op (%d producer%s)\n",
                  dt / total * 1e9, producers, producers > 1 ? "s" : "");
      json.metric("xthread_lpc_ff_ops_per_s_p" + std::to_string(producers),
                  total / dt);
    });
  }

  // ------------------------------------------------ 3. round-trip latency
  upcxx::run(1, [&] {
    upcxx::persona& master = upcxx::master_persona();
    std::atomic<bool> stop{false};
    std::atomic<double> rt_us{0};
    std::thread worker([&] {
      const int iters = std::max(n / 100, 1000);
      // Warm.
      master.lpc([] { return 1; }).wait();
      const double t0 = arch::now_s();
      for (int i = 0; i < iters; ++i) master.lpc([i] { return i; }).wait();
      rt_us = (arch::now_s() - t0) / iters * 1e6;
      stop = true;
    });
    while (!stop.load()) upcxx::progress();
    worker.join();
    std::printf("lpc round trip:      %8.2f us (worker <-> master)\n",
                rt_us.load());
    json.metric("lpc_round_trip_us", rt_us.load());
  });

  // ----------------------------------------------------- 4. attentiveness
  // Rank 1 computes in kSliceUs bursts; rank 0 fires RPCs at it and counts
  // completions in a fixed window. With the master persona migrated to a
  // progress thread, servicing no longer waits for compute-loop breaks.
  constexpr double kWindowS = 0.5;
  constexpr int kSliceUs = 200;
  static double rate_single = 0, rate_progress_thread = 0;

  auto attentiveness = [&](bool dedicated) {
    upcxx::run(2, [&] {
      const int me = upcxx::rank_me();
      g_hits = 0;
      upcxx::barrier();
      if (me == 0) {
        const double t0 = arch::now_s();
        long sent = 0, acked = 0;
        upcxx::promise<> pr;
        while (arch::now_s() - t0 < kWindowS) {
          upcxx::rpc(1, [] { g_hits.fetch_add(1); })
              .then([&acked] { ++acked; });
          ++sent;
          upcxx::progress();
        }
        while (acked < sent) upcxx::progress();
        const double rate = acked / kWindowS;
        if (dedicated)
          rate_progress_thread = rate;
        else
          rate_single = rate;
        upcxx::rpc_ff(1, [] { g_hits.store(-1); });  // stop signal
        upcxx::barrier();
      } else {
        if (dedicated) {
          upcxx::persona& master = upcxx::master_persona();
          upcxx::liberate_master_persona();
          std::thread comms([&master] {
            upcxx::persona_scope sc(master);
            while (g_hits.load(std::memory_order_relaxed) >= 0)
              upcxx::progress();
          });
          // Compute loop: never calls progress.
          double sink = 0;
          while (g_hits.load(std::memory_order_relaxed) >= 0) {
            const double t = arch::now_s();
            while ((arch::now_s() - t) * 1e6 < kSliceUs) sink += 1e-9;
          }
          comms.join();
          upcxx::reacquire_master_persona(master);
          upcxx::barrier();
        } else {
          // Single-threaded: progress only between compute slices.
          double sink = 0;
          while (g_hits.load(std::memory_order_relaxed) >= 0) {
            const double t = arch::now_s();
            while ((arch::now_s() - t) * 1e6 < kSliceUs) sink += 1e-9;
            upcxx::progress();
          }
          upcxx::barrier();
        }
      }
    });
  };
  attentiveness(false);
  attentiveness(true);
  std::printf(
      "attentiveness:       %8.0f rpc/s single-thread (progress every "
      "%dus)\n                     %8.0f rpc/s with progress thread\n",
      rate_single, kSliceUs, rate_progress_thread);
  json.metric("attentive_rpc_per_s_single", rate_single);
  json.metric("attentive_rpc_per_s_progress_thread", rate_progress_thread);
  json.write();
  if (benchutil::under_tsan())
    checks.note("TSan build: progress-thread lift " +
                std::to_string(rate_progress_thread / rate_single) +
                "x reported, not enforced");
  else
    checks.expect(rate_progress_thread > rate_single * 1.5,
                  "dedicated progress thread lifts RPC service rate >=1.5x "
                  "at an inattentive rank (paper SIII stall)");

  return checks.summary("micro_persona");
}
