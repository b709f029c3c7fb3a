// Progress-engine semantics (paper §III): attentiveness, internal vs user
// progress, compQ draining, simulated-latency ordering.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "arch/timer.hpp"
#include "spmd_helpers.hpp"

using testutil::spmd;

namespace {

TEST(Progress, UnattentiveTargetStallsRpcs) {
  // Paper §III: "if the target enters intensive, protracted computation
  // without calls to progress, incoming RPCs will stall."
  static std::atomic<int> executed{0};
  static std::atomic<bool> target_computing{true};
  executed = 0;
  target_computing = true;
  spmd(2, [] {
    if (upcxx::rank_me() == 0) {
      auto f = upcxx::rpc(1, [] { executed.fetch_add(1); });
      // While rank 1 computes without progress, the RPC must not run.
      for (int i = 0; i < 50; ++i) {
        upcxx::progress();
        EXPECT_EQ(executed.load(), 0);
      }
      target_computing.store(false);
      f.wait();
      EXPECT_EQ(executed.load(), 1);
    } else {
      // "Protracted computation": spin without library calls.
      while (target_computing.load()) arch::cpu_relax();
      while (executed.load() == 0) upcxx::progress();
    }
    upcxx::barrier();
  });
}

TEST(Progress, InternalLevelDoesNotExecuteRpcs) {
  static std::atomic<int> executed{0};
  static std::atomic<bool> sent{false};
  executed = 0;
  sent = false;
  spmd(2, [] {
    if (upcxx::rank_me() == 0) {
      upcxx::rpc_ff(1, [] { executed.fetch_add(1); });
      sent.store(true);
      while (executed.load() == 0) upcxx::progress();
    } else {
      while (!sent.load()) arch::cpu_relax();
      // Give the message ample time to arrive, then poll at *internal*
      // level only: it stages the RPC into compQ but must not run it.
      for (int i = 0; i < 100; ++i)
        upcxx::progress(upcxx::progress_level::internal);
      EXPECT_EQ(executed.load(), 0)
          << "internal progress executed a user RPC";
      // User progress finally runs it.
      while (executed.load() == 0) upcxx::progress();
    }
    upcxx::barrier();
  });
}

TEST(Progress, CompqBudgetIsBounded) {
  // A progress call drains only what was queued at entry; RPCs that enqueue
  // further LPCs don't extend the same call (prevents starvation).
  spmd(1, [] {
    int order = 0, first = -1, second = -1;
    upcxx::detail::push_compq([&] {
      first = order++;
      upcxx::detail::push_compq([&] { second = order++; });
    });
    upcxx::progress();
    EXPECT_EQ(first, 0);
    EXPECT_EQ(second, -1) << "nested LPC ran in the same progress call";
    upcxx::progress();
    EXPECT_EQ(second, 1);
  });
}

TEST(Progress, WaitDrivesNestedCompletion) {
  spmd(1, [] {
    upcxx::promise<int> pr;
    upcxx::detail::push_compq([pr]() mutable {
      upcxx::detail::push_compq([pr]() mutable { pr.fulfill_result(3); });
    });
    EXPECT_EQ(pr.get_future().wait(), 3);
  });
}

TEST(Progress, StatsCountRpcsAndRma) {
  spmd(2, [] {
    auto& st = upcxx::detail::persona().stats;
    const auto rpcs0 = st.rpcs_executed;
    const auto lpcs0 = st.lpcs_run;
    auto g = upcxx::allocate<int>(1);
    upcxx::rput(1, g).wait();
    upcxx::rpc((upcxx::rank_me() + 1) % 2, [] {}).wait();
    int ran = 0;
    upcxx::detail::push_compq([&ran] { ++ran; });
    while (ran == 0) upcxx::progress();
    // Both ranks' rpcs have executed once each has left the barrier.
    upcxx::barrier();
    EXPECT_GE(st.rpcs_executed, rpcs0 + 1);
    EXPECT_GE(st.lpcs_run, lpcs0 + 1);
    upcxx::barrier();
    upcxx::deallocate(g);
  });
}

// --------------------------- simulated wire latency ------------------------

TEST(SimLatency, BlockingPutCostsRoundTrip) {
  gex::Config cfg = testutil::test_cfg(2);
  cfg.sim_latency_ns = 200000;  // 200 us per hop
  int fails = upcxx::run(cfg, [] {
    auto mine = upcxx::allocate<int>(1);
    upcxx::dist_object<upcxx::global_ptr<int>> dir(mine);
    auto peer = dir.fetch(1 - upcxx::rank_me()).wait();
    upcxx::barrier();
    const auto t0 = arch::now_ns();
    upcxx::rput(7, peer).wait();
    const auto dt = arch::now_ns() - t0;
    // Operation completion models a full round trip: >= 2 hops.
    EXPECT_GE(dt, 2 * 200000ull);
    upcxx::barrier();
    upcxx::deallocate(mine);
  });
  EXPECT_EQ(fails, 0);
}

TEST(SimLatency, OverlapHidesLatency) {
  // The paper's core pitch: asynchrony by default lets communication overlap
  // computation. With N independent puts issued before waiting, total time
  // should be ~1 RTT, not N RTTs.
  gex::Config cfg = testutil::test_cfg(2);
  // 1 ms per hop: the far-less-than-serialized bound (16 ms vs >= 32 ms
  // serialized) then leaves >10 ms of absolute slack, which covers
  // scheduler/sanitizer noise — on the am wire completion also rides the
  // peer's progress, so the slack must absorb a descheduled peer, not
  // just local jitter.
  cfg.sim_latency_ns = 1000000;
  // Pin a pipelined window: this test asserts the *overlap* property, and
  // under the am-window-1 CI matrix (UPCXX_AM_WINDOW=1, am wire) the
  // transport is deliberately serialized — one request per ack round trip
  // can never finish 16 puts in under 16 RTTs. Window policy has its own
  // suites (test_rma_flow / test_rma_stress).
  cfg.am_window = gex::kDefaultAmWindow;
  int fails = upcxx::run(cfg, [] {
    constexpr int kOps = 16;
    auto mine = upcxx::allocate<int>(kOps);
    upcxx::dist_object<upcxx::global_ptr<int>> dir(mine);
    auto peer = dir.fetch(1 - upcxx::rank_me()).wait();
    // Best of a fixed 3 attempts (fixed so both ranks stay in lockstep —
    // a data-dependent retry would skew the barrier count): the bound is
    // wall-clock, and one attempt can be stretched arbitrarily when a
    // parallel ctest schedules a soak suite on every core. Overlap only
    // has to be demonstrated once; the minimum still costs >= 1 RTT.
    std::uint64_t best = ~0ull;
    for (int attempt = 0; attempt < 3; ++attempt) {
      upcxx::barrier();
      upcxx::promise<> p;
      const auto t0 = arch::now_ns();
      for (int i = 0; i < kOps; ++i)
        upcxx::rput(i, peer + i, upcxx::operation_cx::as_promise(p));
      p.finalize().wait();
      best = std::min(best, arch::now_ns() - t0);
    }
    EXPECT_GE(best, 2 * 1000000ull);     // at least one RTT
    EXPECT_LT(best, kOps * 1000000ull);  // far less than serialized RTTs
    upcxx::barrier();
    upcxx::deallocate(mine);
  });
  EXPECT_EQ(fails, 0);
}

TEST(SimLatency, MessageDeliveryRespectsDelay) {
  gex::Config cfg = testutil::test_cfg(2);
  cfg.sim_latency_ns = 300000;
  static std::atomic<std::uint64_t> exec_time{0};
  exec_time = 0;
  int fails = upcxx::run(cfg, [] {
    upcxx::barrier();
    if (upcxx::rank_me() == 0) {
      const auto t0 = arch::now_ns();
      upcxx::rpc_ff(1, [] { exec_time.store(arch::now_ns()); });
      while (exec_time.load() == 0) upcxx::progress();
      EXPECT_GE(exec_time.load() - t0, 300000ull);
    } else {
      while (exec_time.load() == 0) upcxx::progress();
    }
    upcxx::barrier();
  });
  EXPECT_EQ(fails, 0);
}

TEST(Progress, ProcessBackendFullStack) {
  // End-to-end smoke of the whole upcxx stack over forked processes.
  gex::Config cfg = testutil::test_cfg(4);
  cfg.backend = gex::Backend::kProcess;
  int fails = upcxx::run(cfg, [] {
    auto mine = upcxx::allocate<int>(1);
    *mine.local() = -1;
    upcxx::dist_object<upcxx::global_ptr<int>> dir(mine);
    const int P = upcxx::rank_n();
    auto right = dir.fetch((upcxx::rank_me() + 1) % P).wait();
    upcxx::rput(upcxx::rank_me(), right).wait();
    upcxx::barrier();
    if (*mine.local() != (upcxx::rank_me() + P - 1) % P)
      throw std::runtime_error("rma value wrong in process backend");
    auto sum = upcxx::reduce_all(upcxx::rank_me(), upcxx::op_fast_add{}).wait();
    if (sum != P * (P - 1) / 2)
      throw std::runtime_error("reduce wrong in process backend");
    upcxx::barrier();
    upcxx::deallocate(mine);
  });
  EXPECT_EQ(fails, 0);
}

}  // namespace
