// Process-backend (fork) coverage: the smp-conduit-like mode where ranks
// are forked processes sharing the mmap'd arena. Thread-backend tests can
// use process-global statics to cross-check; here every exchange must go
// through the arena, which is exactly what these tests verify.
//
// gtest macros cannot report from child processes, so rank bodies signal
// failure by throwing (upcxx::run counts failed ranks; the parent asserts
// zero).
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/dht/dht.hpp"
#include "spmd_helpers.hpp"

namespace {

// Throwing check for use inside forked rank bodies.
void require(bool ok, const char* what) {
  if (!ok) throw std::runtime_error(std::string("check failed: ") + what);
}

int run_forked(int ranks, const std::function<void()>& fn) {
  gex::Config cfg = testutil::test_cfg(ranks);
  cfg.backend = gex::Backend::kProcess;
  return upcxx::run(cfg, fn);
}

TEST(ProcessBackend, RmaPutGetAcrossProcesses) {
  const int fails = run_forked(4, [] {
    const int me = upcxx::rank_me(), P = upcxx::rank_n();
    auto mine = upcxx::new_array<long>(64);
    for (int i = 0; i < 64; ++i) mine.local()[i] = -1;
    // Publish my segment pointer via an RPC mailbox on rank 0... but statics
    // don't cross fork boundaries usably, so exchange through allgather.
    auto ptrs = upcxx::allgather(mine).wait();
    upcxx::barrier();
    // Put my rank id pattern into my right neighbor's buffer slice.
    const int nb = (me + 1) % P;
    std::vector<long> pat(16, me * 1000);
    upcxx::rput(pat.data(), ptrs[nb] + 16 * 0, 16).wait();
    upcxx::barrier();
    // My left neighbor wrote into my slice: check through local memory.
    const int left = (me + P - 1) % P;
    for (int i = 0; i < 16; ++i)
      require(mine.local()[i] == left * 1000, "neighbor put visible");
    // rget it back from the neighbor's buffer as well.
    std::vector<long> back(16, 0);
    upcxx::rget(ptrs[nb], back.data(), 16).wait();
    for (int i = 0; i < 16; ++i)
      require(back[i] == me * 1000, "rget returns what I put");
    upcxx::barrier();
    upcxx::delete_array(mine, 64);
    upcxx::barrier();
  });
  EXPECT_EQ(fails, 0);
}

TEST(ProcessBackend, RmaOnAmWireAcrossProcesses) {
  // The AM put/get protocol across forked processes: cookies and pending
  // maps are per-process, only wire records (ring/heap) cross the fork,
  // and the engine path chunks large transfers into request/ack rounds.
  gex::Config cfg = testutil::test_cfg(4);
  cfg.backend = gex::Backend::kProcess;
  cfg.rma_wire = gex::RmaWire::kAm;
  cfg.rma_async_min = 4 << 10;
  cfg.xfer_chunk_bytes = 4 << 10;
  const int fails = upcxx::run(cfg, [] {
    const int me = upcxx::rank_me(), P = upcxx::rank_n();
    constexpr std::size_t kN = 4096;  // 32 KB of longs: rides the engine
    auto mine = upcxx::new_array<long>(kN);
    auto ptrs = upcxx::allgather(mine).wait();
    upcxx::barrier();
    const int nb = (me + 1) % P;
    std::vector<long> pat(kN);
    for (std::size_t i = 0; i < kN; ++i)
      pat[i] = me * 100000 + static_cast<long>(i);
    upcxx::rput(pat.data(), ptrs[nb], kN).wait();
    // Scalar put under the engine threshold: the single-request path.
    upcxx::rput(static_cast<long>(me), ptrs[nb]).wait();
    upcxx::barrier();
    const int left = (me + P - 1) % P;
    require(mine.local()[0] == left, "small am put landed");
    for (std::size_t i = 1; i < kN; ++i)
      require(mine.local()[i] == left * 100000 + static_cast<long>(i),
              "chunked am put landed");
    std::vector<long> back(kN, 0);
    upcxx::rget(ptrs[nb], back.data(), kN).wait();
    require(back[0] == me, "am rget sees my small put");
    for (std::size_t i = 1; i < kN; ++i)
      require(back[i] == me * 100000 + static_cast<long>(i),
              "am rget returns what I put");
    upcxx::barrier();
    upcxx::delete_array(mine, kN);
    upcxx::barrier();
  });
  EXPECT_EQ(fails, 0);
}

TEST(ProcessBackend, RpcWithNontrivialArgsAcrossProcesses) {
  const int fails = run_forked(4, [] {
    const int me = upcxx::rank_me(), P = upcxx::rank_n();
    upcxx::dist_object<std::vector<std::string>> box(
        std::vector<std::string>{});
    upcxx::barrier();
    // Everyone appends a greeting into rank (me+1)%P's box.
    upcxx::rpc((me + 1) % P,
               [](upcxx::dist_object<std::vector<std::string>>& b,
                  const std::string& s) { b->push_back(s); },
               box, "hello from " + std::to_string(me))
        .wait();
    upcxx::barrier();
    require(box->size() == 1, "exactly one greeting landed");
    const std::string expect =
        "hello from " + std::to_string((me + P - 1) % P);
    require((*box)[0] == expect, "greeting came from the left neighbor");
    upcxx::barrier();
  });
  EXPECT_EQ(fails, 0);
}

TEST(ProcessBackend, CollectivesAgreeAcrossProcesses) {
  const int fails = run_forked(4, [] {
    const int me = upcxx::rank_me(), P = upcxx::rank_n();
    const long sum =
        upcxx::reduce_all(static_cast<long>(me + 1), upcxx::op_fast_add{})
            .wait();
    require(sum == static_cast<long>(P) * (P + 1) / 2, "reduce_all sum");
    const int bc = upcxx::broadcast(me == 2 ? 777 : 0, 2).wait();
    require(bc == 777, "broadcast from rank 2");
    auto all = upcxx::allgather(me * 7).wait();
    for (int i = 0; i < P; ++i) require(all[i] == i * 7, "allgather slot");
    auto a2a_in = std::vector<int>(P);
    for (int j = 0; j < P; ++j) a2a_in[j] = me * 100 + j;
    auto a2a = upcxx::alltoall(a2a_in).wait();
    for (int i = 0; i < P; ++i)
      require(a2a[i] == i * 100 + me, "alltoall slot");
    upcxx::barrier();
  });
  EXPECT_EQ(fails, 0);
}

TEST(ProcessBackend, AtomicsBothBackendsAcrossProcesses) {
  const int fails = run_forked(4, [] {
    for (auto be : {upcxx::atomic_backend::kDirect,
                    upcxx::atomic_backend::kAm}) {
      upcxx::atomic_domain<std::int64_t> ad(
          {upcxx::atomic_op::load, upcxx::atomic_op::fetch_add,
           upcxx::atomic_op::bit_or},
          upcxx::world(), be);
      auto ctrs = upcxx::allgather(upcxx::new_<std::int64_t>(0)).wait();
      upcxx::barrier();
      // Everyone bumps rank 0's counter 100 times and ORs a bit.
      std::vector<upcxx::future<>> fs;
      for (int i = 0; i < 100; ++i)
        fs.push_back(ad.fetch_add(ctrs[0], 1).then([](std::int64_t) {}));
      upcxx::when_all_range(fs).wait();
      upcxx::barrier();
      if (upcxx::rank_me() == 0)
        require(ad.load(ctrs[0]).wait() == 400, "no lost fetch_adds");
      upcxx::barrier();
      upcxx::delete_(ctrs[upcxx::rank_me()]);
      upcxx::barrier();
    }
  });
  EXPECT_EQ(fails, 0);
}

TEST(ProcessBackend, DhtVariantsAcrossProcesses) {
  const int fails = run_forked(4, [] {
    dht::RpcOnlyMap m1;
    dht::RpcRmaMap m2;
    upcxx::barrier();
    const std::string key = "k" + std::to_string(upcxx::rank_me());
    const std::string val(1024, static_cast<char>('a' + upcxx::rank_me()));
    m1.insert(key, val).wait();
    m2.insert(key, val).wait();
    upcxx::barrier();
    // Everyone reads everyone's entry.
    for (int r = 0; r < upcxx::rank_n(); ++r) {
      const std::string k = "k" + std::to_string(r);
      const std::string expect(1024, static_cast<char>('a' + r));
      auto v1 = m1.find(k).wait();
      require(v1.has_value() && *v1 == expect, "RpcOnly cross-process find");
      auto v2 = m2.find(k).wait();
      require(v2.has_value() && *v2 == expect, "RpcRma cross-process find");
    }
    upcxx::barrier();
  });
  EXPECT_EQ(fails, 0);
}

TEST(ProcessBackend, DeviceCopyAcrossProcesses) {
  const int fails = run_forked(2, [] {
    upcxx::device_allocator<upcxx::sim_device> dev(1 << 20);
    auto mine = dev.allocate<double>(128);
    auto ptrs = upcxx::allgather(mine).wait();
    upcxx::barrier();
    if (upcxx::rank_me() == 0) {
      std::vector<double> v(128, 6.5);
      upcxx::copy(v.data(), ptrs[1], 128).wait();
    }
    upcxx::barrier();
    if (upcxx::rank_me() == 1) {
      std::vector<double> got(128, 0.0);
      upcxx::copy(mine, got.data(), 128).wait();
      for (double x : got) require(x == 6.5, "device data crossed fork");
    }
    upcxx::barrier();
  });
  EXPECT_EQ(fails, 0);
}

TEST(ProcessBackend, FailedPeerReleasesAmWireCredits) {
  // Regression: teardown's drain gives up when a peer fails, but the
  // survivor's credits held by that peer (window slots consumed by
  // unacknowledged requests) were never returned. fail_all_peers() must
  // cancel the in-flight requests, and the ops still waiting behind them
  // in the XferEngine channel must never go out (the protocol reports no
  // credits once the error flag is up), so survivors tear down instead of
  // waiting for acks from a dead rank. The flood below exceeds the window,
  // so without the release this hangs (and trips the 600 s ctest timeout).
  gex::Config cfg = testutil::test_cfg(4);
  cfg.backend = gex::Backend::kProcess;
  cfg.rma_wire = gex::RmaWire::kAm;
  cfg.am_window = 1;  // every op beyond the first waits in the channel
  const int fails = upcxx::run(cfg, [] {
    const int me = upcxx::rank_me();
    static upcxx::global_ptr<long> victim;
    if (me == 3) victim = upcxx::new_array<long>(64);
    auto ptrs = upcxx::allgather(victim).wait();
    upcxx::barrier();
    if (me == 3) throw std::runtime_error("injected fault");
    if (me == 0) {
      // Flood the failing rank: one request takes the only credit, the
      // rest wait behind it in the channel. Do NOT wait on completion —
      // rank 3 may die before acking anything. The source outlives the
      // body: queued puts keep pointing at it.
      static const std::vector<long> pat(64, 7);
      for (int i = 0; i < 6; ++i)
        upcxx::rput(pat.data(), ptrs[3], 64,
                    upcxx::operation_cx::as_lpc([] {}));
      upcxx::progress();
      require(gex::xfer().pending_chunks(3) >= 5,
              "window=1 flood left its backlog in the XferEngine channel");
    }
    // Survivors make bounded progress; no barrier (rank 3 never arrives).
    for (int i = 0; i < 200; ++i) upcxx::progress();
  });
  // Exactly the injected fault: survivors must tear down cleanly (a
  // survivor counted failed means the require() above fired or teardown
  // broke; a hang means the credits were never released).
  EXPECT_EQ(fails, 1);
}

TEST(ProcessBackend, WaitThrowsRankFailedWhenPeerDies) {
  // Error-aware wait (ROADMAP): a user-level future::wait() whose
  // completion depends on a dead rank used to spin forever — only the
  // teardown paths honored the arena error flag. It must now throw
  // upcxx::rank_failed once the flag is up. The survivor catches it and
  // finishes cleanly, so exactly the injected fault is reported; pre-fix
  // this test hangs in the first wait below and trips the ctest timeout.
  gex::Config cfg = testutil::test_cfg(3);
  cfg.backend = gex::Backend::kProcess;
  cfg.rma_wire = gex::RmaWire::kAm;
  const int fails = upcxx::run(cfg, [] {
    const int me = upcxx::rank_me();
    static upcxx::global_ptr<long> victim;
    if (me == 2) victim = upcxx::new_array<long>(8);
    auto ptrs = upcxx::allgather(victim).wait();
    upcxx::barrier();
    if (me == 2) throw std::runtime_error("injected fault");
    if (me == 0) {
      // A future nothing will ever fulfill stands in for any completion
      // that depended on the dead rank: deterministic, because readiness
      // can never race the error flag.
      bool threw = false;
      try {
        upcxx::promise<long> never;
        never.get_future().wait();
      } catch (const upcxx::rank_failed&) {
        threw = true;
      }
      require(threw, "wait() threw rank_failed instead of hanging");
      // A real blocking operation against the dead rank must terminate
      // too. Rank 2's bounded teardown polls may still ack it (making the
      // wait return normally) or may not (rank_failed); both are clean —
      // what is forbidden is the pre-fix infinite spin.
      std::vector<long> pat(8, 1);
      try {
        upcxx::rput(pat.data(), ptrs[2], 8).wait();
      } catch (const upcxx::rank_failed&) {
      }
    }
    for (int i = 0; i < 100; ++i) upcxx::progress();
  });
  EXPECT_EQ(fails, 1);
}

TEST(ProcessBackend, FailingRankIsReported) {
  // Failure injection: one rank throws; the parent must see exactly one
  // failed rank and the others must shut down cleanly (no hang).
  const int fails = run_forked(4, [] {
    upcxx::barrier();
    if (upcxx::rank_me() == 3) throw std::runtime_error("injected fault");
    // Peers do bounded work; no barrier after the throw (rank 3 never
    // arrives).
    for (int i = 0; i < 100; ++i) upcxx::progress();
  });
  EXPECT_GE(fails, 1);
}

}  // namespace
