// Process-backend (fork) coverage: the smp-conduit-like mode where ranks
// are forked processes sharing the mmap'd arena. Thread-backend tests can
// use process-global statics to cross-check; here every exchange must go
// through the arena, which is exactly what these tests verify.
//
// gtest macros cannot report from child processes, so rank bodies signal
// failure by throwing (upcxx::run counts failed ranks; the parent asserts
// zero).
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "apps/dht/dht.hpp"
#include "minimpi/minimpi.hpp"
#include "oldupcxx/oldupcxx.hpp"
#include "spmd_helpers.hpp"

namespace {

// Throwing check for use inside forked rank bodies.
void require(bool ok, const char* what) {
  if (!ok) throw std::runtime_error(std::string("check failed: ") + what);
}

// Survivors that have left fail_after_barrier's barrier, counted at the
// victim (each forked rank has its own copy).
int g_left_barrier = 0;

// The pre-fault barrier of every fault test: all ranks enter it, then
// `victim` throws — but only once every survivor has told it by rpc_ff
// that it left the barrier. A victim that threw as soon as it left would
// raise the job's error flag while a survivor's barrier wait might not
// yet have read the release, and that survivor's wait would then throw
// rank_failed too: a second failed rank.
void fail_after_barrier(int victim) {
  upcxx::barrier();
  if (upcxx::rank_me() == victim) {
    while (g_left_barrier < upcxx::rank_n() - 1) upcxx::progress();
    throw std::runtime_error("injected fault");
  }
  upcxx::rpc_ff(victim, [] { ++g_left_barrier; });
  upcxx::progress();  // flush the note: some survivors stop polling
}

// Ends this rank with _Exit if it is still alive `secs` seconds after
// construction: a wait that hangs then shows up as a second failed rank
// instead of the ctest timeout.
class Watchdog {
 public:
  explicit Watchdog(int secs)
      : thread_([this, secs] {
          std::unique_lock<std::mutex> lk(mu_);
          if (!cv_.wait_for(lk, std::chrono::seconds(secs),
                            [this] { return done_; }))
            std::_Exit(3);
        }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      done_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

// Waits on a promise nothing will ever fulfill; true if the wait threw
// rank_failed (the only way it can end).
bool never_ready_wait_throws() {
  try {
    upcxx::promise<long> never;
    never.get_future().wait();
  } catch (const upcxx::rank_failed&) {
    return true;
  }
  return false;
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
    fail_after_barrier(3);
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
    fail_after_barrier(2);
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

TEST(ProcessBackend, InjectorWaitThrowsRankFailedWhenPeerDies) {
  // An injection_scope thread has no rank context. Its future::wait must
  // still see the job fail: the failure check reads the job's flag from
  // any thread, not through the waiting thread's rank state (which an
  // injector does not have, so its wait used to spin forever).
  const int fails = run_forked(3, [] {
    fail_after_barrier(2);
    if (upcxx::rank_me() == 0) {
      Watchdog dog(5);
      upcxx::injector inj;
      bool threw = false;
      std::thread app([&] {
        upcxx::injection_scope scope(inj);
        threw = never_ready_wait_throws();
      });
      app.join();
      require(threw, "injector's wait threw rank_failed");
    }
    for (int i = 0; i < 100; ++i) upcxx::progress();
  });
  EXPECT_EQ(fails, 1);
}

TEST(ProcessBackend, LiberatedMasterWaitThrowsRankFailedWhenPeerDies) {
  // The thread that hands its master persona to a progress_thread keeps
  // no rank context; its waits must still end in rank_failed.
  const int fails = run_forked(3, [] {
    fail_after_barrier(2);
    if (upcxx::rank_me() == 0) {
      Watchdog dog(5);
      upcxx::progress_thread pt;
      const bool threw = never_ready_wait_throws();
      pt.stop();
      require(threw, "liberated master's wait threw rank_failed");
    }
    for (int i = 0; i < 100; ++i) upcxx::progress();
  });
  EXPECT_EQ(fails, 1);
}

TEST(ProcessBackend, SplitThrowsRankFailedWhenPeerDies) {
  // team::split gathers every member's (color, key) before it builds the
  // child team. Rank 2 dies instead of contributing, so the survivors'
  // split must throw rank_failed, not return a team that still lists the
  // dead rank.
  const int fails = run_forked(3, [] {
    fail_after_barrier(2);
    Watchdog dog(5);
    bool threw = false;
    try {
      upcxx::world().split(0, upcxx::rank_me());
    } catch (const upcxx::rank_failed&) {
      threw = true;
    }
    require(threw, "split threw rank_failed");
    for (int i = 0; i < 100; ++i) upcxx::progress();
  });
  EXPECT_EQ(fails, 1);
}

TEST(ProcessBackend, MiniMpiWaitEndsWhenPeerDies) {
  // minimpi's waits poll only the AM engine, and a dead peer never sends
  // what they wait for. Rank 0 blocks in a recv from the dead rank 2;
  // rank 1 blocks in Win::create's gather, which waits on rank 0. Both
  // waits must end with minimpi's failure throw instead of hanging.
  const int fails = run_forked(3, [] {
    minimpi::init();
    fail_after_barrier(2);
    Watchdog dog(5);
    bool threw = false;
    try {
      if (upcxx::rank_me() == 0) {
        long v = 0;
        minimpi::recv(&v, sizeof v, 2, 7);
      } else {
        long exposed = 0;
        minimpi::Win::create(&exposed, sizeof exposed);
      }
    } catch (const std::runtime_error&) {
      threw = true;
    }
    require(threw, "minimpi wait threw once the job failed");
    for (int i = 0; i < 100; ++i) upcxx::progress();
  });
  EXPECT_EQ(fails, 1);
}

TEST(ProcessBackend, OldApiEventWaitThrowsRankFailedWhenPeerDies) {
  // A v0.1 event counts operations until their acks arrive; an async sent
  // to a dead rank is never acked, so event::wait must throw rank_failed
  // like a v1.0 future::wait.
  const int fails = run_forked(3, [] {
    fail_after_barrier(2);
    if (upcxx::rank_me() == 0) {
      Watchdog dog(5);
      // Once the flag is up rank 2's upcxx layer is gone, so nothing can
      // run the async and ack it.
      while (!gex::job_failed()) std::this_thread::yield();
      // v0.1 events must outlive their operations, and this one's never
      // completes: leak it rather than assert in ~event.
      auto* e = new oldupcxx::event;
      oldupcxx::async(2, e)([] {});
      bool threw = false;
      try {
        e->wait();
      } catch (const upcxx::rank_failed&) {
        threw = true;
      }
      require(threw, "event::wait threw rank_failed");
    }
    for (int i = 0; i < 100; ++i) upcxx::progress();
  });
  EXPECT_EQ(fails, 1);
}

// Floods a rank that died right after a barrier with 2,000 rpc_ff of
// `bytes` payload each. Nothing drains the dead rank's inbox, so the
// sender's AmEngine runs out of room: ring records (small payloads, packed
// into aggregated frames) or shared-heap rendezvous blocks (payloads past
// eager_max). Once the error flag is up, each send that would wait for
// room is dropped instead — the survivors finish and exactly the injected
// fault is reported; a sender spinning on the dead rank hangs here.
int flood_failed_peer(std::size_t bytes) {
  gex::Config cfg = testutil::test_cfg(3);
  cfg.backend = gex::Backend::kProcess;
  cfg.ring_bytes = 256 << 10;
  cfg.heap_bytes = 8 << 20;
  return upcxx::run(cfg, [bytes] {
    fail_after_barrier(2);
    if (upcxx::rank_me() == 0) {
      const std::vector<char> payload(bytes, 'f');
      for (int i = 0; i < 2000; ++i)
        upcxx::rpc_ff(2, [](const std::vector<char>&) {}, payload);
    }
    for (int i = 0; i < 100; ++i) upcxx::progress();
  });
}

TEST(ProcessBackend, SmallRpcFloodToFailedPeerTerminates) {
  EXPECT_EQ(flood_failed_peer(1 << 10), 1);
}

TEST(ProcessBackend, LargeRpcFloodToFailedPeerTerminates) {
  EXPECT_EQ(flood_failed_peer(64 << 10), 1);
}

TEST(ProcessBackend, LateTrafficAfterTeardownIsDropped) {
  // A failed job skips the final barrier, so a survivor's rpcs can reach a
  // peer's inbox after that peer's upcxx layer is torn down: the gex-level
  // teardown polls then deliver them to a rank with no persona. Rank 1
  // stops polling while rank 0 floods it, so most of the flood is left
  // for those polls; it must be dropped, not dispatched into freed state
  // (which crashed rank 1 with a null persona).
  gex::Config cfg = testutil::test_cfg(3);
  cfg.backend = gex::Backend::kProcess;
  const int fails = upcxx::run(cfg, [] {
    fail_after_barrier(2);
    const int me = upcxx::rank_me();
    while (!gex::job_failed()) std::this_thread::yield();
    if (me == 0) {
      for (int i = 0; i < 3000; ++i) upcxx::rpc_ff(1, [] {});
      upcxx::progress();
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
    }
  });
  EXPECT_EQ(fails, 1);
}

TEST(ProcessBackend, FailingRankIsReported) {
  // Failure injection: one rank throws; the parent must see exactly one
  // failed rank and the others must shut down cleanly (no hang).
  const int fails = run_forked(4, [] {
    fail_after_barrier(3);
    // Peers do bounded work; no barrier after the throw (rank 3 never
    // arrives).
    for (int i = 0; i < 100; ++i) upcxx::progress();
  });
  EXPECT_GE(fails, 1);
}

}  // namespace
