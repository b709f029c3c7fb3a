// Thread-safe op injection (upcxx/inject.hpp): app threads bound to an
// injection_scope initiate rput/rget/rpc/copy directly, with completions
// routed back to the initiating thread's persona. Covers the caller-side
// sync fast path (direct wire, small), the MPSC hand-off paths (XferEngine
// and AM-wire closures and serialized rpcs, all through the rank's one
// injection queue), and the
// relaxed stats counters. The randomized cross-path soak lives in
// test_mt_soak.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "spmd_helpers.hpp"

using testutil::spmd;

namespace {

// Runs `body` on `nthreads` injector threads while the calling (master)
// thread keeps progress flowing; returns when every injector joined.
// `body` gets the thread index.
void with_injectors(int nthreads, const std::function<void(int)>& body) {
  upcxx::injector inj;
  std::atomic<int> alive{nthreads};
  std::vector<std::thread> ts;
  ts.reserve(static_cast<std::size_t>(nthreads));
  for (int t = 0; t < nthreads; ++t)
    ts.emplace_back([&, t] {
      upcxx::injection_scope scope(inj);
      body(t);
      alive.fetch_sub(1, std::memory_order_release);
    });
  while (alive.load(std::memory_order_acquire) != 0) upcxx::progress();
  for (auto& th : ts) th.join();
}

TEST(Inject, SyncFastPathFromThreads) {
  // Direct wire, below rma_async_min: every op completes caller-side on
  // the injector thread (the scaling fast path). Two threads per rank
  // write disjoint slices of the peer's segment.
  spmd(2, [] {
    constexpr int kThreads = 2;
    constexpr std::size_t kPer = 1024;  // u32 elements per thread slice
    auto mine = upcxx::allocate<std::uint32_t>(kThreads * kPer);
    std::fill_n(mine.local(), kThreads * kPer, 0u);
    upcxx::dist_object<upcxx::global_ptr<std::uint32_t>> dir(mine);
    auto peer = dir.fetch(1 - upcxx::rank_me()).wait();
    const auto me = static_cast<std::uint32_t>(upcxx::rank_me());

    with_injectors(kThreads, [&](int t) {
      std::vector<std::uint32_t> src(kPer);
      for (std::size_t i = 0; i < kPer; ++i)
        src[i] = (me << 24) | (static_cast<std::uint32_t>(t) << 16) |
                 static_cast<std::uint32_t>(i);
      auto slice = peer + static_cast<std::ptrdiff_t>(t * kPer);
      upcxx::rput(src.data(), slice, kPer).wait();
      // Read-back through the scalar and bulk get paths on this thread.
      std::vector<std::uint32_t> back(kPer);
      upcxx::rget(slice, back.data(), kPer).wait();
      EXPECT_EQ(back, src);
      EXPECT_EQ(upcxx::rget(slice + 7).wait(), src[7]);
    });

    upcxx::barrier();
    const auto them = 1u - me;
    for (int t = 0; t < kThreads; ++t)
      for (std::size_t i = 0; i < kPer; ++i)
        ASSERT_EQ(mine.local()[t * kPer + i],
                  (them << 24) | (static_cast<std::uint32_t>(t) << 16) |
                      static_cast<std::uint32_t>(i));
    upcxx::barrier();
    upcxx::deallocate(mine);
  });
}

TEST(Inject, RpcRoundTripFromThreads) {
  spmd(2, [] {
    constexpr int kThreads = 2;
    constexpr int kOps = 32;
    static std::atomic<int> ff_hits{0};
    ff_hits = 0;
    upcxx::barrier();
    const int peer = 1 - upcxx::rank_me();

    with_injectors(kThreads, [&](int t) {
      for (int i = 0; i < kOps; ++i) {
        // Round trip: the reply is deserialized on the master and shipped
        // home to this thread's persona, where wait() picks it up.
        auto v = upcxx::rpc(
                     peer, [](int a, int b) { return a * 100 + b; }, t, i)
                     .wait();
        ASSERT_EQ(v, t * 100 + i);
      }
      upcxx::rpc_ff(peer, [] { ff_hits.fetch_add(1); });
    });

    // rpc_ff has no completion to wait on: spin until the peer's sends
    // landed here (thread backend: ff_hits is process-shared).
    while (ff_hits.load() < 2 * kThreads) upcxx::progress();
    upcxx::barrier();
    EXPECT_EQ(ff_hits.load(), 2 * kThreads);
  });
}

TEST(Inject, XferEnginePathFromThread) {
  // rma_async_min=1 forces every bulk RMA through the XferEngine: the
  // injector thread's ops ride the injection queue, the engine runs on the
  // master, and completions ship back to the injector's persona.
  gex::Config cfg = testutil::test_cfg(2);
  cfg.rma_async_min = 1;
  cfg.xfer_chunk_bytes = 1024;
  const int fails = upcxx::run(cfg, [] {
    constexpr std::size_t kN = 16 << 10;
    auto mine = upcxx::allocate<std::uint32_t>(kN);
    std::fill_n(mine.local(), kN, 0u);
    upcxx::dist_object<upcxx::global_ptr<std::uint32_t>> dir(mine);
    auto peer = dir.fetch(1 - upcxx::rank_me()).wait();
    const auto me = static_cast<std::uint32_t>(upcxx::rank_me());

    with_injectors(1, [&](int) {
      std::vector<std::uint32_t> src(kN);
      for (std::size_t i = 0; i < kN; ++i)
        src[i] = static_cast<std::uint32_t>(i) ^ (me << 20);
      const auto my_id = std::this_thread::get_id();
      std::atomic<bool> src_done{false};
      auto op = upcxx::rput(src.data(), peer, kN,
                            upcxx::operation_cx::as_future() |
                                upcxx::source_cx::as_lpc([&src_done, my_id] {
                                  // Shipped home: runs on the injecting
                                  // thread's persona, not the master.
                                  EXPECT_EQ(std::this_thread::get_id(), my_id);
                                  src_done.store(true);
                                }));
      op.wait();
      // The LPC is queued on this persona; it may trail the op future by
      // one progress call but never migrates threads.
      while (!src_done.load()) upcxx::progress();
      std::vector<std::uint32_t> back(kN);
      upcxx::rget(peer, back.data(), kN).wait();
      EXPECT_EQ(back, src);
    });

    upcxx::barrier();
    for (std::size_t i = 0; i < kN; ++i)
      ASSERT_EQ(mine.local()[i],
                static_cast<std::uint32_t>(i) ^ ((1u - me) << 20));
    upcxx::barrier();
    upcxx::deallocate(mine);
  });
  EXPECT_EQ(fails, 0);
}

TEST(Inject, AmWirePathFromThread) {
  // UPCXX_RMA_WIRE=am: below-threshold ops become protocol put/get
  // requests, dispatched for the injector by the master via the submit
  // queue; the scalar rget ships its fetched value home the same way.
  gex::Config cfg = testutil::test_cfg(2);
  cfg.rma_wire = gex::RmaWire::kAm;
  const int fails = upcxx::run(cfg, [] {
    constexpr std::size_t kN = 512;
    auto mine = upcxx::allocate<std::uint64_t>(kN);
    std::fill_n(mine.local(), kN, 0ull);
    upcxx::dist_object<upcxx::global_ptr<std::uint64_t>> dir(mine);
    auto peer = dir.fetch(1 - upcxx::rank_me()).wait();
    const auto me = static_cast<std::uint64_t>(upcxx::rank_me());

    with_injectors(2, [&](int t) {
      const std::size_t half = kN / 2;
      auto slice = peer + static_cast<std::ptrdiff_t>(t) *
                              static_cast<std::ptrdiff_t>(half);
      std::vector<std::uint64_t> src(half);
      for (std::size_t i = 0; i < half; ++i)
        src[i] = (me << 32) | (static_cast<std::uint64_t>(t) << 16) | i;
      upcxx::rput(src.data(), slice, half).wait();
      // Scalar put (value staged in a holder until the master sends it).
      upcxx::rput(src[3], slice + 3).wait();
      EXPECT_EQ(upcxx::rget(slice + 3).wait(), src[3]);
      std::vector<std::uint64_t> back(half);
      upcxx::rget(slice, back.data(), half).wait();
      EXPECT_EQ(back, src);
    });

    upcxx::barrier();
    const auto them = 1ull - me;
    for (std::size_t i = 0; i < kN / 2; ++i) {
      ASSERT_EQ(mine.local()[i], (them << 32) | i);
      ASSERT_EQ(mine.local()[kN / 2 + i],
                (them << 32) | (1ull << 16) | i);
    }
    upcxx::barrier();
    upcxx::deallocate(mine);
  });
  EXPECT_EQ(fails, 0);
}

TEST(Inject, CopyFromThread) {
  // copy() from an injector thread, host global -> local and back.
  spmd(2, [] {
    constexpr std::size_t kN = 256;
    auto mine = upcxx::allocate<int>(kN);
    std::fill_n(mine.local(), kN, 0);
    upcxx::dist_object<upcxx::global_ptr<int>> dir(mine);
    auto peer = dir.fetch(1 - upcxx::rank_me()).wait();
    const int me = upcxx::rank_me();

    with_injectors(1, [&](int) {
      std::vector<int> src(kN);
      for (std::size_t i = 0; i < kN; ++i)
        src[i] = me * 1000 + static_cast<int>(i);
      upcxx::copy(src.data(), peer, kN).wait();
      std::vector<int> back(kN);
      upcxx::copy(peer, back.data(), kN).wait();
      EXPECT_EQ(back, src);
    });

    upcxx::barrier();
    for (std::size_t i = 0; i < kN; ++i)
      ASSERT_EQ(mine.local()[i], (1 - me) * 1000 + static_cast<int>(i));
    upcxx::barrier();
    upcxx::deallocate(mine);
  });
}

// Collectives initiated from an injection_scope thread: the op_context
// dispatch routes the rank-level protocol to the master while the
// injector's persona waits on the future. One injector per rank — the
// collective-entry order must match across ranks, and that is the
// caller's contract, not the runtime's.
void collectives_from_injector_body() {
  const int me = upcxx::rank_me();
  const int P = upcxx::rank_n();

  with_injectors(1, [&](int) {
    upcxx::barrier();
    EXPECT_EQ(upcxx::broadcast(me == 0 ? 41 : -1, 0).wait(), 41);
    EXPECT_EQ(upcxx::reduce_all(me + 1, std::plus<int>()).wait(),
              P * (P + 1) / 2);
    const int sum = upcxx::reduce_one(2, std::plus<int>(), 0).wait();
    if (me == 0) EXPECT_EQ(sum, 2 * P);
    const auto all = upcxx::allgather(me * 10).wait();
    ASSERT_EQ(all.size(), static_cast<std::size_t>(P));
    for (int r = 0; r < P; ++r) EXPECT_EQ(all[r], r * 10);
    upcxx::barrier();
  });

  upcxx::barrier();
}

TEST(Inject, CollectivesFromInjectorMmap) {
  spmd(2, collectives_from_injector_body);
}

TEST(Inject, CollectivesFromInjectorSocket) {
  gex::Config cfg = testutil::test_cfg(2);
  cfg.am_transport = gex::AmTransport::kSocket;
  EXPECT_EQ(upcxx::run(cfg, collectives_from_injector_body), 0);
}

// atomic_domain ops from injector threads. The domain is constructed
// collectively on the master before any injector exists; the ops
// themselves are point-to-point and ride the op_context dispatch like any
// other injected request. Each thread owns one slot on the peer, so the
// fetched values are a strict 0..kOps-1 sequence — any drop or reorder
// shows up as a wrong prev.
void atomics_from_injector_body() {
  constexpr int kThreads = 2;
  constexpr int kOps = 64;
  const int me = upcxx::rank_me();
  upcxx::atomic_domain<std::int64_t> ad(
      {upcxx::atomic_op::load, upcxx::atomic_op::fetch_add}, upcxx::world());
  auto slots = upcxx::allocate<std::int64_t>(kThreads);
  std::fill_n(slots.local(), kThreads, 0);
  upcxx::dist_object<upcxx::global_ptr<std::int64_t>> dir(slots);
  auto peer = dir.fetch(1 - me).wait();
  upcxx::barrier();

  with_injectors(kThreads, [&](int t) {
    for (int i = 0; i < kOps; ++i) {
      const auto prev = ad.fetch_add(peer + t, 1).wait();
      EXPECT_EQ(prev, i);  // sole writer of this slot
    }
    EXPECT_EQ(ad.load(peer + t).wait(), kOps);
  });

  upcxx::barrier();
  for (int t = 0; t < kThreads; ++t)
    ASSERT_EQ(slots.local()[t], kOps);
  upcxx::barrier();
  upcxx::deallocate(slots);
}

TEST(Inject, AtomicsFromInjectorMmap) {
  spmd(2, atomics_from_injector_body);
}

TEST(Inject, AtomicsFromInjectorSocket) {
  gex::Config cfg = testutil::test_cfg(2);
  cfg.am_transport = gex::AmTransport::kSocket;
  EXPECT_EQ(upcxx::run(cfg, atomics_from_injector_body), 0);
}

TEST(Inject, CompletionLpcRunsOnInjectingThread) {
  // Completion-shard routing: an as_lpc completion fires during the
  // injecting thread's own progress, never on the master.
  spmd(1, [] {
    auto buf = upcxx::allocate<int>(1);

    with_injectors(1, [&](int) {
      const auto my_id = std::this_thread::get_id();
      std::atomic<bool> fired{false};
      upcxx::rput(7, buf,
                  upcxx::operation_cx::as_lpc([&fired, my_id] {
                    EXPECT_EQ(std::this_thread::get_id(), my_id);
                    fired.store(true, std::memory_order_release);
                  }));
      while (!fired.load(std::memory_order_acquire)) upcxx::progress();
    });

    EXPECT_EQ(*buf.local(), 7);
    upcxx::deallocate(buf);
  });
}

TEST(Inject, ProgressThreadDrainsInjection) {
  // A progress_thread replaces the master thread's explicit progress loop:
  // it holds the migrated master persona and drains the injection queue.
  // The primordial thread just joins the injectors.
  gex::Config cfg = testutil::test_cfg(2);
  cfg.rma_wire = gex::RmaWire::kAm;  // every op goes through the hand-off
  const int fails = upcxx::run(cfg, [] {
    constexpr std::size_t kN = 256;
    auto mine = upcxx::allocate<std::uint32_t>(kN);
    std::fill_n(mine.local(), kN, 0u);
    upcxx::dist_object<upcxx::global_ptr<std::uint32_t>> dir(mine);
    auto peer = dir.fetch(1 - upcxx::rank_me()).wait();
    const auto me = static_cast<std::uint32_t>(upcxx::rank_me());

    {
      upcxx::injector inj;
      upcxx::progress_thread pt;
      std::vector<std::thread> ts;
      for (int t = 0; t < 2; ++t)
        ts.emplace_back([&, t] {
          upcxx::injection_scope scope(inj);
          const std::size_t half = kN / 2;
          auto slice = peer + static_cast<std::ptrdiff_t>(t) *
                                  static_cast<std::ptrdiff_t>(half);
          std::vector<std::uint32_t> src(half);
          for (std::size_t i = 0; i < half; ++i)
            src[i] = (me << 20) | (static_cast<std::uint32_t>(t) << 16) |
                     static_cast<std::uint32_t>(i);
          upcxx::rput(src.data(), slice, half).wait();
          std::vector<std::uint32_t> back(half);
          upcxx::rget(slice, back.data(), half).wait();
          EXPECT_EQ(back, src);
        });
      for (auto& th : ts) th.join();
      pt.stop();
    }

    upcxx::barrier();
    const auto them = 1u - me;
    for (std::size_t i = 0; i < kN / 2; ++i) {
      ASSERT_EQ(mine.local()[i], (them << 20) | i);
      ASSERT_EQ(mine.local()[kN / 2 + i],
                (them << 20) | (1u << 16) | static_cast<std::uint32_t>(i));
    }
    upcxx::barrier();
    upcxx::deallocate(mine);
  });
  EXPECT_EQ(fails, 0);
}

// rpc_ff bodies run on the target's master thread; thread-backend ranks
// share this process, so the counters are per rank.
std::atomic<int> g_ff_hits[2];

void count_ff_hit(int rank) { g_ff_hits[rank].fetch_add(1); }

// An injector sends n rpc_ff to the peer and enters barrier(): the
// barrier contract (collectives.hpp) says every send issued before it has
// run at its target once the barrier completes — however many there are,
// and whichever thread drives the rank (`on_thread` runs the master on a
// progress_thread, whose loop drains the injection queue while the injector
// is still sending).
void barrier_orders_sends_body(int n, bool on_thread) {
  const int me = upcxx::rank_me();
  const int peer = 1 - me;
  g_ff_hits[me] = 0;
  upcxx::barrier();
  auto body = [&](int) {
    for (int i = 0; i < n; ++i) upcxx::rpc_ff(peer, count_ff_hit, peer);
    upcxx::barrier();
    EXPECT_EQ(g_ff_hits[me].load(), n)
        << "rank " << me << ", n = " << n
        << (on_thread ? ", progress_thread" : "");
  };
  if (on_thread) {
    upcxx::injector inj;
    upcxx::progress_thread pt;
    std::thread t([&] {
      upcxx::injection_scope scope(inj);
      body(0);
    });
    t.join();
    pt.stop();
  } else {
    with_injectors(1, body);
  }
  upcxx::barrier();
}

TEST(Inject, BarrierOrdersEarlierInjectedSends) {
  for (auto transport : {gex::AmTransport::kMmap, gex::AmTransport::kSocket})
    for (bool on_thread : {false, true})
      for (int n : {64, 65, 1000}) {
        gex::Config cfg = testutil::test_cfg(2);
        cfg.am_transport = transport;
        EXPECT_EQ(upcxx::run(cfg, [n, on_thread] {
                    barrier_orders_sends_body(n, on_thread);
                  }),
                  0);
      }
}

TEST(Inject, InjectedSendsRideFrames) {
  // The master's injection-queue drain stages injected small messages in the
  // rank's Aggregator (barriers' control messages never are), so they
  // leave as frames.
  spmd(2, [] {
    constexpr int kSends = 200;
    const int me = upcxx::rank_me();
    const int peer = 1 - me;
    g_ff_hits[me] = 0;
    const auto staged = gex::self()->agg->stats().msgs;
    upcxx::barrier();
    with_injectors(1, [&](int) {
      for (int i = 0; i < kSends; ++i) upcxx::rpc_ff(peer, count_ff_hit, peer);
    });
    while (g_ff_hits[me].load() < kSends) upcxx::progress();
    upcxx::barrier();
    EXPECT_GE(gex::self()->agg->stats().msgs - staged,
              static_cast<std::uint64_t>(kSends));
  });
}

}  // namespace
