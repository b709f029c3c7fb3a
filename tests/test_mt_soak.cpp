// Seeded multi-thread soak: N injector threads per rank hammer a random
// mix of rput/rget/rpc/copy at their own disjoint slice of the peer's
// segment, with a local shadow to verify every byte that comes back and
// conservation asserts on the rpc counters afterwards. Barriers and
// atomic fetch_adds ride along at deterministic op indices — the same
// schedule on every rank, so collective entry counts match — proving the
// full op surface is injectable mid-stream, not just point-to-point RMA.
// Runs over the AM wire (so every op crosses the mmap shared-arena ring)
// and routes the large ops through the XferEngine (rma_async_min) so the
// chunked path soaks too.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <random>
#include <thread>
#include <vector>

#include "spmd_helpers.hpp"

namespace {

constexpr int kThreads = 3;
constexpr int kOpsPerThread = 120;
constexpr std::size_t kSlice = 4096;  // u32 elements per thread slice

// Thread backend: one process, so these are shared across ranks — index
// by rank. Senders bump sent_to[target] before injecting; the rpc body
// bumps executed[rank_me()] on the target. Conservation: after both ranks
// drain, executed[me] == sent_to[me].
std::atomic<long> g_executed[2];
std::atomic<long> g_sent_to[2];

void soak_body() {
  const int me = upcxx::rank_me();
  const int peer = 1 - me;
  if (me == 0) {
    g_executed[0] = g_executed[1] = 0;
    g_sent_to[0] = g_sent_to[1] = 0;
  }
  upcxx::barrier();

  auto mine = upcxx::allocate<std::uint32_t>(kThreads * kSlice);
  std::fill_n(mine.local(), kThreads * kSlice, 0u);
  upcxx::dist_object<upcxx::global_ptr<std::uint32_t>> dir(mine);
  auto remote = dir.fetch(peer).wait();

  // Collectively constructed before any injector exists; the ops inside
  // the threads are point-to-point. Thread t is the sole writer of the
  // peer's slot t, so fetched values form a strict 0..n-1 sequence.
  upcxx::atomic_domain<std::int64_t> ad(
      {upcxx::atomic_op::fetch_add, upcxx::atomic_op::load}, upcxx::world());
  auto aslots = upcxx::allocate<std::int64_t>(kThreads);
  std::fill_n(aslots.local(), kThreads, 0);
  upcxx::dist_object<upcxx::global_ptr<std::int64_t>> adir(aslots);
  auto apeer = adir.fetch(peer).wait();
  upcxx::barrier();


  upcxx::injector inj;
  std::atomic<int> alive{kThreads};
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t)
    ts.emplace_back([&, t] {
      upcxx::injection_scope scope(inj);
      std::mt19937_64 rng(0x50AC5EEDull + me * 16 + t);
      auto slice = remote + static_cast<std::ptrdiff_t>(t * kSlice);
      // Shadow of the peer-side slice this thread exclusively owns.
      std::vector<std::uint32_t> shadow(kSlice, 0u);
      std::vector<std::uint32_t> buf(kSlice);
      std::int64_t amo_count = 0;

      for (int op = 0; op < kOpsPerThread; ++op) {
        const std::size_t len = 1 + rng() % 2048;
        const std::size_t off = rng() % (kSlice - len + 1);
        switch (rng() % 7) {
          case 0: {  // bulk put
            for (std::size_t i = 0; i < len; ++i)
              shadow[off + i] = static_cast<std::uint32_t>(rng());
            upcxx::rput(shadow.data() + off,
                        slice + static_cast<std::ptrdiff_t>(off), len)
                .wait();
            break;
          }
          case 1: {  // bulk get + shadow verify
            upcxx::rget(slice + static_cast<std::ptrdiff_t>(off),
                        buf.data(), len)
                .wait();
            for (std::size_t i = 0; i < len; ++i)
              ASSERT_EQ(buf[i], shadow[off + i]) << "off=" << off + i;
            break;
          }
          case 2: {  // scalar put
            shadow[off] = static_cast<std::uint32_t>(rng());
            upcxx::rput(shadow[off], slice + static_cast<std::ptrdiff_t>(off))
                .wait();
            break;
          }
          case 3: {  // scalar get + verify
            const auto v =
                upcxx::rget(slice + static_cast<std::ptrdiff_t>(off)).wait();
            ASSERT_EQ(v, shadow[off]);
            break;
          }
          case 4: {  // rpc round trip
            g_sent_to[peer].fetch_add(1);
            const auto x = static_cast<int>(rng() % 1000);
            const int r = upcxx::rpc(
                              peer,
                              [](int a) {
                                g_executed[upcxx::rank_me()].fetch_add(1);
                                return a + 1;
                              },
                              x)
                              .wait();
            ASSERT_EQ(r, x + 1);
            break;
          }
          case 5: {  // copy write
            for (std::size_t i = 0; i < len; ++i)
              shadow[off + i] = static_cast<std::uint32_t>(rng());
            upcxx::copy(shadow.data() + off,
                        slice + static_cast<std::ptrdiff_t>(off), len)
                .wait();
            break;
          }
          default: {  // copy read + verify
            upcxx::copy(slice + static_cast<std::ptrdiff_t>(off),
                        buf.data(), len)
                .wait();
            for (std::size_t i = 0; i < len; ++i)
              ASSERT_EQ(buf[i], shadow[off + i]);
            break;
          }
        }
        // Deterministic mix-ins, independent of the rng stream so every
        // rank runs the same schedule. The fetch_add's shadow is the local
        // count: a dropped or duplicated op skews prev immediately.
        if (op % 24 == 11) {
          const auto prev = ad.fetch_add(apeer + t, 1).wait();
          ASSERT_EQ(prev, amo_count);
          ++amo_count;
        }
        // Rank-level barrier from inside the injection scope, concurrent
        // with the other threads' RMA. Anonymous barriers match by count,
        // and every rank's thread t reaches this at the same op index.
        if (op % 40 == 23) upcxx::barrier();
      }
      // Full-slice final check before leaving the injection scope.
      upcxx::rget(slice, buf.data(), kSlice).wait();
      for (std::size_t i = 0; i < kSlice; ++i) ASSERT_EQ(buf[i], shadow[i]);
      ASSERT_EQ(ad.load(apeer + t).wait(), amo_count);
      alive.fetch_sub(1, std::memory_order_release);
    });

  while (alive.load(std::memory_order_acquire) != 0) upcxx::progress();
  for (auto& th : ts) th.join();

  // Drain any rpc replies still crossing, then settle both ranks.
  while (g_executed[me].load() < g_sent_to[me].load()) upcxx::progress();
  upcxx::barrier();

  // Conservation: every rpc aimed at me executed exactly once.
  EXPECT_EQ(g_executed[me].load(), g_sent_to[me].load());

  // The peer's thread t was the sole writer of local slot t: the landed
  // counts must equal the deterministic fetch_add schedule (5 per thread
  // at kOpsPerThread=120, op % 24 == 11).
  for (int t = 0; t < kThreads; ++t)
    EXPECT_EQ(aslots.local()[t], (kOpsPerThread + 12) / 24);

  upcxx::barrier();
  upcxx::deallocate(aslots);
  upcxx::deallocate(mine);
}

gex::Config soak_cfg() {
  gex::Config cfg = testutil::test_cfg(2);
  cfg.am_transport = gex::AmTransport::kMmap;
  cfg.rma_wire = gex::RmaWire::kAm;   // every RMA crosses the transport
  cfg.rma_async_min = 4096;           // ops above 4KB chunk via XferEngine
  cfg.xfer_chunk_bytes = 2048;
  return cfg;
}

TEST(MtSoak, MmapTransport) {
  EXPECT_EQ(upcxx::run(soak_cfg(), soak_body), 0);
}

}  // namespace
