// AM-wire transport performance layer: credit-based flow control (the
// UPCXX_AM_WINDOW per-target request window with sender-side queueing) and
// ack aggregation (multi-ack records batched per poll, ack piggybacking on
// reverse traffic). These tests drive gex::RmaAmProtocol directly — raw
// polls, no upcxx progress in the measured phases — so record-level
// behavior (exactly one ack record per poll, acks riding a reverse put) is
// observable instead of averaged away.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "gex/arena.hpp"
#include "gex/rma_am.hpp"
#include "gex/runtime.hpp"
#include "gex/xfer.hpp"
#include "spmd_helpers.hpp"

namespace {

// Raw progress for one rank: inbox + protocol pumps, no upcxx layers.
void pump() {
  gex::am().poll();
  gex::rma_am().poll();
}

std::atomic<int> g_phase{0};
std::atomic<int> g_done{0};

TEST(AmFlowControl, WindowCapsOutstandingPerTarget) {
  g_done = 0;
  gex::Config cfg = testutil::test_cfg(2);
  cfg.rma_wire = gex::RmaWire::kAm;
  cfg.am_window = 4;
  const int fails = upcxx::run(cfg, [] {
    constexpr int kPuts = 64;
    constexpr std::size_t kBytes = 1024;
    static upcxx::global_ptr<char> remote;
    if (upcxx::rank_me() == 1) remote = upcxx::allocate<char>(kBytes);
    upcxx::barrier();
    if (upcxx::rank_me() == 0) {
      auto& proto = gex::rma_am();
      EXPECT_EQ(proto.window(), 4u);
      std::vector<char> src(kBytes, 'w');
      for (int i = 0; i < kPuts; ++i)
        proto.put(1, remote.local(), src.data(), kBytes,
                  [] { g_done.fetch_add(1); });
      // The flood exceeded the window: most requests parked sender-side.
      EXPECT_GT(proto.stats().requests_queued, 0u);
      while (g_done.load() < kPuts) pump();
      const auto& st = proto.stats();
      // At no point were more than W requests unacknowledged on the wire.
      EXPECT_LE(st.max_outstanding, 4u);
      EXPECT_EQ(st.puts_sent, static_cast<std::uint64_t>(kPuts));
      EXPECT_EQ(proto.queued(), 0u);
      EXPECT_TRUE(proto.idle());
    } else {
      while (gex::rma_am().stats().puts_handled <
             static_cast<std::uint64_t>(kPuts))
        pump();
    }
    upcxx::barrier();
    if (upcxx::rank_me() == 1) upcxx::deallocate(remote);
    upcxx::barrier();
  });
  EXPECT_EQ(fails, 0);
}

TEST(AmFlowControl, WindowOneSerializesAndCompletes) {
  g_done = 0;
  gex::Config cfg = testutil::test_cfg(2);
  cfg.rma_wire = gex::RmaWire::kAm;
  cfg.am_window = 1;
  const int fails = upcxx::run(cfg, [] {
    constexpr int kPuts = 100;
    static upcxx::global_ptr<long> remote;
    if (upcxx::rank_me() == 1) remote = upcxx::new_array<long>(1);
    upcxx::barrier();
    if (upcxx::rank_me() == 0) {
      for (long i = 0; i < kPuts; ++i)
        gex::rma_am().put(1, remote.local(), &i, sizeof i,
                          [] { g_done.fetch_add(1); });
      while (g_done.load() < kPuts) pump();
      EXPECT_EQ(gex::rma_am().stats().max_outstanding, 1u);
      EXPECT_TRUE(gex::rma_am().idle());
    } else {
      while (gex::rma_am().stats().puts_handled <
             static_cast<std::uint64_t>(kPuts))
        pump();
      // Worst-case serialization still lands every payload in order: the
      // window forces request i+1 behind request i's ack, so the final
      // value is the last put.
      EXPECT_EQ(*remote.local(), static_cast<long>(kPuts - 1));
    }
    upcxx::barrier();
    if (upcxx::rank_me() == 1) upcxx::delete_array(remote, 1);
    upcxx::barrier();
  });
  EXPECT_EQ(fails, 0);
}

// Both ranks flood each other through a deliberately tiny ring with a tiny
// window: rings fill, windows exhaust, sender queues overflow into the
// bounded-queue stall path — and everything must still drain, because every
// stalled sender keeps polling its own inbox (retiring the peer's credits).
TEST(AmFlowControl, MutualFloodMakesProgress) {
  gex::Config cfg = testutil::test_cfg(2);
  cfg.rma_wire = gex::RmaWire::kAm;
  cfg.am_window = 2;
  cfg.ring_bytes = 8 << 10;  // the minimum: eager records are scarce
  cfg.rma_async_min = 0;     // every rput is one protocol request
  const int fails = upcxx::run(cfg, [] {
    constexpr int kPuts = 2000;
    constexpr std::size_t kN = 128;  // 1 KB payloads
    const int me = upcxx::rank_me();
    auto mine = upcxx::new_array<long>(kN);
    std::fill_n(mine.local(), kN, -1L);
    upcxx::dist_object<upcxx::global_ptr<long>> dir(mine);
    auto peer = dir.fetch(1 - me).wait();
    upcxx::barrier();
    std::vector<long> src(kN);
    upcxx::promise<> pr;
    for (int i = 0; i < kPuts; ++i) {
      for (std::size_t j = 0; j < kN; ++j)
        src[j] = static_cast<long>(i) * 1000 + static_cast<long>(j);
      upcxx::rput(src.data(), peer, kN,
                  upcxx::operation_cx::as_promise(pr));
      if (!(i % 16)) upcxx::progress();
    }
    pr.finalize().wait();
    const auto& st = gex::rma_am().stats();
    EXPECT_LE(st.max_outstanding, 2u);
    EXPECT_LE(st.queued_peak,
              gex::rma_am().window() + gex::RmaAmProtocol::kQueueSlack);
    upcxx::barrier();
    // Peer's last put landed whole.
    EXPECT_EQ(mine.local()[0], (kPuts - 1) * 1000L);
    EXPECT_EQ(mine.local()[kN - 1],
              (kPuts - 1) * 1000L + static_cast<long>(kN) - 1);
    upcxx::barrier();
    upcxx::delete_array(mine, kN);
    upcxx::barrier();
  });
  EXPECT_EQ(fails, 0);
}

// Ack batching, observed at record granularity: the target handles a burst
// of puts in one inbox poll, then its next protocol poll must emit exactly
// ONE standalone multi-ack record carrying every cookie.
TEST(AmAckAggregation, OneAckRecordPerTargetPerPoll) {
  g_phase = 0;
  g_done = 0;
  gex::Config cfg = testutil::test_cfg(2);
  cfg.rma_wire = gex::RmaWire::kAm;
  cfg.am_window = 64;
  const int fails = upcxx::run(cfg, [] {
    constexpr int kPuts = 50;
    static upcxx::global_ptr<long> remote;
    static std::atomic<int> s_parked{0};
    if (upcxx::rank_me() == 1) {
      remote = upcxx::new_array<long>(1);
      s_parked = 0;
    }
    upcxx::barrier();
    // The target must be provably outside any polling loop before the
    // burst goes out, or its barrier-exit progress consumes part of it.
    if (upcxx::rank_me() == 1) s_parked.store(1, std::memory_order_release);
    if (upcxx::rank_me() == 0) {
      while (s_parked.load(std::memory_order_acquire) < 1)
        std::this_thread::yield();
      // Burst of eager puts; the window (64) admits all of them at once.
      for (long i = 0; i < kPuts; ++i)
        gex::rma_am().put(1, remote.local(), &i, sizeof i,
                          [] { g_done.fetch_add(1); });
      EXPECT_EQ(gex::rma_am().stats().requests_queued, 0u);
      g_phase.store(1, std::memory_order_release);
      while (g_done.load() < kPuts) pump();
      EXPECT_TRUE(gex::rma_am().idle());
      g_phase.store(2, std::memory_order_release);
    } else {
      // Hold all polling until the full burst is in our ring, so one poll
      // observes it whole (thread backend: statics are shared).
      while (g_phase.load(std::memory_order_acquire) < 1)
        std::this_thread::yield();
      const auto before = gex::rma_am().stats();
      gex::am().poll(/*max_msgs=*/64);  // handles the whole burst
      const auto mid = gex::rma_am().stats();
      EXPECT_EQ(mid.puts_handled - before.puts_handled,
                static_cast<std::uint64_t>(kPuts));
      EXPECT_EQ(mid.acks_sent, before.acks_sent) << "handler injected";
      gex::rma_am().poll();  // one poll -> one multi-ack record
      const auto after = gex::rma_am().stats();
      EXPECT_EQ(after.acks_sent - before.acks_sent, 1u);
      EXPECT_EQ(after.ack_cookies_sent - before.ack_cookies_sent,
                static_cast<std::uint64_t>(kPuts));
      while (g_phase.load(std::memory_order_acquire) < 2) pump();
    }
    upcxx::barrier();
    if (upcxx::rank_me() == 1) upcxx::delete_array(remote, 1);
    upcxx::barrier();
  });
  EXPECT_EQ(fails, 0);
}

// Ack piggybacking: a target that owes acks and then sends its own request
// in the reverse direction carries those acks on the request record — no
// standalone ack record at all.
TEST(AmAckAggregation, AcksRideReverseTraffic) {
  g_phase = 0;
  g_done = 0;
  static std::atomic<int> s_reverse_done{0};
  s_reverse_done = 0;
  gex::Config cfg = testutil::test_cfg(2);
  cfg.rma_wire = gex::RmaWire::kAm;
  cfg.am_window = 64;
  const int fails = upcxx::run(cfg, [] {
    constexpr int kPuts = 20;
    static upcxx::global_ptr<long> remote0, remote1;
    static std::atomic<int> s_parked{0};
    if (upcxx::rank_me() == 0) remote0 = upcxx::new_array<long>(1);
    if (upcxx::rank_me() == 1) {
      remote1 = upcxx::new_array<long>(1);
      s_parked = 0;
    }
    upcxx::barrier();
    if (upcxx::rank_me() == 1) s_parked.store(1, std::memory_order_release);
    if (upcxx::rank_me() == 0) {
      while (s_parked.load(std::memory_order_acquire) < 1)
        std::this_thread::yield();
      for (long i = 0; i < kPuts; ++i)
        gex::rma_am().put(1, remote1.local(), &i, sizeof i,
                          [] { g_done.fetch_add(1); });
      g_phase.store(1, std::memory_order_release);
      // Serve rank 1's reverse put and collect our piggybacked acks; our
      // completions must all fire even though no ack record was sent.
      while (g_done.load() < kPuts) pump();
      EXPECT_TRUE(gex::rma_am().idle());
      g_phase.store(2, std::memory_order_release);
    } else {
      while (g_phase.load(std::memory_order_acquire) < 1)
        std::this_thread::yield();
      gex::am().poll(64);  // handle the burst: now we owe 20 acks
      const auto before = gex::rma_am().stats();
      // Reverse-direction request: the owed acks ride along.
      long v = 4242;
      gex::rma_am().put(0, remote0.local(), &v, sizeof v,
                        [] { s_reverse_done.fetch_add(1); });
      const auto after = gex::rma_am().stats();
      EXPECT_EQ(after.acks_piggybacked - before.acks_piggybacked,
                static_cast<std::uint64_t>(kPuts));
      EXPECT_EQ(after.acks_sent, before.acks_sent)
          << "standalone ack record sent despite reverse traffic";
      while (s_reverse_done.load() == 0) pump();
      while (g_phase.load(std::memory_order_acquire) < 2) pump();
      EXPECT_EQ(*remote1.local(), static_cast<long>(kPuts - 1));
    }
    upcxx::barrier();
    EXPECT_EQ(*remote0.local(), 4242L);
    upcxx::barrier();
    if (upcxx::rank_me() == 0) upcxx::delete_array(remote0, 1);
    if (upcxx::rank_me() == 1) upcxx::delete_array(remote1, 1);
    upcxx::barrier();
  });
  EXPECT_EQ(fails, 0);
}

// The staged-put bounce pool recycles: a long stream of large puts to one
// target allocates at most `window` staging buffers total — whether each
// put is one contiguous run or a two-run scatter (the same staged record;
// only the descriptor count differs). The descriptors ride in the ring
// record, so each buffer is the payload's size class, not the next one up.
class AmStagingPool : public ::testing::TestWithParam<bool> {};

TEST_P(AmStagingPool, PoolBuffersRecycleAcrossAStream) {
  static bool fragments;
  fragments = GetParam();
  g_done = 0;
  gex::Config cfg = testutil::test_cfg(2);
  cfg.rma_wire = gex::RmaWire::kAm;
  cfg.am_window = 4;
  // The bounce pool under test only engages on shared-memory transports
  // (socket ships puts inline), so pin mmap against the CI matrix.
  cfg.am_transport = gex::AmTransport::kMmap;
  const int fails = upcxx::run(cfg, [] {
    constexpr int kPuts = 64;
    constexpr std::size_t kBytes = 32 << 10;  // far beyond eager_max
    constexpr std::size_t kHalf = kBytes / 2;
    static upcxx::global_ptr<char> remote;
    if (upcxx::rank_me() == 1) remote = upcxx::allocate<char>(kBytes);
    upcxx::barrier();
    if (upcxx::rank_me() == 0) {
      std::vector<char> src(kBytes, 's');
      const std::size_t heap_free = gex::arena().heap().bytes_free();
      const auto dst = reinterpret_cast<std::uintptr_t>(remote.local());
      for (int i = 0; i < kPuts; ++i) {
        auto done = [] { g_done.fetch_add(1); };
        if (fragments)
          gex::rma_am().put_fragments(
              1, {{dst, kHalf}, {dst + kHalf, kHalf}},
              {{src.data(), kHalf}, {src.data() + kHalf, kHalf}}, done);
        else
          gex::rma_am().put(1, remote.local(), src.data(), kBytes, done);
      }
      while (g_done.load() < kPuts) pump();
      const auto& st = gex::rma_am().stats();
      EXPECT_EQ(st.puts_staged, static_cast<std::uint64_t>(kPuts));
      EXPECT_EQ(fragments ? st.frag_puts_sent : st.puts_sent,
                static_cast<std::uint64_t>(kPuts));
      // Every put beyond the first window reused a recycled buffer.
      EXPECT_LE(st.stage_allocs, gex::rma_am().window());
      // The pooled buffers still held are kBytes blocks (plus a block
      // header each).
      EXPECT_LE(heap_free - gex::arena().heap().bytes_free(),
                st.stage_allocs * (kBytes + 256));
    } else {
      while (gex::rma_am().stats().puts_handled <
             static_cast<std::uint64_t>(kPuts))
        pump();
    }
    upcxx::barrier();
    if (upcxx::rank_me() == 1) upcxx::deallocate(remote);
    upcxx::barrier();
  });
  EXPECT_EQ(fails, 0);
}

INSTANTIATE_TEST_SUITE_P(ContiguousAndFragments, AmStagingPool,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "TwoFragmentPuts"
                                             : "ContiguousPuts";
                         });

// The staged-reply pool mirrors the put pool: a long stream of large gets
// from one target stages every reply, recycles the target's reply buffers
// (bounded allocations), and conserves racks on the initiator.
TEST(AmReplyStaging, ReplyPoolRecyclesAcrossAStream) {
  g_done = 0;
  g_phase = 0;
  gex::Config cfg = testutil::test_cfg(2);
  cfg.rma_wire = gex::RmaWire::kAm;
  cfg.am_window = 4;
  // Reply staging requires shared memory; pin mmap against the CI matrix.
  cfg.am_transport = gex::AmTransport::kMmap;
  const int fails = upcxx::run(cfg, [] {
    constexpr int kGets = 64;
    constexpr std::size_t kBytes = 32 << 10;  // far beyond eager_max
    static upcxx::global_ptr<char> remote;
    if (upcxx::rank_me() == 1) {
      remote = upcxx::allocate<char>(kBytes);
      std::fill_n(remote.local(), kBytes, 'r');
    }
    upcxx::barrier();
    if (upcxx::rank_me() == 0) {
      std::vector<std::vector<char>> sinks(
          kGets, std::vector<char>(kBytes, 'x'));
      for (int i = 0; i < kGets; ++i)
        gex::rma_am().get(1, sinks[i].data(), remote.local(), kBytes,
                          [] { g_done.fetch_add(1); });
      while (g_done.load() < kGets) pump();
      const auto& st = gex::rma_am().stats();
      // Every reply arrived through the staged path and was consumed here.
      EXPECT_EQ(st.staged_replies_handled,
                static_cast<std::uint64_t>(kGets));
      for (const auto& s : sinks)
        ASSERT_EQ(s[0], 'r');
      // Rack conservation: each consumed staged reply was acknowledged
      // through exactly one channel.
      while (!gex::rma_am().idle()) pump();
      EXPECT_EQ(st.reply_ack_cookies_sent + st.reply_acks_piggybacked,
                st.staged_replies_handled);
      g_phase.store(1, std::memory_order_release);
    } else {
      while (g_phase.load(std::memory_order_acquire) < 1) pump();
      while (!gex::rma_am().idle()) pump();  // last racks may be in flight
      const auto& st = gex::rma_am().stats();
      EXPECT_EQ(st.replies_staged, static_cast<std::uint64_t>(kGets));
      EXPECT_EQ(st.reply_fallbacks, 0u);
      // Every reply beyond the first window reused a recycled buffer.
      EXPECT_LE(st.reply_stage_allocs, 8u);
      EXPECT_GT(st.reply_pool_hits, 0u);
    }
    upcxx::barrier();
    if (upcxx::rank_me() == 1) upcxx::deallocate(remote);
    upcxx::barrier();
  });
  EXPECT_EQ(fails, 0);
}

// Reply-pool exhaustion falls back to the rendezvous REPLY path: the
// replier runs a private protocol instance whose window (2) is smaller
// than the initiator's (8), so a burst of 8 large gets finds the staged
// bound exhausted after two replies — the rest must still complete through
// the old path, with intact payloads.
TEST(AmReplyStaging, ExhaustedPoolFallsBackToRendezvous) {
  g_done = 0;
  g_phase = 0;
  gex::Config cfg = testutil::test_cfg(2);
  cfg.rma_wire = gex::RmaWire::kAm;
  cfg.am_window = 8;
  // Staged replies and the rendezvous fallback both assume shared
  // memory; pin mmap against the CI matrix.
  cfg.am_transport = gex::AmTransport::kMmap;
  const int fails = upcxx::run(cfg, [] {
    constexpr int kGets = 8;
    constexpr std::size_t kBytes = 32 << 10;
    const int me = upcxx::rank_me();
    static upcxx::global_ptr<char> remote;
    static std::atomic<int> s_parked{0};
    if (me == 1) {
      remote = upcxx::allocate<char>(kBytes);
      std::fill_n(remote.local(), kBytes, 'f');
      s_parked = 0;
    }
    upcxx::barrier();
    // Swap in per-rank protocol instances with mismatched pinned windows;
    // the handlers route through gex::self()->rma_am, so both sides see
    // their own instance.
    gex::RmaAmProtocol proto(
        gex::self()->am,
        gex::AmWindowSetting{false, me == 1 ? 2u : 8u});
    auto* saved = gex::self()->rma_am;
    gex::self()->rma_am = &proto;
    if (me == 1) s_parked.store(1, std::memory_order_release);
    if (me == 0) {
      while (s_parked.load(std::memory_order_acquire) < 1)
        std::this_thread::yield();
      std::vector<std::vector<char>> sinks(
          kGets, std::vector<char>(kBytes, 'x'));
      for (int i = 0; i < kGets; ++i)
        proto.get(1, sinks[i].data(), remote.local(), kBytes,
                  [] { g_done.fetch_add(1); });
      g_phase.store(1, std::memory_order_release);
      while (g_done.load() < kGets) pump();
      const auto& st = proto.stats();
      // A mix: the replier staged up to its window, the rest fell back.
      EXPECT_EQ(st.staged_replies_handled, 2u);
      for (const auto& s : sinks)
        ASSERT_EQ(s[kBytes - 1], 'f');
      while (!proto.idle()) pump();
      g_phase.store(2, std::memory_order_release);
    } else {
      // Hold all polling until the full burst is in our ring, then serve
      // it in one poll: 2 staged replies (the bound), 6 fallbacks.
      while (g_phase.load(std::memory_order_acquire) < 1)
        std::this_thread::yield();
      gex::am().poll(/*max_msgs=*/64);
      proto.poll();
      const auto& st = proto.stats();
      EXPECT_EQ(st.gets_handled, static_cast<std::uint64_t>(kGets));
      EXPECT_EQ(st.replies_sent, static_cast<std::uint64_t>(kGets));
      EXPECT_EQ(st.replies_staged, 2u);
      EXPECT_EQ(st.reply_fallbacks, 6u);
      while (g_phase.load(std::memory_order_acquire) < 2) pump();
      while (!proto.idle()) pump();
    }
    upcxx::barrier();
    gex::self()->rma_am = saved;
    upcxx::barrier();
    if (me == 1) upcxx::deallocate(remote);
    upcxx::barrier();
  });
  EXPECT_EQ(fails, 0);
}

// The adaptive controller is a pure state machine; drive it with synthetic
// RTTs and check the control law: additive growth on timely windowfuls,
// multiplicative backoff (at most once per windowful) on late acks, window
// always within [1, max].
TEST(AmWindowAdaptive, ControllerGrowsShrinksAndStaysBounded) {
  gex::AmWindowController c(4, 16, 2.0);
  EXPECT_EQ(c.window(), 4u);
  EXPECT_EQ(c.max_window(), 16u);
  // Timely acks (at the floor) grow the window one credit per windowful:
  // 4+5+...+15 = 114 acks to reach the ceiling.
  int acks_to_max = 0;
  while (c.window() < 16 && acks_to_max < 1000) {
    c.on_ack(1000);
    ++acks_to_max;
  }
  EXPECT_EQ(c.window(), 16u);
  EXPECT_EQ(acks_to_max, 114);
  // The ceiling holds under continued timely acks.
  for (int i = 0; i < 200; ++i) c.on_ack(1000);
  EXPECT_EQ(c.window(), 16u);
  // One late ack does not shrink twice within a windowful; a sustained
  // late regime halves per windowful down to 1, never below.
  std::uint32_t prev = c.window();
  for (int i = 0; i < 400 && c.window() > 1; ++i) {
    const int d = c.on_ack(50'000'000);
    if (d < 0) {
      EXPECT_EQ(c.window(), prev / 2);
      prev = c.window();
    }
  }
  EXPECT_EQ(c.window(), 1u);
  for (int i = 0; i < 100; ++i) c.on_ack(100'000'000);
  EXPECT_GE(c.window(), 1u);
  EXPECT_LE(c.window(), 16u);
  // Recovery: back in the timely regime, the window climbs again.
  gex::AmWindowController r(2, 8, 2.0);
  for (int i = 0; i < 16; ++i) r.on_ack(60'000'000);  // establish high floor
  const std::uint32_t before = r.window();
  for (int i = 0; i < 200; ++i) r.on_ack(1000);  // fast acks lower the floor
  EXPECT_GT(r.window(), before);
  // Degenerate parameters clamp instead of misbehaving.
  gex::AmWindowController z(0, 0, 0.5);
  EXPECT_EQ(z.window(), 1u);
  z.on_ack(0);
  EXPECT_EQ(z.window(), 1u);
}

}  // namespace
