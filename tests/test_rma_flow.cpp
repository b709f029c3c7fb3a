// AM-wire transport performance layer: credit-based flow control (the
// UPCXX_AM_WINDOW per-target request window, with credit-blocked ops
// waiting in the target's XferEngine channel) and ack aggregation
// (multi-ack records batched per poll, ack piggybacking on reverse
// traffic). These tests drive gex::RmaAmProtocol and its engine directly —
// raw polls, no upcxx progress in the measured phases — so record-level
// behavior (exactly one ack record per poll, acks riding a reverse put) is
// observable instead of averaged away.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "gex/arena.hpp"
#include "gex/rma_am.hpp"
#include "gex/runtime.hpp"
#include "gex/xfer.hpp"
#include "spmd_helpers.hpp"

namespace {

// Raw progress for one rank: the inbox, the protocol and the XferEngine
// channels that feed it, in upcxx's internal-progress order — no upcxx
// layers.
void pump() {
  gex::am().poll();
  gex::rma_am().poll_requests();
  gex::xfer().poll();
  gex::rma_am().flush_acks();
}

// One contiguous protocol put straight onto the wire. The caller holds a
// credit: every use below stays inside the window.
void put_now(int target, gex::WireAddr dst, const void* src, std::size_t n,
             gex::RmaAmProtocol::Done done) {
  const gex::XferEngine::Frag d{dst, n};
  const gex::XferEngine::LocalFrag l{const_cast<void*>(src), n};
  gex::rma_am().start_put(target, &d, 1, &l, 1, std::move(done));
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
      auto& xfer = gex::xfer();
      EXPECT_EQ(proto.window(), 4u);
      EXPECT_EQ(proto.credits(1), 4u);
      std::vector<char> src(kBytes, 'w');
      for (int i = 0; i < kPuts; ++i)
        xfer.submit(1, remote.wire_addr(), src.data(), kBytes, {},
                    [] { g_done.fetch_add(1); });
      // Nothing moves at submit: the whole flood waits in the channel.
      EXPECT_EQ(xfer.pending_chunks(1), static_cast<std::size_t>(kPuts));
      EXPECT_EQ(proto.outstanding(), 0u);
      pump();
      // One poll spent the window; the rest of the flood is still queued
      // in the channel, not in the protocol.
      EXPECT_EQ(proto.credits(1), 0u);
      EXPECT_GT(xfer.pending_chunks(1), 0u);
      while (g_done.load() < kPuts) {
        pump();
        ASSERT_LE(proto.outstanding(), 4u);
      }
      const auto& st = proto.stats();
      // At no point were more than W requests unacknowledged on the wire.
      EXPECT_LE(st.max_outstanding, 4u);
      EXPECT_EQ(st.puts_sent, static_cast<std::uint64_t>(kPuts));
      EXPECT_EQ(xfer.pending_chunks(1), 0u);
      EXPECT_TRUE(xfer.idle());
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
      // Each queued put points at its own source until it is issued.
      std::vector<long> vals(kPuts);
      std::iota(vals.begin(), vals.end(), 0L);
      for (long& v : vals)
        gex::xfer().submit(1, remote.wire_addr(), &v, sizeof v, {},
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

// A window of 1 under a flood of small upcxx puts: the protocol never has
// more than one request in flight while the rest of the flood waits in the
// XferEngine channel (pointing at the callers' buffers), and every put
// lands.
TEST(AmFlowControl, WindowOneFloodWaitsInChannel) {
  gex::Config cfg = testutil::test_cfg(2);
  cfg.rma_wire = gex::RmaWire::kAm;
  cfg.am_window = 1;
  const int fails = upcxx::run(cfg, [] {
    constexpr int kPuts = 256;
    const int me = upcxx::rank_me();
    auto mine = upcxx::new_array<long>(kPuts);
    std::fill_n(mine.local(), kPuts, -1L);
    upcxx::dist_object<upcxx::global_ptr<long>> dir(mine);
    auto peer = dir.fetch(1 - me).wait();
    upcxx::barrier();
    if (me == 0) {
      std::vector<long> vals(kPuts);
      std::iota(vals.begin(), vals.end(), 1L);
      upcxx::promise<> pr;
      for (int i = 0; i < kPuts; ++i)
        upcxx::rput(&vals[i], peer + i, 1,
                    upcxx::operation_cx::as_promise(pr));
      // Issued from the master persona: queued, nothing on the wire yet.
      EXPECT_EQ(gex::xfer().pending_chunks(1),
                static_cast<std::size_t>(kPuts));
      EXPECT_EQ(gex::rma_am().outstanding(), 0u);
      bool saw_backlog = false;
      auto all = pr.finalize();
      while (!all.is_ready()) {
        upcxx::progress();
        ASSERT_LE(gex::rma_am().outstanding(), 1u);
        if (gex::rma_am().outstanding() == 1 &&
            gex::xfer().pending_chunks(1) > 0)
          saw_backlog = true;
      }
      EXPECT_TRUE(saw_backlog);
      EXPECT_EQ(gex::rma_am().stats().max_outstanding, 1u);
      EXPECT_EQ(gex::xfer().pending_chunks(1), 0u);
    }
    upcxx::barrier();
    if (me == 1)
      for (int i = 0; i < kPuts; ++i)
        ASSERT_EQ(mine.local()[i], i + 1L) << "put " << i << " missing";
    upcxx::barrier();
    upcxx::delete_array(mine, kPuts);
    upcxx::barrier();
  });
  EXPECT_EQ(fails, 0);
}

// Every AM-wire op to one target shares that target's channel FIFO, whatever
// its size: a 64 B put issued after a 1 MiB put to the same target lands
// after it — its bytes survive the large put's first chunk over the same
// addresses, and its completion follows the large put's.
TEST(AmChannelFifo, SmallPutLandsAfterEarlierLargePut) {
  gex::Config cfg = testutil::test_cfg(2);
  cfg.rma_wire = gex::RmaWire::kAm;
  const int fails = upcxx::run(cfg, [] {
    constexpr std::size_t kBig = 1 << 20;
    constexpr std::size_t kSmall = 64;
    const int me = upcxx::rank_me();
    auto mine = upcxx::new_array<char>(kBig);
    upcxx::dist_object<upcxx::global_ptr<char>> dir(mine);
    auto peer = dir.fetch(1 - me).wait();
    upcxx::barrier();
    if (me == 0) {
      std::vector<char> big(kBig, 'L'), small(kSmall, 's');
      auto large = upcxx::rput(big.data(), peer, kBig);
      bool large_done_first = false;
      auto tiny = upcxx::rput(small.data(), peer, kSmall).then(
          [&] { large_done_first = large.is_ready(); });
      upcxx::when_all(large, tiny).wait();
      EXPECT_TRUE(large_done_first);
    }
    upcxx::barrier();
    if (me == 1) {
      const char* p = mine.local();
      EXPECT_EQ(std::count(p, p + kSmall, 's'),
                static_cast<std::ptrdiff_t>(kSmall));
      EXPECT_EQ(std::count(p + kSmall, p + kBig, 'L'),
                static_cast<std::ptrdiff_t>(kBig - kSmall));
    }
    upcxx::barrier();
    upcxx::delete_array(mine, kBig);
    upcxx::barrier();
  });
  EXPECT_EQ(fails, 0);
}

// Both ranks flood each other through a deliberately tiny ring with a tiny
// window: rings fill, windows exhaust, and the floods back up in the
// XferEngine channels — and everything must still drain, because every
// sender keeps polling its own inbox (retiring the peer's credits).
TEST(AmFlowControl, MutualFloodMakesProgress) {
  gex::Config cfg = testutil::test_cfg(2);
  cfg.rma_wire = gex::RmaWire::kAm;
  cfg.am_window = 2;
  cfg.ring_bytes = 8 << 10;  // the minimum: eager records are scarce
  const int fails = upcxx::run(cfg, [] {
    constexpr int kPuts = 2000;
    constexpr std::size_t kN = 128;  // 1 KB payloads: one request each
    const int me = upcxx::rank_me();
    auto mine = upcxx::new_array<long>(kN);
    std::fill_n(mine.local(), kN, -1L);
    upcxx::dist_object<upcxx::global_ptr<long>> dir(mine);
    auto peer = dir.fetch(1 - me).wait();
    upcxx::barrier();
    // One source per put: a put waiting for a credit reads its source when
    // it is issued, so none may be rewritten before operation completion.
    std::vector<long> src(kPuts * kN);
    upcxx::promise<> pr;
    for (int i = 0; i < kPuts; ++i) {
      long* s = src.data() + static_cast<std::size_t>(i) * kN;
      for (std::size_t j = 0; j < kN; ++j)
        s[j] = static_cast<long>(i) * 1000 + static_cast<long>(j);
      upcxx::rput(s, peer, kN, upcxx::operation_cx::as_promise(pr));
      if (!(i % 16)) upcxx::progress();
    }
    // Each progress call issues at most a window's worth: the backlog is
    // held in the channel to the peer.
    EXPECT_GT(gex::xfer().pending_chunks(1 - me), 0u);
    pr.finalize().wait();
    const auto& st = gex::rma_am().stats();
    EXPECT_LE(st.max_outstanding, 2u);
    EXPECT_EQ(gex::xfer().pending_chunks(1 - me), 0u);
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
        put_now(1, remote.wire_addr(), &i, sizeof i,
                [] { g_done.fetch_add(1); });
      EXPECT_EQ(gex::rma_am().credits(1), 64u - kPuts);
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
        put_now(1, remote1.wire_addr(), &i, sizeof i,
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
      put_now(0, remote0.wire_addr(), &v, sizeof v,
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

// Large AM-wire payloads ride the AmEngine's rendezvous path, whose
// blocks the engine frees once the handler that reads them returns. A
// long stream of large puts and gets to one target — each one contiguous
// run or a two-run scatter/gather (the same records; only the descriptor
// count differs) — lands every byte, sends every payload beyond eager_max
// as a rendezvous record, and leaves the shared heap exactly as free as
// it found it: no block outlives its record.
class AmRendezvous : public ::testing::TestWithParam<bool> {};

TEST_P(AmRendezvous, LargePutsAndGetsFreeEveryBlock) {
  static bool fragments;
  fragments = GetParam();
  g_done = 0;
  gex::Config cfg = testutil::test_cfg(2);
  cfg.rma_wire = gex::RmaWire::kAm;
  cfg.am_window = 4;
  // Rendezvous needs shared memory (socket ships everything inline), so
  // pin mmap against the CI matrix.
  cfg.am_transport = gex::AmTransport::kMmap;
  const int fails = upcxx::run(cfg, [] {
    constexpr int kOps = 64;
    constexpr std::size_t kBytes = 32 << 10;  // far beyond eager_max
    constexpr std::size_t kHalf = kBytes / 2;
    static upcxx::global_ptr<char> remote;
    std::vector<char> want(kBytes);
    for (std::size_t i = 0; i < kBytes; ++i)
      want[i] = static_cast<char>('a' + i % 23);
    if (upcxx::rank_me() == 1) remote = upcxx::allocate<char>(kBytes);
    upcxx::barrier();
    const std::size_t heap_free = gex::arena().heap().bytes_free();
    upcxx::barrier();
    if (upcxx::rank_me() == 0) {
      const auto am_before = gex::am().stats();
      const gex::WireAddr at = remote.wire_addr();
      auto done = [] { g_done.fetch_add(1); };
      auto submit = [&](char* local, bool get) {
        if (fragments)
          gex::xfer().submit_runs(1, {{at, kHalf}, {at + kHalf, kHalf}},
                                  {{local, kHalf}, {local + kHalf, kHalf}},
                                  {}, done, get);
        else
          gex::xfer().submit(1, at, local, kBytes, {}, done, get);
      };
      for (int i = 0; i < kOps; ++i) submit(want.data(), /*get=*/false);
      while (g_done.load() < kOps) pump();
      std::vector<std::vector<char>> sinks(kOps,
                                           std::vector<char>(kBytes, 'x'));
      for (int i = 0; i < kOps; ++i) submit(sinks[i].data(), /*get=*/true);
      while (g_done.load() < 2 * kOps) pump();
      for (const auto& s : sinks) ASSERT_EQ(s, want);
      const auto& st = gex::rma_am().stats();
      EXPECT_EQ(fragments ? st.frag_puts_sent : st.puts_sent,
                static_cast<std::uint64_t>(kOps));
      EXPECT_EQ(fragments ? st.frag_gets_sent : st.gets_sent,
                static_cast<std::uint64_t>(kOps));
      // Every put went out as a rendezvous record.
      EXPECT_GE(gex::am().stats().sent_rendezvous - am_before.sent_rendezvous,
                static_cast<std::uint64_t>(kOps));
    } else {
      const auto am_before = gex::am().stats();
      while (gex::rma_am().stats().gets_handled <
             static_cast<std::uint64_t>(kOps))
        pump();
      // And every reply went back as one.
      while (gex::am().stats().sent_rendezvous - am_before.sent_rendezvous <
             static_cast<std::uint64_t>(kOps))
        pump();
    }
    upcxx::barrier();
    EXPECT_EQ(gex::arena().heap().bytes_free(), heap_free)
        << "a rendezvous block outlived its record";
    upcxx::barrier();
    if (upcxx::rank_me() == 1) upcxx::deallocate(remote);
    upcxx::barrier();
  });
  EXPECT_EQ(fails, 0);
}

INSTANTIATE_TEST_SUITE_P(ContiguousAndFragments, AmRendezvous,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "TwoFragmentRuns"
                                             : "ContiguousRuns";
                         });

// AM-wire requests that would not fit one record:
// the engine cuts every piece to fit — contiguous chunks to the record
// limit, run lists into entries of at most one chunk — on both transports
// and in both directions. Nothing ever takes the rendezvous path on the
// socket transport, whose peers cannot read this rank's heap.
using FitParam = std::tuple<gex::AmTransport, bool>;  // transport, is_get
class AmRecordFit : public ::testing::TestWithParam<FitParam> {
 protected:
  gex::Config cfg() const {
    gex::Config c = testutil::test_cfg(2);
    c.rma_wire = gex::RmaWire::kAm;
    c.am_transport = std::get<0>(GetParam());
    return c;
  }

  // Moves `nruns` adjacent runs of `run_bytes` between rank 0 and rank 1's
  // segment: one contiguous rput/rget when nruns is 1, else an irregular
  // one whose local side is two runs (so the two sides' boundaries
  // differ). Checks every byte.
  void move_and_check(const gex::Config& c, std::size_t nruns,
                      std::size_t run_bytes) const {
    const bool get = std::get<1>(GetParam());
    const int fails = upcxx::run(c, [=] {
      const std::size_t total = nruns * run_bytes;
      static upcxx::global_ptr<char> remote;
      std::vector<char> want(total);
      for (std::size_t i = 0; i < total; ++i)
        want[i] = static_cast<char>(i * 131 + i / 4093);
      if (upcxx::rank_me() == 1) {
        remote = upcxx::allocate<char>(total);
        if (get) std::copy(want.begin(), want.end(), remote.local());
      }
      upcxx::barrier();
      if (upcxx::rank_me() == 0) {
        std::vector<char> mine = get ? std::vector<char>(total, 0) : want;
        std::vector<upcxx::dst_fragment<char>> theirs;
        for (std::size_t k = 0; k < nruns; ++k)
          theirs.push_back({remote + k * run_bytes, run_bytes});
        const std::size_t half = total / 2;
        if (get && nruns == 1) {
          upcxx::rget(remote, mine.data(), total).wait();
        } else if (get) {
          std::vector<upcxx::local_fragment<char>> into{
              {mine.data(), half}, {mine.data() + half, total - half}};
          upcxx::rget_irregular(theirs, into).wait();
        } else if (nruns == 1) {
          upcxx::rput(mine.data(), remote, total).wait();
        } else {
          std::vector<upcxx::src_fragment<char>> from{
              {mine.data(), half}, {mine.data() + half, total - half}};
          upcxx::rput_irregular(from, theirs).wait();
        }
        if (get) EXPECT_TRUE(mine == want) << "get landed wrong bytes";
        if (!gex::am().transport().shared_memory())
          EXPECT_EQ(gex::am().stats().sent_rendezvous, 0u);
      }
      upcxx::barrier();
      if (upcxx::rank_me() == 1) {
        if (!get)
          EXPECT_TRUE(std::equal(want.begin(), want.end(), remote.local()))
              << "put landed wrong bytes";
        upcxx::deallocate(remote);
      }
      upcxx::barrier();
    });
    EXPECT_EQ(fails, 0);
  }
};

// A 64 KiB chunk plus its header overflows a record at the socket
// transport's 64 KiB record floor.
TEST_P(AmRecordFit, ContiguousMiBAtTheRecordFloor) {
  gex::Config c = cfg();
  c.socket_max_record = 64 << 10;
  move_and_check(c, 1, 1 << 20);
}

// A run list larger than one record is cut into several entries.
TEST_P(AmRecordFit, IrregularRunsAtTheRecordFloor) {
  gex::Config c = cfg();
  c.socket_max_record = 64 << 10;
  move_and_check(c, 4, 64 << 10);
}

// A run list larger than the whole shared heap moves chunk by chunk.
TEST_P(AmRecordFit, IrregularRunsBeyondTheHeap) {
  gex::Config c = cfg();
  c.heap_bytes = 8 << 20;
  c.segment_bytes = 32 << 20;
  move_and_check(c, 4, 4 << 20);
}

INSTANTIATE_TEST_SUITE_P(
    TransportsAndDirections, AmRecordFit,
    ::testing::Combine(::testing::Values(gex::AmTransport::kMmap,
                                         gex::AmTransport::kSocket),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<FitParam>& info) {
      return std::string(std::get<0>(info.param) == gex::AmTransport::kMmap
                             ? "Mmap"
                             : "Socket") +
             (std::get<1>(info.param) ? "Get" : "Put");
    });

// Transfers whose target is the calling rank never become AM requests:
// the engine's own-rank channel moves them by memcpy, with no credit gate
// (window 1 here, and no ack ever arrives), contiguous and run entries
// alike, with mismatched run boundaries on the two sides.
TEST(AmOwnRank, OwnRankTransfersNeverTakeTheWire) {
  gex::Config cfg = testutil::test_cfg(1);
  cfg.rma_wire = gex::RmaWire::kAm;
  cfg.am_window = 1;
  const int fails = upcxx::run(cfg, [] {
    constexpr std::size_t kN = 12;
    auto mine = upcxx::allocate<int>(kN);
    std::fill_n(mine.local(), kN, 0);
    std::vector<int> a{1, 2, 3, 4, 5};
    std::vector<int> b{6, 7, 8, 9, 10, 11, 12};
    std::vector<upcxx::src_fragment<int>> srcs{{a.data(), a.size()},
                                               {b.data(), b.size()}};
    std::vector<upcxx::dst_fragment<int>> dsts{
        {mine, 4}, {mine + 4, 4}, {mine + 8, 4}};
    upcxx::rput_irregular(srcs, dsts).wait();
    std::vector<int> out(kN, -1);
    std::vector<upcxx::dst_fragment<int>> from{{mine, 7}, {mine + 7, 5}};
    std::vector<upcxx::local_fragment<int>> into{{out.data(), 3},
                                                 {out.data() + 3, 9}};
    upcxx::rget_irregular(from, into).wait();
    for (std::size_t i = 0; i < kN; ++i)
      EXPECT_EQ(out[i], static_cast<int>(i + 1));
    std::vector<int> big(8 << 10, 7);
    auto dst = upcxx::allocate<int>(big.size());
    upcxx::rput(big.data(), dst, big.size()).wait();
    EXPECT_EQ(dst.local()[big.size() - 1], 7);
    upcxx::deallocate(dst);
    const auto& st = gex::rma_am().stats();
    EXPECT_EQ(st.puts_sent + st.gets_sent + st.frag_puts_sent +
                  st.frag_gets_sent,
              0u);
    EXPECT_TRUE(gex::rma_am().idle());
    upcxx::deallocate(mine);
  });
  EXPECT_EQ(fails, 0);
}

}  // namespace
