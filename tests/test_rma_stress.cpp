// Randomized RMA soak: interleaved rput/rget/copy/strided/irregular traffic
// of random sizes across all ranks, on both RMA wires, under the transport
// performance layer's worst settings (tiny chunks so everything pipelines
// through the engine, a small credit window so ops wait in their channels
// and credits churn). Verifies payload integrity against a sender-side
// shadow and full quiescence (idle() engines, every handled put acked) —
// the adversarial lock on the flow-control/ack-aggregation/budget
// machinery, run under ASan/UBSan in CI like the rest of the test tree.
//
// Write-ownership discipline: rank r only ever writes slice r of any
// peer's buffer, and each round partitions that slice into disjoint
// segments with at most one operation per segment — so within a round no
// two in-flight operations overlap, and the slice's post-round state is
// exactly the sender's shadow regardless of completion order (UPC++ leaves
// overlapping unordered RMAs unspecified, so the test never issues them).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "arch/rng.hpp"
#include "gex/rma_am.hpp"
#include "gex/xfer.hpp"
#include "spmd_helpers.hpp"

namespace {

constexpr std::size_t kSlice = 4096;  // longs per (writer, owner) slice
constexpr int kRounds = 10;

long stamp(int writer, int round, std::size_t idx) {
  return (static_cast<long>(writer) << 40) ^
         (static_cast<long>(round) << 28) ^ static_cast<long>(idx);
}

// Samples, taken between progress calls, that found a target's window
// full while its channel still held unissued work: proof that ops really
// waited sender-side. Set by the calling rank's soak_body.
thread_local std::uint64_t t_channel_waits = 0;

// One rank's soak body. Every rank is simultaneously a writer (to its
// slice in every peer) and an owner (serving peers' traffic).
void soak_body(std::uint64_t seed, bool am_wire) {
  const int me = upcxx::rank_me(), P = upcxx::rank_n();
  const std::size_t total = kSlice * static_cast<std::size_t>(P);
  auto mine = upcxx::new_array<long>(total);
  std::fill_n(mine.local(), total, -1L);
  auto dir = upcxx::allgather(mine).wait();
  upcxx::barrier();

  arch::Xoshiro256 rng(seed ^ (0x9e3779b97f4a7c15ULL * (me + 1)));
  // shadow[p] mirrors what my slice of peer p's buffer must hold once all
  // my issued operations complete.
  std::vector<std::vector<long>> shadow(
      P, std::vector<long>(kSlice, -1L));
  // My slice inside owner p's buffer.
  auto slice_of = [&](int p) {
    return dir[p] + static_cast<std::size_t>(me) * kSlice;
  };
  t_channel_waits = 0;

  for (int round = 0; round < kRounds; ++round) {
    upcxx::promise<> pr;
    // Keep every source/sink buffer alive until the round's operations
    // complete.
    std::vector<std::unique_ptr<std::vector<long>>> bufs;
    // Deferred get checks: (sink, expected values).
    std::vector<std::pair<const std::vector<long>*, std::vector<long>>>
        get_checks;
    for (int p = 0; p < P; ++p) {
      if (p == me) continue;
      // Partition my slice of peer p into random disjoint segments.
      std::size_t off = 0;
      while (off < kSlice) {
        const std::size_t len =
            std::min(kSlice - off, 1 + rng.next_below(1024));
        const auto op = rng.next_below(6);
        auto dst = slice_of(p) + off;
        switch (op) {
          case 0: {  // contiguous rput
            auto src = std::make_unique<std::vector<long>>(len);
            for (std::size_t i = 0; i < len; ++i)
              (*src)[i] = stamp(me, round, off + i);
            std::copy(src->begin(), src->end(),
                      shadow[p].begin() + static_cast<long>(off));
            upcxx::rput(src->data(), dst, len,
                        upcxx::operation_cx::as_promise(pr));
            bufs.push_back(std::move(src));
            break;
          }
          case 1: {  // contiguous rget, verified after the round
            auto sink = std::make_unique<std::vector<long>>(len, 7777L);
            std::vector<long> expect(
                shadow[p].begin() + static_cast<long>(off),
                shadow[p].begin() + static_cast<long>(off + len));
            upcxx::rget(dst, sink->data(), len,
                        upcxx::operation_cx::as_promise(pr));
            get_checks.emplace_back(sink.get(), std::move(expect));
            bufs.push_back(std::move(sink));
            break;
          }
          case 2: {  // irregular put: two local fragments, reversed
            auto src = std::make_unique<std::vector<long>>(len);
            for (std::size_t i = 0; i < len; ++i)
              (*src)[i] = stamp(me, round, off + i) ^ 0x5a5aL;
            const std::size_t cut = len / 2;
            // Local order [cut..len) then [0..cut) lands remotely in
            // fragment order: remote gets src[cut..] first.
            std::vector<upcxx::src_fragment<long>> s{
                {src->data() + cut, len - cut}, {src->data(), cut}};
            std::vector<upcxx::dst_fragment<long>> d{{dst, len - cut},
                                                     {dst + (len - cut),
                                                      cut}};
            for (std::size_t i = cut; i < len; ++i)
              shadow[p][off + (i - cut)] = (*src)[i];
            for (std::size_t i = 0; i < cut; ++i)
              shadow[p][off + (len - cut) + i] = (*src)[i];
            upcxx::rput_irregular(s, d,
                                  upcxx::operation_cx::as_promise(pr));
            bufs.push_back(std::move(src));
            break;
          }
          case 3: {  // strided 2D put over the segment's front block
            const std::size_t rows = std::min<std::size_t>(4, len / 4);
            if (rows == 0) break;  // segment too small; leave it alone
            const std::size_t cols = 4;
            auto src =
                std::make_unique<std::vector<long>>(rows * cols);
            for (std::size_t i = 0; i < rows * cols; ++i)
              (*src)[i] = stamp(me, round, off + i) ^ 0x1717L;
            for (std::size_t i = 0; i < rows * cols; ++i)
              shadow[p][off + i] = (*src)[i];
            const auto strides = std::array<std::ptrdiff_t, 2>{
                static_cast<std::ptrdiff_t>(cols * sizeof(long)),
                static_cast<std::ptrdiff_t>(sizeof(long))};
            upcxx::rput_strided<2>(src->data(), strides, dst, strides,
                                   {rows, cols},
                                   upcxx::operation_cx::as_promise(pr));
            bufs.push_back(std::move(src));
            break;
          }
          case 4: {  // local -> global copy
            auto src = std::make_unique<std::vector<long>>(len);
            for (std::size_t i = 0; i < len; ++i)
              (*src)[i] = stamp(me, round, off + i) ^ 0x2c2cL;
            std::copy(src->begin(), src->end(),
                      shadow[p].begin() + static_cast<long>(off));
            upcxx::copy(src->data(), dst, len,
                        upcxx::operation_cx::as_promise(pr));
            bufs.push_back(std::move(src));
            break;
          }
          default:
            break;  // leave the segment untouched this round
        }
        off += len;
      }
    }
    // wait(), spelled out so the channels are sampled between progress
    // calls.
    auto done = pr.finalize();
    while (!done.is_ready()) {
      upcxx::progress();
      for (int p = 0; p < P; ++p)
        if (am_wire && p != me && gex::rma_am().credits(p) == 0 &&
            gex::xfer().pending_chunks(p) > 0)
          ++t_channel_waits;
    }
    for (const auto& [sink, expect] : get_checks) {
      ASSERT_EQ(sink->size(), expect.size());
      for (std::size_t i = 0; i < expect.size(); ++i)
        ASSERT_EQ((*sink)[i], expect[i]) << "rget payload, round " << round;
    }
    // Every third round: full read-back verification of my slices.
    if (round % 3 == 2) {
      upcxx::barrier();
      for (int p = 0; p < P; ++p) {
        if (p == me) continue;
        std::vector<long> back(kSlice, 9999L);
        upcxx::rget(slice_of(p), back.data(), kSlice).wait();
        for (std::size_t i = 0; i < kSlice; ++i)
          ASSERT_EQ(back[i], shadow[p][i])
              << "slice of rank " << p << " at " << i << ", round "
              << round;
      }
      upcxx::barrier();
    }
  }

  // Quiescence: after the final barrier nothing may remain in flight,
  // queued, or unacknowledged anywhere in the transfer stack.
  upcxx::barrier();
  while (!gex::xfer().idle() || !gex::rma_am().idle()) upcxx::progress();
  EXPECT_TRUE(gex::xfer().idle());
  EXPECT_TRUE(gex::rma_am().idle());
  EXPECT_FALSE(gex::xfer().copies_pending());
  const auto& st = gex::rma_am().stats();
  if (am_wire) {
    // The soak actually exercised the protocol on every rank, in both
    // roles.
    EXPECT_GT(st.puts_sent + st.gets_sent + st.frag_puts_sent +
                  st.frag_gets_sent,
              0u);
    EXPECT_GT(st.puts_handled + st.gets_handled, 0u);
  }
  // The credit window held: never more in flight to one target.
  EXPECT_LE(st.max_outstanding, gex::rma_am().window());
  // Ack conservation: every put this rank handled was acknowledged
  // through exactly one channel (a standalone multi-ack record or a
  // piggyback), and every get it handled was answered by a reply.
  EXPECT_EQ(st.ack_cookies_sent + st.acks_piggybacked,
            st.puts_handled + (st.gets_handled - st.replies_sent));
  EXPECT_EQ(st.cancelled, 0u);
  EXPECT_EQ(st.stale_completions, 0u);
  upcxx::barrier();
  upcxx::delete_array(mine, kSlice * static_cast<std::size_t>(P));
  upcxx::barrier();
}

gex::Config stress_cfg(gex::RmaWire wire) {
  gex::Config cfg = testutil::test_cfg(3);
  cfg.rma_wire = wire;
  cfg.rma_async_min = 4 << 10;    // big ops pipeline through the engine
  cfg.xfer_chunk_bytes = 2 << 10;  // many chunks per op
  cfg.am_window = 4;               // credits churn; requests queue
  return cfg;
}

TEST(RmaStress, RandomizedSoakAmWire) {
  const int fails = upcxx::run(stress_cfg(gex::RmaWire::kAm), [] {
    soak_body(0xC0FFEE, true);
    // The window of 4 provably forces window-blocked ops to wait in their
    // channel for credits.
    EXPECT_GT(t_channel_waits, 0u);
  });
  EXPECT_EQ(fails, 0);
}

TEST(RmaStress, RandomizedSoakDirectWire) {
  const int fails = upcxx::run(stress_cfg(gex::RmaWire::kDirect),
                               [] { soak_body(0xBEEF, false); });
  EXPECT_EQ(fails, 0);
}

// The default-window soak: same traffic at kDefaultAmWindow
// (kAmWindowForceAuto beats any CI window pin), and chunks sized so GET
// payloads exceed eager_max and exercise rendezvous puts and replies under
// racing multi-rank traffic. The conservation asserts inside soak_body (ack
// channels, window bound) are the point.
gex::Config default_window_cfg() {
  gex::Config cfg = testutil::test_cfg(3);
  cfg.rma_wire = gex::RmaWire::kAm;
  cfg.am_transport = gex::AmTransport::kMmap;
  cfg.am_window = gex::kAmWindowForceAuto;
  cfg.rma_async_min = 4 << 10;
  cfg.xfer_chunk_bytes = 16 << 10;  // payloads exceed 8K eager_max
  return cfg;
}

TEST(RmaStress, DefaultWindowSoakMmap) {
  const int fails = upcxx::run(default_window_cfg(), [] {
    EXPECT_EQ(gex::rma_am().window(), gex::kDefaultAmWindow);
    soak_body(0xAD0BE, true);
  });
  EXPECT_EQ(fails, 0);
}

// Flood acceptance: 10k eager puts to one target complete with bounded
// protocol state — the window caps the target's ring and staging exposure,
// the backlog waits in the channel as references to the callers' sources
// (no payload copies), and everything drains to idle.
TEST(RmaStress, EagerPutFloodToOneTarget) {
  gex::Config cfg = testutil::test_cfg(2);
  cfg.rma_wire = gex::RmaWire::kAm;
  cfg.am_window = 8;
  const int fails = upcxx::run(cfg, [] {
    constexpr int kPuts = 10000;
    constexpr std::size_t kN = 64;  // 512 B: the eager path
    static upcxx::global_ptr<long> remote;
    if (upcxx::rank_me() == 1) remote = upcxx::new_array<long>(kN);
    upcxx::barrier();
    if (upcxx::rank_me() == 0) {
      // One source per put: a put waiting for a credit reads its source
      // when it is issued, so none may be rewritten before completion.
      std::vector<long> src(kPuts * kN);
      upcxx::promise<> pr;
      for (int i = 0; i < kPuts; ++i) {
        long* s = src.data() + static_cast<std::size_t>(i) * kN;
        for (std::size_t j = 0; j < kN; ++j)
          s[j] = static_cast<long>(i) * 1000 + static_cast<long>(j);
        upcxx::rput(s, remote, kN, upcxx::operation_cx::as_promise(pr));
        if (!(i % 64)) upcxx::progress();
      }
      // Each progress call issues at most a window's worth: the rest of
      // the flood is held in the channel, not in the protocol.
      EXPECT_GT(gex::xfer().pending_chunks(1), 0u);
      EXPECT_LE(gex::rma_am().outstanding(), gex::rma_am().window());
      pr.finalize().wait();
      const auto& st = gex::rma_am().stats();
      EXPECT_LE(st.max_outstanding, gex::rma_am().window());
      EXPECT_EQ(gex::xfer().pending_chunks(1), 0u);
    }
    upcxx::barrier();
    if (upcxx::rank_me() == 1) {
      // The last completed put's payload is intact.
      EXPECT_EQ(remote.local()[0], (kPuts - 1) * 1000L);
      EXPECT_EQ(remote.local()[kN - 1],
                (kPuts - 1) * 1000L + static_cast<long>(kN) - 1);
      upcxx::delete_array(remote, kN);
    }
    upcxx::barrier();
  });
  EXPECT_EQ(fails, 0);
}

}  // namespace
