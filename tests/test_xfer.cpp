// The asynchronous data-motion engine (gex::XferEngine) and its upcxx
// integration: chunked pipelined transfers, bounded work per poll, the
// simulated bandwidth model, completion ordering (source strictly before
// operation under bandwidth gating), remote_cx vs data visibility, and the
// teardown drain.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <numeric>
#include <thread>
#include <vector>

#include "arch/timer.hpp"
#include "gex/rma_am.hpp"
#include "gex/xfer.hpp"
#include "spmd_helpers.hpp"

using testutil::spmd;

namespace {

// ------------------------------------------------- engine-level unit tests
// XferEngine is a plain object: these run without an SPMD region.

// Stands in for the arena's segment registry: every buffer a test names as
// remote memory is registered as a segment of its own, and seg(buf) is
// its wire address.
struct Segs {
  gex::SegmentMap map;
  gex::WireAddr operator()(std::vector<std::byte>& buf) {
    if (!map.contains(buf.data())) map.add(buf.data(), buf.size(), "test");
    return map.encode(buf.data());
  }
};

// A synthetic wire from one contiguous-chunk mover, mover(target, dst, src,
// bytes, done): the engine hands a wire one run per side for every chunk
// of a contiguous transfer.
template <typename Mover>
gex::XferEngine::WireOps chunk_wire(const gex::SegmentMap& map,
                                    Mover mover) {
  using gex::XferEngine;
  XferEngine::WireOps ops;
  ops.put = [&map, mover](int t, const XferEngine::Frag* remote,
                          std::size_t nr, const XferEngine::LocalFrag* local,
                          std::size_t nl, XferEngine::Callback done) mutable {
    EXPECT_EQ(nr, 1u);
    EXPECT_EQ(nl, 1u);
    mover(t, map.try_decode(remote->addr), local->ptr, local->bytes,
          std::move(done));
  };
  ops.get = [&map, mover](int t, const XferEngine::Frag* remote,
                          std::size_t nr, const XferEngine::LocalFrag* local,
                          std::size_t nl, XferEngine::Callback done) mutable {
    EXPECT_EQ(nr, 1u);
    EXPECT_EQ(nl, 1u);
    mover(t, local->ptr, map.try_decode(remote->addr), local->bytes,
          std::move(done));
  };
  return ops;
}

TEST(XferEngine, ChunkedCopySignalsSourceThenLanded) {
  Segs seg;
  gex::XferEngine eng(seg.map, /*chunk_bytes=*/1024, /*bw_gbps=*/0);
  std::vector<std::byte> src(10 * 1024), dst(10 * 1024);
  for (std::size_t i = 0; i < src.size(); ++i)
    src[i] = static_cast<std::byte>(i * 7);
  int order = 0, source_at = 0, landed_at = 0;
  eng.submit(1, seg(dst), src.data(), src.size(),
             [&] { source_at = ++order; }, [&] { landed_at = ++order; });
  EXPECT_FALSE(eng.idle());
  // Nothing moved at submit time.
  EXPECT_EQ(eng.stats().bytes_copied, 0u);
  while (!eng.idle()) eng.poll();
  EXPECT_EQ(source_at, 1);
  EXPECT_EQ(landed_at, 2);
  EXPECT_EQ(src, dst);
  EXPECT_EQ(eng.stats().chunks_copied, 10u);
}

TEST(XferEngine, PollBoundsWorkPerCall) {
  Segs seg;
  gex::XferEngine eng(seg.map, 1024, 0);
  std::vector<std::byte> src(8 * 1024), dst(8 * 1024);
  bool source_fired = false;
  eng.submit(1, seg(dst), src.data(), src.size(),
             [&] { source_fired = true; }, {});
  eng.poll(/*chunk_budget=*/1);
  EXPECT_EQ(eng.stats().chunks_copied, 1u);
  EXPECT_EQ(eng.stats().bytes_copied, 1024u);
  EXPECT_FALSE(source_fired);
  eng.poll(3);
  EXPECT_EQ(eng.stats().chunks_copied, 4u);
  EXPECT_FALSE(eng.idle());
}

TEST(XferEngine, FifoWithinOneTarget) {
  Segs seg;
  gex::XferEngine eng(seg.map, 512, 0);
  std::vector<std::byte> s1(2048), d1(2048), s2(2048), d2(2048);
  std::vector<int> landed;
  eng.submit(1, seg(d1), s1.data(), s1.size(), {},
             [&] { landed.push_back(1); });
  eng.submit(1, seg(d2), s2.data(), s2.size(), {},
             [&] { landed.push_back(2); });
  EXPECT_EQ(eng.inflight(), 2u);
  EXPECT_EQ(eng.channel_count(), 1u);
  while (!eng.idle()) eng.poll(1);
  ASSERT_EQ(landed.size(), 2u);
  EXPECT_EQ(landed[0], 1);
  EXPECT_EQ(landed[1], 2);
}

TEST(XferEngine, SubmitFromInsideAWireCallKeepsTargetFifo) {
  // Wire-call recursion: the first chunk's wire call submits a second
  // transfer to the same target (and one to a new target, which grows the
  // channel set mid-issue). The recursive submit queues behind the
  // transfer being issued, so every chunk of the first goes out before
  // any chunk of the second, and they land in submit order.
  Segs seg;
  gex::XferEngine eng(seg.map, 512, 0);
  std::vector<std::byte> s1(2048, std::byte{1}), d1(2048);
  std::vector<std::byte> s2(2048, std::byte{2}), d2(2048);
  std::vector<std::byte> s3(512, std::byte{3}), d3(512);
  std::vector<int> issued;  // transfer id per chunk to target 1
  std::vector<int> landed;
  bool nested = false;
  auto ops = chunk_wire(seg.map, [&](int target, void* dst, const void* src,
                                     std::size_t n,
                                     gex::XferEngine::Callback done) {
    std::memcpy(dst, src, n);
    if (target == 1)
      issued.push_back(static_cast<const std::byte*>(src)[0] == std::byte{1}
                           ? 1
                           : 2);
    if (!nested) {
      nested = true;
      eng.submit(1, seg(d2), s2.data(), s2.size(), {},
                 [&] { landed.push_back(2); });
      eng.submit(2, seg(d3), s3.data(), s3.size(), {},
                 [&] { landed.push_back(3); });
    }
    done();
  });
  eng.set_wire(std::move(ops));
  eng.submit(1, seg(d1), s1.data(), s1.size(), {},
             [&] { landed.push_back(1); });
  while (!eng.idle()) eng.poll(1);
  EXPECT_EQ(issued, (std::vector<int>{1, 1, 1, 1, 2, 2, 2, 2}));
  ASSERT_EQ(landed.size(), 3u);
  EXPECT_LT(std::find(landed.begin(), landed.end(), 1) - landed.begin(),
            std::find(landed.begin(), landed.end(), 2) - landed.begin());
  EXPECT_EQ(eng.channel_count(), 2u);
  EXPECT_EQ(d1, s1);
  EXPECT_EQ(d2, s2);
  EXPECT_EQ(d3, s3);
}

TEST(XferEngine, IndependentTargetsInterleave) {
  // ROADMAP item: per-target channels. Two equal transfers to different
  // targets share each poll's chunk budget round-robin, so the second
  // target's transfer finishes long before a serialized FIFO would allow
  // (8 chunks each: interleaved, both complete by chunk 16; serialized,
  // target 2 would only start at chunk 9).
  Segs seg;
  gex::XferEngine eng(seg.map, 512, 0);
  std::vector<std::byte> s1(4096), d1(4096), s2(4096), d2(4096);
  bool landed1 = false, landed2 = false;
  eng.submit(1, seg(d1), s1.data(), s1.size(), {}, [&] { landed1 = true; });
  eng.submit(2, seg(d2), s2.data(), s2.size(), {}, [&] { landed2 = true; });
  EXPECT_EQ(eng.channel_count(), 2u);
  // One poll with budget 2 must advance BOTH channels by one chunk.
  eng.poll(2);
  EXPECT_EQ(eng.stats().chunks_copied, 2u);
  EXPECT_EQ(eng.stats().bytes_copied, 1024u);
  // Drive to completion with tiny budgets; both targets finish together.
  int polls = 0;
  while (!eng.idle() && polls < 64) {
    eng.poll(2);
    ++polls;
  }
  EXPECT_TRUE(landed1);
  EXPECT_TRUE(landed2);
  EXPECT_LE(polls, 8);  // 16 chunks at 2 per poll
}

TEST(XferEngine, SlowLinkDoesNotBlockFastTarget) {
  // The head-of-line regression the per-target split exists for: a link
  // whose acks never come back (target 1 holds its one credit) must not
  // delay landings on target 2's link.
  Segs seg;
  gex::XferEngine eng(seg.map, 64 << 10, /*bw_gbps=*/0);
  std::vector<gex::XferEngine::Callback> withheld;
  auto ops = chunk_wire(seg.map, [&](int t, void* dst, const void* src,
                                     std::size_t n,
                                     gex::XferEngine::Callback done) {
    std::memcpy(dst, src, n);
    if (t == 1)
      withheld.push_back(std::move(done));
    else
      done();
  });
  ops.credits = [&](int t) -> std::uint32_t {
    return t == 1 && !withheld.empty() ? 0 : 1;
  };
  eng.set_wire(std::move(ops));
  std::vector<std::byte> s1(1 << 20), d1(1 << 20), s2(1 << 20), d2(1 << 20);
  bool landed_slow = false, landed_fast = false;
  eng.submit(1, seg(d1), s1.data(), s1.size(), {},
             [&] { landed_slow = true; });
  eng.submit(2, seg(d2), s2.data(), s2.size(), {},
             [&] { landed_fast = true; });
  for (int i = 0; i < 64 && !landed_fast; ++i) eng.poll();
  EXPECT_TRUE(landed_fast) << "fast target queued behind the slow link";
  EXPECT_FALSE(landed_slow);
  EXPECT_EQ(withheld.size(), 1u);
  EXPECT_EQ(eng.pending_chunks(1), 15u);
  // The slow link's acks arrive: it drains one chunk per ack.
  while (!eng.idle()) {
    auto due = std::move(withheld);
    withheld.clear();
    for (auto& d : due) d();
    eng.poll();
  }
  EXPECT_TRUE(landed_slow);
}

TEST(XferEngine, WireAcksGateLanding) {
  // A pluggable wire whose chunk completions are withheld: the transfer's
  // source side completes when all chunks are issued, but it must not land
  // until every done callback has fired — the contract the AM wire's acks
  // rely on.
  Segs seg;
  gex::XferEngine eng(seg.map, 1024, 0);
  std::vector<gex::XferEngine::Callback> pending_dones;
  eng.set_wire(chunk_wire(seg.map, [&](int, void* dst, const void* src,
                                       std::size_t n,
                                       gex::XferEngine::Callback done) {
    std::memcpy(dst, src, n);  // a real wire moves the bytes
    pending_dones.push_back(std::move(done));
  }));
  std::vector<std::byte> src(4 * 1024, std::byte{5}), dst(4 * 1024);
  bool source_fired = false, landed = false;
  eng.submit(1, seg(dst), src.data(), src.size(),
             [&] { source_fired = true; }, [&] { landed = true; });
  while (eng.copies_pending()) eng.poll();
  EXPECT_TRUE(source_fired);
  EXPECT_EQ(pending_dones.size(), 4u);
  eng.poll();
  EXPECT_FALSE(landed) << "landed before the wire acked";
  for (auto& d : pending_dones) d();
  eng.poll();
  EXPECT_TRUE(landed);
  EXPECT_EQ(src, dst);
}

TEST(XferEngine, EqualLinksStillSplitEvenly) {
  // One poll's budget is dealt round-robin: two links with work get equal
  // shares.
  Segs seg;
  gex::XferEngine eng(seg.map, 512, 0);
  std::vector<std::byte> s1(4 * 512), d1(4 * 512), s2(4 * 512), d2(4 * 512);
  eng.submit(1, seg(d1), s1.data(), s1.size(), {}, {});
  eng.submit(2, seg(d2), s2.data(), s2.size(), {}, {});
  eng.poll(4);
  EXPECT_EQ(eng.pending_chunks(1), 2u);
  EXPECT_EQ(eng.pending_chunks(2), 2u);
  while (!eng.idle()) eng.poll(1 << 20);
}

TEST(XferEngine, NoCreditsHoldChunksInEngine) {
  // The AM wire's back-pressure contract: while credits(target) is 0 the
  // engine must not push chunks into the wire — they wait in the channel
  // (costing nothing) until credits free. drain_copies honors it too.
  Segs seg;
  gex::XferEngine eng(seg.map, 1024, 0);
  bool open = false;
  int moved = 0;
  auto ops = chunk_wire(seg.map, [&](int, void* dst, const void* src,
                                     std::size_t n,
                                     gex::XferEngine::Callback done) {
    std::memcpy(dst, src, n);
    ++moved;
    done();
  });
  ops.credits = [&](int) -> std::uint32_t { return open ? 8 : 0; };
  eng.set_wire(std::move(ops));
  std::vector<std::byte> src(4 * 1024, std::byte{9}), dst(4 * 1024);
  bool landed = false;
  eng.submit(1, seg(dst), src.data(), src.size(), {},
             [&] { landed = true; });
  eng.poll(64);
  eng.drain_copies();
  EXPECT_EQ(moved, 0) << "chunks pushed into a wire that had no credits";
  EXPECT_TRUE(eng.copies_pending());
  EXPECT_EQ(eng.pending_chunks(1), 4u);
  open = true;  // credits freed
  eng.drain_copies();
  eng.poll();
  EXPECT_EQ(moved, 4);
  EXPECT_TRUE(landed);
  EXPECT_EQ(src, dst);
}

TEST(XferEngine, CreditsMeterBudgetAcrossChannels) {
  // The budget dealer reads the wire's *current* credit count before every
  // chunk (WireOps::credits — on the AM wire, the credit window minus
  // in-flight requests) instead of a static ceiling.
  // Target 1 offers 1 credit, target 2 offers 8, and each chunk holds its
  // credit until its done fires: a budget-8 poll must hand target 1
  // exactly its single credit and spend the other 7 chunks on target 2
  // rather than burning quota on the throttled channel.
  Segs seg;
  gex::XferEngine eng(seg.map, 512, 0);
  int moved1 = 0, moved2 = 0;
  std::vector<gex::XferEngine::Callback> held[3];
  auto ops = chunk_wire(seg.map, [&](int t, void* dst, const void* src,
                                     std::size_t n,
                                     gex::XferEngine::Callback done) {
    std::memcpy(dst, src, n);
    (t == 1 ? moved1 : moved2)++;
    held[t].push_back(std::move(done));
  });
  ops.credits = [&](int t) -> std::uint32_t {
    return (t == 1 ? 1u : 8u) - static_cast<std::uint32_t>(held[t].size());
  };
  eng.set_wire(std::move(ops));
  std::vector<std::byte> s1(8 * 512), d1(8 * 512), s2(8 * 512), d2(8 * 512);
  eng.submit(1, seg(d1), s1.data(), s1.size(), {}, {});
  eng.submit(2, seg(d2), s2.data(), s2.size(), {}, {});
  eng.poll(/*chunk_budget=*/8);
  EXPECT_EQ(moved1, 1) << "throttled channel exceeded its credit window";
  EXPECT_EQ(moved2, 7) << "unused quota did not flow to the open channel";
  // Returned credits are seen by the next poll, so the throttled channel
  // still drains.
  int polls = 0;
  while (!eng.idle() && polls++ < 32) {
    for (auto& h : held) {
      for (auto& d : h) d();
      h.clear();
    }
    eng.poll(8);
  }
  EXPECT_EQ(moved1, 8);
  EXPECT_EQ(moved2, 8);
  EXPECT_EQ(s1, d1);
  EXPECT_EQ(s2, d2);
}

TEST(XferEngine, BandwidthModelGatesLanding) {
  // 4 MB at 0.25 GB/s is ~16.8 ms of virtual wire time, far more than the
  // memcpy itself: on_source fires with the copy, on_landed only once the
  // wire clock has passed.
  constexpr std::size_t kBytes = 4 << 20;
  constexpr double kGbps = 0.25;
  Segs seg;
  gex::XferEngine eng(seg.map, 256 << 10, kGbps);
  std::vector<std::byte> src(kBytes), dst(kBytes);
  std::uint64_t source_ns = 0, landed_ns = 0;
  const std::uint64_t t0 = arch::now_ns();
  eng.submit(1, seg(dst), src.data(), kBytes,
             [&] { source_ns = arch::now_ns(); },
             [&] { landed_ns = arch::now_ns(); });
  eng.drain_copies();
  const std::uint64_t t_drained = arch::now_ns();
  EXPECT_NE(source_ns, 0u);
  const double expect_ns = kBytes / kGbps;  // bytes / (bytes per ns)
  // The not-yet-landed assertion is only meaningful if the drain finished
  // well inside the wire window (a loaded CI host can stall the whole
  // process past it; the ordering checks below hold regardless).
  if (t_drained - t0 < static_cast<std::uint64_t>(expect_ns * 0.5))
    EXPECT_EQ(landed_ns, 0u) << "landed before the virtual wire delivered";
  while (!eng.idle()) eng.poll(1 << 20);
  EXPECT_NE(landed_ns, 0u);
  EXPECT_GE(landed_ns - t0, static_cast<std::uint64_t>(expect_ns * 0.9));
  EXPECT_GT(landed_ns, source_ns);
}

TEST(XferEngine, ZeroByteTransferCompletes) {
  Segs seg;
  gex::XferEngine eng(seg.map, 1024, 0);
  bool source_fired = false, landed = false;
  eng.submit(1, 0, nullptr, 0, [&] { source_fired = true; },
             [&] { landed = true; });
  while (!eng.idle()) eng.poll();
  EXPECT_TRUE(source_fired);
  EXPECT_TRUE(landed);
}

// A run list larger than one chunk becomes consecutive entries, each
// carrying at most 256 B of payload plus 16 B for every remote run after
// its first, with both sides cut at the same byte offsets (their run
// boundaries differ here), and the list's completions fire once, after
// its last entry. Returns the payload of each piece a wire recorded.
std::vector<std::size_t> cut_run_list(Segs& seg, bool install_wire,
                                      int target) {
  using gex::XferEngine;
  XferEngine eng(seg.map, /*chunk_bytes=*/256, /*bw_gbps=*/0);
  std::vector<std::size_t> entry_bytes;
  XferEngine::WireOps ops;
  ops.put = [&](int, const XferEngine::Frag* remote, std::size_t nr,
                const XferEngine::LocalFrag* local, std::size_t nl,
                XferEngine::Callback done) {
    std::vector<XferEngine::LocalFrag> to;
    std::size_t bytes = 0;
    for (std::size_t i = 0; i < nr; ++i) {
      to.push_back({seg.map.try_decode(remote[i].addr),
                    static_cast<std::size_t>(remote[i].bytes)});
      bytes += to.back().bytes;
    }
    EXPECT_LE(bytes + (nr - 1) * sizeof(XferEngine::Frag), 256u);
    std::size_t off = 0;  // gather the local runs, scatter into `to`
    std::vector<std::byte> staged;
    for (std::size_t i = 0; i < nl; ++i) {
      const auto* p = static_cast<const std::byte*>(local[i].ptr);
      staged.insert(staged.end(), p, p + local[i].bytes);
    }
    EXPECT_EQ(staged.size(), bytes);
    for (const auto& t : to) {
      std::memcpy(t.ptr, staged.data() + off, t.bytes);
      off += t.bytes;
    }
    entry_bytes.push_back(bytes);
    done();
  };
  if (install_wire) eng.set_wire(std::move(ops));
  std::vector<std::byte> src(600), dst(600);
  for (std::size_t i = 0; i < src.size(); ++i)
    src[i] = static_cast<std::byte>(i * 13);
  const auto at = [&](std::size_t off) { return seg(dst) + off; };
  int order = 0, source_at = 0, landed_at = 0;
  eng.submit_runs(target, {{at(0), 200}, {at(200), 200}, {at(400), 200}},
                  {{src.data(), 300}, {src.data() + 300, 300}},
                  [&] { source_at = ++order; },
                  [&] { landed_at = ++order; }, /*is_get=*/false);
  EXPECT_EQ(eng.pending_chunks(target), 3u);
  while (!eng.idle()) eng.poll(1);
  EXPECT_EQ(eng.stats().chunks_copied, 3u);
  EXPECT_EQ(eng.stats().bytes_copied, 600u);
  EXPECT_EQ(source_at, 1);
  EXPECT_EQ(landed_at, 2);
  EXPECT_EQ(src, dst);
  return entry_bytes;
}

TEST(XferEngine, RunListsCutToOneChunkPerEntry) {
  Segs seg;
  EXPECT_EQ(cut_run_list(seg, /*install_wire=*/true, 1),
            (std::vector<std::size_t>{240, 240, 120}));
}

TEST(XferEngine, RunListsCutToOneChunkPerEntryOnTheBuiltInMover) {
  Segs seg;
  EXPECT_TRUE(cut_run_list(seg, /*install_wire=*/false, 1).empty());
}

TEST(XferEngine, RunListsCutToOneChunkPerEntryOnTheOwnRankChannel) {
  // Inside a one-rank job the engine's own rank is 0; its channel moves by
  // the built-in mover even with a wire installed.
  Segs seg;
  testutil::spmd(1, [&] {
    EXPECT_TRUE(cut_run_list(seg, /*install_wire=*/true, 0).empty());
  });
}

TEST(XferEngine, ContiguousMiBCutsIntoWholeChunks) {
  // The one-run case of the same cutter: 1 MiB at 64 KiB is 16 pieces of
  // exactly 65,536 B, as a contiguous transfer always was.
  Segs seg;
  gex::XferEngine eng(seg.map, 64 << 10, 0);
  std::vector<std::size_t> pieces;
  eng.set_wire(chunk_wire(seg.map, [&](int, void* dst, const void* src,
                                       std::size_t n,
                                       gex::XferEngine::Callback done) {
    std::memcpy(dst, src, n);
    pieces.push_back(n);
    done();
  }));
  std::vector<std::byte> src(1 << 20, std::byte{7}), dst(1 << 20);
  eng.submit(1, seg(dst), src.data(), src.size(), {}, {});
  EXPECT_EQ(eng.pending_chunks(1), 16u);
  EXPECT_EQ(eng.inflight(), 1u);
  while (!eng.idle()) eng.poll(1 << 20);
  EXPECT_EQ(pieces, std::vector<std::size_t>(16, 64 << 10));
  EXPECT_EQ(eng.stats().max_inflight, 1u);
  EXPECT_EQ(src, dst);
}

// --------------------------------------------------- upcxx-level behavior

// Config that routes every contiguous RMA through the engine in small
// chunks — the async path under maximal stress.
gex::Config async_cfg(int ranks) {
  gex::Config c = testutil::test_cfg(ranks);
  c.rma_async_min = 1;
  c.xfer_chunk_bytes = 1024;
  return c;
}

TEST(AsyncRma, BlockingPutGetRoundTrip) {
  const int fails = upcxx::run(async_cfg(2), [] {
    constexpr std::size_t kN = 64 << 10;  // 64K uint32 = 256 KB, 256 chunks
    auto mine = upcxx::allocate<std::uint32_t>(kN);
    std::fill_n(mine.local(), kN, 0u);
    upcxx::dist_object<upcxx::global_ptr<std::uint32_t>> dir(mine);
    auto peer = dir.fetch(1 - upcxx::rank_me()).wait();
    std::vector<std::uint32_t> src(kN);
    for (std::size_t i = 0; i < kN; ++i)
      src[i] = static_cast<std::uint32_t>(i ^ (upcxx::rank_me() << 20));
    upcxx::rput(src.data(), peer, kN).wait();
    upcxx::barrier();
    std::vector<std::uint32_t> back(kN);
    upcxx::rget(mine, back.data(), kN).wait();
    for (std::size_t i = 0; i < kN; ++i)
      ASSERT_EQ(back[i], i ^ ((1u - upcxx::rank_me()) << 20)) << i;
    upcxx::barrier();
    upcxx::deallocate(mine);
  });
  EXPECT_EQ(fails, 0);
}

TEST(AsyncRma, SourceFiresBeforeOperationUnderSimBandwidth) {
  gex::Config cfg = async_cfg(2);
  cfg.xfer_chunk_bytes = 64 << 10;
  cfg.sim_bw_gbps = 0.125;  // far below memcpy bandwidth: wire is the gate
  const int fails = upcxx::run(cfg, [] {
    // 4 MB (the test segment is 8 MB): ~34 ms of virtual wire time, a wide
    // margin over the copy drain even on a preempted CI host.
    constexpr std::size_t kBytes = 4 << 20;
    static upcxx::global_ptr<char> remote;
    if (upcxx::rank_me() == 1) remote = upcxx::allocate<char>(kBytes);
    upcxx::barrier();
    ASSERT_TRUE(upcxx::rank_me() == 0 || !remote.is_null());
    if (upcxx::rank_me() == 0) {
      std::vector<char> src(kBytes, 'b');
      upcxx::promise<> src_done;
      auto op = upcxx::rput(src.data(), remote, kBytes,
                            upcxx::operation_cx::as_future() |
                                upcxx::source_cx::as_promise(src_done));
      auto src_fut = src_done.finalize();
      // Drive progress until the source drains; the copies finish at
      // memcpy speed, while the operation is gated behind ~34 ms of
      // virtual wire time — it cannot have completed yet.
      while (!src_fut.is_ready()) upcxx::progress();
      EXPECT_FALSE(op.is_ready())
          << "operation completed with the source, despite bandwidth gating";
      op.wait();
    }
    upcxx::barrier();
    if (upcxx::rank_me() == 1) upcxx::deallocate(remote);
    upcxx::barrier();
  });
  EXPECT_EQ(fails, 0);
}

std::atomic<int> g_landed_ok{0};

TEST(AsyncRma, RemoteCxSeesFullyLandedData) {
  g_landed_ok = 0;
  const int fails = upcxx::run(async_cfg(2), [] {
    constexpr std::size_t kN = 128 << 10;  // 512 KB in 1 KB chunks
    static upcxx::global_ptr<std::uint32_t> remote;
    if (upcxx::rank_me() == 1) remote = upcxx::allocate<std::uint32_t>(kN);
    upcxx::barrier();
    if (upcxx::rank_me() == 0) {
      std::vector<std::uint32_t> src(kN);
      std::iota(src.begin(), src.end(), 1u);
      upcxx::rput(src.data(), remote, kN,
                  upcxx::operation_cx::as_future() |
                      upcxx::remote_cx::as_rpc(
                          [](upcxx::global_ptr<std::uint32_t> where,
                             std::size_t n) {
                            // Runs at the target: every chunk must have
                            // landed, first through last.
                            if (where.local()[0] == 1u &&
                                where.local()[n - 1] ==
                                    static_cast<std::uint32_t>(n))
                              g_landed_ok.fetch_add(1);
                          },
                          remote, kN))
          .wait();
    } else {
      while (g_landed_ok.load() == 0) upcxx::progress();
    }
    upcxx::barrier();
    if (upcxx::rank_me() == 1) upcxx::deallocate(remote);
    upcxx::barrier();
  });
  EXPECT_EQ(fails, 0);
  EXPECT_EQ(g_landed_ok.load(), 1);
}

TEST(AsyncRma, SourceLpcFiresOnInitiator) {
  const int fails = upcxx::run(async_cfg(2), [] {
    constexpr std::size_t kN = 16 << 10;
    static upcxx::global_ptr<char> remote;
    if (upcxx::rank_me() == 1) remote = upcxx::allocate<char>(kN);
    upcxx::barrier();
    if (upcxx::rank_me() == 0) {
      std::vector<char> src(kN, 'z');
      bool src_fired = false;
      auto op = upcxx::rput(src.data(), remote, kN,
                            upcxx::operation_cx::as_future() |
                                upcxx::source_cx::as_lpc(
                                    [&src_fired] { src_fired = true; }));
      while (!src_fired) upcxx::progress();
      op.wait();
    }
    upcxx::barrier();
    if (upcxx::rank_me() == 1) upcxx::deallocate(remote);
    upcxx::barrier();
  });
  EXPECT_EQ(fails, 0);
}

TEST(AsyncRma, SourceAndOperationFuturesTogether) {
  // Both futures from one call: returns tuple (source first). Previously
  // rejected by a static_assert; cx_state backs both.
  const int fails = upcxx::run(async_cfg(2), [] {
    constexpr std::size_t kN = 8 << 10;
    static upcxx::global_ptr<char> remote;
    if (upcxx::rank_me() == 1) remote = upcxx::allocate<char>(kN);
    upcxx::barrier();
    if (upcxx::rank_me() == 0) {
      std::vector<char> src(kN, 'q');
      auto [src_fut, op_fut] =
          upcxx::rput(src.data(), remote, kN,
                      upcxx::source_cx::as_future() |
                          upcxx::operation_cx::as_future());
      src_fut.wait();
      op_fut.wait();
      EXPECT_TRUE(src_fut.is_ready());
      EXPECT_TRUE(op_fut.is_ready());
    }
    upcxx::barrier();
    if (upcxx::rank_me() == 1) upcxx::deallocate(remote);
    upcxx::barrier();
  });
  EXPECT_EQ(fails, 0);
}

TEST(AsyncRma, BothFuturesOnSyncPathToo) {
  spmd(2, [] {
    static upcxx::global_ptr<long> remote;
    if (upcxx::rank_me() == 1) remote = upcxx::allocate<long>(1);
    upcxx::barrier();
    if (upcxx::rank_me() == 0) {
      auto [src_fut, op_fut] =
          upcxx::rput(42L, remote,
                      upcxx::source_cx::as_future() |
                          upcxx::operation_cx::as_future());
      src_fut.wait();
      op_fut.wait();
    }
    upcxx::barrier();
    if (upcxx::rank_me() == 1) {
      EXPECT_EQ(*remote.local(), 42L);
      upcxx::deallocate(remote);
    }
    upcxx::barrier();
  });
}

TEST(AsyncRma, DataVisibleAfterBarrierWithoutWait) {
  // The pre-engine idiom: issue a put (tracked only by a promise that is
  // never waited before the barrier), then barrier, then the target reads.
  // Barrier entry drains the engine's pending copies, keeping this legal.
  const int fails = upcxx::run(async_cfg(2), [] {
    constexpr std::size_t kN = 32 << 10;
    static upcxx::global_ptr<std::uint64_t> remote;
    if (upcxx::rank_me() == 1) remote = upcxx::allocate<std::uint64_t>(kN);
    upcxx::barrier();
    static std::vector<std::uint64_t> src;  // outlives the barrier
    if (upcxx::rank_me() == 0) {
      src.assign(kN, 0xabcdefull);
      upcxx::promise<> p;
      upcxx::rput(src.data(), remote, kN,
                  upcxx::operation_cx::as_promise(p));
      // Deliberately no wait before the barrier.
      upcxx::barrier();
      p.finalize().wait();
    } else {
      upcxx::barrier();
      EXPECT_EQ(remote.local()[kN - 1], 0xabcdefull);
    }
    upcxx::barrier();
    if (upcxx::rank_me() == 1) upcxx::deallocate(remote);
    upcxx::barrier();
  });
  EXPECT_EQ(fails, 0);
}

TEST(AsyncRma, TeardownDrainsInFlightTransfers) {
  // Exiting the SPMD body with a transfer still in flight must not lose the
  // data or crash teardown: fini_persona lands everything.
  gex::Config cfg = async_cfg(2);
  cfg.sim_bw_gbps = 1.0;
  const int fails = upcxx::run(cfg, [] {
    constexpr std::size_t kN = 1 << 20;
    static upcxx::global_ptr<char> remote;
    if (upcxx::rank_me() == 1) remote = upcxx::allocate<char>(kN);
    upcxx::barrier();
    static std::vector<char> src;  // must outlive the SPMD body's return
    if (upcxx::rank_me() == 0) {
      src.assign(kN, 'd');
      upcxx::promise<> p;
      upcxx::rput(src.data(), remote, kN,
                  upcxx::operation_cx::as_promise(p));
      // Fall out of the body without waiting.
    }
  });
  EXPECT_EQ(fails, 0);
}

// End-to-end on the AM wire: the same chunked engine path, but every chunk
// is an AM put/get request and completion waits for the target's acks.
TEST(AsyncRma, AmWireBlockingPutGetRoundTrip) {
  gex::Config cfg = async_cfg(2);
  cfg.rma_wire = gex::RmaWire::kAm;
  const int fails = upcxx::run(cfg, [] {
    constexpr std::size_t kN = 32 << 10;  // 128 KB in 1 KB chunks
    auto mine = upcxx::allocate<std::uint32_t>(kN);
    std::fill_n(mine.local(), kN, 0u);
    upcxx::dist_object<upcxx::global_ptr<std::uint32_t>> dir(mine);
    auto peer = dir.fetch(1 - upcxx::rank_me()).wait();
    std::vector<std::uint32_t> src(kN);
    for (std::size_t i = 0; i < kN; ++i)
      src[i] = static_cast<std::uint32_t>(i ^ (upcxx::rank_me() << 20));
    const auto puts_before = gex::rma_am().stats().puts_sent;
    upcxx::rput(src.data(), peer, kN).wait();
    EXPECT_GT(gex::rma_am().stats().puts_sent, puts_before)
        << "am wire selected but no AM put requests went out";
    upcxx::barrier();
    std::vector<std::uint32_t> back(kN);
    upcxx::rget(mine, back.data(), kN).wait();
    for (std::size_t i = 0; i < kN; ++i)
      ASSERT_EQ(back[i], i ^ ((1u - upcxx::rank_me()) << 20)) << i;
    upcxx::barrier();
    upcxx::deallocate(mine);
  });
  EXPECT_EQ(fails, 0);
}

// The per-target channel regression at the upcxx level: on the AM wire,
// rank 0 floods rank 1, which is parked without progress (no acks come
// back), then puts to rank 2; the second op must complete while the first
// is still stuck in its channel.
TEST(AsyncRma, SlowLinkDoesNotDelayOtherTargetsOps) {
  gex::Config cfg = testutil::test_cfg(3);
  cfg.rma_wire = gex::RmaWire::kAm;
  // A parked socket peer stops reading, so its kernel buffer could fill
  // and block rank 0's sends; the ring transport has no such stall.
  cfg.am_transport = gex::AmTransport::kMmap;
  const int fails = upcxx::run(cfg, [] {
    constexpr std::size_t kBytes = 1 << 20;
    static upcxx::global_ptr<char> bufs[3];
    static std::atomic<bool> s_parked{false}, s_release{false};
    const int me = upcxx::rank_me();
    bufs[me] = upcxx::allocate<char>(kBytes);
    s_parked = false;
    s_release = false;
    upcxx::barrier();
    if (me == 0) {
      // Rank 1 may still be polling inside the barrier: wait until it
      // parks. Thread backend: the static directory is shared, read it
      // directly.
      while (!s_parked.load(std::memory_order_acquire))
        std::this_thread::yield();
      std::vector<char> src(kBytes, 'x');
      auto slow = upcxx::rput(src.data(), bufs[1], kBytes);
      auto fast = upcxx::rput(src.data(), bufs[2], kBytes);
      fast.wait();
      EXPECT_FALSE(slow.is_ready())
          << "fast-target op waited for the parked target";
      s_release.store(true, std::memory_order_release);
      slow.wait();
    } else if (me == 1) {
      s_parked.store(true, std::memory_order_release);
      while (!s_release.load(std::memory_order_acquire))
        std::this_thread::yield();
    }
    upcxx::barrier();
    if (me != 0) EXPECT_EQ(bufs[me].local()[kBytes - 1], 'x');
    upcxx::barrier();
    upcxx::deallocate(bufs[me]);
  });
  EXPECT_EQ(fails, 0);
}

// Engine stats surface through the rank for observability.
TEST(AsyncRma, EngineStatsAdvance) {
  const int fails = upcxx::run(async_cfg(2), [] {
    constexpr std::size_t kN = 64 << 10;
    static upcxx::global_ptr<char> remote;
    if (upcxx::rank_me() == 1) remote = upcxx::allocate<char>(kN);
    upcxx::barrier();
    if (upcxx::rank_me() == 0) {
      std::vector<char> src(kN, 's');
      const auto before = gex::xfer().stats();
      upcxx::rput(src.data(), remote, kN).wait();
      const auto& after = gex::xfer().stats();
      EXPECT_EQ(after.submitted - before.submitted, 1u);
      EXPECT_GE(after.chunks_copied - before.chunks_copied, kN / 1024);
      EXPECT_EQ(after.landed - before.landed, 1u);
    }
    upcxx::barrier();
    if (upcxx::rank_me() == 1) upcxx::deallocate(remote);
    upcxx::barrier();
  });
  EXPECT_EQ(fails, 0);
}

}  // namespace
