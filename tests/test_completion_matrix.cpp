// Parameterized completion matrix: every RMA-ish operation kind crossed
// with every initiator-side completion kind, on the instant wire and under
// simulated latency, on both data-motion paths (synchronous injection-time
// and the asynchronous chunked XferEngine), on both RMA wires (direct
// arena memcpy and the AM put/get protocol). Verifies two invariants
// for every cell:
//   * the data actually lands (one-sided semantics);
//   * the completion fires exactly once, via the requested mechanism, and
//     never before the operation could have completed.
// This pins the paper's completion-object design (§II, §IV-B) across the
// whole surface rather than per-op spot checks.
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <tuple>
#include <vector>

#include "spmd_helpers.hpp"

namespace {

enum class Op {
  rput_bulk,
  rput_scalar,
  rget_bulk,
  copy_g2g,
  rput_strided,
  rput_irregular,
  rget_strided,
  rget_irregular
};
enum class Cx { promise, lpc };

const char* op_name(Op o) {
  switch (o) {
    case Op::rput_bulk: return "rput_bulk";
    case Op::rput_scalar: return "rput_scalar";
    case Op::rget_bulk: return "rget_bulk";
    case Op::copy_g2g: return "copy_g2g";
    case Op::rput_strided: return "rput_strided";
    case Op::rput_irregular: return "rput_irregular";
    case Op::rget_strided: return "rget_strided";
    case Op::rget_irregular: return "rget_irregular";
  }
  return "?";
}
const char* cx_name(Cx c) {
  switch (c) {
    case Cx::promise: return "promise";
    case Cx::lpc: return "lpc";
  }
  return "?";
}

bool is_get(Op o) {
  return o == Op::rget_bulk || o == Op::rget_strided ||
         o == Op::rget_irregular;
}

constexpr std::size_t kN = 64;

// copy_g2g's local staging buffer: deallocated only after the cell's
// completion fired — on the asynchronous paths the copy reads it after
// issue() returns.
upcxx::global_ptr<long> g_staging;

// Issues `op` from rank 0 against rank 1's buffer with completion `cx`;
// returns when complete. Get-like ops fill `sink` from the remote buffer.
template <typename Cxs>
void issue(Op op, upcxx::global_ptr<long> remote, std::vector<long>& src,
           std::vector<long>& sink, Cxs cxs) {
  switch (op) {
    case Op::rput_bulk:
      upcxx::rput(src.data(), remote, kN, std::move(cxs));
      break;
    case Op::rput_scalar:
      upcxx::rput(src[0], remote, std::move(cxs));
      break;
    case Op::rget_bulk:
      upcxx::rget(remote, sink.data(), kN, std::move(cxs));
      break;
    case Op::copy_g2g: {
      // local global -> remote global
      g_staging = upcxx::to_global_ptr(upcxx::allocate<long>(kN).local());
      std::memcpy(g_staging.local(), src.data(), kN * sizeof(long));
      upcxx::copy(g_staging, remote, kN, std::move(cxs));
      break;
    }
    case Op::rput_strided:
      // Treat the buffer as 8x8; move all of it with matching strides.
      upcxx::rput_strided<2>(
          src.data(),
          {static_cast<std::ptrdiff_t>(8 * sizeof(long)),
           static_cast<std::ptrdiff_t>(sizeof(long))},
          remote,
          {static_cast<std::ptrdiff_t>(8 * sizeof(long)),
           static_cast<std::ptrdiff_t>(sizeof(long))},
          {std::size_t{8}, std::size_t{8}}, std::move(cxs));
      break;
    case Op::rput_irregular: {
      std::vector<upcxx::src_fragment<long>> s{{src.data(), kN / 2},
                                               {src.data() + kN / 2,
                                                kN / 2}};
      std::vector<upcxx::dst_fragment<long>> d{{remote, kN / 4},
                                               {remote + kN / 4,
                                                3 * kN / 4}};
      upcxx::rput_irregular(s, d, std::move(cxs));
      break;
    }
    case Op::rget_strided:
      upcxx::rget_strided<2>(
          remote,
          {static_cast<std::ptrdiff_t>(8 * sizeof(long)),
           static_cast<std::ptrdiff_t>(sizeof(long))},
          sink.data(),
          {static_cast<std::ptrdiff_t>(8 * sizeof(long)),
           static_cast<std::ptrdiff_t>(sizeof(long))},
          {std::size_t{8}, std::size_t{8}}, std::move(cxs));
      break;
    case Op::rget_irregular: {
      // Remote fragments gather into writable local fragments.
      std::vector<upcxx::dst_fragment<long>> s{{remote, kN / 4},
                                               {remote + kN / 4,
                                                3 * kN / 4}};
      std::vector<upcxx::local_fragment<long>> d{{sink.data(), kN / 2},
                                                 {sink.data() + kN / 2,
                                                  kN / 2}};
      upcxx::rget_irregular(s, d, std::move(cxs));
      break;
    }
  }
}

// One full cell of the matrix, run inside a 2-rank SPMD region.
void run_cell(Op op, Cx cx) {
  static upcxx::global_ptr<long> remote;
  const int me = upcxx::rank_me();
  if (me == 1) {
    remote = upcxx::new_array<long>(kN);
    for (std::size_t i = 0; i < kN; ++i) remote.local()[i] = -7;
  }
  upcxx::barrier();
  if (me == 0) {
    std::vector<long> src(kN), sink(kN, 0);
    for (std::size_t i = 0; i < kN; ++i)
      src[i] = static_cast<long>(1000 + i);

    bool completed = false;
    switch (cx) {
      case Cx::promise: {
        upcxx::promise<> pr;
        issue(op, remote, src, sink,
              upcxx::operation_cx::as_promise(pr));
        pr.finalize().wait();
        completed = true;
        break;
      }
      case Cx::lpc: {
        bool fired = false;
        issue(op, remote, src, sink,
              upcxx::operation_cx::as_lpc([&fired] { fired = true; }));
        while (!fired) upcxx::progress();
        completed = true;
        break;
      }
    }
    EXPECT_TRUE(completed) << op_name(op) << "/" << cx_name(cx);
    if (!g_staging.is_null()) {
      upcxx::deallocate(g_staging);
      g_staging = {};
    }
    if (is_get(op)) {
      // The remote buffer held -7 everywhere; every get shape must deliver
      // exactly that into the local sink.
      for (std::size_t i = 0; i < kN; ++i)
        EXPECT_EQ(sink[i], -7) << op_name(op) << " data at " << i;
    }
    upcxx::barrier();  // rank 1 checks its buffer
  } else {
    upcxx::barrier();
    if (!is_get(op)) {
      // Every put-like op delivered 1000+i in some arrangement; check the
      // multiset instead of the exact layout (irregular reshuffles).
      std::vector<long> got(remote.local(), remote.local() + kN);
      std::sort(got.begin(), got.end());
      if (op == Op::rput_scalar) {
        EXPECT_EQ(remote.local()[0], 1000);
      } else {
        for (std::size_t i = 0; i < kN; ++i)
          EXPECT_EQ(got[i], static_cast<long>(1000 + i))
              << op_name(op) << " element " << i;
      }
    }
    upcxx::delete_array(remote, kN);
  }
  upcxx::barrier();
}

using Cell = std::tuple<int /*Op*/, int /*Cx*/, int /*latency_ns*/,
                        int /*async*/, int /*wire*/>;

class CompletionMatrix : public ::testing::TestWithParam<Cell> {};

TEST_P(CompletionMatrix, DataLandsAndCompletionFires) {
  const Op op = static_cast<Op>(std::get<0>(GetParam()));
  const Cx cx = static_cast<Cx>(std::get<1>(GetParam()));
  const int latency = std::get<2>(GetParam());
  const bool async = std::get<3>(GetParam()) != 0;
  const bool am = std::get<4>(GetParam()) != 0;
  gex::Config cfg = testutil::test_cfg(2);
  cfg.sim_latency_ns = static_cast<std::uint64_t>(latency);
  // async cells force every contiguous transfer through the XferEngine in
  // small chunks; sync cells disable the engine path entirely (on the am
  // wire that routes everything through single protocol requests instead).
  cfg.rma_async_min = async ? 1 : 0;
  cfg.xfer_chunk_bytes = 256;  // kN longs = 512 B -> 2 chunks
  // wire cells pin the RMA wire explicitly (overriding any environment
  // default) so both protocols are always covered.
  cfg.rma_wire = am ? gex::RmaWire::kAm : gex::RmaWire::kDirect;
  const int fails = upcxx::run(cfg, [op, cx] { run_cell(op, cx); });
  EXPECT_EQ(fails, 0) << op_name(op) << "/" << cx_name(cx) << "/lat"
                      << latency << (async ? "/async" : "/sync")
                      << (am ? "/am" : "/direct");
}

INSTANTIATE_TEST_SUITE_P(
    AllCells, CompletionMatrix,
    ::testing::Combine(::testing::Range(0, 8),  // Op
                       ::testing::Range(0, 2),  // Cx
                       ::testing::Values(0, 5000),
                       ::testing::Range(0, 2),   // data-motion path
                       ::testing::Range(0, 2)),  // RMA wire
    [](const ::testing::TestParamInfo<Cell>& info) {
      return std::string(op_name(static_cast<Op>(std::get<0>(info.param)))) +
             "_" + cx_name(static_cast<Cx>(std::get<1>(info.param))) +
             (std::get<2>(info.param) ? "_lat" : "_instant") +
             (std::get<3>(info.param) ? "_async" : "_sync") +
             (std::get<4>(info.param) ? "_am" : "_direct");
    });

// Future completion is the default path, checked across ops separately
// (issue() above routes future cells through a promise for uniformity).
TEST(CompletionMatrixFuture, FutureCompletionPerOp) {
  gex::Config cfg = testutil::test_cfg(2);
  const int fails = upcxx::run(cfg, [] {
    static upcxx::global_ptr<long> remote;
    if (upcxx::rank_me() == 1) remote = upcxx::new_array<long>(kN);
    upcxx::barrier();
    if (upcxx::rank_me() == 0) {
      std::vector<long> src(kN, 5), sink(kN, 0);
      upcxx::rput(src.data(), remote, kN).wait();
      upcxx::rget(remote, sink.data(), kN).wait();
      EXPECT_EQ(sink, src);
      EXPECT_EQ(upcxx::rget(remote).wait(), 5);
    }
    upcxx::barrier();
    if (upcxx::rank_me() == 1) upcxx::delete_array(remote, kN);
    upcxx::barrier();
  });
  EXPECT_EQ(fails, 0);
}

// Source completion under simulated latency: synchronous on the memcpy
// path, strictly before operation completion on the async engine path
// (tested in depth in test_xfer.cpp). Here: the full cx grid per source
// mechanism, instant wire.
TEST(CompletionMatrixSource, SourceMechanismsFire) {
  gex::Config cfg = testutil::test_cfg(2);
  cfg.rma_async_min = 1;  // engine path: source fires from the drain
  cfg.xfer_chunk_bytes = 256;
  const int fails = upcxx::run(cfg, [] {
    static upcxx::global_ptr<long> remote;
    if (upcxx::rank_me() == 1) remote = upcxx::new_array<long>(kN);
    upcxx::barrier();
    if (upcxx::rank_me() == 0) {
      std::vector<long> src(kN, 3);
      // as_promise
      upcxx::promise<> sp;
      auto f1 = upcxx::rput(src.data(), remote, kN,
                            upcxx::operation_cx::as_future() |
                                upcxx::source_cx::as_promise(sp));
      f1.wait();
      EXPECT_TRUE(sp.finalize().is_ready());
      // as_lpc
      bool src_lpc = false;
      auto f2 = upcxx::rput(src.data(), remote, kN,
                            upcxx::operation_cx::as_future() |
                                upcxx::source_cx::as_lpc(
                                    [&src_lpc] { src_lpc = true; }));
      f2.wait();
      while (!src_lpc) upcxx::progress();
      // as_future together with an operation future (tuple return).
      auto [sf, of] = upcxx::rput(src.data(), remote, kN,
                                  upcxx::source_cx::as_future() |
                                      upcxx::operation_cx::as_future());
      sf.wait();
      of.wait();
    }
    upcxx::barrier();
    if (upcxx::rank_me() == 1) upcxx::delete_array(remote, kN);
    upcxx::barrier();
  });
  EXPECT_EQ(fails, 0);
}

// Ack aggregation must not bend completion ordering: with both ranks
// streaming chunked rputs at each other (so acks ride piggybacked on the
// reverse direction's PUT records rather than standalone ack records),
// every transfer still signals source strictly before operation, and
// every completion fires exactly once.
TEST(CompletionMatrixAckBatching, PiggybackedAcksKeepSourceBeforeOperation) {
  gex::Config cfg = testutil::test_cfg(2);
  cfg.rma_wire = gex::RmaWire::kAm;
  cfg.rma_async_min = 1;
  cfg.xfer_chunk_bytes = 1024;
  cfg.am_window = 4;
  const int fails = upcxx::run(cfg, [] {
    constexpr std::size_t kBytes = 64 << 10;  // 64 chunks, 16 window turns
    constexpr int kOps = 8;
    const int me = upcxx::rank_me();
    auto mine = upcxx::allocate<char>(kBytes);
    upcxx::dist_object<upcxx::global_ptr<char>> dir(mine);
    auto peer = dir.fetch(1 - me).wait();
    upcxx::barrier();
    std::vector<char> src(kBytes, static_cast<char>('a' + me));
    // Both ranks flood simultaneously: each rank's request stream is the
    // other's ack carrier.
    int source_fired = 0, op_fired = 0;
    bool order_ok = true;
    for (int i = 0; i < kOps; ++i) {
      upcxx::rput(src.data(), peer, kBytes,
                  upcxx::source_cx::as_lpc([&] { ++source_fired; }) |
                      upcxx::operation_cx::as_lpc([&, i] {
                        ++op_fired;
                        // Operation i may only complete after its own (and
                        // all earlier) source events: per-channel FIFO.
                        if (source_fired < i + 1) order_ok = false;
                      }));
    }
    while (op_fired < kOps) upcxx::progress();
    EXPECT_EQ(source_fired, kOps);
    EXPECT_EQ(op_fired, kOps);
    EXPECT_TRUE(order_ok)
        << "an operation completed before its transfer's source event";
    upcxx::barrier();
    // The reverse streams actually carried acks: piggybacking happened.
    EXPECT_GT(gex::rma_am().stats().acks_piggybacked, 0u);
    const auto& st = gex::rma_am().stats();
    EXPECT_EQ(st.ack_cookies_sent + st.acks_piggybacked, st.puts_handled);
    upcxx::barrier();
    upcxx::deallocate(mine);
    upcxx::barrier();
  });
  EXPECT_EQ(fails, 0);
}

// Zero-byte cells: every RMA shape at zero length, on both wires and both
// data-motion configurations, must fire its completion exactly once, move
// nothing, and never touch memory through a null/zero memcpy (the UB class
// PR 3 fixed in collectives; this pins the RMA paths). Null local pointers
// are legal at n == 0.
class ZeroByteMatrix
    : public ::testing::TestWithParam<std::tuple<int /*async*/, int /*am*/>> {
};

TEST_P(ZeroByteMatrix, ZeroByteOpsCompleteAndMoveNothing) {
  gex::Config cfg = testutil::test_cfg(2);
  cfg.rma_async_min = std::get<0>(GetParam()) ? 1 : 0;
  cfg.xfer_chunk_bytes = 256;
  cfg.rma_wire = std::get<1>(GetParam()) ? gex::RmaWire::kAm
                                         : gex::RmaWire::kDirect;
  const int fails = upcxx::run(cfg, [] {
    static upcxx::global_ptr<long> remote;
    const int me = upcxx::rank_me();
    if (me == 1) {
      remote = upcxx::new_array<long>(kN);
      for (std::size_t i = 0; i < kN; ++i) remote.local()[i] = -7;
    }
    upcxx::barrier();
    if (me == 0) {
      std::vector<long> buf(kN, 5);
      // Contiguous, valid pointers.
      upcxx::rput(buf.data(), remote, 0).wait();
      upcxx::rget(remote, buf.data(), 0).wait();
      // Contiguous, null local pointer at n == 0.
      upcxx::rput(static_cast<const long*>(nullptr), remote, 0).wait();
      upcxx::rget(remote, static_cast<long*>(nullptr), 0).wait();
      // copy() in both directions (global endpoints must be valid).
      upcxx::copy(buf.data(), remote, 0).wait();
      upcxx::copy(remote, buf.data(), 0).wait();
      // Strided with a zero extent.
      upcxx::rput_strided<2>(
          buf.data(),
          {static_cast<std::ptrdiff_t>(8 * sizeof(long)),
           static_cast<std::ptrdiff_t>(sizeof(long))},
          remote,
          {static_cast<std::ptrdiff_t>(8 * sizeof(long)),
           static_cast<std::ptrdiff_t>(sizeof(long))},
          {std::size_t{0}, std::size_t{8}})
          .wait();
      // Irregular: empty lists.
      upcxx::rput_irregular<long>({}, {}).wait();
      upcxx::rget_irregular<long>({}, {}).wait();
      // Irregular: zero-length fragments mixed with real ones (a trailing
      // zero-length local fragment used to wedge the pairing loop), and a
      // target whose fragments are all zero-length.
      {
        std::vector<upcxx::src_fragment<long>> s{
            {buf.data(), 8}, {buf.data() + 8, 0}};
        std::vector<upcxx::dst_fragment<long>> d{{remote, 0}, {remote, 8}};
        bool fired = false;
        upcxx::rput_irregular(s, d,
                              upcxx::operation_cx::as_lpc(
                                  [&fired] { fired = true; }));
        while (!fired) upcxx::progress();
      }
      {
        std::vector<upcxx::dst_fragment<long>> s{{remote, 0}};
        std::vector<upcxx::local_fragment<long>> d{{nullptr, 0}};
        upcxx::rget_irregular(s, d).wait();
      }
      // rget at 0 bytes must not have disturbed the local buffer either.
      for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(buf[i], 5);
      upcxx::barrier();
    } else {
      upcxx::barrier();
      // The only write was the 8-element irregular put; everything else
      // moved zero bytes.
      for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(remote.local()[i], 5);
      for (std::size_t i = 8; i < kN; ++i)
        EXPECT_EQ(remote.local()[i], -7) << "zero-byte op wrote at " << i;
      upcxx::delete_array(remote, kN);
    }
    upcxx::barrier();
  });
  EXPECT_EQ(fails, 0) << (std::get<0>(GetParam()) ? "async" : "sync") << "/"
                      << (std::get<1>(GetParam()) ? "am" : "direct");
}

INSTANTIATE_TEST_SUITE_P(
    AllZeroByteCells, ZeroByteMatrix,
    ::testing::Combine(::testing::Range(0, 2), ::testing::Range(0, 2)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      return std::string(std::get<0>(info.param) ? "async" : "sync") +
             (std::get<1>(info.param) ? "_am" : "_direct");
    });

// The stats facility: counters move with the operations that ran.
TEST(Stats, CountersTrackOperations) {
  testutil::spmd(2, [] {
    const auto before = upcxx::experimental::stats();
    static upcxx::global_ptr<long> remote;
    if (upcxx::rank_me() == 1) remote = upcxx::new_array<long>(8);
    upcxx::barrier();
    if (upcxx::rank_me() == 0) {
      long v = 9;
      upcxx::rput(&v, remote, 1).wait();
      upcxx::rput(&v, remote, 1).wait();
      long out;
      upcxx::rget(remote, &out, 1).wait();
      upcxx::rpc(1, [] {}).wait();
      int ran = 0;
      upcxx::detail::push_compq([&ran] { ++ran; });
      while (ran == 0) upcxx::progress();
      EXPECT_GE(upcxx::experimental::stats().lpcs_run - before.lpcs_run, 1u);
    }
    upcxx::barrier();
    // Rank 1 executed rank 0's rpc before rank 0's wait returned, so before
    // rank 1 left the barrier.
    if (upcxx::rank_me() == 1)
      EXPECT_EQ(upcxx::experimental::stats().rpcs_executed -
                    before.rpcs_executed,
                1u);
    if (upcxx::rank_me() == 1) upcxx::delete_array(remote, 8);
    upcxx::barrier();
  });
}

}  // namespace
