// Extended collectives: exclusive scan, bulk elementwise reductions,
// alltoall / alltoallv, and the tree-vs-flat topology knob (the "rich set of
// non-blocking collective operations" the paper's §VI lists as current
// work). All results are checked against serial oracles.
#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "arch/rng.hpp"
#include "spmd_helpers.hpp"

using testutil::spmd;

namespace {

// ------------------------------------------------------------------- scans

TEST(CollectivesExt, ExclusiveScanMatchesOracle) {
  spmd(8, [] {
    const int me = upcxx::rank_me();
    const int v = 3 * me + 1;
    const int got = upcxx::scan_exclusive(v, upcxx::op_fast_add{}).wait();
    int expect = 0;
    for (int i = 0; i < me; ++i) expect += 3 * i + 1;
    EXPECT_EQ(got, expect);
    upcxx::barrier();
  });
}

TEST(CollectivesExt, ExclusiveScanRankZeroIsIdentity) {
  spmd(4, [] {
    const int got = upcxx::scan_exclusive(99, upcxx::op_fast_add{}).wait();
    if (upcxx::rank_me() == 0) EXPECT_EQ(got, 0);
    upcxx::barrier();
  });
}

TEST(CollectivesExt, InclusiveVsExclusiveScanRelation) {
  spmd(8, [] {
    const int v = upcxx::rank_me() + 1;
    const int inc = upcxx::scan_inclusive(v, upcxx::op_fast_add{}).wait();
    const int exc = upcxx::scan_exclusive(v, upcxx::op_fast_add{}).wait();
    EXPECT_EQ(inc, exc + v);
    upcxx::barrier();
  });
}

TEST(CollectivesExt, ScanWithNonCommutativeOp) {
  // Matrix-like 2x2 composition (associative, non-commutative): checks scan
  // preserves rank order.
  struct M2 {
    long a, b, c, d;
  };
  auto mul = [](const M2& x, const M2& y) {
    return M2{x.a * y.a + x.b * y.c, x.a * y.b + x.b * y.d,
              x.c * y.a + x.d * y.c, x.c * y.b + x.d * y.d};
  };
  spmd(6, [mul] {
    const int me = upcxx::rank_me();
    const M2 mine{1, me + 1, 0, 1};  // shear by rank+1
    const M2 got = upcxx::scan_inclusive(mine, mul).wait();
    // Product of shears = shear by sum.
    long sum = 0;
    for (int i = 0; i <= me; ++i) sum += i + 1;
    EXPECT_EQ(got.a, 1);
    EXPECT_EQ(got.b, sum);
    EXPECT_EQ(got.d, 1);
    upcxx::barrier();
  });
}

// ------------------------------------------------------------ bulk reduce

TEST(CollectivesExt, BulkReduceOneElementwiseSum) {
  spmd(4, [] {
    const int me = upcxx::rank_me(), P = upcxx::rank_n();
    std::vector<long> src(257), dst(257, -1);
    for (std::size_t i = 0; i < src.size(); ++i)
      src[i] = static_cast<long>(i) * (me + 1);
    upcxx::reduce_one(src.data(), dst.data(), src.size(),
                      upcxx::op_fast_add{}, /*root=*/2)
        .wait();
    upcxx::barrier();
    if (me == 2) {
      long coef = 0;
      for (int r = 0; r < P; ++r) coef += r + 1;
      for (std::size_t i = 0; i < dst.size(); ++i)
        EXPECT_EQ(dst[i], static_cast<long>(i) * coef) << "element " << i;
    } else {
      for (long x : dst) EXPECT_EQ(x, -1) << "non-root dst must be untouched";
    }
    upcxx::barrier();
  });
}

TEST(CollectivesExt, BulkReduceAllMaxEverywhere) {
  spmd(8, [] {
    const int me = upcxx::rank_me(), P = upcxx::rank_n();
    std::vector<int> src(64), dst(64);
    for (int i = 0; i < 64; ++i) src[i] = (me * 37 + i * 11) % 101;
    upcxx::reduce_all(src.data(), dst.data(), 64, upcxx::op_fast_max{})
        .wait();
    for (int i = 0; i < 64; ++i) {
      int expect = 0;
      for (int r = 0; r < P; ++r)
        expect = std::max(expect, (r * 37 + i * 11) % 101);
      EXPECT_EQ(dst[i], expect);
    }
    upcxx::barrier();
  });
}

TEST(CollectivesExt, BulkReduceInPlaceAliasing) {
  spmd(4, [] {
    std::vector<long> buf(32, upcxx::rank_me() + 1);
    upcxx::reduce_all(buf.data(), buf.data(), 32, upcxx::op_fast_add{})
        .wait();
    const long expect = 1 + 2 + 3 + 4;
    for (long x : buf) EXPECT_EQ(x, expect);
    upcxx::barrier();
  });
}

// --------------------------------------------------------------- alltoall

TEST(CollectivesExt, AlltoallScalars) {
  spmd(8, [] {
    const int me = upcxx::rank_me(), P = upcxx::rank_n();
    std::vector<int> send(P);
    for (int j = 0; j < P; ++j) send[j] = me * 100 + j;
    auto recv = upcxx::alltoall(send).wait();
    ASSERT_EQ(static_cast<int>(recv.size()), P);
    for (int i = 0; i < P; ++i) EXPECT_EQ(recv[i], i * 100 + me);
    upcxx::barrier();
  });
}

TEST(CollectivesExt, AlltoallVariableSizedVectors) {
  // T = std::vector<double>: a personalized alltoallv with per-pair sizes.
  spmd(4, [] {
    const int me = upcxx::rank_me(), P = upcxx::rank_n();
    std::vector<std::vector<double>> send(P);
    for (int j = 0; j < P; ++j) {
      send[j].resize(static_cast<std::size_t>(me * P + j));
      for (std::size_t k = 0; k < send[j].size(); ++k)
        send[j][k] = me * 1000.0 + j * 10.0 + k;
    }
    auto recv = upcxx::alltoall(send).wait();
    for (int i = 0; i < P; ++i) {
      ASSERT_EQ(recv[i].size(), static_cast<std::size_t>(i * P + me));
      for (std::size_t k = 0; k < recv[i].size(); ++k)
        EXPECT_DOUBLE_EQ(recv[i][k], i * 1000.0 + me * 10.0 + k);
    }
    upcxx::barrier();
  });
}

TEST(CollectivesExt, AlltoallStrings) {
  spmd(4, [] {
    const int me = upcxx::rank_me(), P = upcxx::rank_n();
    std::vector<std::string> send(P);
    for (int j = 0; j < P; ++j)
      send[j] = "from" + std::to_string(me) + "to" + std::to_string(j);
    auto recv = upcxx::alltoall(send).wait();
    for (int i = 0; i < P; ++i)
      EXPECT_EQ(recv[i],
                "from" + std::to_string(i) + "to" + std::to_string(me));
    upcxx::barrier();
  });
}

// Contribution records are [u32 rank][pad][u64 length][chars][pad to 8]:
// string lengths 0..9 cover every padding residue, and every round's
// result must be byte-exact on every rank (broadcast shares the encoder).
TEST(CollectivesExt, AllgatherAndBroadcastStringsOfEveryPadding) {
  spmd(4, [] {
    const int me = upcxx::rank_me(), P = upcxx::rank_n();
    auto str = [](int rank, int round) {
      return std::string(static_cast<std::size_t>((round + rank) % 10),
                         static_cast<char>('a' + rank));
    };
    for (int round = 0; round < 10; ++round) {
      auto all = upcxx::allgather(str(me, round)).wait();
      ASSERT_EQ(all.size(), static_cast<std::size_t>(P));
      for (int i = 0; i < P; ++i) EXPECT_EQ(all[i], str(i, round));
      EXPECT_EQ(upcxx::broadcast(str(me, round), round % P).wait(),
                str(round % P, round));
    }
    upcxx::barrier();
  });
}

TEST(CollectivesExt, AlltoallSingleRank) {
  spmd(1, [] {
    std::vector<int> send{42};
    auto recv = upcxx::alltoall(send).wait();
    ASSERT_EQ(recv.size(), 1u);
    EXPECT_EQ(recv[0], 42);
  });
}

TEST(CollectivesExt, AlltoallOnSplitTeam) {
  spmd(8, [] {
    const int me = upcxx::rank_me();
    upcxx::team half = upcxx::world().split(me % 2, me);
    const int tp = half.rank_n(), tme = half.rank_me();
    std::vector<int> send(tp);
    for (int j = 0; j < tp; ++j) send[j] = tme * 10 + j;
    auto recv = upcxx::alltoall(send, half).wait();
    for (int i = 0; i < tp; ++i) EXPECT_EQ(recv[i], i * 10 + tme);
    upcxx::barrier();
  });
}

TEST(CollectivesExt, BackToBackAlltoallsDoNotInterfere) {
  spmd(4, [] {
    const int me = upcxx::rank_me(), P = upcxx::rank_n();
    std::vector<int> s1(P), s2(P);
    for (int j = 0; j < P; ++j) {
      s1[j] = me * 10 + j;
      s2[j] = -(me * 10 + j);
    }
    auto f1 = upcxx::alltoall(s1);
    auto f2 = upcxx::alltoall(s2);  // overlapping, same team
    auto r2 = f2.wait();
    auto r1 = f1.wait();
    for (int i = 0; i < P; ++i) {
      EXPECT_EQ(r1[i], i * 10 + me);
      EXPECT_EQ(r2[i], -(i * 10 + me));
    }
    upcxx::barrier();
  });
}

// ------------------------------------------------------ topology ablation

TEST(CollectivesExt, FlatTopologyProducesSameResults) {
  spmd(8, [] {
    const int me = upcxx::rank_me(), P = upcxx::rank_n();
    upcxx::experimental::set_coll_topology(
        upcxx::detail::CollTopology::flat);
    upcxx::barrier();  // a flat barrier
    const long sum =
        upcxx::reduce_all(static_cast<long>(me + 1), upcxx::op_fast_add{})
            .wait();
    EXPECT_EQ(sum, static_cast<long>(P) * (P + 1) / 2);
    const int bcast = upcxx::broadcast(me == 3 ? 777 : 0, 3).wait();
    EXPECT_EQ(bcast, 777);
    auto gathered = upcxx::allgather(me * me).wait();
    for (int i = 0; i < P; ++i) EXPECT_EQ(gathered[i], i * i);
    upcxx::experimental::set_coll_topology(
        upcxx::detail::CollTopology::tree);
    upcxx::barrier();
  });
}

// Property sweep: reductions agree with the oracle for every rank count.
class CollectivesSweep : public ::testing::TestWithParam<int> {};

TEST_P(CollectivesSweep, ReduceScanGatherConsistency) {
  const int P = GetParam();
  spmd(P, [] {
    const int me = upcxx::rank_me(), n = upcxx::rank_n();
    arch::Xoshiro256 rng(77 + me);
    const long v = static_cast<long>(rng.next() % 1000);
    auto all = upcxx::allgather(v).wait();
    const long total =
        upcxx::reduce_all(v, upcxx::op_fast_add{}).wait();
    const long inc = upcxx::scan_inclusive(v, upcxx::op_fast_add{}).wait();
    const long exc = upcxx::scan_exclusive(v, upcxx::op_fast_add{}).wait();
    long oracle_total = 0, oracle_exc = 0;
    for (int i = 0; i < n; ++i) {
      if (i < me) oracle_exc += all[i];
      oracle_total += all[i];
    }
    EXPECT_EQ(total, oracle_total);
    EXPECT_EQ(inc, oracle_exc + v);
    EXPECT_EQ(exc, me == 0 ? 0 : oracle_exc);
    upcxx::barrier();
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, CollectivesSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

}  // namespace
