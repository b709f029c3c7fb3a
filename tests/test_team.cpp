// Team and collective tests: split semantics, barriers, broadcast,
// reductions (built-in and custom ops), subset-team collectives.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "spmd_helpers.hpp"

using testutil::spmd;

namespace {

TEST(Team, WorldShape) {
  spmd(6, [] {
    auto& w = upcxx::world();
    EXPECT_EQ(w.rank_n(), 6);
    EXPECT_EQ(w.rank_me(), upcxx::rank_me());
    for (int i = 0; i < 6; ++i) EXPECT_EQ(w[i], i);
    EXPECT_EQ(w.from_world(3), 3);
  });
}

TEST(Team, SplitEvenOdd) {
  spmd(6, [] {
    const int me = upcxx::rank_me();
    upcxx::team sub = upcxx::world().split(me % 2, me);
    EXPECT_EQ(sub.rank_n(), 3);
    EXPECT_EQ(sub.rank_me(), me / 2);
    for (int i = 0; i < sub.rank_n(); ++i)
      EXPECT_EQ(sub[i], 2 * i + (me % 2));
    upcxx::barrier();
  });
}

TEST(Team, SplitKeyControlsOrder) {
  spmd(4, [] {
    const int me = upcxx::rank_me();
    // Reverse order within one color.
    upcxx::team sub = upcxx::world().split(0, -me);
    EXPECT_EQ(sub.rank_n(), 4);
    EXPECT_EQ(sub.rank_me(), 3 - me);
    EXPECT_EQ(sub[0], 3);
    EXPECT_EQ(sub[3], 0);
    upcxx::barrier();
  });
}

TEST(Team, SplitWithNegativeColorExcludes) {
  spmd(4, [] {
    const int me = upcxx::rank_me();
    upcxx::team sub = upcxx::world().split(me == 0 ? -1 : 0, me);
    if (me == 0) {
      EXPECT_EQ(sub.rank_n(), 0);
    } else {
      EXPECT_EQ(sub.rank_n(), 3);
      EXPECT_EQ(sub.rank_me(), me - 1);
    }
    upcxx::barrier();
  });
}

TEST(Team, NestedSplits) {
  spmd(8, [] {
    const int me = upcxx::rank_me();
    upcxx::team half = upcxx::world().split(me / 4, me);  // two teams of 4
    EXPECT_EQ(half.rank_n(), 4);
    upcxx::team quarter = half.split(half.rank_me() / 2, half.rank_me());
    EXPECT_EQ(quarter.rank_n(), 2);
    // Distinct ids across sibling teams.
    EXPECT_NE(half.id(), quarter.id());
    upcxx::barrier();
  });
}

TEST(Team, SplitWhileCollectiveInFlight) {
  // split is a collective on the parent team: it takes its turn behind a
  // non-blocking collective already in flight there, and the child team
  // it builds splits the same way.
  spmd(6, [] {
    const int me = upcxx::rank_me();
    auto world_bar = upcxx::barrier_async();
    upcxx::team half = upcxx::world().split(me % 2, me);
    world_bar.wait();
    EXPECT_EQ(half.rank_n(), 3);
    EXPECT_EQ(half.rank_me(), me / 2);
    auto half_bar = upcxx::barrier_async(half);
    upcxx::team pair = half.split(half.rank_me() / 2, half.rank_me());
    half_bar.wait();
    EXPECT_EQ(pair.rank_n(), half.rank_me() < 2 ? 2 : 1);
    EXPECT_EQ(upcxx::reduce_all(1, upcxx::op_fast_add{}, pair).wait(),
              pair.rank_n());
    upcxx::barrier();
  });
}

TEST(Coll, WorldBarrierSynchronizes) {
  static std::atomic<int> phase{0};
  phase = 0;
  spmd(8, [] {
    phase.fetch_add(1);
    upcxx::barrier();
    EXPECT_EQ(phase.load(), 8);
    upcxx::barrier();
  });
}

TEST(Coll, BarrierAsyncIsNonBlocking) {
  spmd(4, [] {
    auto f = upcxx::barrier_async();
    // Cannot assert not-ready (tiny teams may complete fast), but wait must
    // succeed and all ranks must pass.
    f.wait();
    upcxx::barrier();
  });
}

TEST(Coll, RepeatedBarriersKeepMatching) {
  spmd(4, [] {
    for (int i = 0; i < 100; ++i) upcxx::barrier();
  });
}

TEST(Coll, BroadcastScalarFromEveryRoot) {
  spmd(5, [] {
    for (int root = 0; root < upcxx::rank_n(); ++root) {
      auto f = upcxx::broadcast(upcxx::rank_me() * 10 + root, root);
      EXPECT_EQ(f.wait(), root * 10 + root);
    }
    upcxx::barrier();
  });
}

TEST(Coll, BroadcastString) {
  spmd(4, [] {
    std::string payload =
        upcxx::rank_me() == 2 ? "from-two" : "overwritten";
    auto f = upcxx::broadcast(payload, 2);
    EXPECT_EQ(f.wait(), "from-two");
    upcxx::barrier();
  });
}

TEST(Coll, BroadcastBulkBuffer) {
  spmd(4, [] {
    std::vector<double> buf(257);
    if (upcxx::rank_me() == 1)
      for (std::size_t i = 0; i < buf.size(); ++i)
        buf[i] = static_cast<double>(i) * 1.5;
    upcxx::broadcast(buf.data(), buf.size(), 1).wait();
    for (std::size_t i = 0; i < buf.size(); ++i)
      EXPECT_DOUBLE_EQ(buf[i], static_cast<double>(i) * 1.5);
    upcxx::barrier();
  });
}

TEST(Coll, ReduceAllSum) {
  spmd(7, [] {
    auto f = upcxx::reduce_all(upcxx::rank_me() + 1, upcxx::op_fast_add{});
    EXPECT_EQ(f.wait(), 7 * 8 / 2);
    upcxx::barrier();
  });
}

TEST(Coll, ReduceAllMinMax) {
  spmd(6, [] {
    const int me = upcxx::rank_me();
    EXPECT_EQ(upcxx::reduce_all(me, upcxx::op_fast_min{}).wait(), 0);
    EXPECT_EQ(upcxx::reduce_all(me, upcxx::op_fast_max{}).wait(), 5);
    EXPECT_EQ(upcxx::reduce_all(1u << me, upcxx::op_fast_bit_or{}).wait(),
              0x3Fu);
    upcxx::barrier();
  });
}

TEST(Coll, ReduceOneDeliversAtRoot) {
  spmd(5, [] {
    auto f = upcxx::reduce_one(upcxx::rank_me() + 1, upcxx::op_fast_add{}, 3);
    int v = f.wait();
    if (upcxx::rank_me() == 3) { EXPECT_EQ(v, 15); }
    upcxx::barrier();
  });
}

TEST(Coll, ReduceCustomLambdaOp) {
  spmd(4, [] {
    // Custom associative op: max by absolute value.
    auto f = upcxx::reduce_all(
        (upcxx::rank_me() == 2 ? -100 : upcxx::rank_me()),
        [](int a, int b) { return std::abs(a) > std::abs(b) ? a : b; });
    EXPECT_EQ(f.wait(), -100);
    upcxx::barrier();
  });
}

TEST(Coll, ReduceDouble) {
  spmd(4, [] {
    auto f = upcxx::reduce_all(0.5 * (upcxx::rank_me() + 1),
                               upcxx::op_fast_add{});
    EXPECT_DOUBLE_EQ(f.wait(), 0.5 * 10);
    upcxx::barrier();
  });
}

TEST(Coll, SubsetTeamCollectives) {
  spmd(8, [] {
    const int me = upcxx::rank_me();
    upcxx::team sub = upcxx::world().split(me % 2, me);
    // Sum of world ranks within my parity class.
    auto f = upcxx::reduce_all(me, upcxx::op_fast_add{}, sub);
    const int expect = (me % 2 == 0) ? (0 + 2 + 4 + 6) : (1 + 3 + 5 + 7);
    EXPECT_EQ(f.wait(), expect);
    // Broadcast within the subteam from its rank 1 (world rank 2 or 3).
    auto b = upcxx::broadcast(me, 1, sub);
    EXPECT_EQ(b.wait(), sub[1]);
    upcxx::barrier(sub);
    upcxx::barrier();
  });
}

TEST(Coll, ConcurrentCollectivesOnDifferentTeams) {
  spmd(8, [] {
    const int me = upcxx::rank_me();
    upcxx::team sub = upcxx::world().split(me % 2, me);
    // Interleave: world reduce and subteam reduce in flight simultaneously.
    auto fw = upcxx::reduce_all(1, upcxx::op_fast_add{});
    auto fs = upcxx::reduce_all(1, upcxx::op_fast_add{}, sub);
    EXPECT_EQ(fw.wait(), 8);
    EXPECT_EQ(fs.wait(), 4);
    upcxx::barrier();
  });
}

TEST(Coll, SingletonTeamCollectives) {
  spmd(3, [] {
    upcxx::team solo = upcxx::world().split(upcxx::rank_me(), 0);
    EXPECT_EQ(solo.rank_n(), 1);
    EXPECT_EQ(upcxx::reduce_all(41, upcxx::op_fast_add{}, solo).wait(), 41);
    EXPECT_EQ(upcxx::broadcast(7, 0, solo).wait(), 7);
    upcxx::barrier(solo);
    upcxx::barrier();
  });
}

TEST(Coll, ManyBackToBackReductions) {
  spmd(4, [] {
    for (int i = 0; i < 50; ++i) {
      auto f = upcxx::reduce_all(i * (upcxx::rank_me() + 1),
                                 upcxx::op_fast_add{});
      EXPECT_EQ(f.wait(), i * 10);
    }
    upcxx::barrier();
  });
}

}  // namespace
