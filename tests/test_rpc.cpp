// RPC tests: argument kinds, return kinds (void/value/future), rpc_ff,
// views, dist_object translation — the paper's §II RPC semantics and the
// §IV-C hash-table idioms.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "spmd_helpers.hpp"

using testutil::spmd;

namespace {

TEST(Rpc, VoidReturnYieldsEmptyFuture) {
  static std::atomic<int> hits{0};
  hits = 0;
  spmd(2, [] {
    if (upcxx::rank_me() == 0) {
      auto f = upcxx::rpc(1, [] { hits.fetch_add(1); });
      static_assert(std::is_same_v<decltype(f), upcxx::future<>>);
      f.wait();
      EXPECT_EQ(hits.load(), 1);
    } else {
      while (hits.load() == 0) upcxx::progress();
    }
  });
}

TEST(Rpc, ScalarArgumentsAndResult) {
  spmd(2, [] {
    if (upcxx::rank_me() == 0) {
      auto f = upcxx::rpc(1, [](int a, double b) { return a + b; }, 2, 0.5);
      EXPECT_DOUBLE_EQ(f.wait(), 2.5);
    }
    upcxx::barrier();
  });
}

TEST(Rpc, ExecutesOnTargetRank) {
  spmd(4, [] {
    const int me = upcxx::rank_me();
    const int target = (me + 1) % upcxx::rank_n();
    auto f = upcxx::rpc(target, [] { return upcxx::rank_me(); });
    EXPECT_EQ(f.wait(), target);
    upcxx::barrier();
  });
}

TEST(Rpc, StringRoundTrip) {
  spmd(2, [] {
    if (upcxx::rank_me() == 0) {
      std::string key = "Germany", val = "Bonn";
      auto f = upcxx::rpc(1,
                          [](const std::string& k, const std::string& v) {
                            return k + ":" + v;
                          },
                          key, val);
      EXPECT_EQ(f.wait(), "Germany:Bonn");
    }
    upcxx::barrier();
  });
}

TEST(Rpc, VectorArgument) {
  spmd(2, [] {
    if (upcxx::rank_me() == 0) {
      std::vector<int> v{1, 2, 3, 4};
      auto f = upcxx::rpc(1, [](const std::vector<int>& x) {
        int s = 0;
        for (int e : x) s += e;
        return s;
      }, v);
      EXPECT_EQ(f.wait(), 10);
    }
    upcxx::barrier();
  });
}

TEST(Rpc, FutureReturningCallbackIsUnwrapped) {
  // The paper's RMA-enabled DHT insert chains an RPC whose lambda itself
  // produces a future; the initiator sees a single flat future.
  spmd(2, [] {
    if (upcxx::rank_me() == 0) {
      auto f = upcxx::rpc(1, [](int x) {
        // Remote side produces an already-ready future.
        return upcxx::make_future(x * 2);
      }, 21);
      static_assert(std::is_same_v<decltype(f), upcxx::future<int>>);
      EXPECT_EQ(f.wait(), 42);
    }
    upcxx::barrier();
  });
}

TEST(Rpc, FutureReturningCallbackDeferred) {
  // Remote future completes later (via a progress-driven fulfillment).
  spmd(2, [] {
    if (upcxx::rank_me() == 0) {
      auto f = upcxx::rpc(1, [] {
        upcxx::promise<int> pr;
        upcxx::detail::push_compq([pr]() mutable { pr.fulfill_result(77); });
        return pr.get_future();
      });
      EXPECT_EQ(f.wait(), 77);
    }
    upcxx::barrier();
  });
}

TEST(Rpc, ChainedThenAfterRpc) {
  spmd(2, [] {
    if (upcxx::rank_me() == 0) {
      auto f = upcxx::rpc(1, [] { return 10; })
                   .then([](int v) { return v + 1; })
                   .then([](int v) { return upcxx::rpc(1, [](int x) {
                                       return x * 2;
                                     }, v); });
      EXPECT_EQ(f.wait(), 22);
    }
    upcxx::barrier();
  });
}

TEST(Rpc, FireAndForget) {
  static std::atomic<long> sum{0};
  sum = 0;
  spmd(4, [] {
    constexpr int kEach = 50;
    for (int i = 1; i <= kEach; ++i)
      upcxx::rpc_ff((upcxx::rank_me() + 1) % upcxx::rank_n(),
                    [](long v) { sum.fetch_add(v); }, (long)i);
    const long expect = static_cast<long>(upcxx::rank_n()) * kEach *
                        (kEach + 1) / 2;
    while (sum.load() < expect) upcxx::progress();
    EXPECT_EQ(sum.load(), expect);
    upcxx::barrier();
  });
}

TEST(Rpc, ViewArgumentZeroCopy) {
  spmd(2, [] {
    if (upcxx::rank_me() == 0) {
      std::vector<double> payload(1000);
      for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<double>(i) * 0.25;
      auto f = upcxx::rpc(1, [](upcxx::view<double> v) {
        double s = 0;
        for (double d : v) s += d;
        return s;
      }, upcxx::make_view(payload));
      double expect = 0;
      for (double d : payload) expect += d;
      EXPECT_DOUBLE_EQ(f.wait(), expect);
    }
    upcxx::barrier();
  });
}

TEST(Rpc, LargeViewGoesRendezvous) {
  spmd(2, [] {
    const std::size_t big =
        testutil::test_cfg(2).eager_max / sizeof(std::uint64_t) * 16;
    if (upcxx::rank_me() == 0) {
      std::vector<std::uint64_t> payload(big);
      for (std::size_t i = 0; i < big; ++i) payload[i] = i * 7;
      auto f = upcxx::rpc(1, [](upcxx::view<std::uint64_t> v) {
        std::uint64_t bad = 0;
        std::size_t i = 0;
        for (auto x : v) bad += (x != i++ * 7);
        return bad;
      }, upcxx::make_view(payload));
      EXPECT_EQ(f.wait(), 0u);
      // Rendezvous descriptors require a peer that can read this rank's
      // heap; on a non-shared-memory transport the same view must have
      // shipped inline instead.
      if (gex::am().transport().shared_memory())
        EXPECT_GT(gex::am().stats().sent_rendezvous, 0u);
      else
        EXPECT_EQ(gex::am().stats().sent_rendezvous, 0u);
    }
    upcxx::barrier();
  });
}

TEST(Rpc, DistObjectArgumentTranslation) {
  // The RPC receives the *target's* representative, not a copy of the
  // sender's (paper §II).
  spmd(4, [] {
    upcxx::dist_object<int> obj(100 + upcxx::rank_me());
    const int target = (upcxx::rank_me() + 1) % upcxx::rank_n();
    auto f = upcxx::rpc(target, [](upcxx::dist_object<int>& o) { return *o; },
                        obj);
    EXPECT_EQ(f.wait(), 100 + target);
    upcxx::barrier();
  });
}

TEST(Rpc, DistObjectFetch) {
  spmd(4, [] {
    upcxx::dist_object<std::string> obj("rank" +
                                        std::to_string(upcxx::rank_me()));
    for (int r = 0; r < upcxx::rank_n(); ++r) {
      EXPECT_EQ(obj.fetch(r).wait(), "rank" + std::to_string(r));
    }
    upcxx::barrier();
  });
}

TEST(Rpc, DistObjectMutationThroughRpc) {
  // The paper's graph-vertex update idiom: mutate remote state in place.
  spmd(2, [] {
    upcxx::dist_object<std::vector<std::string>> nbs(
        std::vector<std::string>{});
    upcxx::barrier();
    if (upcxx::rank_me() == 0) {
      upcxx::rpc(1,
                 [](upcxx::dist_object<std::vector<std::string>>& o,
                    const std::string& nb) { o->push_back(nb); },
                 nbs, std::string("v42"))
          .wait();
    }
    upcxx::barrier();
    if (upcxx::rank_me() == 1) {
      ASSERT_EQ(nbs->size(), 1u);
      EXPECT_EQ((*nbs)[0], "v42");
    }
    upcxx::barrier();
  });
}

TEST(Rpc, ArrivesBeforeDistObjectConstructionIsRequeued) {
  spmd(2, [] {
    if (upcxx::rank_me() == 0) {
      upcxx::dist_object<int> obj(1);
      // Fire immediately; rank 1 constructs its representative only after a
      // deliberate delay, so the RPC must requeue on rank 1.
      auto f = upcxx::rpc(1, [](upcxx::dist_object<int>& o) { return *o; },
                          obj);
      EXPECT_EQ(f.wait(), 2);
      upcxx::barrier();
    } else {
      // Let the request arrive and sit in compQ before construction.
      for (int i = 0; i < 100; ++i) upcxx::progress();
      upcxx::dist_object<int> obj(2);
      upcxx::barrier();
    }
  });
}

TEST(Rpc, ManyConcurrentRpcsAllRanks) {
  static std::atomic<long> counter{0};
  counter = 0;
  spmd(8, [] {
    constexpr int kPer = 100;
    upcxx::promise<> done;
    for (int i = 0; i < kPer; ++i) {
      for (int t = 0; t < upcxx::rank_n(); ++t) {
        upcxx::rpc(t, [] { counter.fetch_add(1); })
            .then([done]() mutable { done.fulfill_anonymous(1); });
        done.require_anonymous(1);
      }
      upcxx::progress();
    }
    done.finalize().wait();
    upcxx::barrier();
    EXPECT_EQ(counter.load(), 8L * 8 * kPer);
    upcxx::barrier();
  });
}

TEST(Rpc, RepliesOutOfOrderBeyondInitialSlotCapacity) {
  // More round trips outstanding than the reply table's first chunk, and
  // answered in reverse: each reply must find its own continuation by
  // slot index and generation.
  static std::vector<std::pair<int, upcxx::promise<int>>> parked;
  parked.clear();
  spmd(2, [] {
    constexpr int kOps =
        3 * static_cast<int>(arch::SlotTable<int>::kFirstChunk) + 17;
    if (upcxx::rank_me() == 0) {
      std::vector<upcxx::future<int>> futs;
      std::vector<int> order;
      for (int i = 0; i < kOps; ++i) {
        futs.push_back(upcxx::rpc(
            1,
            [](int k) {
              upcxx::promise<int> pr;
              parked.emplace_back(k, pr);
              return pr.get_future();
            },
            i));
        futs.back() = futs.back().then([&order, i](int v) {
          EXPECT_EQ(v, 3 * i);
          order.push_back(i);
          return v;
        });
      }
      for (auto& f : futs) f.wait();
      ASSERT_EQ(order.size(), static_cast<std::size_t>(kOps));
      for (int i = 0; i < kOps; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], kOps - 1 - i);
    } else {
      while (parked.size() < static_cast<std::size_t>(kOps))
        upcxx::progress();
      for (auto it = parked.rbegin(); it != parked.rend(); ++it)
        it->second.fulfill_result(3 * it->first);
    }
    upcxx::barrier();
  });
  parked.clear();
}

TEST(Rpc, TupleAndPairArguments) {
  spmd(2, [] {
    if (upcxx::rank_me() == 0) {
      auto f = upcxx::rpc(1,
                          [](const std::pair<int, std::string>& p,
                             const std::tuple<int, int>& t) {
                            return p.first + std::get<0>(t) + std::get<1>(t);
                          },
                          std::make_pair(1, std::string("x")),
                          std::make_tuple(2, 3));
      EXPECT_EQ(f.wait(), 6);
    }
    upcxx::barrier();
  });
}

TEST(Rpc, GlobalPtrArgument) {
  spmd(2, [] {
    auto mine = upcxx::allocate<int>(1);
    *mine.local() = 5 + upcxx::rank_me();
    if (upcxx::rank_me() == 0) {
      // Ship our pointer; remote reads through it (is_local on the arena).
      auto f = upcxx::rpc(1, [](upcxx::global_ptr<int> p) {
        return *p.local() * 10;
      }, mine);
      EXPECT_EQ(f.wait(), 50);
    }
    upcxx::barrier();
    upcxx::deallocate(mine);
  });
}

TEST(Rpc, SelfRpc) {
  spmd(2, [] {
    auto f = upcxx::rpc(upcxx::rank_me(), [] { return upcxx::rank_me(); });
    EXPECT_EQ(f.wait(), upcxx::rank_me());
    upcxx::barrier();
  });
}

}  // namespace
