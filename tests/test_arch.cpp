// Unit tests for the architecture-support layer: alignment helpers,
// spinlock, MPSC ring, block MPSC queue, slot table, UniqueFunction, PRNG
// determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <climits>
#include <cstring>
#include <functional>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "arch/cacheline.hpp"
#include "arch/mpsc_queue.hpp"
#include "arch/ring.hpp"
#include "arch/rng.hpp"
#include "arch/slot_table.hpp"
#include "arch/small_fn.hpp"
#include "arch/spinlock.hpp"
#include "arch/timer.hpp"

namespace {

TEST(Cacheline, AlignUp) {
  EXPECT_EQ(arch::align_up(0, 8), 0u);
  EXPECT_EQ(arch::align_up(1, 8), 8u);
  EXPECT_EQ(arch::align_up(8, 8), 8u);
  EXPECT_EQ(arch::align_up(9, 8), 16u);
  EXPECT_EQ(arch::align_up(63, 64), 64u);
  EXPECT_EQ(arch::align_up(65, 64), 128u);
}

TEST(Cacheline, IsPow2) {
  EXPECT_FALSE(arch::is_pow2(0));
  EXPECT_TRUE(arch::is_pow2(1));
  EXPECT_TRUE(arch::is_pow2(2));
  EXPECT_FALSE(arch::is_pow2(3));
  EXPECT_TRUE(arch::is_pow2(1ull << 40));
}

TEST(Cacheline, PaddedPreventsFalseSharingLayout) {
  arch::Padded<int> a[2];
  auto d = reinterpret_cast<std::byte*>(&a[1]) -
           reinterpret_cast<std::byte*>(&a[0]);
  EXPECT_GE(static_cast<std::size_t>(d), arch::cacheline_size);
}

TEST(Spinlock, MutualExclusionUnderContention) {
  arch::Spinlock lock;
  long counter = 0;
  constexpr int kThreads = 8;
  constexpr int kIters = 20000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        arch::SpinGuard g(lock);
        ++counter;
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(counter, static_cast<long>(kThreads) * kIters);
}

TEST(Spinlock, TryLock) {
  arch::Spinlock lock;
  EXPECT_TRUE(lock.try_lock());
  EXPECT_FALSE(lock.try_lock());
  lock.unlock();
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

class RingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    mem_.resize(arch::MpscByteRing::footprint(kCap));
    ring_ = arch::MpscByteRing::create(mem_.data(), kCap);
  }
  static constexpr std::size_t kCap = 4096;
  std::vector<std::byte> mem_;
  arch::MpscByteRing* ring_ = nullptr;
};

TEST_F(RingTest, EmptyInitially) {
  EXPECT_TRUE(ring_->empty());
  bool consumed = ring_->try_consume([](void*, std::size_t) { FAIL(); });
  EXPECT_FALSE(consumed);
}

TEST_F(RingTest, SingleRoundTrip) {
  const char msg[] = "hello ring";
  auto t = ring_->try_reserve(sizeof(msg));
  ASSERT_NE(t.payload, nullptr);
  std::memcpy(t.payload, msg, sizeof(msg));
  arch::MpscByteRing::commit(t);
  bool got = ring_->try_consume([&](void* p, std::size_t n) {
    EXPECT_EQ(n, sizeof(msg));
    EXPECT_EQ(0, std::memcmp(p, msg, n));
  });
  EXPECT_TRUE(got);
  EXPECT_TRUE(ring_->empty());
}

TEST_F(RingTest, UncommittedRecordBlocksConsumer) {
  auto t1 = ring_->try_reserve(16);
  ASSERT_NE(t1.payload, nullptr);
  auto t2 = ring_->try_reserve(16);
  ASSERT_NE(t2.payload, nullptr);
  std::memset(t2.payload, 0xAB, 16);
  arch::MpscByteRing::commit(t2);
  // t1 precedes t2 and is not committed: nothing may be consumed yet.
  EXPECT_FALSE(ring_->try_consume([](void*, std::size_t) { FAIL(); }));
  arch::MpscByteRing::commit(t1);
  int seen = 0;
  while (ring_->try_consume([&](void*, std::size_t) { ++seen; })) {
  }
  EXPECT_EQ(seen, 2);
}

TEST_F(RingTest, FillsAndReportsFull) {
  // Fill with fixed-size records until reservation fails.
  int count = 0;
  for (;;) {
    auto t = ring_->try_reserve(64);
    if (!t.payload) break;
    arch::MpscByteRing::commit(t);
    ++count;
  }
  EXPECT_GT(count, 10);
  // Drain everything; ring must be usable again.
  int drained = 0;
  while (ring_->try_consume([&](void*, std::size_t n) {
    EXPECT_EQ(n, 64u);
    ++drained;
  })) {
  }
  EXPECT_EQ(drained, count);
  EXPECT_NE(ring_->try_reserve(64).payload, nullptr);
}

TEST_F(RingTest, WrapAroundPreservesFifoAndContents) {
  // Pump enough variable-size records through a small ring to force many
  // wraps, verifying FIFO order and payload integrity.
  arch::Xoshiro256 rng(42);
  std::uint32_t next_send = 0, next_recv = 0;
  for (int iter = 0; iter < 20000; ++iter) {
    std::size_t n = 4 + rng.next_below(200);
    auto t = ring_->try_reserve(n);
    if (t.payload) {
      auto* p = static_cast<std::uint32_t*>(t.payload);
      *p = next_send++;
      arch::MpscByteRing::commit(t);
    }
    // Randomly interleave consumption.
    if (rng.next_below(2) == 0) {
      ring_->try_consume([&](void* q, std::size_t) {
        EXPECT_EQ(*static_cast<std::uint32_t*>(q), next_recv);
        ++next_recv;
      });
    }
  }
  while (ring_->try_consume([&](void* q, std::size_t) {
    EXPECT_EQ(*static_cast<std::uint32_t*>(q), next_recv);
    ++next_recv;
  })) {
  }
  EXPECT_EQ(next_recv, next_send);
  EXPECT_GT(next_send, 1000u);
}

TEST_F(RingTest, MultiProducerStress) {
  constexpr int kProducers = 6;
  constexpr int kPerProducer = 5000;
  std::atomic<bool> done{false};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        for (;;) {
          auto t = ring_->try_reserve(8);
          if (t.payload) {
            auto* w = static_cast<std::uint32_t*>(t.payload);
            w[0] = static_cast<std::uint32_t>(p);
            w[1] = static_cast<std::uint32_t>(i);
            arch::MpscByteRing::commit(t);
            break;
          }
          std::this_thread::yield();
        }
      }
    });
  }
  // Single consumer: per-producer sequences must arrive in order.
  std::vector<std::uint32_t> next(kProducers, 0);
  std::uint64_t total = 0;
  while (total < static_cast<std::uint64_t>(kProducers) * kPerProducer) {
    ring_->try_consume([&](void* q, std::size_t n) {
      ASSERT_EQ(n, 8u);
      auto* w = static_cast<std::uint32_t*>(q);
      ASSERT_LT(w[0], static_cast<std::uint32_t>(kProducers));
      EXPECT_EQ(w[1], next[w[0]]);
      ++next[w[0]];
      ++total;
    });
  }
  done.store(true);
  for (auto& t : producers) t.join();
  for (int p = 0; p < kProducers; ++p)
    EXPECT_EQ(next[p], static_cast<std::uint32_t>(kPerProducer));
}

// ------------------------------------------------------ block MPSC queue

// Payload of producer p's i-th byte record: `len` bytes derived from (p, i).
std::size_t record_len(int p, int i) {
  return 8 + static_cast<std::size_t>((p * 7 + i * 13) % 200);
}
void fill_record(std::byte* dst, int p, int i) {
  const std::size_t n = record_len(p, i);
  const std::uint32_t head[2] = {static_cast<std::uint32_t>(p),
                                 static_cast<std::uint32_t>(i)};
  std::memcpy(dst, head, 8);
  for (std::size_t k = 8; k < n; ++k)
    dst[k] = static_cast<std::byte>((p + i + static_cast<int>(k)) & 0xff);
}

TEST(MpscQueue, ProducersStayFifoPerProducer) {
  // N producers interleave byte records of varying size with closures; the
  // consumer drains concurrently and must see each producer's records in
  // push order, intact, across many block turnovers.
  constexpr int kProducers = 4;
  constexpr int kPer = 20000;
  arch::MpscQueue q;
  // Consumer-side cursor per producer; closures touch it only when run,
  // which happens on the consumer thread.
  std::vector<int> next(kProducers, 0);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p)
    producers.emplace_back([&q, &next, p] {
      for (int i = 0; i < kPer; ++i) {
        if (i % 3 == 2) {
          q.push([&next, p, i] {
            EXPECT_EQ(next[static_cast<std::size_t>(p)], i);
            ++next[static_cast<std::size_t>(p)];
          });
        } else {
          q.push_bytes(record_len(p, i), static_cast<std::uint64_t>(p),
                       [p, i](std::byte* dst) { fill_record(dst, p, i); });
        }
      }
    });
  std::vector<std::byte> expect(256);
  auto visit = [&](const arch::MpscQueue::Record& r) {
    ASSERT_LT(r.tag, static_cast<std::uint64_t>(kProducers));
    const int p = static_cast<int>(r.tag);
    const int i = next[static_cast<std::size_t>(p)];
    ASSERT_EQ(r.size, record_len(p, i));
    fill_record(expect.data(), p, i);
    ASSERT_EQ(std::memcmp(r.data, expect.data(), r.size), 0);
    ++next[static_cast<std::size_t>(p)];
  };
  std::uint64_t seen = 0;
  while (seen < static_cast<std::uint64_t>(kProducers) * kPer) {
    const int n = q.drain(64, visit);
    seen += static_cast<std::uint64_t>(n);
    if (n == 0) std::this_thread::yield();
  }
  for (auto& t : producers) t.join();
  for (int p = 0; p < kProducers; ++p) EXPECT_EQ(next[p], kPer);
  EXPECT_TRUE(q.empty_hint());
}

TEST(MpscQueue, RecordsLargerThanABlockGetTheirOwn) {
  arch::MpscQueue q;
  constexpr std::size_t kBig = 3 * arch::MpscQueue::kBlockBytes + 40;
  std::vector<int> order;
  q.push([&order] { order.push_back(1); });
  q.push_bytes(kBig, 2, [](std::byte* d) {
    for (std::size_t k = 0; k < kBig; ++k)
      d[k] = static_cast<std::byte>(k % 251);
  });
  // A closure whose capture alone exceeds a block.
  std::array<char, 2 * arch::MpscQueue::kBlockBytes> big_capture{};
  big_capture.back() = 7;
  q.push([&order, big_capture] { order.push_back(3 + big_capture.back()); });
  q.push([&order] { order.push_back(4); });
  int bytes_seen = 0;
  const int n = q.drain(INT_MAX, [&](const arch::MpscQueue::Record& r) {
    ASSERT_EQ(r.size, kBig);
    EXPECT_EQ(r.tag, 2u);
    order.push_back(2);
    for (std::size_t k = 0; k < kBig; ++k)
      ASSERT_EQ(r.data[k], static_cast<std::byte>(k % 251));
    ++bytes_seen;
  });
  EXPECT_EQ(n, 4);
  EXPECT_EQ(bytes_seen, 1);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 10, 4}));
  // Oversized blocks are freed once drained; only the tail block and at
  // most one spare remain.
  EXPECT_LE(q.blocks_live(), 2u);
}

// Counts live instances and moves of a closure's capture.
struct Tracked {
  static inline int live = 0;
  static inline int moves = 0;
  static inline int copies = 0;
  Tracked() { ++live; }
  Tracked(Tracked&&) noexcept {
    ++live;
    ++moves;
  }
  Tracked(const Tracked&) {
    ++live;
    ++copies;
  }
  ~Tracked() { --live; }
  static void reset() { live = moves = copies = 0; }
};

TEST(MpscQueue, WideClosuresBuiltInPlaceAndDestroyedOnce) {
  // Captures well over UniqueFunction's 48 B inline buffer: each closure is
  // moved once into its record (no relocation, no heap box) and destroyed
  // exactly once, after it ran.
  Tracked::reset();
  int ran = 0;
  {
    arch::MpscQueue q;
    for (int i = 0; i < 300; ++i) {
      std::array<std::uint64_t, 12> wide{};
      wide[11] = static_cast<std::uint64_t>(i);
      q.push([&ran, i, wide, t = Tracked()] {
        EXPECT_EQ(wide[11], static_cast<std::uint64_t>(i));
        ++ran;
      });
    }
    EXPECT_EQ(Tracked::live, 300);  // only the queued copies survive
    EXPECT_EQ(Tracked::moves, 300);
    EXPECT_EQ(Tracked::copies, 0);
    EXPECT_EQ(q.run(INT_MAX), 300);
    EXPECT_EQ(ran, 300);
    EXPECT_EQ(Tracked::live, 0);
    // 300 records of ~128 B fit in a handful of 4 KiB blocks.
    EXPECT_LE(q.block_allocs(), 12u);
  }
  EXPECT_EQ(Tracked::live, 0);
}

TEST(MpscQueue, TeardownDestroysQueuedRecordsUnrun) {
  Tracked::reset();
  int ran = 0;
  {
    arch::MpscQueue q;
    for (int i = 0; i < 500; ++i) {
      q.push([&ran, t = Tracked()] { ++ran; });
      q.push_bytes(24, 0, [](std::byte* d) { std::memset(d, 1, 24); });
    }
    q.push_bytes(2 * arch::MpscQueue::kBlockBytes, 0,
                 [](std::byte* d) { d[0] = std::byte{1}; });
    q.push([&ran, t = Tracked()] { ++ran; });
    EXPECT_EQ(Tracked::live, 501);
    EXPECT_GE(q.blocks_live(), 3u);
  }
  EXPECT_EQ(ran, 0);
  EXPECT_EQ(Tracked::live, 0);
}

TEST(MpscQueue, SpareBlockCountStaysBounded) {
  arch::MpscQueue q;
  auto noop = [](const arch::MpscQueue::Record&) {};
  // Lockstep stream: after the first block turnover the queue cycles
  // between its tail block and one spare, allocating nothing.
  for (int i = 0; i < 200; ++i) {
    q.push_bytes(40, 0, [](std::byte*) {});
    ASSERT_EQ(q.drain(INT_MAX, noop), 1);
  }
  const std::size_t warm = q.block_allocs();
  EXPECT_LE(warm, 2u);
  for (int i = 0; i < 100000; ++i) {
    q.push_bytes(40, 0, [](std::byte*) {});
    ASSERT_EQ(q.drain(INT_MAX, noop), 1);
  }
  EXPECT_EQ(q.block_allocs(), warm);
  EXPECT_LE(q.blocks_live(), 2u);
  // A backlog grows the chain; draining it returns every block but the
  // tail and one spare.
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 2000; ++i) q.push_bytes(40, 0, [](std::byte*) {});
    EXPECT_GE(q.blocks_live(), 20u);
    EXPECT_EQ(q.drain(INT_MAX, noop), 2000);
    EXPECT_LE(q.blocks_live(), 2u);
  }
}

TEST(MpscQueue, NestedDrainContinuesAfterTheRunningRecord) {
  // An LPC that calls progress() re-enters its own inbox: the nested drain
  // must run the records after it (FIFO), and blocks it leaves must
  // survive until the outer record returns.
  arch::MpscQueue q;
  std::vector<int> order;
  q.push([&] {
    order.push_back(0);
    EXPECT_EQ(q.run(INT_MAX), 400);  // every later record, across blocks
    order.push_back(-1);
  });
  for (int i = 1; i <= 400; ++i) {
    std::array<std::uint64_t, 8> pad{};
    q.push([&order, i, pad] { order.push_back(i + static_cast<int>(pad[0])); });
  }
  EXPECT_EQ(q.run(INT_MAX), 1);
  ASSERT_EQ(order.size(), 402u);
  EXPECT_EQ(order.front(), 0);
  EXPECT_EQ(order.back(), -1);
  for (int i = 1; i <= 400; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  EXPECT_TRUE(q.empty_hint());
  EXPECT_LE(q.blocks_live(), 2u);
}

TEST(MpscQueue, RunHonorsBudgetAndEntrySnapshot) {
  arch::MpscQueue q;
  EXPECT_TRUE(q.empty_hint());
  EXPECT_EQ(q.run(INT_MAX), 0);
  EXPECT_EQ(q.block_allocs(), 0u);  // nothing allocated before a push
  int ran = 0;
  // A record that re-posts itself runs once per drain, not forever.
  std::function<void()> again = [&] {
    ++ran;
    q.push([&] { again(); });
  };
  q.push([&] { again(); });
  EXPECT_EQ(q.run(INT_MAX), 1);
  EXPECT_EQ(q.run(INT_MAX), 1);
  EXPECT_EQ(ran, 2);
  for (int i = 0; i < 10; ++i) q.push([] {});
  EXPECT_EQ(q.run(4), 4);
  EXPECT_FALSE(q.empty_hint());
}

// ------------------------------------------------------------ slot table

TEST(SlotTable, OutOfOrderTakes) {
  arch::SlotTable<int> t;
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 10; ++i) ids.push_back(t.insert(i * 10));
  for (auto id : ids) EXPECT_NE(id, 0u);
  const int order[] = {7, 2, 9, 0, 5, 1, 8, 3, 6, 4};
  for (int k : order) {
    int v = -1;
    ASSERT_TRUE(t.take(ids[static_cast<std::size_t>(k)], v));
    EXPECT_EQ(v, k * 10);
  }
}

TEST(SlotTable, GrowsPastInitialCapacityAndReuses) {
  arch::SlotTable<std::unique_ptr<int>> t;
  constexpr int kOutstanding = 5 * arch::SlotTable<int>::kFirstChunk + 3;
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < kOutstanding; ++i)
    ids.push_back(t.insert(std::make_unique<int>(i)));
  const std::size_t cap = t.capacity();
  EXPECT_GE(cap, static_cast<std::size_t>(kOutstanding));
  for (int i = kOutstanding - 1; i >= 0; --i) {
    std::unique_ptr<int> v;
    ASSERT_TRUE(t.take(ids[static_cast<std::size_t>(i)], v));
    ASSERT_TRUE(v);
    EXPECT_EQ(*v, i);
  }
  // Freed slots are reused: a second wave of the same size adds nothing.
  for (int i = 0; i < kOutstanding; ++i)
    ids[static_cast<std::size_t>(i)] = t.insert(std::make_unique<int>(i));
  EXPECT_EQ(t.capacity(), cap);
  for (int i = 0; i < kOutstanding; ++i) {
    std::unique_ptr<int> v;
    ASSERT_TRUE(t.take(ids[static_cast<std::size_t>(i)], v));
    EXPECT_EQ(*v, i);
  }
}

TEST(SlotTable, StaleIdFailsTheGenerationCheck) {
  arch::SlotTable<int> t;
  const std::uint64_t first = t.insert(1);
  int v = 0;
  ASSERT_TRUE(t.take(first, v));
  EXPECT_EQ(v, 1);
  // The slot is reused under a new generation...
  const std::uint64_t second = t.insert(2);
  EXPECT_EQ(static_cast<std::uint32_t>(second),
            static_cast<std::uint32_t>(first));
  EXPECT_NE(second, first);
  // ...so the old id (a duplicate or late reply) finds nothing, and the
  // new occupant stays put.
  v = 0;
  EXPECT_FALSE(t.take(first, v));
  EXPECT_EQ(v, 0);
  EXPECT_TRUE(t.take(second, v));
  EXPECT_EQ(v, 2);
  EXPECT_FALSE(t.take(second, v));
  // Ids never issued fail too.
  EXPECT_FALSE(t.take(0, v));
  EXPECT_FALSE(t.take((std::uint64_t{1} << 32) | 1000000u, v));
}

TEST(SlotTable, ConcurrentInsertersOneTaker) {
  // Injector threads register while one thread takes, as in the rpc
  // layer; ids travel to the taker through a block queue.
  constexpr int kThreads = 4, kPer = 5000;
  arch::SlotTable<std::uint64_t> t;
  arch::MpscQueue q;
  std::vector<std::thread> ts;
  for (int p = 0; p < kThreads; ++p)
    ts.emplace_back([&, p] {
      for (int i = 0; i < kPer; ++i) {
        const std::uint64_t v = static_cast<std::uint64_t>(p) << 32 |
                                static_cast<std::uint64_t>(i);
        const std::uint64_t id = t.insert(v);
        q.push_bytes(8, id, [v](std::byte* d) { std::memcpy(d, &v, 8); });
      }
    });
  int taken = 0;
  while (taken < kThreads * kPer) {
    const int n = q.drain(64, [&](const arch::MpscQueue::Record& r) {
      std::uint64_t want, got = 0;
      std::memcpy(&want, r.data, 8);
      ASSERT_TRUE(t.take(r.tag, got));
      EXPECT_EQ(got, want);
    });
    taken += n;
    if (n == 0) std::this_thread::yield();
  }
  for (auto& th : ts) th.join();
  // At most kThreads * kPer were ever outstanding; doubling chunks round
  // that up by less than 2x.
  EXPECT_LE(t.capacity(), static_cast<std::size_t>(2 * kThreads * kPer));
}

TEST(SmallFn, InlineLambda) {
  int x = 5;
  arch::UniqueFunction<int(int)> f = [x](int y) { return x + y; };
  ASSERT_TRUE(static_cast<bool>(f));
  EXPECT_EQ(f(3), 8);
}

TEST(SmallFn, MoveOnlyCapture) {
  auto p = std::make_unique<int>(41);
  arch::UniqueFunction<int()> f = [p = std::move(p)] { return *p + 1; };
  EXPECT_EQ(f(), 42);
}

TEST(SmallFn, HeapFallbackForLargeCapture) {
  struct Big {
    char data[256];
  };
  Big big{};
  big.data[0] = 7;
  arch::UniqueFunction<int()> f = [big] { return static_cast<int>(big.data[0]); };
  EXPECT_EQ(f(), 7);
}

TEST(SmallFn, MoveTransfersOwnership) {
  arch::UniqueFunction<int()> f = [] { return 1; };
  arch::UniqueFunction<int()> g = std::move(f);
  EXPECT_FALSE(static_cast<bool>(f));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(g));
  EXPECT_EQ(g(), 1);
}

TEST(SmallFn, DestructorRunsCapturedState) {
  auto flag = std::make_shared<int>(0);
  {
    arch::UniqueFunction<void()> f = [holder = flag] { (void)holder; };
    EXPECT_EQ(flag.use_count(), 2);
  }
  EXPECT_EQ(flag.use_count(), 1);
}

TEST(Rng, DeterministicAcrossInstances) {
  arch::Xoshiro256 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, BoundsRespected) {
  arch::Xoshiro256 r(9);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(r.next_below(17), 17u);
    double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, RoughlyUniform) {
  arch::Xoshiro256 r(7);
  std::vector<int> buckets(10, 0);
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) ++buckets[r.next_below(10)];
  for (int b : buckets) {
    EXPECT_GT(b, kN / 10 - kN / 50);
    EXPECT_LT(b, kN / 10 + kN / 50);
  }
}

TEST(Timer, MonotonicAndMeasures) {
  auto t0 = arch::now_ns();
  arch::Stopwatch sw;
  sw.start();
  volatile long sink = 0;
  for (long i = 0; i < 1000000; ++i) sink = sink + i;
  sw.stop();
  auto t1 = arch::now_ns();
  EXPECT_GE(t1, t0);
  EXPECT_GT(sw.elapsed_ns(), 0u);
  EXPECT_LE(sw.elapsed_ns(), t1 - t0);
}

}  // namespace
