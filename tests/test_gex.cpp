// Substrate tests: shared heap, arena layout, AM engine (eager + rendezvous
// + backpressure), launcher (thread and process backends).
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "arch/rng.hpp"
#include "arch/timer.hpp"
#include "gex/am.hpp"
#include "gex/arena.hpp"
#include "gex/config.hpp"
#include "gex/runtime.hpp"
#include "gex/shared_heap.hpp"

namespace {

gex::Config small_cfg(int ranks) {
  gex::Config c;
  c.ranks = ranks;
  c.segment_bytes = 4 << 20;
  c.ring_bytes = 64 << 10;
  c.eager_max = 4 << 10;
  c.heap_bytes = 16 << 20;
  return c;
}

// ---------------------------------------------------------------- SharedHeap

class HeapTest : public ::testing::Test {
 protected:
  void SetUp() override {
    region_.resize(1 << 20);
    heap_ = gex::SharedHeap::create(region_.data(), region_.size());
  }
  std::vector<std::byte> region_;
  gex::SharedHeap* heap_ = nullptr;
};

TEST_F(HeapTest, AllocateAndFree) {
  void* a = heap_->allocate(100);
  ASSERT_NE(a, nullptr);
  EXPECT_TRUE(heap_->contains(a));
  std::memset(a, 0xCD, 100);
  heap_->deallocate(a);
}

TEST_F(HeapTest, DistinctNonOverlapping) {
  void* a = heap_->allocate(256);
  void* b = heap_->allocate(256);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  auto ua = reinterpret_cast<std::uintptr_t>(a);
  auto ub = reinterpret_cast<std::uintptr_t>(b);
  EXPECT_TRUE(ua + 256 <= ub || ub + 256 <= ua);
}

TEST_F(HeapTest, ExhaustionReturnsNull) {
  std::vector<void*> blocks;
  for (;;) {
    void* p = heap_->allocate(64 << 10);
    if (!p) break;
    blocks.push_back(p);
  }
  EXPECT_GT(blocks.size(), 4u);
  EXPECT_EQ(heap_->allocate(64 << 10), nullptr);
  for (void* p : blocks) heap_->deallocate(p);
  EXPECT_NE(heap_->allocate(64 << 10), nullptr);
}

TEST_F(HeapTest, CoalescingRestoresLargeBlock) {
  const std::size_t big = heap_->largest_free_block();
  void* a = heap_->allocate(1000);
  void* b = heap_->allocate(1000);
  void* c = heap_->allocate(1000);
  heap_->deallocate(b);
  heap_->deallocate(a);
  heap_->deallocate(c);
  EXPECT_EQ(heap_->largest_free_block(), big);
}

TEST_F(HeapTest, FreeSpaceAccounting) {
  const std::size_t before = heap_->bytes_free();
  void* a = heap_->allocate(4096);
  EXPECT_LT(heap_->bytes_free(), before);
  heap_->deallocate(a);
  EXPECT_EQ(heap_->bytes_free(), before);
}

TEST_F(HeapTest, OverAlignedAllocation) {
  for (std::size_t align : {32u, 64u, 128u, 4096u}) {
    void* p = heap_->allocate(100, align);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % align, 0u);
    std::memset(p, 1, 100);
    heap_->deallocate(p);
  }
}

TEST_F(HeapTest, StressRandomAllocFree) {
  arch::Xoshiro256 rng(5);
  std::vector<std::pair<void*, std::size_t>> live;
  for (int i = 0; i < 5000; ++i) {
    if (live.empty() || rng.next_below(2) == 0) {
      std::size_t n = 16 + rng.next_below(2048);
      void* p = heap_->allocate(n);
      if (p) {
        std::memset(p, static_cast<int>(n & 0xFF), n);
        live.emplace_back(p, n);
      }
    } else {
      std::size_t idx = rng.next_below(live.size());
      heap_->deallocate(live[idx].first);
      live[idx] = live.back();
      live.pop_back();
    }
  }
  for (auto& [p, n] : live) heap_->deallocate(p);
}

// -------------------------------------------------------------------- Arena

TEST(Arena, LayoutAndOwnership) {
  auto cfg = small_cfg(4);
  gex::Arena* a = gex::Arena::create(cfg);
  EXPECT_EQ(a->nranks(), 4);
  for (int r = 0; r < 4; ++r) {
    std::byte* base = a->segment_base(r);
    EXPECT_TRUE(a->in_segments(base));
    EXPECT_EQ(a->rank_of(base), r);
    EXPECT_EQ(a->rank_of(base + cfg.segment_bytes - 1), r);
  }
  int x = 0;
  EXPECT_FALSE(a->in_segments(&x));
  EXPECT_EQ(a->rank_of(&x), -1);
  gex::Arena::destroy(a);
}

TEST(Arena, SegmentHeapsIndependent) {
  auto cfg = small_cfg(2);
  gex::Arena* a = gex::Arena::create(cfg);
  void* p0 = a->segment_heap(0).allocate(128);
  void* p1 = a->segment_heap(1).allocate(128);
  ASSERT_NE(p0, nullptr);
  ASSERT_NE(p1, nullptr);
  EXPECT_EQ(a->rank_of(p0), 0);
  EXPECT_EQ(a->rank_of(p1), 1);
  gex::Arena::destroy(a);
}

// ---------------------------------------------------------------- AM engine

std::atomic<long> g_am_sum{0};
std::atomic<int> g_am_count{0};

void sum_handler(gex::AmContext& cx) {
  long v = 0;
  std::memcpy(&v, cx.data, sizeof v);
  g_am_sum.fetch_add(v, std::memory_order_relaxed);
  g_am_count.fetch_add(1, std::memory_order_relaxed);
}

TEST(AmEngine, EagerRoundTrip) {
  g_am_sum = 0;
  g_am_count = 0;
  auto cfg = small_cfg(2);
  int fails = gex::launch(cfg, [] {
    if (gex::rank_me() == 0) {
      for (long i = 1; i <= 100; ++i)
        gex::am().send(1, gex::am_handler<&sum_handler>(), &i, sizeof i);
    } else {
      while (g_am_count.load() < 100) gex::am().poll();
    }
  });
  EXPECT_EQ(fails, 0);
  EXPECT_EQ(g_am_sum.load(), 5050);
}

std::atomic<int> g_rdzv_ok{0};

void rdzv_handler(gex::AmContext& cx) {
  // Rendezvous only exists on shared-memory transports; the socket
  // transport ships the same payload inline in one record.
  EXPECT_EQ(cx.is_rendezvous, gex::am().transport().shared_memory());
  auto* p = static_cast<std::uint8_t*>(cx.data);
  bool ok = true;
  for (std::size_t i = 0; i < cx.size; ++i)
    ok &= (p[i] == static_cast<std::uint8_t>(i * 7));
  if (ok) g_rdzv_ok.fetch_add(1);
}

TEST(AmEngine, RendezvousLargePayload) {
  g_rdzv_ok = 0;
  auto cfg = small_cfg(2);
  const std::size_t big = cfg.eager_max * 8;
  int fails = gex::launch(cfg, [big] {
    if (gex::rank_me() == 0) {
      std::vector<std::uint8_t> buf(big);
      for (std::size_t i = 0; i < big; ++i)
        buf[i] = static_cast<std::uint8_t>(i * 7);
      for (int k = 0; k < 5; ++k)
        gex::am().send(1, gex::am_handler<&rdzv_handler>(), buf.data(),
                       buf.size());
    } else {
      while (g_rdzv_ok.load() < 5) gex::am().poll();
    }
  });
  EXPECT_EQ(fails, 0);
  EXPECT_EQ(g_rdzv_ok.load(), 5);
}

std::atomic<long> g_flood_recv{0};

void flood_handler(gex::AmContext& cx) {
  g_flood_recv.fetch_add(1, std::memory_order_relaxed);
}

std::atomic<bool> g_flood_receiver_go{false};

TEST(AmEngine, BackpressureFloodDoesNotDeadlock) {
  g_flood_recv = 0;
  g_flood_receiver_go = false;
  auto cfg = small_cfg(2);
  cfg.ring_bytes = 16 << 10;  // tiny ring: force send stalls
  constexpr long kMsgs = 20000;
  int fails = gex::launch(cfg, [] {
    if (gex::rank_me() == 0) {
      char payload[128] = {};
      g_flood_receiver_go.store(true, std::memory_order_release);
      for (long i = 0; i < kMsgs; ++i)
        gex::am().send(1, gex::am_handler<&flood_handler>(), payload,
                       sizeof payload);
      // The ring holds ~120 of these records and the receiver held off for
      // 2 ms while we flooded, so backpressure must have been exercised.
      // Only on ring transports, though: the socket transport queues sends
      // kernel-side with a multi-MB cap this flood never reaches.
      if (gex::am().transport().shared_memory())
        EXPECT_GT(gex::am().stats().send_stalls, 0u);
    } else {
      // Deliberately unattentive start: let the sender slam into a full
      // ring before the first poll, then drain everything.
      while (!g_flood_receiver_go.load(std::memory_order_acquire))
        arch::cpu_relax();
      const auto t0 = arch::now_ns();
      while (arch::now_ns() - t0 < 2'000'000) arch::cpu_relax();
      while (g_flood_recv.load() < kMsgs) gex::am().poll();
    }
  });
  EXPECT_EQ(fails, 0);
  EXPECT_EQ(g_flood_recv.load(), kMsgs);
}

std::atomic<long> g_a2a_sum{0};
std::atomic<int> g_a2a_count{0};

void a2a_handler(gex::AmContext& cx) {
  long v;
  std::memcpy(&v, cx.data, sizeof v);
  g_a2a_sum.fetch_add(v);
  g_a2a_count.fetch_add(1);
}

TEST(AmEngine, AllToAllConcurrent) {
  g_a2a_sum = 0;
  g_a2a_count = 0;
  const int P = 8;
  constexpr int kPer = 500;
  int fails = gex::launch(small_cfg(P), [] {
    const int p = gex::rank_n();
    for (int i = 0; i < kPer; ++i) {
      for (int t = 0; t < p; ++t) {
        long v = gex::rank_me() + 1;
        gex::am().send(t, gex::am_handler<&a2a_handler>(), &v, sizeof v);
      }
      gex::am().poll();
    }
    while (g_a2a_count.load() < kPer * p * p) gex::am().poll();
  });
  EXPECT_EQ(fails, 0);
  // Each rank r sends (r+1) kPer times to each of P targets.
  long expect = 0;
  for (int r = 0; r < P; ++r) expect += static_cast<long>(r + 1) * kPer * P;
  EXPECT_EQ(g_a2a_sum.load(), expect);
}

void self_handler(gex::AmContext& cx) { g_am_count.fetch_add(1); }

TEST(AmEngine, SelfSendLoopback) {
  g_am_count = 0;
  int fails = gex::launch(small_cfg(1), [] {
    gex::am().send(0, gex::am_handler<&self_handler>(), nullptr, 0);
    while (g_am_count.load() < 1) gex::am().poll();
  });
  EXPECT_EQ(fails, 0);
  EXPECT_EQ(g_am_count.load(), 1);
}

// ----------------------------------------------------------------- Launcher

TEST(Launch, RanksSeeDistinctIdsThreadBackend) {
  std::atomic<std::uint32_t> mask{0};
  int fails = gex::launch(small_cfg(6), [&] {
    mask.fetch_or(1u << gex::rank_me());
    EXPECT_EQ(gex::rank_n(), 6);
  });
  EXPECT_EQ(fails, 0);
  EXPECT_EQ(mask.load(), 0x3Fu);
}

TEST(Launch, FailurePropagates) {
  int fails = gex::launch(small_cfg(3), [] {
    if (gex::rank_me() == 1) throw std::runtime_error("injected failure");
  });
  EXPECT_GE(fails, 1);
}

TEST(Launch, ProcessBackendSmoke) {
  auto cfg = small_cfg(4);
  cfg.backend = gex::Backend::kProcess;
  // Each child writes its rank into its segment; children cross-check via
  // shared memory that all peers wrote before exiting.
  int fails = gex::launch(cfg, [] {
    auto& a = gex::arena();
    auto* slot = reinterpret_cast<std::atomic<int>*>(
        a.segment_base(gex::rank_me()) + a.config().segment_bytes - 64);
    slot->store(gex::rank_me() + 100, std::memory_order_release);
    a.world_barrier();
    for (int r = 0; r < gex::rank_n(); ++r) {
      auto* s = reinterpret_cast<std::atomic<int>*>(
          a.segment_base(r) + a.config().segment_bytes - 64);
      if (s->load(std::memory_order_acquire) != r + 100)
        throw std::runtime_error("peer segment not visible");
    }
  });
  EXPECT_EQ(fails, 0);
}

TEST(Launch, ProcessBackendAm) {
  auto cfg = small_cfg(2);
  cfg.backend = gex::Backend::kProcess;
  // g_am_* globals are per-process after fork; rank 1 checks its own copy
  // and signals failure via exception if the sum is wrong.
  int fails = gex::launch(cfg, [] {
    g_am_sum = 0;
    g_am_count = 0;
    if (gex::rank_me() == 0) {
      for (long i = 1; i <= 50; ++i)
        gex::am().send(1, gex::am_handler<&sum_handler>(), &i, sizeof i);
    } else {
      while (g_am_count.load() < 50) gex::am().poll();
      if (g_am_sum.load() != 1275) throw std::runtime_error("bad sum");
    }
  });
  EXPECT_EQ(fails, 0);
}

TEST(Config, EnvRoundTrip) {
  auto c = gex::Config::from_env();
  EXPECT_GE(c.ranks, 1);
  EXPECT_TRUE(arch::is_pow2(c.ring_bytes));
  EXPECT_LE(c.eager_max, c.ring_bytes / 4);
}

TEST(Config, XferKnobsNormalize) {
  gex::Config c;
  // Defaults: async above 64 KiB, 256 KiB chunks, no bandwidth model.
  EXPECT_EQ(c.rma_async_min, std::size_t{64} << 10);
  EXPECT_EQ(c.xfer_chunk_bytes, std::size_t{256} << 10);
  EXPECT_EQ(c.sim_bw_gbps, 0.0);
  // normalize() rejects nonsense: negative bandwidth means "no model",
  // sub-256-byte chunks would drown in bookkeeping.
  c.sim_bw_gbps = -3.5;
  c.xfer_chunk_bytes = 1;
  c.normalize();
  EXPECT_EQ(c.sim_bw_gbps, 0.0);
  EXPECT_EQ(c.xfer_chunk_bytes, std::size_t{256});
  // rma_async_min = 0 is meaningful (async path disabled) and survives.
  c.rma_async_min = 0;
  c.normalize();
  EXPECT_EQ(c.rma_async_min, 0u);
}

TEST(Config, XferEnvParsing) {
  setenv("UPCXX_SIM_BW_GBPS", "2.5", 1);
  setenv("UPCXX_RMA_ASYNC_MIN", "0", 1);
  auto c = gex::Config::from_env();
  EXPECT_DOUBLE_EQ(c.sim_bw_gbps, 2.5);
  EXPECT_EQ(c.rma_async_min, 0u);
  // Malformed bandwidth falls back to the default, not garbage.
  setenv("UPCXX_SIM_BW_GBPS", "fast", 1);
  EXPECT_EQ(gex::Config::from_env().sim_bw_gbps, 0.0);
  unsetenv("UPCXX_SIM_BW_GBPS");
  unsetenv("UPCXX_RMA_ASYNC_MIN");
}

// Numeric knobs must reject garbage loudly and keep their defaults — a
// typo'd knob used to be silently indistinguishable from the default.
TEST(Config, NumericKnobsRejectGarbage) {
  const gex::Config d;  // defaults
  // Save and clear every knob this test touches: the surrounding test run
  // may pin some of them (the CI am-window-1 job exports UPCXX_AM_WINDOW).
  const char* knobs[] = {
      "UPCXX_AM_WINDOW", "UPCXX_SIM_LATENCY_NS", "UPCXX_SIM_BW_GBPS",
      "UPCXX_EAGER_MAX", "UPCXX_RANKS",          "UPCXX_RING_KB",
      "UPCXX_RMA_ASYNC_MIN",
  };
  std::vector<std::pair<const char*, std::string>> saved;
  for (const char* k : knobs) {
    if (const char* v = getenv(k)) saved.emplace_back(k, v);
    unsetenv(k);
  }
  struct Case {
    const char* name;
    const char* value;
  };
  const Case cases[] = {
      {"UPCXX_AM_WINDOW", "banana"},     {"UPCXX_AM_WINDOW", "-3"},
      {"UPCXX_SIM_LATENCY_NS", "-5"},    {"UPCXX_SIM_LATENCY_NS", "x"},
      {"UPCXX_SIM_BW_GBPS", "inf"},      {"UPCXX_SIM_BW_GBPS", "-2"},
      {"UPCXX_EAGER_MAX", "-1"},         {"UPCXX_RANKS", "0"},
      {"UPCXX_RANKS", "four"},
      {"UPCXX_RING_KB", "99999999999999999999"},  // ERANGE
      {"UPCXX_RMA_ASYNC_MIN", "-1"},
  };
  for (const auto& c : cases) {
    setenv(c.name, c.value, 1);
    gex::Config got = gex::Config::from_env();
    EXPECT_EQ(got.am_window, d.am_window) << c.name << "=" << c.value;
    EXPECT_EQ(got.sim_latency_ns, 0u) << c.name << "=" << c.value;
    EXPECT_EQ(got.sim_bw_gbps, 0.0) << c.name << "=" << c.value;
    EXPECT_EQ(got.eager_max, d.eager_max) << c.name << "=" << c.value;
    EXPECT_EQ(got.ranks, d.ranks) << c.name << "=" << c.value;
    EXPECT_EQ(got.xfer_chunk_bytes, d.xfer_chunk_bytes)
        << c.name << "=" << c.value;
    EXPECT_EQ(got.ring_bytes, d.ring_bytes) << c.name << "=" << c.value;
    EXPECT_EQ(got.rma_async_min, d.rma_async_min)
        << c.name << "=" << c.value;
    unsetenv(c.name);
  }
  // Valid values still parse (the strictness did not break the knobs).
  setenv("UPCXX_AM_WINDOW", "16", 1);
  setenv("UPCXX_SIM_LATENCY_NS", "250", 1);
  const gex::Config ok = gex::Config::from_env();
  EXPECT_EQ(ok.am_window, 16u);
  EXPECT_EQ(ok.sim_latency_ns, 250u);
  unsetenv("UPCXX_AM_WINDOW");
  unsetenv("UPCXX_SIM_LATENCY_NS");
  // resolve_am_window: unset, `auto` and garbage give the default window
  // (1 MiB of 64 KiB am-wire chunks), an integer pins, and
  // kAmWindowForceAuto gives the default even under a pinned environment.
  EXPECT_EQ(gex::kDefaultAmWindow, 16u);
  gex::Config c;
  EXPECT_EQ(gex::resolve_am_window(c), gex::kDefaultAmWindow);
  setenv("UPCXX_AM_WINDOW", "zero", 1);
  EXPECT_EQ(gex::resolve_am_window(c), gex::kDefaultAmWindow);
  setenv("UPCXX_AM_WINDOW", "auto", 1);
  EXPECT_EQ(gex::resolve_am_window(c), gex::kDefaultAmWindow);
  setenv("UPCXX_AM_WINDOW", "3", 1);
  EXPECT_EQ(gex::resolve_am_window(c), 3u);
  {
    gex::Config forced;
    forced.am_window = gex::kAmWindowForceAuto;
    EXPECT_EQ(gex::resolve_am_window(forced), gex::kDefaultAmWindow);
    gex::Config pinned;
    pinned.am_window = 5;
    EXPECT_EQ(gex::resolve_am_window(pinned), 5u);
  }
  unsetenv("UPCXX_AM_WINDOW");
  // Non-finite bandwidth is scrubbed by normalize() for hand-built
  // configs too.
  c.sim_bw_gbps = std::numeric_limits<double>::infinity();
  c.normalize();
  EXPECT_EQ(c.sim_bw_gbps, 0.0);
  for (const auto& [k, v] : saved) setenv(k, v.c_str(), 1);
}

TEST(Config, RmaWireParsingAndResolution) {
  // Preserve any wire the surrounding test run pinned (the CI am-wire
  // matrix job exports UPCXX_RMA_WIRE=am), and any transport pin (the
  // socket-transport job's UPCXX_AM_TRANSPORT=socket makes auto resolve
  // to am, not direct — that rule is covered in test_socket).
  const char* saved = getenv("UPCXX_RMA_WIRE");
  const std::string saved_val = saved ? saved : "";
  const char* saved_tr = getenv("UPCXX_AM_TRANSPORT");
  const std::string saved_tr_val = saved_tr ? saved_tr : "";
  unsetenv("UPCXX_AM_TRANSPORT");

  unsetenv("UPCXX_RMA_WIRE");
  gex::Config c;
  EXPECT_EQ(c.rma_wire, gex::RmaWire::kAuto);
  // Auto resolves to direct on the cross-mapped arena.
  EXPECT_EQ(gex::resolve_rma_wire(c), gex::RmaWire::kDirect);

  setenv("UPCXX_RMA_WIRE", "am", 1);
  EXPECT_EQ(gex::Config::from_env().rma_wire, gex::RmaWire::kAm);
  // Hand-built Configs left at kAuto still honor the env override...
  EXPECT_EQ(gex::resolve_rma_wire(c), gex::RmaWire::kAm);
  // ...but an explicit wire beats the environment.
  c.rma_wire = gex::RmaWire::kDirect;
  EXPECT_EQ(gex::resolve_rma_wire(c), gex::RmaWire::kDirect);

  setenv("UPCXX_RMA_WIRE", "direct", 1);
  EXPECT_EQ(gex::Config::from_env().rma_wire, gex::RmaWire::kDirect);
  // Typos degrade to auto (with a warning), never abort.
  setenv("UPCXX_RMA_WIRE", "smp", 1);
  EXPECT_EQ(gex::Config::from_env().rma_wire, gex::RmaWire::kAuto);

  if (saved)
    setenv("UPCXX_RMA_WIRE", saved_val.c_str(), 1);
  else
    unsetenv("UPCXX_RMA_WIRE");
  if (saved_tr) setenv("UPCXX_AM_TRANSPORT", saved_tr_val.c_str(), 1);
}

}  // namespace
