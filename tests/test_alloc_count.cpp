// Steady-state heap allocations per injected operation.
//
// This binary replaces the global operator new/delete with counting
// versions and measures, over a window of sequential round trips issued by
// an injection_scope thread (both ranks are threads of this process, so
// the count covers the initiator, its progress persona and the target):
//
//   * an injected rpc round trip (request, execution, reply, fulfillment
//     back on the injector's persona);
//   * an injected 64 B rput over the AM wire (request, ack, operation
//     completion back on the injector's persona);
//   * the same 64 B AM-wire rput issued by the master persona itself, with
//     no injector thread in between.
//
// The bounds are half of what the op layer allocated before the
// cross-thread hand-offs moved onto block queues and reply slots (the
// reference counts, measured by this same test on that code, are quoted
// next to each bound).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <thread>
#include <vector>

#include "spmd_helpers.hpp"

namespace {
std::atomic<std::uint64_t> g_news{0};

void* counted_alloc(std::size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}

void* counted_alloc_aligned(std::size_t n, std::align_val_t al) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(al);
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_alloc_aligned(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_alloc_aligned(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

constexpr int kWarmup = 500;
constexpr int kWindow = 4000;

std::uint64_t add_one(std::uint64_t v) { return v + 1; }

// Rank 0's injector runs `op(i)` kWarmup + kWindow times; returns the
// operator-new calls per op over the window (rank 1 only progresses).
template <typename Op>
double allocs_per_op(Op op) {
  double per_op = -1;
  std::atomic<bool> done{false};
  upcxx::injector inj;
  if (upcxx::rank_me() == 0) {
    std::thread t([&] {
      upcxx::injection_scope scope(inj);
      for (int i = 0; i < kWarmup; ++i) op(i);
      const std::uint64_t before = g_news.load();
      for (int i = 0; i < kWindow; ++i) op(kWarmup + i);
      per_op = static_cast<double>(g_news.load() - before) / kWindow;
      done.store(true, std::memory_order_release);
    });
    while (!done.load(std::memory_order_acquire)) upcxx::progress();
    t.join();
  }
  upcxx::barrier();
  return per_op;
}

TEST(AllocCount, InjectedRpcRoundTrip) {
  // Reference: 6.25 operator-new calls per round trip before.
  constexpr double kBefore = 6.25;
  double got = -1;
  testutil::spmd(2, [&] {
    const double v = allocs_per_op([](int i) {
      const auto x = static_cast<std::uint64_t>(i);
      ASSERT_EQ(upcxx::rpc(1, add_one, x).wait(), x + 1);
    });
    if (upcxx::rank_me() == 0) got = v;
  });
  std::printf("allocations per injected rpc round trip: %.3f\n", got);
  ASSERT_GE(got, 0);
  EXPECT_LE(got, kBefore / 2);
}

TEST(AllocCount, InjectedAmWireRput) {
  // Reference: 11.1 operator-new calls per rput before.
  constexpr double kBefore = 11.1;
  double got = -1;
  gex::Config cfg = testutil::test_cfg(2);
  cfg.rma_wire = gex::RmaWire::kAm;
  const int fails = upcxx::run(cfg, [&] {
    auto slots = upcxx::allocate<char>(64);
    upcxx::dist_object<upcxx::global_ptr<char>> dir(slots);
    const auto peer = dir.fetch(1 - upcxx::rank_me()).wait();
    std::vector<char> src(64, 'x');
    const double v = allocs_per_op([&](int i) {
      src[0] = static_cast<char>(i);
      upcxx::rput(src.data(), peer, 64).wait();
    });
    if (upcxx::rank_me() == 0) got = v;
    upcxx::barrier();
    upcxx::deallocate(slots);
  });
  EXPECT_EQ(fails, 0);
  std::printf("allocations per injected AM-wire rput: %.3f\n", got);
  ASSERT_GE(got, 0);
  EXPECT_LE(got, kBefore / 2);
}

TEST(AllocCount, MasterAmWireRput) {
  // Reference: 5.125 operator-new calls per rput when the master persona
  // handed small AM-wire ops straight to the protocol (measured by this
  // same test body on that code). The transport is pinned to mmap: the
  // socket transport's send queue adds its own allocations per record.
  constexpr double kBefore = 5.125;
  double got = -1;
  gex::Config cfg = testutil::test_cfg(2);
  cfg.rma_wire = gex::RmaWire::kAm;
  cfg.am_transport = gex::AmTransport::kMmap;
  const int fails = upcxx::run(cfg, [&] {
    auto slots = upcxx::allocate<char>(64);
    upcxx::dist_object<upcxx::global_ptr<char>> dir(slots);
    const auto peer = dir.fetch(1 - upcxx::rank_me()).wait();
    std::vector<char> src(64, 'x');
    if (upcxx::rank_me() == 0) {
      auto op = [&](int i) {
        src[0] = static_cast<char>(i);
        upcxx::rput(src.data(), peer, 64).wait();
      };
      for (int i = 0; i < kWarmup; ++i) op(i);
      const std::uint64_t before = g_news.load();
      for (int i = 0; i < kWindow; ++i) op(kWarmup + i);
      got = static_cast<double>(g_news.load() - before) / kWindow;
    }
    upcxx::barrier();
    upcxx::deallocate(slots);
  });
  EXPECT_EQ(fails, 0);
  std::printf("allocations per master-persona AM-wire rput: %.3f\n", got);
  ASSERT_GE(got, 0);
  EXPECT_LE(got, kBefore);
}

}  // namespace
