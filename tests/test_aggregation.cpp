// Message-layer v2 tests: the handler registry (indices on the wire, never
// raw function pointers), multi-message frames, per-target aggregation,
// flush-on-barrier ordering, config validation, and the AM rendezvous
// adopt()/release path under the process (fork) backend.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "apps/dht/dht.hpp"
#include "arch/cacheline.hpp"
#include "gex/agg.hpp"
#include "gex/am.hpp"
#include "gex/arena.hpp"
#include "gex/config.hpp"
#include "gex/handlers.hpp"
#include "gex/runtime.hpp"
#include "spmd_helpers.hpp"

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

// ------------------------------------------------------------- registry

std::atomic<int> g_h1_count{0};
std::atomic<int> g_h2_count{0};
void reg_handler_one(gex::AmContext&) { g_h1_count.fetch_add(1); }
void reg_handler_two(gex::AmContext&) { g_h2_count.fetch_add(1); }

TEST(HandlerRegistry, StableIdempotentIndices) {
  const gex::HandlerIdx a = gex::am_handler<&reg_handler_one>();
  const gex::HandlerIdx b = gex::am_handler<&reg_handler_two>();
  EXPECT_NE(a, b);
  // Re-registration returns the existing index.
  EXPECT_EQ(gex::register_am_handler(&reg_handler_one), a);
  EXPECT_EQ(gex::register_am_handler(&reg_handler_two), b);
  // Round trip through the table.
  EXPECT_EQ(gex::am_handler_at(a), &reg_handler_one);
  EXPECT_EQ(gex::am_handler_at(b), &reg_handler_two);
  EXPECT_GE(gex::am_handler_count(), 2u);
}

// ----------------------------------------------------------- wire format

// The acceptance property of the v2 wire: handler identity is a 16-bit
// registry index in the record header — a frame's one handler included —
// and no header field is pointer-typed. A frame's sub-message header is
// only its size.
TEST(WireFormat, HeadersCarryIndicesNotPointers) {
  static_assert(sizeof(gex::WireHeader) == 16);
  static_assert(sizeof(gex::FrameMsgHeader) == 8);
  static_assert(
      std::is_same_v<decltype(gex::WireHeader::handler), gex::HandlerIdx>);
  static_assert(sizeof(gex::HandlerIdx) == 2,
                "handler identity must be a small index, not a pointer");
  static_assert(!std::is_pointer_v<decltype(gex::WireHeader::handler)>);
  static_assert(!std::is_pointer_v<decltype(gex::WireHeader::flags)>);
  static_assert(!std::is_pointer_v<decltype(gex::WireHeader::src)>);
  static_assert(!std::is_pointer_v<decltype(gex::WireHeader::send_ns)>);
  static_assert(
      std::is_same_v<decltype(gex::FrameMsgHeader::size), std::uint64_t>);
}

void scan_target_handler(gex::AmContext&) {}

// Sends eager, frame, and rendezvous-descriptor records into a rank's inbox
// without polling, then raw-consumes every record and scans its bytes for
// the handler's address. The v1 wire would fail this: it stored the raw
// `AmHandler` in every record header.
TEST(WireFormat, NoHandlerAddressOnTheWire) {
  auto cfg = small_cfg(2);
  // This test raw-consumes records out of the arena inbox ring, so it pins
  // the mmap transport explicitly (under UPCXX_AM_TRANSPORT=socket the
  // records would travel over TCP streams instead).
  cfg.am_transport = gex::AmTransport::kMmap;
  gex::Arena* arena = gex::Arena::create(cfg);
  gex::AmEngine eng(arena, 0);
  gex::Aggregator agg(&eng);

  const std::uint8_t payload[32] = {1, 2, 3, 4};
  const gex::HandlerIdx idx = gex::am_handler<&scan_target_handler>();
  eng.send(1, idx, payload, sizeof payload);                   // eager
  std::memcpy(agg.put(1, idx, sizeof payload), payload,
              sizeof payload);                                 // frame slot
  agg.flush(1);
  std::vector<std::uint8_t> big(cfg.eager_max * 2, 7);
  eng.send(1, idx, big.data(), big.size());                    // rendezvous

  std::uintptr_t addr = reinterpret_cast<std::uintptr_t>(&scan_target_handler);
  std::uint8_t needle[sizeof addr];
  std::memcpy(needle, &addr, sizeof addr);

  int records = 0;
  bool found = false;
  while (arena->inbox(1).try_consume([&](void* rec, std::size_t n) {
    auto* bytes = static_cast<std::uint8_t*>(rec);
    for (std::size_t i = 0; i + sizeof needle <= n; ++i)
      if (std::memcmp(bytes + i, needle, sizeof needle) == 0) found = true;
    ++records;
  })) {
  }
  EXPECT_EQ(records, 3);
  EXPECT_FALSE(found) << "raw handler pointer leaked onto the wire";
  gex::Arena::destroy(arena);
}

// ----------------------------------------------------- frames, raw gex

// Calls fn(payload, size) for each sub-message of the frame a frame
// handler was handed, in packing order.
template <typename Fn>
void for_each_frame_msg(const gex::AmContext& cx, Fn&& fn) {
  const auto* p = static_cast<const std::byte*>(cx.data);
  for (std::size_t off = 0; off < cx.size;) {
    gex::FrameMsgHeader mh;
    std::memcpy(&mh, p + off, sizeof mh);
    fn(p + off + sizeof mh, static_cast<std::size_t>(mh.size));
    off += sizeof mh + arch::align_up(mh.size, gex::kFrameAlign);
  }
}

// Written only by the receiving rank's thread; read after launch joins it.
int g_frame_count = 0;
long g_frame_last = 0;
int g_frame_order_errors = 0;
void frame_sum_handler(gex::AmContext& cx) {
  for_each_frame_msg(cx, [](const std::byte* data, std::size_t n) {
    long v = 0;
    EXPECT_EQ(n, sizeof v);
    std::memcpy(&v, data, sizeof v);
    if (v != g_frame_last + 1) ++g_frame_order_errors;
    g_frame_last = v;
    ++g_frame_count;
  });
}

TEST(Frames, PackedMessagesDeliverInOrderWithCounts) {
  g_frame_count = 0;
  g_frame_last = 0;
  g_frame_order_errors = 0;
  auto cfg = small_cfg(2);
  constexpr int kMsgs = 1000;
  int fails = gex::launch(cfg, [] {
    if (gex::rank_me() == 0) {
      auto& agg = gex::agg();
      for (long i = 1; i <= kMsgs; ++i)
        std::memcpy(
            agg.put(1, gex::am_handler<&frame_sum_handler>(), sizeof i), &i,
            sizeof i);
      agg.flush_all();
      // Small messages of one handler flush only at the count cap.
      constexpr int kCap = gex::Aggregator::kMaxFrameMsgs;
      EXPECT_EQ(agg.stats().frames,
                static_cast<std::uint64_t>((kMsgs + kCap - 1) / kCap));
      EXPECT_EQ(agg.stats().msgs, static_cast<std::uint64_t>(kMsgs));
      EXPECT_EQ(gex::am().stats().sent_frames, agg.stats().frames);
    } else {
      const auto s0 = gex::am().stats();
      while (g_frame_count < kMsgs) gex::am().poll();
      // The engine counts a frame's sub-messages, not its records.
      const auto& s = gex::am().stats();
      EXPECT_EQ(s.received - s0.received, static_cast<std::uint64_t>(kMsgs));
      EXPECT_GT(s.received_frames - s0.received_frames, 1u);
      EXPECT_LT(s.received_frames - s0.received_frames,
                static_cast<std::uint64_t>(kMsgs));
    }
  });
  EXPECT_EQ(fails, 0);
  EXPECT_EQ(g_frame_count, kMsgs);
  EXPECT_EQ(g_frame_order_errors, 0) << "frames reordered sub-messages";
}

// (handler, value) per delivered sub-message, in delivery order.
std::vector<std::pair<int, long>> g_frame_log;
template <int Id>
void frame_log_handler(gex::AmContext& cx) {
  for_each_frame_msg(cx, [](const std::byte* data, std::size_t) {
    long v = 0;
    std::memcpy(&v, data, sizeof v);
    g_frame_log.emplace_back(Id, v);
  });
}

// A frame names one handler, so staging a message for another handler
// first sends the frame staged so far: put(h1), put(h2), put(h1) to one
// target leave as three frames, delivered in put order.
TEST(Frames, HandlerChangeFlushesStagedFrame) {
  g_frame_log.clear();
  int fails = gex::launch(small_cfg(2), [] {
    const gex::HandlerIdx h1 = gex::am_handler<&frame_log_handler<1>>();
    const gex::HandlerIdx h2 = gex::am_handler<&frame_log_handler<2>>();
    if (gex::rank_me() == 0) {
      auto& agg = gex::agg();
      const auto a0 = agg.stats();
      long v = 1;
      for (gex::HandlerIdx h : {h1, h2, h1}) {
        std::memcpy(agg.put(1, h, sizeof v), &v, sizeof v);
        ++v;
      }
      EXPECT_EQ(agg.pending_msgs(1), 1u);  // only the last put is staged
      agg.flush(1);
      EXPECT_EQ(agg.stats().msgs - a0.msgs, 3u);
      EXPECT_EQ(agg.stats().frames - a0.frames, 3u);
      EXPECT_EQ(agg.stats().flushes_capacity, a0.flushes_capacity);
    } else {
      const auto s0 = gex::am().stats();
      while (g_frame_log.size() < 3) gex::am().poll();
      const auto& s = gex::am().stats();
      EXPECT_EQ(s.received - s0.received, 3u);
      EXPECT_EQ(s.received_frames - s0.received_frames, 3u);
    }
  });
  EXPECT_EQ(fails, 0);
  const std::vector<std::pair<int, long>> want{{1, 1}, {2, 2}, {1, 3}};
  EXPECT_EQ(g_frame_log, want);
}

// ------------------------------------------- aggregated rpc_ff ordering

// Written only by rank 1 (the only RPC target), read after the barrier.
std::atomic<int> g_seq_errors{0};
std::atomic<int> g_seq_last{-1};
std::atomic<int> g_seq_count{0};

TEST(Aggregation, RpcFfPerTargetFifoAcrossFlushes) {
  g_seq_errors = 0;
  g_seq_last = -1;
  g_seq_count = 0;
  constexpr int kMsgs = 5000;  // crosses many frame-count-cap boundaries
  testutil::spmd(2, [] {
    if (upcxx::rank_me() == 0) {
      for (int i = 0; i < kMsgs; ++i) {
        upcxx::rpc_ff(1, [](int seq) {
          if (seq != g_seq_last.load() + 1) g_seq_errors.fetch_add(1);
          g_seq_last.store(seq);
          g_seq_count.fetch_add(1);
        }, i);
        if (!(i % 97)) upcxx::progress();  // interleave explicit flushes
      }
    } else {
      while (g_seq_count.load() < kMsgs) upcxx::progress();
    }
    upcxx::barrier();
  });
  EXPECT_EQ(g_seq_count.load(), kMsgs);
  EXPECT_EQ(g_seq_errors.load(), 0) << "frames reordered messages";
}

TEST(Aggregation, MixedSizeRpcFfKeepsFifo) {
  // Messages above the aggregation cutoff take the direct path; they must
  // not overtake smaller messages still staged for the same target
  // (send_msg flushes the target first).
  g_seq_errors = 0;
  g_seq_last = -1;
  g_seq_count = 0;
  constexpr int kMsgs = 600;
  testutil::spmd(2, [] {
    if (upcxx::rank_me() == 0) {
      std::vector<double> big(1024);  // 8KB view: well above the cutoff
      for (int i = 0; i < kMsgs; ++i) {
        auto check = [](int seq) {
          if (seq != g_seq_last.load() + 1) g_seq_errors.fetch_add(1);
          g_seq_last.store(seq);
          g_seq_count.fetch_add(1);
        };
        if (i % 3 == 2) {
          big[0] = i;
          upcxx::rpc_ff(1, [](upcxx::view<double> v) {
            const int seq = static_cast<int>(v[0]);
            if (seq != g_seq_last.load() + 1) g_seq_errors.fetch_add(1);
            g_seq_last.store(seq);
            g_seq_count.fetch_add(1);
          }, upcxx::make_view(big.data(), big.data() + big.size()));
        } else {
          upcxx::rpc_ff(1, check, i);
        }
      }
    } else {
      while (g_seq_count.load() < kMsgs) upcxx::progress();
    }
    upcxx::barrier();
  });
  EXPECT_EQ(g_seq_count.load(), kMsgs);
  EXPECT_EQ(g_seq_errors.load(), 0)
      << "direct-path messages overtook staged frames";
}

// --------------------------------------------- flush-on-barrier ordering

std::array<std::atomic<int>, 8> g_bar_counts{};

TEST(Aggregation, BarrierFlushesStagedTraffic) {
  for (auto& c : g_bar_counts) c = 0;
  constexpr int kPer = 50;
  const int P = 4;
  testutil::spmd(P, [] {
    const int me = upcxx::rank_me();
    const int n = upcxx::rank_n();
    // Stage fine-grained updates to every peer with NO intervening
    // progress: everything sits in the aggregation buffers...
    for (int i = 0; i < kPer; ++i)
      for (int t = 0; t < n; ++t)
        if (t != me)
          upcxx::rpc_ff(t, [](int target) {
            g_bar_counts[target].fetch_add(1);
          }, t);
    // ...until barrier entry flushes them. Frames reach each target's ring
    // before any barrier traffic that could complete the barrier there, and
    // compQ drains in order, so post-barrier the counts must be complete.
    upcxx::barrier();
    if (g_bar_counts[me].load() != (n - 1) * kPer)
      throw std::runtime_error("barrier overtook staged aggregated traffic");
    upcxx::barrier();
  });
  for (int r = 0; r < P; ++r)
    EXPECT_EQ(g_bar_counts[r].load(), (P - 1) * kPer);
}

// ------------------------------------------------- process (fork) backend

TEST(Aggregation, BarrierFlushOrderingProcessBackend) {
  // Same property across address spaces: each child checks its own counter
  // (globals are per-process after fork) and signals failure by throwing.
  auto cfg = testutil::test_cfg(4);
  cfg.backend = gex::Backend::kProcess;
  constexpr int kPer = 25;
  int fails = upcxx::run(cfg, [] {
    for (auto& c : g_bar_counts) c = 0;
    upcxx::barrier();
    const int me = upcxx::rank_me();
    const int n = upcxx::rank_n();
    for (int i = 0; i < kPer; ++i)
      for (int t = 0; t < n; ++t)
        if (t != me)
          upcxx::rpc_ff(t, [](int target) {
            g_bar_counts[target].fetch_add(1);
          }, t);
    upcxx::barrier();
    if (g_bar_counts[me].load() != (n - 1) * kPer)
      throw std::runtime_error("staged traffic lost across fork boundary");
  });
  EXPECT_EQ(fails, 0);
}

// Rendezvous adopt()/release_rendezvous() ownership under fork: the heap
// buffer is shared memory, allocated by the sender, adopted by the receiving
// handler in another process, and freed there; heap accounting must return
// to baseline on both sides.
std::atomic<int> g_rdzv_got{0};
void* g_rdzv_buf = nullptr;
std::size_t g_rdzv_size = 0;
void rdzv_adopt_handler(gex::AmContext& cx) {
  EXPECT_TRUE(cx.is_rendezvous);
  g_rdzv_buf = cx.adopt();
  g_rdzv_size = cx.size;
  g_rdzv_got.fetch_add(1);
}

TEST(Aggregation, RendezvousAdoptReleaseProcessBackend) {
  auto cfg = small_cfg(2);
  cfg.backend = gex::Backend::kProcess;
  // Pinned to the mmap transport: the test is *about* the rendezvous
  // adopt/release protocol, which only exists on shared-memory transports
  // (socket ships every payload inline).
  cfg.am_transport = gex::AmTransport::kMmap;
  const std::size_t big = cfg.eager_max * 4;
  int fails = gex::launch(cfg, [big] {
    g_rdzv_got = 0;
    g_rdzv_buf = nullptr;
    auto& heap = gex::arena().heap();
    gex::arena().world_barrier();
    const std::size_t free0 = heap.bytes_free();
    gex::arena().world_barrier();  // both ranks sample before any traffic
    if (gex::rank_me() == 0) {
      std::vector<std::uint8_t> buf(big);
      for (std::size_t i = 0; i < big; ++i)
        buf[i] = static_cast<std::uint8_t>(i * 13 + 5);
      gex::am().send(1, gex::am_handler<&rdzv_adopt_handler>(), buf.data(),
                     buf.size());
    } else {
      while (g_rdzv_got.load() < 1) gex::am().poll();
      // The buffer was adopted: the engine must not have freed it, and its
      // contents (written by another process) must be intact.
      if (!g_rdzv_buf || g_rdzv_size != big)
        throw std::runtime_error("rendezvous adopt lost the buffer");
      auto* p = static_cast<std::uint8_t*>(g_rdzv_buf);
      for (std::size_t i = 0; i < big; ++i)
        if (p[i] != static_cast<std::uint8_t>(i * 13 + 5))
          throw std::runtime_error("rendezvous payload corrupted");
      gex::am().release_rendezvous(g_rdzv_buf);
    }
    gex::arena().world_barrier();
    if (heap.bytes_free() != free0)
      throw std::runtime_error("shared-heap accounting did not return to "
                               "baseline after release_rendezvous");
    gex::arena().world_barrier();
  });
  EXPECT_EQ(fails, 0);
}

// --------------------------------------------------- dht batch operations

TEST(Aggregation, DhtBatchInsertFind) {
  testutil::spmd(2, [] {
    dht::RpcOnlyMap map;
    upcxx::barrier();
    std::vector<std::pair<std::string, std::string>> kvs;
    std::vector<std::string> keys;
    for (int i = 0; i < 200; ++i) {
      std::string k = "k" + std::to_string(upcxx::rank_me()) + "_" +
                      std::to_string(i);
      kvs.emplace_back(k, "v" + std::to_string(i));
      keys.push_back(k);
    }
    map.insert_batch(kvs).wait();
    upcxx::barrier();
    auto found = map.find_batch(keys).wait();
    ASSERT_EQ(found.size(), keys.size());
    for (std::size_t i = 0; i < found.size(); ++i) {
      ASSERT_TRUE(found[i].has_value()) << keys[i];
      EXPECT_EQ(*found[i], kvs[i].second);
    }
    upcxx::barrier();
  });
}

// -------------------------------------------------- config validation

struct EnvGuard {
  explicit EnvGuard(const char* name) : name_(name) {
    if (const char* v = std::getenv(name)) saved_ = v;
  }
  ~EnvGuard() {
    if (saved_.empty())
      ::unsetenv(name_);
    else
      ::setenv(name_, saved_.c_str(), 1);
  }
  const char* name_;
  std::string saved_;
};

TEST(ConfigValidation, ZeroAndNegativeSizesRejected) {
  EnvGuard g1("UPCXX_SEGMENT_MB"), g2("UPCXX_HEAP_MB"), g3("UPCXX_RING_KB");
  ::setenv("UPCXX_SEGMENT_MB", "0", 1);
  ::setenv("UPCXX_HEAP_MB", "0", 1);
  ::setenv("UPCXX_RING_KB", "-4", 1);
  auto c = gex::Config::from_env();
  const gex::Config d;
  EXPECT_EQ(c.segment_bytes, d.segment_bytes);  // fell back, not 0
  EXPECT_EQ(c.heap_bytes, d.heap_bytes);
  EXPECT_EQ(c.ring_bytes, d.ring_bytes);
  EXPECT_TRUE(arch::is_pow2(c.ring_bytes));
}

TEST(ConfigValidation, EagerMaxClampedToRingFrame) {
  EnvGuard g1("UPCXX_EAGER_MAX"), g2("UPCXX_RING_KB");
  ::setenv("UPCXX_RING_KB", "64", 1);
  ::setenv("UPCXX_EAGER_MAX", "1048576", 1);  // 1 MB >> 64 KB ring
  auto c = gex::Config::from_env();
  EXPECT_LE(c.eager_max, c.ring_bytes / 4 - 64);
}

TEST(ConfigValidation, NormalizeCoversHandBuiltConfigs) {
  gex::Config c;
  c.segment_bytes = 0;
  c.heap_bytes = 0;
  c.ring_bytes = 100;          // not a power of two, far too small
  c.eager_max = 1 << 30;       // absurd
  c.normalize();
  const gex::Config d;
  EXPECT_EQ(c.segment_bytes, d.segment_bytes);
  EXPECT_EQ(c.heap_bytes, d.heap_bytes);
  EXPECT_TRUE(arch::is_pow2(c.ring_bytes));
  EXPECT_LE(c.eager_max, c.ring_bytes / 4 - 64);
}

// ----------------------------------------------- aggregation off still works

TEST(Aggregation, DisabledFallsBackToDirectPath) {
  auto cfg = testutil::test_cfg(2);
  cfg.agg_enabled = false;
  g_seq_count = 0;
  int fails = upcxx::run(cfg, [] {
    if (upcxx::rank_me() == 0) {
      for (int i = 0; i < 500; ++i)
        upcxx::rpc_ff(1, [] { g_seq_count.fetch_add(1); });
    } else {
      while (g_seq_count.load() < 500) upcxx::progress();
    }
    upcxx::barrier();
    if (upcxx::rank_me() == 0) {
      EXPECT_EQ(gex::agg().stats().frames, 0u);
      EXPECT_GT(gex::am().stats().sent_eager, 0u);
    }
  });
  EXPECT_EQ(fails, 0);
}

}  // namespace
