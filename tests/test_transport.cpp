// Tentpole coverage for segment-offset wire addressing (gex/segment.hpp)
// and the pluggable AM transport (gex/transport.hpp):
//   * SegmentMap round trips for heap, bounce-pool (heap-carved), ring,
//     and rank-segment addresses; raw virtual addresses are rejected in
//     both directions.
//   * Live am-wire traffic in all six record shapes resolves every
//     decoded address through the registry (decode_count) — the "no raw
//     virtual address on the wire" acceptance hook.
//   * UPCXX_AM_TRANSPORT parsing and resolution.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "gex/arena.hpp"
#include "gex/rma_am.hpp"
#include "gex/segment.hpp"
#include "spmd_helpers.hpp"

namespace {

// ------------------------------------------------------------- SegmentMap

TEST(SegmentMap, RoundTripsHeapPoolRingAndSegments) {
  gex::Config cfg = testutil::test_cfg(3);
  gex::Arena* a = gex::Arena::create(cfg);
  const gex::SegmentMap& sm = a->segmap();
  // heap + 3 segments + ring arena.
  EXPECT_EQ(sm.segment_count(), 5u);

  // Heap addresses (rendezvous buffers and the bounce pools both carve
  // from here).
  void* rdzv = a->heap().allocate(4096);
  void* pool = a->heap().allocate(64 << 10);
  ASSERT_NE(rdzv, nullptr);
  ASSERT_NE(pool, nullptr);
  for (void* p : {rdzv, pool}) {
    const gex::WireAddr wa = sm.encode(p);
    EXPECT_NE(wa, 0u);
    EXPECT_EQ(sm.decode(wa), p);
  }

  // Rank-segment addresses, including interior offsets (device segments
  // are carved from these, so they are covered by the same ids).
  for (int r = 0; r < 3; ++r) {
    void* seg = a->segment_heap(r).allocate(512);
    ASSERT_NE(seg, nullptr);
    EXPECT_EQ(sm.decode(sm.encode(seg)), seg);
    std::byte* interior = static_cast<std::byte*>(seg) + 17;
    EXPECT_EQ(sm.decode(sm.encode(interior)), interior);
  }

  // Ring addresses: nothing should ever put one on the wire, but the
  // registry covers the whole arena so no region a record could name is
  // unmapped.
  void* ring = &a->inbox(1);
  EXPECT_EQ(sm.decode(sm.encode(ring)), ring);

  gex::Arena::destroy(a);
}

TEST(SegmentMap, RejectsRawVirtualAddresses) {
  gex::Config cfg = testutil::test_cfg(2);
  gex::Arena* a = gex::Arena::create(cfg);
  const gex::SegmentMap& sm = a->segmap();

  // Process-private addresses (stack, malloc) have no segment: encoding
  // reports failure instead of leaking them onto the wire.
  int on_stack = 0;
  auto heap_private = std::make_unique<long>(7);
  EXPECT_EQ(sm.try_encode(&on_stack), 0u);
  EXPECT_EQ(sm.try_encode(heap_private.get()), 0u);
  EXPECT_FALSE(sm.contains(&on_stack));

  // A raw x86-64 pointer value smuggled into a record decodes to the
  // reserved id 0 (its top 16 bits are zero) — rejected, never
  // dereferenced. Out-of-range ids and offsets are rejected too.
  const auto raw = static_cast<gex::WireAddr>(
      reinterpret_cast<std::uintptr_t>(&on_stack));
  EXPECT_EQ(sm.try_decode(raw), nullptr);
  EXPECT_EQ(sm.try_decode(0), nullptr);
  const gex::WireAddr bad_id = gex::WireAddr{999}
                               << gex::kWireAddrOffsetBits;
  EXPECT_EQ(sm.try_decode(bad_id), nullptr);
  const gex::WireAddr heap_id = sm.encode(a->heap().allocate(64)) &
                                ~gex::kWireAddrOffsetMask;
  EXPECT_EQ(sm.try_decode(heap_id | (cfg.heap_bytes + 1)), nullptr);

  gex::Arena::destroy(a);
}

// ------------------------------------------------- live-traffic acceptance

// The "no raw virtual address on the wire" hook: every decoded record
// resolves through the segment registry, so a burst of am-wire RMA that
// sends each of the protocol's six records (PUT, PUT_STAGED, GET,
// GET_STAGED, REPLY, ACK) must grow decode_count by every descriptor and
// staging buffer it names — and land the right bytes, proving the decoded
// addresses were correct.
TEST(WireAddressing, EveryAmRecordResolvesThroughRegistry) {
  gex::Config cfg = testutil::test_cfg(2);
  cfg.rma_wire = gex::RmaWire::kAm;
  // Staging needs shared memory; pin mmap against the CI matrix.
  cfg.am_transport = gex::AmTransport::kMmap;
  cfg.rma_async_min = 4 << 10;
  cfg.xfer_chunk_bytes = 16 << 10;  // chunks past eager_max: staged
  const int fails = upcxx::run(cfg, [] {
    const int me = upcxx::rank_me();
    constexpr std::size_t kN = 8192;  // 64 KiB of longs: 4 staged chunks
    static upcxx::global_ptr<long> remote;
    if (me == 1) remote = upcxx::new_array<long>(kN);
    upcxx::barrier();
    if (me == 0) {
      const std::uint64_t before = gex::arena().segmap().decode_count();
      std::vector<long> src(kN), sink(kN, 0), small(64, 0);
      for (std::size_t i = 0; i < src.size(); ++i)
        src[i] = static_cast<long>(i);
      upcxx::rput(src.data(), remote, 64).wait();     // PUT: 1 desc
      upcxx::rput(src.data(), remote, kN).wait();     // PUT_STAGED: 4 × 2
      upcxx::rget(remote, sink.data(), kN).wait();    // GET_STAGED + ACK:
                                                      //   4 × (1 + 1)
      upcxx::rget(remote, small.data(), 64).wait();   // GET + REPLY: 1
      std::vector<upcxx::src_fragment<long>> s{{src.data(), 32}};
      std::vector<upcxx::dst_fragment<long>> d{{remote, 16}, {remote + 16, 16}};
      upcxx::rput_irregular(s, d).wait();             // 2-run PUT: 2 descs
      EXPECT_EQ(sink, src);
      EXPECT_TRUE(std::equal(small.begin(), small.end(), src.begin()));
      EXPECT_GE(gex::arena().segmap().decode_count() - before, 20u);
      const auto& st = gex::rma_am().stats();
      EXPECT_EQ(st.puts_staged, 4u);
      EXPECT_GE(st.frag_puts_sent, 1u);
      EXPECT_EQ(st.gets_staged, 4u);
    }
    upcxx::barrier();
    if (me == 1) {
      // The target answered the inline get with a reply and acked every
      // put and staged get, standalone or piggybacked.
      const auto& st = gex::rma_am().stats();
      EXPECT_EQ(st.gets_handled, 5u);
      EXPECT_EQ(st.replies_sent, 1u);
      EXPECT_GT(st.acks_sent, 0u);
      EXPECT_EQ(st.ack_cookies_sent + st.acks_piggybacked,
                st.puts_handled + 4u);
      upcxx::delete_array(remote, kN);
    }
    upcxx::barrier();
  });
  EXPECT_EQ(fails, 0);
}

// ---------------------------------------------------- transport resolution

TEST(Transport, ConfigParsingAndResolution) {
  const char* saved = getenv("UPCXX_AM_TRANSPORT");
  const std::string saved_val = saved ? saved : "";

  unsetenv("UPCXX_AM_TRANSPORT");
  gex::Config c;
  EXPECT_EQ(c.am_transport, gex::AmTransport::kAuto);
  EXPECT_EQ(gex::resolve_am_transport(c), gex::AmTransport::kMmap);

  setenv("UPCXX_AM_TRANSPORT", "socket", 1);
  EXPECT_EQ(gex::Config::from_env().am_transport, gex::AmTransport::kSocket);
  // Hand-built Configs left at kAuto honor the env override (the CI
  // matrix contract)...
  EXPECT_EQ(gex::resolve_am_transport(c), gex::AmTransport::kSocket);
  // ...but an explicit transport beats the environment.
  c.am_transport = gex::AmTransport::kMmap;
  EXPECT_EQ(gex::resolve_am_transport(c), gex::AmTransport::kMmap);

  // Typos degrade to auto (with a warning), never abort.
  setenv("UPCXX_AM_TRANSPORT", "infiniband", 1);
  EXPECT_EQ(gex::Config::from_env().am_transport, gex::AmTransport::kAuto);

  if (saved)
    setenv("UPCXX_AM_TRANSPORT", saved_val.c_str(), 1);
  else
    unsetenv("UPCXX_AM_TRANSPORT");
}

}  // namespace
