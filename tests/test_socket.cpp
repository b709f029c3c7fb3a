// Socket-transport coverage (gex/socket.hpp):
//   * Transport-contract conformance shared by both transports
//     (mmap / socket): reserve/commit/consume FIFO per pair,
//     8-aligned payloads even after odd-sized records, self-sends,
//     rx_empty / tx_quiesced at quiescence.
//   * UPCXX_SOCKET_* config knobs parse, normalize clamps them, and
//     rma-wire auto resolution pins `am` under the socket transport.
//   * SPMD smoke at 4 and 8 ranks over loopback TCP: rput/rget/rpc,
//     allgather, team split (the keyed exchange — no scratch slots), and
//     the staged bounce/reply counters stay zero because those paths
//     assume shared memory.
//   * Deterministic fault injection: a short-read/short-write soak
//     (seed printed for replay) shadow-verified against local state, and
//     a peer that _exit()s mid-stream in isolated mode, which must raise
//     upcxx::rank_failed from future::wait on the survivor — not hang.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "arch/rng.hpp"
#include "gex/am.hpp"
#include "gex/arena.hpp"
#include "gex/rma_am.hpp"
#include "gex/socket.hpp"
#include "gex/transport.hpp"
#include "spmd_helpers.hpp"

namespace {

// Throwing check for use inside forked rank bodies.
void require(bool ok, const char* what) {
  if (!ok) throw std::runtime_error(std::string("check failed: ") + what);
}

// Save/restore a set of environment variables around a test that mutates
// them (the suite may itself run under a CI matrix that sets them).
class EnvGuard {
 public:
  explicit EnvGuard(std::vector<const char*> names)
      : names_(std::move(names)) {
    for (const char* n : names_) {
      const char* v = ::getenv(n);
      saved_.emplace_back(v != nullptr, v ? v : "");
      ::unsetenv(n);
    }
  }
  ~EnvGuard() {
    for (std::size_t i = 0; i < names_.size(); ++i) {
      if (saved_[i].first)
        ::setenv(names_[i], saved_[i].second.c_str(), 1);
      else
        ::unsetenv(names_[i]);
    }
  }

 private:
  std::vector<const char*> names_;
  std::vector<std::pair<bool, std::string>> saved_;
};

// --------------------------------------------- transport-contract fixture

struct Received {
  std::vector<std::vector<std::byte>> recs;
  std::size_t misaligned = 0;
};

void record_visitor(void* payload, std::size_t bytes, void* cx) {
  auto* got = static_cast<Received*>(cx);
  if (reinterpret_cast<std::uintptr_t>(payload) % 8 != 0) ++got->misaligned;
  auto* p = static_cast<std::byte*>(payload);
  got->recs.emplace_back(p, p + bytes);
}

std::vector<std::byte> pattern_record(std::size_t idx, std::size_t bytes) {
  std::vector<std::byte> r(bytes);
  for (std::size_t j = 0; j < bytes; ++j)
    r[j] = static_cast<std::byte>(idx * 31 + j);
  return r;
}

class TransportContract
    : public ::testing::TestWithParam<gex::AmTransport> {};

// One sender, one receiver, both driven from this thread: a burst of
// odd-sized records must arrive FIFO, bit-exact, and 8-aligned (the wire
// header carries a u64; a misaligned record is UB the sanitizer jobs
// would catch only by luck).
TEST_P(TransportContract, FifoOrderAlignmentAndSelfSend) {
  gex::Config cfg = testutil::test_cfg(2);
  cfg.am_transport = GetParam();
  gex::Arena* a = gex::Arena::create(cfg);
  {
    std::unique_ptr<gex::Transport> t0(gex::make_transport(a, 0));
    std::unique_ptr<gex::Transport> t1(gex::make_transport(a, 1));
    ASSERT_GT(t0->max_record_payload(), std::size_t{4096});

    // Deliberately odd sizes: each record must not disturb the alignment
    // of the next.
    const std::size_t sizes[] = {1, 3, 7, 13, 64, 129, 1000, 4093};
    const std::size_t kRecs = std::size(sizes);
    for (std::size_t i = 0; i < kRecs; ++i) {
      gex::Transport::Ticket t = t0->try_reserve(1, sizes[i]);
      ASSERT_NE(t.payload, nullptr) << "record " << i;
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(t.payload) % 8, 0u);
      const auto rec = pattern_record(i, sizes[i]);
      std::memcpy(t.payload, rec.data(), rec.size());
      t0->commit(t);
    }

    Received got;
    while (got.recs.size() < kRecs) {
      // Drive the sender too (connect completion, partial-write
      // continuation): in SPMD use every rank pumps its own transport,
      // here one thread owns both ends.
      t0->tx_quiesced();
      t1->try_consume(record_visitor, &got);
    }
    EXPECT_EQ(got.misaligned, 0u);
    for (std::size_t i = 0; i < kRecs; ++i) {
      ASSERT_EQ(got.recs[i].size(), sizes[i]) << "record " << i;
      EXPECT_EQ(got.recs[i], pattern_record(i, sizes[i])) << "record " << i;
    }

    // Self-send: target == me loops back through the same consume path.
    gex::Transport::Ticket self = t1->try_reserve(1, 24);
    ASSERT_NE(self.payload, nullptr);
    const auto selfrec = pattern_record(99, 24);
    std::memcpy(self.payload, selfrec.data(), selfrec.size());
    t1->commit(self);
    Received self_got;
    while (self_got.recs.empty()) t1->try_consume(record_visitor, &self_got);
    EXPECT_EQ(self_got.recs[0], selfrec);

    // Quiescent: everything sent reached the wire, nothing left to read.
    while (!t0->tx_quiesced()) {
    }
    EXPECT_TRUE(t1->rx_empty());
    EXPECT_FALSE(t1->try_consume(record_visitor, &got));
  }
  gex::Arena::destroy(a);
}

const char* transport_param_name(
    const ::testing::TestParamInfo<gex::AmTransport>& info) {
  switch (info.param) {
    case gex::AmTransport::kMmap:
      return "mmap";
    case gex::AmTransport::kSocket:
      return "socket";
    default:
      return "auto";
  }
}

INSTANTIATE_TEST_SUITE_P(AllTransports, TransportContract,
                         ::testing::Values(gex::AmTransport::kMmap,
                                           gex::AmTransport::kSocket),
                         transport_param_name);

// ------------------------------------------------------- config + resolve

TEST(SocketConfig, EnvKnobsParseNormalizeAndResolve) {
  EnvGuard guard({"UPCXX_AM_TRANSPORT", "UPCXX_RMA_WIRE",
                  "UPCXX_SOCKET_MAX_RECORD_KB", "UPCXX_SOCKET_ARENA_BASE",
                  "UPCXX_SOCKET_ISOLATED", "UPCXX_SOCKET_FAULT_SEED",
                  "UPCXX_SOCKET_FAULT_SHORT_WRITE_PCT",
                  "UPCXX_SOCKET_FAULT_SHORT_READ_PCT",
                  "UPCXX_SOCKET_FAULT_DIE_RANK",
                  "UPCXX_SOCKET_FAULT_DIE_AT"});

  // Defaults.
  gex::Config d;
  EXPECT_EQ(d.socket_max_record, std::size_t{8} << 20);
  EXPECT_EQ(d.socket_fault_die_rank, -1);
  EXPECT_FALSE(d.socket_isolated);

  ::setenv("UPCXX_AM_TRANSPORT", "socket", 1);
  ::setenv("UPCXX_SOCKET_MAX_RECORD_KB", "1024", 1);
  ::setenv("UPCXX_SOCKET_ARENA_BASE", "0x300000000000", 1);
  ::setenv("UPCXX_SOCKET_ISOLATED", "1", 1);
  ::setenv("UPCXX_SOCKET_FAULT_SEED", "77", 1);
  ::setenv("UPCXX_SOCKET_FAULT_SHORT_WRITE_PCT", "30", 1);
  ::setenv("UPCXX_SOCKET_FAULT_SHORT_READ_PCT", "25", 1);
  ::setenv("UPCXX_SOCKET_FAULT_DIE_RANK", "2", 1);
  ::setenv("UPCXX_SOCKET_FAULT_DIE_AT", "40", 1);
  gex::Config c = gex::Config::from_env();
  EXPECT_EQ(c.am_transport, gex::AmTransport::kSocket);
  EXPECT_EQ(c.socket_max_record, std::size_t{1} << 20);
  EXPECT_EQ(c.socket_arena_base, 0x300000000000ull);
  EXPECT_TRUE(c.socket_isolated);
  EXPECT_EQ(c.socket_fault_seed, 77u);
  EXPECT_EQ(c.socket_fault_short_write_pct, 30u);
  EXPECT_EQ(c.socket_fault_short_read_pct, 25u);
  EXPECT_EQ(c.socket_fault_die_rank, 2);
  EXPECT_EQ(c.socket_fault_die_at, 40u);

  // Auto rma-wire resolution pins `am` under socket: peers must be
  // treated as not cross-mapped.
  gex::Config s;
  s.am_transport = gex::AmTransport::kSocket;
  EXPECT_EQ(gex::resolve_rma_wire(s), gex::RmaWire::kAm);
  // ...while an explicit wire still wins (legal only with a shared arena).
  s.rma_wire = gex::RmaWire::kDirect;
  EXPECT_EQ(gex::resolve_rma_wire(s), gex::RmaWire::kDirect);

  // normalize() clamps: a record must hold a maximal eager payload, fault
  // probabilities are percentages, the fixed base is page-aligned.
  gex::Config n;
  n.socket_max_record = 1;
  n.socket_fault_short_write_pct = 250;
  n.socket_arena_base = 0x300000000123ull;
  n.normalize();
  EXPECT_EQ(n.socket_max_record, std::size_t{64} << 10);
  EXPECT_EQ(n.socket_fault_short_write_pct, 100u);
  EXPECT_EQ(n.socket_arena_base & 4095u, 0u);
}

// ------------------------------------------------------------- SPMD smoke

// Full message-plane traffic over loopback TCP, thread backend (shared
// arena, but every record rides the stream): RMA beyond eager_max, RPC,
// allgather, and a team split through the keyed exchange. The staged
// bounce/reply counters must stay zero — those paths hand a peer a
// pointer into "shared" memory, which the socket transport forbids.
void socket_spmd_body() {
  const int me = upcxx::rank_me(), P = upcxx::rank_n();
  require(std::strcmp(gex::am().transport().name(), "socket") == 0,
          "transport resolved to socket");
  require(!gex::am().transport().shared_memory(),
          "socket transport reports no shared memory");
  constexpr std::size_t kN = 4096;  // 32 KB of longs: far beyond eager_max
  auto mine = upcxx::new_array<long>(kN);
  std::memset(mine.local(), 0, kN * sizeof(long));
  auto ptrs = upcxx::allgather(mine).wait();
  upcxx::barrier();
  const int nb = (me + 1) % P;
  std::vector<long> pat(kN);
  for (std::size_t i = 0; i < kN; ++i)
    pat[i] = me * 100000 + static_cast<long>(i);
  upcxx::rput(pat.data(), ptrs[nb], kN).wait();
  upcxx::barrier();
  const int left = (me + P - 1) % P;
  for (std::size_t i = 0; i < kN; ++i)
    require(mine.local()[i] == left * 100000 + static_cast<long>(i),
            "large put landed over the socket");
  std::vector<long> back(kN, 0);
  upcxx::rget(ptrs[nb], back.data(), kN).wait();
  require(back == pat, "rget round trip over the socket");
  const int echoed =
      upcxx::rpc(nb, [](int x) { return x + 1; }, me).wait();
  require(echoed == me + 1, "rpc over the socket");
  // Team split rides AmEngine::exchange — the scratch-slot allgather it
  // replaced assumed a cross-mapped arena.
  upcxx::team half = upcxx::world().split(me % 2, me);
  require(half.rank_n() == P / 2, "split team size");
  require(gex::rma_am().stats().puts_staged == 0,
          "no staged puts on a non-shared-memory transport");
  require(gex::rma_am().stats().gets_staged == 0,
          "no staged gets on a non-shared-memory transport");
  upcxx::barrier();
  upcxx::delete_array(mine, kN);
  upcxx::barrier();
}

TEST(SocketTransport, SpmdSmoke4Ranks) {
  gex::Config cfg = testutil::test_cfg(4);
  cfg.am_transport = gex::AmTransport::kSocket;
  EXPECT_EQ(upcxx::run(cfg, socket_spmd_body), 0);
}

TEST(SocketTransport, SpmdSmoke8Ranks) {
  gex::Config cfg = testutil::test_cfg(8);
  cfg.am_transport = gex::AmTransport::kSocket;
  EXPECT_EQ(upcxx::run(cfg, socket_spmd_body), 0);
}

// -------------------------------------------------------- fault injection

// Short writes force partial-write continuation on every queue; short
// reads force header/body reassembly from 1..64-byte gulps. The schedule
// is a pure function of the seed, which is printed so a failure replays
// bit-exactly (export UPCXX_SOCKET_FAULT_SEED and re-run).
TEST(SocketFault, ShortReadShortWriteSoakIsLossless) {
  std::uint64_t seed = 0;
  if (const char* v = ::getenv("UPCXX_SOCKET_FAULT_SEED"); v && *v)
    seed = std::strtoull(v, nullptr, 10);
  if (seed == 0)
    seed = static_cast<std::uint64_t>(::time(nullptr)) * 2654435761u + 1;
  std::printf("[ socket-fault ] seed=%llu (replay with "
              "UPCXX_SOCKET_FAULT_SEED=%llu)\n",
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(seed));
  gex::Config cfg = testutil::test_cfg(2);
  cfg.am_transport = gex::AmTransport::kSocket;
  cfg.socket_fault_seed = seed;
  cfg.socket_fault_short_write_pct = 30;
  cfg.socket_fault_short_read_pct = 30;
  const int fails = upcxx::run(cfg, [] {
    const int me = upcxx::rank_me();
    constexpr std::size_t kWords = 8 << 10;
    auto mine = upcxx::new_array<long>(kWords);
    std::memset(mine.local(), 0, kWords * sizeof(long));
    auto ptrs = upcxx::allgather(mine).wait();
    upcxx::barrier();
    if (me == 0) {
      arch::Xoshiro256 rng(42);
      std::vector<long> shadow(kWords, 0), buf(kWords), back(kWords);
      for (int iter = 0; iter < 40; ++iter) {
        const std::size_t n = 1 + rng.next_below(kWords - 1);
        const std::size_t at = rng.next_below(kWords - n);
        for (std::size_t i = 0; i < n; ++i)
          buf[i] = static_cast<long>(rng.next());
        upcxx::rput(buf.data(), ptrs[1] + at, n).wait();
        std::copy(buf.begin(), buf.begin() + static_cast<long>(n),
                  shadow.begin() + static_cast<long>(at));
        if (iter % 5 == 0) {
          upcxx::rget(ptrs[1], back.data(), kWords).wait();
          require(back == shadow, "shadow diverged under fault injection");
        }
      }
      upcxx::rget(ptrs[1], back.data(), kWords).wait();
      require(back == shadow, "final shadow check under fault injection");
    }
    upcxx::barrier();
    upcxx::delete_array(mine, kWords);
    upcxx::barrier();
  });
  EXPECT_EQ(fails, 0) << "replay with UPCXX_SOCKET_FAULT_SEED=" << seed;
}

// A peer that dies mid-stream (isolated mode: ranks are processes sharing
// nothing) must surface as upcxx::rank_failed from future::wait on the
// survivor — within the test timeout, never a hang — and the launcher
// must report the job failed. The dying rank leaves a torn frame on the
// wire, so this also proves a half-read frame cannot wedge the decoder.
// Forked ranks cannot report through gtest, so the survivor leaves a
// marker file that the parent asserts on.
TEST(SocketFault, KilledPeerRaisesRankFailed) {
  const std::string marker =
      "/tmp/upcxx-sockdeath-" + std::to_string(::getpid());
  ::unlink(marker.c_str());
  gex::Config cfg = testutil::test_cfg(2);
  cfg.backend = gex::Backend::kProcess;
  cfg.am_transport = gex::AmTransport::kSocket;
  cfg.socket_isolated = true;
  cfg.socket_fault_die_rank = 1;
  cfg.socket_fault_die_at = 25;  // dies while acking rank 0's puts
  const int fails = upcxx::run(cfg, [] {
    const int me = upcxx::rank_me();
    constexpr std::size_t kWords = 512;
    auto mine = upcxx::new_array<long>(kWords);
    auto ptrs = upcxx::allgather(mine).wait();
    upcxx::barrier();
    if (me == 0) {
      std::vector<long> buf(kWords, 7);
      bool saw_rank_failed = false;
      try {
        // Far more puts than the victim will live to ack.
        for (int i = 0; i < 100000; ++i)
          upcxx::rput(buf.data(), ptrs[1], kWords).wait();
      } catch (const upcxx::rank_failed&) {
        saw_rank_failed = true;
      }
      require(saw_rank_failed, "future::wait raised rank_failed");
      // PR-4 conservation contract, now over a real disconnect: requests
      // injected after the failure (no waits — the dead peer will never
      // ack) park against the closed window, and teardown's
      // fail_all_peers() must cancel them and reclaim credits + staged
      // buffers instead of waiting on acks. A leak here shows up as this
      // rank hanging in teardown (ctest timeout), not as a failed EXPECT.
      for (int i = 0; i < 8; ++i)
        upcxx::rput(buf.data(), ptrs[1], kWords,
                    upcxx::operation_cx::as_lpc([] {}));
      const std::string mark =
          "/tmp/upcxx-sockdeath-" + std::to_string(::getppid());
      if (FILE* f = std::fopen(mark.c_str(), "w")) {
        std::fputs("rank_failed\n", f);
        std::fclose(f);
      }
    } else {
      // The victim pumps until fault injection _exit()s it mid-frame. The
      // time bound keeps a broken injector from hanging the job.
      const std::time_t t0 = std::time(nullptr);
      while (std::time(nullptr) - t0 < 120) upcxx::progress();
      throw std::runtime_error("fault injection never fired");
    }
  });
  // Exactly the victim fails (died without a BYE); the survivor must tear
  // down cleanly — fail_all_peers() reclaiming its credits and staged
  // buffers — or it would be counted failed (or hang) too.
  EXPECT_EQ(fails, 1);
  // ...and the survivor must have taken the exception path, not a hang
  // (a hang would have tripped the ctest timeout instead).
  EXPECT_EQ(::access(marker.c_str(), F_OK), 0)
      << "rank 0 never caught upcxx::rank_failed";
  ::unlink(marker.c_str());
}

}  // namespace
