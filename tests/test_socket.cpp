// Socket-transport coverage (gex/socket.hpp):
//   * Transport-contract conformance shared by both transports
//     (mmap / socket): reserve/commit/consume FIFO per pair,
//     8-aligned payloads even after odd-sized records, self-sends,
//     tx_quiesced and an empty inbox at quiescence.
//   * UPCXX_SOCKET_* config knobs parse, normalize clamps them, and
//     rma-wire auto resolution pins `am` under the socket transport.
//   * SPMD smoke at 4 and 8 ranks over loopback TCP: rput/rget/rpc,
//     allgather, team split (the keyed exchange — no scratch slots), and
//     no record takes the AmEngine's rendezvous path, which assumes
//     shared memory.
//   * The launcher counts a BYE that it reads only after it saw the
//     rank's process exit.
//   * Isolated ranks map only their own segment: a peer's global_ptr is
//     not local, yet rput/rget/AM atomics through it reach the peer's
//     memory; on a shared arena the same pointer operations (arithmetic,
//     ordering, hashing, null) behave as on raw addresses.
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
#include <unordered_set>
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
  EnvGuard guard({"UPCXX_AM_TRANSPORT", "UPCXX_RMA_WIRE"});

  // Defaults.
  gex::Config d;
  EXPECT_EQ(d.socket_max_record, std::size_t{8} << 20);
  EXPECT_EQ(d.socket_fault_die_rank, -1);

  ::setenv("UPCXX_AM_TRANSPORT", "socket", 1);
  gex::Config c = gex::Config::from_env();
  EXPECT_EQ(gex::resolve_am_transport(c), gex::AmTransport::kSocket);

  // Auto rma-wire resolution pins `am` under socket: peers must be
  // treated as not cross-mapped.
  gex::Config s;
  s.am_transport = gex::AmTransport::kSocket;
  EXPECT_EQ(gex::resolve_rma_wire(s), gex::RmaWire::kAm);
  // ...while an explicit wire still wins (legal only with a shared arena).
  s.rma_wire = gex::RmaWire::kDirect;
  EXPECT_EQ(gex::resolve_rma_wire(s), gex::RmaWire::kDirect);

  // normalize() clamps: a record must hold a maximal eager payload.
  gex::Config n;
  n.socket_max_record = 1;
  n.normalize();
  EXPECT_EQ(n.socket_max_record, std::size_t{64} << 10);
}

// ------------------------------------------------------------- SPMD smoke

// Full message-plane traffic over loopback TCP, thread backend (shared
// arena, but every record rides the stream): RMA beyond eager_max, RPC,
// allgather, and a team split through the keyed exchange. No record may
// take the rendezvous path — it hands a peer a pointer into "shared"
// memory, which the socket transport forbids.
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
  // Team split gathers through the collective engine's AM traffic, with
  // no shared scratch memory.
  upcxx::team half = upcxx::world().split(me % 2, me);
  require(half.rank_n() == P / 2, "split team size");
  require(gex::am().stats().sent_rendezvous == 0,
          "no rendezvous records on a non-shared-memory transport");
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

// A nonzero seed turns on short writes, forcing partial-write continuation
// on every queue, and short reads, forcing header/body reassembly from
// 1..64-byte gulps. The schedule is a pure function of the seed, which is
// printed so a failure replays bit-exactly (export UPCXX_SOCKET_FAULT_SEED,
// which this test reads, and re-run).
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
  cfg.backend = gex::Backend::kIsolated;
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

// ---------------------------------------------------------------- launcher

// The launcher judges a connected rank by everything its bootstrap
// connection delivered before closing, not by when it sees the process
// exit: a BYE still in flight when the exit is reaped is no failure. Here
// the rank's process exits first, and a child that shares its connection
// sends the BYE 200 ms later.
TEST(SocketLauncher, ByeReadAfterTheExitStillCounts) {
  gex::BootstrapServer boot(1);
  const pid_t rank = ::fork();
  ASSERT_GE(rank, 0);
  if (rank == 0) {
    gex::SocketRuntime* rt = gex::SocketRuntime::create(0, 1, boot.port());
    if (::fork() == 0) {
      ::usleep(200 * 1000);
      rt->bye(0);
    }
    ::_exit(0);
  }
  EXPECT_EQ(boot.serve({rank}), 0);
}

// ------------------------------------------------ isolated-rank pointers

// Ranks that share no memory: each maps only its own segment, so a peer's
// global_ptr is not local — its wire address names memory this process
// does not have — yet RMA and AM atomics through it reach the peer's
// memory. Forked ranks report through a marker file, as above.
TEST(SocketIsolated, PeerPointersAreNotLocal) {
  const std::string marker =
      "/tmp/upcxx-isolocal-" + std::to_string(::getpid());
  ::unlink(marker.c_str());
  gex::Config cfg = testutil::test_cfg(2);
  cfg.backend = gex::Backend::kIsolated;
  const int fails = upcxx::run(cfg, [] {
    const int me = upcxx::rank_me(), peer = 1 - me;
    constexpr long kN = 64;
    auto mine = upcxx::new_array<long>(kN);
    auto ptrs = upcxx::allgather(mine).wait();
    require(ptrs[me] == mine, "allgather returns my own pointer");
    require(mine.is_local(), "own pointer is local");
    require(!ptrs[peer].is_local(), "peer pointer is not local");
    upcxx::barrier();
    std::vector<long> pat(kN), back(kN, 0);
    for (long i = 0; i < kN; ++i) pat[i] = me * 1000 + i;
    upcxx::rput(pat.data(), ptrs[peer], kN).wait();
    upcxx::barrier();
    for (long i = 0; i < kN; ++i)
      require(mine.local()[i] == peer * 1000 + i,
              "peer's put landed in my segment");
    upcxx::rget(ptrs[peer], back.data(), kN).wait();
    require(back == pat, "rget reads what this rank put");
    upcxx::atomic_domain<long> ad(
        {upcxx::atomic_op::fetch_add, upcxx::atomic_op::load});
    require(!ad.uses_direct_backend(), "isolated ranks use AM atomics");
    require(ad.fetch_add(ptrs[peer] + 1, 5).wait() == me * 1000 + 1,
            "fetch_add returns the value put");
    upcxx::barrier();
    require(ad.load(ptrs[peer] + 1).wait() == me * 1000 + 6,
            "fetch_add updated the peer's memory");
    require(mine.local()[1] == peer * 1000 + 6, "peer's fetch_add landed");
    upcxx::barrier();
    upcxx::delete_array(mine, kN);
    if (me == 0) {
      const std::string mark =
          "/tmp/upcxx-isolocal-" + std::to_string(::getppid());
      if (FILE* f = std::fopen(mark.c_str(), "w")) std::fclose(f);
    }
  });
  EXPECT_EQ(fails, 0);
  EXPECT_EQ(::access(marker.c_str(), F_OK), 0) << "rank 0 never finished";
  ::unlink(marker.c_str());
}

// The same pointer operations on a shared arena, where every segment is
// mapped: arithmetic in elements, ordering by rank, equality, hashing,
// null, and the raw-pointer conversions, on pointers of two ranks.
TEST(SharedArena, GlobalPtrOpsAcrossRanks) {
  const int fails = upcxx::run(testutil::test_cfg(2), [] {
    const int me = upcxx::rank_me();
    auto mine = upcxx::new_array<long>(16);
    auto ptrs = upcxx::allgather(mine).wait();
    const upcxx::global_ptr<long> a = ptrs[0], b = ptrs[1];
    require(a.is_local() && b.is_local(), "a shared arena maps every rank");
    require(a.where() == 0 && b.where() == 1, "owners");
    require(a < b && !(b < a) && a < a + 1, "ordered by rank, then offset");
    require((a + 5) - a == 5 && ((a + 5) - 2) - a == 3, "element arithmetic");
    upcxx::global_ptr<long> c = a;
    c += 7;
    --c;
    ++c;
    c -= 7;
    require(c == a && a != b && a + 1 != a, "equality");
    require((b + 3).local() == b.local() + 3, "arithmetic tracks local()");
    require(a.reinterpret<char>() + 8 == (a + 1).reinterpret<char>(),
            "reinterpret keeps the address");
    const std::hash<upcxx::global_ptr<long>> h;
    require(h(a + 2) == h(ptrs[0] + 2), "equal pointers hash equal");
    std::unordered_set<upcxx::global_ptr<long>> set{a, b, a + 1, a};
    require(set.size() == 3, "hash set dedups equal pointers");
    const upcxx::global_ptr<long> null;
    require(null.is_null() && !null && null == nullptr && a != nullptr,
            "null");
    require(null < a && null.is_local() && null.local() == nullptr,
            "null is local and first");
    require(upcxx::to_global_ptr(mine.local() + 2) == mine + 2,
            "to_global_ptr inverts local()");
    long on_stack = 0;
    require(upcxx::try_global_ptr(&on_stack).is_null(),
            "private memory has no global_ptr");
    require(upcxx::try_global_ptr(ptrs[1 - me].local() + 1) ==
                ptrs[1 - me] + 1,
            "try_global_ptr finds a peer's segment");
    upcxx::barrier();
    upcxx::delete_array(mine, 16);
  });
  EXPECT_EQ(fails, 0);
}

}  // namespace
