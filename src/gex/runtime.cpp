#include "gex/runtime.hpp"

#include "gex/agg.hpp"
#include "gex/rma_am.hpp"
#include "gex/socket.hpp"
#include "gex/xfer.hpp"

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <thread>
#include <vector>

namespace gex {

namespace {
thread_local Rank* tls_rank = nullptr;

// Runs the SPMD body on one rank with enter/exit barriers so that no rank
// communicates before every inbox ring exists and none tears down while
// peers may still send to it.
int run_rank(Arena* arena, int r, const std::function<void()>& fn) {
  Rank rank;
  rank.me = r;
  rank.arena = arena;
  // Bound before the engines are built: each records the constructing
  // thread's rank as its owner (the one thread allowed to drive it).
  tls_rank = &rank;
  AmEngine engine(arena, r);
  rank.am = &engine;
  Aggregator aggregator(&engine);
  rank.agg = &aggregator;
  // Wire selection: on the am wire the engine's chunk movers are the AM
  // protocol; on the direct wire the engine keeps its built-in memcpy.
  // AM-wire chunks are additionally clamped so window × chunk (the
  // in-flight bounce staging) stays cache-sized and, on a transport
  // without shared memory, so every piece fits one record — explicit
  // smaller test chunkings still win (RmaAmProtocol::chunk_bytes).
  rank.rma_wire_am = resolve_rma_wire(arena->config()) == RmaWire::kAm;
  const std::uint32_t am_window = resolve_am_window(arena->config());
  const std::size_t chunk_bytes =
      rank.rma_wire_am
          ? RmaAmProtocol::chunk_bytes(engine, am_window,
                                       arena->config().xfer_chunk_bytes)
          : arena->config().xfer_chunk_bytes;
  XferEngine xfer_engine(chunk_bytes, arena->config().sim_bw_gbps);
  rank.xfer = &xfer_engine;
  RmaAmProtocol rma_am_proto(&engine, am_window);
  rank.rma_am = &rma_am_proto;
  if (rank.rma_wire_am) xfer_engine.set_wire(rma_am_proto.wire_ops());
  arena->world_barrier();
  int rc = 0;
  try {
    fn();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gex: rank %d terminated with exception: %s\n", r,
                 e.what());
    // signal_error (not a bare flag store): isolated socket ranks must also
    // tell peers that cannot see this mapping.
    arena->signal_error();
    rc = 1;
  } catch (...) {
    std::fprintf(stderr, "gex: rank %d terminated with unknown exception\n",
                 r);
    arena->signal_error();
    rc = 1;
  }
  // Drain any stragglers so peers blocked on a full ring can finish, then
  // synchronize teardown. If some rank failed we skip the barrier to avoid
  // hanging on a rank that never arrives. In-flight transfers land first
  // (upcxx teardown already drained its own; this covers raw-gex users),
  // then staged aggregation frames go out — peers may still be waiting on
  // them. On the am wire the engine's acks arrive through the AM engine,
  // so the drain loop drives the whole stack, not just the XferEngine —
  // and must give up when a peer failed (its acks will never come).
  while ((!xfer_engine.idle() || !rma_am_proto.idle()) &&
         arena->control().error_flag.value.load(std::memory_order_acquire) ==
             0) {
    xfer_engine.poll(1 << 20);
    engine.poll();
    rma_am_proto.poll();
  }
  // Gave up because a peer failed: its acks will never retire our credits.
  // Release them and cancel in-flight requests now, or the polls below
  // would keep trying to send into the dead rank's (possibly full) ring and
  // hang the survivors.
  if (arena->control().error_flag.value.load(std::memory_order_acquire) != 0)
    rma_am_proto.fail_all_peers();
  aggregator.flush_all();
  for (int i = 0; i < 64; ++i) {
    engine.poll();
    rma_am_proto.poll();
  }
  // Transports with buffered tx (socket) may still hold committed records
  // in user-space queues; push them onto the wire before the barrier, or a
  // peer could pass the barrier and tear down while our bytes are queued.
  while (!engine.transport().tx_quiesced() &&
         arena->control().error_flag.value.load(std::memory_order_acquire) ==
             0)
    engine.poll();
  if (arena->control().error_flag.value.load(std::memory_order_acquire) == 0)
    arena->world_barrier();
  tls_rank = nullptr;
  return rc;
}

// One isolated socket rank: this process IS rank `me` of an nranks-wide
// job whose peers live in other processes (spawned by upcxx-run or by
// launch_socket_isolated below). Bootstraps through the launcher, builds a
// private arena at the agreed fixed base, and installs the SocketRuntime
// as the arena's control plane so barriers and error propagation travel
// over the bootstrap connection.
int launch_socket_worker(const Config& cfg, const std::function<void()>& fn,
                         int me, int boot_port) {
  SocketRuntime* rt = SocketRuntime::create(me, cfg.ranks, boot_port);
  set_active_socket_runtime(rt);
  Arena* arena = Arena::create_private(cfg);
  arena->set_control_plane(rt);
  const int rc = run_rank(arena, me, fn) == 0 ? 0 : 1;
  // Tell the launcher we finished (either way) before closing anything —
  // EOF without a BYE reads as a crash.
  rt->bye(rc);
  Arena::destroy(arena);
  set_active_socket_runtime(nullptr);
  delete rt;
  return rc;
}

// Isolated-mode in-process launcher (UPCXX_SOCKET_ISOLATED with the
// process backend): forks one process per rank like the plain process
// backend, but ranks share no arena — each builds its own private mapping
// and all traffic rides the socket transport, which is exactly what
// upcxx-run does across binaries. Used by tests to exercise the
// no-shared-memory path without exec.
int launch_socket_isolated(const Config& cfg,
                           const std::function<void()>& fn) {
  BootstrapServer boot(cfg.ranks);
  std::vector<pid_t> kids;
  kids.reserve(cfg.ranks);
  for (int r = 0; r < cfg.ranks; ++r) {
    const pid_t pid = ::fork();
    if (pid == 0) {
      const int rc = launch_socket_worker(cfg, fn, r, boot.port());
      std::fflush(stdout);
      std::fflush(stderr);
      ::_exit(rc);
    }
    if (pid < 0) {
      std::perror("gex: fork");
      std::abort();
    }
    kids.push_back(pid);
  }
  return boot.serve(kids);
}

}  // namespace

Rank* self() { return tls_rank; }

void bind_self(Rank* r) { tls_rank = r; }

int rank_me() {
  assert(tls_rank && "called outside an SPMD region");
  return tls_rank->me;
}

int rank_n() {
  assert(tls_rank && "called outside an SPMD region");
  return tls_rank->arena->nranks();
}

Arena& arena() {
  assert(tls_rank);
  return *tls_rank->arena;
}

AmEngine& am() {
  assert(tls_rank);
  return *tls_rank->am;
}

Aggregator& agg() {
  assert(tls_rank);
  return *tls_rank->agg;
}

XferEngine& xfer() {
  assert(tls_rank);
  return *tls_rank->xfer;
}

RmaAmProtocol& rma_am() {
  assert(tls_rank);
  return *tls_rank->rma_am;
}

int launch(const Config& cfg, const std::function<void()>& fn) {
  // Spawned by upcxx-run: this process is one isolated rank of a wider
  // job, whatever the binary's own launch arguments say.
  if (const char* sr = std::getenv("UPCXX_SOCKET_RANK")) {
    const char* bp = std::getenv("UPCXX_SOCKET_BOOTSTRAP");
    if (!bp) {
      std::fprintf(stderr,
                   "gex: UPCXX_SOCKET_RANK set without "
                   "UPCXX_SOCKET_BOOTSTRAP\n");
      return 1;
    }
    Config c = cfg;
    c.normalize();
    return launch_socket_worker(c, fn, std::atoi(sr), std::atoi(bp));
  }
  // Explicit isolated mode: fork ranks that share nothing.
  if (cfg.socket_isolated && cfg.backend == Backend::kProcess &&
      resolve_am_transport(cfg) == AmTransport::kSocket) {
    Config c = cfg;
    c.normalize();
    return launch_socket_isolated(c, fn);
  }
  Arena* arena = Arena::create(cfg);
  int failures = 0;

  if (cfg.backend == Backend::kThread) {
    std::atomic<int> fail_count{0};
    std::vector<std::thread> threads;
    threads.reserve(cfg.ranks);
    for (int r = 0; r < cfg.ranks; ++r) {
      threads.emplace_back([&, r] {
        if (run_rank(arena, r, fn) != 0)
          fail_count.fetch_add(1, std::memory_order_relaxed);
      });
    }
    for (auto& t : threads) t.join();
    failures = fail_count.load();
  } else {
    std::vector<pid_t> kids;
    kids.reserve(cfg.ranks);
    for (int r = 0; r < cfg.ranks; ++r) {
      pid_t pid = ::fork();
      if (pid == 0) {
        int rc = run_rank(arena, r, fn);
        // _exit skips stdio teardown; flush so rank output survives when
        // stdout is a pipe (block-buffered).
        std::fflush(stdout);
        std::fflush(stderr);
        ::_exit(rc == 0 ? 0 : 1);
      }
      if (pid < 0) {
        std::perror("gex: fork");
        std::abort();
      }
      kids.push_back(pid);
    }
    for (pid_t pid : kids) {
      int status = 0;
      ::waitpid(pid, &status, 0);
      if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) ++failures;
    }
  }

  if (arena->control().error_flag.value.load() != 0 && failures == 0)
    failures = 1;
  Arena::destroy(arena);
  return failures;
}

int launch_env(const std::function<void()>& fn) {
  return launch(Config::from_env(), fn);
}

}  // namespace gex
