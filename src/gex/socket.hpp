// Socket transport: the gex::Transport contract over non-blocking TCP.
//
// Wire: every AM record is framed as [u32 len][u32 check = len ^ magic]
// followed by the record bytes (WireHeader + payload). The 8-byte frame
// header keeps the record 8-aligned inside the sender's staging buffer —
// WireHeader carries a u64 — and the receive side assembles each record
// into its own 16-aligned allocation, so alignment survives the stream.
// Connections are unidirectional: a rank's sends to one peer ride a
// single connection it initiated (opening with an 8-byte preamble naming
// the sender), which gives the per-pair FIFO guarantee for free from TCP
// ordering. A rank therefore owns one listen socket, up to P-1 inbound
// connections (its inbox) and up to P-1 lazily opened outbound ones.
//
// Event loop: one epoll instance per rank, pumped from try_consume — i.e.
// from AmEngine::poll, so progress keeps the paper's no-hidden-threads
// property: the rank that owns the persona pumps its own wire. Every
// call — reserve, commit, consume, the control-plane barrier's I/O pump —
// comes from that one thread (the AmEngine asserts it owns the rank), so
// the transport state takes no lock.
//
// try_reserve returns a private malloc'd staging buffer (never a pointer
// into shared state); commit frames it onto the peer's send queue and
// flushes as far as the kernel accepts, with partial-write continuation
// picked up by the pump when EPOLLOUT fires. Backpressure: a peer whose
// queue exceeds a bound makes try_reserve return a null ticket, which
// sends AmEngine::prepare into its poll-own-inbox retry loop — the same
// deadlock-freedom argument as a full ring. Sends to a peer already known
// dead get a "black hole" ticket: a valid staging buffer that commit
// silently frees (the error flag, not a lost record, is the failure
// signal).
//
// Endpoint exchange: in shared-arena mode (thread or plain process
// backends) each rank publishes its listen port in the arena's port
// slots. In isolated mode (upcxx-run, or Backend::kIsolated) ranks share
// nothing: a SocketRuntime connects to the launcher's bootstrap socket,
// sends HELLO{rank, port}, receives the full port table, and from then on
// serves as the arena's ControlPlane — world barriers and error
// propagation travel as CtlMsg records over the bootstrap connection,
// pumped by the same epoll loop.
//
// Fault injection (Config::socket_fault_*): a per-rank xorshift stream
// seeded from socket_fault_seed ^ rank drives probabilistic short writes
// (partial-write continuation) and short delayed reads (frame
// reassembly); socket_fault_die_rank/die_at add a deterministic
// peer-death-at-record-N that leaves a torn frame on the wire — the
// harness the error-aware-wait tests drive.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "gex/arena.hpp"
#include "gex/transport.hpp"

namespace gex {

class SocketTransport;

// ------------------------------------------------------- control protocol
//
// Fixed-size little messages on the bootstrap connection (rank <->
// launcher). Both sides read/write whole structs; the connection is
// trusted (loopback, same uid) so there is no versioning.
struct CtlMsg {
  std::uint32_t type = 0;
  std::uint32_t a = 0;  // HELLO: rank; BYE: exit code
  std::uint64_t b = 0;  // HELLO: listen port; BARRIER_*: epoch
};

inline constexpr std::uint32_t kCtlHello = 1;
// ENDPOINTS: header only; nranks u32 ports follow on the stream.
inline constexpr std::uint32_t kCtlEndpoints = 2;
inline constexpr std::uint32_t kCtlBarrierArrive = 3;
inline constexpr std::uint32_t kCtlBarrierRelease = 4;
inline constexpr std::uint32_t kCtlError = 5;
inline constexpr std::uint32_t kCtlBye = 6;

// ---------------------------------------------------------- SocketRuntime
//
// Isolated-rank bootstrap state: owns the AM listen socket (bound before
// HELLO so the port can be announced), the bootstrap connection to the
// launcher, and the peer port table. Implements the arena ControlPlane
// over that connection. One per process (isolated ranks are one rank per
// process); the transport picks it up via active_socket_runtime().
class SocketRuntime final : public ControlPlane {
 public:
  // Binds the AM listen socket, connects to the launcher's bootstrap
  // port on loopback, sends HELLO, and blocks until ENDPOINTS arrives.
  // Aborts on any bootstrap failure — there is no job without it.
  static SocketRuntime* create(int me, int nranks, int bootstrap_port);
  ~SocketRuntime() override;

  int me() const { return me_; }
  int nranks() const { return nranks_; }
  int listen_fd() const { return listen_fd_; }
  int bootstrap_fd() const { return boot_fd_; }
  std::uint16_t peer_port(int rank) const { return ports_[rank]; }

  // The transport registers the bootstrap fd in its epoll set and feeds
  // control messages back through on_ctl(); barrier() pumps it for I/O.
  void attach(Arena* arena, SocketTransport* t);
  void detach() { transport_ = nullptr; }
  void on_ctl(const CtlMsg& m);
  // Drains whatever control messages the (non-blocking) bootstrap fd has,
  // buffering a partial message across calls. EOF means the launcher died;
  // that sets the local error flag.
  void on_ctl_readable();

  // ControlPlane over the bootstrap connection: arrive at the launcher,
  // pump the wire until the matching release (or the job fails).
  void barrier() override;
  void broadcast_error() override;

  // Final word to the launcher (exit status); EOF without it reads as a
  // crash.
  void bye(int rc);

 private:
  SocketRuntime() = default;
  void send_ctl(const CtlMsg& m);

  int me_ = -1;
  int nranks_ = 0;
  int listen_fd_ = -1;
  int boot_fd_ = -1;
  std::vector<std::uint16_t> ports_;
  Arena* arena_ = nullptr;
  SocketTransport* transport_ = nullptr;
  std::uint64_t barriers_entered_ = 0;
  std::uint64_t releases_seen_ = 0;
  bool error_sent_ = false;
  std::byte ctl_buf_[sizeof(CtlMsg)];
  std::size_t ctl_have_ = 0;
};

// The calling process's isolated-rank runtime; null in shared-arena mode.
SocketRuntime* active_socket_runtime();
void set_active_socket_runtime(SocketRuntime* rt);

// -------------------------------------------------------- BootstrapServer
//
// The launcher half of the bootstrap protocol, used by `upcxx-run` and by
// in-process isolated launches (Backend::kIsolated): accepts one
// connection per rank, collects HELLOs, broadcasts the port table, then
// centralizes world barriers and failure propagation until every rank
// said BYE or died. Single-threaded, poll-driven.
class BootstrapServer {
 public:
  explicit BootstrapServer(int nranks);  // binds 127.0.0.1:0; aborts on error
  ~BootstrapServer();

  int port() const { return port_; }

  // Runs the whole protocol against the given child pids (one per rank,
  // same indexing). Watches the children: a rank whose connection drops
  // before BYE, or that exits without ever connecting, marks the job
  // failed and every surviving rank is told via kCtlError. A connected
  // rank's exit is judged after its connection closed, so a BYE it sent
  // just before exiting always counts. Returns the number of ranks that
  // failed (non-zero BYE, crash, or never completed).
  int serve(const std::vector<pid_t>& kids);

 private:
  void broadcast(const CtlMsg& m);
  void fail_job();

  int nranks_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::vector<int> fds_;  // per rank; -1 until HELLO, -2 after close
  std::vector<int> rc_;   // per rank exit/BYE status; -1 unknown
  bool failed_ = false;
};

// Builds the socket transport for rank `me` (factory target of
// gex::make_transport). Picks up active_socket_runtime() when the process
// is an isolated rank; otherwise exchanges endpoints through the arena.
Transport* make_socket_transport(Arena* arena, int me);

}  // namespace gex
