#include "gex/socket.hpp"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/uio.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <utility>

#include "arch/spinlock.hpp"
#include "arch/timer.hpp"
#include "gex/wait.hpp"

namespace gex {

namespace {

// Frame header ahead of every record on the stream: [len][len ^ magic].
// 8 bytes so the record behind it stays 8-aligned in the staging buffer.
constexpr std::uint32_t kFrameMagic = 0x9E3779B9u;
// First 8 bytes of every data connection: {magic, sender world rank}.
constexpr std::uint32_t kPreambleMagic = 0x75506358u;  // "uPcX"
constexpr std::size_t kPreambleBytes = 8;
// Per-peer bound on user-space queued tx bytes; past it try_reserve
// returns a null ticket and the sender falls into its poll-retry loop.
constexpr std::size_t kTxBackpressure = 4u << 20;
// Exit code of a fault-injected mid-stream death (tests assert on it).
constexpr int kFaultDeathExit = 113;
// With a nonzero Config::socket_fault_seed, the percent of flushes cut to
// a random prefix and of ready fds read in a short, delayed gulp.
constexpr std::uint64_t kShortFaultPct = 30;
// Most frames a single sendmsg gathers. Queues deeper than this drain in
// successive batches; 16 covers the bursts injection produces without an
// oversized on-stack iovec array.
constexpr std::size_t kTxIovBatch = 16;

struct FrameHdr {
  std::uint32_t len;
  std::uint32_t check;
};
static_assert(sizeof(FrameHdr) == 8);

int set_nonblock(int fd) {
  const int fl = ::fcntl(fd, F_GETFL, 0);
  return fl < 0 ? -1 : ::fcntl(fd, F_SETFL, fl | O_NONBLOCK);
}

void die(const char* what) {
  std::perror(what);
  std::abort();
}

// Binds a loopback listen socket on an ephemeral port. Returns the fd;
// stores the chosen port. Non-blocking (the accept loop is epoll-driven).
int make_listen_socket(std::uint16_t* port_out) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) die("gex: socket(listen)");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0)
    die("gex: bind(listen)");
  if (::listen(fd, 128) != 0) die("gex: listen");
  socklen_t alen = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &alen) != 0)
    die("gex: getsockname");
  if (set_nonblock(fd) != 0) die("gex: fcntl(listen)");
  *port_out = ntohs(addr.sin_port);
  return fd;
}

// Blocking full-buffer I/O on a possibly non-blocking fd (bootstrap
// traffic: tiny fixed-size messages, spinning on EAGAIN is fine).
bool write_full(int fd, const void* buf, std::size_t n) {
  const auto* p = static_cast<const std::byte*>(buf);
  while (n) {
    const ssize_t w = ::write(fd, p, n);
    if (w > 0) {
      p += w;
      n -= static_cast<std::size_t>(w);
      continue;
    }
    if (w < 0 && (errno == EINTR || errno == EAGAIN)) {
      arch::cpu_relax();
      continue;
    }
    return false;
  }
  return true;
}

bool read_full(int fd, void* buf, std::size_t n) {
  auto* p = static_cast<std::byte*>(buf);
  while (n) {
    const ssize_t r = ::read(fd, p, n);
    if (r > 0) {
      p += r;
      n -= static_cast<std::size_t>(r);
      continue;
    }
    if (r < 0 && (errno == EINTR || errno == EAGAIN)) {
      arch::cpu_relax();
      continue;
    }
    return false;  // EOF or hard error
  }
  return true;
}

std::uint64_t xorshift64(std::uint64_t* s) {
  std::uint64_t x = *s;
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return *s = x;
}

SocketRuntime* g_socket_runtime = nullptr;

}  // namespace

SocketRuntime* active_socket_runtime() { return g_socket_runtime; }
void set_active_socket_runtime(SocketRuntime* rt) { g_socket_runtime = rt; }

// ------------------------------------------------------------- transport

class SocketTransport final : public Transport {
 public:
  SocketTransport(Arena* arena, int me, SocketRuntime* rt)
      : arena_(arena),
        me_(me),
        nranks_(arena->nranks()),
        rt_(rt),
        max_rec_(arena->config().socket_max_record),
        tx_(static_cast<std::size_t>(arena->nranks())) {
    ep_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (ep_ < 0) die("gex: epoll_create1");
    if (rt_) {
      listen_fd_ = rt_->listen_fd();
      owns_listen_ = false;
    } else {
      std::uint16_t port = 0;
      listen_fd_ = make_listen_socket(&port);
      owns_listen_ = true;
      arena_->port_slot(me_).store(port, std::memory_order_release);
    }
    ep_add(listen_fd_, kEpListen, 0, EPOLLIN);
    if (rt_) {
      ep_add(rt_->bootstrap_fd(), kEpBoot, 0, EPOLLIN);
      rt_->attach(arena_, this);
    }
    // SIGPIPE-free writes to dying peers (MSG_NOSIGNAL is send()-only, so
    // all data writes below go through ::send).
    const auto& cfg = arena_->config();
    short_faults_ = cfg.socket_fault_seed != 0;
    rng_ = cfg.socket_fault_seed ^
           (0x9E3779B97F4A7C15ull * static_cast<std::uint64_t>(me + 1));
    if (rng_ == 0) rng_ = 1;
    die_here_ = cfg.socket_fault_die_rank == me;
    die_at_ = cfg.socket_fault_die_at;
  }

  ~SocketTransport() override {
    if (rt_) rt_->detach();
    for (RxConn* c : rx_) {
      if (!c) continue;
      ::close(c->fd);
      std::free(c->rec);
      delete c;
    }
    for (PeerTx& p : tx_) {
      if (p.fd >= 0) ::close(p.fd);
      for (TxBuf& b : p.q) std::free(b.data);
    }
    for (RxRec& r : ready_) std::free(r.base);
    if (owns_listen_) ::close(listen_fd_);
    ::close(ep_);
  }

  Ticket try_reserve(int target, std::size_t bytes) override {
    if (bytes > max_rec_) {
      std::fprintf(stderr,
                   "gex: socket record of %zu bytes exceeds "
                   "Config::socket_max_record (%zu)\n",
                   bytes, max_rec_);
      std::abort();
    }
    if (target != me_) {
      PeerTx& p = tx_[static_cast<std::size_t>(target)];
      if (!p.dead && p.queued >= kTxBackpressure) {
        pump();
        if (!p.dead && p.queued >= kTxBackpressure) return Ticket{};
      }
    }
    // Private staging buffer; the frame header is filled in now so commit
    // (and the self-send path) can recover the record length from it.
    auto* base = static_cast<std::byte*>(std::malloc(sizeof(FrameHdr) + bytes));
    assert(base && "socket staging allocation failed");
    const FrameHdr h{static_cast<std::uint32_t>(bytes),
                     static_cast<std::uint32_t>(bytes) ^ kFrameMagic};
    std::memcpy(base, &h, sizeof h);
    return Ticket{base, base + sizeof(FrameHdr), target};
  }

  void commit(const Ticket& t) override {
    auto* base = static_cast<std::byte*>(t.h);
    FrameHdr h;
    std::memcpy(&h, base, sizeof h);
    const std::uint32_t total = static_cast<std::uint32_t>(sizeof h) + h.len;
    if (die_here_ && die_at_ != 0 && ++committed_ == die_at_) die_torn(t, base, total);
    if (t.target == me_) {
      // Self sends bypass the wire entirely (the ring transports loop
      // through the own-inbox ring; here the "inbox" is the ready queue).
      ready_.push_back(RxRec{base, base + sizeof h, h.len});
      return;
    }
    PeerTx& p = tx_[static_cast<std::size_t>(t.target)];
    if (p.dead) {
      // Black hole: the peer is gone and the error flag already says so;
      // dropping the record keeps every reserve/commit caller loop-free.
      std::free(base);
      return;
    }
    if (p.fd < 0) connect_peer(t.target, p);
    p.q.push_back(TxBuf{base, total, 0});
    p.queued += total;
    flush(t.target, p);
    // Commit's contract matches the ring transports': when it returns, the
    // record has left this rank (handed to the kernel), not merely joined a
    // user-space queue. Without this, a rank that commits and then stops
    // polling — a collective root releasing a child and exiting its wait
    // loop, a barrier entrant parking in a pure atomic spin — strands the
    // record behind an in-flight connect or a short write, and the peer
    // waits forever. Pump the event loop until this peer's queue drains:
    // pumping also reads inbound bytes into ready_ (no handlers run), so
    // two ranks blocked here flooding each other still free each other's
    // kernel buffers; a vanished peer trips peer_lost(), which empties the
    // queue and marks it dead (p is a reference into tx_, which never
    // resizes after construction).
    while (!p.dead && !p.q.empty()) {
      pump();
      if (!p.connecting && !p.q.empty()) flush(t.target, p);
      if (p.dead || p.q.empty()) break;
      arch::cpu_relax();
    }
  }

  bool try_consume(RecordVisitor visit, void* cx) override {
    if (ready_.empty()) pump();
    if (ready_.empty()) return false;
    // Pop before the visit: a handler may re-enter the engine's poll.
    RxRec r = ready_.front();
    ready_.pop_front();
    visit(r.rec, r.len, cx);
    std::free(r.base);
    return true;
  }

  std::size_t max_record_payload() const override { return max_rec_; }

  bool shared_memory() const override { return false; }

  bool tx_quiesced() override {
    pump();
    for (const PeerTx& p : tx_)
      if (!p.dead && !p.q.empty()) return false;
    return true;
  }

  const char* name() const override { return "socket"; }

  std::uint64_t tx_writev_batches() const override {
    return tx_writev_batches_;
  }

  // I/O progress without record delivery — the control-plane barrier
  // pumps this so launcher releases (and peer traffic) keep flowing while
  // the rank waits.
  int poll_io() { return pump(); }

 private:
  enum : std::uint32_t { kEpListen = 0, kEpBoot = 1, kEpRx = 2, kEpTx = 3 };

  struct TxBuf {
    std::byte* data;
    std::uint32_t len;
    std::uint32_t off;
  };
  struct RxRec {
    std::byte* base;  // allocation to free after delivery
    std::byte* rec;   // 8-aligned record bytes
    std::uint32_t len;
  };
  struct PeerTx {
    int fd = -1;
    bool connecting = false;
    bool out_armed = false;
    bool dead = false;
    std::deque<TxBuf> q;
    std::size_t queued = 0;
  };
  // Inbound connection assembly state machine: preamble, then a stream of
  // [FrameHdr][record] with the record read straight into its own
  // allocation (16-aligned malloc keeps the u64 wire fields happy).
  struct RxConn {
    int fd = -1;
    int src = -1;
    std::byte pre[kPreambleBytes];
    std::uint32_t pre_have = 0;
    std::byte hdr[sizeof(FrameHdr)];
    std::uint32_t hdr_have = 0;
    std::byte* rec = nullptr;
    std::uint32_t rec_len = 0;
    std::uint32_t rec_have = 0;
  };

  void ep_add(int fd, std::uint32_t kind, std::uint32_t idx,
              std::uint32_t events) {
    epoll_event ev{};
    ev.events = events;
    ev.data.u64 = (static_cast<std::uint64_t>(kind) << 32) | idx;
    if (::epoll_ctl(ep_, EPOLL_CTL_ADD, fd, &ev) != 0)
      die("gex: epoll_ctl(add)");
  }
  void ep_mod(int fd, std::uint32_t kind, std::uint32_t idx,
              std::uint32_t events) {
    epoll_event ev{};
    ev.events = events;
    ev.data.u64 = (static_cast<std::uint64_t>(kind) << 32) | idx;
    if (::epoll_ctl(ep_, EPOLL_CTL_MOD, fd, &ev) != 0)
      die("gex: epoll_ctl(mod)");
  }

  std::uint16_t peer_port(int target) {
    if (rt_) return rt_->peer_port(target);
    // Shared arena: the peer publishes its port at transport construction,
    // which precedes the job's first world barrier — so by the time anyone
    // sends, the slot is set. The bounded spin covers engine-only tests
    // that skip the barrier.
    for (int spin = 0; spin < 30'000; ++spin) {
      const std::uint32_t p =
          arena_->port_slot(target).load(std::memory_order_acquire);
      if (p) return static_cast<std::uint16_t>(p);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::fprintf(stderr, "gex: rank %d never published a socket endpoint\n",
                 target);
    std::abort();
  }

  void connect_peer(int target, PeerTx& p) {
    const int fd =
        ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd < 0) die("gex: socket(peer)");
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(peer_port(target));
    p.fd = fd;
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      if (errno != EINPROGRESS) {
        peer_lost(target, p);
        return;
      }
      p.connecting = true;
    }
    ep_add(fd, kEpTx, static_cast<std::uint32_t>(target), EPOLLOUT);
    p.out_armed = true;
    // The preamble rides the queue like any frame, so it is always the
    // first bytes written and partial-write continuation covers it too.
    auto* pre = static_cast<std::byte*>(std::malloc(kPreambleBytes));
    const std::uint32_t magic = kPreambleMagic;
    const std::uint32_t src = static_cast<std::uint32_t>(me_);
    std::memcpy(pre, &magic, 4);
    std::memcpy(pre + 4, &src, 4);
    p.q.push_back(TxBuf{pre, kPreambleBytes, 0});
    p.queued += kPreambleBytes;
  }

  void peer_lost(int target, PeerTx& p) {
    if (p.fd >= 0) {
      ::epoll_ctl(ep_, EPOLL_CTL_DEL, p.fd, nullptr);
      ::close(p.fd);
    }
    p.fd = -1;
    p.connecting = false;
    p.out_armed = false;
    p.dead = true;
    for (TxBuf& b : p.q) std::free(b.data);
    p.q.clear();
    p.queued = 0;
    note_disconnect(target);
  }

  // A connection dropped outside our own teardown. In shared-arena mode
  // the transport is the only thing watching, so it raises the job error
  // itself; an isolated rank defers to the launcher (which watches the
  // processes and broadcasts kCtlError), keeping the normal staggered
  // teardown — peers closing after the final barrier — from reading as a
  // failure.
  void note_disconnect(int rank) {
    (void)rank;
    if (!rt_) arena_->signal_error();
  }

  void flush(int target, PeerTx& p) {
    if (p.connecting) return;  // EPOLLOUT will land when the connect does
    while (!p.q.empty()) {
      bool faulted = false;
      ssize_t w;
      if (short_faults_ && xorshift64(&rng_) % 100 < kShortFaultPct &&
          p.q.front().len - p.q.front().off > 1) {
        // Fault injection falls back to the single-buffer path: a short
        // write of the head frame, continuation delayed to a later pump so
        // torn-frame handling downstream actually gets exercised.
        TxBuf& b = p.q.front();
        const std::size_t left = b.len - b.off;
        const std::size_t n =
            1 + static_cast<std::size_t>(xorshift64(&rng_) % left);
        w = ::send(p.fd, b.data + b.off, n, MSG_NOSIGNAL);
        faulted = true;
      } else {
        // Gather the queued frames into one syscall. The head entry may be
        // mid-write from an earlier short send, so it alone honors its
        // offset; everything behind it is whole.
        iovec iov[kTxIovBatch];
        std::size_t niov = 0;
        for (const TxBuf& b : p.q) {
          if (niov == kTxIovBatch) break;
          const std::uint32_t off = niov == 0 ? b.off : 0;
          iov[niov].iov_base = b.data + off;
          iov[niov].iov_len = b.len - off;
          ++niov;
        }
        msghdr mh{};
        mh.msg_iov = iov;
        mh.msg_iovlen = niov;
        w = ::sendmsg(p.fd, &mh, MSG_NOSIGNAL);
        if (w > 0 && niov >= 2)
          ++tx_writev_batches_;
      }
      if (w < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        peer_lost(target, p);
        return;
      }
      // Retire the written bytes across however many frames they covered.
      std::size_t left = static_cast<std::size_t>(w);
      p.queued -= left;
      while (left) {
        TxBuf& b = p.q.front();
        const std::size_t take =
            std::min(left, static_cast<std::size_t>(b.len - b.off));
        b.off += static_cast<std::uint32_t>(take);
        left -= take;
        if (b.off == b.len) {
          std::free(b.data);
          p.q.pop_front();
        }
      }
      if (faulted) break;  // delay the continuation to a later pump
    }
    const bool want_out = !p.q.empty() || p.connecting;
    if (want_out != p.out_armed) {
      ep_mod(p.fd, kEpTx, static_cast<std::uint32_t>(target),
             want_out ? static_cast<std::uint32_t>(EPOLLOUT) : 0u);
      p.out_armed = want_out;
    }
  }

  void on_accept() {
    for (;;) {
      const int fd =
          ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) return;  // EAGAIN (or a raced-away connection)
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      auto* c = new RxConn();
      c->fd = fd;
      std::uint32_t idx = static_cast<std::uint32_t>(rx_.size());
      for (std::uint32_t i = 0; i < rx_.size(); ++i)
        if (!rx_[i]) {
          idx = i;
          break;
        }
      if (idx == rx_.size())
        rx_.push_back(c);
      else
        rx_[idx] = c;
      ep_add(fd, kEpRx, idx, EPOLLIN);
    }
  }

  void rx_close(std::uint32_t idx, bool expected) {
    RxConn* c = rx_[idx];
    ::epoll_ctl(ep_, EPOLL_CTL_DEL, c->fd, nullptr);
    ::close(c->fd);
    const bool torn = c->hdr_have || c->rec_have || c->pre_have;
    const int src = c->src;
    std::free(c->rec);
    delete c;
    rx_[idx] = nullptr;
    if (!expected || torn) note_disconnect(src);
  }

  void on_rx_readable(std::uint32_t idx) {
    RxConn* c = rx_[idx];
    for (;;) {
      std::byte* dst;
      std::size_t want;
      if (c->pre_have < kPreambleBytes) {
        dst = c->pre + c->pre_have;
        want = kPreambleBytes - c->pre_have;
      } else if (c->hdr_have < sizeof(FrameHdr)) {
        dst = c->hdr + c->hdr_have;
        want = sizeof(FrameHdr) - c->hdr_have;
      } else {
        dst = c->rec + c->rec_have;
        want = c->rec_len - c->rec_have;
      }
      bool faulted = false;
      if (short_faults_ && xorshift64(&rng_) % 100 < kShortFaultPct) {
        const std::size_t cap = 1 + static_cast<std::size_t>(
                                        xorshift64(&rng_) % 64);
        if (cap < want) want = cap;
        faulted = true;
      }
      const ssize_t r = ::read(c->fd, dst, want);
      if (r == 0) {
        rx_close(idx, /*expected=*/false);
        return;
      }
      if (r < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        rx_close(idx, /*expected=*/false);
        return;
      }
      advance_rx(c, static_cast<std::size_t>(r));
      // A short-read fault also delays: leave the rest for a later pump.
      if (faulted) return;
    }
  }

  void advance_rx(RxConn* c, std::size_t got) {
    if (c->pre_have < kPreambleBytes) {
      c->pre_have += static_cast<std::uint32_t>(got);
      if (c->pre_have < kPreambleBytes) return;
      std::uint32_t magic, src;
      std::memcpy(&magic, c->pre, 4);
      std::memcpy(&src, c->pre + 4, 4);
      if (magic != kPreambleMagic || src >= static_cast<std::uint32_t>(nranks_)) {
        std::fprintf(stderr, "gex: rank %d: bad socket preamble\n", me_);
        std::abort();
      }
      c->src = static_cast<int>(src);
      return;
    }
    if (c->hdr_have < sizeof(FrameHdr)) {
      c->hdr_have += static_cast<std::uint32_t>(got);
      if (c->hdr_have < sizeof(FrameHdr)) return;
      FrameHdr h;
      std::memcpy(&h, c->hdr, sizeof h);
      if ((h.check ^ kFrameMagic) != h.len || h.len == 0 ||
          h.len > max_rec_) {
        std::fprintf(stderr,
                     "gex: rank %d: socket framing corrupted from rank %d "
                     "(len=%u check=%08x)\n",
                     me_, c->src, h.len, h.check);
        std::abort();
      }
      c->rec_len = h.len;
      c->rec_have = 0;
      c->rec = static_cast<std::byte*>(std::malloc(h.len));
      assert(c->rec && "socket rx allocation failed");
      return;
    }
    c->rec_have += static_cast<std::uint32_t>(got);
    if (c->rec_have < c->rec_len) return;
    ready_.push_back(RxRec{c->rec, c->rec, c->rec_len});
    c->rec = nullptr;
    c->rec_len = c->rec_have = 0;
    c->hdr_have = 0;
  }

  void on_tx_writable(std::uint32_t target) {
    PeerTx& p = tx_[target];
    if (p.fd < 0) return;
    if (p.connecting) {
      int err = 0;
      socklen_t elen = sizeof err;
      ::getsockopt(p.fd, SOL_SOCKET, SO_ERROR, &err, &elen);
      if (err != 0) {
        peer_lost(static_cast<int>(target), p);
        return;
      }
      p.connecting = false;
    }
    flush(static_cast<int>(target), p);
  }

  // One bounded pass over ready socket events; returns how many it handled.
  int pump() {
    epoll_event evs[64];
    const int n = ::epoll_wait(ep_, evs, 64, 0);
    for (int i = 0; i < n; ++i) {
      const std::uint32_t kind =
          static_cast<std::uint32_t>(evs[i].data.u64 >> 32);
      const std::uint32_t idx = static_cast<std::uint32_t>(evs[i].data.u64);
      switch (kind) {
        case kEpListen:
          on_accept();
          break;
        case kEpBoot:
          rt_->on_ctl_readable();
          break;
        case kEpRx:
          if (rx_[idx]) on_rx_readable(idx);
          break;
        case kEpTx:
          on_tx_writable(idx);
          break;
      }
    }
    return n > 0 ? n : 0;
  }

  // Fault-injected mid-stream death: drain the queued backlog so the torn
  // frame is the *last* thing on the wire, write roughly half of it, and
  // vanish without a BYE. Never returns.
  [[noreturn]] void die_torn(const Ticket& t, std::byte* base,
                             std::uint32_t total) {
    if (t.target != me_) {
      PeerTx& p = tx_[static_cast<std::size_t>(t.target)];
      if (p.fd < 0) connect_peer(t.target, p);
      // Spin the queue dry with blocking-style retries (EAGAIN included:
      // the peer will drain its side eventually).
      while (!p.q.empty() && !p.dead) {
        TxBuf& b = p.q.front();
        const ssize_t w =
            ::send(p.fd, b.data + b.off, b.len - b.off, MSG_NOSIGNAL);
        if (w > 0) {
          b.off += static_cast<std::uint32_t>(w);
          if (b.off == b.len) {
            std::free(b.data);
            p.q.pop_front();
          }
        } else if (w < 0 && errno != EINTR && errno != EAGAIN &&
                   errno != EWOULDBLOCK) {
          break;
        }
        if (p.connecting) {
          // Writes fail until the nonblocking connect lands; poll for it.
          pollfd pf{p.fd, POLLOUT, 0};
          ::poll(&pf, 1, 100);
          p.connecting = false;
        }
      }
      std::size_t half = total / 2, off = 0;
      while (off < half && !p.dead) {
        const ssize_t w = ::send(p.fd, base + off, half - off, MSG_NOSIGNAL);
        if (w > 0)
          off += static_cast<std::size_t>(w);
        else if (w < 0 && errno != EINTR && errno != EAGAIN &&
                 errno != EWOULDBLOCK)
          break;
      }
    }
    std::fprintf(stderr,
                 "gex: rank %d fault injection: dying after record %llu\n",
                 me_, static_cast<unsigned long long>(committed_));
    std::fflush(stderr);
    ::_exit(kFaultDeathExit);
  }

  Arena* arena_;
  int me_;
  int nranks_;
  SocketRuntime* rt_;
  std::size_t max_rec_;
  int ep_ = -1;
  int listen_fd_ = -1;
  bool owns_listen_ = true;
  std::vector<PeerTx> tx_;
  std::vector<RxConn*> rx_;
  std::deque<RxRec> ready_;
  std::uint64_t tx_writev_batches_ = 0;
  // Fault injection.
  bool short_faults_ = false;
  std::uint64_t rng_ = 1;
  bool die_here_ = false;
  std::uint64_t die_at_ = 0;
  std::uint64_t committed_ = 0;
};

Transport* make_socket_transport(Arena* arena, int me) {
  return new SocketTransport(arena, me, active_socket_runtime());
}

// ---------------------------------------------------------- SocketRuntime

SocketRuntime* SocketRuntime::create(int me, int nranks, int bootstrap_port) {
  auto* rt = new SocketRuntime();
  rt->me_ = me;
  rt->nranks_ = nranks;
  std::uint16_t port = 0;
  rt->listen_fd_ = make_listen_socket(&port);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(bootstrap_port));
  // The launcher binds before spawning ranks, so one connect should do;
  // retry briefly anyway (SYN backlog overflow under a 32-rank stampede).
  // A fresh socket per attempt: a failed connect leaves the old one dead.
  for (int attempt = 0;; ++attempt) {
    rt->boot_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (rt->boot_fd_ < 0) die("gex: socket(bootstrap)");
    if (::connect(rt->boot_fd_, reinterpret_cast<sockaddr*>(&addr),
                  sizeof addr) == 0)
      break;
    ::close(rt->boot_fd_);
    rt->boot_fd_ = -1;
    if (attempt > 100) die("gex: connect(bootstrap)");
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const CtlMsg hello{kCtlHello, static_cast<std::uint32_t>(me), port};
  if (!write_full(rt->boot_fd_, &hello, sizeof hello))
    die("gex: bootstrap HELLO");
  CtlMsg eps;
  if (!read_full(rt->boot_fd_, &eps, sizeof eps) ||
      eps.type != kCtlEndpoints || eps.a != static_cast<std::uint32_t>(nranks)) {
    std::fprintf(stderr, "gex: rank %d: bad bootstrap ENDPOINTS\n", me);
    std::abort();
  }
  std::vector<std::uint32_t> ports32(static_cast<std::size_t>(nranks));
  if (!read_full(rt->boot_fd_, ports32.data(),
                 ports32.size() * sizeof(std::uint32_t)))
    die("gex: bootstrap port table");
  rt->ports_.resize(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r)
    rt->ports_[static_cast<std::size_t>(r)] =
        static_cast<std::uint16_t>(ports32[static_cast<std::size_t>(r)]);
  if (set_nonblock(rt->boot_fd_) != 0) die("gex: fcntl(bootstrap)");
  return rt;
}

SocketRuntime::~SocketRuntime() {
  if (boot_fd_ >= 0) ::close(boot_fd_);
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void SocketRuntime::attach(Arena* arena, SocketTransport* t) {
  arena_ = arena;
  transport_ = t;
}

void SocketRuntime::send_ctl(const CtlMsg& m) {
  if (boot_fd_ < 0) return;
  if (!write_full(boot_fd_, &m, sizeof m)) {
    // Launcher gone: the job is over; make sure local waiters unwind.
    if (arena_)
      arena_->control().error_flag.value.store(1, std::memory_order_release);
  }
}

void SocketRuntime::on_ctl(const CtlMsg& m) {
  switch (m.type) {
    case kCtlBarrierRelease:
      ++releases_seen_;
      break;
    case kCtlError:
      // Peer (or launcher) declared the job failed. Set the local flag
      // directly — echoing it back through broadcast_error would be noise.
      if (arena_)
        arena_->control().error_flag.value.store(1,
                                                 std::memory_order_release);
      break;
    default:
      break;
  }
}

void SocketRuntime::on_ctl_readable() {
  for (;;) {
    const ssize_t r = ::read(boot_fd_, ctl_buf_ + ctl_have_,
                             sizeof(CtlMsg) - ctl_have_);
    if (r == 0) {
      // Launcher died: nothing can finish cleanly anymore.
      if (arena_)
        arena_->control().error_flag.value.store(1,
                                                 std::memory_order_release);
      return;
    }
    if (r < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN: partial message stays buffered
    }
    ctl_have_ += static_cast<std::size_t>(r);
    if (ctl_have_ == sizeof(CtlMsg)) {
      CtlMsg m;
      std::memcpy(&m, ctl_buf_, sizeof m);
      ctl_have_ = 0;
      on_ctl(m);
    }
  }
}

void SocketRuntime::barrier() {
  if (job_failed()) return;
  send_ctl(CtlMsg{kCtlBarrierArrive, 0, ++barriers_entered_});
  // Released or failed, the barrier is over for this rank.
  (void)wait_until([this] { return releases_seen_ >= barriers_entered_; },
                   [this] {
                     if (transport_) return transport_->poll_io();
                     on_ctl_readable();
                     return 0;
                   });
}

void SocketRuntime::broadcast_error() {
  if (error_sent_) return;
  error_sent_ = true;
  send_ctl(CtlMsg{kCtlError, 0, 0});
}

void SocketRuntime::bye(int rc) {
  send_ctl(CtlMsg{kCtlBye, static_cast<std::uint32_t>(rc), 0});
}

// -------------------------------------------------------- BootstrapServer

BootstrapServer::BootstrapServer(int nranks) : nranks_(nranks) {
  std::uint16_t port = 0;
  listen_fd_ = make_listen_socket(&port);
  port_ = port;
  fds_.assign(static_cast<std::size_t>(nranks), -1);
  rc_.assign(static_cast<std::size_t>(nranks), -1);
}

BootstrapServer::~BootstrapServer() {
  for (int fd : fds_)
    if (fd >= 0) ::close(fd);
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void BootstrapServer::broadcast(const CtlMsg& m) {
  for (int fd : fds_)
    if (fd >= 0) write_full(fd, &m, sizeof m);
}

void BootstrapServer::fail_job() {
  if (failed_) return;
  failed_ = true;
  broadcast(CtlMsg{kCtlError, 0, 0});
}

int BootstrapServer::serve(const std::vector<pid_t>& kids) {
  assert(kids.size() == static_cast<std::size_t>(nranks_));
  std::vector<bool> byed(static_cast<std::size_t>(nranks_), false);
  std::vector<bool> reaped(static_cast<std::size_t>(nranks_), false);
  std::vector<std::vector<std::byte>> acc(static_cast<std::size_t>(nranks_));
  std::vector<int> pending;  // accepted fds awaiting HELLO
  std::vector<std::uint32_t> ports(static_cast<std::size_t>(nranks_), 0);
  // epoch -> arrivals for the launcher-centralized world barrier.
  std::vector<std::pair<std::uint64_t, int>> arrivals;
  int connected = 0;
  bool endpoints_sent = false;
  std::uint64_t fail_deadline_ns = 0;

  // Barrier participants: ranks that have neither said BYE nor exited.
  // (A rank that exits without BYE fails the job anyway, so releases
  // computed against this count only matter on the healthy path.)
  auto alive_count = [&] {
    int n = 0;
    for (int r = 0; r < nranks_; ++r)
      if (!byed[static_cast<std::size_t>(r)] &&
          !reaped[static_cast<std::size_t>(r)])
        ++n;
    return n;
  };

  // A connected rank is judged only once its connection closed: it may
  // send BYE and exit before this loop reads the BYE, and the connection
  // delivers everything the rank wrote ahead of its EOF.
  auto reap = [&] {
    for (int r = 0; r < nranks_; ++r) {
      if (reaped[static_cast<std::size_t>(r)] ||
          fds_[static_cast<std::size_t>(r)] >= 0)
        continue;
      int status = 0;
      const pid_t w = ::waitpid(kids[static_cast<std::size_t>(r)], &status,
                                WNOHANG);
      if (w <= 0) continue;
      reaped[static_cast<std::size_t>(r)] = true;
      const int rc = WIFEXITED(status) ? WEXITSTATUS(status) : 128;
      rc_[static_cast<std::size_t>(r)] = rc;
      if (!byed[static_cast<std::size_t>(r)] || rc != 0) {
        if (!byed[static_cast<std::size_t>(r)])
          std::fprintf(stderr,
                       "upcxx-run: rank %d died without BYE (status %d)\n", r,
                       rc);
        fail_job();
      }
    }
  };

  auto on_msg = [&](int r, const CtlMsg& m) {
    switch (m.type) {
      case kCtlBarrierArrive: {
        std::size_t i = 0;
        for (; i < arrivals.size(); ++i)
          if (arrivals[i].first == m.b) break;
        if (i == arrivals.size()) arrivals.push_back({m.b, 0});
        if (++arrivals[i].second >= alive_count()) {
          broadcast(CtlMsg{kCtlBarrierRelease, 0, m.b});
          arrivals.erase(arrivals.begin() + static_cast<long>(i));
        }
        break;
      }
      case kCtlError:
        fail_job();
        break;
      case kCtlBye:
        byed[static_cast<std::size_t>(r)] = true;
        rc_[static_cast<std::size_t>(r)] = static_cast<int>(m.a);
        if (m.a != 0) fail_job();
        break;
      default:
        break;
    }
  };

  while (true) {
    // Exit once every rank reached a terminal state and was reaped.
    bool all_done = true;
    for (int r = 0; r < nranks_; ++r)
      if (!reaped[static_cast<std::size_t>(r)]) all_done = false;
    if (all_done) break;

    reap();
    if (failed_) {
      const std::uint64_t now = arch::now_ns();
      if (fail_deadline_ns == 0) {
        fail_deadline_ns = now + 10'000'000'000ull;  // 10 s of grace
      } else if (now > fail_deadline_ns) {
        for (int r = 0; r < nranks_; ++r)
          if (!reaped[static_cast<std::size_t>(r)])
            ::kill(kids[static_cast<std::size_t>(r)], SIGKILL);
        fail_deadline_ns = now + 10'000'000'000ull;
      }
    }

    std::vector<pollfd> pfds;
    std::vector<int> who;  // parallel: rank, or -1 listen, -2 pending idx base
    pfds.push_back({listen_fd_, POLLIN, 0});
    who.push_back(-1);
    for (std::size_t i = 0; i < pending.size(); ++i) {
      pfds.push_back({pending[i], POLLIN, 0});
      who.push_back(-2 - static_cast<int>(i));
    }
    for (int r = 0; r < nranks_; ++r)
      if (fds_[static_cast<std::size_t>(r)] >= 0) {
        pfds.push_back({fds_[static_cast<std::size_t>(r)], POLLIN, 0});
        who.push_back(r);
      }
    ::poll(pfds.data(), pfds.size(), 50);

    for (std::size_t i = 0; i < pfds.size(); ++i) {
      if (!(pfds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      const int w = who[i];
      if (w == -1) {
        for (;;) {
          const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                                   SOCK_CLOEXEC);
          if (fd < 0) break;
          pending.push_back(fd);
        }
        continue;
      }
      if (w <= -2) {
        // A HELLO identifies the rank; blocking read is fine (16 bytes
        // from a rank that just connected to send exactly them).
        const std::size_t pi = static_cast<std::size_t>(-2 - w);
        const int fd = pending[pi];
        CtlMsg m;
        if (!read_full(fd, &m, sizeof m) || m.type != kCtlHello ||
            m.a >= static_cast<std::uint32_t>(nranks_) ||
            fds_[m.a] != -1) {
          ::close(fd);
        } else {
          fds_[m.a] = fd;
          ports[m.a] = static_cast<std::uint32_t>(m.b);
          ++connected;
        }
        pending[pi] = -1;
        continue;
      }
      // Rank traffic.
      const int r = w;
      auto& fd = fds_[static_cast<std::size_t>(r)];
      std::byte buf[256];
      const ssize_t n = ::read(fd, buf, sizeof buf);
      if (n <= 0) {
        if (n < 0 && (errno == EINTR || errno == EAGAIN)) continue;
        ::close(fd);
        fd = -2;
        if (!byed[static_cast<std::size_t>(r)]) fail_job();
        continue;
      }
      auto& a = acc[static_cast<std::size_t>(r)];
      a.insert(a.end(), buf, buf + n);
      while (a.size() >= sizeof(CtlMsg)) {
        CtlMsg m;
        std::memcpy(&m, a.data(), sizeof m);
        a.erase(a.begin(), a.begin() + sizeof(CtlMsg));
        on_msg(r, m);
      }
    }
    pending.erase(std::remove(pending.begin(), pending.end(), -1),
                  pending.end());

    // Every rank checked in: release them all with the full port table.
    if (connected == nranks_ && !endpoints_sent) {
      endpoints_sent = true;
      const CtlMsg eps{kCtlEndpoints, static_cast<std::uint32_t>(nranks_), 0};
      for (int r = 0; r < nranks_; ++r) {
        const int fd = fds_[static_cast<std::size_t>(r)];
        if (fd < 0) continue;
        write_full(fd, &eps, sizeof eps);
        write_full(fd, ports.data(), ports.size() * sizeof(std::uint32_t));
      }
    }
  }

  int failures = 0;
  for (int r = 0; r < nranks_; ++r)
    if (rc_[static_cast<std::size_t>(r)] != 0) ++failures;
  if (failed_ && failures == 0) failures = 1;
  return failures;
}

}  // namespace gex
