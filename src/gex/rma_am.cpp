#include "gex/rma_am.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <optional>
#include <thread>

#include "arch/atomics.hpp"
#include "arch/spinlock.hpp"
#include "arch/timer.hpp"
#include "gex/handlers.hpp"
#include "gex/runtime.hpp"

namespace gex {

namespace {

// Largest request/reply record the protocol sends inline. On shared-memory
// transports that is the configured eager cap — anything larger goes
// through pooled shared-heap staging. On transports whose peers cannot
// read this rank's memory (socket) staging is meaningless, so everything
// up to the wire-record limit ships inline instead.
std::size_t inline_cutoff(AmEngine* am) {
  return am->transport().shared_memory() ? am->eager_max() : am->inline_max();
}

}  // namespace

namespace {

// Wire record headers. Always memcpy'd to/from the ring (record payloads
// are only 4-byte aligned). Cookies are initiator-local ids; `addr`/`buf`
// fields are (segment id, offset) wire addresses (gex/segment.hpp) encoded
// by the sender and resolved against the *receiver's own* mapping at
// decode — no record byte depends on the peer's virtual-address layout.
// Every header carries `nacks` and `nracks`: the counts of piggybacked
// request-ack cookies and staged-reply consumption-ack cookies (u64 each)
// laid out immediately after the header — acks first, then racks — ahead
// of any descriptors or payload, so reverse-direction traffic retires the
// sender's completions and unpins its staged reply buffers for free.
//
// A request names its remote runs with `nfrags` FragDescs in the record
// itself; a contiguous put or get is simply nfrags == 1.
struct FragHdr {
  std::uint64_t cookie;
  std::uint32_t nfrags;
  std::uint32_t nacks;
  std::uint32_t nracks;
  std::uint32_t reserved;
};
// Pool-staged put: the gathered payload sits in an initiator-owned bounce
// buffer in the shared heap; the header and descriptors cross the ring.
// The target scatters and acks; the ack hands the buffer back to the
// initiator's pool. Keeping the descriptors out of the buffer keeps its
// size the payload's, so a 64 KiB chunk takes a 64 KiB pool block.
struct FragStagedHdr {
  std::uint64_t cookie;
  std::uint64_t buf;
  std::uint64_t payload_bytes;
  std::uint32_t nfrags;
  std::uint32_t nacks;
  std::uint32_t nracks;
  std::uint32_t reserved;
};
struct FragDesc {
  std::uint64_t addr;
  std::uint64_t bytes;
};
// Standalone multi-ack record: every ack (and rack) owed to one target,
// batched per poll into one ring transaction.
struct AckHdr {
  std::uint32_t nacks;
  std::uint32_t nracks;
};
struct RepHdr {
  std::uint64_t cookie;
  std::uint32_t nacks;
  std::uint32_t nracks;
};
// Pool-staged GET reply: the gathered payload sits in a target-owned reply
// buffer in the shared heap; only this descriptor crosses the ring. The
// initiator scatters out of the buffer and owes a rack for `cookie`; the
// rack hands the buffer back to the target's reply pool.
struct RepStagedHdr {
  std::uint64_t cookie;
  std::uint64_t buf;
  std::uint64_t bytes;
  std::uint32_t nacks;
  std::uint32_t nracks;
};

template <typename H>
H read_hdr(const void* p) {
  H h;
  std::memcpy(&h, p, sizeof h);
  return h;
}

constexpr std::size_t ack_bytes(std::size_t nacks) {
  return nacks * sizeof(std::uint64_t);
}

std::byte* write_acks(std::byte* q, const std::vector<std::uint64_t>& acks) {
  if (!acks.empty()) std::memcpy(q, acks.data(), ack_bytes(acks.size()));
  return q + ack_bytes(acks.size());
}

void* local_ptr(std::uint64_t addr) {
  return reinterpret_cast<void*>(static_cast<std::uintptr_t>(addr));
}

// Copies the initiator's source runs back to back into `q`.
std::byte* gather_local(std::byte* q, const RmaAmProtocol::LocalFrag* srcs,
                        std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (srcs[i].bytes) std::memcpy(q, srcs[i].ptr, srcs[i].bytes);
    q += srcs[i].bytes;
  }
  return q;
}

// Copies this rank's source runs (local addresses — the get handler
// resolved them at decode) back to back into `q`. Runs at reply time, so
// the get reads the data as it exists when the target serves it, exactly
// like a direct-wire rget reads memory at copy time.
void gather_runs(std::byte* q,
                 const std::vector<RmaAmProtocol::Frag>& runs) {
  for (const auto& f : runs) {
    if (f.bytes)
      std::memcpy(q, local_ptr(f.addr), static_cast<std::size_t>(f.bytes));
    q += f.bytes;
  }
}

// Removes and returns the smallest pooled buffer that holds `bytes`; null
// .p when none does. Pools hold at most a window's worth of entries (one
// per possible in-flight request), so the scan is short.
template <typename Buf>
Buf take_best_fit(std::vector<Buf>& pool, std::size_t bytes) {
  std::size_t best = pool.size();
  for (std::size_t i = 0; i < pool.size(); ++i) {
    if (pool[i].cap < bytes) continue;
    if (best == pool.size() || pool[i].cap < pool[best].cap) best = i;
  }
  if (best == pool.size()) return Buf{};
  Buf b = pool[best];
  pool[best] = pool.back();
  pool.pop_back();
  return b;
}

// Fresh pool blocks are rounded up to a power of two (at least a page) so
// a stream of slightly varying sizes converges on one reusable size class.
std::size_t size_class(std::size_t bytes) {
  std::size_t cap = 4096;
  while (cap < bytes) cap <<= 1;
  return cap;
}

RmaAmProtocol& proto() {
  auto* r = self();
  assert(r && r->rma_am && "AM RMA record outside an SPMD region");
  return *r->rma_am;
}

}  // namespace

// Handlers run inside the target's AmEngine::poll: they may copy bytes and
// record work, but must not inject (see header comment). Registered in the
// gex handler registry at static initialization via am_handler<>, so every
// rank — thread or fork — agrees on the indices.
struct RmaAmHandlers {
  // Retires `n` piggybacked ack cookies and returns the cursor past them.
  static const std::byte* consume_acks(RmaAmProtocol& p, const std::byte* q,
                                       std::uint32_t n) {
    for (std::uint32_t i = 0; i < n; ++i) {
      std::uint64_t cookie;
      std::memcpy(&cookie, q + i * sizeof cookie, sizeof cookie);
      p.completed_.push_back(cookie);
    }
    return q + ack_bytes(n);
  }

  // Retires `n` piggybacked rack cookies from rank `src` — each unpins a
  // staged reply buffer this rank sent to src — and returns the cursor past
  // them. recycle_reply only moves a buffer between local containers (or
  // frees it), so this is handler-safe.
  static const std::byte* consume_racks(RmaAmProtocol& p, int src,
                                        const std::byte* q,
                                        std::uint32_t n) {
    if (n == 0) return q;
    auto& pr = p.peer(src);
    for (std::uint32_t i = 0; i < n; ++i) {
      std::uint64_t cookie;
      std::memcpy(&cookie, q + i * sizeof cookie, sizeof cookie);
      p.recycle_reply(pr, cookie);
    }
    return q + ack_bytes(n);
  }

  // Reads the record's header into `h`, retires the acks and racks
  // piggybacked after it, and returns the cursor past them.
  template <typename H>
  static const std::byte* open(RmaAmProtocol& p, const AmContext& cx,
                               H& h) {
    h = read_hdr<H>(cx.data);
    const auto* q = static_cast<const std::byte*>(cx.data) + sizeof(H);
    q = consume_acks(p, q, h.nacks);
    return consume_racks(p, cx.src, q, h.nracks);
  }

  // Scatters `payload` into the `n` wire-addressed runs at `descs`, in
  // order; returns the bytes consumed.
  static std::size_t scatter(const RmaAmProtocol& p, const std::byte* descs,
                             std::uint32_t n, const std::byte* payload) {
    std::size_t off = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
      const auto d = read_hdr<FragDesc>(descs + i * sizeof(FragDesc));
      if (d.bytes)
        std::memcpy(local_ptr(p.wire_dec(d.addr)), payload + off,
                    static_cast<std::size_t>(d.bytes));
      off += static_cast<std::size_t>(d.bytes);
    }
    return off;
  }

  static void on_put_frag(AmContext& cx) {
    auto& p = proto();
    FragHdr h{};
    const auto* descs = open(p, cx, h);
    const std::size_t off =
        scatter(p, descs, h.nfrags, descs + h.nfrags * sizeof(FragDesc));
    assert(sizeof(FragHdr) + ack_bytes(h.nacks) + ack_bytes(h.nracks) +
               h.nfrags * sizeof(FragDesc) + off ==
           cx.size);
    (void)off;
    p.owe_ack(cx.src, h.cookie);
    ++p.stats_.puts_handled;
  }

  static void on_put_frag_staged(AmContext& cx) {
    // h.buf names a bounce buffer in the *initiator's* heap — readable
    // here only because the transport cross-maps it. A staged record
    // arriving over a transport without that property (socket) is a
    // protocol bug: inline_cutoff should have kept the payload inline.
    assert(cx.engine->transport().shared_memory() &&
           "staged put crossed a non-shared-memory transport");
    auto& p = proto();
    FragStagedHdr h{};
    const auto* descs = open(p, cx, h);
    const std::size_t off =
        scatter(p, descs, h.nfrags,
                static_cast<const std::byte*>(local_ptr(p.wire_dec(h.buf))));
    assert(off == static_cast<std::size_t>(h.payload_bytes));
    (void)off;
    p.owe_ack(cx.src, h.cookie);
    ++p.stats_.puts_handled;
  }

  static void on_get_frag(AmContext& cx) {
    auto& p = proto();
    FragHdr h{};
    const auto* descs = open(p, cx, h);
    // Resolve at decode; the gather list in replies_ holds this rank's own
    // raw addresses from here on.
    std::vector<RmaAmProtocol::Frag> gather;
    gather.reserve(h.nfrags);
    for (std::uint32_t i = 0; i < h.nfrags; ++i) {
      const auto d = read_hdr<FragDesc>(descs + i * sizeof(FragDesc));
      gather.push_back({p.wire_dec(d.addr), d.bytes});
    }
    p.replies_.push_back({cx.src, h.cookie, std::move(gather)});
    ++p.stats_.gets_handled;
  }

  static void on_ack(AmContext& cx) {
    auto& p = proto();
    AckHdr h{};
    open(p, cx, h);
    assert(sizeof(AckHdr) + ack_bytes(h.nacks) + ack_bytes(h.nracks) ==
           cx.size);
  }

  // Scatters a reply payload into the pending get's landing runs and
  // queues its completion (deferred to poll()). Returns the bytes
  // scattered, or nothing when the request was cancelled (fail_all_peers)
  // before the reply arrived — the landing buffers may be gone, so the
  // payload is dropped.
  static std::optional<std::size_t> land_reply(RmaAmProtocol& p,
                                               std::uint64_t cookie,
                                               const std::byte* payload) {
    // Map lookup under the lock; the node reference stays valid after
    // release (unordered_map nodes are stable under concurrent inserts
    // from injected sends, and only this thread — the consumer — erases).
    const RmaAmProtocol::Pending* pd = nullptr;
    {
      arch::SpinGuard g(p.pending_mu_);
      auto it = p.pending_.find(cookie);
      if (it != p.pending_.end()) pd = &it->second;
    }
    if (!pd) {
      ++p.stats_.stale_completions;
      return std::nullopt;
    }
    std::size_t off = 0;
    for (const auto& f : pd->scatter) {
      if (f.bytes) std::memcpy(f.ptr, payload + off, f.bytes);
      off += f.bytes;
    }
    p.completed_.push_back(cookie);
    return off;
  }

  static void on_get_reply(AmContext& cx) {
    auto& p = proto();
    RepHdr h{};
    const auto* payload = open(p, cx, h);
    // Scatter while the payload is alive (eager payloads die with the
    // handler).
    const auto off = land_reply(p, h.cookie, payload);
    assert(!off || sizeof(RepHdr) + ack_bytes(h.nacks) +
                           ack_bytes(h.nracks) + *off ==
                       cx.size);
    (void)off;
  }

  // Pool-staged reply: scatter straight out of the target's reply buffer
  // (cross-mapped shared heap — the same addressing contract as every
  // staged put), then owe a rack so the target can recycle it. The rack is
  // owed even when the request was cancelled: the buffer must go back
  // regardless of what happens to the payload.
  static void on_reply_staged(AmContext& cx) {
    assert(cx.engine->transport().shared_memory() &&
           "staged reply crossed a non-shared-memory transport");
    auto& p = proto();
    RepStagedHdr h{};
    open(p, cx, h);
    p.owe_rack(cx.src, h.cookie);
    const auto off = land_reply(
        p, h.cookie,
        static_cast<const std::byte*>(local_ptr(p.wire_dec(h.buf))));
    assert(!off || *off == static_cast<std::size_t>(h.bytes));
    if (off) ++p.stats_.staged_replies_handled;
  }
};

WireAddr RmaAmProtocol::wire_enc(std::uint64_t addr) const {
  return am_->arena().segmap().encode(
      reinterpret_cast<const void*>(static_cast<std::uintptr_t>(addr)));
}

std::uint64_t RmaAmProtocol::wire_dec(WireAddr wa) const {
  return static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(
      am_->arena().segmap().decode(wa)));
}

RmaAmProtocol::RmaAmProtocol(AmEngine* am, AmWindowSetting w,
                             double rtt_envelope)
    : am_(am),
      adaptive_(w.adaptive),
      window_(w.window ? w.window : 1),
      max_window_(w.adaptive ? adaptive_ceiling(am)
                             : (w.window ? w.window : 1)),
      envelope_(rtt_envelope) {
  // The constructing thread is the consumer until poll_requests re-stamps
  // (progress-thread migration moves the role with the poll loop).
  consumer_tm_.store(thread_marker(), std::memory_order_relaxed);
  // One peer per rank up front: peer() becomes an index, and helper issue
  // passes hold stable references without a container lock. Every peer
  // starts its controller at the configured window; pinned mode never
  // consults it (window_now short-circuits on adaptive_).
  const int n = am_->arena().config().ranks;
  peers_.reserve(static_cast<std::size_t>(n));
  for (int t = 0; t < n; ++t)
    peers_.push_back(
        std::make_unique<Peer>(t, window_, max_window_, envelope_));
}

std::uint64_t RmaAmProtocol::new_pending(int target, Done done,
                                         std::vector<LocalFrag> scatter) {
  arch::SpinGuard g(pending_mu_);
  const std::uint64_t cookie = next_cookie_++;
  pending_.emplace(cookie,
                   Pending{target, std::move(done), std::move(scatter)});
  return cookie;
}

bool RmaAmProtocol::claim_outstanding(Peer& p) {
  std::uint32_t cur = p.outstanding.load(std::memory_order_relaxed);
  const std::uint32_t w = window_now(p);
  while (cur < w) {
    if (p.outstanding.compare_exchange_weak(cur, cur + 1,
                                            std::memory_order_acq_rel)) {
      arch::relaxed_max(stats_.max_outstanding, cur + 1);
      return true;
    }
  }
  return false;
}

bool RmaAmProtocol::try_claim_credit(Peer& p) {
  // Queued requests go first — only flush_sendq (consumer) drains those,
  // claiming credits past this check.
  if (p.sendq_n.load(std::memory_order_acquire) != 0) return false;
  return claim_outstanding(p);
}

RmaAmProtocol::StageBuf RmaAmProtocol::acquire_stage(Peer& p,
                                                     std::size_t bytes) {
  {
    arch::SpinGuard g(p.mu);
    if (StageBuf b = take_best_fit(p.stage_pool, bytes); b.p) return b;
  }
  // Pool miss: carve a fresh block (the shared heap is internally locked —
  // any thread may allocate). On an exhausted heap the consumer spins with
  // poll, like the AmEngine's rendezvous path — but bails out (null
  // buffer; the caller cancels) once the error flag is up: the blocks we
  // are waiting for may be bounce buffers pinned by a dead peer's
  // never-coming acks. A *helper* must not poll, so it takes one attempt
  // and returns null — its caller requeues the request for the consumer
  // to retry.
  const std::size_t cap = size_class(bytes);
  arch::relaxed_inc(stats_.stage_allocs);
  auto& heap = am_->arena().heap();
  for (;;) {
    if (void* buf = heap.allocate(cap)) return StageBuf{buf, cap};
    if (!on_consumer() || job_failing()) return StageBuf{};
    if (am_->poll() + poll() == 0) std::this_thread::yield();
    arch::cpu_relax();
  }
}

void RmaAmProtocol::recycle_stage(Peer& p, StageBuf buf) {
  if (!buf.p) return;
  {
    arch::SpinGuard g(p.mu);
    if (p.stage_pool.size() < window_now(p)) {
      p.stage_pool.push_back(buf);
      return;
    }
  }
  am_->arena().heap().deallocate(buf.p);
}

std::uint32_t RmaAmProtocol::adaptive_ceiling(AmEngine* am) {
  // Ceiling × chunk = the in-flight staging working set; 1MB keeps it
  // cache-resident at the default 64K am-wire chunk (ceiling 16) while
  // small-chunk configs (tests, soaks) still get the full range.
  constexpr std::size_t kStagingBudgetBytes = 1 << 20;
  std::size_t chunk =
      std::min(am->arena().config().xfer_chunk_bytes, kAmXferChunkBytes);
  if (chunk == 0) chunk = 1;
  auto cap = static_cast<std::uint32_t>(kStagingBudgetBytes / chunk);
  if (cap < kDefaultAmWindow) cap = kDefaultAmWindow;
  if (cap > kMaxAmWindow) cap = kMaxAmWindow;
  return cap;
}

RmaAmProtocol::StageBuf RmaAmProtocol::acquire_reply_stage(
    Peer& p, std::size_t bytes) {
  // Staged replies are bounded by the window *ceiling*, not the adaptive
  // operating point: a pure responder's controller never sees acks (it
  // sends no credit-consuming requests), so its operating point would sit
  // at the start window forever and clamp an initiator whose window has
  // grown — the initiator's own window already bounds how many replies
  // can be awaited, this bound only has to keep a failing peer from
  // pinning unbounded heap. Past it the caller falls back to the
  // rendezvous REPLY path — never block here, a reply send runs inside
  // the target's poll loop.
  if (p.reply_out.size() >= window()) return StageBuf{};
  if (StageBuf b = take_best_fit(p.reply_pool, bytes); b.p) {
    ++stats_.reply_pool_hits;
    return b;
  }
  // Pool miss: one allocation attempt, same size classes as the put pool.
  // A momentarily exhausted heap is a fallback, not a stall.
  const std::size_t cap = size_class(bytes);
  if (void* buf = am_->arena().heap().allocate(cap)) {
    ++stats_.reply_stage_allocs;
    return StageBuf{buf, cap};
  }
  return StageBuf{};
}

void RmaAmProtocol::recycle_reply(Peer& p, std::uint64_t cookie) {
  auto it = p.reply_out.find(cookie);
  if (it == p.reply_out.end()) return;  // freed by fail_all_peers already
  StageBuf b = it->second;
  p.reply_out.erase(it);
  // Pool retention matches the stage bound (the window ceiling); a pinned
  // window may have shrunk the bound since this buffer went out, and the
  // excess drains back to the heap.
  if (p.reply_pool.size() < window()) {
    p.reply_pool.push_back(b);
    return;
  }
  am_->arena().heap().deallocate(b.p);
}

RmaAmProtocol::OwedAcks RmaAmProtocol::take_acks(int target) {
  // Snapshot-and-clear before any send: the send may spin on a full ring,
  // which polls our own inbox, whose handlers append fresh owed acks —
  // those wait for the next record.
  Peer& p = peer(target);
  arch::SpinGuard g(p.mu);
  OwedAcks oa{std::move(p.acks_owed), std::move(p.racks_owed)};
  p.acks_owed.clear();
  p.racks_owed.clear();
  return oa;
}

void RmaAmProtocol::enqueue(Peer& p, QueuedReq q) {
  arch::relaxed_inc(stats_.requests_queued);
  // Bounded queue: past the slack, the injecting *consumer* call makes
  // progress until a slot frees. Our own inbox keeps draining (acks retire
  // credits, which sends queued requests), so mutual floods advance in
  // lockstep instead of deadlocking. A set error flag means the acks may
  // never come — park the request regardless; teardown's fail_all_peers()
  // reclaims it. The cap uses the window *ceiling*, not the moving
  // operating point — a shrink must not strand already-parked requests
  // behind a tighter bound. A helper cannot poll, so it parks
  // unconditionally: only the consumer's flush_sendq grows the queue past
  // the cap from the helper side, and it drains as fast as it grows.
  const std::size_t cap = window() + kQueueSlack;
  while (on_consumer() &&
         p.sendq_n.load(std::memory_order_acquire) >= cap && !job_failing()) {
    arch::relaxed_inc(stats_.send_stalls);
    if (am_->poll() + poll() == 0) std::this_thread::yield();
    arch::cpu_relax();
  }
  arch::SpinGuard g(p.mu);
  p.sendq.push_back(std::move(q));
  p.sendq_n.store(p.sendq.size(), std::memory_order_release);
  arch::relaxed_max(stats_.queued_peak, p.sendq.size());
}

// A staged send found the heap exhausted while the job is failing: the
// request can never be serviced. Cancel it the way fail_all_peers would —
// drop the pending entry (its done callback is destroyed, not fired) and
// return the credit the caller just consumed.
void RmaAmProtocol::cancel_sent(Peer& p, std::uint64_t cookie) {
  {
    arch::SpinGuard g(pending_mu_);
    pending_.erase(cookie);
  }
  arch::relaxed_inc(stats_.cancelled);
  const auto prev = p.outstanding.fetch_sub(1, std::memory_order_acq_rel);
  assert(prev > 0);
  (void)prev;
}

// Stamps the wire-send time on a just-sent request so the completion loop
// can feed the request→ack round trip to the peer's window controller.
void RmaAmProtocol::note_wire_send(std::uint64_t cookie) {
  if (!adaptive_) return;
  const std::uint64_t now = arch::now_ns();
  arch::SpinGuard g(pending_mu_);
  auto it = pending_.find(cookie);
  if (it != pending_.end()) it->second.send_ns = now;
}

bool RmaAmProtocol::job_failing() const {
  return am_->arena().control().error_flag.value.load(
             std::memory_order_acquire) != 0;
}

template <typename H>
RmaAmProtocol::Record RmaAmProtocol::open_record(int target, HandlerIdx h,
                                                 H hdr, std::size_t body) {
  auto oa = take_acks(target);
  hdr.nacks = static_cast<std::uint32_t>(oa.acks.size());
  hdr.nracks = static_cast<std::uint32_t>(oa.racks.size());
  // Helpers prepare with may_poll=false — on a full ring they yield-spin
  // while the *target* drains it; only the consumer may poll its own inbox
  // here.
  Record r{am_->prepare(target, h,
                        sizeof hdr + ack_bytes(hdr.nacks + hdr.nracks) + body,
                        /*may_poll=*/on_consumer()),
           nullptr, hdr.nacks, hdr.nracks};
  auto* q = static_cast<std::byte*>(r.sb.data);
  std::memcpy(q, &hdr, sizeof hdr);
  r.body = write_acks(write_acks(q + sizeof hdr, oa.acks), oa.racks);
  return r;
}

void RmaAmProtocol::send_record(Record& r) {
  am_->commit(r.sb);
  arch::relaxed_add(stats_.acks_piggybacked, r.nacks);
  arch::relaxed_add(stats_.reply_acks_piggybacked, r.nracks);
}

std::byte* RmaAmProtocol::write_descs(std::byte* q, const Frag* runs,
                                      std::size_t n) const {
  for (std::size_t i = 0; i < n; ++i) {
    const FragDesc fd{wire_enc(runs[i].addr), runs[i].bytes};
    std::memcpy(q, &fd, sizeof fd);
    q += sizeof fd;
  }
  return q;
}

RmaAmProtocol::QueuedReq RmaAmProtocol::queued_put(std::uint64_t cookie,
                                                   const Frag* dsts,
                                                   std::size_t ndsts,
                                                   const LocalFrag* srcs,
                                                   std::size_t nsrcs) {
  QueuedReq q{QueuedReq::kPut, cookie, {dsts, dsts + ndsts}, {}};
  for (std::size_t i = 0; i < nsrcs; ++i) {
    const auto* b = static_cast<const std::byte*>(srcs[i].ptr);
    q.payload.insert(q.payload.end(), b, b + srcs[i].bytes);
  }
  return q;
}

void RmaAmProtocol::send_put_frag(int target, std::uint64_t cookie,
                                  const Frag* dsts, std::size_t ndsts,
                                  const LocalFrag* srcs, std::size_t nsrcs) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < nsrcs; ++i) total += srcs[i].bytes;
  const std::size_t desc_bytes = ndsts * sizeof(FragDesc);
  const auto n = static_cast<std::uint32_t>(ndsts);
  // The inline-fit decision ignores the (yet untaken) piggyback list: if
  // the acks push an inline record past eager_max, AmEngine::prepare
  // falls back to its rendezvous staging transparently.
  StageBuf stage;
  if (sizeof(FragHdr) + desc_bytes + total > inline_cutoff(am_)) {
    // Large put: the payload goes through a pooled bounce buffer, the
    // descriptors stay in the ring record.
    Peer& p = peer(target);
    stage = acquire_stage(p, total);
    if (!stage.p) {
      // Exhausted heap. A helper must not poll-spin for a block, and
      // cancelling would silently drop the data: it releases the credit
      // and parks the request (owned payload copy) for the consumer's
      // flush_sendq to retry. The consumer only gets here when the job is
      // failing, and cancels.
      if (!on_consumer() && !job_failing()) {
        p.outstanding.fetch_sub(1, std::memory_order_acq_rel);
        enqueue(p, queued_put(cookie, dsts, ndsts, srcs, nsrcs));
      } else {
        cancel_sent(p, cookie);
      }
      return;
    }
    gather_local(static_cast<std::byte*>(stage.p), srcs, nsrcs);
    arch::SpinGuard g(pending_mu_);
    auto it = pending_.find(cookie);
    if (it != pending_.end()) it->second.stage = stage;
  }
  Record r =
      stage.p
          ? open_record(target,
                        am_handler<&RmaAmHandlers::on_put_frag_staged>(),
                        FragStagedHdr{cookie,
                                      am_->arena().segmap().encode(stage.p),
                                      total, n, 0, 0, 0},
                        desc_bytes)
          : open_record(target, am_handler<&RmaAmHandlers::on_put_frag>(),
                        FragHdr{cookie, n, 0, 0, 0}, desc_bytes + total);
  std::byte* q = write_descs(r.body, dsts, ndsts);
  // Inline: gather the local fragments straight into the wire buffer.
  if (!stage.p) gather_local(q, srcs, nsrcs);
  send_record(r);
  arch::relaxed_inc(ndsts == 1 ? stats_.puts_sent : stats_.frag_puts_sent);
  if (stage.p) arch::relaxed_inc(stats_.puts_staged);
  note_wire_send(cookie);
}

void RmaAmProtocol::send_get_frag(int target, std::uint64_t cookie,
                                  const Frag* srcs, std::size_t n) {
  const auto nf = static_cast<std::uint32_t>(n);
  Record r = open_record(target, am_handler<&RmaAmHandlers::on_get_frag>(),
                         FragHdr{cookie, nf, 0, 0, 0}, n * sizeof(FragDesc));
  write_descs(r.body, srcs, n);
  send_record(r);
  arch::relaxed_inc(n == 1 ? stats_.gets_sent : stats_.frag_gets_sent);
  note_wire_send(cookie);
}

void RmaAmProtocol::start_put(int target, const Frag* dsts,
                              std::size_t ndsts, const LocalFrag* srcs,
                              std::size_t nsrcs, Done done) {
  const std::uint64_t cookie = new_pending(target, std::move(done), {});
  Peer& p = peer(target);
  if (try_claim_credit(p)) {
    send_put_frag(target, cookie, dsts, ndsts, srcs, nsrcs);
    return;
  }
  // Window full: park the request with an owned payload copy — the caller
  // may reuse its sources the moment we return, exactly as on the
  // immediate path.
  enqueue(p, queued_put(cookie, dsts, ndsts, srcs, nsrcs));
}

void RmaAmProtocol::start_get(int target, const Frag* srcs, std::size_t n,
                              std::vector<LocalFrag> dsts, Done done) {
  const std::uint64_t cookie =
      new_pending(target, std::move(done), std::move(dsts));
  Peer& p = peer(target);
  if (try_claim_credit(p)) {
    send_get_frag(target, cookie, srcs, n);
    return;
  }
  enqueue(p, QueuedReq{QueuedReq::kGet, cookie, {srcs, srcs + n}, {}});
}

void RmaAmProtocol::put(int target, void* dst, const void* src,
                        std::size_t bytes, Done done) {
  const Frag d{reinterpret_cast<std::uintptr_t>(dst), bytes};
  // The send path only reads source runs.
  const LocalFrag s{const_cast<void*>(src), bytes};
  start_put(target, &d, 1, &s, 1, std::move(done));
}

void RmaAmProtocol::get(int target, void* dst, const void* src,
                        std::size_t bytes, Done done) {
  const Frag s{reinterpret_cast<std::uintptr_t>(src), bytes};
  start_get(target, &s, 1, {LocalFrag{dst, bytes}}, std::move(done));
}

void RmaAmProtocol::put_fragments(int target, const std::vector<Frag>& dsts,
                                  const std::vector<LocalFrag>& srcs,
                                  Done done) {
  start_put(target, dsts.data(), dsts.size(), srcs.data(), srcs.size(),
            std::move(done));
}

void RmaAmProtocol::get_fragments(int target, const std::vector<Frag>& srcs,
                                  std::vector<LocalFrag> dsts, Done done) {
  start_get(target, srcs.data(), srcs.size(), std::move(dsts),
            std::move(done));
}

int RmaAmProtocol::flush_sendq(Peer& p) {
  // Consumer-only drain. Pop + credit claim under the peer lock (ignoring
  // the sendq_n gate — we ARE the queue), the send itself outside it: a
  // send may spin on a full ring, and a helper blocked on p.mu for that
  // long would stall its whole issue pass.
  int work = 0;
  for (;;) {
    QueuedReq q;
    {
      arch::SpinGuard g(p.mu);
      if (p.sendq.empty() || !claim_outstanding(p)) break;
      q = std::move(p.sendq.front());
      p.sendq.pop_front();
      p.sendq_n.store(p.sendq.size(), std::memory_order_release);
    }
    if (q.kind == QueuedReq::kPut) {
      const LocalFrag whole{q.payload.data(), q.payload.size()};
      send_put_frag(p.target, q.cookie, q.remote.data(), q.remote.size(),
                    &whole, 1);
    } else {
      send_get_frag(p.target, q.cookie, q.remote.data(), q.remote.size());
    }
    ++work;
  }
  return work;
}

int RmaAmProtocol::poll_requests() {
  // The poll loop defines the consumer: re-stamp every pass so the role
  // follows a progress-thread migration (constructor thread vs worker 0).
  consumer_tm_.store(thread_marker(), std::memory_order_relaxed);
  int work = 0;
  // Swap-to-local idiom throughout: every send below may spin on a full
  // ring, which polls our own inbox, whose handlers append to these very
  // queues. Entries arriving mid-drain are picked up next poll.
  //
  // Completions run first so their retired credits release queued requests
  // within the same poll.
  if (!completed_.empty()) {
    auto comp = std::move(completed_);
    completed_.clear();
    // One clock read for the whole batch: every cookie in comp was sent
    // before this poll began, so now >= send_ns for each.
    const std::uint64_t now = adaptive_ ? arch::now_ns() : 0;
    for (const std::uint64_t cookie : comp) {
      decltype(pending_)::node_type node;
      {
        arch::SpinGuard g(pending_mu_);
        node = pending_.extract(cookie);
      }
      if (node.empty()) {
        // Cancelled by fail_all_peers before the ack arrived.
        ++stats_.stale_completions;
        continue;
      }
      Peer& p = peer(node.mapped().target);
      const auto prev =
          p.outstanding.fetch_sub(1, std::memory_order_acq_rel);
      assert(prev > 0 && "ack for a request never sent");
      (void)prev;
      // The target is done with the bounce buffer once its ack arrived.
      recycle_stage(p, node.mapped().stage);
      // Feed the request→ack round trip to this peer's controller; its
      // window moves and every derived bound follows on the next check.
      if (adaptive_ && node.mapped().send_ns) {
        const int d = p.ctrl.on_ack(now - node.mapped().send_ns);
        if (d > 0) ++stats_.window_grow;
        if (d < 0) ++stats_.window_shrink;
      }
      // Extracted from the map (and outside every lock) before firing:
      // the callback may issue new protocol ops.
      Done done = std::move(node.mapped().done);
      if (done) done();
      ++work;
    }
  }
  // Freed credits release window-blocked requests.
  for (std::size_t i = 0; i < peers_.size(); ++i)
    work += flush_sendq(*peers_[i]);
  if (!replies_.empty()) {
    auto reps = std::move(replies_);
    replies_.clear();
    for (const auto& r : reps) {
      std::size_t total = 0;
      for (const auto& f : r.gather) total += f.bytes;
      // A reply too large to ride inline goes through the pooled reply
      // stage: gather into a recycled shared-heap buffer, ship only the
      // descriptor, get the buffer back on the initiator's rack. Bound
      // reached or heap empty → the rendezvous REPLY below (staging is an
      // optimization, never a requirement).
      StageBuf stage;
      if (sizeof(RepHdr) + total > inline_cutoff(am_)) {
        Peer& p = peer(r.target);
        stage = acquire_reply_stage(p, total);
        if (stage.p) {
          gather_runs(static_cast<std::byte*>(stage.p), r.gather);
          p.reply_out.emplace(r.cookie, stage);
          ++stats_.replies_staged;
        } else {
          ++stats_.reply_fallbacks;
        }
      }
      if (stage.p) {
        Record rec = open_record(
            r.target, am_handler<&RmaAmHandlers::on_reply_staged>(),
            RepStagedHdr{r.cookie, am_->arena().segmap().encode(stage.p),
                         static_cast<std::uint64_t>(total), 0, 0},
            0);
        send_record(rec);
      } else {
        Record rec =
            open_record(r.target, am_handler<&RmaAmHandlers::on_get_reply>(),
                        RepHdr{r.cookie, 0, 0}, total);
        gather_runs(rec.body, r.gather);
        send_record(rec);
      }
      ++stats_.replies_sent;
      ++work;
    }
  }
  return work;
}

int RmaAmProtocol::flush_acks() {
  int work = 0;
  // Acks and racks no request or reply carried: one combined multi-ack
  // record per indebted target per flush.
  for (std::size_t i = 0; i < peers_.size(); ++i) {
    Peer& pr = *peers_[i];
    {
      arch::SpinGuard g(pr.mu);
      if (pr.acks_owed.empty() && pr.racks_owed.empty()) continue;
    }
    Record rec = open_record(pr.target, am_handler<&RmaAmHandlers::on_ack>(),
                             AckHdr{0, 0}, 0);
    am_->commit(rec.sb);
    ++stats_.acks_sent;
    stats_.ack_cookies_sent += rec.nacks;
    stats_.reply_ack_cookies_sent += rec.nracks;
    ++work;
  }
  return work;
}

bool RmaAmProtocol::idle() const {
  {
    arch::SpinGuard g(pending_mu_);
    if (!pending_.empty()) return false;
  }
  if (!replies_.empty() || !completed_.empty()) return false;
  for (const auto& pp : peers_) {
    const Peer& p = *pp;
    if (p.sendq_n.load(std::memory_order_acquire) != 0) return false;
    arch::SpinGuard g(p.mu);
    if (!p.acks_owed.empty() || !p.racks_owed.empty() ||
        !p.reply_out.empty())
      return false;
  }
  return true;
}

void RmaAmProtocol::fail_all_peers() {
  // Teardown path (consumer, with helpers quiesced by the caller). Every
  // request (in flight or queued) has a pending_ entry; dropping the map
  // cancels them all — done callbacks are destroyed, never fired, and the
  // arena error flag is the failure signal user code observes. Bounce
  // buffers go back to the shared heap (a dead target may still copy from
  // one, but it reads stale bytes at worst — it can no longer complete
  // anything).
  auto& heap = am_->arena().heap();
  {
    arch::SpinGuard g(pending_mu_);
    stats_.cancelled += pending_.size();
    for (auto& [cookie, pd] : pending_)
      if (pd.stage.p) heap.deallocate(pd.stage.p);
    pending_.clear();
  }
  completed_.clear();
  replies_.clear();
  for (auto& pp : peers_) {
    Peer& p = *pp;
    arch::SpinGuard g(p.mu);
    p.sendq.clear();
    p.sendq_n.store(0, std::memory_order_release);
    p.acks_owed.clear();
    p.racks_owed.clear();
    p.outstanding.store(0, std::memory_order_release);
    for (auto& b : p.stage_pool) heap.deallocate(b.p);
    p.stage_pool.clear();
    // The reply side mirrors the put side: pooled buffers go back to the
    // heap, and staged replies whose racks will never arrive are unpinned
    // and freed — a dead initiator may still scatter from one, but it
    // reads stale bytes at worst and can no longer complete anything.
    for (auto& b : p.reply_pool) heap.deallocate(b.p);
    p.reply_pool.clear();
    for (auto& [cookie, b] : p.reply_out) heap.deallocate(b.p);
    p.reply_out.clear();
  }
}

XferEngine::WireOps RmaAmProtocol::wire_ops() {
  XferEngine::WireOps ops;
  ops.put_chunk = [this](int target, void* dst, const void* src,
                         std::size_t bytes, XferEngine::Callback done) {
    put(target, dst, src, bytes, std::move(done));
  };
  ops.get_chunk = [this](int target, void* dst, const void* src,
                         std::size_t bytes, XferEngine::Callback done) {
    get(target, dst, src, bytes, std::move(done));
  };
  // Back-pressure: the engine holds chunks (zero-cost — the source buffer
  // is pinned until on_source anyway) while the window to this target is
  // full, instead of piling payload copies into the sender-side queue.
  ops.ready = [this](int target) { return can_accept(target); };
  // Budget metering: how many chunks this target can take right now —
  // the *adaptive* window (window_now follows the controller as it
  // moves) minus in-flight requests, zero while anything is parked in
  // the sender-side queue. The engine's poll deals its chunk budget
  // against this, so a shrunken window diverts budget to other targets
  // within the same poll instead of consuming it on a closed channel.
  ops.credits = [this](int target) -> std::uint32_t {
    if (target < 0 || static_cast<std::size_t>(target) >= peers_.size())
      return window_now(target);
    const Peer& p = *peers_[static_cast<std::size_t>(target)];
    if (p.sendq_n.load(std::memory_order_acquire) != 0) return 0;
    const std::uint32_t w = window_now(p);
    const std::uint32_t out = p.outstanding.load(std::memory_order_relaxed);
    return out < w ? w - out : 0;
  };
  return ops;
}

}  // namespace gex
