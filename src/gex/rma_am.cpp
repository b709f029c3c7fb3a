#include "gex/rma_am.hpp"

#include <cassert>
#include <cstring>
#include <optional>
#include <thread>

#include "arch/atomics.hpp"
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
    p.peer(cx.src).acks_owed.push_back(h.cookie);
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
    p.peer(cx.src).acks_owed.push_back(h.cookie);
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
    auto it = p.pending_.find(cookie);
    if (it == p.pending_.end()) {
      ++p.stats_.stale_completions;
      return std::nullopt;
    }
    std::size_t off = 0;
    for (const auto& f : it->second.scatter) {
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
    p.peer(cx.src).racks_owed.push_back(h.cookie);
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

RmaAmProtocol::RmaAmProtocol(AmEngine* am, std::uint32_t window)
    : am_(am), window_(window ? window : 1), owner_(self()) {
  // One peer per rank up front: peer() becomes an index.
  const int n = am_->arena().config().ranks;
  peers_.reserve(static_cast<std::size_t>(n));
  for (int t = 0; t < n; ++t) peers_.push_back(std::make_unique<Peer>(t));
}

std::uint64_t RmaAmProtocol::new_pending(int target, Done done,
                                         std::vector<LocalFrag> scatter) {
  const std::uint64_t cookie = next_cookie_++;
  pending_.emplace(cookie,
                   Pending{target, std::move(done), std::move(scatter)});
  return cookie;
}

void RmaAmProtocol::claim_credit(Peer& p) {
  assert(p.outstanding < window_ && "request sent without a credit");
  ++p.outstanding;
  arch::relaxed_max(stats_.max_outstanding, p.outstanding);
}

std::uint32_t RmaAmProtocol::credits(int target) const {
  assert(target >= 0 && static_cast<std::size_t>(target) < peers_.size());
  if (job_failing()) return 0;
  const Peer& p = *peers_[static_cast<std::size_t>(target)];
  return p.outstanding < window_ ? window_ - p.outstanding : 0;
}

RmaAmProtocol::StageBuf RmaAmProtocol::acquire_stage(Peer& p,
                                                     std::size_t bytes) {
  if (StageBuf b = take_best_fit(p.stage_pool, bytes); b.p) return b;
  // Pool miss: carve a fresh block (the shared heap is internally locked:
  // every rank allocates from it). On an exhausted heap spin with poll,
  // like the AmEngine's rendezvous path — but bail out (null buffer; the
  // caller cancels) once the error flag is up: the blocks we are waiting
  // for may be bounce buffers pinned by a dead peer's never-coming acks.
  const std::size_t cap = size_class(bytes);
  arch::relaxed_inc(stats_.stage_allocs);
  auto& heap = am_->arena().heap();
  for (;;) {
    if (void* buf = heap.allocate(cap)) return StageBuf{buf, cap};
    if (job_failing()) return StageBuf{};
    if (am_->poll() + poll() == 0) std::this_thread::yield();
    arch::cpu_relax();
  }
}

void RmaAmProtocol::recycle_stage(Peer& p, StageBuf buf) {
  if (!buf.p) return;
  if (p.stage_pool.size() < window_) {
    p.stage_pool.push_back(buf);
    return;
  }
  am_->arena().heap().deallocate(buf.p);
}

RmaAmProtocol::StageBuf RmaAmProtocol::acquire_reply_stage(
    Peer& p, std::size_t bytes) {
  // Staged replies are bounded by the window: the initiator's own window
  // already bounds how many replies can be awaited, this bound only has to
  // keep a failing peer from pinning unbounded heap. Past it the caller
  // falls back to the rendezvous REPLY path — never block here, a reply
  // send runs inside the target's poll loop.
  if (p.reply_out.size() >= window_) return StageBuf{};
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
  // Pool retention matches the stage bound; the excess drains back to the
  // heap.
  if (p.reply_pool.size() < window_) {
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
  OwedAcks oa{std::move(p.acks_owed), std::move(p.racks_owed)};
  p.acks_owed.clear();
  p.racks_owed.clear();
  return oa;
}

// A staged send found the heap exhausted while the job is failing: the
// request can never be serviced. Cancel it the way fail_all_peers would —
// drop the pending entry (its done callback is destroyed, not fired) and
// return the credit the caller just consumed.
void RmaAmProtocol::cancel_sent(Peer& p, std::uint64_t cookie) {
  pending_.erase(cookie);
  arch::relaxed_inc(stats_.cancelled);
  assert(p.outstanding > 0);
  --p.outstanding;
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
  Record r{am_->prepare(target, h,
                        sizeof hdr + ack_bytes(hdr.nacks + hdr.nracks) + body),
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
      // Exhausted heap while the job is failing: the request can never
      // be serviced.
      cancel_sent(p, cookie);
      return;
    }
    gather_local(static_cast<std::byte*>(stage.p), srcs, nsrcs);
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
}

void RmaAmProtocol::send_get_frag(int target, std::uint64_t cookie,
                                  const Frag* srcs, std::size_t n) {
  const auto nf = static_cast<std::uint32_t>(n);
  Record r = open_record(target, am_handler<&RmaAmHandlers::on_get_frag>(),
                         FragHdr{cookie, nf, 0, 0, 0}, n * sizeof(FragDesc));
  write_descs(r.body, srcs, n);
  send_record(r);
  arch::relaxed_inc(n == 1 ? stats_.gets_sent : stats_.frag_gets_sent);
}

void RmaAmProtocol::start_put(int target, const Frag* dsts,
                              std::size_t ndsts, const LocalFrag* srcs,
                              std::size_t nsrcs, Done done) {
  assert(self() == owner_ && "RmaAmProtocol used off its rank's thread");
  claim_credit(peer(target));
  send_put_frag(target, new_pending(target, std::move(done), {}), dsts,
                ndsts, srcs, nsrcs);
}

void RmaAmProtocol::start_get(int target, const Frag* srcs, std::size_t n,
                              std::vector<LocalFrag> dsts, Done done) {
  assert(self() == owner_ && "RmaAmProtocol used off its rank's thread");
  claim_credit(peer(target));
  send_get_frag(target, new_pending(target, std::move(done), std::move(dsts)),
                srcs, n);
}

int RmaAmProtocol::poll_requests() {
  assert(self() == owner_ && "RmaAmProtocol polled off its rank's thread");
  int work = 0;
  // Swap-to-local idiom throughout: every send below may spin on a full
  // ring, which polls our own inbox, whose handlers append to these very
  // queues. Entries arriving mid-drain are picked up next poll.
  //
  // Completions run first so the credits they retire are free for the
  // XferEngine poll that follows.
  if (!completed_.empty()) {
    auto comp = std::move(completed_);
    completed_.clear();
    for (const std::uint64_t cookie : comp) {
      auto node = pending_.extract(cookie);
      if (node.empty()) {
        // Cancelled by fail_all_peers before the ack arrived.
        ++stats_.stale_completions;
        continue;
      }
      Peer& p = peer(node.mapped().target);
      assert(p.outstanding > 0 && "ack for a request never sent");
      --p.outstanding;
      // The target is done with the bounce buffer once its ack arrived.
      recycle_stage(p, node.mapped().stage);
      // Extracted from the map before firing: the callback may issue new
      // protocol ops.
      Done done = std::move(node.mapped().done);
      if (done) done();
      ++work;
    }
  }
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
  assert(self() == owner_ && "RmaAmProtocol polled off its rank's thread");
  int work = 0;
  // Acks and racks no request or reply carried: one combined multi-ack
  // record per indebted target per flush.
  for (std::size_t i = 0; i < peers_.size(); ++i) {
    Peer& pr = *peers_[i];
    if (pr.acks_owed.empty() && pr.racks_owed.empty()) continue;
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
  if (!pending_.empty() || !replies_.empty() || !completed_.empty())
    return false;
  for (const auto& pp : peers_) {
    const Peer& p = *pp;
    if (!p.acks_owed.empty() || !p.racks_owed.empty() || !p.reply_out.empty())
      return false;
  }
  return true;
}

void RmaAmProtocol::fail_all_peers() {
  // Teardown path. Every in-flight request has a pending_ entry; dropping
  // the map cancels them all — done callbacks are destroyed, never fired,
  // and the arena error flag is the failure signal user code observes. Bounce
  // buffers go back to the shared heap (a dead target may still copy from
  // one, but it reads stale bytes at worst — it can no longer complete
  // anything).
  auto& heap = am_->arena().heap();
  stats_.cancelled += pending_.size();
  for (auto& [cookie, pd] : pending_)
    if (pd.stage.p) heap.deallocate(pd.stage.p);
  pending_.clear();
  completed_.clear();
  replies_.clear();
  for (auto& pp : peers_) {
    Peer& p = *pp;
    p.acks_owed.clear();
    p.racks_owed.clear();
    p.outstanding = 0;
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
  ops.put = [this](int target, const Frag* dsts, std::size_t ndsts,
                   const LocalFrag* srcs, std::size_t nsrcs,
                   XferEngine::Callback done) {
    start_put(target, dsts, ndsts, srcs, nsrcs, std::move(done));
  };
  ops.get = [this](int target, const Frag* srcs, std::size_t n,
                   std::vector<LocalFrag> dsts, XferEngine::Callback done) {
    start_get(target, srcs, n, std::move(dsts), std::move(done));
  };
  ops.credits = [this](int target) { return credits(target); };
  return ops;
}

}  // namespace gex
