#include "gex/rma_am.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
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

// Wire record headers. Always memcpy'd to/from the ring (record payloads
// are only 4-byte aligned). Cookies are initiator-local ids; `addr`/`buf`
// fields are (segment id, offset) wire addresses (gex/segment.hpp) encoded
// by the sender and resolved against the *receiver's own* mapping at
// decode — no record byte depends on the peer's virtual-address layout.
// Every header carries `nacks`: the count of piggybacked ack cookies (u64
// each) laid out immediately after the header, ahead of any descriptors or
// payload, so reverse-direction traffic retires the sender's completions
// for free.
//
// A request names its remote runs with `nfrags` FragDescs in the record
// itself; a contiguous put or get is simply nfrags == 1.
struct FragHdr {
  std::uint64_t cookie;
  std::uint32_t nfrags;
  std::uint32_t nacks;
};
// Pool-staged put or get: the payload sits in (put) or lands in (get) the
// initiator's bounce buffer `buf`; only the header and descriptors cross
// the ring.
struct FragStagedHdr {
  std::uint64_t cookie;
  std::uint64_t buf;
  std::uint64_t payload_bytes;
  std::uint32_t nfrags;
  std::uint32_t nacks;
};
struct FragDesc {
  std::uint64_t addr;
  std::uint64_t bytes;
};
// Standalone multi-ack record: every ack owed to one target, batched into
// one ring transaction.
struct AckHdr {
  std::uint32_t nacks;
};
struct RepHdr {
  std::uint64_t cookie;
  std::uint32_t nacks;
  std::uint32_t reserved;
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

// Copies `payload` back to back into the initiator's landing runs; returns
// the bytes consumed.
std::size_t scatter_local(const std::byte* payload,
                          const std::vector<RmaAmProtocol::LocalFrag>& dsts) {
  std::size_t off = 0;
  for (const auto& f : dsts) {
    if (f.bytes) std::memcpy(f.ptr, payload + off, f.bytes);
    off += f.bytes;
  }
  return off;
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
  // Reads the record's header into `h`, retires the ack cookies
  // piggybacked after it, and returns the cursor past them.
  template <typename H>
  static const std::byte* open(RmaAmProtocol& p, const AmContext& cx,
                               H& h) {
    h = read_hdr<H>(cx.data);
    const auto* q = static_cast<const std::byte*>(cx.data) + sizeof(H);
    for (std::uint32_t i = 0; i < h.nacks; ++i) {
      std::uint64_t cookie;
      std::memcpy(&cookie, q + i * sizeof cookie, sizeof cookie);
      p.completed_.push_back(cookie);
    }
    return q + ack_bytes(h.nacks);
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
    assert(sizeof(FragHdr) + ack_bytes(h.nacks) +
               h.nfrags * sizeof(FragDesc) + off ==
           cx.size);
    (void)off;
    p.peer(cx.src).acks_owed.push_back(h.cookie);
    ++p.stats_.puts_handled;
  }

  // A staged record names a bounce buffer in the *initiator's* heap —
  // reachable here only because the transport cross-maps it. One arriving
  // over a transport without that property (socket) is a protocol bug:
  // RmaAmProtocol::chunk_bytes should have kept every piece inline.
  static void on_put_frag_staged(AmContext& cx) {
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

  // Queues a get's gather for poll_requests (the reply or ack is a send,
  // which a handler must not make). The runs are resolved here: the gather
  // list holds this rank's own raw addresses from now on. `stage` is the
  // initiator's bounce buffer for a staged get, null for an inline one.
  static void queue_get(RmaAmProtocol& p, int src, std::uint64_t cookie,
                        const std::byte* descs, std::uint32_t n,
                        void* stage) {
    std::vector<RmaAmProtocol::Frag> gather;
    gather.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      const auto d = read_hdr<FragDesc>(descs + i * sizeof(FragDesc));
      gather.push_back({p.wire_dec(d.addr), d.bytes});
    }
    p.replies_.push_back({src, cookie, std::move(gather), stage});
    ++p.stats_.gets_handled;
  }

  static void on_get_frag(AmContext& cx) {
    auto& p = proto();
    FragHdr h{};
    const auto* descs = open(p, cx, h);
    queue_get(p, cx.src, h.cookie, descs, h.nfrags, nullptr);
  }

  static void on_get_frag_staged(AmContext& cx) {
    assert(cx.engine->transport().shared_memory() &&
           "staged get crossed a non-shared-memory transport");
    auto& p = proto();
    FragStagedHdr h{};
    const auto* descs = open(p, cx, h);
    queue_get(p, cx.src, h.cookie, descs, h.nfrags,
              local_ptr(p.wire_dec(h.buf)));
  }

  static void on_ack(AmContext& cx) {
    auto& p = proto();
    AckHdr h{};
    open(p, cx, h);
    assert(sizeof(AckHdr) + ack_bytes(h.nacks) == cx.size);
  }

  // Scatters an inline reply into the pending get's landing runs while the
  // payload is alive (eager payloads die with the handler) and queues its
  // completion (deferred to poll()). A reply to a request cancelled by
  // fail_all_peers is dropped: the landing buffers may be gone.
  static void on_get_reply(AmContext& cx) {
    auto& p = proto();
    RepHdr h{};
    const auto* payload = open(p, cx, h);
    auto it = p.pending_.find(h.cookie);
    if (it == p.pending_.end()) {
      ++p.stats_.stale_completions;
      return;
    }
    const std::size_t off = scatter_local(payload, it->second.scatter);
    assert(sizeof(RepHdr) + ack_bytes(h.nacks) + off == cx.size);
    (void)off;
    p.completed_.push_back(h.cookie);
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

std::size_t RmaAmProtocol::chunk_bytes(AmEngine& am, std::uint32_t window,
                                       std::size_t want) {
  std::size_t chunk = std::min(want, kAmXferChunkBytes);
  if (!am.transport().shared_memory()) {
    // Every record rides inline there. The largest one a piece makes is a
    // contiguous put: header, owed acks, one descriptor and the payload (a
    // run entry counts its descriptors inside the piece; a reply's header
    // is no larger). Config's 256 B chunk floor still applies.
    const std::size_t overhead =
        sizeof(FragHdr) + ack_bytes(window) + sizeof(FragDesc);
    const std::size_t room =
        am.inline_max() - std::min(am.inline_max(), overhead);
    chunk = std::max(std::min(chunk, room), std::size_t{256});
  }
  return chunk;
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
                                                     std::size_t bytes,
                                                     bool get) {
  if (StageBuf b = take_best_fit(p.stage_pool, bytes); b.p) {
    if (get) ++stats_.reply_pool_hits;
    return b;
  }
  // Pool miss: carve a fresh block (the shared heap is internally locked:
  // every rank allocates from it). On an exhausted heap spin with poll,
  // like the AmEngine's rendezvous path — but bail out (null buffer; the
  // caller cancels) once the error flag is up: the blocks we are waiting
  // for may be bounce buffers pinned by a dead peer's never-coming acks.
  const std::size_t cap = size_class(bytes);
  arch::relaxed_inc(get ? stats_.reply_stage_allocs : stats_.stage_allocs);
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

RmaAmProtocol::StageBuf RmaAmProtocol::stage_for(Peer& p,
                                                 std::uint64_t cookie,
                                                 std::size_t bytes,
                                                 bool get) {
  assert(am_->transport().shared_memory() &&
         "staged record built for a non-shared-memory transport");
  const StageBuf stage = acquire_stage(p, bytes, get);
  if (!stage.p) {
    // Exhausted heap while the job is failing: the request can never be
    // serviced.
    cancel_sent(p, cookie);
  } else if (auto it = pending_.find(cookie); it != pending_.end()) {
    it->second.stage = stage;
  }
  return stage;
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
  // Snapshot-and-clear before the send: it may spin on a full ring, which
  // polls our own inbox, whose handlers append fresh owed acks — those
  // wait for the next record.
  Peer& p = peer(target);
  const std::vector<std::uint64_t> acks = std::move(p.acks_owed);
  p.acks_owed.clear();
  hdr.nacks = static_cast<std::uint32_t>(acks.size());
  Record r{am_->prepare(target, h, sizeof hdr + ack_bytes(hdr.nacks) + body),
           nullptr, hdr.nacks};
  auto* q = static_cast<std::byte*>(r.sb.data);
  std::memcpy(q, &hdr, sizeof hdr);
  r.body = write_acks(q + sizeof hdr, acks);
  return r;
}

void RmaAmProtocol::send_record(Record& r) {
  am_->commit(r.sb);
  arch::relaxed_add(stats_.acks_piggybacked, r.nacks);
}

void RmaAmProtocol::send_acks(Peer& p) {
  Record rec = open_record(p.target, am_handler<&RmaAmHandlers::on_ack>(),
                           AckHdr{0}, 0);
  am_->commit(rec.sb);
  ++stats_.acks_sent;
  stats_.ack_cookies_sent += rec.nacks;
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

void RmaAmProtocol::start_put(int target, const Frag* dsts,
                              std::size_t ndsts, const LocalFrag* srcs,
                              std::size_t nsrcs, Done done) {
  assert(self() == owner_ && "RmaAmProtocol used off its rank's thread");
  claim_credit(peer(target));
  const std::uint64_t cookie = new_pending(target, std::move(done), {});
  std::size_t total = 0;
  for (std::size_t i = 0; i < nsrcs; ++i) total += srcs[i].bytes;
  const std::size_t desc_bytes = ndsts * sizeof(FragDesc);
  const auto n = static_cast<std::uint32_t>(ndsts);
  // The inline-fit decision ignores the (yet untaken) piggyback list: if
  // the acks push an inline record past eager_max, AmEngine::prepare
  // falls back to its rendezvous staging transparently (and where it has
  // none, chunk_bytes left room for them).
  if (sizeof(FragHdr) + desc_bytes + total <= inline_cutoff(am_)) {
    Record r = open_record(target, am_handler<&RmaAmHandlers::on_put_frag>(),
                           FragHdr{cookie, n, 0}, desc_bytes + total);
    // Gather the local fragments straight into the wire buffer.
    gather_local(write_descs(r.body, dsts, ndsts), srcs, nsrcs);
    send_record(r);
  } else {
    // Large put: the payload goes through a pooled bounce buffer, the
    // descriptors stay in the ring record.
    const StageBuf stage = stage_for(peer(target), cookie, total, false);
    if (!stage.p) return;
    gather_local(static_cast<std::byte*>(stage.p), srcs, nsrcs);
    Record r = open_record(
        target, am_handler<&RmaAmHandlers::on_put_frag_staged>(),
        FragStagedHdr{cookie, am_->arena().segmap().encode(stage.p), total,
                      n, 0},
        desc_bytes);
    write_descs(r.body, dsts, ndsts);
    send_record(r);
    arch::relaxed_inc(stats_.puts_staged);
  }
  arch::relaxed_inc(ndsts == 1 ? stats_.puts_sent : stats_.frag_puts_sent);
}

void RmaAmProtocol::start_get(int target, const Frag* srcs, std::size_t n,
                              std::vector<LocalFrag> dsts, Done done) {
  assert(self() == owner_ && "RmaAmProtocol used off its rank's thread");
  claim_credit(peer(target));
  const std::uint64_t cookie =
      new_pending(target, std::move(done), std::move(dsts));
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i)
    total += static_cast<std::size_t>(srcs[i].bytes);
  const std::size_t desc_bytes = n * sizeof(FragDesc);
  const auto nf = static_cast<std::uint32_t>(n);
  if (sizeof(RepHdr) + total <= inline_cutoff(am_)) {
    Record r = open_record(target, am_handler<&RmaAmHandlers::on_get_frag>(),
                           FragHdr{cookie, nf, 0}, desc_bytes);
    write_descs(r.body, srcs, n);
    send_record(r);
  } else {
    // Large get: the target gathers straight into a pooled bounce buffer
    // of ours and acks; the completion that ack drives scatters out of it.
    const StageBuf stage = stage_for(peer(target), cookie, total, true);
    if (!stage.p) return;
    Record r = open_record(
        target, am_handler<&RmaAmHandlers::on_get_frag_staged>(),
        FragStagedHdr{cookie, am_->arena().segmap().encode(stage.p), total,
                      nf, 0},
        desc_bytes);
    write_descs(r.body, srcs, n);
    send_record(r);
    arch::relaxed_inc(stats_.gets_staged);
  }
  arch::relaxed_inc(n == 1 ? stats_.gets_sent : stats_.frag_gets_sent);
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
      Pending& pd = node.mapped();
      Peer& p = peer(pd.target);
      assert(p.outstanding > 0 && "ack for a request never sent");
      --p.outstanding;
      // A staged get's target gathered into the bounce buffer before its
      // ack: land the payload. Either way the target is done with the
      // buffer once its ack arrived.
      if (pd.stage.p && !pd.scatter.empty())
        scatter_local(static_cast<const std::byte*>(pd.stage.p), pd.scatter);
      recycle_stage(p, pd.stage);
      // Extracted from the map before firing: the callback may issue new
      // protocol ops.
      Done done = std::move(pd.done);
      if (done) done();
      ++work;
    }
  }
  if (!replies_.empty()) {
    auto reps = std::move(replies_);
    replies_.clear();
    for (const auto& r : reps) {
      if (r.stage) {
        // Staged get: gather straight into the initiator's buffer, then
        // ack at once (draining every ack owed to that peer), so the
        // initiator's scatter of this chunk overlaps our gather of the
        // next. Leaving the ack to a piggyback or flush_acks measured
        // slower on rma_bulk_am (DESIGN.md, "Staged gets").
        gather_runs(static_cast<std::byte*>(r.stage), r.gather);
        Peer& p = peer(r.target);
        p.acks_owed.push_back(r.cookie);
        send_acks(p);
      } else {
        std::size_t total = 0;
        for (const auto& f : r.gather) total += f.bytes;
        Record rec =
            open_record(r.target, am_handler<&RmaAmHandlers::on_get_reply>(),
                        RepHdr{r.cookie, 0, 0}, total);
        gather_runs(rec.body, r.gather);
        send_record(rec);
        ++stats_.replies_sent;
      }
      ++work;
    }
  }
  return work;
}

int RmaAmProtocol::flush_acks() {
  assert(self() == owner_ && "RmaAmProtocol polled off its rank's thread");
  int work = 0;
  // Acks no request or reply carried: one multi-ack record per indebted
  // target per flush.
  for (auto& pp : peers_) {
    if (pp->acks_owed.empty()) continue;
    send_acks(*pp);
    ++work;
  }
  return work;
}

bool RmaAmProtocol::idle() const {
  if (!pending_.empty() || !replies_.empty() || !completed_.empty())
    return false;
  for (const auto& pp : peers_)
    if (!pp->acks_owed.empty()) return false;
  return true;
}

void RmaAmProtocol::fail_all_peers() {
  // Teardown path. Every in-flight request has a pending_ entry; dropping
  // the map cancels them all — done callbacks are destroyed, never fired,
  // and the arena error flag is the failure signal user code observes.
  // A staged put's buffer goes back to the shared heap: its target only
  // reads it (a dead one reads stale bytes at worst — it can no longer
  // complete anything). A staged get's buffer does not: a live target may
  // still gather into it, so handing the block out again could corrupt its
  // next owner. It stays allocated until the arena is torn down.
  auto& heap = am_->arena().heap();
  stats_.cancelled += pending_.size();
  for (auto& [cookie, pd] : pending_)
    if (pd.stage.p && pd.scatter.empty()) heap.deallocate(pd.stage.p);
  pending_.clear();
  completed_.clear();
  replies_.clear();
  for (auto& pp : peers_) {
    Peer& p = *pp;
    p.acks_owed.clear();
    p.outstanding = 0;
    for (auto& b : p.stage_pool) heap.deallocate(b.p);
    p.stage_pool.clear();
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
