#include "gex/rma_am.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "gex/handlers.hpp"
#include "gex/runtime.hpp"
#include "gex/wait.hpp"

namespace gex {

namespace {

// Wire record headers. Always memcpy'd to/from the record (ring payloads
// are only 4-byte aligned). Cookies are initiator-local ids; addresses are
// (segment id, offset) wire addresses (gex/segment.hpp) resolved against
// the *receiver's own* mapping at decode — no record byte depends on the
// peer's virtual-address layout.
// Every header carries `nacks`: the count of piggybacked ack cookies (u64
// each) laid out immediately after the header, ahead of any descriptors or
// payload, so reverse-direction traffic retires the sender's completions
// for free.
//
// A request names its remote runs with `nfrags` descriptors in the record
// itself — each an XferEngine::Frag, (wire address, bytes), copied as
// is; a contiguous put or get is simply nfrags == 1.
struct FragHdr {
  std::uint64_t cookie;
  std::uint32_t nfrags;
  std::uint32_t nacks;
};
using FragDesc = RmaAmProtocol::Frag;
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

// Copies local runs back to back into `q`: the initiator's put sources,
// or a target's get sources (which the get handler resolved at decode).
// A get's gather runs at reply time, so it reads the data as it exists
// when the target serves it, exactly like a direct-wire rget reads memory
// at copy time.
std::byte* gather_local(std::byte* q, const RmaAmProtocol::LocalFrag* srcs,
                        std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (srcs[i].bytes) std::memcpy(q, srcs[i].ptr, srcs[i].bytes);
    q += srcs[i].bytes;
  }
  return q;
}

// Writes `n` remote runs as a record's descriptors; returns the end.
std::byte* write_descs(std::byte* q, const FragDesc* runs, std::size_t n) {
  if (n) std::memcpy(q, runs, n * sizeof(FragDesc));
  return q + n * sizeof(FragDesc);
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
        std::memcpy(p.am_->arena().segmap().decode(d.addr), payload + off,
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

  // Queues the get's gather for poll_requests (the reply is a send, which
  // a handler must not make). The runs are resolved here: the gather list
  // holds this rank's own addresses from now on.
  static void on_get_frag(AmContext& cx) {
    auto& p = proto();
    FragHdr h{};
    const auto* descs = open(p, cx, h);
    const SegmentMap& map = p.am_->arena().segmap();
    std::vector<RmaAmProtocol::LocalFrag> gather;
    gather.reserve(h.nfrags);
    for (std::uint32_t i = 0; i < h.nfrags; ++i) {
      const auto d = read_hdr<FragDesc>(descs + i * sizeof(FragDesc));
      gather.push_back(
          {map.decode(d.addr), static_cast<std::size_t>(d.bytes)});
    }
    p.replies_.push_back({cx.src, h.cookie, std::move(gather)});
    ++p.stats_.gets_handled;
  }

  static void on_ack(AmContext& cx) {
    auto& p = proto();
    AckHdr h{};
    open(p, cx, h);
    assert(sizeof(AckHdr) + ack_bytes(h.nacks) == cx.size);
  }

  // Scatters a reply into the pending get's landing runs while the payload
  // is alive (it dies with the handler, eager or rendezvous) and queues its
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
    // Every record rides inline there. A piece's record is its header, the
    // owed acks, the first descriptor and the piece (a run entry counts
    // its descriptors after the first inside the piece; a reply's header
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
  stats_.max_outstanding =
      std::max<std::uint64_t>(stats_.max_outstanding, p.outstanding);
}

std::uint32_t RmaAmProtocol::credits(int target) const {
  assert(target >= 0 && static_cast<std::size_t>(target) < peers_.size());
  if (job_failed()) return 0;
  const Peer& p = *peers_[static_cast<std::size_t>(target)];
  return p.outstanding < window_ ? window_ - p.outstanding : 0;
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
  stats_.acks_piggybacked += r.nacks;
}

void RmaAmProtocol::send_acks(Peer& p) {
  Record rec = open_record(p.target, am_handler<&RmaAmHandlers::on_ack>(),
                           AckHdr{0}, 0);
  am_->commit(rec.sb);
  ++stats_.acks_sent;
  stats_.ack_cookies_sent += rec.nacks;
}

void RmaAmProtocol::start_put(int target, const Frag* dsts,
                              std::size_t ndsts, const LocalFrag* srcs,
                              std::size_t nsrcs, Done done) {
  assert(self() == owner_ && "RmaAmProtocol used off its rank's thread");
  claim_credit(peer(target));
  const std::uint64_t cookie = new_pending(target, std::move(done), {});
  std::size_t total = 0;
  for (std::size_t i = 0; i < nsrcs; ++i) total += srcs[i].bytes;
  Record r = open_record(target, am_handler<&RmaAmHandlers::on_put_frag>(),
                         FragHdr{cookie, static_cast<std::uint32_t>(ndsts), 0},
                         ndsts * sizeof(FragDesc) + total);
  // Gather the local fragments straight into the wire buffer (ring record
  // or rendezvous block: AmEngine::prepare chose by size).
  gather_local(write_descs(r.body, dsts, ndsts), srcs, nsrcs);
  send_record(r);
  ++(ndsts == 1 ? stats_.puts_sent : stats_.frag_puts_sent);
}

void RmaAmProtocol::start_get(int target, const Frag* srcs, std::size_t n,
                              const LocalFrag* dsts, std::size_t ndsts,
                              Done done) {
  assert(self() == owner_ && "RmaAmProtocol used off its rank's thread");
  claim_credit(peer(target));
  const std::uint64_t cookie =
      new_pending(target, std::move(done), {dsts, dsts + ndsts});
  Record r = open_record(target, am_handler<&RmaAmHandlers::on_get_frag>(),
                         FragHdr{cookie, static_cast<std::uint32_t>(n), 0},
                         n * sizeof(FragDesc));
  write_descs(r.body, srcs, n);
  send_record(r);
  ++(n == 1 ? stats_.gets_sent : stats_.frag_gets_sent);
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
      std::size_t total = 0;
      for (const auto& f : r.gather) total += f.bytes;
      Record rec =
          open_record(r.target, am_handler<&RmaAmHandlers::on_get_reply>(),
                      RepHdr{r.cookie, 0, 0}, total);
      gather_local(rec.body, r.gather.data(), r.gather.size());
      send_record(rec);
      ++stats_.replies_sent;
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
  // A reply still on its way lands as a stale completion: its handler
  // finds no pending entry and the AmEngine frees its rendezvous block.
  stats_.cancelled += pending_.size();
  pending_.clear();
  completed_.clear();
  replies_.clear();
  for (auto& pp : peers_) {
    pp->acks_owed.clear();
    pp->outstanding = 0;
  }
}

XferEngine::WireOps RmaAmProtocol::wire_ops() {
  XferEngine::WireOps ops;
  ops.put = [this](int target, const Frag* dsts, std::size_t ndsts,
                   const LocalFrag* srcs, std::size_t nsrcs,
                   XferEngine::Callback done) {
    start_put(target, dsts, ndsts, srcs, nsrcs, std::move(done));
  };
  ops.get = [this](int target, const Frag* srcs, std::size_t nsrcs,
                   const LocalFrag* dsts, std::size_t ndsts,
                   XferEngine::Callback done) {
    start_get(target, srcs, nsrcs, dsts, ndsts, std::move(done));
  };
  ops.credits = [this](int target) { return credits(target); };
  return ops;
}

}  // namespace gex
