#include "gex/xfer.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "arch/timer.hpp"
#include "gex/runtime.hpp"

namespace gex {

namespace {

using Frag = XferEngine::Frag;
using LocalFrag = XferEngine::LocalFrag;

// Moves bytes between the `remote` runs, decoded through `map` (mapped in
// this process by construction), and the `local` runs, in order (equal
// totals): local -> remote, or remote -> local for a get.
void copy_runs(const SegmentMap& map, const Frag* remote, std::size_t nr,
               const LocalFrag* local, bool is_get) {
  std::size_t li = 0, loff = 0;  // cursor in `local`
  for (std::size_t i = 0; i < nr; ++i) {
    const auto bytes = static_cast<std::size_t>(remote[i].bytes);
    if (!bytes) continue;
    auto* theirs = static_cast<std::byte*>(map.try_decode(remote[i].addr));
    assert(theirs && "built-in mover given memory not mapped here");
    for (std::size_t done = 0; done < bytes;) {
      auto* mine = static_cast<std::byte*>(local[li].ptr) + loff;
      const std::size_t n = std::min(bytes - done, local[li].bytes - loff);
      if (n) {
        if (is_get)
          std::memcpy(mine, theirs + done, n);
        else
          std::memcpy(theirs + done, mine, n);
      }
      done += n;
      loff += n;
      if (loff == local[li].bytes) {
        ++li;
        loff = 0;
      }
    }
  }
}

// The built-in mover: a memcpy through the segment map, done before it
// returns, no credit gate.
XferEngine::WireOps direct_wire(const SegmentMap& map) {
  XferEngine::WireOps ops;
  ops.put = [m = &map](int, const Frag* r, std::size_t nr,
                       const LocalFrag* l, std::size_t,
                       XferEngine::Callback done) {
    copy_runs(*m, r, nr, l, /*is_get=*/false);
    done();
  };
  ops.get = [m = &map](int, const Frag* r, std::size_t nr,
                       const LocalFrag* l, std::size_t,
                       XferEngine::Callback done) {
    copy_runs(*m, r, nr, l, /*is_get=*/true);
    done();
  };
  return ops;
}

}  // namespace

XferEngine::XferEngine(const SegmentMap& map, std::size_t chunk_bytes,
                       double bw_gbps)
    : chunk_bytes_(chunk_bytes ? chunk_bytes : std::size_t{256} << 10),
      bw_gbps_(bw_gbps > 0 ? bw_gbps : 0),
      // 1 GB/s == 1e9 bytes/s == 1 byte/ns, so ns-per-byte is 1/gbps.
      ns_per_byte_(bw_gbps > 0 ? 1.0 / bw_gbps : 0),
      direct_(direct_wire(map)),
      wire_(direct_wire(map)),
      owner_(self()) {}

XferEngine::Channel& XferEngine::channel(int target) {
  for (auto& ch : channels_)
    if (ch->target == target) return *ch;
  channels_.push_back(std::make_unique<Channel>());
  channels_.back()->target = target;
  channels_.back()->own = owner_ && target == owner_->me;
  return *channels_.back();
}

std::size_t XferEngine::channel_count() const { return channels_.size(); }

XferEngine::Xfer& XferEngine::enqueue(Channel& ch, bool is_get) {
  Xfer* x;
  if (free_.empty()) {
    nodes_.push_back(std::make_unique<Xfer>());
    x = nodes_.back().get();
  } else {
    x = free_.back();
    free_.pop_back();
  }
  x->is_get = is_get;
  (ch.tail ? ch.tail->next : ch.head) = x;
  ch.tail = x;
  if (!ch.issue) ch.issue = x;
  return *x;
}

void XferEngine::recycle(Xfer& x) {
  std::vector<Frag> remote = std::move(x.remote);
  std::vector<LocalFrag> local = std::move(x.local);
  remote.clear();
  local.clear();
  x = Xfer{};
  x.remote = std::move(remote);
  x.local = std::move(local);
  free_.push_back(&x);
}

void XferEngine::submit(int target, WireAddr remote, void* local,
                        std::size_t bytes, Callback on_source,
                        Callback on_landed, bool is_get,
                        std::uint64_t extra_landing_ns) {
  assert((bytes == 0 || (remote && local)) &&
         "null endpoint on a live transfer");
  const Frag r{remote, bytes};
  const LocalFrag l{local, bytes};
  cut(target, &r, 1, &l, 1, is_get, std::move(on_source),
      std::move(on_landed), extra_landing_ns);
}

void XferEngine::submit_runs(int target, const std::vector<Frag>& remote,
                             const std::vector<LocalFrag>& local,
                             Callback on_source, Callback on_landed,
                             bool is_get, std::uint64_t extra_landing_ns) {
  cut(target, remote.data(), remote.size(), local.data(), local.size(),
      is_get, std::move(on_source), std::move(on_landed), extra_landing_ns);
}

void XferEngine::cut(int target, const Frag* remote, std::size_t nremote,
                     const LocalFrag* local, std::size_t nlocal, bool is_get,
                     Callback on_source, Callback on_landed,
                     std::uint64_t extra_landing_ns) {
  assert(self() == owner_ && "XferEngine used off its rank's thread");
  Channel& ch = channel(target);
  ++active_count_;
  ++inflight_count_;
  ++stats_.submitted;
  stats_.max_inflight =
      std::max<std::uint64_t>(stats_.max_inflight, inflight_count_);
  // Each entry takes remote runs until the chunk is spent — every run
  // after its first costing its descriptor — splitting the run that
  // straddles the boundary, then as many bytes of local runs. Every entry
  // takes at least its first run's next byte (or a whole empty run), so
  // the cut always advances.
  Xfer* x = nullptr;
  std::size_t ri = 0, roff = 0;  // cursor in `remote`
  std::size_t li = 0, loff = 0;  // cursor in `local`
  do {
    x = &enqueue(ch, is_get);
    for (std::size_t room = chunk_bytes_; ri < nremote;) {
      if (!x->remote.empty()) {
        if (room <= sizeof(Frag)) break;
        room -= sizeof(Frag);
      }
      const std::size_t take = std::min(
          static_cast<std::size_t>(remote[ri].bytes) - roff, room);
      x->remote.push_back({remote[ri].addr + roff, take});
      x->bytes += take;
      room -= take;
      roff += take;
      if (roff == remote[ri].bytes) {
        ++ri;
        roff = 0;
      }
    }
    for (std::size_t need = x->bytes; need > 0;) {
      assert(li < nlocal && "local runs shorter than the remote runs");
      const std::size_t take = std::min(local[li].bytes - loff, need);
      if (take)
        x->local.push_back(
            {static_cast<std::byte*>(local[li].ptr) + loff, take});
      need -= take;
      loff += take;
      if (loff == local[li].bytes) {
        ++li;
        loff = 0;
      }
    }
  } while (ri < nremote);
  (void)nlocal;
  // The last entry completes the transfer: it issues after, and retires no
  // earlier than, every entry before it.
  x->last = true;
  x->on_source = std::move(on_source);
  x->on_landed = std::move(on_landed);
  x->extra_landing_ns = extra_landing_ns;
}

void XferEngine::issue_one_chunk(Channel& ch) {
  Xfer& x = *ch.issue;
  // The mover may call done before it returns; the node never moves while
  // queued, and a submit reached from inside the mover call appends
  // behind it.
  WireOps& w = wire_of(ch);
  (x.is_get ? w.get : w.put)(ch.target, x.remote.data(), x.remote.size(),
                             x.local.data(), x.local.size(),
                             [px = &x] { px->acked = true; });
  ++stats_.chunks_copied;
  stats_.bytes_copied += x.bytes;
  if (ns_per_byte_ > 0) {
    // Virtual wire clock (per link): the wire starts this piece when it
    // frees up (or now, if it has been idle) and holds it for bytes/bw.
    const std::uint64_t now = arch::now_ns();
    ch.wire_free_ns_ = std::max(ch.wire_free_ns_, now) +
                       static_cast<std::uint64_t>(x.bytes * ns_per_byte_);
  }
  x.landed_due_ns = ns_per_byte_ > 0 ? ch.wire_free_ns_ : 0;
  ch.issue = x.next;
  if (!x.last) return;
  // Last byte read out of the source: the initiator may reuse it.
  if (x.extra_landing_ns)
    x.landed_due_ns =
        std::max(x.landed_due_ns, arch::now_ns()) + x.extra_landing_ns;
  --active_count_;
  if (Callback cb = std::move(x.on_source)) cb();
}

int XferEngine::retire_landed(Channel& ch) {
  // Due times are monotone per channel (its wire clock only advances) and
  // acks return in issue order, so the head check suffices. Each callback
  // runs after its entry left the queue: it may submit new transfers or
  // re-enter poll.
  int fired = 0;
  while (ch.head && ch.head != ch.issue) {
    Xfer& head = *ch.head;
    if (!head.acked) break;
    if (head.landed_due_ns > arch::now_ns()) break;
    const bool last = head.last;
    Callback cb = std::move(head.on_landed);
    ch.head = head.next;
    if (!ch.head) ch.tail = nullptr;
    recycle(head);
    if (!last) continue;
    --inflight_count_;
    ++stats_.landed;
    if (cb) cb();
    ++fired;
  }
  return fired;
}

int XferEngine::poll(int chunk_budget) {
  assert(self() == owner_ && "XferEngine polled off its rank's thread");
  int work = 0;
  const std::size_t n = channels_.size();
  if (n == 0) return work;
  // Channels a callback adds during this poll (index >= n) wait for the
  // next one. The budget goes round-robin, one piece at a time, to
  // channels that still have work; credits are re-read per piece — each
  // one issued consumes a wire credit (the AM window) and may close the
  // channel.
  while (chunk_budget > 0) {
    bool any = false;
    for (std::size_t k = 0; k < n && chunk_budget > 0; ++k) {
      Channel& ch = *channels_[(rr_ + k) % n];
      if (!can_issue(ch)) continue;
      issue_one_chunk(ch);
      --chunk_budget;
      ++work;
      any = true;
    }
    if (!any) break;
  }
  rr_ = (rr_ + 1) % n;
  // By index: issue/retire callbacks may have created new channels.
  for (std::size_t i = 0; i < channels_.size(); ++i)
    work += retire_landed(*channels_[i]);
  return work;
}

void XferEngine::drain_copies() {
  assert(self() == owner_ && "XferEngine drained off its rank's thread");
  // A channel out of credits stops: its entries must wait for acks, which
  // only arrive through the caller's AM polling — the barrier-entry loop
  // in upcxx re-invokes until copies_pending() clears.
  for (std::size_t i = 0; i < channels_.size(); ++i) {
    Channel& ch = *channels_[i];
    while (can_issue(ch)) issue_one_chunk(ch);
    retire_landed(ch);
  }
}

bool XferEngine::idle() const { return inflight_count_ == 0; }

std::size_t XferEngine::inflight() const { return inflight_count_; }

bool XferEngine::copies_pending() const { return active_count_ != 0; }

std::size_t XferEngine::pending_chunks(int target) const {
  for (const auto& ch : channels_) {
    if (ch->target != target) continue;
    std::size_t n = 0;
    for (const Xfer* x = ch->issue; x; x = x->next) ++n;
    return n;
  }
  return 0;
}

}  // namespace gex
