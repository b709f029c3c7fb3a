#include "gex/xfer.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "arch/atomics.hpp"
#include "arch/timer.hpp"
#include "gex/runtime.hpp"

namespace gex {

namespace {

// Copies the runs `from`, in order, into the runs `to` (equal totals).
void copy_runs(const std::vector<XferEngine::LocalFrag>& from,
               const std::vector<XferEngine::LocalFrag>& to) {
  std::size_t i = 0, off = 0;  // cursor in `from`
  for (const auto& d : to) {
    for (std::size_t done = 0; done < d.bytes;) {
      const std::size_t n = std::min(d.bytes - done, from[i].bytes - off);
      if (n)
        std::memcpy(static_cast<std::byte*>(d.ptr) + done,
                    static_cast<const std::byte*>(from[i].ptr) + off, n);
      done += n;
      off += n;
      if (off == from[i].bytes) {
        ++i;
        off = 0;
      }
    }
  }
}

}  // namespace

XferEngine::XferEngine(std::size_t chunk_bytes, double bw_gbps)
    : chunk_bytes_(chunk_bytes ? chunk_bytes : std::size_t{256} << 10),
      bw_gbps_(bw_gbps > 0 ? bw_gbps : 0),
      // 1 GB/s == 1e9 bytes/s == 1 byte/ns, so ns-per-byte is 1/gbps.
      ns_per_byte_(bw_gbps > 0 ? 1.0 / bw_gbps : 0),
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

XferEngine::Xfer& XferEngine::enqueue(int target) {
  assert(self() == owner_ && "XferEngine used off its rank's thread");
  Xfer* x;
  if (free_.empty()) {
    nodes_.push_back(std::make_unique<Xfer>());
    x = nodes_.back().get();
  } else {
    x = free_.back();
    free_.pop_back();
  }
  ++active_count_;
  ++inflight_count_;
  arch::relaxed_inc(stats_.submitted);
  arch::relaxed_max(stats_.max_inflight, inflight_count_);
  Channel& ch = channel(target);
  (ch.tail ? ch.tail->next : ch.head) = x;
  ch.tail = x;
  if (!ch.issue) ch.issue = x;
  return *x;
}

void XferEngine::submit(int target, void* dst, const void* src,
                        std::size_t bytes, Callback on_source,
                        Callback on_landed, bool is_get,
                        std::uint64_t extra_landing_ns) {
  assert((bytes == 0 || (dst && src)) && "null endpoint on a live transfer");
  Xfer& x = enqueue(target);
  x.dst = static_cast<std::byte*>(dst);
  x.src = static_cast<const std::byte*>(src);
  x.bytes = bytes;
  x.is_get = is_get;
  x.on_source = std::move(on_source);
  x.on_landed = std::move(on_landed);
  x.extra_landing_ns = extra_landing_ns;
}

void XferEngine::submit_runs(int target, std::vector<Frag> remote,
                             std::vector<LocalFrag> local, Callback on_source,
                             Callback on_landed, bool is_get) {
  assert(wire_ && "run entries need an installed wire");
  std::size_t bytes = 0;
  for (const Frag& f : remote) bytes += static_cast<std::size_t>(f.bytes);
  Xfer* x = nullptr;
  const auto next_entry = [&] {
    x = &enqueue(target);
    x->is_get = is_get;
    x->runs = true;
  };
  if (bytes + remote.size() * sizeof(Frag) <= chunk_bytes_) {
    next_entry();
    x->bytes = bytes;
    x->remote = std::move(remote);
    x->local = std::move(local);
  } else {
    // More than one piece: cut both lists at the same byte offsets. Each
    // entry takes remote runs — each costing its descriptor — until the
    // chunk is spent, splitting the run that straddles the boundary, then
    // as many bytes of local runs. chunk_bytes_ >= 256 leaves every entry
    // room for at least one descriptor and a byte.
    std::size_t li = 0, loff = 0;  // cursor in `local`
    for (std::size_t ri = 0, roff = 0; ri < remote.size();) {
      next_entry();
      for (std::size_t room = chunk_bytes_;
           ri < remote.size() && room > sizeof(Frag);) {
        room -= sizeof(Frag);
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
    }
  }
  // The last entry completes the list: it issues after, and retires no
  // earlier than, every entry before it.
  x->on_source = std::move(on_source);
  x->on_landed = std::move(on_landed);
}

void XferEngine::issue_one_chunk(Channel& ch) {
  Xfer& x = *ch.issue;
  const std::size_t take =
      x.runs ? x.bytes : std::min(chunk_bytes_, x.bytes - x.off);
  if (x.runs || take) {
    if (x.runs && ch.own) {
      // Own rank: the remote runs are this rank's own addresses.
      std::vector<LocalFrag> mine;
      mine.reserve(x.remote.size());
      for (const Frag& f : x.remote)
        mine.push_back(
            {reinterpret_cast<void*>(static_cast<std::uintptr_t>(f.addr)),
             static_cast<std::size_t>(f.bytes)});
      if (x.is_get)
        copy_runs(mine, x.local);
      else
        copy_runs(x.local, mine);
    } else if (!wire_ || ch.own) {
      std::memcpy(x.dst + x.off, x.src + x.off, take);
    } else {
      // Each wire piece carries a pending-ack token; the transfer retires
      // only once every token has been returned. The wire may complete
      // synchronously (done before put returns), so the counter is bumped
      // first. The node never moves while queued, and a submit reached
      // from inside the wire call appends behind it.
      ++x.unacked;
      Callback done = [px = &x] { --px->unacked; };
      if (x.runs) {
        if (x.is_get)
          wire_->get(ch.target, x.remote.data(), x.remote.size(),
                     std::move(x.local), std::move(done));
        else
          wire_->put(ch.target, x.remote.data(), x.remote.size(),
                     x.local.data(), x.local.size(), std::move(done));
      } else {
        // One run each side: the remote run is the side the transfer does
        // not land locally.
        std::byte* mine = x.is_get ? x.dst + x.off
                                   : const_cast<std::byte*>(x.src + x.off);
        const std::byte* theirs = x.is_get ? x.src + x.off : x.dst + x.off;
        const Frag r{reinterpret_cast<std::uintptr_t>(theirs), take};
        if (x.is_get) {
          wire_->get(ch.target, &r, 1, {LocalFrag{mine, take}},
                     std::move(done));
        } else {
          const LocalFrag l{mine, take};
          wire_->put(ch.target, &r, 1, &l, 1, std::move(done));
        }
      }
    }
    x.off += take;
    arch::relaxed_add(stats_.bytes_copied, take);
  }
  arch::relaxed_inc(stats_.chunks_copied);
  if (ns_per_byte_ > 0) {
    // Virtual wire clock (per link): the wire starts this chunk when it
    // frees up (or now, if it has been idle) and holds it for bytes/bw.
    const std::uint64_t now = arch::now_ns();
    ch.wire_free_ns_ = std::max(ch.wire_free_ns_, now) +
                       static_cast<std::uint64_t>(take * ns_per_byte_);
  }
  if (x.off == x.bytes) {
    // Last byte read out of the source: the initiator may reuse it.
    x.landed_due_ns = ns_per_byte_ > 0 ? ch.wire_free_ns_ : 0;
    if (x.extra_landing_ns)
      x.landed_due_ns = std::max(x.landed_due_ns, arch::now_ns()) +
                        x.extra_landing_ns;
    ch.issue = x.next;
    --active_count_;
    if (Callback cb = std::move(x.on_source)) cb();
  }
}

int XferEngine::retire_landed(Channel& ch) {
  // Due times are monotone per channel (its wire clock only advances) and
  // acks return in issue order, so the head check suffices. Each callback
  // runs after its entry left the queue: it may submit new transfers or
  // re-enter poll.
  int fired = 0;
  while (ch.head && ch.head != ch.issue) {
    Xfer& head = *ch.head;
    if (head.unacked != 0) break;
    if (head.landed_due_ns > arch::now_ns()) break;
    Callback cb = std::move(head.on_landed);
    ch.head = head.next;
    if (!ch.head) ch.tail = nullptr;
    head = Xfer{};
    free_.push_back(&head);
    --inflight_count_;
    arch::relaxed_inc(stats_.landed);
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

void XferEngine::drain_all() {
  while (!idle()) poll(1 << 20);
}

bool XferEngine::idle() const { return inflight_count_ == 0; }

std::size_t XferEngine::inflight() const { return inflight_count_; }

bool XferEngine::copies_pending() const { return active_count_ != 0; }

std::size_t XferEngine::pending_chunks(int target) const {
  for (const auto& ch : channels_) {
    if (ch->target != target) continue;
    std::size_t n = 0;
    for (const Xfer* x = ch->issue; x; x = x->next)
      n += x->runs ? 1 : (x->bytes - x->off + chunk_bytes_ - 1) / chunk_bytes_;
    return n;
  }
  return 0;
}

}  // namespace gex
