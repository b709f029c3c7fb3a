#include "gex/xfer.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <limits>

#include "arch/atomics.hpp"
#include "arch/timer.hpp"
#include "gex/runtime.hpp"

namespace gex {

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
  channels_.back()->ns_per_byte = ns_per_byte_;
  return *channels_.back();
}

std::size_t XferEngine::channel_count() const { return channels_.size(); }

void XferEngine::set_link_bw_gbps(int target, double gbps) {
  channel(target).ns_per_byte = gbps > 0 ? 1.0 / gbps : 0;
}

void XferEngine::submit(int target, void* dst, const void* src,
                        std::size_t bytes, Callback on_source,
                        Callback on_landed, bool is_get,
                        std::uint64_t extra_landing_ns) {
  assert(self() == owner_ && "XferEngine used off its rank's thread");
  assert((bytes == 0 || (dst && src)) && "null endpoint on a live transfer");
  ++active_count_;
  ++inflight_count_;
  arch::relaxed_inc(stats_.submitted);
  arch::relaxed_max(stats_.max_inflight, inflight_count_);
  channel(target).active_.push_back(
      Xfer{static_cast<std::byte*>(dst), static_cast<const std::byte*>(src),
           bytes, 0, is_get, std::move(on_source), std::move(on_landed),
           extra_landing_ns, 0, nullptr});
}

void XferEngine::issue_one_chunk(Channel& ch,
                                 std::vector<Callback>& sources) {
  Xfer& x = ch.active_.front();
  const std::size_t take = std::min(chunk_bytes_, x.bytes - x.off);
  if (take) {
    if (!wire_) {
      std::memcpy(x.dst + x.off, x.src + x.off, take);
    } else {
      // Each wire chunk carries a pending-ack token; the transfer retires
      // only once every token has been returned. The wire may complete
      // synchronously (done before put_chunk returns), so the counter is
      // bumped first. A submit reached from inside the wire call appends
      // to active_, which leaves `x` (its front) in place.
      if (!x.unacked) x.unacked = std::make_shared<std::uint32_t>(0);
      ++*x.unacked;
      Callback done = [u = x.unacked] { --*u; };
      if (x.is_get)
        wire_->get_chunk(ch.target, x.dst + x.off, x.src + x.off, take,
                         std::move(done));
      else
        wire_->put_chunk(ch.target, x.dst + x.off, x.src + x.off, take,
                         std::move(done));
    }
    x.off += take;
    arch::relaxed_add(stats_.bytes_copied, take);
  }
  arch::relaxed_inc(stats_.chunks_copied);
  if (ch.ns_per_byte > 0) {
    // Virtual wire clock (per link): the wire starts this chunk when it
    // frees up (or now, if it has been idle) and holds it for bytes/bw.
    const std::uint64_t now = arch::now_ns();
    ch.wire_free_ns_ = std::max(ch.wire_free_ns_, now) +
                       static_cast<std::uint64_t>(take * ch.ns_per_byte);
  }
  if (x.off == x.bytes) {
    // Last byte read out of the source: the initiator may reuse it.
    if (x.on_source) sources.push_back(std::move(x.on_source));
    x.landed_due_ns = ch.ns_per_byte > 0 ? ch.wire_free_ns_ : 0;
    if (x.extra_landing_ns)
      x.landed_due_ns = std::max(x.landed_due_ns, arch::now_ns()) +
                        x.extra_landing_ns;
    ch.landing_.push_back(std::move(x));
    ch.active_.pop_front();
    --active_count_;
  }
}

int XferEngine::retire_landed(Channel& ch) {
  // Due times are monotone per channel (its wire clock only advances) and
  // acks return in chunk-issue order, so the head check suffices. Each
  // callback runs after its entry left the queue: it may submit new
  // transfers or re-enter poll.
  int fired = 0;
  while (!ch.landing_.empty()) {
    Xfer& head = ch.landing_.front();
    if (head.unacked && *head.unacked != 0) break;
    if (head.landed_due_ns > arch::now_ns()) break;
    Callback cb = std::move(head.on_landed);
    ch.landing_.pop_front();
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
  // Per-poll credit ledger on metered wires (WireOps::credits — the AM
  // wire's adaptive window): how many more chunks each channel may issue
  // this poll. Both passes deal against the same ledger, so budget a
  // throttled channel cannot use flows to the others rather than being
  // burned on a channel whose window is already full. Unmetered wires
  // (the direct wire) skip the ledger entirely — no allocation on the
  // fast path. Channels a callback adds during this poll (index >= n)
  // wait for the next one.
  const bool metered = wire_ && wire_->credits;
  std::vector<int> credit;
  auto credit_of = [&](std::size_t i) -> int {
    if (!metered) return std::numeric_limits<int>::max();
    while (credit.size() <= i)
      credit.push_back(static_cast<int>(std::min<std::uint32_t>(
          wire_->credits(channels_[credit.size()]->target), 1u << 30)));
    return credit[i];
  };
  auto spend_credit = [&](std::size_t i) {
    if (metered) --credit[i];
  };
  std::vector<Callback> sources;
  auto fire_sources = [&] {
    for (auto& cb : sources) {
      cb();
      ++work;
    }
    sources.clear();
  };
  // Pass 1 — bandwidth-proportional quotas: each channel with queued work
  // and a ready wire gets a share of the budget scaled by its link
  // bandwidth (minimum one chunk), so a fast link soaks up the budget a
  // clock-bound capped link cannot convert into delivered bytes. Weights
  // are recomputed per poll: completion callbacks change the channel set.
  if (chunk_budget > 0) {
    double total_weight = 0;
    for (std::size_t i = 0; i < n; ++i) {
      Channel& ch = *channels_[i];
      if (!ch.active_.empty() && wire_ready(ch) && credit_of(i) > 0)
        total_weight += link_weight(ch);
    }
    if (total_weight > 0) {
      const int budget0 = chunk_budget;
      for (std::size_t k = 0; k < n && chunk_budget > 0; ++k) {
        const std::size_t i = (rr_ + k) % n;
        Channel& ch = *channels_[i];
        if (ch.active_.empty() || !wire_ready(ch)) continue;
        int quota = std::max(
            1, static_cast<int>(budget0 * (link_weight(ch) / total_weight)));
        quota = std::min({quota, chunk_budget, credit_of(i)});
        // Re-check readiness per chunk: each issued chunk may consume a
        // wire credit (the AM window) and close the channel mid-quota.
        while (quota > 0 && !ch.active_.empty() && wire_ready(ch)) {
          issue_one_chunk(ch, sources);
          spend_credit(i);
          --quota;
          --chunk_budget;
          ++work;
        }
        fire_sources();
      }
    }
  }
  // Pass 2 — leftover budget (quotas rounded down, or their channels ran
  // dry) goes round-robin one chunk at a time, the pre-quota behavior.
  while (chunk_budget > 0) {
    bool any = false;
    for (std::size_t k = 0; k < n && chunk_budget > 0; ++k) {
      const std::size_t i = (rr_ + k) % n;
      Channel& ch = *channels_[i];
      if (ch.active_.empty() || !wire_ready(ch) || credit_of(i) <= 0)
        continue;
      issue_one_chunk(ch, sources);
      spend_credit(i);
      --chunk_budget;
      ++work;
      any = true;
      fire_sources();
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
  // A not-ready wire stops its channel: the chunks must wait for wire
  // credits, which only arrive through the caller's AM polling — the
  // barrier-entry loop in upcxx re-invokes until copies_pending() clears.
  std::vector<Callback> sources;
  for (std::size_t i = 0; i < channels_.size(); ++i) {
    Channel& ch = *channels_[i];
    while (!ch.active_.empty() && wire_ready(ch))
      issue_one_chunk(ch, sources);
    for (auto& cb : sources) cb();
    sources.clear();
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
    for (const auto& x : ch->active_)
      n += (x.bytes - x.off + chunk_bytes_ - 1) / chunk_bytes_;
    return n;
  }
  return 0;
}

}  // namespace gex
