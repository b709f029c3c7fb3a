#include "gex/am.hpp"

#include <atomic>
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <new>
#include <thread>

#include "arch/atomics.hpp"
#include "arch/timer.hpp"
#include "gex/agg.hpp"
#include "gex/runtime.hpp"

namespace gex {

namespace {

// Refcounted frame buffer: poll() copies a frame out of the ring into one of
// these; every sub-message handler that adopt_frame()s holds a reference.
// The count is atomic because the master persona (and with it the right to
// run the deferred dispatches) may migrate to another thread before the
// last release.
struct FrameBuf {
  std::atomic<std::uint32_t> refs;
  std::uint32_t pad;  // keeps payload() 8-aligned (malloc is 16-aligned):
                      // sub-message bodies hold 8-byte-aligned serialized
                      // data and are read in place, never re-staged
  std::byte* payload() { return reinterpret_cast<std::byte*>(this + 1); }
};
static_assert(sizeof(FrameBuf) % 8 == 0);

}  // namespace

void* AmContext::adopt_frame() {
  assert(in_frame && frame && "adopt_frame on a non-frame message");
  static_cast<FrameBuf*>(frame)->refs.fetch_add(1, std::memory_order_relaxed);
  return frame;
}

AmEngine::AmEngine(Arena* arena, int my_rank)
    : arena_(arena),
      me_(my_rank),
      owner_(self()),
      transport_(make_transport(arena, my_rank)),
      eager_max_(arena->config().eager_max),
      stamp_send_ns_(arena->config().sim_latency_ns > 0) {}

AmEngine::~AmEngine() = default;

void release_frame(void* handle) {
  auto* fb = static_cast<FrameBuf*>(handle);
  if (fb->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    fb->~FrameBuf();
    std::free(fb);
  }
}

AmEngine::SendBuf AmEngine::prepare(int target, HandlerIdx h,
                                    std::size_t n) {
  assert(self() == owner_ && "AmEngine used off its rank's thread");
  assert(target >= 0 && target < arena_->nranks());
  SendBuf sb;
  sb.size = n;
  sb.target = target;
  sb.handler = h;
  // Rendezvous stages the payload in the shared heap and ships only a
  // descriptor — meaningless when the peer cannot read our memory, so on
  // such transports (socket) every payload goes inline, whatever
  // eager_max says. Callers above this layer cap themselves at
  // inline_max(); the assert catches the ones that forget.
  if (n <= eager_max_ || !transport_->shared_memory()) {
    assert(sizeof(WireHeader) + n <=
               transport_->max_record_payload() &&
           "payload exceeds one wire record on a non-shared-memory "
           "transport");
    for (;;) {
      auto t = transport_->try_reserve(target, sizeof(WireHeader) + n);
      if (t.payload) {
        sb.ticket = t;
        sb.data = static_cast<std::byte*>(t.payload) + sizeof(WireHeader);
        return sb;
      }
      // Target ring full: drain our own inbox so a cyclic backlog cannot
      // deadlock, then retry. Yield when the drain found nothing — on an
      // oversubscribed host the consumer needs the core to make room.
      arch::relaxed_inc(stats_.send_stalls);
      if (poll() == 0) std::this_thread::yield();
      arch::cpu_relax();
    }
  }
  // Rendezvous: payload goes to the shared heap; the ring only carries a
  // descriptor.
  sb.rendezvous = true;
  for (;;) {
    void* buf = arena_->heap().allocate(n);
    if (buf) {
      sb.data = buf;
      return sb;
    }
    arch::relaxed_inc(stats_.send_stalls);
    if (poll() == 0) std::this_thread::yield();
    arch::cpu_relax();
  }
}

AmEngine::SendBuf AmEngine::prepare_frame(int target, std::size_t n,
                                          HandlerIdx uniform_handler,
                                          bool uniform) {
  assert(target >= 0 && target < arena_->nranks());
  assert(n <= max_frame_payload() && "frame exceeds one ring record");
  SendBuf sb;
  sb.size = n;
  sb.target = target;
  sb.frame = true;
  sb.uniform = uniform;
  sb.handler = uniform_handler;
  for (;;) {
    auto t = transport_->try_reserve(target, sizeof(WireHeader) + n);
    if (t.payload) {
      sb.ticket = t;
      sb.data = static_cast<std::byte*>(t.payload) + sizeof(WireHeader);
      return sb;
    }
    arch::relaxed_inc(stats_.send_stalls);
    if (poll() == 0) std::this_thread::yield();
    arch::cpu_relax();
  }
}

void AmEngine::commit(SendBuf& sb) {
  if (!sb.rendezvous) {
    auto* wh = reinterpret_cast<WireHeader*>(
        static_cast<std::byte*>(sb.data) - sizeof(WireHeader));
    wh->handler = sb.handler;
    wh->flags = sb.frame ? (kWireFrame | (sb.uniform ? kWireUniform : 0))
                         : std::uint16_t{0};
    wh->src = me_;
    wh->send_ns = stamp_send_ns_ ? arch::now_ns() : 0;
    transport_->commit(sb.ticket);
    if (sb.frame)
      arch::relaxed_inc(stats_.sent_frames);
    else
      arch::relaxed_inc(stats_.sent_eager);
    return;
  }
  for (;;) {
    auto t = transport_->try_reserve(sb.target,
                                     sizeof(WireHeader) + sizeof(RdzvDesc));
    if (t.payload) {
      auto* wh = static_cast<WireHeader*>(t.payload);
      wh->handler = sb.handler;
      wh->flags = kWireRendezvous;
      wh->src = me_;
      wh->send_ns = stamp_send_ns_ ? arch::now_ns() : 0;
      auto* d = reinterpret_cast<RdzvDesc*>(wh + 1);
      d->buf = arena_->segmap().encode(sb.data);
      d->size = sb.size;
      transport_->commit(t);
      arch::relaxed_inc(stats_.sent_rendezvous);
      return;
    }
    arch::relaxed_inc(stats_.send_stalls);
    if (poll() == 0) std::this_thread::yield();
    arch::cpu_relax();
  }
}

void AmEngine::send(int target, HandlerIdx h, const void* data,
                    std::size_t n) {
  SendBuf sb = prepare(target, h, n);
  if (n) std::memcpy(sb.data, data, n);
  commit(sb);
}

namespace {
// Wire prefix of an exchange() contribution; the value bytes follow.
struct ExchHdr {
  std::uint64_t key;
};
}  // namespace

void AmEngine::on_exchange(AmContext& cx) {
  ExchHdr h;
  std::memcpy(&h, cx.data, sizeof h);
  auto& slot = cx.engine->exchanges_[h.key][cx.src];
  const auto* val = static_cast<const std::byte*>(cx.data) + sizeof h;
  slot.assign(val, val + (cx.size - sizeof h));
}

void AmEngine::exchange(std::uint64_t key, const int* group, std::size_t n,
                        const void* mine, std::size_t bytes, void* out) {
  const HandlerIdx h = am_handler<&AmEngine::on_exchange>();
  std::size_t expected = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (group[i] == me_) continue;
    ++expected;
    SendBuf sb = prepare(group[i], h, sizeof(ExchHdr) + bytes);
    const ExchHdr eh{key};
    std::memcpy(sb.data, &eh, sizeof eh);
    if (bytes)
      std::memcpy(static_cast<std::byte*>(sb.data) + sizeof eh, mine, bytes);
    commit(sb);
  }
  auto& err = arena_->control().error_flag.value;
  for (;;) {
    // Re-find every iteration: poll()'s handlers mutate the map.
    const auto it = exchanges_.find(key);
    if (it != exchanges_.end() && it->second.size() >= expected) break;
    if (err.load(std::memory_order_acquire) != 0) break;
    // Frames delivered by poll() below only *enqueue* their dispatch (rpc
    // execution, reply staging) with the upper layer, and replies it has
    // already staged sit in this rank's Aggregator — both normally advance
    // only in user-level progress. While blocked here nothing else runs
    // that layer, and a peer waiting on one of our rpc replies never
    // reaches its own exchange(), deadlocking the collective. Drive the
    // upper layer's progress ourselves (or at least the flush when no
    // hook is installed, e.g. under bare-minimpi programs).
    if (Rank* r = self(); r != nullptr) {
      if (r->progress_hook)
        r->progress_hook();
      else if (r->agg != nullptr)
        r->agg->flush_all();
    }
    if (poll() == 0) std::this_thread::yield();
  }
  auto* dst = static_cast<std::byte*>(out);
  const auto it = exchanges_.find(key);
  for (std::size_t i = 0; i < n; ++i, dst += bytes) {
    if (group[i] == me_) {
      std::memcpy(dst, mine, bytes);
      continue;
    }
    if (it != exchanges_.end()) {
      const auto vi = it->second.find(group[i]);
      if (vi != it->second.end() && vi->second.size() == bytes) {
        std::memcpy(dst, vi->second.data(), bytes);
        continue;
      }
    }
    std::memset(dst, 0, bytes);  // failed job: zero-fill the missing slot
  }
  exchanges_.erase(key);
}

int AmEngine::poll(int max_msgs) {
  assert(self() == owner_ && "AmEngine polled off its rank's thread");
  int handled = 0;
  while (handled < max_msgs) {
    int delivered = 0;
    auto visit = [&](void* rec, std::size_t rec_size) {
      auto* wh = static_cast<WireHeader*>(rec);
      if (wh->flags & kWireFrame) {
        // Copy the whole frame out of the ring once; sub-messages share the
        // refcounted buffer (handlers adopt_frame() instead of copying).
        const std::size_t fsize = rec_size - sizeof(WireHeader);
        auto* fb = static_cast<FrameBuf*>(
            std::malloc(sizeof(FrameBuf) + fsize));
        assert(fb && "frame staging allocation failed");
        ::new (&fb->refs) std::atomic<std::uint32_t>(1);
        std::memcpy(fb->payload(), wh + 1, fsize);
        if ((wh->flags & kWireUniform) && sink_ &&
            wh->handler == sink_handler_) {
          // Whole-frame sink delivery: one call covers every sub-message.
          // Count them first (headers only, cache-hot) so stats stay in
          // message units.
          for (std::size_t off = 0; off + sizeof(FrameMsgHeader) <= fsize;) {
            auto* mh =
                reinterpret_cast<FrameMsgHeader*>(fb->payload() + off);
            ++delivered;
            off += sizeof(FrameMsgHeader) +
                   arch::align_up(mh->size, kFrameAlign);
          }
          AmContext cx;
          cx.engine = this;
          cx.src = wh->src;
          cx.send_ns = wh->send_ns;
          cx.data = fb->payload();
          cx.size = fsize;
          cx.in_frame = true;
          cx.frame = fb;
          sink_(cx);
          release_frame(fb);
          arch::relaxed_inc(stats_.received_frames);
          return;
        }
        std::size_t off = 0;
        while (off + sizeof(FrameMsgHeader) <= fsize) {
          auto* mh =
              reinterpret_cast<FrameMsgHeader*>(fb->payload() + off);
          AmContext cx;
          cx.engine = this;
          cx.src = wh->src;
          cx.send_ns = wh->send_ns;
          cx.data = mh + 1;
          cx.size = mh->size;
          cx.in_frame = true;
          cx.frame = fb;
          am_handler_at(mh->handler)(cx);
          ++delivered;
          off += sizeof(FrameMsgHeader) +
                 arch::align_up(mh->size, kFrameAlign);
        }
        release_frame(fb);  // drop poll's own reference
        arch::relaxed_inc(stats_.received_frames);
        return;
      }
      AmContext cx;
      cx.engine = this;
      cx.src = wh->src;
      cx.send_ns = wh->send_ns;
      if (wh->flags & kWireRendezvous) {
        assert(transport_->shared_memory() &&
               "rendezvous record on a transport whose peers share no "
               "memory");
        auto* d = reinterpret_cast<RdzvDesc*>(wh + 1);
        void* buf = arena_->segmap().decode(d->buf);
        cx.data = buf;
        cx.size = static_cast<std::size_t>(d->size);
        cx.is_rendezvous = true;
        am_handler_at(wh->handler)(cx);
        if (!cx.adopted) arena_->heap().deallocate(buf);
      } else {
        cx.data = wh + 1;
        cx.size = rec_size - sizeof(WireHeader);
        am_handler_at(wh->handler)(cx);
      }
      delivered = 1;
    };
    bool got = transport_->try_consume(
        [](void* rec, std::size_t n, void* cxp) {
          (*static_cast<decltype(visit)*>(cxp))(rec, n);
        },
        &visit);
    if (!got) break;
    handled += delivered;
    arch::relaxed_add(stats_.received, static_cast<std::uint64_t>(delivered));
  }
  return handled;
}

}  // namespace gex
