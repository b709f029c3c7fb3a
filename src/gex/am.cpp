#include "gex/am.hpp"

#include <cassert>
#include <cstring>

#include "arch/timer.hpp"
#include "gex/runtime.hpp"
#include "gex/wait.hpp"

namespace gex {

AmEngine::AmEngine(Arena* arena, int my_rank)
    : arena_(arena),
      me_(my_rank),
      owner_(self()),
      transport_(make_transport(arena, my_rank)),
      eager_max_(arena->config().eager_max),
      stamp_send_ns_(arena->config().sim_latency_ns > 0) {}

AmEngine::~AmEngine() = default;

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
    assert(n <= inline_max() &&
           "payload exceeds one wire record on a non-shared-memory "
           "transport");
    reserve_record(sb);
    return sb;
  }
  // Rendezvous: payload goes to the shared heap; the ring only carries a
  // descriptor. A failed peer may pin the blocks this waits for.
  sb.rendezvous = true;
  if (!retry([&] {
        sb.data = arena_->heap().allocate(n);
        return sb.data != nullptr;
      }))
    black_hole(sb);
  return sb;
}

AmEngine::SendBuf AmEngine::prepare_frame(int target, HandlerIdx h,
                                          std::size_t n) {
  assert(self() == owner_ && "AmEngine used off its rank's thread");
  assert(target >= 0 && target < arena_->nranks());
  assert(n <= inline_max() && "frame exceeds one ring record");
  SendBuf sb;
  sb.size = n;
  sb.target = target;
  sb.handler = h;
  sb.frame = true;
  reserve_record(sb);
  return sb;
}

void AmEngine::reserve_record(SendBuf& sb) {
  const bool reserved = retry([&] {
    sb.ticket =
        transport_->try_reserve(sb.target, sizeof(WireHeader) + sb.size);
    return sb.ticket.payload != nullptr;
  });
  if (!reserved) {
    black_hole(sb);
    return;
  }
  sb.data = static_cast<std::byte*>(sb.ticket.payload) + sizeof(WireHeader);
}

template <class Try>
bool AmEngine::retry(Try attempt) {
  // Target ring (or the shared heap) full: drain our own inbox so a cyclic
  // backlog cannot deadlock, then try again. A failed job gets no more
  // tries: the rank that would make room may be the dead one.
  return attempt() || wait_until(attempt, [this] {
           ++stats_.send_stalls;
           return poll();
         });
}

void AmEngine::black_hole(SendBuf& sb) {
  // At least one byte, so .data is never null.
  if (discard_.size() <= sb.size) discard_.resize(sb.size + 1);
  sb.data = discard_.data();
  sb.discard = true;
}

void AmEngine::commit(SendBuf& sb) {
  if (sb.discard) return;
  if (!sb.rendezvous) {
    auto* wh = reinterpret_cast<WireHeader*>(
        static_cast<std::byte*>(sb.data) - sizeof(WireHeader));
    wh->handler = sb.handler;
    wh->flags = sb.frame ? kWireFrame : std::uint16_t{0};
    wh->src = me_;
    wh->send_ns = stamp_send_ns_ ? arch::now_ns() : 0;
    transport_->commit(sb.ticket);
    ++(sb.frame ? stats_.sent_frames : stats_.sent_eager);
    return;
  }
  Transport::Ticket t;
  if (!retry([&] {
        t = transport_->try_reserve(sb.target,
                                    sizeof(WireHeader) + sizeof(RdzvDesc));
        return t.payload != nullptr;
      })) {
    arena_->heap().deallocate(sb.data);
    return;
  }
  auto* wh = static_cast<WireHeader*>(t.payload);
  wh->handler = sb.handler;
  wh->flags = kWireRendezvous;
  wh->src = me_;
  wh->send_ns = stamp_send_ns_ ? arch::now_ns() : 0;
  auto* d = reinterpret_cast<RdzvDesc*>(wh + 1);
  d->buf = arena_->segmap().encode(sb.data);
  d->size = sb.size;
  transport_->commit(t);
  ++stats_.sent_rendezvous;
}

void AmEngine::send(int target, HandlerIdx h, const void* data,
                    std::size_t n) {
  SendBuf sb = prepare(target, h, n);
  if (n) std::memcpy(sb.data, data, n);
  commit(sb);
}

int AmEngine::poll(int max_msgs) {
  assert(self() == owner_ && "AmEngine polled off its rank's thread");
  int handled = 0;
  while (handled < max_msgs) {
    int delivered = 1;
    auto visit = [&](void* rec, std::size_t rec_size) {
      auto* wh = static_cast<WireHeader*>(rec);
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
        return;
      }
      cx.data = wh + 1;
      cx.size = rec_size - sizeof(WireHeader);
      if (wh->flags & kWireFrame) {
        // Stats stay in message units: count the sub-messages (headers
        // only, cache-hot) before the handler consumes the frame.
        auto* frame = static_cast<const std::byte*>(cx.data);
        delivered = 0;
        for (std::size_t off = 0; off + sizeof(FrameMsgHeader) <= cx.size;
             ++delivered) {
          const auto* mh = reinterpret_cast<const FrameMsgHeader*>(frame + off);
          off += sizeof(FrameMsgHeader) + arch::align_up(mh->size, kFrameAlign);
        }
        ++stats_.received_frames;
      }
      am_handler_at(wh->handler)(cx);
    };
    bool got = transport_->try_consume(
        [](void* rec, std::size_t n, void* cxp) {
          (*static_cast<decltype(visit)*>(cxp))(rec, n);
        },
        &visit);
    if (!got) break;
    handled += delivered;
    stats_.received += static_cast<std::uint64_t>(delivered);
  }
  return handled;
}

}  // namespace gex
