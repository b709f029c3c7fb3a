#include "gex/agg.hpp"

#include <algorithm>
#include <cstring>

namespace gex {

Aggregator::Aggregator(AmEngine* eng)
    : eng_(eng), bufs_(eng->arena().nranks()) {
  // A frame must fit one ring record whatever the ring size is.
  max_bytes_ = std::min(kMaxFrameBytes, eng->inline_max());
  // Round down to the frame alignment so a maximal message's aligned
  // footprint (header + padded payload) never exceeds the staging buffer.
  max_bytes_ &= ~(kFrameAlign - 1);
  max_msg_bytes_ =
      max_bytes_ > sizeof(FrameMsgHeader) ? max_bytes_ - sizeof(FrameMsgHeader)
                                          : 0;
  enabled_ = eng->arena().config().agg_enabled && max_msg_bytes_ > 0;
}

void* Aggregator::put(int target, HandlerIdx h, std::size_t n) {
  assert(n <= max_msg_bytes_ && "payload too large for a frame slot");
  Buf& b = bufs_[target];
  const std::size_t need =
      sizeof(FrameMsgHeader) + arch::align_up(n, kFrameAlign);
  if (b.msgs != 0 && b.handler != h) {
    flush_buf(target, b);  // a frame names one handler
  } else if (b.used + need > max_bytes_ || b.msgs >= kMaxFrameMsgs) {
    if (flush_buf(target, b)) ++stats_.flushes_capacity;
  }
  if (!b.bytes) b.bytes = std::make_unique<std::byte[]>(max_bytes_);
  b.handler = h;
  auto* mh = reinterpret_cast<FrameMsgHeader*>(b.bytes.get() + b.used);
  mh->size = n;
  b.used += need;
  ++b.msgs;
  ++stats_.msgs;
  return mh + 1;
}

bool Aggregator::flush_buf(int target, Buf& b) {
  if (b.used == 0) return false;
  auto sb = eng_->prepare_frame(target, b.handler, b.used);
  std::memcpy(sb.data, b.bytes.get(), b.used);
  eng_->commit(sb);
  b.used = 0;
  b.msgs = 0;
  ++stats_.frames;
  return true;
}

bool Aggregator::flush(int target) {
  if (flush_buf(target, bufs_[target])) {
    ++stats_.flushes_explicit;
    return true;
  }
  return false;
}

int Aggregator::flush_all() {
  int sent = 0;
  for (int t = 0; t < static_cast<int>(bufs_.size()); ++t)
    if (flush_buf(t, bufs_[t])) {
      ++stats_.flushes_explicit;
      ++sent;
    }
  return sent;
}

}  // namespace gex
