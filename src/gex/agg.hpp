// Per-target aggregation of small active messages into multi-message frames.
//
// Fine-grained AM traffic (the paper's DHT and eadd patterns, Fig 4) is
// bounded by per-message ring-transaction overhead, not bandwidth. The
// aggregator amortizes that overhead: messages are staged in rank-private
// memory — a bump-pointer write, no locks, no shared-memory traffic — and
// reach the target's ring as one frame record carrying many messages, all
// for the one handler the frame's wire header names (the handler walks the
// packed [FrameMsgHeader][payload] region itself).
//
// Flush triggers:
//   * staged bytes would exceed kMaxFrameBytes (clamped to one ring record)
//   * staged message count reaches kMaxFrameMsgs
//   * a message for another handler than the staged frame's
//   * explicit flush: upcxx user-level progress, barrier entry, teardown.
//
// The explicit flushes preserve the paper's attentiveness model: a message
// never outlives its sender's current progress window, so any rank spinning
// on user-level progress drains its own staging buffers as a side effect.
// Latency-sensitive traffic (collective control, remote completion
// notifications, AM atomics) bypasses the aggregator entirely via the
// engine's immediate path.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "gex/am.hpp"

namespace gex {

class Aggregator {
 public:
  // Frame caps: at most this many staged bytes (clamped to the engine's
  // inline_max, so a frame is one ring record) and messages per frame.
  static constexpr std::size_t kMaxFrameBytes = 16 << 10;
  static constexpr std::uint32_t kMaxFrameMsgs = 64;

  // Enabled unless the engine's arena config clears agg_enabled.
  explicit Aggregator(AmEngine* eng);

  bool enabled() const { return enabled_; }

  // Largest single payload that may ride a frame; bigger messages must use
  // the engine's direct path.
  std::size_t max_msg_bytes() const { return max_msg_bytes_; }

  // Aggregation pays an extra staging copy, which only amortizes when many
  // messages share a frame; callers should route payloads above this cutoff
  // (an eighth of a frame) to the direct path, where bandwidth — not
  // per-message overhead — is already the bound.
  std::size_t small_msg_cutoff() const { return max_bytes_ / 8; }

  // Stages one message to `target` in a frame for handler `h`; returns the
  // slot to write `n` payload bytes into. The write must complete before
  // the next aggregator or progress call (a later put may flush the
  // buffer). May flush `target` first — to make room, or because its
  // staged frame names another handler — which can spin on a full ring
  // and poll the caller's inbox (same backpressure contract as
  // AmEngine::send).
  void* put(int target, HandlerIdx h, std::size_t n);

  // Sends `target`'s staged messages as one frame; false if nothing staged.
  bool flush(int target);

  // Flushes every target with staged traffic; returns frames sent.
  int flush_all();

  std::uint32_t pending_msgs(int target) const { return bufs_[target].msgs; }

  struct Stats {
    std::uint64_t msgs = 0;              // messages staged
    std::uint64_t frames = 0;            // frames flushed
    std::uint64_t flushes_capacity = 0;  // forced by size/count caps
    std::uint64_t flushes_explicit = 0;  // flush()/flush_all() with traffic
  };
  const Stats& stats() const { return stats_; }

 private:
  struct Buf {
    std::unique_ptr<std::byte[]> bytes;  // allocated on first use
    std::size_t used = 0;
    std::uint32_t msgs = 0;
    HandlerIdx handler = 0;  // the staged frame's handler
  };

  bool flush_buf(int target, Buf& b);

  AmEngine* eng_;
  std::vector<Buf> bufs_;  // one per target rank
  std::size_t max_bytes_;
  std::size_t max_msg_bytes_;
  bool enabled_;
  Stats stats_;
};

}  // namespace gex
