// upcxx::progress_thread — a dedicated communication thread per rank.
//
// The paper (§III) is explicit that the runtime spawns no hidden threads;
// the user balances computation against attentiveness. The classic
// resolution is to dedicate one thread to communication by migrating the
// rank's *master persona* to it, while the primordial thread computes and
// hands communication requests over as LPCs. bench/abl_overlap.cpp and
// examples/progress_thread.cpp used to spell that pattern out by hand;
// this helper packages it:
//
//   upcxx::progress_thread pt;                     // master migrates
//   auto fut = pt.lpc([=] { return upcxx::rput(src, dst, n); });
//   heavy_compute();                               // overlaps the drain
//   fut.wait();
//   pt.stop();                                     // master returns here
//
// The progress loop yields the core only after a progress call that did
// no work (the work_events check future::wait uses) while neither the
// data-motion engine has chunks to move (XferEngine::copies_pending()) nor
// the AM RMA protocol has outstanding requests: rpc traffic keeps it hot,
// and an idle wire still leaves an oversubscribed host's compute thread
// the cycles while the virtual wire clock — which advances on wall time,
// not CPU — runs out.
//
// The constructing thread must hold the master persona (the default state
// inside upcxx::run) and must be the one calling stop(). Between
// construction and stop() it must not initiate communication directly —
// route everything through lpc().
#pragma once

#include <atomic>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "gex/rma_am.hpp"
#include "gex/xfer.hpp"
#include "upcxx/persona.hpp"
#include "upcxx/progress.hpp"

namespace upcxx {

class progress_thread {
 public:
  progress_thread() : master_(&master_persona()) {
    liberate_master_persona();
    thread_ = std::thread([this] {
      persona_scope scope(*master_);
      while (!stop_.load(std::memory_order_acquire)) {
        const std::uint64_t w = detail::progress_work_counter();
        progress();
        if (detail::progress_work_counter() == w && !busy())
          std::this_thread::yield();
      }
      // Final drain so late acks and teardown traffic don't linger.
      for (int i = 0; i < 64; ++i) progress();
    });
  }

  ~progress_thread() {
    if (thread_.joinable()) stop();
  }

  progress_thread(const progress_thread&) = delete;
  progress_thread& operator=(const progress_thread&) = delete;

  // The migrated master persona — the address for manual lpc_ff etc.
  persona& master() { return *master_; }

  // Runs fn on the progress thread (which holds the master persona, hence
  // the right to initiate communication); the returned future is fulfilled
  // back on the calling persona. A future-returning fn is unwrapped on the
  // progress thread first, so `pt.lpc([=]{ return rput(...); }).wait()`
  // waits for the transfer itself.
  template <typename Fn>
  auto lpc(Fn&& fn) {
    return master_->lpc(std::forward<Fn>(fn));
  }

  // Joins the communication thread and re-acquires the master persona on
  // the calling thread, which must be the constructing one.
  void stop() {
    stop_.store(true, std::memory_order_release);
    thread_.join();
    // Re-acquire for the remainder of the SPMD body and teardown. The
    // scope must outlive this helper and the body itself (fini_persona
    // still needs the master), hence the deliberate leak — the real-UPC++
    // idiom is a persona_scope in main() outliving finalize().
    new persona_scope(*master_);
  }

 private:
  // Anything in flight that wants a hot progress loop rather than a yield?
  static bool busy() {
    auto* r = gex::self();
    if (r->xfer && r->xfer->copies_pending()) return true;
    if (r->rma_am && r->rma_am->outstanding() != 0) return true;
    return false;
  }

  persona* master_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// upcxx::progress_pool — progress_thread generalized to N workers
// (default width: Config::progress_threads, i.e. UPCXX_PROGRESS_THREADS).
//
// Worker 0 *is* a progress_thread: it holds the migrated master persona
// and runs the full progress loop, staying the wire's single consumer
// (AmEngine::poll) and the sole drainer of the rank's submit queue (the
// closures in it need the rank context). Workers 1..N-1 are injection
// helpers with two jobs:
//
//   * drain the MPSC wire shards that injector threads (inject.hpp) fill,
//     each owning the shards congruent to its index and stealing the rest
//     when its own slice runs dry;
//   * run XferEngine::issue_pass over a disjoint slice of the engine's
//     channels, pushing queued chunks onto the wire in parallel with
//     worker 0's receive/completion path — per-channel issue locks make
//     this safe, and helper-issued source callbacks park on the landing
//     queue for worker 0 to fire (helpers never run user code).
//
// Helpers pass may_poll=false everywhere, so a full ring makes them yield
// rather than touch the engine's single-consumer receive path — the
// master keeps polling independently, which keeps the stall bounded.
//
// A pool of width 1 degenerates to exactly progress_thread; widths above
// 1 add send-side bandwidth for heavily multi-threaded injection without
// changing any receive-side or completion-side ownership.
//
// Construction/stop discipline matches progress_thread: build on the
// thread holding the master persona, call stop() from that same thread
// before the SPMD body returns.
class progress_pool {
 public:
  explicit progress_pool(int width = 0) {
    // Capture the rank state before worker 0 migrates the master persona
    // away from this thread.
    st_ = &detail::persona();
    int w = width > 0 ? width : st_->rank->arena->config().progress_threads;
    if (w < 1) w = 1;
    pt_.emplace();
    for (int idx = 0, nh = w - 1; idx < nh; ++idx)
      helpers_.emplace_back([this, idx, nh] { helper_loop(idx, nh); });
  }

  ~progress_pool() {
    if (pt_) stop();
  }

  progress_pool(const progress_pool&) = delete;
  progress_pool& operator=(const progress_pool&) = delete;

  // The migrated master persona (worker 0's).
  persona& master() { return pt_->master(); }

  // Runs fn on worker 0 (the master-persona holder); see
  // progress_thread::lpc.
  template <typename Fn>
  auto lpc(Fn&& fn) {
    return pt_->lpc(std::forward<Fn>(fn));
  }

  // Stops helpers first (they only move already-submitted injector
  // traffic), then worker 0 — which re-acquires the master persona on the
  // calling thread, exactly as progress_thread::stop does.
  void stop() {
    stop_.store(true, std::memory_order_release);
    for (auto& t : helpers_) t.join();
    helpers_.clear();
    pt_->stop();
    pt_.reset();
  }

 private:
  void helper_loop(int idx, int nh) {
    auto& st = *st_;
    while (!stop_.load(std::memory_order_acquire)) {
      int moved = 0;
      // Own slice first — keeps shard-lock contention low when every
      // helper has work — then steal across the whole set.
      for (std::uint32_t s = 0; s < detail::PersonaState::kWireShards; ++s)
        if (static_cast<int>(s % static_cast<std::uint32_t>(nh)) == idx)
          moved += detail::drain_wire_shard(st, s);
      if (moved == 0)
        for (std::uint32_t s = 0; s < detail::PersonaState::kWireShards; ++s)
          moved += detail::drain_wire_shard(st, s);
      // Chunk issue for this helper's channel slice: try-locks only, so a
      // channel worker 0 (or another helper) holds is simply skipped.
      if (st.rank && st.rank->xfer)
        moved += st.rank->xfer->issue_pass(
            8, static_cast<std::size_t>(idx), static_cast<std::size_t>(nh));
      if (moved == 0) std::this_thread::yield();
    }
  }

  detail::PersonaState* st_ = nullptr;
  std::optional<progress_thread> pt_;
  std::atomic<bool> stop_{false};
  std::vector<std::thread> helpers_;
};

}  // namespace upcxx
