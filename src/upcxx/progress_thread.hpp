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
// The progress loop is gex::wait_until, the one wait every blocking call
// uses. It yields the core only after a progress round that did no work
// while neither the data-motion engine has chunks to move
// (XferEngine::copies_pending()) nor the AM RMA protocol has outstanding
// requests: rpc traffic keeps it hot, and an idle wire still leaves an
// oversubscribed host's compute thread the cycles while the virtual wire
// clock — which advances on wall time, not CPU — runs out. The loop ends
// at stop() or when the job fails; the handing-off thread's waits then
// throw rank_failed, since they check for failure from any thread.
//
// The constructing thread must hold the master persona (the default state
// inside upcxx::run) and must be the one calling stop(). Between
// construction and stop() it must not initiate communication directly —
// route everything through lpc().
#pragma once

#include <atomic>
#include <thread>
#include <utility>

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
      (void)gex::wait_until(
          [this] { return stop_.load(std::memory_order_acquire); },
          [] {
            const int work = detail::progress_work(progress_level::user);
            return work + busy();
          });
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
    // Held for the remainder of the SPMD body; fini_persona drops it.
    reacquire_master_persona(*master_);
  }

 private:
  // Anything in flight that wants a hot progress loop rather than a yield?
  static bool busy() {
    auto* r = gex::self();
    return r->xfer->copies_pending() || r->rma_am->outstanding() != 0;
  }

  persona* master_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace upcxx
