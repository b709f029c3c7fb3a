// The one blocking wait. The paper (§III) makes a wait "simply a spin loop
// around progress"; a job whose rank died must end that loop instead of
// hanging in it. Every blocking loop of the runtime — future::wait, the
// barrier-entry xfer drain, teardown drains, the progress thread, the AM
// engine's send retries, both world barriers, minimpi's waits and
// oldupcxx's event::wait — is this function with its own readiness test
// and its own poll.
#pragma once

#include <thread>

namespace gex {

// True once any rank of the job this process runs has failed (the arena
// error flag); false outside a job. Callable from any thread of the
// process, with or without a rank context — injector threads and a thread
// that handed its master persona away included.
bool job_failed();

// Returns true once done() holds, false once the job failed first. done()
// is checked on entry; then each round runs poll() (which returns the work
// it did), checks done(), then checks for failure, and yields the core only
// when poll() did no work. So a completion delivered before a failure is
// still returned, and on an oversubscribed host the peer that must produce
// the awaited work gets the cycles a repeat poll of empty queues would burn.
template <class Done, class Poll>
[[nodiscard]] bool wait_until(Done done, Poll poll) {
  if (done()) return true;
  for (;;) {
    const auto work = poll();
    if (done()) return true;
    if (job_failed()) return false;
    if (work == 0) std::this_thread::yield();
  }
}

}  // namespace gex
