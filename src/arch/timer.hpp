// Wall-clock timing utilities used by the benchmark harnesses.
#pragma once

#include <chrono>
#include <cstdint>

namespace arch {

// Monotonic nanoseconds since an arbitrary epoch.
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double now_s() { return static_cast<double>(now_ns()) * 1e-9; }

// Simple stopwatch: accumulates elapsed time across start/stop pairs.
class Stopwatch {
 public:
  void start() { t0_ = now_ns(); }
  void stop() { acc_ += now_ns() - t0_; }
  void reset() { acc_ = 0; }
  std::uint64_t elapsed_ns() const { return acc_; }

 private:
  std::uint64_t t0_ = 0;
  std::uint64_t acc_ = 0;
};

}  // namespace arch
