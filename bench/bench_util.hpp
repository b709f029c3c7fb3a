// Shared plumbing for the paper-figure benchmark harnesses: table printing,
// human-readable sizes, rank-count sweeps, and qualitative shape checks
// (benches assert the paper's *shape* claims, never absolute numbers).
// The median and the JSON number writer are the repository benchmark's
// (upcxx_bench/bench_core.hpp), so there is one of each.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "../upcxx_bench/bench_core.hpp"

namespace benchutil {

using ubench::median;

// The median of a sample and its range, printed with `fmt` (three double
// conversions: median, min, max) — a compared point beside its spread.
inline std::string spread(const std::vector<double>& v, const char* fmt) {
  char buf[96];
  const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
  std::snprintf(buf, sizeof buf, fmt, median(v), *lo, *hi);
  return buf;
}

inline std::string human_size(std::size_t bytes) {
  char buf[32];
  if (bytes >= (1u << 20))
    std::snprintf(buf, sizeof buf, "%zuMB", bytes >> 20);
  else if (bytes >= (1u << 10))
    std::snprintf(buf, sizeof buf, "%zuKB", bytes >> 10);
  else
    std::snprintf(buf, sizeof buf, "%zuB", bytes);
  return buf;
}

// Rank counts to sweep: powers of two up to min(hardware, cap, env
// BENCH_MAX_RANKS).
inline std::vector<int> rank_sweep(int cap = 16) {
  int hw = static_cast<int>(std::thread::hardware_concurrency());
  if (hw <= 0) hw = 8;
  if (const char* e = std::getenv("BENCH_MAX_RANKS")) cap = std::atoi(e);
  const int maxr = std::min(cap, hw);
  std::vector<int> out;
  for (int p = 1; p <= maxr; p <<= 1) out.push_back(p);
  return out;
}

// Repetition count, scalable down for smoke runs via BENCH_QUICK=1.
inline int reps(int full, int quick = 1) {
  if (const char* e = std::getenv("BENCH_QUICK"); e && *e == '1')
    return quick;
  return full;
}

// Scale factor for problem sizes (BENCH_QUICK shrinks work ~4x).
inline double work_scale() {
  if (const char* e = std::getenv("BENCH_QUICK"); e && *e == '1') return 0.25;
  return 1.0;
}

// True when compiled with ThreadSanitizer: its ~10x serialization makes
// performance *shape* assertions meaningless — benches report instead of
// enforce (the TSan CI job is about races, not throughput).
constexpr bool under_tsan() {
#if defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

class ShapeChecks {
 public:
  void expect(bool ok, const std::string& what) {
    std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what.c_str());
    if (!ok) ++failures_;
  }
  // Non-binding observation (reported, never fails the run).
  void note(const std::string& what) {
    std::printf("  [note] %s\n", what.c_str());
  }
  int summary(const char* bench) const {
    if (failures_ == 0) {
      std::printf("== %s: all shape checks passed ==\n", bench);
    } else {
      std::printf("== %s: %d shape check(s) FAILED ==\n", bench, failures_);
    }
    return failures_ == 0 ? 0 : 1;
  }

 private:
  int failures_ = 0;
};

// Machine-readable results for tracking the perf trajectory across PRs:
// with BENCH_JSON=1 each bench writes BENCH_<name>.json holding a flat
// metric map. Collect metrics during the run and call write() before exit.
class JsonReport {
 public:
  explicit JsonReport(std::string name) : name_(std::move(name)) {}

  void metric(const std::string& key, double value) {
    metrics_.emplace_back(key, value);
  }

  // The report text. A metric that is not a finite number (a ratio with
  // a zero base) prints as null, which JSON can parse.
  std::string json() const {
    std::string out = "{\n  \"bench\": \"" + name_ + "\",\n  \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i)
      out += std::string(i ? "," : "") + "\n    \"" + metrics_[i].first +
             "\": " + ubench::json_number(metrics_[i].second);
    return out + "\n  }\n}\n";
  }

  // No-op unless BENCH_JSON=1. Returns true if a file was written.
  bool write() const {
    const char* e = std::getenv("BENCH_JSON");
    if (!e || *e != '1') return false;
    const std::string path = "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::fputs(json().c_str(), f);
    std::fclose(f);
    std::printf("wrote %s (%zu metrics)\n", path.c_str(), metrics_.size());
    return true;
  }

 private:
  std::string name_;
  std::vector<std::pair<std::string, double>> metrics_;
};

}  // namespace benchutil
