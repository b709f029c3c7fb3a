// Measurement plumbing for upcxx_bench: an even-n-correct median, a
// log-bucketed latency histogram, a JSON writer that keeps non-finite values
// valid, and an in-memory span recorder with a self-time reducer.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace ubench {

// Median of a sample vector; the mean of the two middle elements for even n.
inline double median(std::vector<double> v) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  const double hi = v[mid];
  if (v.size() % 2) return hi;
  const double lo =
      *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return (lo + hi) / 2;
}

// a / b, NaN when b is zero (a ratio with no base is not a number; the JSON
// writer turns it into null).
inline double ratio(double a, double b) {
  return b != 0 ? a / b : std::numeric_limits<double>::quiet_NaN();
}

// Log-linear histogram of non-negative integers (nanoseconds here): values
// below 2^kSubBits are counted exactly, above that each power of two is
// split into 2^kSubBits equal buckets, so a bucket is at most 1/128 (0.78%)
// of its lower edge wide. percentile() interpolates inside the bucket, so
// its relative error stays under 1% and it does not snap to bucket edges.
class Histogram {
 public:
  static constexpr int kSubBits = 7;
  static constexpr std::uint64_t kSub = 1ull << kSubBits;
  static constexpr std::size_t kBuckets = kSub + (64 - kSubBits) * kSub;

  Histogram() : counts_(kBuckets, 0) {}

  void record(std::uint64_t v) {
    ++counts_[index(v)];
    ++total_;
  }

  void merge(const Histogram& o) {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
    total_ += o.total_;
  }

  std::uint64_t count() const { return total_; }

  // p in [0, 100]. NaN when empty.
  double percentile(double p) const {
    if (total_ == 0) return std::numeric_limits<double>::quiet_NaN();
    const double target =
        std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(total_);
    double before = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      if (counts_[i] == 0) continue;
      const double c = static_cast<double>(counts_[i]);
      if (before + c >= target) {
        const double frac = std::clamp((target - before) / c, 0.0, 1.0);
        return static_cast<double>(lower(i)) +
               frac * static_cast<double>(width(i));
      }
      before += c;
    }
    return std::numeric_limits<double>::quiet_NaN();  // unreachable
  }

 private:
  static std::size_t index(std::uint64_t v) {
    if (v < kSub) return static_cast<std::size_t>(v);
    const int shift = std::bit_width(v) - 1 - kSubBits;  // >= 0
    const std::uint64_t sub = (v >> shift) - kSub;        // [0, kSub)
    return static_cast<std::size_t>(kSub +
                                    static_cast<std::uint64_t>(shift) * kSub +
                                    sub);
  }
  static std::uint64_t lower(std::size_t i) {
    if (i < kSub) return i;
    const std::uint64_t shift = (i - kSub) / kSub;
    const std::uint64_t sub = (i - kSub) % kSub;
    return (kSub + sub) << shift;
  }
  static std::uint64_t width(std::size_t i) {
    return i < kSub ? 1 : 1ull << ((i - kSub) / kSub);
  }

  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

// JSON number text: all significant digits, or null for NaN/inf, which JSON
// cannot spell.
inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// One metric: value and unit.
struct Metric {
  double value;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

// {"name": {"value": v, "unit": "u"}, ...}
inline std::string json_metrics(const Metrics& ms) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, m] : ms) {
    out += first ? "" : ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + json_number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  return out + "}";
}

// ------------------------------------------------------------------ tracing
//
// Spans are recorded by the benchmark's own code around each call into a
// library layer. Each recording thread owns a SpanBuffer (no locks on the
// hot path); ids carry the buffer's thread index so parents can be looked
// up across buffers. A buffer stops recording when full (capacity is fixed
// up front so recording never allocates) and counts what it dropped.

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t req = 0;     // request id shared by one request's spans
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;  // 0 while open
  std::uint32_t name = 0;    // index into the trace's name table
  std::uint32_t thread = 0;
};

class SpanBuffer {
 public:
  SpanBuffer(std::uint32_t thread, std::size_t capacity) : thread_(thread) {
    spans_.reserve(capacity);
  }

  // Opens a span; returns its id, or 0 when the buffer is full.
  std::uint64_t open(std::uint32_t name, std::uint64_t parent,
                     std::uint64_t req, std::uint64_t start_ns) {
    if (spans_.size() == spans_.capacity()) {
      ++dropped_;
      return 0;
    }
    const std::uint64_t id =
        (static_cast<std::uint64_t>(thread_ + 1) << 40) | (spans_.size() + 1);
    spans_.push_back(Span{id, parent, req, start_ns, 0, name, thread_});
    return id;
  }

  void close(std::uint64_t id, std::uint64_t end_ns) {
    if (id == 0) return;
    spans_[(id & ((1ull << 40) - 1)) - 1].end_ns = end_ns;
  }

  // A span whose start and end are both known.
  std::uint64_t add(std::uint32_t name, std::uint64_t parent,
                    std::uint64_t req, std::uint64_t start_ns,
                    std::uint64_t end_ns) {
    const std::uint64_t id = open(name, parent, req, start_ns);
    close(id, end_ns);
    return id;
  }

  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  std::uint32_t thread_;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

// Per-name result of the self-time reduction.
struct SpanSummary {
  Histogram self_ns;
  double total_self_ns = 0;
};

// Length of the union of [lo, hi) intervals clipped to [start, end).
inline std::uint64_t covered_ns(
    std::vector<std::pair<std::uint64_t, std::uint64_t>>& iv,
    std::uint64_t start, std::uint64_t end) {
  std::sort(iv.begin(), iv.end());
  std::uint64_t covered = 0, cur_lo = 0, cur_hi = 0;
  bool have = false;
  for (auto [lo, hi] : iv) {
    lo = std::max(lo, start);
    hi = std::min(hi, end);
    if (lo >= hi) continue;
    if (have && lo <= cur_hi) {
      cur_hi = std::max(cur_hi, hi);
    } else {
      if (have) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      have = true;
    }
  }
  if (have) covered += cur_hi - cur_lo;
  return covered;
}

// Self time of every closed span: its duration minus the part of its
// interval that its (closed) children cover. Keyed by span name.
inline std::map<std::string, SpanSummary> reduce_self_time(
    const std::vector<const SpanBuffer*>& bufs,
    const std::vector<std::string>& names) {
  std::map<std::uint64_t,
           std::vector<std::pair<std::uint64_t, std::uint64_t>>>
      children;
  for (const SpanBuffer* b : bufs)
    for (const Span& s : b->spans())
      if (s.parent != 0 && s.end_ns != 0)
        children[s.parent].emplace_back(s.start_ns, s.end_ns);
  std::map<std::string, SpanSummary> out;
  for (const SpanBuffer* b : bufs)
    for (const Span& s : b->spans()) {
      if (s.end_ns < s.start_ns || s.end_ns == 0) continue;
      std::uint64_t self = s.end_ns - s.start_ns;
      if (auto it = children.find(s.id); it != children.end())
        self -= covered_ns(it->second, s.start_ns, s.end_ns);
      SpanSummary& sum = out[names.at(s.name)];
      sum.self_ns.record(self);
      sum.total_self_ns += static_cast<double>(self);
    }
  return out;
}

// Writes every closed span as one JSON object per line. Returns false when
// the file cannot be written.
inline bool write_spans_jsonl(const std::string& path,
                              const std::vector<const SpanBuffer*>& bufs,
                              const std::vector<std::string>& names) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  for (const SpanBuffer* b : bufs)
    for (const Span& s : b->spans()) {
      if (s.end_ns == 0) continue;
      std::fprintf(f,
                   "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                   "\"req\":%llu,\"thread\":%u,\"start_ns\":%llu,"
                   "\"end_ns\":%llu}\n",
                   names.at(s.name).c_str(),
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.req), s.thread,
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns));
    }
  return std::fclose(f) == 0;
}

}  // namespace ubench
