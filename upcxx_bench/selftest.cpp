// Checks of the measurement plumbing in bench_core.hpp: median, histogram
// accuracy, JSON validity for non-finite values, and the span self-time
// reducer. Exits non-zero on the first failed check.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_core.hpp"

namespace {

int g_checks = 0;

void expect(bool ok, const std::string& what) {
  ++g_checks;
  if (ok) return;
  std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
  std::exit(1);
}

std::uint64_t splitmix(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Linear-interpolated quantile of sorted samples (Hyndman-Fan type 7).
double exact_quantile(const std::vector<double>& sorted, double p) {
  const double h = (static_cast<double>(sorted.size()) - 1) * p / 100;
  const auto lo = static_cast<std::size_t>(std::floor(h));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (h - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

void test_median() {
  expect(ubench::median({4, 1, 3, 2}) == 2.5, "even-n median averages");
  expect(ubench::median({5, 1, 3}) == 3, "odd-n median");
  expect(ubench::median({7}) == 7, "single-sample median");
  expect(std::isnan(ubench::median({})), "empty median is NaN");
}

void test_histogram() {
  ubench::Histogram small;
  for (std::uint64_t v = 0; v < 100; ++v) small.record(v);
  expect(small.count() == 100, "histogram counts samples");
  expect(std::fabs(small.percentile(50) - 50) <= 1, "small values exact");

  // Log-uniform samples over five decades: every percentile within 1%.
  ubench::Histogram h;
  std::vector<double> xs;
  std::uint64_t s = 42;
  for (int i = 0; i < 200000; ++i) {
    const double u = static_cast<double>(splitmix(s) >> 11) * 0x1.0p-53;
    const auto v = static_cast<std::uint64_t>(std::exp(
        std::log(200.0) + u * (std::log(5e7) - std::log(200.0))));
    h.record(v);
    xs.push_back(static_cast<double>(v));
  }
  std::sort(xs.begin(), xs.end());
  for (double p : {1.0, 10.0, 50.0, 90.0, 99.0, 99.9}) {
    const double want = exact_quantile(xs, p);
    const double got = h.percentile(p);
    char what[96];
    std::snprintf(what, sizeof what, "p%g within 1%%: got %g want %g", p, got,
                  want);
    expect(std::fabs(got - want) / want <= 0.01, what);
  }

  ubench::Histogram a, b;
  a.record(1000);
  b.record(3000);
  a.merge(b);
  expect(a.count() == 2 && a.percentile(100) >= 3000 * 0.99,
         "merge keeps both samples");
  expect(std::isnan(ubench::Histogram().percentile(50)),
         "empty histogram percentile is NaN");
}

void test_json() {
  const double zero = 0;
  expect(ubench::json_number(ubench::ratio(0, zero)) == "null",
         "zero-denominator ratio prints null");
  expect(ubench::json_number(1 / zero) == "null", "inf prints null");
  expect(ubench::json_number(0.1) == "0.10000000000000001",
         "finite values keep all digits");
  ubench::Metrics ms;
  ms["ratio"] = {ubench::ratio(3, zero), "frac"};
  ms["ok"] = {2, "s"};
  const std::string j = ubench::json_metrics(ms);
  expect(j == "{\"ok\": {\"value\": 2, \"unit\": \"s\"}, "
              "\"ratio\": {\"value\": null, \"unit\": \"frac\"}}",
         "metrics object is valid JSON: " + j);
  expect(j.find("nan") == std::string::npos &&
             j.find("inf") == std::string::npos,
         "no nan/inf tokens");
}

void test_trace() {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> iv = {
      {10, 30}, {20, 50}, {90, 120}};
  expect(ubench::covered_ns(iv, 0, 100) == 50, "union of children clipped");

  const std::vector<std::string> names = {"op", "child", "other"};
  ubench::SpanBuffer b0(0, 8), b1(1, 8);
  const std::uint64_t op = b0.open(0, 0, 1, 0);
  b0.add(1, op, 1, 10, 30);
  b1.add(1, op, 1, 20, 50);  // a child recorded by another thread
  b0.add(1, op, 1, 90, 120);
  b0.close(op, 100);
  b1.add(2, 0, 0, 5, 7);
  b1.open(2, 0, 0, 8);  // never closed: ignored
  const auto sums = ubench::reduce_self_time({&b0, &b1}, names);
  expect(sums.at("op").total_self_ns == 50, "self = duration - covered");
  expect(sums.at("child").total_self_ns == 20 + 30 + 30, "leaf self time");
  expect(sums.at("other").self_ns.count() == 1, "open span dropped");

  ubench::SpanBuffer full(2, 1);
  expect(full.open(0, 0, 0, 1) != 0, "first span fits");
  expect(full.open(0, 0, 0, 2) == 0 && full.dropped() == 1,
         "full buffer drops and counts");
}

}  // namespace

int main() {
  test_median();
  test_histogram();
  test_json();
  test_trace();
  std::printf("selftest: %d checks passed\n", g_checks);
  return 0;
}
