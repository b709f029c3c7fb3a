// The benchmark harnesses' shared plumbing (bench/bench_util.hpp): its
// median and JSON number writer are the repository benchmark's, so even
// sample counts average the middle pair and a ratio with a zero base
// reaches the JSON report as null instead of an unparseable nan/inf.
#include <gtest/gtest.h>

#include <string>

#include "../bench/bench_util.hpp"

namespace {

TEST(BenchUtil, MedianAveragesTheMiddlePairForEvenCounts) {
  EXPECT_DOUBLE_EQ(benchutil::median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(benchutil::median({3, 1, 2}), 2.0);
}

TEST(BenchUtil, JsonReportPrintsNullForZeroDenominatorRatio) {
  benchutil::JsonReport r("unit");
  const double zero = 0;
  r.metric("zero_over_zero", zero / zero);
  r.metric("one_over_zero", 1.0 / zero);
  r.metric("finite", 1.5);
  const std::string j = r.json();
  EXPECT_NE(j.find("\"zero_over_zero\": null"), std::string::npos) << j;
  EXPECT_NE(j.find("\"one_over_zero\": null"), std::string::npos) << j;
  EXPECT_NE(j.find("\"finite\": 1.5"), std::string::npos) << j;
  EXPECT_EQ(j.find("nan"), std::string::npos) << j;
  EXPECT_EQ(j.find(": inf"), std::string::npos) << j;
}

}  // namespace
