#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "src/common/rng.hpp"
#include "src/common/stats.hpp"
#include "src/common/status.hpp"
#include "src/common/strings.hpp"
#include "src/common/table.hpp"
#include "src/common/units.hpp"

namespace uvs {
namespace {

TEST(Units, ByteLiterals) {
  EXPECT_EQ(1_KiB, 1024u);
  EXPECT_EQ(2_MiB, 2u * 1024 * 1024);
  EXPECT_EQ(1_GiB, 1024u * 1024 * 1024);
  EXPECT_EQ(1_TiB, 1024ull * 1024 * 1024 * 1024);
}

TEST(Units, RateLiterals) {
  EXPECT_DOUBLE_EQ(1_GBps, 1e9);
  EXPECT_DOUBLE_EQ(2.5_GBps, 2.5e9);
  EXPECT_DOUBLE_EQ(100_MBps, 1e8);
}

TEST(Units, TimeLiterals) {
  EXPECT_DOUBLE_EQ(5_us, 5e-6);
  EXPECT_DOUBLE_EQ(3_ms, 3e-3);
  EXPECT_DOUBLE_EQ(2_sec, 2.0);
}

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status s = NotFoundError("no such file");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NOT_FOUND: no such file");
}

TEST(Result, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(Result, HoldsError) {
  Result<int> r(InvalidArgumentError("bad"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    auto v = rng.NextBelow(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all residues hit
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(5);
  Rng child = a.Fork();
  EXPECT_NE(a(), child());
}

TEST(RunningStats, MeanMinMax) {
  RunningStats s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.Add(v);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, VarianceNeedsTwoSamples) {
  RunningStats s;
  s.Add(3.0);
  EXPECT_EQ(s.variance(), 0.0) << "one sample has no spread";
  EXPECT_EQ(s.stddev(), 0.0);
  s.Add(5.0);
  // Sample variance (n-1 denominator): ((3-4)^2 + (5-4)^2) / 1 = 2.
  EXPECT_NEAR(s.variance(), 2.0, 1e-12);
  EXPECT_NEAR(s.stddev(), std::sqrt(2.0), 1e-12);
}

TEST(Strings, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(2_MiB), "2.0 MiB");
  EXPECT_EQ(HumanBytes(1536), "1.5 KiB");
}

TEST(Strings, HumanRate) {
  EXPECT_EQ(HumanRate(2.8e9), "2.80 GB/s");
  EXPECT_EQ(HumanRate(500.0), "500.00 B/s");
}

TEST(Strings, HumanTime) {
  EXPECT_EQ(HumanTime(1.5), "1.50 s");
  EXPECT_EQ(HumanTime(2e-3), "2.00 ms");
  EXPECT_EQ(HumanTime(3e-6), "3.00 us");
}

TEST(Table, AlignsAndCounts) {
  Table t({"procs", "rate"});
  t.AddRow({"64", "1.5"});
  t.AddNumericRow({128, 2.25});
  EXPECT_EQ(t.rows(), 2u);
  std::string out = t.ToString();
  EXPECT_NE(out.find("procs"), std::string::npos);
  EXPECT_NE(out.find("2.25"), std::string::npos);
}

TEST(Table, CsvOutput) {
  Table t({"a", "b"});
  t.AddRow({"1", "2"});
  EXPECT_EQ(t.ToCsv(), "a,b\n1,2\n");
}

}  // namespace
}  // namespace uvs
