#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/strings.h"

namespace multiclust {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad k");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad k");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kNotFound), "NotFound");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kComputationError),
               "ComputationError");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kIoError), "IoError");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kUnimplemented),
               "Unimplemented");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kInternal), "Internal");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOutOfRange), "OutOfRange");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kFailedPrecondition),
               "FailedPrecondition");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveExtractsValue) {
  Result<std::vector<int>> r(std::vector<int>{1, 2, 3});
  std::vector<int> v = std::move(r).value();
  EXPECT_EQ(v.size(), 3u);
}

Result<int> Doubler(Result<int> in) {
  MC_ASSIGN_OR_RETURN(int x, in);
  return 2 * x;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(Doubler(21).value(), 42);
  EXPECT_FALSE(Doubler(Status::Internal("x")).ok());
  EXPECT_EQ(Doubler(Status::Internal("x")).status().code(),
            StatusCode::kInternal);
}

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, UniformMeanIsCentered) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Uniform(-3.0, 5.0);
  EXPECT_NEAR(sum / n, 1.0, 0.1);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(13);
  double sum = 0.0, sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.NextGaussian();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, NextIndexInRange) {
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextIndex(7), 7u);
  }
}

TEST(RngTest, NextIndexCoversAllValues) {
  Rng rng(19);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.NextIndex(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, PermutationIsValid) {
  Rng rng(23);
  const std::vector<size_t> perm = rng.Permutation(50);
  std::set<size_t> seen(perm.begin(), perm.end());
  EXPECT_EQ(perm.size(), 50u);
  EXPECT_EQ(seen.size(), 50u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 49u);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(29);
  const std::vector<size_t> sample = rng.SampleWithoutReplacement(100, 30);
  std::set<size_t> seen(sample.begin(), sample.end());
  EXPECT_EQ(sample.size(), 30u);
  EXPECT_EQ(seen.size(), 30u);
  for (size_t s : sample) EXPECT_LT(s, 100u);
}

TEST(RngTest, SampleClampedToPopulation) {
  Rng rng(31);
  EXPECT_EQ(rng.SampleWithoutReplacement(5, 50).size(), 5u);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(37);
  std::vector<double> weights = {0.0, 10.0, 0.0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.Categorical(weights), 1u);
  }
}

TEST(RngTest, CategoricalProportions) {
  Rng rng(41);
  std::vector<double> weights = {1.0, 3.0};
  int ones = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.Categorical(weights) == 1) ++ones;
  }
  EXPECT_NEAR(static_cast<double>(ones) / n, 0.75, 0.02);
}

TEST(RngTest, CategoricalIgnoresNegativeWeights) {
  Rng rng(43);
  std::vector<double> weights = {-5.0, 1.0};
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.Categorical(weights), 1u);
}

TEST(RngTest, SplitProducesIndependentStream) {
  Rng parent(47);
  Rng child = parent.Split();
  // Child stream should not replay the parent stream.
  Rng parent2(47);
  parent2.NextU64();  // same state advance as Split does
  EXPECT_NE(child.NextU64(), parent.NextU64());
}

TEST(StringsTest, SplitBasic) {
  const auto parts = SplitString("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(StringsTest, SplitNoSeparator) {
  const auto parts = SplitString("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(StringsTest, TrimWhitespace) {
  EXPECT_EQ(TrimString("  x \t\r\n"), "x");
  EXPECT_EQ(TrimString(""), "");
  EXPECT_EQ(TrimString("   "), "");
}

TEST(StringsTest, ParseDoubleValid) {
  double v = 0;
  EXPECT_TRUE(ParseDouble("3.25", &v));
  EXPECT_DOUBLE_EQ(v, 3.25);
  EXPECT_TRUE(ParseDouble(" -1e3 ", &v));
  EXPECT_DOUBLE_EQ(v, -1000.0);
}

TEST(StringsTest, ParseDoubleRejectsJunk) {
  double v = 0;
  EXPECT_FALSE(ParseDouble("", &v));
  EXPECT_FALSE(ParseDouble("12x", &v));
  EXPECT_FALSE(ParseDouble("x", &v));
}

}  // namespace
}  // namespace multiclust
