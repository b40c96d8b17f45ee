#include "spidermine/seed_count.h"

#include <gtest/gtest.h>

namespace spidermine {
namespace {

TEST(SeedCountTest, PaperWorkedExample) {
  // Paper Sec. 4.1: epsilon = 0.1, K = 10, Vmin = |V|/10 "we get M = 85".
  // Evaluating the bound exactly: at M = 85 it yields 0.894 < 0.9; the
  // smallest satisfying M is 86 (the paper rounded).
  Result<int64_t> m = ComputeSeedCount(/*num_vertices=*/10000,
                                       /*vmin=*/1000, /*k=*/10,
                                       /*epsilon=*/0.1);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(*m, 86);
  EXPECT_LT(SeedSuccessLowerBound(10000, 1000, 10, 85), 0.9);
  EXPECT_GE(SeedSuccessLowerBound(10000, 1000, 10, 86), 0.9);
}

TEST(SeedCountTest, BoundIsIndependentOfScaleAtFixedRatio) {
  // Only the ratio Vmin/|V| matters.
  Result<int64_t> small = ComputeSeedCount(100, 10, 10, 0.1);
  Result<int64_t> large = ComputeSeedCount(1000000, 100000, 10, 0.1);
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(large.ok());
  EXPECT_EQ(*small, *large);
}

TEST(SeedCountTest, MoreStringentEpsilonNeedsMoreSeeds) {
  Result<int64_t> loose = ComputeSeedCount(10000, 1000, 10, 0.2);
  Result<int64_t> tight = ComputeSeedCount(10000, 1000, 10, 0.01);
  ASSERT_TRUE(loose.ok());
  ASSERT_TRUE(tight.ok());
  EXPECT_GT(*tight, *loose);
}

TEST(SeedCountTest, MoreTargetsNeedMoreSeeds) {
  Result<int64_t> k1 = ComputeSeedCount(10000, 1000, 1, 0.1);
  Result<int64_t> k50 = ComputeSeedCount(10000, 1000, 50, 0.1);
  ASSERT_TRUE(k1.ok());
  ASSERT_TRUE(k50.ok());
  EXPECT_GT(*k50, *k1);
}

TEST(SeedCountTest, SmallerPatternsNeedMoreSeeds) {
  Result<int64_t> big_patterns = ComputeSeedCount(10000, 2000, 10, 0.1);
  Result<int64_t> small_patterns = ComputeSeedCount(10000, 200, 10, 0.1);
  ASSERT_TRUE(big_patterns.ok());
  ASSERT_TRUE(small_patterns.ok());
  EXPECT_GT(*small_patterns, *big_patterns);
}

TEST(SeedCountTest, SuccessBoundMonotoneBeyondSolution) {
  int64_t m = *ComputeSeedCount(10000, 1000, 10, 0.1);
  double at_m = SeedSuccessLowerBound(10000, 1000, 10, m);
  double at_2m = SeedSuccessLowerBound(10000, 1000, 10, 2 * m);
  EXPECT_GE(at_2m, at_m);
  EXPECT_GE(at_m, 0.9);
}

TEST(SeedCountTest, BoundClampedToZeroWhenVacuous) {
  // Tiny M with tiny hit probability: (M+1)(1-p)^M >= 1 => bound is 0.
  EXPECT_EQ(SeedSuccessLowerBound(1000000, 1, 10, 2), 0.0);
}

TEST(SeedCountTest, WholeGraphPatternNeedsFewSeeds) {
  // Vmin == |V|: every spider is inside the pattern; M = 2 suffices for
  // any epsilon because pfail = 0.
  Result<int64_t> m = ComputeSeedCount(100, 100, 10, 0.001);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(*m, 2);
}

TEST(SeedCountTest, InvalidArgumentsRejected) {
  EXPECT_FALSE(ComputeSeedCount(0, 1, 1, 0.1).ok());
  EXPECT_FALSE(ComputeSeedCount(100, 0, 1, 0.1).ok());
  EXPECT_FALSE(ComputeSeedCount(100, 101, 1, 0.1).ok());
  EXPECT_FALSE(ComputeSeedCount(100, 10, 0, 0.1).ok());
  EXPECT_FALSE(ComputeSeedCount(100, 10, 1, 0.0).ok());
  EXPECT_FALSE(ComputeSeedCount(100, 10, 1, 1.0).ok());
}

TEST(SeedCountTest, UnreachableTargetIsResourceExhausted) {
  // Vmin/|V| astronomically small: no reasonable M satisfies the bound.
  Result<int64_t> m =
      ComputeSeedCount(100000000, 1, 10, 0.1, /*max_m=*/1000);
  EXPECT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), StatusCode::kResourceExhausted);
}

class SeedCountMonotonicity : public ::testing::TestWithParam<int32_t> {};

TEST_P(SeedCountMonotonicity, MGrowsWithK) {
  int32_t k = GetParam();
  Result<int64_t> m_k = ComputeSeedCount(10000, 1000, k, 0.1);
  Result<int64_t> m_k1 = ComputeSeedCount(10000, 1000, k + 1, 0.1);
  ASSERT_TRUE(m_k.ok());
  ASSERT_TRUE(m_k1.ok());
  EXPECT_LE(*m_k, *m_k1);
}

INSTANTIATE_TEST_SUITE_P(KSweep, SeedCountMonotonicity,
                         ::testing::Values(1, 2, 5, 10, 20, 50));

}  // namespace
}  // namespace spidermine
