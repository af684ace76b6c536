// Unit tests for common/stats.hpp.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/require.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"

namespace {

using namespace pdac;

TEST(RunningStats, MeanVarianceMinMax) {
  stats::Running r;
  for (double x : {1.0, 2.0, 3.0, 4.0}) r.add(x);
  EXPECT_EQ(r.count(), 4u);
  EXPECT_DOUBLE_EQ(r.mean(), 2.5);
  EXPECT_DOUBLE_EQ(r.variance(), 1.25);  // population variance
  EXPECT_DOUBLE_EQ(r.min(), 1.0);
  EXPECT_DOUBLE_EQ(r.max(), 4.0);
}

TEST(RunningStats, EmptyAndSingle) {
  stats::Running r;
  EXPECT_EQ(r.count(), 0u);
  EXPECT_DOUBLE_EQ(r.variance(), 0.0);
  r.add(7.0);
  EXPECT_DOUBLE_EQ(r.mean(), 7.0);
  EXPECT_DOUBLE_EQ(r.variance(), 0.0);
  EXPECT_DOUBLE_EQ(r.stddev(), 0.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  stats::Running a, b, all;
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    const double x = rng.gaussian(2.0, 3.0);
    (i < 250 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-10);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-8);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  stats::Running a, empty;
  a.add(1.0);
  a.add(3.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  stats::Running b;
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(RunningStats, GaussianSampleStatistics) {
  stats::Running r;
  Rng rng(11);
  for (int i = 0; i < 20'000; ++i) r.add(rng.gaussian(1.0, 0.5));
  EXPECT_NEAR(r.mean(), 1.0, 0.02);
  EXPECT_NEAR(r.stddev(), 0.5, 0.02);
}

TEST(VectorCompare, IdenticalVectors) {
  const std::vector<double> v{1.0, -2.0, 3.0};
  const auto e = stats::compare(v, v);
  EXPECT_DOUBLE_EQ(e.rmse, 0.0);
  EXPECT_DOUBLE_EQ(e.max_abs, 0.0);
  EXPECT_DOUBLE_EQ(e.rel_frobenius, 0.0);
  EXPECT_NEAR(e.cosine, 1.0, 1e-15);
}

TEST(VectorCompare, KnownError) {
  const std::vector<double> ref{1.0, 1.0, 1.0, 1.0};
  const std::vector<double> meas{1.1, 0.9, 1.0, 1.0};
  const auto e = stats::compare(meas, ref);
  EXPECT_NEAR(e.rmse, std::sqrt(0.02 / 4.0), 1e-12);
  EXPECT_NEAR(e.max_abs, 0.1, 1e-12);
  EXPECT_NEAR(e.max_rel, 0.1, 1e-9);
  EXPECT_NEAR(e.rel_frobenius, std::sqrt(0.02) / 2.0, 1e-12);
}

TEST(VectorCompare, OppositeVectorsCosine) {
  const std::vector<double> a{1.0, 2.0};
  const std::vector<double> b{-1.0, -2.0};
  EXPECT_NEAR(stats::compare(a, b).cosine, -1.0, 1e-15);
}

TEST(VectorCompare, RejectsMismatchedLengths) {
  const std::vector<double> a{1.0};
  const std::vector<double> b{1.0, 2.0};
  EXPECT_THROW((void)stats::compare(a, b), PreconditionError);
}

TEST(VectorCompare, RejectsEmpty) {
  const std::vector<double> e;
  EXPECT_THROW((void)stats::compare(e, e), PreconditionError);
}

}  // namespace
