#include "markov/transient_distribution.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "linalg/dense_matrix.h"
#include "markov/first_passage.h"

namespace wfms::markov {
namespace {

using linalg::DenseMatrix;
using linalg::Vector;

/// The CSR form AbsorbingCtmc::Create takes.
linalg::SparseMatrix Csr(const DenseMatrix& p) {
  return linalg::SparseMatrix::FromDense(p);
}

AbsorbingCtmc MakeSingleState(double h) {
  DenseMatrix p{{0, 1}, {0, 0}};
  auto chain = AbsorbingCtmc::Create(Csr(p), {h, kInfiniteResidence},
                                     {"w", "A"}, 0, 1);
  EXPECT_TRUE(chain.ok());
  return *std::move(chain);
}

AbsorbingCtmc MakeTwoStage(double h0, double h1) {
  DenseMatrix p{{0, 1, 0}, {0, 0, 1}, {0, 0, 0}};
  auto chain = AbsorbingCtmc::Create(
      Csr(p), {h0, h1, kInfiniteResidence}, {"a", "b", "A"}, 0, 2);
  EXPECT_TRUE(chain.ok());
  return *std::move(chain);
}

TEST(TransientDistributionTest, TimeZeroIsInitialState) {
  const AbsorbingCtmc chain = MakeSingleState(2.0);
  auto p = TransientDistribution(chain, 0.0);
  ASSERT_TRUE(p.ok());
  EXPECT_DOUBLE_EQ((*p)[0], 1.0);
  EXPECT_DOUBLE_EQ((*p)[1], 0.0);
}

TEST(TransientDistributionTest, SingleStateIsExponential) {
  // One Exp(1/H) stage: P(done by t) = 1 - exp(-t/H).
  const double h = 3.0;
  const AbsorbingCtmc chain = MakeSingleState(h);
  for (double t : {0.5, 1.0, 3.0, 10.0, 30.0}) {
    auto prob = CompletionProbabilityByTime(chain, t);
    ASSERT_TRUE(prob.ok()) << prob.status();
    EXPECT_NEAR(*prob, 1.0 - std::exp(-t / h), 1e-9) << "t=" << t;
  }
}

TEST(TransientDistributionTest, TwoEqualStagesAreErlang2) {
  // Two Exp(1) stages: P(done by t) = 1 - e^-t (1 + t).
  const AbsorbingCtmc chain = MakeTwoStage(1.0, 1.0);
  for (double t : {0.5, 1.0, 2.0, 5.0}) {
    auto prob = CompletionProbabilityByTime(chain, t);
    ASSERT_TRUE(prob.ok());
    EXPECT_NEAR(*prob, 1.0 - std::exp(-t) * (1.0 + t), 1e-9) << "t=" << t;
  }
}

TEST(TransientDistributionTest, DistributionSumsToOne) {
  const AbsorbingCtmc chain = MakeTwoStage(2.0, 5.0);
  for (double t : {0.1, 1.0, 10.0, 100.0, 10000.0}) {
    auto p = TransientDistribution(chain, t);
    ASSERT_TRUE(p.ok()) << "t=" << t << ": " << p.status();
    double sum = 0.0;
    for (double v : *p) {
      EXPECT_GE(v, -1e-12);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9) << "t=" << t;
  }
}

TEST(TransientDistributionTest, CompletionMonotoneInTime) {
  const AbsorbingCtmc chain = MakeTwoStage(1.0, 4.0);
  double prev = 0.0;
  for (double t = 0.5; t < 40.0; t *= 2.0) {
    auto prob = CompletionProbabilityByTime(chain, t);
    ASSERT_TRUE(prob.ok());
    EXPECT_GE(*prob, prev);
    prev = *prob;
  }
  EXPECT_GT(prev, 0.99);
}

TEST(TransientDistributionTest, LargeVtStaysStable) {
  // Fast state (residence 0.01) + slow deadline => vt ~ 1e5: the Poisson
  // summation must remain numerically stable.
  const AbsorbingCtmc chain = MakeTwoStage(0.01, 10.0);
  auto prob = CompletionProbabilityByTime(chain, 1000.0);
  ASSERT_TRUE(prob.ok()) << prob.status();
  EXPECT_NEAR(*prob, 1.0, 1e-6);
}

TEST(TransientDistributionTest, MeanFromDistributionMatchesFirstPassage) {
  // E[T] = integral of (1 - F(t)) dt, approximated by the trapezoid rule,
  // must match the first-passage mean turnaround.
  const AbsorbingCtmc chain = MakeTwoStage(2.0, 3.0);
  auto mean = MeanTurnaroundTime(chain);
  ASSERT_TRUE(mean.ok());
  double integral = 0.0;
  const double dt = 0.05;
  for (double t = 0.0; t < 120.0; t += dt) {
    auto f0 = CompletionProbabilityByTime(chain, t);
    auto f1 = CompletionProbabilityByTime(chain, t + dt);
    ASSERT_TRUE(f0.ok());
    ASSERT_TRUE(f1.ok());
    integral += 0.5 * ((1.0 - *f0) + (1.0 - *f1)) * dt;
  }
  EXPECT_NEAR(integral, *mean, 0.02 * *mean);
}

TEST(TurnaroundQuantileTest, MatchesExponentialQuantiles) {
  const double h = 2.0;
  const AbsorbingCtmc chain = MakeSingleState(h);
  for (double q : {0.5, 0.9, 0.99}) {
    auto t = TurnaroundQuantile(chain, q, 1e-4);
    ASSERT_TRUE(t.ok());
    EXPECT_NEAR(*t, -h * std::log(1.0 - q), 1e-3) << "q=" << q;
  }
}

TEST(TurnaroundQuantileTest, QuantilesAreMonotone) {
  const AbsorbingCtmc chain = MakeTwoStage(1.0, 5.0);
  auto p50 = TurnaroundQuantile(chain, 0.5);
  auto p95 = TurnaroundQuantile(chain, 0.95);
  ASSERT_TRUE(p50.ok());
  ASSERT_TRUE(p95.ok());
  EXPECT_LT(*p50, *p95);
}

TEST(TransientDistributionTest, Validation) {
  const AbsorbingCtmc chain = MakeSingleState(1.0);
  EXPECT_FALSE(TransientDistribution(chain, -1.0).ok());
  EXPECT_FALSE(
      TransientDistribution(chain,
                            std::numeric_limits<double>::infinity())
          .ok());
  EXPECT_FALSE(TurnaroundQuantile(chain, 0.0).ok());
  EXPECT_FALSE(TurnaroundQuantile(chain, 1.0).ok());
  EXPECT_FALSE(TurnaroundQuantile(chain, 0.5, 0.0).ok());
}

}  // namespace
}  // namespace wfms::markov
