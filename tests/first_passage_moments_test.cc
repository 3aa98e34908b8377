#include "markov/first_passage_moments.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "common/statistics.h"
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

AbsorbingCtmc MakeChain(DenseMatrix p, Vector h,
                        std::vector<std::string> names) {
  auto chain =
      AbsorbingCtmc::Create(Csr(p), std::move(h), std::move(names), 0,
                            names.size() - 1);
  EXPECT_TRUE(chain.ok()) << chain.status();
  return *std::move(chain);
}

TEST(FirstPassageMomentsTest, SingleExponentialStage) {
  // T ~ Exp(1/H): E[T] = H, E[T^2] = 2H^2, SCV = 1.
  const double h = 3.0;
  auto chain = MakeChain(DenseMatrix{{0, 1}, {0, 0}},
                         {h, kInfiniteResidence}, {"w", "A"});
  auto moments = TurnaroundTimeMoments(chain);
  ASSERT_TRUE(moments.ok()) << moments.status();
  EXPECT_NEAR(moments->mean, h, 1e-12);
  EXPECT_NEAR(moments->second_moment, 2.0 * h * h, 1e-10);
  EXPECT_NEAR(moments->scv(), 1.0, 1e-10);
}

TEST(FirstPassageMomentsTest, TwoStageSumOfExponentials) {
  // T = Exp(1/h0) + Exp(1/h1): Var = h0^2 + h1^2.
  const double h0 = 2.0;
  const double h1 = 5.0;
  auto chain = MakeChain(DenseMatrix{{0, 1, 0}, {0, 0, 1}, {0, 0, 0}},
                         {h0, h1, kInfiniteResidence}, {"a", "b", "A"});
  auto moments = TurnaroundTimeMoments(chain);
  ASSERT_TRUE(moments.ok());
  EXPECT_NEAR(moments->mean, h0 + h1, 1e-12);
  EXPECT_NEAR(moments->variance(), h0 * h0 + h1 * h1, 1e-9);
  // Erlang-like chains have SCV < 1.
  EXPECT_LT(moments->scv(), 1.0);
}

TEST(FirstPassageMomentsTest, GeometricLoopMatchesMonteCarlo) {
  // Loop chain: s0 -> s1, s1 -> s0 w.p. q, -> A w.p. 1-q.
  const double q = 0.4;
  const double h0 = 1.0;
  const double h1 = 2.0;
  auto chain = MakeChain(DenseMatrix{{0, 1, 0}, {q, 0, 1 - q}, {0, 0, 0}},
                         {h0, h1, kInfiniteResidence}, {"a", "b", "A"});
  auto moments = TurnaroundTimeMoments(chain);
  ASSERT_TRUE(moments.ok());

  Rng rng(404);
  RunningStats observed;
  for (int i = 0; i < 400000; ++i) {
    double t = 0.0;
    int state = 0;
    while (state != 2) {
      t += rng.NextExponential(state == 0 ? 1.0 / h0 : 1.0 / h1);
      state = state == 0 ? 1 : (rng.NextBernoulli(q) ? 0 : 2);
    }
    observed.Add(t);
  }
  EXPECT_NEAR(moments->mean, observed.mean(), 0.02 * observed.mean());
  EXPECT_NEAR(moments->second_moment, observed.second_moment(),
              0.03 * observed.second_moment());
}

TEST(FirstPassageMomentsTest, MeanVectorMatchesFirstPassage) {
  auto chain = MakeChain(
      DenseMatrix{{0, 0.5, 0.5, 0}, {0.2, 0, 0, 0.8}, {0, 0, 0, 1},
                  {0, 0, 0, 0}},
      {1.0, 2.0, 3.0, kInfiniteResidence}, {"a", "b", "c", "A"});
  auto vectors = FirstPassageMoments(chain);
  auto means = MeanFirstPassageTimes(chain);
  ASSERT_TRUE(vectors.ok());
  ASSERT_TRUE(means.ok());
  for (size_t i = 0; i < chain.num_states(); ++i) {
    EXPECT_NEAR(vectors->mean[i], (*means)[i], 1e-12);
    // Jensen: E[T^2] >= (E[T])^2.
    EXPECT_GE(vectors->second_moment[i],
              vectors->mean[i] * vectors->mean[i] - 1e-9);
  }
}

TEST(FirstPassageMomentsTest, ChebyshevTailBound) {
  TurnaroundMoments moments;
  moments.mean = 10.0;
  moments.second_moment = 120.0;  // variance 20
  EXPECT_DOUBLE_EQ(moments.TailBound(5.0), 1.0);   // below the mean
  EXPECT_DOUBLE_EQ(moments.TailBound(10.0), 1.0);  // at the mean
  EXPECT_NEAR(moments.TailBound(20.0), 20.0 / 100.0, 1e-12);
  EXPECT_NEAR(moments.TailBound(110.0), 20.0 / 10000.0, 1e-12);
  EXPECT_NEAR(moments.stddev(), std::sqrt(20.0), 1e-12);
}

}  // namespace
}  // namespace wfms::markov
