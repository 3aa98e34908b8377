// Property-based sweeps over randomly generated absorbing CTMCs: the
// fundamental identities the performance model rests on must hold for
// *every* well-formed chain, not just the handcrafted fixtures.

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "linalg/dense_matrix.h"
#include "markov/absorbing_ctmc.h"
#include "markov/first_passage.h"
#include "markov/phase_type.h"
#include "markov/transient.h"
#include "markov/transient_distribution.h"

namespace wfms::markov {
namespace {

using linalg::DenseMatrix;
using linalg::Vector;

/// The CSR form AbsorbingCtmc::Create takes.
linalg::SparseMatrix Csr(const DenseMatrix& p) {
  return linalg::SparseMatrix::FromDense(p);
}

/// Random absorbing chain: n transient states arranged so that every
/// state has a path to absorption (each state sends positive probability
/// either forward or straight to the absorbing state).
AbsorbingCtmc MakeRandomChain(size_t n, uint64_t seed) {
  Rng rng(seed);
  const size_t total = n + 1;
  DenseMatrix p(total, total);
  Vector h(total, 0.0);
  std::vector<std::string> names;
  for (size_t i = 0; i < n; ++i) {
    h[i] = rng.NextDouble(0.2, 8.0);
    // Two-step name build dodges a GCC 12 -Wrestrict false positive on
    // the fused literal+number concatenation (GCC PR105329).
    std::string name(1, 's');
    name += std::to_string(i);
    names.push_back(std::move(name));
    // Random outgoing mass to later states, earlier states (loops), and
    // the absorbing state; guaranteed absorbing mass keeps the chain
    // proper.
    Vector weights(total, 0.0);
    weights[n] = rng.NextDouble(0.05, 0.5);  // to absorption
    for (size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      if (rng.NextBernoulli(0.5)) weights[j] = rng.NextDouble(0.05, 1.0);
    }
    double sum = 0.0;
    for (double w : weights) sum += w;
    for (size_t j = 0; j < total; ++j) p.At(i, j) = weights[j] / sum;
  }
  h[n] = kInfiniteResidence;
  names.push_back("A");
  auto chain = AbsorbingCtmc::Create(Csr(p), std::move(h),
                                     std::move(names), 0, n);
  EXPECT_TRUE(chain.ok()) << chain.status();
  return *std::move(chain);
}

class RandomChainProperty : public ::testing::TestWithParam<int> {
 protected:
  AbsorbingCtmc Chain() const {
    const auto param = static_cast<uint64_t>(GetParam());
    return MakeRandomChain(2 + param % 9, 1000 + param);
  }
};

TEST_P(RandomChainProperty, TurnaroundEqualsVisitWeightedResidence) {
  const AbsorbingCtmc chain = Chain();
  auto turnaround = MeanTurnaroundTime(chain);
  auto visits = ExpectedStateVisits(chain);
  ASSERT_TRUE(turnaround.ok());
  ASSERT_TRUE(visits.ok());
  double weighted = 0.0;
  for (size_t i = 0; i < chain.num_states(); ++i) {
    if (i == chain.absorbing_state()) continue;
    weighted += (*visits)[i] * chain.residence_times()[i];
  }
  EXPECT_NEAR(*turnaround, weighted, 1e-7 * std::max(1.0, weighted));
}

TEST_P(RandomChainProperty, RewardModelMatchesFundamentalMatrix) {
  const AbsorbingCtmc chain = Chain();
  Rng rng(GetParam() + 77u);
  Vector rewards(chain.num_states(), 0.0);
  for (size_t i = 0; i < chain.num_states(); ++i) {
    if (i != chain.absorbing_state()) rewards[i] = rng.NextDouble(0.0, 5.0);
  }
  auto reward = ExpectedRewardUntilAbsorption(chain, rewards);
  auto visits = ExpectedStateVisits(chain);
  ASSERT_TRUE(reward.ok()) << reward.status();
  ASSERT_TRUE(visits.ok());
  double expected = 0.0;
  for (size_t i = 0; i < chain.num_states(); ++i) {
    expected += (*visits)[i] * rewards[i];
  }
  EXPECT_NEAR(reward->expected_reward, expected,
              1e-6 * std::max(1.0, expected));
}

TEST_P(RandomChainProperty, GaussSeidelFirstPassageMatchesLu) {
  const AbsorbingCtmc chain = Chain();
  auto lu = MeanFirstPassageTimes(chain, FirstPassageMethod::kLu);
  auto gs = MeanFirstPassageTimes(chain, FirstPassageMethod::kGaussSeidel);
  ASSERT_TRUE(lu.ok());
  ASSERT_TRUE(gs.ok()) << gs.status();
  for (size_t i = 0; i < chain.num_states(); ++i) {
    EXPECT_NEAR((*gs)[i], (*lu)[i], 1e-6 * std::max(1.0, (*lu)[i]));
  }
}

TEST_P(RandomChainProperty, ErlangExpansionPreservesMeans) {
  const AbsorbingCtmc chain = Chain();
  Rng rng(GetParam() + 99u);
  std::vector<int> stages(chain.num_states(), 1);
  for (size_t i = 0; i < chain.num_states(); ++i) {
    if (i != chain.absorbing_state()) {
      stages[i] = 1 + static_cast<int>(rng.NextUint64(4));
    }
  }
  auto expansion = ExpandErlangStages(chain, stages);
  ASSERT_TRUE(expansion.ok());
  auto r0 = MeanTurnaroundTime(chain);
  auto r1 = MeanTurnaroundTime(expansion->chain);
  ASSERT_TRUE(r0.ok());
  ASSERT_TRUE(r1.ok());
  EXPECT_NEAR(*r0, *r1, 1e-7 * std::max(1.0, *r0));

  Vector rewards(chain.num_states(), 1.0);
  rewards[chain.absorbing_state()] = 0.0;
  auto orig = ExpectedRewardUntilAbsorption(chain, rewards);
  auto lifted = ExpectedRewardUntilAbsorption(
      expansion->chain, expansion->LiftEntryRewards(rewards));
  ASSERT_TRUE(orig.ok());
  ASSERT_TRUE(lifted.ok());
  EXPECT_NEAR(orig->expected_reward, lifted->expected_reward,
              1e-6 * std::max(1.0, orig->expected_reward));
}

TEST_P(RandomChainProperty, TransientDistributionIsProper) {
  const AbsorbingCtmc chain = Chain();
  auto turnaround = MeanTurnaroundTime(chain);
  ASSERT_TRUE(turnaround.ok());
  double prev_completed = 0.0;
  for (double factor : {0.1, 0.5, 1.0, 3.0, 10.0}) {
    auto dist = TransientDistribution(chain, *turnaround * factor);
    ASSERT_TRUE(dist.ok());
    double sum = 0.0;
    for (double v : *dist) {
      EXPECT_GE(v, -1e-10);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0, 1e-8);
    const double completed = (*dist)[chain.absorbing_state()];
    EXPECT_GE(completed, prev_completed - 1e-10);
    prev_completed = completed;
  }
  // By 10x the mean turnaround, most instances are done (Markov bound
  // guarantees >= 0.9; in practice much more).
  EXPECT_GE(prev_completed, 0.9);
}

TEST_P(RandomChainProperty, StepBoundConsistentWithDistribution) {
  // After z_max(0.99) uniformized steps the absorption probability at the
  // corresponding expected time is meaningful; cheaper sanity: bound is
  // positive and increases with confidence.
  const AbsorbingCtmc chain = Chain();
  auto z95 = AbsorptionStepBound(chain, 0.95);
  auto z99 = AbsorptionStepBound(chain, 0.99);
  ASSERT_TRUE(z95.ok());
  ASSERT_TRUE(z99.ok());
  EXPECT_GE(*z99, *z95);
  EXPECT_GT(*z99, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomChainProperty, ::testing::Range(0, 24));

}  // namespace
}  // namespace wfms::markov
