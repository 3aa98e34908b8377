// Oracle and metamorphic tests for the transient-block solver
// (markov/absorbing_solve.h). On seeded random acyclic and cyclic chains
// the sparse paths — topological substitution and Gauss-Seidel — must
// agree with dense LU to 1e-10 relative for the mean and second moment of
// the time to absorption, the expected visits and R_t.

#include "markov/absorbing_solve.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <vector>

#include "common/random.h"
#include "linalg/sparse_matrix.h"
#include "markov/first_passage.h"
#include "markov/first_passage_moments.h"
#include "markov/phase_type.h"
#include "markov/transient.h"
#include "statechart/parser.h"
#include "statechart/to_ctmc.h"

namespace wfms::markov {
namespace {

using linalg::Vector;

constexpr double kOracleTolerance = 1e-10;

/// Seeded random absorbing chain of n transient states. The states are
/// ranked by a random permutation of the chain indices (the absorbing
/// state sits at a random index too); each rank jumps forward to up to
/// three later ranks or straight to absorption, so the chain is acyclic.
/// With `loops`, some ranks also jump back to an earlier one (rank 1
/// always does). Residence times span 1e-9 (control states) to 1e3.
AbsorbingCtmc RandomChain(size_t n, uint64_t seed, bool loops) {
  Rng rng(seed);
  const size_t total = n + 1;
  std::vector<size_t> index(total);
  std::iota(index.begin(), index.end(), size_t{0});
  for (size_t i = total - 1; i > 0; --i) {
    std::swap(index[i], index[rng.NextUint64(i + 1)]);
  }
  // index[r] is the chain state of rank r; rank n is the absorbing state.
  // The initial state has rank 0.
  linalg::SparseMatrixBuilder p(total, total);
  Vector h(total, 0.0);
  std::vector<std::string> names(total);
  for (size_t r = 0; r < n; ++r) {
    const size_t i = index[r];
    names[i] = "s" + std::to_string(r);
    h[i] = rng.NextBernoulli(0.2) ? 1e-9
                                  : std::pow(10.0, rng.NextDouble(-3, 3));
    std::vector<std::pair<size_t, double>> out;
    const size_t fan = 1 + rng.NextUint64(3);
    // With loops every rank also reaches the next, so a back edge closes
    // a cycle.
    if (loops) out.emplace_back(r + 1, rng.NextDouble(0.1, 1.0));
    for (size_t f = 0; f < fan; ++f) {
      const size_t target = r + 1 + rng.NextUint64(n - r);  // in (r, n]
      out.emplace_back(target, rng.NextDouble(0.1, 1.0));
    }
    if ((loops && r > 0 && rng.NextBernoulli(0.3)) || (loops && r == 1)) {
      out.emplace_back(rng.NextUint64(r), rng.NextDouble(0.05, 0.6));
    }
    double sum = 0.0;
    for (const auto& [target, w] : out) sum += w;
    for (const auto& [target, w] : out) p.Add(i, index[target], w / sum);
  }
  names[index[n]] = "A";
  h[index[n]] = kInfiniteResidence;
  auto chain = AbsorbingCtmc::Create(std::move(p).Build(), std::move(h),
                                     std::move(names), index[0], index[n]);
  EXPECT_TRUE(chain.ok()) << chain.status();
  return *std::move(chain);
}

/// Norm-wise relative agreement: |got_i - want_i| <= tol * max_j |want_j|.
/// (LU itself resolves an entry far below the largest only to that norm.)
void ExpectRelativelyEqual(const Vector& got, const Vector& want, double tol,
                           const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  double scale = 0.0;
  for (double w : want) scale = std::max(scale, std::fabs(w));
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_LE(std::fabs(got[i] - want[i]), tol * scale)
        << what << " entry " << i << ": " << got[i] << " vs " << want[i];
  }
}

/// Dense-LU oracle of every quantity the sparse paths produce.
struct Oracle {
  Vector mean;
  Vector second_moment;
  Vector visits;
};

Oracle DenseOracle(const AbsorbingCtmc& chain) {
  Oracle oracle;
  auto mean = MeanFirstPassageTimes(chain, FirstPassageMethod::kLu);
  EXPECT_TRUE(mean.ok()) << mean.status();
  oracle.mean = *mean;
  Vector rhs(chain.num_states(), 0.0);
  for (size_t i = 0; i < rhs.size(); ++i) {
    if (i != chain.absorbing_state()) {
      rhs[i] = 2.0 * chain.residence_times()[i] * oracle.mean[i];
    }
  }
  auto second = SolveTransientSystem(chain, SystemSide::kColumn, rhs,
                                     TransientSolver::kDenseLu);
  EXPECT_TRUE(second.ok()) << second.status();
  oracle.second_moment = *second;
  Vector start(chain.num_states(), 0.0);
  start[chain.initial_state()] = 1.0;
  auto visits = SolveTransientSystem(chain, SystemSide::kRow, start,
                                     TransientSolver::kDenseLu);
  EXPECT_TRUE(visits.ok()) << visits.status();
  oracle.visits = *visits;
  return oracle;
}

void ExpectMatchesDenseOracle(const AbsorbingCtmc& chain) {
  const Oracle oracle = DenseOracle(chain);
  auto moments = FirstPassageMoments(chain);
  ASSERT_TRUE(moments.ok()) << moments.status();
  ExpectRelativelyEqual(moments->mean, oracle.mean, kOracleTolerance, "mean");
  ExpectRelativelyEqual(moments->second_moment, oracle.second_moment,
                        kOracleTolerance, "second moment");
  auto visits = ExpectedStateVisits(chain);
  ASSERT_TRUE(visits.ok()) << visits.status();
  ExpectRelativelyEqual(*visits, oracle.visits, kOracleTolerance, "visits");
  // R_t and E[T^2] from the initial state, each relative to itself.
  auto turnaround = TurnaroundTimeMoments(chain);
  ASSERT_TRUE(turnaround.ok()) << turnaround.status();
  const size_t s0 = chain.initial_state();
  EXPECT_LE(std::fabs(turnaround->mean - oracle.mean[s0]),
            kOracleTolerance * oracle.mean[s0]);
  EXPECT_LE(std::fabs(turnaround->second_moment - oracle.second_moment[s0]),
            kOracleTolerance * oracle.second_moment[s0]);
}

class AcyclicChainOracle : public ::testing::TestWithParam<int> {};

TEST_P(AcyclicChainOracle, TopologicalSolveMatchesDenseLu) {
  const auto seed = static_cast<uint64_t>(GetParam());
  const AbsorbingCtmc chain = RandomChain(1 + seed % 60, 7000 + seed, false);
  ASSERT_TRUE(chain.acyclic());
  ExpectMatchesDenseOracle(chain);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AcyclicChainOracle, ::testing::Range(0, 200));

class CyclicChainOracle : public ::testing::TestWithParam<int> {};

TEST_P(CyclicChainOracle, GaussSeidelMatchesDenseLu) {
  const auto seed = static_cast<uint64_t>(GetParam());
  const AbsorbingCtmc chain = RandomChain(2 + seed % 40, 9000 + seed, true);
  ASSERT_FALSE(chain.acyclic());
  ExpectMatchesDenseOracle(chain);
  // The iteration itself converges here; the dense LU fallback of the
  // default path is not what the oracle above measured.
  const Oracle oracle = DenseOracle(chain);
  auto mean = SolveTransientSystem(chain, SystemSide::kColumn,
                                   chain.residence_times(),
                                   TransientSolver::kGaussSeidel);
  ASSERT_TRUE(mean.ok()) << mean.status();
  ExpectRelativelyEqual(*mean, oracle.mean, kOracleTolerance, "mean");
  Vector start(chain.num_states(), 0.0);
  start[chain.initial_state()] = 1.0;
  auto visits = SolveTransientSystem(chain, SystemSide::kRow, start,
                                     TransientSolver::kGaussSeidel);
  ASSERT_TRUE(visits.ok()) << visits.status();
  ExpectRelativelyEqual(*visits, oracle.visits, kOracleTolerance, "visits");
}

INSTANTIATE_TEST_SUITE_P(Seeds, CyclicChainOracle, ::testing::Range(0, 40));

class AcyclicChainPaths : public ::testing::TestWithParam<int> {};

TEST_P(AcyclicChainPaths, GaussSeidelAgreesWithTopologicalSolve) {
  // On a DAG both sparse paths are exact; they must agree.
  const auto seed = static_cast<uint64_t>(GetParam());
  const AbsorbingCtmc chain = RandomChain(1 + seed % 60, 7000 + seed, false);
  Vector start(chain.num_states(), 0.0);
  start[chain.initial_state()] = 1.0;
  for (SystemSide side : {SystemSide::kColumn, SystemSide::kRow}) {
    const Vector& b =
        side == SystemSide::kColumn ? chain.residence_times() : start;
    auto topological = SolveTransientSystem(chain, side, b);
    auto gauss_seidel =
        SolveTransientSystem(chain, side, b, TransientSolver::kGaussSeidel);
    ASSERT_TRUE(topological.ok()) << topological.status();
    ASSERT_TRUE(gauss_seidel.ok()) << gauss_seidel.status();
    ExpectRelativelyEqual(*gauss_seidel, *topological, kOracleTolerance,
                          side == SystemSide::kColumn ? "mean" : "visits");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AcyclicChainPaths, ::testing::Range(0, 50));

class ResidenceScaling : public ::testing::TestWithParam<int> {};

TEST_P(ResidenceScaling, ScalingResidenceTimesScalesTurnaround) {
  // T scales with every H_i: R_t by c, E[T^2] by c^2, visits not at all.
  const auto seed = static_cast<uint64_t>(GetParam());
  const bool loops = seed % 2 == 1;
  const AbsorbingCtmc chain = RandomChain(2 + seed % 30, 500 + seed, loops);
  for (double c : {1e-3, 7.5, 3e4}) {
    Vector h = chain.residence_times();
    for (double& x : h) x *= c;
    std::vector<std::string> names;
    for (size_t i = 0; i < chain.num_states(); ++i) {
      names.push_back(chain.state_name(i));
    }
    auto scaled = AbsorbingCtmc::Create(chain.transition_probabilities(), h,
                                        names, chain.initial_state(),
                                        chain.absorbing_state());
    ASSERT_TRUE(scaled.ok()) << scaled.status();
    auto base = TurnaroundTimeMoments(chain);
    auto moments = TurnaroundTimeMoments(*scaled);
    ASSERT_TRUE(base.ok());
    ASSERT_TRUE(moments.ok());
    EXPECT_NEAR(moments->mean, c * base->mean, 1e-12 * c * base->mean);
    EXPECT_NEAR(moments->second_moment, c * c * base->second_moment,
                1e-11 * c * c * base->second_moment);
    auto visits = ExpectedStateVisits(*scaled);
    auto base_visits = ExpectedStateVisits(chain);
    ASSERT_TRUE(visits.ok());
    ASSERT_TRUE(base_visits.ok());
    ExpectRelativelyEqual(*visits, *base_visits, 1e-12, "visits");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ResidenceScaling, ::testing::Range(0, 20));

TEST(AbsorbingSolveTest, ChartTurnaroundScalesWithResidenceTimes) {
  // Through the whole mapping: nested composites take the maximum of
  // their subcharts' turnarounds, so R_t of the top chart scales by c.
  auto charts_at = [](double c) {
    auto r = [c](double x) { return std::to_string(x * c); };
    return statechart::ParseCharts(
        "chart Leaf\n  state W activity=w residence=" + r(3) +
        "\n  state D residence=" + r(0.5) +
        "\n  initial W\n  final D\n  trans W -> D prob=1\nend\n"
        "chart Loop\n  state A activity=a residence=" + r(2) +
        "\n  state B activity=b residence=" + r(7) +
        "\n  state E residence=" + r(0.25) +
        "\n  initial A\n  final E\n  trans A -> B prob=1\n"
        "  trans B -> A prob=0.4\n  trans B -> E prob=0.6\nend\n"
        "chart Top\n  compound P subcharts=Leaf,Loop\n"
        "  compound Q subcharts=Leaf\n  state X residence=" + r(1) +
        "\n  initial P\n  final X\n  trans P -> Q prob=1\n"
        "  trans Q -> X prob=1\nend\n");
  };
  auto base_charts = charts_at(1.0);
  ASSERT_TRUE(base_charts.ok()) << base_charts.status();
  auto base = statechart::MapChartToCtmc(*base_charts, "Top");
  ASSERT_TRUE(base.ok()) << base.status();
  for (double c : {0.01, 16.0, 250.0}) {
    auto charts = charts_at(c);
    ASSERT_TRUE(charts.ok()) << charts.status();
    auto mapped = statechart::MapChartToCtmc(*charts, "Top");
    ASSERT_TRUE(mapped.ok()) << mapped.status();
    EXPECT_NEAR(mapped->turnaround_time, c * base->turnaround_time,
                1e-12 * c * base->turnaround_time)
        << "c=" << c;
  }
}

TEST(AbsorbingSolveTest, SolveOrderPutsSuccessorsFirstOnDags) {
  const AbsorbingCtmc chain = RandomChain(40, 11, false);
  ASSERT_TRUE(chain.acyclic());
  const std::vector<size_t>& order = chain.solve_order();
  ASSERT_EQ(order.size(), chain.num_states() - 1);
  std::vector<size_t> position(chain.num_states(), 0);
  for (size_t r = 0; r < order.size(); ++r) position[order[r]] = r;
  const auto& p = chain.transition_probabilities();
  for (size_t i : order) {
    for (size_t k = p.row_offsets()[i]; k < p.row_offsets()[i + 1]; ++k) {
      const size_t j = p.col_indices()[k];
      if (j == chain.absorbing_state()) continue;
      EXPECT_LT(position[j], position[i]) << i << " -> " << j;
    }
  }
}

TEST(AbsorbingSolveTest, RightHandSideSizeMismatchRejected) {
  const AbsorbingCtmc chain = RandomChain(5, 3, false);
  EXPECT_FALSE(
      SolveTransientSystem(chain, SystemSide::kColumn, Vector(2, 1.0)).ok());
}

TEST(AbsorbingSolveTest, ErlangExpansionKeepsAcyclicChainsExact) {
  // The phase-type expansion on the CSR chain: stages form a path, so an
  // acyclic chain stays acyclic and keeps its mean turnaround.
  const AbsorbingCtmc chain = RandomChain(12, 21, false);
  std::vector<int> stages(chain.num_states(), 1);
  for (size_t i = 0; i < stages.size(); ++i) {
    if (i != chain.absorbing_state()) stages[i] = 1 + static_cast<int>(i % 4);
  }
  auto expansion = ExpandErlangStages(chain, stages);
  ASSERT_TRUE(expansion.ok()) << expansion.status();
  EXPECT_TRUE(expansion->chain.acyclic());
  auto r0 = MeanTurnaroundTime(chain);
  auto r1 = MeanTurnaroundTime(expansion->chain);
  ASSERT_TRUE(r0.ok());
  ASSERT_TRUE(r1.ok());
  EXPECT_NEAR(*r1, *r0, 1e-10 * *r0);
  ExpectMatchesDenseOracle(expansion->chain);
}

}  // namespace
}  // namespace wfms::markov
