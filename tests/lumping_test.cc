// Property sweep for the lumping-based model reduction: on randomly
// generated exactly-lumpable CTMCs, the lumped solve must agree with the
// unlumped solve on every aggregated (per-block) measure to within 1e-10,
// and the expanded full-length vector must satisfy the full chain's
// balance equations. Plus unit coverage of the partition refinement, the
// quotient construction, and the exchangeable-dimension seed labels.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/random.h"
#include "markov/ctmc.h"
#include "markov/lumping.h"
#include "markov/state_space.h"
#include "markov/steady_state.h"

namespace wfms::markov {
namespace {

using linalg::Vector;

struct LumpableChain {
  Ctmc chain;
  /// The partition the chain was constructed around; the refinement may
  /// legitimately find a *coarser* stable partition, never a finer valid
  /// one that disagrees on aggregates.
  std::vector<uint32_t> built_block_of;
  size_t built_blocks = 0;
};

/// Random exactly-lumpable chain: draw a random irreducible quotient on m
/// blocks, give every block a size, and blow each quotient arc B -> C of
/// rate r up into |B| * |C| arcs of rate r / |C|. Every state in B then
/// sends exactly r into C (ordinary lumpability) and every state in C
/// receives exactly |B| r / |C| from B (exact lumpability) — both
/// bit-for-bit, since all the expanded arcs share one double value.
LumpableChain MakeLumpableChain(uint64_t seed) {
  Rng rng(seed);
  const size_t m = 3 + rng.NextUint64(6);  // quotient blocks
  std::vector<size_t> block_size(m), block_start(m);
  size_t n = 0;
  for (size_t b = 0; b < m; ++b) {
    block_start[b] = n;
    block_size[b] = 1 + rng.NextUint64(4);
    n += block_size[b];
  }

  // Quotient rates: a cycle guarantees irreducibility, extra arcs add
  // structure.
  std::vector<std::vector<double>> q(m, std::vector<double>(m, 0.0));
  for (size_t b = 0; b < m; ++b) {
    q[b][(b + 1) % m] = rng.NextDouble(0.2, 4.0);
    for (size_t c = 0; c < m; ++c) {
      if (c == b || q[b][c] != 0.0) continue;
      if (rng.NextBernoulli(0.4)) q[b][c] = rng.NextDouble(0.1, 2.0);
    }
  }

  std::vector<uint32_t> built_block_of(n);
  CtmcBuilder builder(n);
  for (size_t b = 0; b < m; ++b) {
    for (size_t i = 0; i < block_size[b]; ++i) {
      built_block_of[block_start[b] + i] = static_cast<uint32_t>(b);
    }
    for (size_t c = 0; c < m; ++c) {
      if (q[b][c] == 0.0) continue;
      const double per_target = q[b][c] / static_cast<double>(block_size[c]);
      for (size_t i = 0; i < block_size[b]; ++i) {
        for (size_t j = 0; j < block_size[c]; ++j) {
          EXPECT_TRUE(builder
                          .AddTransition(block_start[b] + i,
                                         block_start[c] + j, per_target)
                          .ok());
        }
      }
    }
  }
  auto chain = builder.Build();
  EXPECT_TRUE(chain.ok()) << chain.status();
  return LumpableChain{*std::move(chain), std::move(built_block_of), m};
}

TEST(LumpingTest, LumpedSteadyStateMatchesUnlumpedOnAggregates) {
  for (uint64_t trial = 0; trial < 100; ++trial) {
    const LumpableChain problem = MakeLumpableChain(100 + trial);
    const size_t n = problem.chain.num_states();

    SteadyStateOptions direct;
    direct.lumping = LumpingMode::kOff;
    auto unlumped = SolveSteadyState(problem.chain, direct);
    ASSERT_TRUE(unlumped.ok()) << unlumped.status();
    ASSERT_FALSE(unlumped->lumping_applied);

    SteadyStateOptions lumped_options;
    lumped_options.lumping = LumpingMode::kOn;
    auto lumped = SolveSteadyState(problem.chain, lumped_options);
    ASSERT_TRUE(lumped.ok()) << lumped.status();
    ASSERT_EQ(lumped->pi.size(), n);

    // The construction leaves at least one genuinely mergeable block in
    // almost every trial; when states did merge, the solver must say so.
    if (lumped->lumping_applied) {
      EXPECT_LT(lumped->lumped_states, n);
      EXPECT_GT(lumped->lumped_states, 0u);
    }

    // Aggregated measures (block probabilities) must agree to 1e-10.
    std::vector<double> agg_unlumped(problem.built_blocks, 0.0);
    std::vector<double> agg_lumped(problem.built_blocks, 0.0);
    for (size_t i = 0; i < n; ++i) {
      agg_unlumped[problem.built_block_of[i]] += unlumped->pi[i];
      agg_lumped[problem.built_block_of[i]] += lumped->pi[i];
    }
    for (size_t b = 0; b < problem.built_blocks; ++b) {
      ASSERT_NEAR(agg_lumped[b], agg_unlumped[b], 1e-10)
          << "trial " << trial << " block " << b << " (lumping_applied="
          << lumped->lumping_applied << ")";
    }
  }
}

TEST(LumpingTest, PartitionRefinementFindsConstructedBlocks) {
  for (uint64_t trial = 0; trial < 20; ++trial) {
    const LumpableChain problem = MakeLumpableChain(900 + trial);
    const auto incoming = problem.chain.rates().Transposed();
    auto partition = FindLumpablePartition(problem.chain, incoming);
    ASSERT_TRUE(partition.ok()) << partition.status();
    // The refinement converges to a *stable* partition at least as coarse
    // as singletons; it must never produce more blocks than states, and
    // expanding + restricting through it must round-trip block masses.
    ASSERT_EQ(partition->num_states(), problem.chain.num_states());
    ASSERT_LE(partition->num_blocks(), problem.chain.num_states());
    size_t member_total = 0;
    for (uint32_t s : partition->block_size) member_total += s;
    EXPECT_EQ(member_total, partition->num_states());

    Vector quotient_pi(partition->num_blocks());
    Rng rng(40 + trial);
    double sum = 0.0;
    for (double& v : quotient_pi) {
      v = rng.NextDouble(0.1, 1.0);
      sum += v;
    }
    for (double& v : quotient_pi) v /= sum;
    const Vector full = ExpandUniform(*partition, quotient_pi);
    const Vector back = RestrictToQuotient(*partition, full);
    for (size_t b = 0; b < quotient_pi.size(); ++b) {
      EXPECT_NEAR(back[b], quotient_pi[b], 1e-14);
    }
  }
}

TEST(LumpingTest, QuotientPreservesTotalRatesOfRepresentatives) {
  const LumpableChain problem = MakeLumpableChain(4242);
  const auto incoming = problem.chain.rates().Transposed();
  auto partition = FindLumpablePartition(problem.chain, incoming);
  ASSERT_TRUE(partition.ok());
  auto quotient = BuildQuotient(problem.chain, *partition);
  ASSERT_TRUE(quotient.ok()) << quotient.status();
  ASSERT_EQ(quotient->num_states(), partition->num_blocks());
  // Each quotient state's exit rate equals its representative's rate out
  // of its own block (within-block arcs vanish).
  for (size_t i = 0; i < problem.chain.num_states(); ++i) {
    const uint32_t b = partition->block_of[i];
    double cross_block = 0.0;
    const auto& offsets = problem.chain.rates().row_offsets();
    const auto& cols = problem.chain.rates().col_indices();
    const auto& values = problem.chain.rates().values();
    for (size_t k = offsets[i]; k < offsets[i + 1]; ++k) {
      if (partition->block_of[cols[k]] != b) cross_block += values[k];
    }
    EXPECT_NEAR(quotient->exit_rates()[b], cross_block, 1e-12)
        << "state " << i;
  }
}

TEST(LumpingTest, SeedLabelsSplitStatesTheSeedDistinguishes) {
  // Two states with identical dynamics but different seed labels must not
  // merge: the seed is a hard constraint, not a hint.
  CtmcBuilder builder(2);
  ASSERT_TRUE(builder.AddTransition(0, 1, 1.0).ok());
  ASSERT_TRUE(builder.AddTransition(1, 0, 1.0).ok());
  auto chain = builder.Build();
  ASSERT_TRUE(chain.ok());
  const auto incoming = chain->rates().Transposed();

  auto unseeded = FindLumpablePartition(*chain, incoming);
  ASSERT_TRUE(unseeded.ok());
  EXPECT_EQ(unseeded->num_blocks(), 1u);

  const std::vector<uint32_t> seed = {0, 1};
  LumpingOptions options;
  options.seed_labels = &seed;
  auto seeded = FindLumpablePartition(*chain, incoming, options);
  ASSERT_TRUE(seeded.ok());
  EXPECT_EQ(seeded->num_blocks(), 2u);
}

TEST(LumpingTest, ExchangeableStateLabelsCanonicalizeOrbits) {
  // Two exchangeable dimensions (same signature, same bound): states
  // (a, b) and (b, a) share a label; a third, distinct dimension breaks
  // the symmetry.
  auto space = MixedRadixSpace::Create({2, 2, 1});
  ASSERT_TRUE(space.ok());
  auto labels = ExchangeableStateLabels(*space, {7, 7, 9});
  ASSERT_TRUE(labels.ok()) << labels.status();
  ASSERT_EQ(labels->size(), space->size());
  const size_t ab = space->EncodeUnchecked({1, 2, 0});
  const size_t ba = space->EncodeUnchecked({2, 1, 0});
  const size_t other = space->EncodeUnchecked({2, 1, 1});
  EXPECT_EQ((*labels)[ab], (*labels)[ba]);
  EXPECT_NE((*labels)[ab], (*labels)[other]);

  // Mismatched bounds within a signature class are an error.
  auto bad = ExchangeableStateLabels(*space, {7, 9, 7});
  EXPECT_FALSE(bad.ok());
}

/// Reference for ExchangeableStateLabels: the canonical state of every
/// state (components sorted within each signature class), labelled densely
/// in ascending state order through a hash map.
std::vector<uint32_t> ReferenceLabels(const MixedRadixSpace& space,
                                      const std::vector<uint64_t>& signature) {
  const size_t k = space.num_dimensions();
  std::unordered_map<size_t, uint32_t> dense;
  std::vector<uint32_t> labels(space.size());
  for (size_t i = 0; i < space.size(); ++i) {
    StateVector state(k);
    for (size_t j = 0; j < k; ++j) state[j] = space.Component(i, j);
    StateVector canonical = state;
    for (size_t j = 0; j < k; ++j) {
      std::vector<size_t> members;
      for (size_t l = 0; l < k; ++l) {
        if (signature[l] == signature[j]) members.push_back(l);
      }
      std::vector<int> values;
      for (size_t l : members) values.push_back(state[l]);
      std::sort(values.begin(), values.end());
      for (size_t c = 0; c < members.size(); ++c) {
        canonical[members[c]] = values[c];
      }
    }
    const auto [it, inserted] = dense.emplace(
        space.EncodeUnchecked(canonical), static_cast<uint32_t>(dense.size()));
    labels[i] = it->second;
  }
  return labels;
}

TEST(LumpingTest, ExchangeableStateLabelsMatchMapReference) {
  Rng rng(314);
  for (int trial = 0; trial < 60; ++trial) {
    // Up to five dimensions drawn from three signature classes; every
    // class has one bound, so the labelling is well defined.
    const size_t k = 1 + rng.NextUint64(5);
    std::vector<int> class_bound(3);
    for (int& b : class_bound) b = static_cast<int>(rng.NextUint64(4));
    std::vector<uint64_t> signature(k);
    std::vector<int> bounds(k);
    for (size_t j = 0; j < k; ++j) {
      signature[j] = rng.NextUint64(3);
      bounds[j] = class_bound[signature[j]];
    }
    auto space = MixedRadixSpace::Create(bounds);
    ASSERT_TRUE(space.ok());
    auto labels = ExchangeableStateLabels(*space, signature);
    ASSERT_TRUE(labels.ok()) << labels.status();
    EXPECT_EQ(*labels, ReferenceLabels(*space, signature)) << "trial " << trial;
  }
}

TEST(LumpingTest, ExchangeableStateLabelsAreIdentityWithoutSharedSignature) {
  auto space = MixedRadixSpace::Create({2, 3, 1, 4});
  ASSERT_TRUE(space.ok());
  auto labels = ExchangeableStateLabels(*space, {5, 1, 9, 2});
  ASSERT_TRUE(labels.ok());
  std::vector<uint32_t> identity(space->size());
  std::iota(identity.begin(), identity.end(), uint32_t{0});
  EXPECT_EQ(*labels, identity);
}

TEST(LumpingTest, SeedSeparatingEveryStateEndsTrivial) {
  metrics::Counter& trivial = metrics::MetricsRegistry::Global().GetCounter(
      "wfms_markov_lumping_trivial_total");
  metrics::Counter& attempts = metrics::MetricsRegistry::Global().GetCounter(
      "wfms_markov_lumping_attempts_total");
  for (uint64_t trial = 0; trial < 10; ++trial) {
    const LumpableChain problem = MakeLumpableChain(700 + trial);
    const size_t n = problem.chain.num_states();

    SteadyStateOptions off;
    off.lumping = LumpingMode::kOff;
    auto direct = SolveSteadyState(problem.chain, off);
    ASSERT_TRUE(direct.ok()) << direct.status();

    // Distinct labels in any order (here reversed) leave nothing to merge.
    std::vector<uint32_t> seed(n);
    for (size_t i = 0; i < n; ++i) seed[i] = static_cast<uint32_t>(n - 1 - i);
    SteadyStateOptions on;
    on.lumping = LumpingMode::kOn;
    on.lumping_seed = &seed;
    const uint64_t trivial_before = trivial.value();
    const uint64_t attempts_before = attempts.value();
    auto seeded = SolveSteadyState(problem.chain, on);
    ASSERT_TRUE(seeded.ok()) << seeded.status();
    EXPECT_EQ(trivial.value() - trivial_before, 1u);
    EXPECT_EQ(attempts.value() - attempts_before, 1u);
    EXPECT_FALSE(seeded->lumping_applied);
    ASSERT_EQ(seeded->pi.size(), n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(std::bit_cast<uint64_t>(seeded->pi[i]),
                std::bit_cast<uint64_t>(direct->pi[i]))
          << "trial " << trial << " state " << i;
    }
  }
}

TEST(LumpingTest, AutoModeSkipsSmallChains) {
  const LumpableChain problem = MakeLumpableChain(55);
  SteadyStateOptions options;
  options.lumping = LumpingMode::kAuto;  // default threshold is 32768 states
  auto solved = SolveSteadyState(problem.chain, options);
  ASSERT_TRUE(solved.ok());
  EXPECT_FALSE(solved->lumping_applied);
}

TEST(LumpingTest, LumpingPassRunsFollowsModeAndThreshold) {
  SteadyStateOptions options;
  options.lumping_min_states = 100;
  options.lumping = LumpingMode::kOff;
  EXPECT_FALSE(LumpingPassRuns(options, 1000));
  options.lumping = LumpingMode::kAuto;
  EXPECT_FALSE(LumpingPassRuns(options, 99));
  EXPECT_TRUE(LumpingPassRuns(options, 100));
  options.lumping = LumpingMode::kOn;
  EXPECT_TRUE(LumpingPassRuns(options, 2));
  EXPECT_FALSE(LumpingPassRuns(options, 1));
}

TEST(LumpingTest, ModeNamesRoundTrip) {
  EXPECT_STREQ(LumpingModeName(LumpingMode::kOff), "off");
  EXPECT_STREQ(LumpingModeName(LumpingMode::kAuto), "auto");
  EXPECT_STREQ(LumpingModeName(LumpingMode::kOn), "on");
}

}  // namespace
}  // namespace wfms::markov
