#include "avail/availability_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/time_units.h"
#include "common/trace.h"
#include "workflow/scenarios.h"

namespace wfms::avail {
namespace {

using workflow::Configuration;

AvailabilityModel MakeEpModel(AvailabilityOptions options = {}) {
  auto env = workflow::EpEnvironment();
  EXPECT_TRUE(env.ok());
  auto model = AvailabilityModel::Create(env->servers, options);
  EXPECT_TRUE(model.ok()) << model.status();
  return *std::move(model);
}

// --- The §5.2 numeric example -------------------------------------------

TEST(AvailabilityPaperTest, NoReplicationGives71HoursDowntimePerYear) {
  const AvailabilityModel model = MakeEpModel();
  auto report = model.Evaluate(Configuration::Ones(3));
  ASSERT_TRUE(report.ok()) << report.status();
  const double hours = report->downtime_minutes_per_year / 60.0;
  // Paper: "an expected downtime of 71 hours per year".
  EXPECT_NEAR(hours, 71.0, 1.5);
}

TEST(AvailabilityPaperTest, ThreeWayReplicationGivesTenSecondsPerYear) {
  const AvailabilityModel model = MakeEpModel();
  auto report = model.Evaluate(Configuration::Uniform(3, 3));
  ASSERT_TRUE(report.ok());
  const double seconds = report->downtime_minutes_per_year * 60.0;
  // Paper: "the system downtime can be brought down to 10 seconds per
  // year".
  EXPECT_NEAR(seconds, 10.0, 1.5);
}

TEST(AvailabilityPaperTest, AsymmetricConfigStaysUnderOneMinute) {
  // Paper: 3 replicas of the most unreliable type (application server) and
  // 2 of each other bound the unavailability by less than a minute.
  const AvailabilityModel model = MakeEpModel();
  auto report = model.Evaluate(Configuration({2, 2, 3}));
  ASSERT_TRUE(report.ok());
  EXPECT_LT(report->downtime_minutes_per_year, 1.0);
  // ... and it is much cheaper than 3-way replication of everything while
  // being within an order of magnitude of its downtime.
  EXPECT_EQ(Configuration({2, 2, 3}).total_servers(), 7);
}

// --- Structural properties ----------------------------------------------

TEST(AvailabilityTest, StateProbabilitiesFormDistribution) {
  const AvailabilityModel model = MakeEpModel();
  auto report = model.Evaluate(Configuration({2, 1, 2}));
  ASSERT_TRUE(report.ok());
  double sum = 0.0;
  for (double p : report->state_probabilities) {
    EXPECT_GE(p, -1e-12);
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_EQ(report->state_probabilities.size(), 3u * 2u * 3u);
}

TEST(AvailabilityTest, CtmcMatchesProductFormClosedSolution) {
  const AvailabilityModel model = MakeEpModel();
  const Configuration config({2, 2, 3});
  auto report = model.Evaluate(config);
  ASSERT_TRUE(report.ok());
  auto product = model.ProductFormStateProbabilities(config, report->space);
  ASSERT_TRUE(product.ok());
  for (size_t i = 0; i < report->state_probabilities.size(); ++i) {
    EXPECT_NEAR(report->state_probabilities[i], (*product)[i], 1e-9)
        << "state " << report->space.ToString(i);
  }
}

TEST(AvailabilityTest, ProductFormFastPathMatchesCtmc) {
  AvailabilityOptions fast;
  fast.use_product_form = true;
  const AvailabilityModel ctmc_model = MakeEpModel();
  const AvailabilityModel fast_model = MakeEpModel(fast);
  for (const Configuration& config :
       {Configuration({1, 1, 1}), Configuration({3, 2, 1}),
        Configuration({2, 3, 4})}) {
    auto a = ctmc_model.Evaluate(config);
    auto b = fast_model.Evaluate(config);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_NEAR(a->availability, b->availability, 1e-10)
        << config.ToString();
  }
}

TEST(AvailabilityTest, ExpectedUpServersNearConfigured) {
  const AvailabilityModel model = MakeEpModel();
  auto report = model.Evaluate(Configuration({2, 2, 2}));
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->expected_up_servers.size(), 3u);
  for (size_t x = 0; x < 3; ++x) {
    EXPECT_GT(report->expected_up_servers[x], 1.95);
    EXPECT_LE(report->expected_up_servers[x], 2.0);
  }
  // The app server (daily failures) loses the most capacity.
  EXPECT_LT(report->expected_up_servers[2], report->expected_up_servers[0]);
}

TEST(AvailabilityTest, MoreReplicasNeverHurt) {
  const AvailabilityModel model = MakeEpModel();
  double prev_unavailability = 1.0;
  for (int y = 1; y <= 4; ++y) {
    auto report = model.Evaluate(Configuration::Uniform(3, y));
    ASSERT_TRUE(report.ok());
    EXPECT_LT(report->unavailability, prev_unavailability);
    prev_unavailability = report->unavailability;
  }
}

TEST(AvailabilityTest, ReplicatingTheWeakestTypeHelpsMost) {
  const AvailabilityModel model = MakeEpModel();
  // Adding a replica to the daily-failing app server beats adding one to
  // the monthly-failing comm server.
  auto base = model.Evaluate(Configuration({1, 1, 1}));
  auto plus_comm = model.Evaluate(Configuration({2, 1, 1}));
  auto plus_app = model.Evaluate(Configuration({1, 1, 2}));
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(plus_comm.ok());
  ASSERT_TRUE(plus_app.ok());
  EXPECT_LT(plus_app->unavailability, plus_comm->unavailability);
  EXPECT_LT(plus_comm->unavailability, base->unavailability);
}

TEST(AvailabilityTest, SingleCrewRepairIsWorse) {
  AvailabilityOptions crew;
  crew.repair_policy = RepairPolicy::kSingleCrewPerType;
  const AvailabilityModel independent = MakeEpModel();
  const AvailabilityModel single_crew = MakeEpModel(crew);
  const Configuration config({3, 3, 3});
  auto a = independent.Evaluate(config);
  auto b = single_crew.Evaluate(config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_GT(b->unavailability, a->unavailability);
}

TEST(AvailabilityTest, SingleCrewCtmcMatchesItsProductForm) {
  AvailabilityOptions crew;
  crew.repair_policy = RepairPolicy::kSingleCrewPerType;
  const AvailabilityModel model = MakeEpModel(crew);
  const Configuration config({2, 2, 2});
  auto report = model.Evaluate(config);
  ASSERT_TRUE(report.ok());
  auto product = model.ProductFormStateProbabilities(config, report->space);
  ASSERT_TRUE(product.ok());
  for (size_t i = 0; i < report->state_probabilities.size(); ++i) {
    EXPECT_NEAR(report->state_probabilities[i], (*product)[i], 1e-9);
  }
}

TEST(AvailabilityTest, SolverMethodsAgree) {
  AvailabilityOptions lu;
  lu.solver.method = markov::SteadyStateMethod::kLu;
  AvailabilityOptions power;
  power.solver.method = markov::SteadyStateMethod::kPower;
  auto a = MakeEpModel(lu).Evaluate(Configuration({2, 2, 2}));
  auto b = MakeEpModel(power).Evaluate(Configuration({2, 2, 2}));
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_NEAR(a->availability, b->availability, 1e-9);
}

TEST(AvailabilityTest, InvalidConfigurationRejected) {
  const AvailabilityModel model = MakeEpModel();
  EXPECT_FALSE(model.Evaluate(Configuration({1, 1})).ok());
  EXPECT_FALSE(model.Evaluate(Configuration({1, 0, 1})).ok());
}

TEST(AvailabilityTest, PerTypeDistributionValidation) {
  const AvailabilityModel model = MakeEpModel();
  EXPECT_FALSE(model.PerTypeDistribution(99, 2).ok());
  auto dist = model.PerTypeDistribution(2, 2);
  ASSERT_TRUE(dist.ok());
  EXPECT_EQ(dist->size(), 3u);
}

// --- Metamorphic oracles --------------------------------------------------

/// The EP server types reordered: type i of the result is type perm[i] of
/// the EP registry.
workflow::ServerTypeRegistry PermutedEpServers(
    const std::array<size_t, 3>& perm) {
  auto env = workflow::EpEnvironment();
  EXPECT_TRUE(env.ok());
  workflow::ServerTypeRegistry servers;
  for (size_t x : perm) {
    EXPECT_TRUE(servers.AddServerType(env->servers.type(x)).ok());
  }
  return servers;
}

/// `copies` server types that all share the EP application server's
/// failure and repair rates, so they are exchangeable.
workflow::ServerTypeRegistry IdenticalServers(size_t copies) {
  auto env = workflow::EpEnvironment();
  EXPECT_TRUE(env.ok());
  workflow::ServerTypeRegistry servers;
  for (size_t x = 0; x < copies; ++x) {
    workflow::ServerType type = env->servers.type(2);
    type.name = "app" + std::to_string(x);
    EXPECT_TRUE(servers.AddServerType(type).ok());
  }
  return servers;
}

TEST(AvailabilityMetamorphicTest, PermutingServerTypesPermutesTheReport) {
  const AvailabilityModel base = MakeEpModel();
  for (const std::vector<int>& replicas :
       {std::vector<int>{2, 1, 3}, std::vector<int>{3, 3, 2},
        std::vector<int>{1, 2, 2}, std::vector<int>{4, 1, 1}}) {
    auto reference = base.Evaluate(Configuration(replicas));
    ASSERT_TRUE(reference.ok()) << reference.status();
    std::array<size_t, 3> perm = {0, 1, 2};
    do {
      auto model = AvailabilityModel::Create(PermutedEpServers(perm));
      ASSERT_TRUE(model.ok()) << model.status();
      std::vector<int> permuted(3);
      for (size_t i = 0; i < 3; ++i) permuted[i] = replicas[perm[i]];
      auto report = model->Evaluate(Configuration(permuted));
      ASSERT_TRUE(report.ok()) << report.status();
      EXPECT_NEAR(report->availability, reference->availability, 1e-15)
          << Configuration(permuted).ToString();
      for (size_t i = 0; i < 3; ++i) {
        EXPECT_NEAR(report->expected_up_servers[i],
                    reference->expected_up_servers[perm[i]], 1e-12)
            << Configuration(permuted).ToString() << " type " << i;
      }
    } while (std::next_permutation(perm.begin(), perm.end()));
  }
}

AvailabilityOptions WithLumping(markov::LumpingMode mode) {
  AvailabilityOptions options;
  options.solver.lumping = mode;
  return options;
}

TEST(AvailabilityMetamorphicTest, LumpedAgreesWithUnlumpedOnLumpableConfigs) {
  auto off = AvailabilityModel::Create(
      IdenticalServers(3), WithLumping(markov::LumpingMode::kOff));
  auto on = AvailabilityModel::Create(IdenticalServers(3),
                                      WithLumping(markov::LumpingMode::kOn));
  ASSERT_TRUE(off.ok() && on.ok());
  for (const Configuration& config :
       {Configuration({3, 3, 3}), Configuration({2, 3, 3}),
        Configuration({4, 2, 4})}) {
    auto a = off->Evaluate(config);
    auto b = on->Evaluate(config);
    ASSERT_TRUE(a.ok()) << a.status();
    ASSERT_TRUE(b.ok()) << b.status();
    EXPECT_FALSE(a->lumping_applied);
    EXPECT_TRUE(b->lumping_applied) << config.ToString();
    EXPECT_LT(b->lumped_states, a->state_probabilities.size());
    EXPECT_NEAR(b->availability, a->availability, 1e-13) << config.ToString();
    for (size_t x = 0; x < 3; ++x) {
      EXPECT_NEAR(b->expected_up_servers[x], a->expected_up_servers[x], 1e-13);
    }
  }
}

TEST(AvailabilityMetamorphicTest, LumpingIsBitIdenticalOnNonLumpableConfigs) {
  // The EP types differ pairwise, so no seed label is shared: the lumping
  // pass is counted as trivial without running.
  auto& registry = metrics::MetricsRegistry::Global();
  metrics::Counter& attempts =
      registry.GetCounter("wfms_markov_lumping_attempts_total");
  metrics::Counter& trivial =
      registry.GetCounter("wfms_markov_lumping_trivial_total");
  const AvailabilityModel off =
      MakeEpModel(WithLumping(markov::LumpingMode::kOff));
  const AvailabilityModel on =
      MakeEpModel(WithLumping(markov::LumpingMode::kOn));
  for (const Configuration& config :
       {Configuration({2, 2, 3}), Configuration({3, 3, 3}),
        Configuration({1, 4, 2})}) {
    auto a = off.Evaluate(config);
    const uint64_t attempts_before = attempts.value();
    const uint64_t trivial_before = trivial.value();
    trace::Clear();
    trace::SetEnabled(true);
    auto b = on.Evaluate(config);
    trace::SetEnabled(false);
    const std::string events = trace::ExportJson();
    trace::Clear();
    ASSERT_TRUE(a.ok()) << a.status();
    ASSERT_TRUE(b.ok()) << b.status();
    EXPECT_EQ(attempts.value() - attempts_before, 1u);
    EXPECT_EQ(trivial.value() - trivial_before, 1u);
    EXPECT_NE(events.find("markov/steady_state"), std::string::npos);
    EXPECT_EQ(events.find("markov/lumping"), std::string::npos)
        << "the lumping pass ran for " << config.ToString();
    EXPECT_FALSE(b->lumping_applied);
    EXPECT_EQ(std::bit_cast<uint64_t>(b->availability),
              std::bit_cast<uint64_t>(a->availability))
        << config.ToString();
    ASSERT_EQ(b->state_probabilities.size(), a->state_probabilities.size());
    for (size_t i = 0; i < a->state_probabilities.size(); ++i) {
      EXPECT_EQ(std::bit_cast<uint64_t>(b->state_probabilities[i]),
                std::bit_cast<uint64_t>(a->state_probabilities[i]));
    }
  }
}

}  // namespace
}  // namespace wfms::avail
