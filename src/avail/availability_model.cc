#include "avail/availability_model.h"

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/time_units.h"
#include "common/trace.h"
#include "markov/birth_death.h"
#include "markov/ctmc_transient.h"
#include "markov/ctmc.h"

namespace wfms::avail {

using linalg::Vector;
using markov::MixedRadixSpace;
using markov::StateVector;
using workflow::Configuration;

namespace {

/// Runs one availability-chain assembly under the `avail/build_ctmc` span
/// and records its wall time in wfms_avail_build_seconds.
template <typename BuildFn>
Result<markov::Ctmc> TimedChainBuild(BuildFn&& build) {
  static metrics::Histogram& build_seconds =
      metrics::MetricsRegistry::Global().GetHistogram(
          "wfms_avail_build_seconds");
  trace::TraceSpan span("avail/build_ctmc", "avail");
  const auto start = std::chrono::steady_clock::now();
  Result<markov::Ctmc> chain = build();
  build_seconds.Observe(std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count());
  return chain;
}

/// Seeds the lumping pass with canonical orbits of exchangeable dimensions,
/// those with equal `signature` ids (`distinct` of them are different).
/// With no two signatures equal the seed would give every state its own
/// label, which is already the trivial partition, so no seed is built and
/// the pass is skipped and counted as trivial.
void SeedLumpingPass(const MixedRadixSpace& space,
                     const std::vector<uint64_t>& signature, size_t distinct,
                     markov::SteadyStateOptions* options,
                     std::vector<uint32_t>* seed_storage) {
  if (distinct == signature.size()) {
    markov::CountTrivialLumpingPass();
    options->lumping = markov::LumpingMode::kOff;
    return;
  }
  auto labels = markov::ExchangeableStateLabels(space, signature);
  if (labels.ok()) {
    *seed_storage = *std::move(labels);
    options->lumping_seed = seed_storage;
  }
}

}  // namespace

std::string SiteContingency::ToString(
    const workflow::SiteTopology& topology) const {
  if (none()) return "baseline";
  std::string out;
  const size_t s = topology.num_sites();
  for (size_t a = 0; a < s; ++a) {
    if (down_sites & (uint64_t{1} << a)) {
      if (!out.empty()) out += ", ";
      out += "site " + topology.sites[a].name + " down";
    }
  }
  for (size_t a = 0; a + 1 < s; ++a) {
    for (size_t b = a + 1; b < s; ++b) {
      if (partitioned_pairs &
          (uint64_t{1} << workflow::PairIndex(a, b, s))) {
        if (!out.empty()) out += ", ";
        out += "partition " + topology.sites[a].name + "|" +
               topology.sites[b].name;
      }
    }
  }
  return out;
}

uint64_t SiteStateLayout::UpSites(const markov::MixedRadixSpace& space,
                                  size_t state) const {
  uint64_t mask = static_up_sites;
  for (size_t a = 0; a < num_sites; ++a) {
    if (site_dim[a] >= 0 &&
        space.Component(state, static_cast<size_t>(site_dim[a])) == 1) {
      mask |= uint64_t{1} << a;
    }
  }
  return mask;
}

uint64_t SiteStateLayout::Partitions(const markov::MixedRadixSpace& space,
                                     size_t state) const {
  uint64_t mask = static_partitions;
  for (size_t p = 0; p < pair_dim.size(); ++p) {
    if (pair_dim[p] >= 0 &&
        space.Component(state, static_cast<size_t>(pair_dim[p])) == 1) {
      mask |= uint64_t{1} << p;
    }
  }
  return mask;
}

Result<AvailabilityModel> AvailabilityModel::Create(
    const workflow::ServerTypeRegistry& servers,
    const AvailabilityOptions& options,
    const workflow::SiteTopology* topology) {
  WFMS_RETURN_NOT_OK(servers.Validate());
  Vector failures(servers.size()), repairs(servers.size());
  for (size_t x = 0; x < servers.size(); ++x) {
    failures[x] = servers.type(x).failure_rate;
    repairs[x] = servers.type(x).repair_rate;
  }
  workflow::SiteTopology topo;
  if (topology != nullptr) {
    WFMS_RETURN_NOT_OK(topology->Validate().WithContext("site topology"));
    topo = *topology;
  }
  return AvailabilityModel(std::move(failures), std::move(repairs), options,
                           std::move(topo));
}

Result<Vector> AvailabilityModel::PerTypeDistribution(size_t type_index,
                                                      int replicas) const {
  if (type_index >= num_types()) {
    return Status::OutOfRange("server type index out of range");
  }
  const double lambda = failure_rates_[type_index];
  const double mu = repair_rates_[type_index];
  if (options_.repair_policy == RepairPolicy::kIndependent) {
    return markov::ReplicatedServerAvailability(replicas, lambda, mu);
  }
  // Single crew: births (repairs) at constant mu, deaths at (j+1)*lambda.
  const auto y = static_cast<size_t>(replicas);
  Vector births(y), deaths(y);
  for (size_t j = 0; j < y; ++j) {
    births[j] = mu;
    deaths[j] = static_cast<double>(j + 1) * lambda;
  }
  return markov::BirthDeathSteadyState(births, deaths);
}

Result<Vector> AvailabilityModel::ProductFormStateProbabilities(
    const Configuration& config, const MixedRadixSpace& space) const {
  const size_t k = num_types();
  std::vector<Vector> per_type(k);
  for (size_t x = 0; x < k; ++x) {
    WFMS_ASSIGN_OR_RETURN(per_type[x],
                          PerTypeDistribution(x, config.replicas[x]));
  }
  Vector pi(space.size(), 1.0);
  for (size_t i = 0; i < space.size(); ++i) {
    for (size_t x = 0; x < k; ++x) {
      pi[i] *= per_type[x][static_cast<size_t>(space.Component(i, x))];
    }
  }
  return pi;
}

Result<markov::Ctmc> AvailabilityModel::BuildCtmc(
    const Configuration& config, const MixedRadixSpace& space) const {
  const size_t k = num_types();
  WFMS_RETURN_NOT_OK(config.Validate(k));
  // Generator over the mixed-radix state space (§5.2).
  markov::CtmcBuilder builder(space.size());
  builder.Reserve(space.size() * 2 * k);  // <= one failure + one repair arc per type
  for (size_t i = 0; i < space.size(); ++i) {
    for (size_t x = 0; x < k; ++x) {
      const int up = space.Component(i, x);
      if (up > 0) {
        // One of the `up` servers of type x fails.
        const size_t j = space.Neighbor(i, x, -1);
        WFMS_RETURN_NOT_OK(
            builder.AddTransition(i, j, up * failure_rates_[x]));
      }
      const int down = config.replicas[x] - up;
      if (down > 0) {
        const size_t j = space.Neighbor(i, x, +1);
        const double rate =
            options_.repair_policy == RepairPolicy::kIndependent
                ? down * repair_rates_[x]
                : repair_rates_[x];
        WFMS_RETURN_NOT_OK(builder.AddTransition(i, j, rate));
      }
    }
  }
  return builder.Build();
}

Result<double> AvailabilityModel::PointAvailability(
    const Configuration& config, double t) const {
  const size_t k = num_types();
  WFMS_RETURN_NOT_OK(config.Validate(k));
  WFMS_ASSIGN_OR_RETURN(MixedRadixSpace space,
                        MixedRadixSpace::Create(config.replicas));
  WFMS_ASSIGN_OR_RETURN(markov::Ctmc chain, BuildCtmc(config, space));
  Vector p0(space.size(), 0.0);
  markov::StateVector full(config.replicas.begin(), config.replicas.end());
  p0[space.EncodeUnchecked(full)] = 1.0;
  WFMS_ASSIGN_OR_RETURN(Vector pt,
                        markov::CtmcTransientDistribution(chain, p0, t));
  double up_probability = 0.0;
  for (size_t i = 0; i < space.size(); ++i) {
    bool up = true;
    for (size_t x = 0; x < k; ++x) {
      if (space.Component(i, x) == 0) {
        up = false;
        break;
      }
    }
    if (up) up_probability += pt[i];
  }
  return up_probability;
}

Result<AvailabilityReport> AvailabilityModel::Evaluate(
    const Configuration& config, const linalg::Vector* steady_state_guess,
    const markov::SteadyStateOptions* solver_override) const {
  if (site_mode(config)) {
    // Site-placed configuration: the geo path owns the state space shape;
    // warm-start guesses from replica-shaped neighbors do not apply.
    (void)steady_state_guess;
    return EvaluateSites(config, SiteContingency{}, solver_override);
  }
  auto& registry = metrics::MetricsRegistry::Global();
  static metrics::Counter& evaluations =
      registry.GetCounter("wfms_avail_evaluations_total");
  static metrics::Counter& product_form =
      registry.GetCounter("wfms_avail_product_form_total");
  static metrics::Counter& ctmc_solves =
      registry.GetCounter("wfms_avail_ctmc_solves_total");
  static metrics::Histogram& evaluate_seconds =
      registry.GetHistogram("wfms_avail_evaluate_seconds");
  evaluations.Increment();
  trace::TraceSpan span("avail/evaluate", "avail");
  const auto start = std::chrono::steady_clock::now();
  const auto observe_elapsed = [&start]() {
    evaluate_seconds.Observe(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count());
  };

  const size_t k = num_types();
  WFMS_RETURN_NOT_OK(config.Validate(k));
  WFMS_ASSIGN_OR_RETURN(MixedRadixSpace space,
                        MixedRadixSpace::Create(config.replicas));

  AvailabilityReport report;
  Vector pi;
  if (options_.use_product_form) {
    product_form.Increment();
    WFMS_ASSIGN_OR_RETURN(pi, ProductFormStateProbabilities(config, space));
  } else {
    ctmc_solves.Increment();
    WFMS_ASSIGN_OR_RETURN(
        markov::Ctmc chain,
        TimedChainBuild([&] { return BuildCtmc(config, space); }));
    markov::SteadyStateOptions solver_options =
        solver_override != nullptr ? *solver_override : options_.solver;
    solver_options.initial_guess = steady_state_guess;
    // Seed the lumping pass with canonical orbits of exchangeable server
    // types: dimensions whose (failure rate, repair rate, replica count)
    // coincide bit-for-bit have permutation-invariant dynamics, so states
    // differing only by such a permutation are lumping candidates.
    std::vector<uint32_t> seed_storage;
    if (solver_options.lumping_seed == nullptr && k > 1 &&
        markov::LumpingPassRuns(solver_options, space.size())) {
      std::map<std::tuple<uint64_t, uint64_t, int>, uint64_t> sig_ids;
      std::vector<uint64_t> signature(k);
      for (size_t x = 0; x < k; ++x) {
        uint64_t failure_bits, repair_bits;
        std::memcpy(&failure_bits, &failure_rates_[x], sizeof(double));
        std::memcpy(&repair_bits, &repair_rates_[x], sizeof(double));
        const auto [it, inserted] = sig_ids.emplace(
            std::make_tuple(failure_bits, repair_bits, config.replicas[x]),
            sig_ids.size());
        signature[x] = it->second;
      }
      SeedLumpingPass(space, signature, sig_ids.size(), &solver_options,
                      &seed_storage);
    }
    auto solved = markov::SolveSteadyState(chain, solver_options);
    if (!solved.ok()) {
      return solved.status().WithContext("availability CTMC for " +
                                         config.ToString());
    }
    pi = std::move(solved->pi);
    report.solver_iterations = solved->iterations;
    report.solver_method = solved->method_used;
    report.solver_diagnostics = solved->diagnostics;
    report.solver_attempts = std::move(solved->attempts);
    report.lumping_applied = solved->lumping_applied;
    report.lumped_states = solved->lumped_states;
  }

  // Aggregate: available iff all types have at least one server up.
  double available = 0.0;
  Vector expected_up(k, 0.0);
  for (size_t i = 0; i < space.size(); ++i) {
    bool up = true;
    for (size_t x = 0; x < k; ++x) {
      const int count = space.Component(i, x);
      expected_up[x] += pi[i] * count;
      if (count == 0) up = false;
    }
    if (up) available += pi[i];
  }

  report.availability = available;
  report.unavailability = 1.0 - available;
  report.downtime_minutes_per_year =
      UnavailabilityToDowntimeMinutesPerYear(1.0 - available);
  report.state_probabilities = std::move(pi);
  report.space = std::move(space);
  report.expected_up_servers = std::move(expected_up);
  observe_elapsed();
  return report;
}

Result<Vector> AvailabilityModel::ReplicaDimDistribution(size_t type_index,
                                                         int bound) const {
  if (bound == 0) return Vector(1, 1.0);  // empty placement: always "0 up"
  return PerTypeDistribution(type_index, bound);
}

Result<AvailabilityReport> AvailabilityModel::EvaluateSites(
    const Configuration& config, const SiteContingency& contingency,
    const markov::SteadyStateOptions* solver_override) const {
  auto& registry = metrics::MetricsRegistry::Global();
  static metrics::Counter& evaluations =
      registry.GetCounter("wfms_avail_site_evaluations_total");
  static metrics::Histogram& evaluate_seconds =
      registry.GetHistogram("wfms_avail_evaluate_seconds");
  evaluations.Increment();
  trace::TraceSpan span("avail/evaluate_sites", "avail");
  const auto start = std::chrono::steady_clock::now();

  const size_t k = num_types();
  const size_t s = topology_.num_sites();
  if (s == 0) {
    return Status::FailedPrecondition(
        "EvaluateSites needs a site topology (model was created without "
        "one)");
  }
  WFMS_RETURN_NOT_OK(config.ValidateSites(k, s));
  const size_t num_pairs = workflow::PairCount(s);
  if (s < 64 && (contingency.down_sites >> s) != 0) {
    return Status::InvalidArgument("contingency names a site out of range");
  }
  if (num_pairs < 64 && (contingency.partitioned_pairs >> num_pairs) != 0) {
    return Status::InvalidArgument("contingency names a pair out of range");
  }

  // --- State-space layout -------------------------------------------------
  // Dims 0 .. k*s-1: per-(type, site) up counts. A contingency-pinned down
  // site contributes bound-0 replica dims (its replicas are masked off by
  // the structure function regardless, so dropping their dynamics is
  // exact and shrinks the space).
  SiteStateLayout layout;
  layout.active = true;
  layout.num_types = k;
  layout.num_sites = s;
  const auto site_pinned_down = [&](size_t a) {
    return (contingency.down_sites & (uint64_t{1} << a)) != 0;
  };
  std::vector<int> bounds;
  bounds.reserve(k * s + s + num_pairs);
  for (size_t x = 0; x < k; ++x) {
    for (size_t a = 0; a < s; ++a) {
      bounds.push_back(site_pinned_down(a) ? 0 : config.SiteCount(x, a));
    }
  }
  // One binary up/down dim per site that both can crash and is not pinned;
  // never-crashing sites are statically up, pinned sites statically down.
  layout.site_dim.assign(s, -1);
  for (size_t a = 0; a < s; ++a) {
    if (site_pinned_down(a)) continue;
    if (topology_.sites[a].failure_rate == 0.0) {
      layout.static_up_sites |= uint64_t{1} << a;
      continue;
    }
    layout.site_dim[a] = static_cast<int>(bounds.size());
    bounds.push_back(1);
  }
  // One binary partitioned dim per pair of live sites, unless pinned by the
  // contingency or partitions are disabled. Pairs touching a pinned-down
  // site can never carry traffic, so their partition state is irrelevant.
  layout.pair_dim.assign(num_pairs, -1);
  for (size_t a = 0; a + 1 < s; ++a) {
    for (size_t b = a + 1; b < s; ++b) {
      const size_t p = workflow::PairIndex(a, b, s);
      if (site_pinned_down(a) || site_pinned_down(b)) continue;
      if (contingency.partitioned_pairs & (uint64_t{1} << p)) {
        layout.static_partitions |= uint64_t{1} << p;
        continue;
      }
      if (topology_.partition_rate == 0.0) continue;
      layout.pair_dim[p] = static_cast<int>(bounds.size());
      bounds.push_back(1);
    }
  }
  WFMS_ASSIGN_OR_RETURN(MixedRadixSpace space,
                        MixedRadixSpace::Create(std::move(bounds)));
  const size_t num_dims = space.num_dimensions();

  // Per-dimension transition rates; every dimension is an independent
  // birth-death chain, so the generator is a pure product and correlation
  // enters only through the aggregation-time structure function.
  const auto death_rate = [&](size_t d, int value) -> double {
    if (d < k * s) return value * failure_rates_[d / s];
    for (size_t a = 0; a < s; ++a) {
      if (layout.site_dim[a] == static_cast<int>(d)) {
        return topology_.sites[a].failure_rate;  // up -> down
      }
    }
    return topology_.heal_rate;  // partitioned -> healed
  };
  const auto birth_rate = [&](size_t d, int value) -> double {
    if (d < k * s) {
      const int down = space.bound(d) - value;
      return options_.repair_policy == RepairPolicy::kIndependent
                 ? down * repair_rates_[d / s]
                 : repair_rates_[d / s];
    }
    for (size_t a = 0; a < s; ++a) {
      if (layout.site_dim[a] == static_cast<int>(d)) {
        return topology_.sites[a].repair_rate;  // down -> up
      }
    }
    return topology_.partition_rate;  // healed -> partitioned
  };

  AvailabilityReport report;
  Vector pi;
  if (options_.use_product_form) {
    // Exact: the stationary distribution factorizes over dimensions.
    std::vector<Vector> per_dim(num_dims);
    for (size_t d = 0; d < num_dims; ++d) {
      if (d < k * s) {
        WFMS_ASSIGN_OR_RETURN(per_dim[d],
                              ReplicaDimDistribution(d / s, space.bound(d)));
      } else {
        const double down = death_rate(d, 1);   // rate out of state 1
        const double up = birth_rate(d, 0);     // rate out of state 0
        per_dim[d] = Vector(2, 0.0);
        per_dim[d][0] = down / (down + up);
        per_dim[d][1] = up / (down + up);
      }
    }
    pi = Vector(space.size(), 1.0);
    for (size_t i = 0; i < space.size(); ++i) {
      for (size_t d = 0; d < num_dims; ++d) {
        pi[i] *= per_dim[d][static_cast<size_t>(space.Component(i, d))];
      }
    }
  } else {
    auto build = [&]() -> Result<markov::Ctmc> {
      markov::CtmcBuilder builder(space.size());
      builder.Reserve(space.size() * 2 * num_dims);
      for (size_t i = 0; i < space.size(); ++i) {
        for (size_t d = 0; d < num_dims; ++d) {
          const int value = space.Component(i, d);
          if (value > 0) {
            WFMS_RETURN_NOT_OK(builder.AddTransition(
                i, space.Neighbor(i, d, -1), death_rate(d, value)));
          }
          if (value < space.bound(d)) {
            WFMS_RETURN_NOT_OK(builder.AddTransition(
                i, space.Neighbor(i, d, +1), birth_rate(d, value)));
          }
        }
      }
      return builder.Build();
    };
    WFMS_ASSIGN_OR_RETURN(markov::Ctmc chain, TimedChainBuild(build));
    markov::SteadyStateOptions solver_options =
        solver_override != nullptr ? *solver_override : options_.solver;
    solver_options.initial_guess = nullptr;
    // Lumping seed over all dimension kinds: replica dims sharing (rates,
    // bound), site dims sharing (crash, repair) rates, and the identically
    // parameterized partition dims are exchangeable. The generator is a
    // product of independent per-dim chains, so permuting same-signature
    // dims is an automorphism; the refinement pass verifies regardless.
    std::vector<uint32_t> seed_storage;
    if (solver_options.lumping_seed == nullptr && num_dims > 1 &&
        markov::LumpingPassRuns(solver_options, space.size())) {
      std::map<std::tuple<int, uint64_t, uint64_t, int>, uint64_t> sig_ids;
      std::vector<uint64_t> signature(num_dims);
      for (size_t d = 0; d < num_dims; ++d) {
        int kind = 0;
        double r1 = 0.0, r2 = 0.0;
        if (d < k * s) {
          kind = 0;
          r1 = failure_rates_[d / s];
          r2 = repair_rates_[d / s];
        } else {
          kind = 1;
          r1 = death_rate(d, 1);
          r2 = birth_rate(d, 0);
        }
        uint64_t r1_bits, r2_bits;
        std::memcpy(&r1_bits, &r1, sizeof(double));
        std::memcpy(&r2_bits, &r2, sizeof(double));
        const auto [it, inserted] = sig_ids.emplace(
            std::make_tuple(kind, r1_bits, r2_bits, space.bound(d)),
            sig_ids.size());
        signature[d] = it->second;
      }
      SeedLumpingPass(space, signature, sig_ids.size(), &solver_options,
                      &seed_storage);
    }
    auto solved = markov::SolveSteadyState(chain, solver_options);
    if (!solved.ok()) {
      return solved.status().WithContext(
          "site availability CTMC for " + config.ToString() + " under " +
          contingency.ToString(topology_));
    }
    pi = std::move(solved->pi);
    report.solver_iterations = solved->iterations;
    report.solver_method = solved->method_used;
    report.solver_diagnostics = solved->diagnostics;
    report.solver_attempts = std::move(solved->attempts);
    report.lumping_applied = solved->lumping_applied;
    report.lumped_states = solved->lumped_states;
  }

  // Aggregate through the coverage structure function: available iff some
  // connected component of up sites hosts >= 1 up replica of every type.
  // expected_up counts only replicas that can actually serve (inside the
  // serving component).
  double available = 0.0;
  Vector expected_up(k, 0.0);
  std::vector<int> up_counts(k * s, 0);
  for (size_t i = 0; i < space.size(); ++i) {
    for (size_t d = 0; d < k * s; ++d) {
      up_counts[d] = space.Component(i, d);
    }
    const uint64_t up_sites = layout.UpSites(space, i);
    const uint64_t partitions = layout.Partitions(space, i);
    const uint64_t serving = workflow::ServingComponent(
        k, s, up_counts.data(), up_sites, partitions);
    if (serving == 0) continue;
    available += pi[i];
    for (size_t x = 0; x < k; ++x) {
      for (size_t a = 0; a < s; ++a) {
        if (serving & (uint64_t{1} << a)) {
          expected_up[x] += pi[i] * up_counts[x * s + a];
        }
      }
    }
  }

  report.availability = available;
  report.unavailability = 1.0 - available;
  report.downtime_minutes_per_year =
      UnavailabilityToDowntimeMinutesPerYear(1.0 - available);
  report.state_probabilities = std::move(pi);
  report.space = std::move(space);
  report.expected_up_servers = std::move(expected_up);
  report.site_layout = std::move(layout);
  evaluate_seconds.Observe(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count());
  return report;
}

}  // namespace wfms::avail
