// E13 — sparse-first solver engine scalability: synthetic availability
// CTMCs from 10^3 to 10^6 states (k exchangeable server types, 9 replicas
// each, so the state space is 10^k). For each size the chain is built and
// solved end-to-end through the steady-state engine, once with lumping off
// (up to --unlumped_max_states) and once with lumping auto-seeded by the
// canonical orbits of the exchangeable dimensions. Every solve is
// cross-checked against the product-form closed solution, and the peak RSS
// is recorded, so the committed trajectory pins both speed and memory.
//
// Usage: bench_large_chain [--benchmark_format=json] [--max_states=N]
//                          [--unlumped_max_states=N] [--repetitions=N]
// JSON mode emits a machine-readable array on stdout (one object per
// measurement) for regression tracking; the CI perf-smoke job runs the
// sweep capped at 10^4 states and compares build and solve times against
// the committed BENCH_large_chain.json. --repetitions=N (default 1) runs
// every row N times and reports the median build and solve times, which
// is how the committed trajectory is pinned.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "avail/availability_model.h"
#include "markov/ctmc.h"
#include "markov/state_space.h"
#include "markov/steady_state.h"
#include "workflow/environment.h"

namespace {

using wfms::avail::AvailabilityModel;
using wfms::avail::AvailabilityOptions;

constexpr int kReplicasPerType = 9;  // (9 + 1)^k states
constexpr double kFailureRate = 0.001;
constexpr double kRepairRate = 0.1;

double MillisSince(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Peak resident set size of this process in MiB (VmHWM, Linux; 0 when
/// unavailable). Monotone over the process lifetime, so later rows
/// dominate earlier ones.
double PeakRssMiB() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  long kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

struct Measurement {
  int dims = 0;
  size_t states = 0;
  size_t nnz = 0;
  std::string lumping;
  double build_ms = 0.0;
  double solve_ms = 0.0;
  std::string method;
  int iterations = 0;
  bool lumping_applied = false;
  size_t lumped_states = 0;
  double availability = 0.0;
  /// |availability - product-form availability|: the correctness
  /// cross-check (the product form is exact for this model).
  double product_form_delta = 0.0;
  double peak_rss_mib = 0.0;
};

wfms::Result<wfms::workflow::ServerTypeRegistry> MakeRegistry(int dims) {
  wfms::workflow::ServerTypeRegistry registry;
  for (int x = 0; x < dims; ++x) {
    wfms::workflow::ServerType type;
    type.name = "srv" + std::to_string(x);
    type.service.mean = 1.0;
    type.service.second_moment = 2.0;
    type.failure_rate = kFailureRate;
    type.repair_rate = kRepairRate;
    WFMS_RETURN_NOT_OK(registry.AddServerType(type).status());
  }
  return registry;
}

wfms::Result<Measurement> RunOne(int dims, wfms::markov::LumpingMode lumping) {
  WFMS_ASSIGN_OR_RETURN(wfms::workflow::ServerTypeRegistry registry,
                        MakeRegistry(dims));
  const wfms::workflow::Configuration config(
      std::vector<int>(dims, kReplicasPerType));
  WFMS_ASSIGN_OR_RETURN(
      wfms::markov::MixedRadixSpace space,
      wfms::markov::MixedRadixSpace::Create(config.replicas));

  AvailabilityOptions options;
  options.solver.method = wfms::markov::SteadyStateMethod::kCascade;
  options.solver.lumping = lumping;
  options.solver.budget.max_wall_time_seconds = 300.0;
  WFMS_ASSIGN_OR_RETURN(AvailabilityModel model,
                        AvailabilityModel::Create(registry, options));

  Measurement m;
  m.dims = dims;
  m.states = space.size();
  m.lumping = wfms::markov::LumpingModeName(lumping);

  const auto build_start = std::chrono::steady_clock::now();
  WFMS_ASSIGN_OR_RETURN(wfms::markov::Ctmc chain,
                        model.BuildCtmc(config, space));
  m.build_ms = MillisSince(build_start);
  m.nnz = chain.rates().num_nonzeros();

  const auto solve_start = std::chrono::steady_clock::now();
  WFMS_ASSIGN_OR_RETURN(wfms::avail::AvailabilityReport report,
                        model.Evaluate(config));
  m.solve_ms = MillisSince(solve_start);
  m.method = wfms::markov::SteadyStateMethodName(report.solver_method);
  m.iterations = report.solver_iterations;
  m.lumping_applied = report.lumping_applied;
  m.lumped_states = report.lumped_states;
  m.availability = report.availability;

  // Exact closed-form cross-check (per-type birth-death product).
  double product_availability = 1.0;
  for (int x = 0; x < dims; ++x) {
    WFMS_ASSIGN_OR_RETURN(
        wfms::linalg::Vector per_type,
        model.PerTypeDistribution(static_cast<size_t>(x), kReplicasPerType));
    product_availability *= 1.0 - per_type[0];
  }
  m.product_form_delta = std::abs(report.availability - product_availability);
  m.peak_rss_mib = PeakRssMiB();
  return m;
}

/// Median of `samples` (mean of the middle two for an even count).
double Median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid]
                                 : 0.5 * (samples[mid - 1] + samples[mid]);
}

void EmitJson(const std::vector<Measurement>& measurements,
              int repetitions) {
  std::printf("[\n");
  for (size_t i = 0; i < measurements.size(); ++i) {
    const Measurement& m = measurements[i];
    std::printf(
        "  {\"dims\": %d, \"states\": %zu, \"nnz\": %zu, "
        "\"lumping\": \"%s\", \"build_ms\": %.3f, \"solve_ms\": %.3f, "
        "\"method\": \"%s\", \"iterations\": %d, "
        "\"lumping_applied\": %s, \"lumped_states\": %zu, "
        "\"availability\": %.12f, \"product_form_delta\": %.3e, "
        "\"peak_rss_mib\": %.1f, \"repetitions\": %d}%s\n",
        m.dims, m.states, m.nnz, m.lumping.c_str(), m.build_ms, m.solve_ms,
        m.method.c_str(), m.iterations, m.lumping_applied ? "true" : "false",
        m.lumped_states, m.availability, m.product_form_delta, m.peak_rss_mib,
        repetitions, i + 1 < measurements.size() ? "," : "");
  }
  std::printf("]\n");
}

void EmitTable(const std::vector<Measurement>& measurements) {
  std::printf("E13 — large-chain steady-state trajectory "
              "(%d replicas/type, lambda=%g, mu=%g)\n",
              kReplicasPerType, kFailureRate, kRepairRate);
  std::printf("%8s %10s %8s %10s %10s %12s %8s %10s %12s %10s\n", "states",
              "nnz", "lumping", "build_ms", "solve_ms", "method", "iters",
              "lumped_to", "pf_delta", "rss_mib");
  for (const Measurement& m : measurements) {
    std::printf("%8zu %10zu %8s %10.1f %10.1f %12s %8d %10zu %12.3e %10.1f\n",
                m.states, m.nnz, m.lumping.c_str(), m.build_ms, m.solve_ms,
                m.method.c_str(), m.iterations,
                m.lumping_applied ? m.lumped_states : m.states,
                m.product_form_delta, m.peak_rss_mib);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  size_t max_states = 1000000;
  size_t unlumped_max_states = 100000;
  int repetitions = 1;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--benchmark_format=json") == 0) {
      json = true;
    } else if (std::strncmp(arg, "--max_states=", 13) == 0) {
      max_states = static_cast<size_t>(std::strtoull(arg + 13, nullptr, 10));
    } else if (std::strncmp(arg, "--unlumped_max_states=", 22) == 0) {
      unlumped_max_states =
          static_cast<size_t>(std::strtoull(arg + 22, nullptr, 10));
    } else if (std::strncmp(arg, "--repetitions=", 14) == 0) {
      repetitions = std::atoi(arg + 14);
      if (repetitions < 1) {
        std::fprintf(stderr, "--repetitions must be at least 1\n");
        return 2;
      }
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg);
      return 2;
    }
  }

  std::vector<Measurement> measurements;
  for (int dims = 3; dims <= 6; ++dims) {
    size_t states = 1;
    for (int x = 0; x < dims; ++x) states *= kReplicasPerType + 1;
    if (states > max_states) break;
    for (const auto lumping : {wfms::markov::LumpingMode::kOff,
                               wfms::markov::LumpingMode::kAuto}) {
      // The unlumped full solve is capped separately: it is the kernels'
      // own trajectory, and past ~10^5 states the lumped path is the one
      // this engine ships for.
      if (lumping == wfms::markov::LumpingMode::kOff &&
          states > unlumped_max_states) {
        continue;
      }
      Measurement row;
      std::vector<double> build_ms, solve_ms;
      for (int rep = 0; rep < repetitions; ++rep) {
        auto measured = RunOne(dims, lumping);
        if (!measured.ok()) {
          std::fprintf(stderr,
                       "bench_large_chain failed at %zu states (%s): %s\n",
                       states, wfms::markov::LumpingModeName(lumping),
                       measured.status().ToString().c_str());
          return 1;
        }
        build_ms.push_back(measured->build_ms);
        solve_ms.push_back(measured->solve_ms);
        row = *std::move(measured);
      }
      row.build_ms = Median(build_ms);
      row.solve_ms = Median(solve_ms);
      measurements.push_back(std::move(row));
    }
  }

  if (json) {
    EmitJson(measurements, repetitions);
  } else {
    EmitTable(measurements);
  }
  return 0;
}
