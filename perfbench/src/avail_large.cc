// avail_large: Assess of highly replicated configurations whose
// availability chains have 4.7e4 to 1.2e5 states, on environments
// generated from the seed. The lumpable set has identical server types, so the chain
// lumps by exchangeable orbits; the other set draws distinct failure,
// repair and service parameters per type, so lumping cannot shrink it.
// Lumping runs in auto mode. Closed loop, one client.
//
// Oracle: availability equals the product form of the per-type
// birth-death chains to within 1e-12, every input's unavailability is at
// least 1e-6 (so that bound is at most a millionth of it), and every
// repeat of an input reproduces its first result bit for bit.

#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "configtool/tool.h"
#include "linalg/sparse_matrix.h"
#include "markov/lumping.h"
#include "markov/state_space.h"
#include "workflow/environment_io.h"
#include "workloads.h"

namespace perfbench {
namespace {

using wfms::configtool::ConfigurationTool;

struct InputSpec {
  int types;
  int replicas;  // per type: (replicas + 1)^types chain states
  // Parameter levels of the first and last type (see TypeParameters); the
  // types in between are spread evenly. Equal levels give identical types.
  double level_first;
  double level_last;
  bool lumpable() const { return level_first == level_last; }
};

// An odd count keeps the median inside one input's latencies. Every input
// is unavailable at least kMinUnavailability of the time (checked in
// set-up), so the 1e-12 oracle sees any wrong answer bigger than a
// millionth of the unavailability.
const std::vector<InputSpec>& FullInputs() {
  static const std::vector<InputSpec> inputs = {
      {6, 6, 0.8, 0.8},  // 117649 states, lumpable
      {7, 4, 0.3, 0.3},  // 78125 states, lumpable
      {8, 3, 0.0, 0.0},  // 65536 states, lumpable
      {6, 5, 0.0, 1.0},  // 46656 states
      {7, 4, 0.0, 0.6},  // 78125 states
  };
  return inputs;
}

const std::vector<InputSpec>& TinyInputs() {
  static const std::vector<InputSpec> inputs = {
      {3, 4, 0.5, 0.5},
      {3, 4, 0.0, 1.0},
  };
  return inputs;
}

constexpr double kMinUnavailability = 1e-6;

double Uniform(uint64_t seed, uint64_t salt, double lo, double hi) {
  return lo + (hi - lo) * double(Mix(seed, salt) >> 11) / 9007199254740992.0;
}

struct TypeParameters {
  double mean, scv, mttf, mttr;  // minutes
};

/// Server type x of an input. Level 0 is the paper's one failure a day
/// (§5.2) with ten-minute repairs; level 1 is one failure every four hours
/// with 50-minute repairs, and slower, more variable service. The seed
/// moves each parameter by up to 5% either way, which changes the chains
/// but not how hard they are to solve; identical types share the jitter.
TypeParameters Parameters(const InputSpec& spec, int x, uint64_t seed) {
  const double level =
      spec.types == 1 ? spec.level_first
                      : spec.level_first + (spec.level_last - spec.level_first) *
                                               x / (spec.types - 1);
  const uint64_t salt = static_cast<uint64_t>(spec.lumpable() ? 0 : x);
  auto jitter = [&](uint64_t k) {
    return Uniform(seed, 10 * salt + k, 0.95, 1.05);
  };
  return {0.01 * (1.0 + 2.5 * level) * jitter(1),
          (0.5 + 1.5 * level) * jitter(2),
          1440.0 / (1.0 + 5.0 * level) * jitter(3),
          (10.0 + 40.0 * level) * jitter(4)};
}

/// Environment DSL text: `types` server types and one chain workflow that
/// visits each type once. Times in minutes; the arrival rate keeps every
/// type's single-server utilisation near 0.3.
std::string EnvironmentText(const InputSpec& spec, uint64_t seed) {
  std::string servers = "servers\n";
  std::string loads = "loads\n";
  std::string chart = "chart W\n";
  double max_mean = 0.0;
  for (int x = 0; x < spec.types; ++x) {
    const TypeParameters p = Parameters(spec, x, seed);
    max_mean = std::max(max_mean, p.mean);
    char line[256];
    std::snprintf(line, sizeof(line),
                  "  server s%d kind=application service_mean=%.17g "
                  "service_scv=%.17g mttf=%.17g mttr=%.17g\n",
                  x, p.mean, p.scv, p.mttf, p.mttr);
    servers += line;
    std::snprintf(line, sizeof(line), "  load a%d s%d=2\n", x, x);
    loads += line;
    std::snprintf(line, sizeof(line),
                  "  state T%d activity=a%d residence=%d\n", x, x, 1 + x);
    chart += line;
  }
  chart += "  initial T0\n  final T" + std::to_string(spec.types - 1) + "\n";
  for (int x = 0; x + 1 < spec.types; ++x) {
    chart += "  trans T" + std::to_string(x) + " -> T" +
             std::to_string(x + 1) + " prob=1\n";
  }
  char workflow[128];
  std::snprintf(workflow, sizeof(workflow),
                "workflows\n  workflow W chart=W rate=%.17g\nend\n\n",
                0.3 / (2.0 * max_mean));
  return servers + "end\n\n" + loads + "end\n\n" + workflow + chart + "end\n";
}

struct Input {
  InputSpec spec;
  std::unique_ptr<wfms::workflow::Environment> env;
  std::unique_ptr<ConfigurationTool> tool;
  wfms::workflow::Configuration config;
  // The product form of the per-type birth-death chains (the oracle).
  double product_availability = 0.0;
  double product_unavailability = 0.0;
};

/// The product form, with the unavailability summed from the per-type
/// all-down probabilities so that it keeps its digits when tiny.
wfms::Status SetProductForm(Input& input) {
  const auto& model = input.tool->model().availability();
  double log_available = 0.0;
  for (size_t x = 0; x < input.config.replicas.size(); ++x) {
    WFMS_ASSIGN_OR_RETURN(
        const wfms::linalg::Vector per_type,
        model.PerTypeDistribution(x, input.config.replicas[x]));
    log_available += std::log1p(-per_type[0]);
  }
  input.product_availability = std::exp(log_available);
  input.product_unavailability = -std::expm1(log_available);
  return wfms::Status::OK();
}

wfms::performability::PerformabilityOptions ToolOptions() {
  wfms::performability::PerformabilityOptions options;
  options.availability.solver.lumping = wfms::markov::LumpingMode::kAuto;
  return options;
}

struct Outcome {
  double availability = 0.0;
  double max_waiting = 0.0;
  uint64_t digest = 0;
};

/// Layer probes of a traced operation: the flat chain build and the
/// lumping pass the availability evaluation runs internally.
void Probe(const Input& input, Tracer& tracer, uint64_t op,
           LayerTotals& layers) {
  ScopedSpan probe(&tracer, "probe", op);
  const auto& model = input.tool->model().availability();
  auto space = wfms::markov::MixedRadixSpace::Create(input.config.replicas);
  if (!space.ok()) return;
  const Clock::time_point a = Clock::now();
  auto chain = [&] {
    ScopedSpan span(&tracer, "avail.build", op);
    return model.BuildCtmc(input.config, *space);
  }();
  layers.Add("avail.build_ms", MsBetween(a, Clock::now()));
  if (!chain.ok()) return;
  layers.Add("avail.states", static_cast<double>(chain->num_states()));
  layers.Add("avail.nnz", static_cast<double>(chain->rates().num_nonzeros()));
  // The orbit seed avail derives for identical (failure, repair, replica)
  // signatures; non-lumpable inputs get one class per type.
  std::vector<uint64_t> signature(input.config.replicas.size());
  for (size_t x = 0; x < signature.size(); ++x) {
    signature[x] = input.spec.lumpable() ? 0 : x;
  }
  auto labels = wfms::markov::ExchangeableStateLabels(*space, signature);
  if (!labels.ok()) return;
  const Clock::time_point b = Clock::now();
  {
    ScopedSpan span(&tracer, "markov.lumping", op);
    wfms::markov::LumpingOptions lumping;
    lumping.seed_labels = &*labels;
    auto partition = wfms::markov::FindLumpablePartition(
        *chain, chain->rates().Transposed(), lumping);
    if (partition.ok()) {
      layers.Add("markov.lumped_states",
                 static_cast<double>(partition->num_blocks()));
    }
  }
  layers.Add("markov.lumping_ms", MsBetween(b, Clock::now()));
}

}  // namespace

Report RunAvailLarge(const Options& options, Tracer& tracer) {
  Report report;
  const std::vector<InputSpec>& specs =
      options.tiny ? TinyInputs() : FullInputs();

  // Set-up: generate and parse the environments, build one tool each.
  std::vector<Input> inputs;
  std::vector<double> setup_s;
  Digest input_digest;
  for (size_t i = 0; i < specs.size(); ++i) {
    input_digest.Add(EnvironmentText(specs[i], Mix(options.seed, i)));
  }
  report.details.Set("input_digest",
                     wfms::Json::Str(std::to_string(input_digest.value())));
  for (int rep = 0; rep < SetupReps(options); ++rep) {
    const double start_cpu = ThreadCpuMs();
    inputs.clear();
    for (size_t i = 0; i < specs.size(); ++i) {
      Input input{specs[i], nullptr, nullptr,
                  wfms::workflow::Configuration(
                      std::vector<int>(specs[i].types, specs[i].replicas))};
      auto env = wfms::workflow::ParseEnvironment(
          EnvironmentText(specs[i], Mix(options.seed, i)));
      if (!env.ok()) {
        report.Fail("environment: " + env.status().ToString());
        return report;
      }
      input.env = std::make_unique<wfms::workflow::Environment>(*std::move(env));
      auto tool = ConfigurationTool::Create(*input.env, ToolOptions());
      if (!tool.ok()) {
        report.Fail("tool: " + tool.status().ToString());
        return report;
      }
      input.tool = std::make_unique<ConfigurationTool>(*std::move(tool));
      input.tool->set_num_threads(static_cast<size_t>(options.lanes));
      inputs.push_back(std::move(input));
    }
    setup_s.push_back((ThreadCpuMs() - start_cpu) / 1000.0);
  }
  for (size_t i = 0; i < inputs.size(); ++i) {
    const wfms::Status status = SetProductForm(inputs[i]);
    if (!status.ok()) {
      report.Fail("product form: " + status.ToString());
      return report;
    }
    if (!(inputs[i].product_unavailability >= kMinUnavailability)) {
      report.errors.push_back(
          "input " + std::to_string(i) + " is too available for the oracle "
          "to see a wrong answer (unavailability " +
          std::to_string(inputs[i].product_unavailability) + ")");
      return report;
    }
  }

  LayerTotals layers;
  auto run_op = [&](size_t index, uint64_t op, bool traced,
                    double* latency_ms) -> wfms::Result<Outcome> {
    Input& input = inputs[index];
    input.tool->ClearAssessmentCache();
    std::optional<RegistryDelta> registry;
    if (traced) registry.emplace();
    Tracer* spans = traced ? &tracer : nullptr;
    const double start_cpu = ThreadCpuMs();
    auto assessment = [&] {
      ScopedSpan op_span(spans, "op", op);
      ScopedSpan span(spans, "configtool.assess", op);
      return input.tool->Assess(input.config, wfms::configtool::Goals{});
    }();
    *latency_ms = ThreadCpuMs() - start_cpu;
    if (!assessment.ok()) return assessment.status();
    if (!assessment->error.ok()) return assessment->error;
    Outcome outcome;
    outcome.availability = assessment->performability.availability;
    outcome.max_waiting = assessment->performability.max_expected_waiting;
    Digest digest;
    digest.Add(outcome.availability);
    digest.Add(outcome.max_waiting);
    digest.Add(assessment->performability.prob_degraded);
    outcome.digest = digest.value();
    if (traced) {
      AddRegistryLayers(layers, *registry);
      Probe(input, tracer, op, layers);
    }
    return outcome;
  };

  // Eight passes give at least 40 latencies, so op_tail_ms is p75 or
  // higher, never the median.
  ClosedLoop<Outcome> loop =
      RunClosedLoop<Outcome>(options, inputs.size(), report, run_op, 8);

  // Oracle checks, outside the timed region.
  if (options.inject_wrong && !loop.outcomes.empty()) {
    loop.outcomes.front().second.availability -= 1e-9;
  }
  const auto first = CheckOutcomes(
      loop.outcomes, inputs.size(), report,
      [&](size_t index, const Outcome& outcome) -> std::string {
        const double product = inputs[index].product_availability;
        if (std::abs(outcome.availability - product) <= 1e-12) return "";
        char why[128];
        std::snprintf(why, sizeof(why),
                      "availability %.17g != product form %.17g",
                      outcome.availability, product);
        return why;
      });
  const std::vector<double>& latencies = loop.latencies_ms;
  const std::vector<double>& traced_latencies = loop.traced_latencies_ms;

  SetClosedLoopMetrics(report, Median(setup_s), latencies,
                       loop.min_samples);
  Digest run_digest;
  wfms::Json per_input = wfms::Json::Array();
  size_t lumpable = 0;
  const std::vector<double> medians =
      PerInputMedians(latencies, inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    lumpable += specs[i].lumpable() ? 1 : 0;
    wfms::Json row = wfms::Json::Object();
    row.Set("lumpable", wfms::Json::Bool(specs[i].lumpable()));
    row.Set("unavailability",
            wfms::Json::Number(inputs[i].product_unavailability));
    row.Set("types", wfms::Json::Number(specs[i].types));
    row.Set("replicas", wfms::Json::Number(specs[i].replicas));
    row.Set("states", wfms::Json::Number(std::pow(specs[i].replicas + 1.0,
                                                  specs[i].types)));
    row.Set("median_ms", wfms::Json::Number(medians[i]));
    if (first[i].has_value()) {
      run_digest.Add(first[i]->digest);
      row.Set("availability", wfms::Json::Number(first[i]->availability));
      row.Set("abs_error",
              wfms::Json::Number(std::abs(first[i]->availability -
                                          inputs[i].product_availability)));
    }
    per_input.Append(std::move(row));
  }
  report.details.Set("passes", wfms::Json::Number(double(loop.passes)));
  report.details.Set("lumpable_inputs_share",
                     wfms::Json::Number(double(lumpable) / inputs.size()));
  report.details.Set("output_digest",
                     wfms::Json::Str(std::to_string(run_digest.value())));
  report.details.Set("per_input", std::move(per_input));

  if (options.trace) {
    SetTraceOverhead(layers, latencies, traced_latencies, tracer);
    SetLayerMetrics(report, layers, traced_latencies.size());
  }
  return report;
}

}  // namespace perfbench
