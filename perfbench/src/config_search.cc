// config_search: cold recommend searches on the ep (3 server types),
// benchmark-mix (5 types) and geo scenarios. Methods are greedy and
// branch-and-bound, plus greedy-site with survive-one-site goals on geo;
// goals come from the seed, from lenient to unreachable. The three tools
// are built in set-up; ClearAssessmentCache() runs before every
// operation, so each one is a full search. Closed loop, one client.
//
// Oracle (after the timed loop): every branch-and-bound cost equals
// ExhaustiveMinCost's, every recommended configuration re-assessed from a
// cold cache meets its goals at the reported cost, and every repeat of an
// operation reproduces its first result.

#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "configtool/tool.h"
#include "markov/first_passage.h"
#include "markov/transient.h"
#include "perf/performance_model.h"
#include "statechart/to_ctmc.h"
#include "workflow/scenarios.h"
#include "workloads.h"

namespace perfbench {
namespace {

using wfms::configtool::ConfigurationTool;
using wfms::configtool::Goals;
using wfms::configtool::SearchResult;

enum class Scenario { kEp, kBenchmark, kGeo };
enum class Method { kGreedy, kBranchAndBound, kGreedySite };

const char* ScenarioName(Scenario s) {
  switch (s) {
    case Scenario::kEp: return "ep";
    case Scenario::kBenchmark: return "benchmark";
    case Scenario::kGeo: return "geo";
  }
  return "?";
}

const char* MethodName(Method m) {
  switch (m) {
    case Method::kGreedy: return "greedy";
    case Method::kBranchAndBound: return "bnb";
    case Method::kGreedySite: return "greedy-site";
  }
  return "?";
}

// Goal levels: (max expected waiting in minutes, min availability).
struct Level {
  const char* name;
  double max_wait;
  double min_avail;
};
constexpr Level kLenient{"lenient", 0.5, 0.99};
constexpr Level kModerate{"moderate", 0.1, 0.9999};
constexpr Level kStrict{"strict", 0.03, 0.999999};
constexpr Level kUnreachable{"unreachable", 1e-4, 0.99999999999};
constexpr Level kGeoMid{"geo-mid", 0.2, 0.999};

struct OpSpec {
  Scenario scenario;
  Method method;
  Level level;
};

// An odd count keeps the median inside one operation's latencies.
const std::vector<OpSpec>& FullOps() {
  static const std::vector<OpSpec> ops = {
      {Scenario::kEp, Method::kGreedy, kUnreachable},
      {Scenario::kEp, Method::kBranchAndBound, kModerate},
      {Scenario::kEp, Method::kBranchAndBound, kStrict},
      {Scenario::kBenchmark, Method::kGreedy, kStrict},
      {Scenario::kBenchmark, Method::kGreedy, kUnreachable},
      {Scenario::kBenchmark, Method::kBranchAndBound, kModerate},
      {Scenario::kBenchmark, Method::kBranchAndBound, kStrict},
      {Scenario::kGeo, Method::kGreedySite, kLenient},
      {Scenario::kGeo, Method::kGreedySite, kGeoMid},
  };
  return ops;
}

const std::vector<OpSpec>& TinyOps() {
  static const std::vector<OpSpec> ops = {
      {Scenario::kEp, Method::kGreedy, kLenient},
      {Scenario::kEp, Method::kBranchAndBound, kModerate},
      {Scenario::kGeo, Method::kGreedySite, kLenient},
  };
  return ops;
}

// Search space bound per server type: keeps the exhaustive oracle on the
// five-type mix at 4^5 candidates.
int MaxReplicas(Scenario s) { return s == Scenario::kBenchmark ? 4 : 8; }

struct Op {
  OpSpec spec;
  Goals goals;
};

struct Outcome {
  std::vector<int> config;
  std::vector<int> site_config;
  double cost = 0.0;
  bool satisfied = false;
  int evaluations = 0;
  int cache_hits = 0;
  uint64_t digest = 0;
};

struct Tools {
  std::vector<std::unique_ptr<wfms::workflow::Environment>> envs;
  std::vector<std::unique_ptr<ConfigurationTool>> tools;
};

wfms::Result<Tools> BuildTools(int lanes) {
  Tools tools;
  for (const Scenario s : {Scenario::kEp, Scenario::kBenchmark,
                           Scenario::kGeo}) {
    wfms::Result<wfms::workflow::Environment> env =
        s == Scenario::kEp          ? wfms::workflow::EpEnvironment()
        : s == Scenario::kBenchmark ? wfms::workflow::BenchmarkEnvironment()
                                    : wfms::workflow::GeoEpEnvironment();
    if (!env.ok()) return env.status();
    tools.envs.push_back(
        std::make_unique<wfms::workflow::Environment>(*std::move(env)));
    WFMS_ASSIGN_OR_RETURN(ConfigurationTool tool,
                          ConfigurationTool::Create(*tools.envs.back()));
    tool.set_num_threads(static_cast<size_t>(lanes));
    tools.tools.push_back(
        std::make_unique<ConfigurationTool>(std::move(tool)));
  }
  return tools;
}

wfms::Result<SearchResult> Search(const ConfigurationTool& tool,
                                  const Op& op) {
  wfms::configtool::SearchConstraints constraints;
  constraints.max_replicas.assign(
      tool.model().performance().environment().num_server_types(),
      MaxReplicas(op.spec.scenario));
  switch (op.spec.method) {
    case Method::kGreedy:
      return tool.GreedyMinCost(op.goals, constraints);
    case Method::kBranchAndBound:
      return tool.BranchAndBoundMinCost(op.goals, constraints);
    case Method::kGreedySite:
      return tool.GreedySiteMinCost(op.goals);
  }
  return wfms::Status::Internal("unknown method");
}

/// Layer probes of the set-up: the chart mapping, absorbing-chain solves
/// and performance-model build each tool creation runs internally.
void ProbeSetup(const Tools& tools, Tracer& tracer, LayerTotals& layers) {
  double map_ms = 0.0, states = 0.0, passage_ms = 0.0, visits_ms = 0.0;
  double build_ms = 0.0;
  for (const auto& env : tools.envs) {
    ScopedSpan probe(&tracer, "probe", 0);
    for (const std::string& name : env->charts.ChartNames()) {
      const Clock::time_point a = Clock::now();
      auto mapped = [&] {
        ScopedSpan span(&tracer, "statechart.map", 0);
        return wfms::statechart::MapChartToCtmc(env->charts, name);
      }();
      map_ms += MsBetween(a, Clock::now());
      if (!mapped.ok()) continue;
      states += static_cast<double>(mapped->chain.num_states());
      const Clock::time_point b = Clock::now();
      {
        ScopedSpan span(&tracer, "markov.first_passage", 0);
        (void)wfms::markov::MeanFirstPassageTimes(mapped->chain);
      }
      const Clock::time_point c = Clock::now();
      {
        ScopedSpan span(&tracer, "markov.visits", 0);
        (void)wfms::markov::ExpectedStateVisits(mapped->chain);
      }
      passage_ms += MsBetween(b, c);
      visits_ms += MsBetween(c, Clock::now());
    }
    const Clock::time_point a = Clock::now();
    {
      ScopedSpan span(&tracer, "perf.model_build", 0);
      (void)wfms::perf::PerformanceModel::Create(*env);
    }
    build_ms += MsBetween(a, Clock::now());
  }
  // Per set-up figures, not per operation.
  layers.SetFinal("statechart.map_ms", map_ms);
  layers.SetFinal("statechart.states", states);
  layers.SetFinal("markov.first_passage_ms", passage_ms);
  layers.SetFinal("markov.visits_ms", visits_ms);
  layers.SetFinal("perf.model_build_ms", build_ms);
}

}  // namespace

Report RunConfigSearch(const Options& options, Tracer& tracer) {
  Report report;
  const std::vector<OpSpec>& specs = options.tiny ? TinyOps() : FullOps();

  // Goals drawn from the seed around each level (a factor of up to 1.1 in
  // either direction on the waiting limit and the unavailability budget).
  std::vector<Op> ops;
  for (size_t i = 0; i < specs.size(); ++i) {
    const uint64_t r = Mix(options.seed, 1000 + i);
    const double u1 = double(r & 0xffffffffu) / 4294967296.0;
    const double u2 = double(r >> 32) / 4294967296.0;
    Op op{specs[i], Goals{}};
    op.goals.max_waiting_time =
        specs[i].level.max_wait * std::pow(2.0, 0.28 * (u1 - 0.5));
    op.goals.min_availability =
        1.0 - (1.0 - specs[i].level.min_avail) * std::pow(2.0, 0.28 * (u2 - 0.5));
    if (specs[i].method == Method::kGreedySite) op.goals.survive_sites = 1;
    ops.push_back(op);
  }
  Digest input_digest;
  for (const Op& op : ops) {
    input_digest.Add(op.goals.max_waiting_time);
    input_digest.Add(op.goals.min_availability);
  }
  report.details.Set("input_digest",
                     wfms::Json::Str(std::to_string(input_digest.value())));

  // Set-up: build the three tools (timed create spans when traced).
  std::vector<double> setup_s;
  Tools tools;
  double create_ms = 0.0;
  for (int rep = 0; rep < SetupReps(options); ++rep) {
    const double start_cpu = ThreadCpuMs();
    auto built = BuildTools(options.lanes);
    if (!built.ok()) {
      report.Fail("set-up: " + built.status().ToString());
      return report;
    }
    tools = *std::move(built);
    setup_s.push_back((ThreadCpuMs() - start_cpu) / 1000.0);
    create_ms = setup_s.back() * 1000.0;
  }

  LayerTotals layers;
  auto run_op = [&](size_t index, uint64_t op_id, bool traced,
                    double* latency_ms) -> wfms::Result<Outcome> {
    const Op& op = ops[index];
    ConfigurationTool& tool =
        *tools.tools[static_cast<size_t>(op.spec.scenario)];
    tool.ClearAssessmentCache();
    std::optional<RegistryDelta> registry;
    if (traced) registry.emplace();
    Tracer* spans = traced ? &tracer : nullptr;
    const double start_cpu = ThreadCpuMs();
    wfms::Result<SearchResult> result = [&] {
      ScopedSpan op_span(spans, "op", op_id);
      ScopedSpan span(spans, "configtool.search", op_id);
      return Search(tool, op);
    }();
    *latency_ms = ThreadCpuMs() - start_cpu;
    if (!result.ok()) return result.status();
    if (!result->termination.ok()) return result->termination;
    Outcome outcome;
    outcome.config = result->config.replicas;
    outcome.site_config = result->config.site_counts;
    outcome.cost = result->cost;
    outcome.satisfied = result->satisfied;
    outcome.evaluations = result->evaluations;
    outcome.cache_hits = result->cache_hits;
    Digest digest;
    for (const int r : outcome.config) digest.Add(uint64_t(r));
    for (const int r : outcome.site_config) digest.Add(uint64_t(r));
    digest.Add(outcome.cost);
    digest.Add(uint64_t(outcome.satisfied));
    digest.Add(result->assessment.performability.availability);
    digest.Add(result->assessment.performability.max_expected_waiting);
    outcome.digest = digest.value();
    if (traced) {
      layers.Add("configtool.evaluations", outcome.evaluations);
      AddRegistryLayers(layers, *registry);
    }
    return outcome;
  };

  // 23 passes give at least 207 latencies: op_tail_ms is p95.
  ClosedLoop<Outcome> loop =
      RunClosedLoop<Outcome>(options, ops.size(), report, run_op, 23);

  // Oracle checks, outside the timed region.
  if (options.inject_wrong && !loop.outcomes.empty()) {
    loop.outcomes.front().second.cost += 1.0;
  }
  const auto first = CheckOutcomes(
      loop.outcomes, ops.size(), report,
      [&](size_t index, const Outcome& outcome) -> std::string {
        const Op& op = ops[index];
        const std::string label =
            std::string(ScenarioName(op.spec.scenario)) + "/" +
            MethodName(op.spec.method) + "/" + op.spec.level.name + ": ";
        ConfigurationTool& tool =
            *tools.tools[static_cast<size_t>(op.spec.scenario)];
        if (outcome.cost !=
            wfms::configtool::CostModel::Uniform().Cost(outcome.config)) {
          return label + "reported cost is not the configuration's cost";
        }
        if (op.spec.method == Method::kBranchAndBound) {
          tool.ClearAssessmentCache();
          wfms::configtool::SearchConstraints constraints;
          constraints.max_replicas.assign(outcome.config.size(),
                                          MaxReplicas(op.spec.scenario));
          auto exhaustive = tool.ExhaustiveMinCost(op.goals, constraints);
          if (!exhaustive.ok()) {
            return label + "exhaustive oracle: " +
                   exhaustive.status().ToString();
          }
          if (exhaustive->satisfied != outcome.satisfied ||
              (outcome.satisfied && exhaustive->cost != outcome.cost)) {
            return label + "branch-and-bound cost differs from exhaustive "
                           "search";
          }
        }
        if (outcome.satisfied) {
          tool.ClearAssessmentCache();
          const wfms::workflow::Configuration config =
              outcome.site_config.empty()
                  ? wfms::workflow::Configuration(outcome.config)
                  : wfms::workflow::Configuration::FromSiteCounts(
                        outcome.site_config,
                        outcome.site_config.size() / outcome.config.size());
          auto assessed = tool.Assess(config, op.goals);
          if (!assessed.ok() || !assessed->Satisfies() ||
              assessed->cost != outcome.cost) {
            return label + "recommended configuration does not meet its "
                           "goals on re-assessment";
          }
        }
        return "";
      });
  const std::vector<double>& latencies = loop.latencies_ms;
  const std::vector<double>& traced_latencies = loop.traced_latencies_ms;

  SetClosedLoopMetrics(report, Median(setup_s), latencies,
                       loop.min_samples);
  Digest run_digest;
  const std::vector<double> medians = PerInputMedians(latencies, ops.size());
  wfms::Json per_op = wfms::Json::Array();
  for (size_t i = 0; i < ops.size(); ++i) {
    wfms::Json row = wfms::Json::Object();
    row.Set("scenario", wfms::Json::Str(ScenarioName(ops[i].spec.scenario)));
    row.Set("method", wfms::Json::Str(MethodName(ops[i].spec.method)));
    row.Set("level", wfms::Json::Str(ops[i].spec.level.name));
    row.Set("median_ms", wfms::Json::Number(medians[i]));
    if (first[i].has_value()) {
      run_digest.Add(first[i]->digest);
      row.Set("satisfied", wfms::Json::Bool(first[i]->satisfied));
      row.Set("cost", wfms::Json::Number(first[i]->cost));
      row.Set("evaluations", wfms::Json::Number(first[i]->evaluations));
      row.Set("cache_hits", wfms::Json::Number(first[i]->cache_hits));
    }
    per_op.Append(std::move(row));
  }
  report.details.Set("passes", wfms::Json::Number(double(loop.passes)));
  report.details.Set("output_digest",
                     wfms::Json::Str(std::to_string(run_digest.value())));
  report.details.Set("per_op", std::move(per_op));

  if (options.trace) {
    ProbeSetup(tools, tracer, layers);
    layers.SetFinal("configtool.create_ms", create_ms);
    const std::map<std::string, double> self = tracer.SelfMs();
    layers.Add("configtool.search_ms", self.count("configtool.search")
                                           ? self.at("configtool.search")
                                           : 0.0);
    SetTraceOverhead(layers, latencies, traced_latencies, tracer);
    SetLayerMetrics(report, layers, traced_latencies.size());
  }
  return report;
}

}  // namespace perfbench
