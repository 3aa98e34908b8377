// corpus_dag: seeded WfCommons-style JSON from all four generator
// patterns. One operation is ParseWfCommons -> CompileDag ->
// ConfigurationTool::Create (embedded-chain loads, as the corpus sweep
// uses) -> Assess of the all-ones configuration. Closed loop, one client.
//
// Oracle: the tool's turnaround R_t must equal MeanFirstPassageTimes(kLu)
// from the initial state of the freshly mapped chart, and every repeat of
// an input must reproduce the first result bit for bit.

#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "configtool/tool.h"
#include "corpus/compile.h"
#include "corpus/generator.h"
#include "corpus/importer.h"
#include "markov/first_passage.h"
#include "markov/transient.h"
#include "perf/performance_model.h"
#include "perf/workflow_analysis.h"
#include "statechart/to_ctmc.h"
#include "workloads.h"

namespace perfbench {
namespace {

using wfms::corpus::Pattern;

// Seed of the DAG shapes; the run seed only draws runtimes and data.
constexpr uint64_t kShapeSeed = 0x5eed;

struct InputSpec {
  Pattern pattern;
  size_t tasks;
};

// Sized so each operation takes roughly 0.05-0.25 s on one core: a chain
// collapses to near-linear cost, tree_reduce is the heaviest per task. An
// odd count keeps the median inside one input's latencies.
const std::vector<InputSpec>& FullInputs() {
  static const std::vector<InputSpec> inputs = {
      {Pattern::kChain, 768},         {Pattern::kChain, 1024},
      {Pattern::kForkJoin, 256},      {Pattern::kForkJoin, 384},
      {Pattern::kDiamondLadder, 256}, {Pattern::kDiamondLadder, 320},
      {Pattern::kTreeReduce, 200},
  };
  return inputs;
}

const std::vector<InputSpec>& TinyInputs() {
  static const std::vector<InputSpec> inputs = {
      {Pattern::kChain, 24},
      {Pattern::kForkJoin, 24},
      {Pattern::kDiamondLadder, 24},
      {Pattern::kTreeReduce, 24},
  };
  return inputs;
}

struct Outcome {
  double turnaround = 0.0;
  double availability = 0.0;
  double max_waiting = 0.0;
  uint64_t digest = 0;
  size_t tasks = 0;
};

wfms::performability::PerformabilityOptions ToolOptions() {
  wfms::performability::PerformabilityOptions options;
  options.analysis.method = wfms::perf::LoadMethod::kEmbeddedChain;
  return options;
}

/// Layer probes of a traced operation: each public layer call the tool
/// makes internally, repeated on the same environment and timed on its
/// own (they run after the operation's clock has stopped).
void Probe(const wfms::workflow::Environment& env, Tracer& tracer,
           uint64_t op, LayerTotals& layers) {
  const auto options = ToolOptions();
  ScopedSpan probe(&tracer, "probe", op);
  double map_ms = 0.0;
  for (const std::string& name : env.charts.ChartNames()) {
    wfms::Result<wfms::statechart::MappedWorkflow> mapped = [&] {
      ScopedSpan span(&tracer, "statechart.map", op);
      const Clock::time_point a = Clock::now();
      auto result = wfms::statechart::MapChartToCtmc(env.charts, name,
                                                     options.analysis.mapping);
      map_ms += MsBetween(a, Clock::now());
      return result;
    }();
    if (!mapped.ok()) continue;
    layers.Add("statechart.states",
               static_cast<double>(mapped->chain.num_states()));
    {
      ScopedSpan span(&tracer, "markov.first_passage", op);
      const Clock::time_point a = Clock::now();
      (void)wfms::markov::MeanFirstPassageTimes(mapped->chain);
      layers.Add("markov.first_passage_ms", MsBetween(a, Clock::now()));
    }
    {
      ScopedSpan span(&tracer, "markov.visits", op);
      const Clock::time_point a = Clock::now();
      (void)wfms::markov::ExpectedStateVisits(mapped->chain);
      layers.Add("markov.visits_ms", MsBetween(a, Clock::now()));
    }
  }
  layers.Add("statechart.map_ms", map_ms);

  // AnalyzeWorkflow maps its chart again; its own share is the call minus
  // the map of that chart.
  for (const auto& spec : env.workflows) {
    double main_map_ms = 0.0;
    {
      const Clock::time_point a = Clock::now();
      (void)wfms::statechart::MapChartToCtmc(env.charts, spec.chart,
                                             options.analysis.mapping);
      main_map_ms = MsBetween(a, Clock::now());
    }
    ScopedSpan span(&tracer, "perf.analyze", op);
    const Clock::time_point a = Clock::now();
    (void)wfms::perf::AnalyzeWorkflow(env, spec, options.analysis);
    layers.Add("perf.analyze_self_ms",
               std::max(0.0, MsBetween(a, Clock::now()) - main_map_ms));
  }
}

}  // namespace

Report RunCorpusDag(const Options& options, Tracer& tracer) {
  Report report;
  const std::vector<InputSpec>& specs =
      options.tiny ? TinyInputs() : FullInputs();

  // Set-up: generate every input's JSON text. The DAG shape of each input
  // slot is fixed (it sets the chart size, and with it the cost); the seed
  // draws every task's runtime and data volume, within a factor of 1.4
  // either way of the generated value.
  std::vector<std::string> texts;
  std::vector<double> setup_s;
  for (int rep = 0; rep < SetupReps(options); ++rep) {
    const double start_cpu = ThreadCpuMs();
    texts.clear();
    for (size_t i = 0; i < specs.size(); ++i) {
      wfms::corpus::Recipe recipe;
      recipe.pattern = specs[i].pattern;
      recipe.num_tasks = specs[i].tasks;
      recipe.seed = Mix(kShapeSeed, i) >> 11;  // survives a JSON double
      // Narrow fan-outs keep whole tree levels from overshooting the size.
      if (recipe.pattern == Pattern::kTreeReduce) recipe.fan_out_max = 3;
      auto dag = wfms::corpus::GenerateDag(recipe);
      if (!dag.ok()) {
        report.Fail("generate: " + dag.status().ToString());
        return report;
      }
      for (size_t t = 0; t < dag->tasks.size(); ++t) {
        const uint64_t r = Mix(options.seed, (i << 32) | t);
        const double u1 = double(r & 0xffffffffu) / 4294967296.0;
        const double u2 = double(r >> 32) / 4294967296.0;
        dag->tasks[t].runtime *= std::pow(2.0, u1 - 0.5);
        dag->tasks[t].data_bytes *= std::pow(2.0, u2 - 0.5);
      }
      texts.push_back(wfms::corpus::EmitWfCommons(*dag));
    }
    setup_s.push_back((ThreadCpuMs() - start_cpu) / 1000.0);
  }
  Digest input_digest;
  for (const std::string& text : texts) input_digest.Add(text);
  report.details.Set("input_digest",
                     wfms::Json::Str(std::to_string(input_digest.value())));

  const auto tool_options = ToolOptions();
  LayerTotals layers;
  // One operation; a traced one also records spans and probes.
  auto run_op = [&](size_t input, uint64_t op, bool traced,
                    double* latency_ms) -> wfms::Result<Outcome> {
    Outcome outcome;
    Tracer* spans = traced ? &tracer : nullptr;
    std::optional<RegistryDelta> registry;
    if (traced) registry.emplace();
    const double start_cpu = ThreadCpuMs();
    std::unique_ptr<wfms::workflow::Environment> env;
    {
      ScopedSpan op_span(spans, "op", op);
      wfms::Result<wfms::corpus::TaskDag> dag = [&] {
        ScopedSpan span(spans, "corpus.import", op);
        return wfms::corpus::ParseWfCommons(texts[input]);
      }();
      if (!dag.ok()) return dag.status();
      outcome.tasks = dag->tasks.size();
      {
        ScopedSpan span(spans, "corpus.compile", op);
        auto compiled = wfms::corpus::CompileDag(*dag);
        if (!compiled.ok()) return compiled.status();
        env = std::make_unique<wfms::workflow::Environment>(
            *std::move(compiled));
      }
      wfms::Result<wfms::configtool::ConfigurationTool> tool = [&] {
        ScopedSpan span(spans, "configtool.create", op);
        return wfms::configtool::ConfigurationTool::Create(*env,
                                                           tool_options);
      }();
      if (!tool.ok()) return tool.status();
      tool->set_num_threads(static_cast<size_t>(options.lanes));
      wfms::Result<wfms::configtool::Assessment> assessment = [&] {
        ScopedSpan span(spans, "configtool.assess", op);
        return tool->Assess(
            wfms::workflow::Configuration::Ones(env->servers.size()),
            wfms::configtool::Goals{});
      }();
      if (!assessment.ok()) return assessment.status();
      if (!assessment->error.ok()) return assessment->error;
      *latency_ms = ThreadCpuMs() - start_cpu;
      outcome.turnaround =
          tool->model().performance().workflows().at(0).turnaround_time;
      outcome.availability = assessment->performability.availability;
      outcome.max_waiting = assessment->performability.max_expected_waiting;
    }
    Digest digest;
    digest.Add(outcome.turnaround);
    digest.Add(outcome.availability);
    digest.Add(outcome.max_waiting);
    outcome.digest = digest.value();
    if (traced) {
      layers.Add("corpus.tasks", static_cast<double>(outcome.tasks));
      AddRegistryLayers(layers, *registry);
      Probe(*env, tracer, op, layers);
    }
    return outcome;
  };

  // 15 passes give at least 105 latencies: op_tail_ms is p90.
  ClosedLoop<Outcome> loop =
      RunClosedLoop<Outcome>(options, specs.size(), report, run_op, 15);

  // Oracle checks, outside the timed region.
  if (options.inject_wrong && !loop.outcomes.empty()) {
    loop.outcomes.front().second.turnaround *= 1.0 + 1e-6;
  }
  const auto first = CheckOutcomes(
      loop.outcomes, specs.size(), report,
      [&](size_t input, const Outcome& outcome) -> std::string {
        auto env = [&]() -> wfms::Result<wfms::workflow::Environment> {
          WFMS_ASSIGN_OR_RETURN(auto dag,
                                wfms::corpus::ParseWfCommons(texts[input]));
          return wfms::corpus::CompileDag(dag);
        }();
        if (!env.ok()) return "oracle: " + env.status().ToString();
        auto mapped = wfms::statechart::MapChartToCtmc(
            env->charts, env->workflows.at(0).chart,
            tool_options.analysis.mapping);
        if (!mapped.ok()) return "oracle map: " + mapped.status().ToString();
        auto passage = wfms::markov::MeanFirstPassageTimes(
            mapped->chain, wfms::markov::FirstPassageMethod::kLu);
        if (!passage.ok()) {
          return "oracle solve: " + passage.status().ToString();
        }
        const double expected = (*passage)[mapped->chain.initial_state()];
        if (std::abs(outcome.turnaround - expected) <=
            1e-9 * std::abs(expected)) {
          return "";
        }
        char why[128];
        std::snprintf(why, sizeof(why), "R_t %.17g != first-passage %.17g",
                      outcome.turnaround, expected);
        return why;
      });
  const std::vector<double>& latencies = loop.latencies_ms;
  const std::vector<double>& traced_latencies = loop.traced_latencies_ms;

  SetClosedLoopMetrics(report, Median(setup_s), latencies,
                       loop.min_samples);
  Digest run_digest;
  const std::vector<double> medians = PerInputMedians(latencies, specs.size());
  wfms::Json per_input = wfms::Json::Array();
  for (size_t i = 0; i < specs.size(); ++i) {
    wfms::Json row = wfms::Json::Object();
    row.Set("pattern",
            wfms::Json::Str(wfms::corpus::PatternName(specs[i].pattern)));
    row.Set("median_ms", wfms::Json::Number(medians[i]));
    if (first[i].has_value()) {
      run_digest.Add(first[i]->digest);
      row.Set("tasks", wfms::Json::Number(double(first[i]->tasks)));
    }
    per_input.Append(std::move(row));
  }
  report.details.Set("passes", wfms::Json::Number(double(loop.passes)));
  report.details.Set("output_digest",
                     wfms::Json::Str(std::to_string(run_digest.value())));
  report.details.Set("per_input", std::move(per_input));

  if (options.trace) {
    const size_t traced_ops = traced_latencies.size();
    const std::map<std::string, double> self = tracer.SelfMs();
    auto self_of = [&](const char* name) {
      const auto it = self.find(name);
      return it == self.end() ? 0.0 : it->second;
    };
    layers.Add("corpus.import_ms", self_of("corpus.import"));
    layers.Add("corpus.compile_ms", self_of("corpus.compile"));
    layers.Add("configtool.create_ms", self_of("configtool.create"));
    // Shares of the untraced median operation time.
    const double base = Median(latencies);
    const double ops = static_cast<double>(traced_ops);
    const double map_ms = layers.Value("statechart.map_ms", ops);
    layers.SetFinal("share.base_op_ms", base);
    if (base > 0.0) {
      layers.SetFinal("share.corpus",
                      (layers.Value("corpus.import_ms", ops) +
                       layers.Value("corpus.compile_ms", ops)) /
                          base);
      layers.SetFinal("share.statechart", map_ms / base);
      layers.SetFinal(
          "share.perf_markov",
          std::max(0.0, layers.Value("perf.model_build_ms", ops) - map_ms) /
              base);
    }
    SetTraceOverhead(layers, latencies, traced_latencies, tracer);
    SetLayerMetrics(report, layers, traced_ops);
  }
  return report;
}

}  // namespace perfbench
