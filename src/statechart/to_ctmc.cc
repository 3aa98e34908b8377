#include "statechart/to_ctmc.h"

#include <algorithm>

#include "common/metrics.h"
#include "common/trace.h"
#include "linalg/sparse_matrix.h"
#include "markov/phase_type.h"

namespace wfms::statechart {

namespace {

metrics::Counter& ChartsMappedTotal() {
  static metrics::Counter& counter =
      metrics::MetricsRegistry::Global().GetCounter(
          "wfms_statechart_charts_mapped_total");
  return counter;
}

/// The chart's CTMC given its composite states' residence times and
/// turnaround SCVs; the turnaround time is left for the caller to solve.
Result<MappedWorkflow> BuildChain(
    const StateChart& chart, const std::vector<double>& composite_residence,
    const std::vector<double>& composite_scv, const MappingOptions& options) {
  const size_t n = chart.num_states();
  std::vector<MappedState> state_infos;
  state_infos.reserve(n);
  linalg::Vector residence(n + 1, 0.0);
  for (size_t i = 0; i < n; ++i) {
    const ChartState& s = chart.state(i);
    MappedState info;
    info.name = s.name;
    info.activity = s.activity;
    info.subcharts = s.subcharts;
    info.residence_time = s.kind == StateKind::kComposite
                              ? composite_residence[i]
                              : s.residence_time;
    info.residence_time =
        std::max(info.residence_time, options.min_residence_time);
    residence[i] = info.residence_time;
    state_infos.push_back(std::move(info));
  }
  residence[n] = markov::kInfiniteResidence;

  // Transition matrix: chart transitions plus final -> s_A.
  linalg::SparseMatrixBuilder p(n + 1, n + 1);
  p.Reserve(chart.transitions().size() + 1);
  for (const Transition& t : chart.transitions()) {
    WFMS_ASSIGN_OR_RETURN(size_t from, chart.StateIndex(t.from));
    WFMS_ASSIGN_OR_RETURN(size_t to, chart.StateIndex(t.to));
    p.Add(from, to, t.probability);
  }
  WFMS_ASSIGN_OR_RETURN(size_t final_idx,
                        chart.StateIndex(chart.final_state()));
  p.Add(final_idx, n, 1.0);

  std::vector<std::string> names;
  names.reserve(n + 1);
  for (size_t i = 0; i < n; ++i) names.push_back(chart.state(i).name);
  names.push_back("s_A");

  WFMS_ASSIGN_OR_RETURN(size_t initial_idx,
                        chart.StateIndex(chart.initial_state()));
  auto chain = markov::AbsorbingCtmc::Create(std::move(p).Build(),
                                             std::move(residence),
                                             std::move(names), initial_idx, n);
  if (!chain.ok()) {
    return chain.status().WithContext("mapping chart '" + chart.name() +
                                      "'");
  }

  // Hierarchical phase-type decomposition: refine composite macro-states
  // into Erlang stages matching the dominant subchart's turnaround SCV.
  // The flat chain above stays the one and only path when the option is
  // off or no composite warrants more than one stage.
  std::vector<size_t> phase_origin;
  if (options.phase_type_composites) {
    std::vector<int> stages(n + 1, 1);
    bool any_expanded = false;
    for (size_t i = 0; i < n; ++i) {
      if (chart.state(i).kind != StateKind::kComposite) continue;
      stages[i] = markov::ErlangStagesForScv(composite_scv[i],
                                             options.max_phase_stages);
      state_infos[i].phase_stages = stages[i];
      any_expanded |= stages[i] > 1;
    }
    if (any_expanded) {
      auto expansion = markov::ExpandErlangStages(*chain, stages);
      if (!expansion.ok()) {
        return expansion.status().WithContext(
            "phase-type decomposition of chart '" + chart.name() + "'");
      }
      chain = std::move(expansion->chain);
      phase_origin = std::move(expansion->origin);
    }
  }
  return MappedWorkflow{*std::move(chain), std::move(state_infos), 0.0, {},
                        std::move(phase_origin)};
}

}  // namespace

ChartMapper::ChartMapper(const ChartRegistry& registry,
                         const MappingOptions& options)
    : registry_(registry), options_(options) {}

Result<MappedChart*> ChartMapper::Map(const std::string& chart_name) {
  const auto it = memo_.find(chart_name);
  if (it != memo_.end()) return &it->second;
  WFMS_ASSIGN_OR_RETURN(const StateChart* chart,
                        registry_.GetChart(chart_name));
  WFMS_ASSIGN_OR_RETURN(MappedChart mapped, MapChart(*chart));
  return &memo_.emplace(chart_name, std::move(mapped)).first->second;
}

Result<MappedChart> ChartMapper::MapChart(const StateChart& chart) {
  const size_t n = chart.num_states();

  // Composite residence: the maximum of the subcharts' turnaround times.
  // Subcharts are mapped first, so the spans below time this chart alone.
  // When the hierarchical phase-type decomposition is on, the dominant
  // subchart's turnaround SCV is kept per composite so the macro-state can
  // be refined into Erlang stages after the flat chain is built.
  std::vector<double> composite_residence(n, 0.0);
  std::vector<double> composite_scv(n, 1.0);
  for (size_t i = 0; i < n; ++i) {
    for (const std::string& sub : chart.state(i).subcharts) {
      WFMS_ASSIGN_OR_RETURN(const MappedChart* mapped_sub, Map(sub));
      if (mapped_sub->moments.mean > composite_residence[i]) {
        composite_residence[i] = mapped_sub->moments.mean;
        composite_scv[i] = mapped_sub->moments.scv();
      }
    }
  }

  ChartsMappedTotal().Increment();
  Result<MappedWorkflow> workflow = [&] {
    trace::TraceSpan span("statechart/map", "statechart");
    return BuildChain(chart, composite_residence, composite_scv, options_);
  }();
  if (!workflow.ok()) return workflow.status();
  Result<markov::TurnaroundMoments> moments = [&] {
    trace::TraceSpan span("markov/first_passage", "markov");
    return markov::TurnaroundTimeMoments(workflow->chain);
  }();
  if (!moments.ok()) return moments.status();
  workflow->turnaround_time = moments->mean;
  return MappedChart{*std::move(workflow), *moments, std::nullopt,
                     std::nullopt};
}

Result<MappedWorkflow> MapChartToCtmc(const ChartRegistry& registry,
                                      const std::string& chart_name,
                                      const MappingOptions& options) {
  WFMS_RETURN_NOT_OK(registry.ValidateReferences());
  ChartMapper mapper(registry, options);
  WFMS_ASSIGN_OR_RETURN(MappedChart* mapped, mapper.Map(chart_name));
  MappedWorkflow workflow = std::move(mapped->workflow);
  // A fresh mapper holds exactly this chart's nesting closure.
  for (const auto& [name, sub] : mapper.charts()) {
    if (name != chart_name) {
      workflow.subchart_turnarounds[name] = sub.moments.mean;
    }
  }
  return workflow;
}

Result<MappedWorkflow> MapChartToCtmc(const StateChart& chart,
                                      const MappingOptions& options) {
  for (const ChartState& s : chart.states()) {
    if (s.kind == StateKind::kComposite) {
      return Status::InvalidArgument(
          "chart '" + chart.name() +
          "' has composite states; map it through a ChartRegistry");
    }
  }
  ChartRegistry registry;
  WFMS_RETURN_NOT_OK(registry.AddChart(chart));
  ChartMapper mapper(registry, options);
  WFMS_ASSIGN_OR_RETURN(MappedChart* mapped, mapper.Map(chart.name()));
  return std::move(mapped->workflow);
}

}  // namespace wfms::statechart
