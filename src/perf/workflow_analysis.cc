#include "perf/workflow_analysis.h"

#include <numeric>
#include <vector>

#include "common/trace.h"
#include "markov/transient.h"

namespace wfms::perf {

using linalg::DenseMatrix;
using linalg::Vector;

WorkflowAnalyzer::WorkflowAnalyzer(const workflow::Environment& env,
                                   const AnalysisOptions& options)
    : env_(env), options_(options), mapper_(env.charts, options.mapping) {}

Result<const Vector*> WorkflowAnalyzer::ChartRequests(
    const std::string& chart_name) {
  WFMS_ASSIGN_OR_RETURN(statechart::MappedChart* chart,
                        mapper_.Map(chart_name));
  if (!chart->requests) WFMS_RETURN_NOT_OK(Loads(*chart).status());
  return &*chart->requests;
}

Result<DenseMatrix> WorkflowAnalyzer::Loads(statechart::MappedChart& chart) {
  const size_t k = env_.num_server_types();
  const statechart::MappedWorkflow& mapped = chart.workflow;
  const size_t n = mapped.chain.num_states();

  // A composite state's entry load is the sum of its subworkflows' request
  // vectors (§4.2.2). They are loaded first, so the span below times this
  // chart alone.
  std::vector<Vector> composite_loads(mapped.states.size());
  for (size_t s = 0; s < mapped.states.size(); ++s) {
    if (mapped.states[s].subcharts.empty()) continue;
    Vector load(k, 0.0);
    for (const std::string& sub : mapped.states[s].subcharts) {
      WFMS_ASSIGN_OR_RETURN(const Vector* sub_requests, ChartRequests(sub));
      for (size_t x = 0; x < k; ++x) load[x] += (*sub_requests)[x];
    }
    composite_loads[s] = std::move(load);
  }

  trace::TraceSpan span("perf/loads", "perf");
  // Chain column of each chart state: its first Erlang stage when the
  // phase-type decomposition expanded the chart (a load is earned once per
  // entry), the same index otherwise.
  std::vector<size_t> column(mapped.states.size());
  std::iota(column.begin(), column.end(), size_t{0});
  for (size_t c = mapped.phase_origin.size(); c-- > 0;) {
    if (mapped.phase_origin[c] < column.size()) {
      column[mapped.phase_origin[c]] = c;
    }
  }
  // Per-state entry loads: activity load for simple states, the summed
  // subworkflow requests for composite states.
  DenseMatrix state_loads(k, n);
  for (size_t s = 0; s < mapped.states.size(); ++s) {
    const statechart::MappedState& info = mapped.states[s];
    Vector load(k, 0.0);
    if (!info.subcharts.empty()) {
      load = std::move(composite_loads[s]);
    } else if (!info.activity.empty()) {
      load = env_.loads.LoadOf(info.activity, k);
    }
    for (size_t x = 0; x < k; ++x) state_loads.At(x, column[s]) = load[x];
  }
  if (chart.requests) return state_loads;

  WFMS_ASSIGN_OR_RETURN(Vector visits,
                        markov::ExpectedStateVisits(mapped.chain));
  Vector requests(k, 0.0);
  if (options_.method == LoadMethod::kEmbeddedChain) {
    for (size_t x = 0; x < k; ++x) {
      double total = 0.0;
      for (size_t s = 0; s < n; ++s) {
        total += visits[s] * state_loads.At(x, s);
      }
      requests[x] = total;
    }
  } else {
    markov::RewardOptions reward_options;
    reward_options.residual_mass_threshold = options_.residual_mass_threshold;
    for (size_t x = 0; x < k; ++x) {
      Vector entry_rewards(n, 0.0);
      for (size_t s = 0; s < n; ++s) entry_rewards[s] = state_loads.At(x, s);
      WFMS_ASSIGN_OR_RETURN(
          markov::RewardResult reward,
          markov::ExpectedRewardUntilAbsorption(mapped.chain, entry_rewards,
                                                reward_options));
      requests[x] = reward.expected_reward;
    }
  }
  chart.visits = std::move(visits);
  chart.requests = std::move(requests);
  return state_loads;
}

Result<WorkflowAnalysis> WorkflowAnalyzer::Analyze(
    const workflow::WorkflowTypeSpec& spec) {
  WFMS_ASSIGN_OR_RETURN(statechart::MappedChart* chart,
                        mapper_.Map(spec.chart));
  Result<DenseMatrix> state_loads = Loads(*chart);
  if (!state_loads.ok()) {
    return state_loads.status().WithContext("workflow type '" + spec.name +
                                            "'");
  }
  const statechart::MappedWorkflow& mapped = chart->workflow;
  return WorkflowAnalysis{spec.name,
                          spec.chart,
                          mapped.turnaround_time,
                          *chart->requests,
                          mapped.chain,
                          mapped.states,
                          *std::move(state_loads),
                          *chart->visits};
}

Result<WorkflowAnalysis> AnalyzeWorkflow(
    const workflow::Environment& env, const workflow::WorkflowTypeSpec& spec,
    const AnalysisOptions& options) {
  WFMS_RETURN_NOT_OK(env.charts.ValidateReferences());
  WorkflowAnalyzer analyzer(env, options);
  return analyzer.Analyze(spec);
}

}  // namespace wfms::perf
