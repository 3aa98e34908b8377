// Per-workflow-type analysis (§4.1-§4.2 of the paper): mean turnaround
// time R_t via first-passage analysis, and the expected number of service
// requests r_{x,t} per server type via the Markov reward model, including
// the hierarchical treatment of (parallel) subworkflows of §4.2.2: a
// composite state contributes the *sum* of its subworkflows' expected
// requests and resides for the *maximum* of their turnaround times.
#ifndef WFMS_PERF_WORKFLOW_ANALYSIS_H_
#define WFMS_PERF_WORKFLOW_ANALYSIS_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "linalg/dense_matrix.h"
#include "linalg/vector.h"
#include "markov/absorbing_ctmc.h"
#include "statechart/to_ctmc.h"
#include "workflow/environment.h"

namespace wfms::perf {

enum class LoadMethod {
  /// Uniformization + taboo probabilities (§4.2.1) — the paper's method.
  kMarkovReward,
  /// Exact expected visit counts via the embedded chain's fundamental
  /// matrix; used as the validation baseline.
  kEmbeddedChain,
};

struct AnalysisOptions {
  LoadMethod method = LoadMethod::kMarkovReward;
  /// Residual absorption mass at which the reward summation stops.
  double residual_mass_threshold = 1e-12;
  statechart::MappingOptions mapping;
};

/// Configuration-independent analysis of one workflow type.
struct WorkflowAnalysis {
  std::string workflow_type;
  std::string chart;
  /// Mean turnaround time R_t (model time units).
  double turnaround_time = 0.0;
  /// r_{x,t}: expected service requests per server type x for one instance.
  linalg::Vector expected_requests;
  /// The mapped top-level CTMC (one state per chart state + s_A).
  markov::AbsorbingCtmc chain;
  /// Descriptors of the non-absorbing states.
  std::vector<statechart::MappedState> states;
  /// Entry-load matrix: state_loads(x, s) = service requests on server
  /// type x per entry of chain state s (composite states already carry
  /// their subworkflows' aggregate requests, §4.2.2). With phase-type
  /// macro-states a chart state's load sits on its first Erlang stage.
  linalg::DenseMatrix state_loads;
  /// Expected number of entries per chain state (from the embedded chain).
  linalg::Vector state_visits;
};

/// Analyzes the workflow types of one environment over a shared chart memo
/// (statechart::ChartMapper): each chart is mapped, solved and loaded once
/// per analyzer, however many workflow types and composite states reach
/// it. One analyzer serves one model build.
class WorkflowAnalyzer {
 public:
  /// `env.charts` must already have passed ValidateReferences();
  /// `env` must outlive the analyzer unchanged.
  WorkflowAnalyzer(const workflow::Environment& env,
                   const AnalysisOptions& options);

  /// Analyzes the chart of `spec` against the environment's load table.
  Result<WorkflowAnalysis> Analyze(const workflow::WorkflowTypeSpec& spec);

 private:
  /// r_{x, chart} of one execution of the chart, subworkflows included.
  Result<const linalg::Vector*> ChartRequests(const std::string& chart_name);
  /// The chart's entry-load matrix; fills chart.visits and chart.requests
  /// on first use.
  Result<linalg::DenseMatrix> Loads(statechart::MappedChart& chart);

  const workflow::Environment& env_;
  AnalysisOptions options_;
  statechart::ChartMapper mapper_;
};

/// Analyzes the chart of `spec` against the environment's load table,
/// after validating the chart registry's references.
Result<WorkflowAnalysis> AnalyzeWorkflow(const workflow::Environment& env,
                                         const workflow::WorkflowTypeSpec& spec,
                                         const AnalysisOptions& options = {});

}  // namespace wfms::perf

#endif  // WFMS_PERF_WORKFLOW_ANALYSIS_H_
