// The statechart -> CTMC mapping of §3.2 of the paper.
//
// Each chart state becomes one CTMC state; an artificial absorbing state
// s_A is appended, entered from the chart's final state with probability 1.
// A composite state (parallel subworkflows) is mapped hierarchically: its
// mean residence time is the maximum of the mean turnaround times of its
// subcharts (a conservative lower bound of the true residence, as the
// paper notes), where each subchart's turnaround is the first-passage time
// of its own recursively mapped CTMC.
//
// ChartMapper maps every chart of a registry at most once: a model build
// (perf::PerformanceModel::Create) shares one mapper between the
// composite-state recursion and the workflow analysis, so a subchart that
// many composites embed is mapped and solved once.
#ifndef WFMS_STATECHART_TO_CTMC_H_
#define WFMS_STATECHART_TO_CTMC_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "linalg/vector.h"
#include "markov/absorbing_ctmc.h"
#include "markov/first_passage_moments.h"
#include "statechart/model.h"

namespace wfms::statechart {

struct MappedState {
  std::string name;
  /// Activity invoked in this state ("" for control/composite states).
  std::string activity;
  /// Subcharts embedded in this state (composite states only).
  std::vector<std::string> subcharts;
  /// Effective mean residence time used in the CTMC: the declared value
  /// for simple states, max of subchart turnarounds for composite states.
  double residence_time = 0.0;
  /// Erlang stages this state was refined into (1 unless the hierarchical
  /// phase-type decomposition expanded a composite state).
  int phase_stages = 1;
};

struct MappedWorkflow {
  /// CTMC with one state per chart state (in chart declaration order)
  /// followed by the artificial absorbing state s_A.
  markov::AbsorbingCtmc chain;
  /// Descriptors for the non-absorbing states, aligned with chain indices.
  std::vector<MappedState> states;
  /// Mean turnaround time of this chart (first-passage time to s_A).
  double turnaround_time = 0.0;
  /// Turnaround times of all (transitively) embedded subcharts. Filled by
  /// MapChartToCtmc; empty in a ChartMapper's memo entries.
  std::map<std::string, double> subchart_turnarounds;
  /// Hierarchical phase-type decomposition only: chart-state index that
  /// each chain state originates from (chain states outnumber chart states
  /// once composites expand into Erlang stages). Empty when no state was
  /// expanded — chain indices then align with `states` directly.
  std::vector<size_t> phase_origin;

  size_t num_activity_states() const { return states.size(); }
};

struct MappingOptions {
  /// States declared with zero residence (pure control states) receive
  /// this residence so the CTMC stays well-formed; negligible vs. real
  /// activity durations.
  double min_residence_time = 1e-9;
  /// Hierarchical decomposition of composite states into phase-type
  /// macro-states: each subchart is solved once for its turnaround *moments*
  /// (mean and SCV, memoized across composites referencing it), and the
  /// composite state — whose residence is far less variable than an
  /// exponential when its subworkflows have many stages — is refined into
  /// an Erlang-k macro-state matching the dominant subchart's SCV
  /// (markov::ErlangStagesForScv). Off by default: the flat exponential
  /// mapping of §3.2 is the paper's baseline and the regression contract.
  bool phase_type_composites = false;
  /// Stage cap per composite state for the phase-type refinement.
  int max_phase_stages = 8;
};

/// One chart of a ChartMapper's memo: mapped and solved once, plus the
/// per-chart results the workflow analysis (perf/workflow_analysis.h)
/// derives from its chain, filled in there on first use.
struct MappedChart {
  MappedWorkflow workflow;
  /// Turnaround moments from the initial state; mean equals
  /// workflow.turnaround_time.
  markov::TurnaroundMoments moments;
  /// Expected entries per chain state (markov::ExpectedStateVisits).
  std::optional<linalg::Vector> visits;
  /// Expected service requests per server type of one execution,
  /// subworkflows included.
  std::optional<linalg::Vector> requests;
};

/// Maps the charts of one registry, each at most once.
class ChartMapper {
 public:
  /// `registry` must already have passed ValidateReferences() (the mapper
  /// does not re-check it) and must outlive the mapper unchanged.
  ChartMapper(const ChartRegistry& registry, const MappingOptions& options);

  /// The memo entry of `chart_name`, mapped together with its subcharts on
  /// the first call. Entries stay valid for the mapper's lifetime.
  Result<MappedChart*> Map(const std::string& chart_name);

  /// Every chart mapped so far, by name.
  const std::map<std::string, MappedChart>& charts() const { return memo_; }

 private:
  Result<MappedChart> MapChart(const StateChart& chart);

  const ChartRegistry& registry_;
  MappingOptions options_;
  std::map<std::string, MappedChart> memo_;
};

/// Maps `chart_name` (and, recursively, its subcharts) from the registry,
/// after validating the registry's references.
Result<MappedWorkflow> MapChartToCtmc(const ChartRegistry& registry,
                                      const std::string& chart_name,
                                      const MappingOptions& options = {});

/// Convenience: maps a standalone chart with no composite states.
Result<MappedWorkflow> MapChartToCtmc(const StateChart& chart,
                                      const MappingOptions& options = {});

}  // namespace wfms::statechart

#endif  // WFMS_STATECHART_TO_CTMC_H_
