// Harel-style state charts as the workflow specification language (§3.1 of
// the paper): finite state machines with ECA-rule transitions, nested
// states (subworkflows), and orthogonal components (parallel subworkflows).
//
// A chart state is either *simple* — it corresponds to one activity with an
// estimated mean residence time — or *composite* — it embeds one or more
// subcharts that run in parallel (orthogonal components). Transitions carry
// an E[C]/A rule plus the designer-estimated branching probability used by
// the CTMC mapping of §3.2.
#ifndef WFMS_STATECHART_MODEL_H_
#define WFMS_STATECHART_MODEL_H_

#include <atomic>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"

namespace wfms::statechart {

/// An E[C]/A rule: fire on `event` when `condition` holds, executing
/// `actions`. Any component may be empty. Actions use the paper's notation:
/// st!(activity) starts an activity, fs!(c)/tr!(c) set a condition variable
/// to false/true, ev!(e) raises an event.
struct EcaRule {
  std::string event;
  std::string condition;
  std::vector<std::string> actions;

  bool empty() const {
    return event.empty() && condition.empty() && actions.empty();
  }
  /// Renders as "E [C] / a1; a2".
  std::string ToString() const;
};

enum class StateKind {
  kSimple,     // one activity (or an idle state with no activity)
  kComposite,  // nested subcharts, parallel when more than one
};

struct ChartState {
  std::string name;
  StateKind kind = StateKind::kSimple;
  /// Activity type invoked while in this state; empty for pure control
  /// states and for composite states.
  std::string activity;
  /// Estimated mean residence time (model time units). For composite
  /// states this field is ignored — the CTMC mapping derives the residence
  /// from the subcharts' turnaround times.
  double residence_time = 0.0;
  /// Names of embedded subcharts (composite states only).
  std::vector<std::string> subcharts;
};

struct Transition {
  std::string from;
  std::string to;
  /// Branching probability estimated by the workflow designer or calibrated
  /// from audit trails (§3.2). Outgoing probabilities of a state must sum
  /// to 1.
  double probability = 1.0;
  EcaRule rule;
};

/// A validated state chart. Construct via ChartBuilder (builder.h) or the
/// DSL parser (parser.h).
class StateChart {
 public:
  const std::string& name() const { return name_; }
  const std::vector<ChartState>& states() const { return states_; }
  const std::vector<Transition>& transitions() const { return transitions_; }
  const std::string& initial_state() const { return initial_; }
  const std::string& final_state() const { return final_; }

  size_t num_states() const { return states_.size(); }
  Result<size_t> StateIndex(const std::string& name) const;
  const ChartState& state(size_t i) const { return states_[i]; }

  /// Outgoing transitions of a state, in declaration order.
  std::vector<const Transition*> OutgoingTransitions(
      const std::string& state) const;

  /// Serializes to the textual DSL accepted by the parser (round-trips).
  std::string ToDsl() const;

 private:
  friend class ChartBuilder;
  StateChart() = default;

  std::string name_;
  std::vector<ChartState> states_;
  std::vector<Transition> transitions_;
  std::map<std::string, size_t> index_;
  std::string initial_;
  std::string final_;
};

/// A named collection of charts; composite states reference subcharts by
/// name within a registry.
class ChartRegistry {
 public:
  ChartRegistry() = default;
  ChartRegistry(const ChartRegistry& other);
  ChartRegistry& operator=(const ChartRegistry& other);
  ChartRegistry(ChartRegistry&& other) noexcept;
  ChartRegistry& operator=(ChartRegistry&& other) noexcept;

  Status AddChart(StateChart chart);
  Result<const StateChart*> GetChart(const std::string& name) const;
  bool Contains(const std::string& name) const;
  std::vector<std::string> ChartNames() const;
  size_t size() const { return charts_.size(); }

  /// Checks that every referenced subchart exists and that the nesting
  /// relation is acyclic. A registry changes only through AddChart, so a
  /// passing check is remembered until the next AddChart: repeated calls
  /// on an unchanged registry (one per public chart mapping) cost O(1).
  Status ValidateReferences() const;

  /// Serializes all charts to DSL text.
  std::string ToDsl() const;

 private:
  std::map<std::string, StateChart> charts_;
  /// Set by a passing ValidateReferences(), cleared by AddChart.
  mutable std::atomic<bool> references_valid_{false};
};

}  // namespace wfms::statechart

#endif  // WFMS_STATECHART_MODEL_H_
