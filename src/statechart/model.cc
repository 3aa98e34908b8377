#include "statechart/model.h"

#include <set>
#include <utility>
#include <sstream>

#include "common/string_util.h"

namespace wfms::statechart {

std::string EcaRule::ToString() const {
  std::string out = event;
  if (!condition.empty()) {
    out += out.empty() ? "[" : " [";
    out += condition;
    out += "]";
  }
  if (!actions.empty()) {
    if (!out.empty()) out += " ";
    out += "/ " + JoinStrings(actions, "; ");
  }
  return out;
}

Result<size_t> StateChart::StateIndex(const std::string& name) const {
  const auto it = index_.find(name);
  if (it == index_.end()) {
    return Status::NotFound("chart '" + name_ + "' has no state '" + name +
                            "'");
  }
  return it->second;
}

std::vector<const Transition*> StateChart::OutgoingTransitions(
    const std::string& state) const {
  std::vector<const Transition*> out;
  for (const Transition& t : transitions_) {
    if (t.from == state) out.push_back(&t);
  }
  return out;
}

namespace {

std::string FormatDouble(double v) {
  std::ostringstream os;
  os.precision(12);
  os << v;
  return os.str();
}

}  // namespace

std::string StateChart::ToDsl() const {
  std::ostringstream os;
  os << "chart " << name_ << "\n";
  for (const ChartState& s : states_) {
    if (s.kind == StateKind::kComposite) {
      os << "  compound " << s.name << " subcharts="
         << JoinStrings(s.subcharts, ",") << "\n";
    } else {
      os << "  state " << s.name;
      if (!s.activity.empty()) os << " activity=" << s.activity;
      os << " residence=" << FormatDouble(s.residence_time) << "\n";
    }
  }
  os << "  initial " << initial_ << "\n";
  os << "  final " << final_ << "\n";
  for (const Transition& t : transitions_) {
    os << "  trans " << t.from << " -> " << t.to
       << " prob=" << FormatDouble(t.probability);
    if (!t.rule.event.empty()) os << " event=" << t.rule.event;
    if (!t.rule.condition.empty()) os << " cond=" << t.rule.condition;
    for (const std::string& a : t.rule.actions) os << " action=" << a;
    os << "\n";
  }
  os << "end\n";
  return os.str();
}

ChartRegistry::ChartRegistry(const ChartRegistry& other)
    : charts_(other.charts_),
      references_valid_(other.references_valid_.load()) {}

ChartRegistry& ChartRegistry::operator=(const ChartRegistry& other) {
  charts_ = other.charts_;
  references_valid_.store(other.references_valid_.load());
  return *this;
}

ChartRegistry::ChartRegistry(ChartRegistry&& other) noexcept
    : charts_(std::move(other.charts_)),
      references_valid_(other.references_valid_.load()) {
  other.references_valid_.store(false);
}

ChartRegistry& ChartRegistry::operator=(ChartRegistry&& other) noexcept {
  charts_ = std::move(other.charts_);
  references_valid_.store(other.references_valid_.load());
  other.references_valid_.store(false);
  return *this;
}

Status ChartRegistry::AddChart(StateChart chart) {
  const std::string name = chart.name();
  if (charts_.count(name) > 0) {
    return Status::AlreadyExists("chart '" + name + "' already registered");
  }
  charts_.emplace(name, std::move(chart));
  references_valid_.store(false);
  return Status::OK();
}

Result<const StateChart*> ChartRegistry::GetChart(
    const std::string& name) const {
  const auto it = charts_.find(name);
  if (it == charts_.end()) {
    return Status::NotFound("no chart named '" + name + "'");
  }
  return &it->second;
}

bool ChartRegistry::Contains(const std::string& name) const {
  return charts_.count(name) > 0;
}

std::vector<std::string> ChartRegistry::ChartNames() const {
  std::vector<std::string> names;
  names.reserve(charts_.size());
  for (const auto& [name, chart] : charts_) names.push_back(name);
  return names;
}

namespace {

enum class VisitState { kUnvisited, kInProgress, kDone };

Status DfsCheckCycles(const ChartRegistry& registry, const std::string& name,
                      std::map<std::string, VisitState>* visit) {
  auto& state = (*visit)[name];
  if (state == VisitState::kDone) return Status::OK();
  if (state == VisitState::kInProgress) {
    return Status::InvalidArgument("chart nesting cycle through '" + name +
                                   "'");
  }
  state = VisitState::kInProgress;
  WFMS_ASSIGN_OR_RETURN(const StateChart* chart, registry.GetChart(name));
  for (const ChartState& s : chart->states()) {
    for (const std::string& sub : s.subcharts) {
      if (!registry.Contains(sub)) {
        return Status::NotFound("chart '" + name + "' state '" + s.name +
                                "' references unknown subchart '" + sub +
                                "'");
      }
      WFMS_RETURN_NOT_OK(DfsCheckCycles(registry, sub, visit));
    }
  }
  (*visit)[name] = VisitState::kDone;
  return Status::OK();
}

}  // namespace

Status ChartRegistry::ValidateReferences() const {
  if (references_valid_.load()) return Status::OK();
  std::map<std::string, VisitState> visit;
  for (const auto& [name, chart] : charts_) {
    WFMS_RETURN_NOT_OK(DfsCheckCycles(*this, name, &visit));
  }
  references_valid_.store(true);
  return Status::OK();
}

std::string ChartRegistry::ToDsl() const {
  std::string out;
  for (const auto& [name, chart] : charts_) {
    out += chart.ToDsl();
    out += "\n";
  }
  return out;
}

}  // namespace wfms::statechart
