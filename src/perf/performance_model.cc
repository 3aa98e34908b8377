#include "perf/performance_model.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/metrics.h"
#include "common/trace.h"
#include "queueing/mg1.h"

namespace wfms::perf {

using linalg::Vector;
using workflow::Configuration;

Result<PerformanceModel> PerformanceModel::Create(
    const workflow::Environment& env, const AnalysisOptions& options) {
  auto& registry = metrics::MetricsRegistry::Global();
  static metrics::Counter& builds =
      registry.GetCounter("wfms_perf_model_builds_total");
  static metrics::Histogram& build_seconds =
      registry.GetHistogram("wfms_perf_model_build_seconds");
  builds.Increment();
  trace::TraceSpan span("perf/model_build", "perf");
  const auto start = std::chrono::steady_clock::now();

  // Validates the chart registry too, once: the analyzer's chart memo
  // relies on it and maps every chart at most once for the whole build.
  WFMS_RETURN_NOT_OK(env.Validate());
  WorkflowAnalyzer analyzer(env, options);
  std::vector<WorkflowAnalysis> analyses;
  analyses.reserve(env.workflows.size());
  Vector rates(env.num_server_types(), 0.0);
  for (const workflow::WorkflowTypeSpec& spec : env.workflows) {
    WFMS_ASSIGN_OR_RETURN(WorkflowAnalysis analysis, analyzer.Analyze(spec));
    for (size_t x = 0; x < rates.size(); ++x) {
      rates[x] += spec.arrival_rate * analysis.expected_requests[x];
    }
    analyses.push_back(std::move(analysis));
  }
  build_seconds.Observe(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count());
  return PerformanceModel(&env, std::move(analyses), std::move(rates));
}

Vector PerformanceModel::ActiveInstances() const {
  Vector active(workflows_.size(), 0.0);
  for (size_t t = 0; t < workflows_.size(); ++t) {
    active[t] = env_->workflows[t].arrival_rate *
                workflows_[t].turnaround_time;
  }
  return active;
}

Result<WaitingTimeReport> PerformanceModel::EvaluateWaitingTimes(
    const Configuration& config) const {
  WFMS_RETURN_NOT_OK(config.Validate(env_->num_server_types()));
  markov::StateVector available(config.replicas.begin(),
                                config.replicas.end());
  return EvaluateWaitingTimesForState(available);
}

Result<WaitingTimeReport> PerformanceModel::EvaluateWaitingTimesForState(
    const markov::StateVector& available) const {
  const size_t k = env_->num_server_types();
  if (available.size() != k) {
    return Status::InvalidArgument("system state dimension mismatch");
  }
  WaitingTimeReport report;
  report.servers.reserve(k);
  for (size_t x = 0; x < k; ++x) {
    if (available[x] < 1) {
      return Status::InvalidArgument(
          "server type " + std::to_string(x) +
          " has no available server; the system is down in this state");
    }
    const workflow::ServerType& type = env_->servers.type(x);
    ServerTypeMetrics m;
    m.server_type = type.name;
    m.available_servers = available[x];
    m.total_arrival_rate = request_rates_[x];
    m.per_server_rate =
        m.total_arrival_rate / static_cast<double>(available[x]);
    m.utilization = m.per_server_rate * type.service.mean;
    auto queue = queueing::Mg1Metrics(m.per_server_rate, type.service);
    if (queue.ok()) {
      m.saturated = false;
      m.mean_waiting_time = queue->mean_waiting_time;
      report.max_waiting_time =
          std::max(report.max_waiting_time, m.mean_waiting_time);
    } else if (queue.status().code() == StatusCode::kFailedPrecondition) {
      m.saturated = true;
      report.any_saturated = true;
      report.max_waiting_time = std::numeric_limits<double>::infinity();
    } else {
      return queue.status().WithContext("server type '" + type.name + "'");
    }
    report.servers.push_back(std::move(m));
  }
  return report;
}

Result<ThroughputReport> PerformanceModel::MaxSustainableThroughput(
    const Configuration& config) const {
  const size_t k = env_->num_server_types();
  WFMS_RETURN_NOT_OK(config.Validate(k));

  double total_arrival = 0.0;
  for (const workflow::WorkflowTypeSpec& w : env_->workflows) {
    total_arrival += w.arrival_rate;
  }
  if (!(total_arrival > 0.0)) {
    return Status::FailedPrecondition(
        "workflow mix has zero total arrival rate; nothing to scale");
  }

  ThroughputReport report;
  report.capacity.assign(k, 0.0);
  report.arrival_rates = request_rates_;
  report.max_mix_scale = std::numeric_limits<double>::infinity();
  for (size_t x = 0; x < k; ++x) {
    const workflow::ServerType& type = env_->servers.type(x);
    report.capacity[x] =
        static_cast<double>(config.replicas[x]) / type.service.mean;
    if (request_rates_[x] <= 0.0) continue;  // type unused by the mix
    const double scale = report.capacity[x] / request_rates_[x];
    if (scale < report.max_mix_scale) {
      report.max_mix_scale = scale;
      report.bottleneck = x;
    }
  }
  if (std::isinf(report.max_mix_scale)) {
    return Status::FailedPrecondition(
        "workflow mix induces no load on any server type");
  }
  report.max_workflows_per_time_unit = report.max_mix_scale * total_arrival;
  return report;
}

Result<WaitingTimeReport> PerformanceModel::EvaluateHeterogeneous(
    const std::vector<HeterogeneousPool>& pools) const {
  const size_t k = env_->num_server_types();
  if (pools.size() != k) {
    return Status::InvalidArgument(
        "need one heterogeneous pool per server type");
  }
  WaitingTimeReport report;
  report.servers.reserve(k);
  for (size_t x = 0; x < k; ++x) {
    const std::vector<double>& speeds = pools[x].speed_factors;
    if (speeds.empty()) {
      return Status::InvalidArgument("server type " + std::to_string(x) +
                                     " has no replicas");
    }
    double total_speed = 0.0;
    for (double s : speeds) {
      if (!(s > 0.0)) {
        return Status::InvalidArgument("speed factors must be positive");
      }
      total_speed += s;
    }
    const workflow::ServerType& type = env_->servers.type(x);
    ServerTypeMetrics m;
    m.server_type = type.name;
    m.available_servers = static_cast<int>(speeds.size());
    m.total_arrival_rate = request_rates_[x];
    // Splitting the load proportionally to speed gives every replica the
    // utilization of one *aggregate* server with capacity total_speed.
    m.utilization = m.total_arrival_rate * type.service.mean / total_speed;
    m.per_server_rate =
        m.total_arrival_rate / static_cast<double>(speeds.size());
    double weighted_wait = 0.0;
    bool saturated = false;
    for (double s : speeds) {
      const double replica_rate = m.total_arrival_rate * s / total_speed;
      // Server i is faster by factor s: both moments scale (b/s, b2/s^2).
      queueing::ServiceMoments scaled{type.service.mean / s,
                                      type.service.second_moment / (s * s)};
      auto queue = queueing::Mg1Metrics(replica_rate, scaled);
      if (queue.ok()) {
        weighted_wait +=
            (replica_rate / std::max(m.total_arrival_rate, 1e-300)) *
            queue->mean_waiting_time;
      } else if (queue.status().code() == StatusCode::kFailedPrecondition) {
        saturated = true;
        break;
      } else {
        return queue.status();
      }
    }
    m.saturated = saturated;
    if (!saturated) {
      m.mean_waiting_time = weighted_wait;
      report.max_waiting_time =
          std::max(report.max_waiting_time, weighted_wait);
    } else {
      report.any_saturated = true;
      report.max_waiting_time = std::numeric_limits<double>::infinity();
    }
    report.servers.push_back(std::move(m));
  }
  return report;
}

Result<Vector> PerformanceModel::PerInstanceQueueingDelay(
    const Configuration& config) const {
  WFMS_ASSIGN_OR_RETURN(WaitingTimeReport report,
                        EvaluateWaitingTimes(config));
  Vector delays(workflows_.size(), 0.0);
  for (size_t t = 0; t < workflows_.size(); ++t) {
    double total = 0.0;
    for (size_t x = 0; x < report.servers.size(); ++x) {
      const double requests = workflows_[t].expected_requests[x];
      if (requests <= 0.0) continue;
      if (report.servers[x].saturated) {
        total = std::numeric_limits<double>::infinity();
        break;
      }
      total += requests * report.servers[x].mean_waiting_time;
    }
    delays[t] = total;
  }
  return delays;
}

Result<WaitingTimeReport> PerformanceModel::EvaluateColocated(
    const std::vector<ColocationGroup>& groups) const {
  const size_t k = env_->num_server_types();
  std::vector<bool> covered(k, false);
  for (const ColocationGroup& g : groups) {
    if (g.computers < 1) {
      return Status::InvalidArgument("colocation group needs >= 1 computer");
    }
    if (g.server_types.empty()) {
      return Status::InvalidArgument("empty colocation group");
    }
    for (size_t x : g.server_types) {
      if (x >= k) return Status::OutOfRange("server type index out of range");
      if (covered[x]) {
        return Status::InvalidArgument(
            "server type " + std::to_string(x) +
            " appears in multiple colocation groups");
      }
      covered[x] = true;
    }
  }
  for (size_t x = 0; x < k; ++x) {
    if (!covered[x]) {
      return Status::InvalidArgument("server type " + std::to_string(x) +
                                     " missing from colocation groups");
    }
  }

  WaitingTimeReport report;
  report.servers.resize(k);
  for (const ColocationGroup& g : groups) {
    // Aggregate arrival rate and service mixture over the group (§4.4).
    double group_rate = 0.0;
    std::vector<double> weights;
    std::vector<queueing::ServiceMoments> parts;
    for (size_t x : g.server_types) {
      group_rate += request_rates_[x];
      weights.push_back(request_rates_[x]);
      parts.push_back(env_->servers.type(x).service);
    }
    const double per_computer_rate =
        group_rate / static_cast<double>(g.computers);

    queueing::ServiceMoments mixture;
    if (group_rate > 0.0) {
      WFMS_ASSIGN_OR_RETURN(mixture, queueing::MixServices(weights, parts));
    } else {
      mixture = parts.front();  // unloaded group: any moments work
    }

    double waiting = 0.0;
    bool saturated = false;
    if (per_computer_rate > 0.0) {
      auto queue = queueing::Mg1Metrics(per_computer_rate, mixture);
      if (queue.ok()) {
        waiting = queue->mean_waiting_time;
      } else if (queue.status().code() == StatusCode::kFailedPrecondition) {
        saturated = true;
      } else {
        return queue.status();
      }
    }
    for (size_t x : g.server_types) {
      ServerTypeMetrics& m = report.servers[x];
      m.server_type = env_->servers.type(x).name;
      m.available_servers = g.computers;
      m.total_arrival_rate = request_rates_[x];
      m.per_server_rate = per_computer_rate;
      m.utilization = per_computer_rate * mixture.mean;
      m.saturated = saturated;
      if (!saturated) {
        m.mean_waiting_time = waiting;
        report.max_waiting_time = std::max(report.max_waiting_time, waiting);
      } else {
        report.any_saturated = true;
        report.max_waiting_time = std::numeric_limits<double>::infinity();
      }
    }
  }
  return report;
}

}  // namespace wfms::perf
