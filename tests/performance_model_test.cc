#include "perf/performance_model.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/metrics.h"
#include "queueing/mg1.h"
#include "statechart/parser.h"
#include "workflow/scenarios.h"

namespace wfms::perf {
namespace {

using workflow::Configuration;
using workflow::Environment;

Environment MakeEpEnv(double rate = 0.5) {
  auto env = workflow::EpEnvironment(rate);
  EXPECT_TRUE(env.ok());
  return *std::move(env);
}

/// A minimal single-activity environment with exactly known analytics:
/// one state (H = 4) inducing (1, 2) requests on two server types.
Environment MakeTinyEnv(double arrival_rate) {
  Environment env;
  auto charts = statechart::ParseCharts(R"(
chart T
  state Work activity=work residence=4
  state Done activity=done residence=1
  initial Work
  final Done
  trans Work -> Done prob=1
end
)");
  EXPECT_TRUE(charts.ok());
  env.charts = *std::move(charts);
  EXPECT_TRUE(env.servers
                  .AddServerType({"engine", workflow::ServerKind::kWorkflowEngine,
                                  queueing::ExponentialService(0.1), 0.001,
                                  0.1})
                  .ok());
  EXPECT_TRUE(
      env.servers
          .AddServerType({"app", workflow::ServerKind::kApplicationServer,
                          queueing::ExponentialService(0.2), 0.001, 0.1})
          .ok());
  EXPECT_TRUE(env.loads.SetLoad("work", {1, 2}).ok());
  EXPECT_TRUE(env.loads.SetLoad("done", {1, 0}).ok());
  env.workflows.push_back({"T", "T", arrival_rate});
  EXPECT_TRUE(env.Validate().ok());
  return env;
}

TEST(WorkflowAnalysisTest, TinyWorkflowExactValues) {
  const Environment env = MakeTinyEnv(0.5);
  auto analysis = AnalyzeWorkflow(env, env.workflows[0]);
  ASSERT_TRUE(analysis.ok()) << analysis.status();
  EXPECT_NEAR(analysis->turnaround_time, 5.0, 1e-9);
  ASSERT_EQ(analysis->expected_requests.size(), 2u);
  // Work once (1,2) + Done once (1,0).
  EXPECT_NEAR(analysis->expected_requests[0], 2.0, 1e-9);
  EXPECT_NEAR(analysis->expected_requests[1], 2.0, 1e-9);
}

TEST(WorkflowAnalysisTest, RewardAndEmbeddedChainMethodsAgreeOnEp) {
  const Environment env = MakeEpEnv();
  AnalysisOptions reward_opts;
  reward_opts.method = LoadMethod::kMarkovReward;
  AnalysisOptions exact_opts;
  exact_opts.method = LoadMethod::kEmbeddedChain;
  auto reward = AnalyzeWorkflow(env, env.workflows[0], reward_opts);
  auto exact = AnalyzeWorkflow(env, env.workflows[0], exact_opts);
  ASSERT_TRUE(reward.ok()) << reward.status();
  ASSERT_TRUE(exact.ok());
  for (size_t x = 0; x < 3; ++x) {
    EXPECT_NEAR(reward->expected_requests[x], exact->expected_requests[x],
                1e-6 * exact->expected_requests[x]);
  }
}

TEST(WorkflowAnalysisTest, EpEngineRequestsMatchHandComputation) {
  // Engine requests: every activity sends 3 requests to the engine
  // (Fig. 1, both patterns), so r_engine = 3 * expected activity
  // executions. Executions: top level 1 + .5 + .475 + .59375*2 + 1 = 4.1625
  // plus Shipment entries (.95) * (Notify 2 + Delivery (2/0.9 + 1)).
  const Environment env = MakeEpEnv();
  auto analysis = AnalyzeWorkflow(env, env.workflows[0]);
  ASSERT_TRUE(analysis.ok());
  const double shipment_activities = 2.0 + (2.0 / 0.9 + 1.0);
  const double executions = 4.1625 + 0.95 * shipment_activities;
  EXPECT_NEAR(analysis->expected_requests[1], 3.0 * executions, 1e-6);
  // Comm server: 2 requests per activity.
  EXPECT_NEAR(analysis->expected_requests[0], 2.0 * executions, 1e-6);
}

TEST(WorkflowAnalysisTest, CompositeStateCarriesSubworkflowLoad) {
  const Environment env = MakeEpEnv();
  auto analysis = AnalyzeWorkflow(env, env.workflows[0]);
  ASSERT_TRUE(analysis.ok());
  const size_t shipment = *analysis->chain.StateIndex("Shipment");
  // Engine load of the Shipment state = 3 * (2 + 2/0.9 + 1) requests.
  EXPECT_NEAR(analysis->state_loads.At(1, shipment),
              3.0 * (2.0 + 2.0 / 0.9 + 1.0), 1e-6);
}

TEST(PerformanceModelTest, OneBuildMapsEachReachableChartOnce) {
  // Leaf is embedded by three composite states in two charts, Mid both by
  // Top and as the chart of a second workflow type; Unused is reachable
  // from no workflow type. One model build maps Top, Mid and Leaf once
  // each and Unused never, and the shared memo leaves every workflow
  // type's analysis bit-identical to analyzing it alone.
  Environment env = MakeTinyEnv(0.5);
  auto charts = statechart::ParseCharts(R"(
chart Leaf
  state W activity=work residence=3
  state D activity=done residence=1
  initial W
  final D
  trans W -> D prob=1
end
chart Mid
  compound P subcharts=Leaf,Leaf
  state X activity=done residence=2
  initial P
  final X
  trans P -> X prob=1
end
chart Top
  compound M subcharts=Mid,Leaf
  compound L subcharts=Leaf
  state Y activity=work residence=1
  initial M
  final Y
  trans M -> L prob=0.5
  trans M -> Y prob=0.5
  trans L -> Y prob=1
end
chart Unused
  state U activity=work residence=1
  state V activity=done residence=1
  initial U
  final V
  trans U -> V prob=1
end
)");
  ASSERT_TRUE(charts.ok()) << charts.status();
  env.charts = *std::move(charts);
  env.workflows = {{"top", "Top", 0.2}, {"mid", "Mid", 0.1}};
  ASSERT_TRUE(env.Validate().ok());

  metrics::Counter& mapped = metrics::MetricsRegistry::Global().GetCounter(
      "wfms_statechart_charts_mapped_total");
  const uint64_t before = mapped.value();
  auto model = PerformanceModel::Create(env);
  ASSERT_TRUE(model.ok()) << model.status();
  EXPECT_EQ(mapped.value() - before, 3u);

  for (size_t t = 0; t < env.workflows.size(); ++t) {
    auto alone = AnalyzeWorkflow(env, env.workflows[t]);
    ASSERT_TRUE(alone.ok()) << alone.status();
    const WorkflowAnalysis& shared = model->workflows()[t];
    EXPECT_EQ(shared.turnaround_time, alone->turnaround_time);
    EXPECT_EQ(shared.expected_requests, alone->expected_requests);
    EXPECT_EQ(shared.state_visits, alone->state_visits);
  }
}

TEST(WorkflowAnalysisTest, PhaseTypeMacroStatesKeepRequests) {
  // Erlang stages change the residence distribution, not how often a
  // state is entered: loads sit on each chart state's first stage, so
  // r_{x,t} must not move when an early composite expands into stages
  // (which shifts the chain index of every later chart state; W, entered
  // a quarter as often as P, must not take a stage's load slot).
  Environment env = MakeTinyEnv(0.5);
  auto charts = statechart::ParseCharts(R"(
chart Steps
  state A activity=work residence=2
  state B activity=done residence=2
  state C residence=2
  initial A
  final C
  trans A -> B prob=1
  trans B -> C prob=1
end
chart Top
  compound P subcharts=Steps
  state W activity=work residence=3
  state D activity=done residence=1
  initial P
  final D
  trans P -> W prob=0.25
  trans P -> D prob=0.75
  trans W -> D prob=1
end
)");
  ASSERT_TRUE(charts.ok()) << charts.status();
  env.charts = *std::move(charts);
  env.workflows = {{"top", "Top", 0.2}};
  ASSERT_TRUE(env.Validate().ok());

  for (LoadMethod method :
       {LoadMethod::kEmbeddedChain, LoadMethod::kMarkovReward}) {
    AnalysisOptions flat;
    flat.method = method;
    AnalysisOptions phased = flat;
    phased.mapping.phase_type_composites = true;
    auto a = AnalyzeWorkflow(env, env.workflows[0], flat);
    auto b = AnalyzeWorkflow(env, env.workflows[0], phased);
    ASSERT_TRUE(a.ok()) << a.status();
    ASSERT_TRUE(b.ok()) << b.status();
    ASSERT_GT(b->chain.num_states(), a->chain.num_states());
    for (size_t x = 0; x < a->expected_requests.size(); ++x) {
      EXPECT_NEAR(b->expected_requests[x], a->expected_requests[x], 1e-9)
          << "server type " << x;
    }
    EXPECT_NEAR(b->turnaround_time, a->turnaround_time, 1e-9);
  }
}

TEST(PerformanceModelTest, TotalRatesAreArrivalTimesRequests) {
  const Environment env = MakeTinyEnv(0.25);
  auto model = PerformanceModel::Create(env);
  ASSERT_TRUE(model.ok()) << model.status();
  EXPECT_NEAR(model->total_request_rates()[0], 0.25 * 2.0, 1e-12);
  EXPECT_NEAR(model->total_request_rates()[1], 0.25 * 2.0, 1e-12);
}

TEST(PerformanceModelTest, ActiveInstancesLittlesLaw) {
  const Environment env = MakeTinyEnv(0.4);
  auto model = PerformanceModel::Create(env);
  ASSERT_TRUE(model.ok());
  const auto active = model->ActiveInstances();
  ASSERT_EQ(active.size(), 1u);
  EXPECT_NEAR(active[0], 0.4 * 5.0, 1e-9);
}

TEST(PerformanceModelTest, WaitingTimesMatchDirectMg1) {
  const Environment env = MakeTinyEnv(0.5);
  auto model = PerformanceModel::Create(env);
  ASSERT_TRUE(model.ok());
  auto report = model->EvaluateWaitingTimes(Configuration({1, 1}));
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_EQ(report->servers.size(), 2u);
  // Engine: rate 1/min, service Exp(0.1).
  auto direct = queueing::Mg1Metrics(1.0, queueing::ExponentialService(0.1));
  ASSERT_TRUE(direct.ok());
  EXPECT_NEAR(report->servers[0].mean_waiting_time,
              direct->mean_waiting_time, 1e-12);
  EXPECT_NEAR(report->servers[0].utilization, 0.1, 1e-12);
  EXPECT_FALSE(report->any_saturated);
}

TEST(PerformanceModelTest, ReplicationReducesWaiting) {
  const Environment env = MakeEpEnv(1.0);
  auto model = PerformanceModel::Create(env);
  ASSERT_TRUE(model.ok());
  auto one = model->EvaluateWaitingTimes(Configuration({1, 1, 1}));
  auto two = model->EvaluateWaitingTimes(Configuration({2, 2, 2}));
  ASSERT_TRUE(one.ok());
  ASSERT_TRUE(two.ok());
  for (size_t x = 0; x < 3; ++x) {
    EXPECT_LT(two->servers[x].mean_waiting_time,
              one->servers[x].mean_waiting_time);
    EXPECT_NEAR(two->servers[x].per_server_rate,
                one->servers[x].per_server_rate / 2.0, 1e-9);
  }
}

TEST(PerformanceModelTest, SaturationDetected) {
  // Crank the arrival rate until the engine saturates on one server.
  const Environment env = MakeEpEnv(3.0);
  auto model = PerformanceModel::Create(env);
  ASSERT_TRUE(model.ok());
  auto report = model->EvaluateWaitingTimes(Configuration({1, 1, 1}));
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->any_saturated);
  EXPECT_TRUE(std::isinf(report->max_waiting_time));
  // Replication resolves it.
  auto fixed = model->EvaluateWaitingTimes(Configuration({1, 3, 3}));
  ASSERT_TRUE(fixed.ok());
  EXPECT_FALSE(fixed->any_saturated);
}

TEST(PerformanceModelTest, DegradedStateRaisesWaiting) {
  const Environment env = MakeEpEnv(1.0);
  auto model = PerformanceModel::Create(env);
  ASSERT_TRUE(model.ok());
  auto full = model->EvaluateWaitingTimesForState({2, 2, 2});
  auto degraded = model->EvaluateWaitingTimesForState({2, 1, 2});
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(degraded.ok());
  EXPECT_GT(degraded->servers[1].mean_waiting_time,
            full->servers[1].mean_waiting_time);
  EXPECT_DOUBLE_EQ(degraded->servers[0].mean_waiting_time,
                   full->servers[0].mean_waiting_time);
}

TEST(PerformanceModelTest, DownStateRejected) {
  const Environment env = MakeEpEnv();
  auto model = PerformanceModel::Create(env);
  ASSERT_TRUE(model.ok());
  EXPECT_FALSE(model->EvaluateWaitingTimesForState({1, 0, 1}).ok());
  EXPECT_FALSE(model->EvaluateWaitingTimesForState({1, 1}).ok());
}

TEST(PerformanceModelTest, ThroughputBottleneckAndScaling) {
  const Environment env = MakeEpEnv(0.5);
  auto model = PerformanceModel::Create(env);
  ASSERT_TRUE(model.ok());
  auto base = model->MaxSustainableThroughput(Configuration({1, 1, 1}));
  ASSERT_TRUE(base.ok()) << base.status();
  EXPECT_GT(base->max_workflows_per_time_unit, 0.0);
  // EP on one server each: the app server (slowest per-request service)
  // is the busiest resource.
  EXPECT_EQ(base->bottleneck, 2u);
  // Adding a server to the bottleneck increases throughput...
  Configuration more({1, 1, 2});
  auto scaled = model->MaxSustainableThroughput(more);
  ASSERT_TRUE(scaled.ok());
  EXPECT_GT(scaled->max_workflows_per_time_unit,
            base->max_workflows_per_time_unit);
  // ...while adding one to a non-bottleneck type does not.
  auto useless = model->MaxSustainableThroughput(Configuration({2, 1, 1}));
  ASSERT_TRUE(useless.ok());
  EXPECT_NEAR(useless->max_workflows_per_time_unit,
              base->max_workflows_per_time_unit, 1e-9);
}

TEST(PerformanceModelTest, ThroughputConsistentWithSaturation) {
  // At exactly the max sustainable mix scale the utilization of the
  // bottleneck hits 1; slightly below it the system is stable.
  const Environment base_env = MakeEpEnv(0.5);
  auto model = PerformanceModel::Create(base_env);
  ASSERT_TRUE(model.ok());
  auto report = model->MaxSustainableThroughput(Configuration({1, 1, 1}));
  ASSERT_TRUE(report.ok());
  const double safe_rate = 0.5 * report->max_mix_scale * 0.99;
  const Environment safe_env = MakeEpEnv(safe_rate);
  auto safe_model = PerformanceModel::Create(safe_env);
  ASSERT_TRUE(safe_model.ok());
  auto waiting = safe_model->EvaluateWaitingTimes(Configuration({1, 1, 1}));
  ASSERT_TRUE(waiting.ok());
  EXPECT_FALSE(waiting->any_saturated);
  EXPECT_GT(waiting->servers[report->bottleneck].utilization, 0.95);
}

TEST(PerformanceModelTest, ColocationAggregatesLoad) {
  const Environment env = MakeEpEnv(0.5);
  auto model = PerformanceModel::Create(env);
  ASSERT_TRUE(model.ok());
  // All three types on a single computer.
  ColocationGroup all;
  all.server_types = {0, 1, 2};
  all.computers = 1;
  auto report = model->EvaluateColocated({all});
  ASSERT_TRUE(report.ok()) << report.status();
  // Every member reports the same shared queue.
  EXPECT_DOUBLE_EQ(report->servers[0].mean_waiting_time,
                   report->servers[1].mean_waiting_time);
  // The shared computer carries more load than any dedicated server.
  auto dedicated = model->EvaluateWaitingTimes(Configuration({1, 1, 1}));
  ASSERT_TRUE(dedicated.ok());
  EXPECT_GT(report->servers[1].mean_waiting_time,
            dedicated->servers[0].mean_waiting_time);
}

TEST(PerformanceModelTest, ColocationValidation) {
  const Environment env = MakeEpEnv();
  auto model = PerformanceModel::Create(env);
  ASSERT_TRUE(model.ok());
  // Missing type.
  ColocationGroup g01;
  g01.server_types = {0, 1};
  EXPECT_FALSE(model->EvaluateColocated({g01}).ok());
  // Duplicate type.
  ColocationGroup g012{{0, 1, 2}, 1};
  ColocationGroup dup{{2}, 1};
  EXPECT_FALSE(model->EvaluateColocated({g012, dup}).ok());
  // Bad computer count.
  ColocationGroup zero{{0, 1, 2}, 0};
  EXPECT_FALSE(model->EvaluateColocated({zero}).ok());
  // Out-of-range type.
  ColocationGroup oob{{0, 1, 7}, 1};
  EXPECT_FALSE(model->EvaluateColocated({oob}).ok());
}

TEST(PerformanceModelTest, ColocationSeparateGroupsMatchDedicatedServers) {
  const Environment env = MakeEpEnv(0.5);
  auto model = PerformanceModel::Create(env);
  ASSERT_TRUE(model.ok());
  std::vector<ColocationGroup> separate{{{0}, 1}, {{1}, 1}, {{2}, 1}};
  auto colocated = model->EvaluateColocated(separate);
  auto dedicated = model->EvaluateWaitingTimes(Configuration({1, 1, 1}));
  ASSERT_TRUE(colocated.ok());
  ASSERT_TRUE(dedicated.ok());
  for (size_t x = 0; x < 3; ++x) {
    EXPECT_NEAR(colocated->servers[x].mean_waiting_time,
                dedicated->servers[x].mean_waiting_time, 1e-12);
  }
}

TEST(PerformanceModelTest, BenchmarkMixAnalyzesAllTypes) {
  auto env = workflow::BenchmarkEnvironment();
  ASSERT_TRUE(env.ok());
  auto model = PerformanceModel::Create(*env);
  ASSERT_TRUE(model.ok()) << model.status();
  EXPECT_EQ(model->workflows().size(), 3u);
  for (const WorkflowAnalysis& w : model->workflows()) {
    EXPECT_GT(w.turnaround_time, 0.0) << w.workflow_type;
  }
  // Every server type receives load from the mix.
  for (double rate : model->total_request_rates()) {
    EXPECT_GT(rate, 0.0);
  }
}

}  // namespace
}  // namespace wfms::perf
