#include <gtest/gtest.h>

#include "statechart/builder.h"
#include "statechart/model.h"

namespace wfms::statechart {
namespace {

StateChart MakeTinyChart() {
  auto chart = ChartBuilder("Tiny")
                   .AddActivityState("A", "act_a", 2.0)
                   .AddSimpleState("B", 1.0)
                   .SetInitial("A")
                   .SetFinal("B")
                   .AddTransition("A", "B", 1.0)
                   .Build();
  EXPECT_TRUE(chart.ok()) << chart.status();
  return *std::move(chart);
}

TEST(EcaRuleTest, ToStringVariants) {
  EcaRule full{"E", "C", {"st!(x)", "fs!(y)"}};
  EXPECT_EQ(full.ToString(), "E [C] / st!(x); fs!(y)");
  EcaRule event_only{"E", "", {}};
  EXPECT_EQ(event_only.ToString(), "E");
  EcaRule cond_only{"", "C", {}};
  EXPECT_EQ(cond_only.ToString(), "[C]");
  EcaRule action_only{"", "", {"st!(a)"}};
  EXPECT_EQ(action_only.ToString(), "/ st!(a)");
  EXPECT_TRUE(EcaRule{}.empty());
  EXPECT_FALSE(full.empty());
}

TEST(ChartBuilderTest, BuildsValidChart) {
  const StateChart chart = MakeTinyChart();
  EXPECT_EQ(chart.name(), "Tiny");
  EXPECT_EQ(chart.num_states(), 2u);
  EXPECT_EQ(chart.initial_state(), "A");
  EXPECT_EQ(chart.final_state(), "B");
  EXPECT_EQ(chart.state(0).activity, "act_a");
  ASSERT_TRUE(chart.StateIndex("B").ok());
  EXPECT_EQ(*chart.StateIndex("B"), 1u);
  EXPECT_FALSE(chart.StateIndex("Z").ok());
}

TEST(ChartBuilderTest, RejectsDuplicateState) {
  auto chart = ChartBuilder("X")
                   .AddSimpleState("A", 1.0)
                   .AddSimpleState("A", 2.0)
                   .AddSimpleState("B", 1.0)
                   .SetInitial("A")
                   .SetFinal("B")
                   .AddTransition("A", "B", 1.0)
                   .Build();
  ASSERT_FALSE(chart.ok());
  EXPECT_EQ(chart.status().code(), StatusCode::kAlreadyExists);
}

TEST(ChartBuilderTest, RejectsDuplicateActivityNamingBothStates) {
  auto chart = ChartBuilder("X")
                   .AddActivityState("A", "shared_act", 1.0)
                   .AddActivityState("B", "shared_act", 2.0)
                   .AddSimpleState("C", 1.0)
                   .SetInitial("A")
                   .SetFinal("C")
                   .AddTransition("A", "B", 1.0)
                   .AddTransition("B", "C", 1.0)
                   .Build();
  ASSERT_FALSE(chart.ok());
  EXPECT_EQ(chart.status().code(), StatusCode::kInvalidArgument);
  const std::string message = chart.status().message();
  EXPECT_NE(message.find("shared_act"), std::string::npos) << message;
  EXPECT_NE(message.find("'A'"), std::string::npos) << message;
  EXPECT_NE(message.find("'B'"), std::string::npos) << message;
}

TEST(ChartBuilderTest, RejectsMissingInitialOrFinal) {
  EXPECT_FALSE(ChartBuilder("X")
                   .AddSimpleState("A", 1.0)
                   .AddSimpleState("B", 1.0)
                   .SetFinal("B")
                   .AddTransition("A", "B", 1.0)
                   .Build()
                   .ok());
  EXPECT_FALSE(ChartBuilder("X")
                   .AddSimpleState("A", 1.0)
                   .AddSimpleState("B", 1.0)
                   .SetInitial("A")
                   .SetInitial("Missing")
                   .SetFinal("B")
                   .AddTransition("A", "B", 1.0)
                   .Build()
                   .ok());
}

TEST(ChartBuilderTest, RejectsInitialEqualsFinal) {
  EXPECT_FALSE(ChartBuilder("X")
                   .AddSimpleState("A", 1.0)
                   .SetInitial("A")
                   .SetFinal("A")
                   .Build()
                   .ok());
}

TEST(ChartBuilderTest, RejectsTransitionFromFinal) {
  EXPECT_FALSE(ChartBuilder("X")
                   .AddSimpleState("A", 1.0)
                   .AddSimpleState("B", 1.0)
                   .SetInitial("A")
                   .SetFinal("B")
                   .AddTransition("A", "B", 1.0)
                   .AddTransition("B", "A", 1.0)
                   .Build()
                   .ok());
}

TEST(ChartBuilderTest, RejectsUnknownEndpoints) {
  EXPECT_FALSE(ChartBuilder("X")
                   .AddSimpleState("A", 1.0)
                   .AddSimpleState("B", 1.0)
                   .SetInitial("A")
                   .SetFinal("B")
                   .AddTransition("A", "Z", 1.0)
                   .Build()
                   .ok());
}

TEST(ChartBuilderTest, RejectsBadProbabilities) {
  EXPECT_FALSE(ChartBuilder("X")
                   .AddSimpleState("A", 1.0)
                   .AddSimpleState("B", 1.0)
                   .SetInitial("A")
                   .SetFinal("B")
                   .AddTransition("A", "B", 0.0)
                   .Build()
                   .ok());
  // Outgoing probabilities not summing to one.
  EXPECT_FALSE(ChartBuilder("X")
                   .AddSimpleState("A", 1.0)
                   .AddSimpleState("B", 1.0)
                   .SetInitial("A")
                   .SetFinal("B")
                   .AddTransition("A", "B", 0.7)
                   .Build()
                   .ok());
}

TEST(ChartBuilderTest, RejectsDanglingState) {
  EXPECT_FALSE(ChartBuilder("X")
                   .AddSimpleState("A", 1.0)
                   .AddSimpleState("B", 1.0)
                   .AddSimpleState("Orphan", 1.0)
                   .SetInitial("A")
                   .SetFinal("B")
                   .AddTransition("A", "B", 1.0)
                   .AddTransition("Orphan", "B", 1.0)
                   .Build()
                   .ok());
}

TEST(ChartBuilderTest, RejectsNonFinalWithoutOutgoing) {
  EXPECT_FALSE(ChartBuilder("X")
                   .AddSimpleState("A", 1.0)
                   .AddSimpleState("Stuck", 1.0)
                   .AddSimpleState("B", 1.0)
                   .SetInitial("A")
                   .SetFinal("B")
                   .AddTransition("A", "Stuck", 0.5)
                   .AddTransition("A", "B", 0.5)
                   .Build()
                   .ok());
}

TEST(ChartBuilderTest, RejectsCompositeWithoutSubcharts) {
  EXPECT_FALSE(ChartBuilder("X")
                   .AddCompositeState("C", {})
                   .AddSimpleState("B", 1.0)
                   .SetInitial("C")
                   .SetFinal("B")
                   .AddTransition("C", "B", 1.0)
                   .Build()
                   .ok());
}

TEST(ChartBuilderTest, NormalizesProbabilitiesExactly) {
  auto chart = ChartBuilder("X")
                   .AddSimpleState("A", 1.0)
                   .AddSimpleState("B", 1.0)
                   .AddSimpleState("C", 1.0)
                   .SetInitial("A")
                   .SetFinal("C")
                   .AddTransition("A", "B", 1.0 / 3.0)
                   .AddTransition("A", "C", 2.0 / 3.0)
                   .AddTransition("B", "C", 1.0)
                   .Build();
  ASSERT_TRUE(chart.ok());
  double sum = 0.0;
  for (const Transition* t : chart->OutgoingTransitions("A")) {
    sum += t->probability;
  }
  EXPECT_DOUBLE_EQ(sum, 1.0);
}

TEST(ChartRegistryTest, AddAndLookup) {
  ChartRegistry registry;
  ASSERT_TRUE(registry.AddChart(MakeTinyChart()).ok());
  EXPECT_TRUE(registry.Contains("Tiny"));
  EXPECT_FALSE(registry.Contains("Other"));
  ASSERT_TRUE(registry.GetChart("Tiny").ok());
  EXPECT_FALSE(registry.GetChart("Other").ok());
  EXPECT_EQ(registry.AddChart(MakeTinyChart()).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(registry.ChartNames().size(), 1u);
}

TEST(ChartRegistryTest, DetectsMissingSubchart) {
  ChartRegistry registry;
  auto parent = ChartBuilder("Parent")
                    .AddCompositeState("C", {"Missing"})
                    .AddSimpleState("B", 1.0)
                    .SetInitial("C")
                    .SetFinal("B")
                    .AddTransition("C", "B", 1.0)
                    .Build();
  ASSERT_TRUE(parent.ok());
  ASSERT_TRUE(registry.AddChart(*std::move(parent)).ok());
  EXPECT_EQ(registry.ValidateReferences().code(), StatusCode::kNotFound);
}

TEST(ChartRegistryTest, DetectsNestingCycle) {
  ChartRegistry registry;
  auto a = ChartBuilder("A")
               .AddCompositeState("CB", {"B"})
               .AddSimpleState("Done", 1.0)
               .SetInitial("CB")
               .SetFinal("Done")
               .AddTransition("CB", "Done", 1.0)
               .Build();
  auto b = ChartBuilder("B")
               .AddCompositeState("CA", {"A"})
               .AddSimpleState("Done", 1.0)
               .SetInitial("CA")
               .SetFinal("Done")
               .AddTransition("CA", "Done", 1.0)
               .Build();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(registry.AddChart(*std::move(a)).ok());
  ASSERT_TRUE(registry.AddChart(*std::move(b)).ok());
  EXPECT_EQ(registry.ValidateReferences().code(),
            StatusCode::kInvalidArgument);
}

TEST(ChartRegistryTest, AddChartAfterPassingCheckIsCheckedAgain) {
  // A passing check is remembered only until the registry changes.
  ChartRegistry registry;
  ASSERT_TRUE(registry.AddChart(MakeTinyChart()).ok());
  ASSERT_TRUE(registry.ValidateReferences().ok());
  auto parent = ChartBuilder("Parent")
                    .AddCompositeState("C", {"Missing"})
                    .AddSimpleState("B", 1.0)
                    .SetInitial("C")
                    .SetFinal("B")
                    .AddTransition("C", "B", 1.0)
                    .Build();
  ASSERT_TRUE(parent.ok());
  ASSERT_TRUE(registry.AddChart(*std::move(parent)).ok());
  EXPECT_EQ(registry.ValidateReferences().code(), StatusCode::kNotFound);
  const ChartRegistry copy = registry;
  EXPECT_EQ(copy.ValidateReferences().code(), StatusCode::kNotFound);
}

TEST(ChartRegistryTest, SelfNestingCycleDetected) {
  ChartRegistry registry;
  auto a = ChartBuilder("A")
               .AddCompositeState("Self", {"A"})
               .AddSimpleState("Done", 1.0)
               .SetInitial("Self")
               .SetFinal("Done")
               .AddTransition("Self", "Done", 1.0)
               .Build();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(registry.AddChart(*std::move(a)).ok());
  EXPECT_FALSE(registry.ValidateReferences().ok());
}

}  // namespace
}  // namespace wfms::statechart
