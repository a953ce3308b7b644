// Tests for the Finite Improvement Property analysis (Theorems 14 and 17:
// no GNCG variant is a potential game).
#include <gtest/gtest.h>

#include "constructions/cycle_instances.hpp"
#include "core/fip.hpp"
#include "metric/host_graph.hpp"
#include "metric/tree.hpp"

namespace gncg {
namespace {

TEST(Fip, Theorem14TreeMetricsAdmitImprovingCycles) {
  // Rigorous FIP-violation witness for the T-GNCG: exhaustive
  // improvement-graph analysis over small tree metrics certifies an
  // improving-move cycle (so the game admits no ordinal potential).
  // Calibrated: cycles appear within the first couple of random trees.
  const auto result = find_tree_fip_violation(/*n=*/4, /*max_trees=*/50,
                                              /*seed=*/12345, /*alpha=*/1.0);
  ASSERT_TRUE(result.found);
  ASSERT_TRUE(result.tree.has_value());
  const Game game(HostGraph::from_tree(*result.tree), result.alpha);
  EXPECT_TRUE(verify_improvement_cycle(game, result.analysis.cycle_start,
                                       result.analysis.cycle,
                                       /*require_best_response=*/false));
  EXPECT_GE(result.analysis.cycle.size(), 2u);
}

TEST(Fip, ImprovingCyclesAcrossAlphaOnTreeMetrics) {
  for (double alpha : {0.5, 1.0, 2.0, 3.0}) {
    const auto result =
        find_tree_fip_violation(4, 50, 12345, alpha);
    ASSERT_TRUE(result.found) << "no cycle found at alpha=" << alpha;
    const Game game(HostGraph::from_tree(*result.tree), alpha);
    EXPECT_TRUE(verify_improvement_cycle(game, result.analysis.cycle_start,
                                         result.analysis.cycle,
                                         /*require_best_response=*/false))
        << "cycle does not replay at alpha=" << alpha;
  }
}

TEST(Fip, Theorem17PaperPointsAdmitBestResponseCycle) {
  // The paper's exact Figure 8 points under the 1-norm: best-response
  // dynamics revisit a profile, certifying a genuine best-response cycle.
  // Calibrated for the run_restarts stream derivation: a verified cycle
  // appears within 24 restarts at this seed.
  const auto result = search_theorem17_cycle({1.0}, /*attempts_per_alpha=*/24,
                                             /*seed=*/8);
  ASSERT_TRUE(result.found);
  EXPECT_DOUBLE_EQ(result.alpha, 1.0);
  const Game game(HostGraph::from_points(theorem17_points(), 1.0),
                  result.alpha);
  EXPECT_TRUE(verify_improvement_cycle(game, result.analysis.cycle_start,
                                       result.analysis.cycle,
                                       /*require_best_response=*/false));
  EXPECT_TRUE(verify_improvement_cycle(game, result.analysis.cycle_start,
                                       result.analysis.cycle,
                                       /*require_best_response=*/true));
}

TEST(Fip, ExhaustiveAnalysisIsExhaustive) {
  // A 2-node game is trivially a potential game: the analysis must visit
  // the full 2^1 * 2^1 state space and certify acyclicity.
  DistanceMatrix weights(2, 1.0);
  const Game game(HostGraph::from_weights(std::move(weights)), 1.0);
  const auto analysis = exhaustive_fip_analysis(game);
  EXPECT_TRUE(analysis.exhaustive);
  EXPECT_FALSE(analysis.cycle_found);
  EXPECT_EQ(analysis.states_visited, 4u);
}

TEST(Fip, StateSpaceCapIsEnforced) {
  const Game game(HostGraph::unit(8), 1.0);
  ExhaustiveFipOptions options;
  options.max_states = 1024;
  EXPECT_THROW(exhaustive_fip_analysis(game, options), ContractViolation);
}

TEST(Fip, CycleStepsAlternateStrictImprovements) {
  const auto result = find_tree_fip_violation(4, 50, 12345, 1.0);
  ASSERT_TRUE(result.found);
  for (const auto& step : result.analysis.cycle) {
    EXPECT_GE(step.agent, 0);
    EXPECT_LT(step.new_cost, step.old_cost);
    EXPECT_FALSE(step.old_strategy == step.new_strategy);
  }
}

TEST(Fip, Theorem14MultisetMatchesPaper) {
  const auto weights = theorem14_weight_multiset();
  ASSERT_EQ(weights.size(), 9u);
  double total = 0.0;
  for (double w : weights) total += w;
  EXPECT_DOUBLE_EQ(total, 3 + 7 + 2 + 5 + 12 + 9 + 11 + 2 + 10);
}

TEST(Fip, Theorem17PointsMatchPaper) {
  const auto points = theorem17_points();
  ASSERT_EQ(points.size(), 10);
  ASSERT_EQ(points.dim(), 2);
  EXPECT_DOUBLE_EQ(points.coord(0, 0), 3.0);  // a0 = (3, 0)
  EXPECT_DOUBLE_EQ(points.coord(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(points.coord(8, 0), 1.0);  // a8 = (1, 4)
  EXPECT_DOUBLE_EQ(points.coord(8, 1), 4.0);
  // 1-norm sanity: d(a0, a1) = |3-0| + |0-3| = 6.
  EXPECT_DOUBLE_EQ(points.distance(0, 1, 1.0), 6.0);
}

}  // namespace
}  // namespace gncg
