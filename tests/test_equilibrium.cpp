// Tests for equilibrium concepts and their containments (NE => GE => AE)
// plus the approximation-factor measurements.
#include <gtest/gtest.h>

#include "core/dynamics.hpp"
#include "core/equilibrium.hpp"
#include "metric/host_graph.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"

namespace gncg {
namespace {

/// A known NE: unit host (NCG), alpha >= 2 implies the star is a NE
/// (Fabrikant et al.; also a special case of Theorem 10's 1-2 statement).
Game unit_game(int n, double alpha) { return Game(HostGraph::unit(n), alpha); }

TEST(Equilibrium, StarOnUnitHostIsNashForLargeAlpha) {
  const Game game = unit_game(6, 3.0);
  const auto star = star_profile(game, 0);
  EXPECT_TRUE(is_nash_equilibrium(game, star));
  EXPECT_TRUE(is_greedy_equilibrium(game, star));
  EXPECT_TRUE(is_add_only_equilibrium(game, star));
  EXPECT_DOUBLE_EQ(nash_approx_factor(game, star), 1.0);
}

TEST(Equilibrium, StarOnUnitHostFailsForTinyAlpha) {
  // For alpha < 1 every missing unit edge is worth buying.
  const Game game = unit_game(6, 0.4);
  const auto star = star_profile(game, 0);
  EXPECT_FALSE(is_add_only_equilibrium(game, star));
  EXPECT_FALSE(is_nash_equilibrium(game, star));
}

TEST(Equilibrium, ExactCheckMatchesBruteForce) {
  Rng rng(211);
  int nash_count = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const Game game(random_one_two_host(5, 0.5, rng),
                    rng.uniform_real(0.3, 3.0));
    // Converged dynamics should produce NE; random profiles mostly not.
    StrategyProfile profile = random_profile(game, rng);
    if (trial % 2 == 0) {
      DynamicsOptions options;
      options.max_moves = 500;
      const auto run = run_dynamics(game, profile, options);
      profile = run.final_profile;
    }
    const bool fast = is_nash_equilibrium(game, profile);
    const bool brute = testing::brute_force_is_nash(game, profile);
    EXPECT_EQ(fast, brute) << "trial " << trial;
    nash_count += fast ? 1 : 0;
  }
  EXPECT_GT(nash_count, 0) << "dynamics should reach at least one NE";
}

TEST(Equilibrium, ContainmentNashImpliesGreedyImpliesAddOnly) {
  Rng rng(223);
  for (int trial = 0; trial < 10; ++trial) {
    const Game game(random_metric_host(5, rng), rng.uniform_real(0.4, 2.5));
    DynamicsOptions options;
    options.max_moves = 2000;
    const auto run = run_dynamics(game, random_profile(game, rng), options);
    if (!run.converged) continue;
    const auto& profile = run.final_profile;
    if (is_nash_equilibrium(game, profile)) {
      EXPECT_TRUE(is_greedy_equilibrium(game, profile));
      EXPECT_TRUE(is_add_only_equilibrium(game, profile));
    }
    if (is_greedy_equilibrium(game, profile)) {
      EXPECT_TRUE(is_add_only_equilibrium(game, profile));
    }
  }
}

TEST(Equilibrium, ApproxFactorsAreConsistent) {
  Rng rng(227);
  for (int trial = 0; trial < 10; ++trial) {
    const Game game(random_metric_host(5, rng), 1.0);
    const StrategyProfile profile = random_profile(game, rng);
    const double nash_beta = nash_approx_factor(game, profile);
    const double greedy_beta = greedy_approx_factor(game, profile);
    // The best response is at least as good as the best single move, so the
    // NE approximation factor dominates the GE one.
    EXPECT_GE(nash_beta + 1e-9, greedy_beta);
    EXPECT_GE(greedy_beta, 1.0);
  }
}

TEST(Equilibrium, NashFactorOneIffNash) {
  Rng rng(229);
  const Game game(random_one_two_host(5, 0.6, rng), 2.0);
  DynamicsOptions options;
  options.max_moves = 2000;
  const auto run = run_dynamics(game, random_profile(game, rng), options);
  ASSERT_TRUE(run.converged);
  EXPECT_TRUE(is_nash_equilibrium(game, run.final_profile));
  EXPECT_NEAR(nash_approx_factor(game, run.final_profile), 1.0, 1e-6);
}

TEST(Equilibrium, AgentReportIsCoherent) {
  Rng rng(233);
  const Game game(random_metric_host(5, rng), 1.0);
  const StrategyProfile profile = random_profile(game, rng);
  for (int u = 0; u < 5; ++u) {
    const auto report = agent_equilibrium_report(game, profile, u);
    EXPECT_LE(report.best_response_cost,
              report.best_single_move_cost + 1e-9);
    EXPECT_LE(report.best_single_move_cost, report.current_cost + 1e-9);
    if (report.single_move_improves) {
      EXPECT_TRUE(report.best_response_improves);
    }
  }
}

}  // namespace
}  // namespace gncg
