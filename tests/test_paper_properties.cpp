// Cross-cutting property tests of the paper's structural theorems on
// randomized instances: Theorem 12 (T-GNCG equilibria are trees), Theorems
// 2/3 and Corollary 2 (approximation chains), Theorem 5 (minimum-weight
// 3/2-spanners admit NE ownership), Lemma 3 (1-edges at alpha < 1) and the
// PoA upper bounds of Theorems 1 and 20.  Table 1 and the open questions
// are in test_paper_claims.cpp.
#include <gtest/gtest.h>

#include "core/dynamics.hpp"
#include "core/equilibrium.hpp"
#include "core/equilibrium_search.hpp"
#include "core/ownership.hpp"
#include "core/poa.hpp"
#include "core/social_optimum.hpp"
#include "graph/graph_algos.hpp"
#include "graph/spanner.hpp"
#include "metric/host_graph.hpp"
#include "metric/tree.hpp"
#include "support/rng.hpp"

namespace gncg {
namespace {

/// Dynamics to convergence; returns nullopt-like empty optional via bool.
bool converge(const Game& game, StrategyProfile& out, Rng& rng,
              MoveRule rule = MoveRule::kBestResponse) {
  DynamicsOptions options;
  options.rule = rule;
  options.max_moves = 5000;
  options.seed = rng();
  const auto run = run_dynamics(game, random_profile(game, rng), options);
  if (!run.converged) return false;
  out = run.final_profile;
  return true;
}

TEST(Theorem12, TreeMetricEquilibriaAreTrees) {
  Rng rng(1101);
  int verified = 0;
  for (int trial = 0; trial < 10; ++trial) {
    const auto tree = random_tree(6, rng, 1.0, 8.0);
    const Game game(HostGraph::from_tree(tree), rng.uniform_real(0.4, 3.0));
    StrategyProfile ne(6);
    if (!converge(game, ne, rng)) continue;
    if (!is_nash_equilibrium(game, ne)) continue;
    ++verified;
    EXPECT_TRUE(is_tree(built_graph(game, ne)))
        << "Theorem 12 violated on trial " << trial;
  }
  EXPECT_GE(verified, 3) << "too few NE reached to be meaningful";
  // Sampled equilibria on larger trees (exactly certified up to n = 8,
  // best-response converged beyond).
  for (int n : {5, 6, 8, 10})
    for (int trial = 0; trial < 2; ++trial) {
      const auto tree = random_tree(n, rng, 1.0, 8.0);
      const Game game(HostGraph::from_tree(tree), rng.uniform_real(0.4, 3.0));
      SamplingOptions options;
      options.attempts = 8;
      options.seed = rng();
      options.verify_exact_ne = n <= 8;
      const auto equilibria = sample_equilibria(game, options);
      EXPECT_FALSE(equilibria.empty()) << "n=" << n << " trial " << trial;
      for (const auto& profile : equilibria.profiles)
        EXPECT_TRUE(is_tree(built_graph(game, profile)))
            << "Theorem 12 violated at n=" << n << " trial " << trial;
    }
}

TEST(Corollary3, DefiningTreeIsNashUnderSomeOwnership) {
  // Corollary 3: the metric-defining tree is both OPT and a NE.  The
  // canonical parent-buys-child ownership (here: smaller id buys) may not
  // be stable, so search the 2^(n-1) ownership assignments.
  Rng rng(1103);
  for (int trial = 0; trial < 6; ++trial) {
    const auto tree = random_tree(trial < 4 ? 5 : 6, rng, 1.0, 6.0);
    const Game game(HostGraph::from_tree(tree), rng.uniform_real(0.5, 2.5));
    const auto owned = find_nash_ownership(game, tree.edges());
    EXPECT_TRUE(owned.has_value()) << "trial " << trial;
    if (owned.has_value()) {
      EXPECT_TRUE(is_nash_equilibrium(game, *owned));
    }
  }
}

TEST(Theorem2, AddOnlyEquilibriaAreAlphaPlusOneGreedy) {
  Rng rng(1109);
  for (double alpha : {0.5, 1.0, 2.0}) {
    for (int trial = 0; trial < 3; ++trial) {
      const Game game(random_metric_host(6, rng), alpha);
      DynamicsOptions options;
      options.rule = MoveRule::kBestAddition;
      options.max_moves = 5000;
      // Start connected: the empty profile is a degenerate all-infinite AE
      // outside Lemma 1 / Theorem 2's implicit domain.
      const auto run = run_dynamics(game, random_profile(game, rng), options);
      ASSERT_TRUE(run.converged);
      EXPECT_LE(greedy_approx_factor(game, run.final_profile),
                alpha + 1.0 + 1e-6)
          << "Theorem 2 violated at alpha=" << alpha;
    }
  }
}

TEST(Theorem3, GreedyEquilibriaAreThreeApproximateNash) {
  Rng rng(1117);
  for (int trial = 0; trial < 6; ++trial) {
    const Game game(random_metric_host(6, rng), rng.uniform_real(0.4, 2.5));
    StrategyProfile ge(6);
    if (!converge(game, ge, rng, MoveRule::kBestSingleMove)) continue;
    ASSERT_TRUE(is_greedy_equilibrium(game, ge));
    EXPECT_LE(nash_approx_factor(game, ge), 3.0 + 1e-6)
        << "Theorem 3 violated on trial " << trial;
  }
}

TEST(Corollary2, AddOnlyEquilibriaAreThreeAlphaPlusOneNash) {
  Rng rng(1123);
  for (double alpha : {0.5, 1.0, 2.0}) {
    const Game game(random_metric_host(6, rng), alpha);
    DynamicsOptions options;
    options.rule = MoveRule::kBestAddition;
    options.max_moves = 5000;
    const auto run = run_dynamics(game, random_profile(game, rng), options);
    ASSERT_TRUE(run.converged);
    EXPECT_LE(nash_approx_factor(game, run.final_profile),
              3.0 * (alpha + 1.0) + 1e-6)
        << "Corollary 2 violated at alpha=" << alpha;
  }
}

TEST(Theorem5, MinimumSpannerAdmitsNashOwnership) {
  // For 1/2 <= alpha <= 1 on 1-2 hosts, the minimum-weight 3/2-spanner has
  // an ownership assignment in NE.
  Rng rng(1129);
  for (double alpha : {0.5, 0.75, 1.0}) {
    for (int trial = 0; trial < 2; ++trial) {
      const auto host = random_one_two_host(5, 0.45, rng);
      const Game game(HostGraph(host), alpha);
      const auto spanner =
          min_weight_three_halves_spanner_onetwo(host.weights());
      const auto owned = find_nash_ownership(game, spanner);
      EXPECT_TRUE(owned.has_value())
          << "Theorem 5 ownership missing at alpha=" << alpha << " trial "
          << trial;
    }
  }
}

TEST(Lemma3, OneEdgesAlwaysBoughtBelowHalfOne) {
  // For alpha < 1, any NE of the 1-2-GNCG contains every 1-edge.
  Rng rng(1151);
  for (int trial = 0; trial < 5; ++trial) {
    const Game game(random_one_two_host(5, 0.5, rng),
                    rng.uniform_real(0.1, 0.95));
    StrategyProfile ne(5);
    if (!converge(game, ne, rng)) continue;
    if (!is_nash_equilibrium(game, ne)) continue;
    for (int u = 0; u < 5; ++u)
      for (int v = u + 1; v < 5; ++v)
        if (game.weight(u, v) == 1.0) {
          EXPECT_TRUE(ne.has_edge(u, v))
              << "missing 1-edge (" << u << "," << v << ") in NE";
        }
  }
}

TEST(Theorem1, MetricEquilibriaRespectPoaBound) {
  // Any sampled NE on a metric host costs at most (alpha+2)/2 times OPT.
  Rng rng(1153);
  for (int trial = 0; trial < 5; ++trial) {
    const double alpha = rng.uniform_real(0.3, 4.0);
    const Game game(random_metric_host(5, rng), alpha);
    StrategyProfile ne(5);
    if (!converge(game, ne, rng)) continue;
    if (!is_nash_equilibrium(game, ne)) continue;
    const auto opt = exact_social_optimum(game);
    EXPECT_LE(social_cost(game, ne),
              paper::metric_poa(alpha) * opt.cost.total() + 1e-6)
        << "Theorem 1 violated, alpha=" << alpha;
  }
}

TEST(Theorem20, GeneralEquilibriaRespectSquaredBound) {
  // Exact PoA over every NE of small general hosts.
  Rng exact(20);
  for (int trial = 0; trial < 6; ++trial) {
    const double alpha = exact.uniform_real(0.3, 3.0);
    const Game game(random_general_host(4, exact), alpha);
    const auto equilibria = enumerate_nash_equilibria(game);
    if (equilibria.empty()) continue;
    const auto opt = exact_social_optimum(game);
    EXPECT_LE(estimate_poa(equilibria, opt.cost.total(), true).poa,
              paper::general_poa_upper(alpha) + 1e-9)
        << "Theorem 20 violated, alpha=" << alpha;
  }
  // Sampled NE of larger ones.
  Rng rng(1163);
  for (int trial = 0; trial < 5; ++trial) {
    const double alpha = rng.uniform_real(0.3, 3.0);
    const Game game(random_general_host(5, rng), alpha);
    StrategyProfile ne(5);
    if (!converge(game, ne, rng)) continue;
    if (!is_nash_equilibrium(game, ne)) continue;
    const auto opt = exact_social_optimum(game);
    EXPECT_LE(social_cost(game, ne),
              paper::general_poa_upper(alpha) * opt.cost.total() + 1e-6)
        << "Theorem 20 violated, alpha=" << alpha;
  }
}

}  // namespace
}  // namespace gncg
