// Structural tests for the 1-2-GNCG section of the paper (3.1): Lemma 5
// (minimum 3/2-spanners), Lemma 6 (stable networks live inside the
// Algorithm 1 optimum), Theorem 7 (PoA upper bound for 1/2 <= alpha < 1)
// and the exhaustive version of Theorem 12.
#include <gtest/gtest.h>

#include "core/dynamics.hpp"
#include "core/equilibrium.hpp"
#include "core/equilibrium_search.hpp"
#include "core/social_optimum.hpp"
#include "graph/apsp.hpp"
#include "graph/graph_algos.hpp"
#include "graph/spanner.hpp"
#include "metric/host_graph.hpp"
#include "metric/tree.hpp"
#include "support/rng.hpp"

namespace gncg {
namespace {

/// Builds the WeightedGraph of an edge list over n nodes.
WeightedGraph graph_of(int n, const std::vector<Edge>& edges) {
  WeightedGraph g(n);
  for (const auto& e : edges) g.add_edge(e.u, e.v, e.weight);
  return g;
}

TEST(Lemma5, MinimumSpannerHasAllOneEdgesAndDiameterThree) {
  Rng rng(1301);
  for (int trial = 0; trial < 5; ++trial) {
    const auto host = random_one_two_host(6, 0.45, rng);
    const auto edges = min_weight_three_halves_spanner_onetwo(host.weights());
    const auto g = graph_of(6, edges);
    for (int u = 0; u < 6; ++u)
      for (int v = u + 1; v < 6; ++v)
        if (host.weight(u, v) == 1.0) {
          EXPECT_TRUE(g.has_edge(u, v)) << "1-edge missing (Lemma 5)";
        }
    EXPECT_LE(diameter(g), 3.0 + 1e-9) << "diameter exceeds 3 (Lemma 5)";
  }
}

/// Finds a NE of a 1-2 game by best-response dynamics; nullopt-style bool.
bool find_ne(const Game& game, Rng& rng, StrategyProfile& out) {
  for (int attempt = 0; attempt < 4; ++attempt) {
    DynamicsOptions options;
    options.max_moves = 4000;
    options.seed = rng();
    const auto run = run_dynamics(game, random_profile(game, rng), options);
    if (run.converged && is_nash_equilibrium(game, run.final_profile)) {
      out = run.final_profile;
      return true;
    }
  }
  return false;
}

TEST(Lemma6, StableNetworksLiveInsideTheAlgorithmOneOptimum) {
  // For 0 < alpha <= 1: E(G) subset of E(G*); missing 1-edges have
  // distance exactly 2; 2-edges outside G* have distance at most 3.
  Rng rng(1303);
  int verified = 0;
  for (int trial = 0; trial < 8 && verified < 4; ++trial) {
    const double alpha = rng.uniform_real(0.1, 1.0);
    const Game game(random_one_two_host(6, 0.5, rng), alpha);
    StrategyProfile ne(6);
    if (!find_ne(game, rng, ne)) continue;
    ++verified;
    const auto optimum = algorithm1_one_two(game);
    const auto g_star = graph_of(6, optimum.edges);
    const auto g = built_graph(game, ne);
    const auto dist = apsp(g);
    for (int u = 0; u < 6; ++u) {
      for (int v = u + 1; v < 6; ++v) {
        if (g.has_edge(u, v)) {
          EXPECT_TRUE(g_star.has_edge(u, v))
              << "NE edge (" << u << "," << v << ") outside OPT (Lemma 6)";
        }
        if (game.weight(u, v) == 1.0 && !g.has_edge(u, v)) {
          EXPECT_NEAR(dist.at(u, v), 2.0, 1e-9)
              << "missing 1-edge must sit at distance 2 (Lemma 6)";
        }
        if (game.weight(u, v) == 2.0 && !g_star.has_edge(u, v)) {
          EXPECT_LE(dist.at(u, v), 3.0 + 1e-9)
              << "2-edge outside OPT must sit at distance <= 3 (Lemma 6)";
        }
      }
    }
  }
  EXPECT_GE(verified, 2) << "too few NE found to be meaningful";
}

TEST(Theorem7, ExactPoaBoundedByThreeOverAlphaPlusTwo) {
  // 1/2 <= alpha < 1: PoA <= 3/(alpha+2) -- verified exactly on small
  // hosts via enumeration + the Algorithm 1 optimum (exact by Thm 6).
  Rng rng(1307);
  for (int trial = 0; trial < 4; ++trial) {
    const double alpha = rng.uniform_real(0.5, 0.99);
    const Game game(random_one_two_host(4, 0.5, rng), alpha);
    const auto equilibria = enumerate_nash_equilibria(game);
    if (equilibria.empty()) continue;
    const auto opt = algorithm1_one_two(game);
    const auto estimate = estimate_poa(equilibria, opt.cost.total(), true);
    EXPECT_LE(estimate.poa, 3.0 / (alpha + 2.0) + 1e-9)
        << "Theorem 7 violated at alpha=" << alpha;
  }
}

TEST(Theorem8Alpha1, ExactPoaBoundedByThreeHalves) {
  Rng rng(1319);
  for (int trial = 0; trial < 4; ++trial) {
    const Game game(random_one_two_host(4, 0.5, rng), 1.0);
    const auto equilibria = enumerate_nash_equilibria(game);
    if (equilibria.empty()) continue;
    const auto opt = algorithm1_one_two(game);
    const auto estimate = estimate_poa(equilibria, opt.cost.total(), true);
    EXPECT_LE(estimate.poa, 1.5 + 1e-9);
  }
}

TEST(Theorem12Exhaustive, EveryEnumeratedTreeMetricNeIsATree) {
  Rng rng(1321);
  for (int n : {4, 5}) {
    const auto tree = random_tree(n, rng, 1.0, 7.0);
    const Game game(HostGraph::from_tree(tree), rng.uniform_real(0.5, 2.5));
    const auto equilibria = enumerate_nash_equilibria(game);
    ASSERT_FALSE(equilibria.empty());
    for (const auto& profile : equilibria.profiles)
      EXPECT_TRUE(is_tree(built_graph(game, profile)))
          << "non-tree NE on a tree metric (Theorem 12)";
  }
}

TEST(Lemma3Exhaustive, EnumeratedLowAlphaEquilibriaContainAllOneEdges) {
  Rng rng(1327);
  for (int trial = 0; trial < 3; ++trial) {
    const double alpha = rng.uniform_real(0.1, 0.9);
    const Game game(random_one_two_host(4, 0.5, rng), alpha);
    const auto equilibria = enumerate_nash_equilibria(game);
    for (const auto& profile : equilibria.profiles)
      for (int u = 0; u < 4; ++u)
        for (int v = u + 1; v < 4; ++v)
          if (game.weight(u, v) == 1.0) {
            EXPECT_TRUE(profile.has_edge(u, v))
                << "NE missing a 1-edge at alpha=" << alpha << " (Lemma 3)";
          }
  }
}

}  // namespace
}  // namespace gncg
