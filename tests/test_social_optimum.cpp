// Tests for social-optimum computation: exact enumeration, Algorithm 1
// (Theorem 6), the tree optimum (Corollary 3), heuristics and lower bounds.
#include <gtest/gtest.h>

#include "core/social_optimum.hpp"
#include "graph/graph_algos.hpp"
#include "metric/host_graph.hpp"
#include "metric/tree.hpp"
#include "support/rng.hpp"

namespace gncg {
namespace {

TEST(ExactOptimum, TinyAlphaRealizesHostDistances) {
  // With alpha ~ 0 edges are nearly free, so OPT realizes every host
  // shortest-path distance exactly (on a metric-repaired host redundant
  // edges do not shorten anything, so OPT need not be complete).
  Rng rng(401);
  const Game game(random_metric_host(5, rng), 0.01);
  const auto opt = exact_social_optimum(game);
  double closure_sum = 0.0;
  for (int u = 0; u < 5; ++u) closure_sum += game.host_distance_sum(u);
  EXPECT_NEAR(opt.cost.dist_cost, closure_sum, 1e-9);
}

TEST(ExactOptimum, MstWinsForHugeAlpha) {
  // With alpha huge, edge cost dominates; OPT must be a spanning tree
  // (and, on a metric host, it is the MST).
  Rng rng(409);
  const Game game(random_metric_host(5, rng), 1e6);
  const auto opt = exact_social_optimum(game);
  WeightedGraph g(5);
  for (const auto& e : opt.edges) g.add_edge(e.u, e.v, e.weight);
  EXPECT_TRUE(is_tree(g));
  const auto mst = mst_network(game);
  EXPECT_LE(opt.cost.total(), mst.cost.total() + 1e-9);
  // At this alpha the edge bill dominates: OPT's total edge weight cannot
  // exceed the MST's (otherwise the MST would be cheaper).
  EXPECT_LE(opt.cost.edge_cost, mst.cost.edge_cost + 1e-6);
}

TEST(ExactOptimum, NeverBeatenByCandidateNetworks) {
  Rng rng(419);
  for (int trial = 0; trial < 6; ++trial) {
    const Game game(random_metric_host(5, rng), rng.uniform_real(0.2, 5.0));
    const auto opt = exact_social_optimum(game);
    EXPECT_LE(opt.cost.total(), mst_network(game).cost.total() + 1e-9);
    EXPECT_LE(opt.cost.total(),
              local_search_optimum(game).cost.total() + 1e-9);
    EXPECT_GE(opt.cost.total(), social_optimum_lower_bound(game) - 1e-9);
  }
}

TEST(Algorithm1, RemovesExactlyTriangleTwoEdges) {
  // Host: 1-edges (0,1),(1,2); all others 2.  The 2-edge (0,2) closes a
  // 1-1-2 triangle and must go; 2-edges to node 3 stay.
  DistanceMatrix weights(4, 2.0);
  weights.set_symmetric(0, 1, 1.0);
  weights.set_symmetric(1, 2, 1.0);
  const Game game(
      HostGraph::from_weights(std::move(weights), ModelClass::kOneTwo), 0.8);
  const auto opt = algorithm1_one_two(game);
  WeightedGraph g(4);
  for (const auto& e : opt.edges) g.add_edge(e.u, e.v, e.weight);
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_TRUE(g.has_edge(0, 3));
  EXPECT_TRUE(g.has_edge(1, 3));
  EXPECT_TRUE(g.has_edge(2, 3));
}

TEST(Algorithm1, MatchesExactOptimumForAlphaBelowOne) {
  // Theorem 6: Algorithm 1 is optimal for alpha <= 1 on 1-2 hosts.
  Rng rng(421);
  for (int trial = 0; trial < 11; ++trial) {
    const double alpha = rng.uniform_real(0.05, 1.0);
    const int n = trial < 8 ? 5 : 6;
    const Game game(random_one_two_host(n, rng.uniform01(), rng), alpha);
    const auto alg1 = algorithm1_one_two(game);
    const auto exact = exact_social_optimum(game);
    EXPECT_NEAR(alg1.cost.total(), exact.cost.total(), 1e-9)
        << "alpha=" << alpha << " trial=" << trial;
  }
}

TEST(Algorithm1, RejectsNonOneTwoHosts) {
  Rng rng(431);
  const Game game(random_metric_host(4, rng), 0.5);
  EXPECT_THROW(algorithm1_one_two(game), ContractViolation);
}

TEST(TreeOptimum, MatchesExactOptimumOnTreeMetrics) {
  // Corollary 3: the defining tree is the social optimum of the T-GNCG.
  Rng rng(433);
  for (int trial = 0; trial < 6; ++trial) {
    const auto tree = random_tree(5, rng, 1.0, 5.0);
    const Game game(HostGraph::from_tree(tree), rng.uniform_real(0.5, 4.0));
    const auto tree_opt = tree_optimum(game);
    const auto exact = exact_social_optimum(game);
    EXPECT_NEAR(tree_opt.cost.total(), exact.cost.total(), 1e-9)
        << "trial " << trial;
  }
}

TEST(TreeOptimum, RequiresTreeProvenance) {
  Rng rng(439);
  const Game game(random_metric_host(4, rng), 1.0);
  EXPECT_THROW(tree_optimum(game), ContractViolation);
}

TEST(LocalSearchOptimum, CloseToExactOnSmallInstances) {
  Rng rng(443);
  for (int trial = 0; trial < 5; ++trial) {
    const Game game(random_metric_host(5, rng), rng.uniform_real(0.3, 3.0));
    const auto heuristic = local_search_optimum(game);
    const auto exact = exact_social_optimum(game);
    EXPECT_LE(heuristic.cost.total(), 1.2 * exact.cost.total() + 1e-9)
        << "local search strayed far from optimal";
  }
}

TEST(LowerBound, IsAdmissible) {
  Rng rng(449);
  for (int trial = 0; trial < 5; ++trial) {
    const Game game(random_one_two_host(5, 0.5, rng),
                    rng.uniform_real(0.2, 4.0));
    EXPECT_LE(social_optimum_lower_bound(game),
              exact_social_optimum(game).cost.total() + 1e-9);
  }
}

TEST(ExactOptimum, HonorsSubsetCap) {
  Rng rng(457);
  const Game game(random_metric_host(8, rng), 1.0);  // 28 pairs > default cap
  EXPECT_THROW(exact_social_optimum(game), ContractViolation);
}

}  // namespace
}  // namespace gncg
