// Unit tests for spanner machinery: stretch, greedy t-spanner, and the
// exact minimum-weight 3/2-spanner on 1-2 hosts (Theorem 5 substrate).
#include <gtest/gtest.h>

#include "graph/apsp.hpp"
#include "graph/mst.hpp"
#include "graph/spanner.hpp"
#include "metric/host_graph.hpp"
#include "support/rng.hpp"

namespace gncg {
namespace {

TEST(Stretch, IdentityWhenSubgraphEqualsHost) {
  DistanceMatrix host(3, 0.0);
  host.set_symmetric(0, 1, 1.0);
  host.set_symmetric(1, 2, 2.0);
  host.set_symmetric(0, 2, 3.0);
  EXPECT_DOUBLE_EQ(max_stretch(host, host), 1.0);
  EXPECT_TRUE(is_k_spanner(host, host, 1.0));
}

TEST(Stretch, DetectsDetours) {
  DistanceMatrix host(3, 0.0);
  host.set_symmetric(0, 1, 1.0);
  host.set_symmetric(1, 2, 1.0);
  host.set_symmetric(0, 2, 1.0);
  DistanceMatrix sub(3, 0.0);  // path 0-1-2 only
  sub.set_symmetric(0, 1, 1.0);
  sub.set_symmetric(1, 2, 1.0);
  sub.set_symmetric(0, 2, 2.0);
  EXPECT_DOUBLE_EQ(max_stretch(host, sub), 2.0);
  EXPECT_TRUE(is_k_spanner(host, sub, 2.0));
  EXPECT_FALSE(is_k_spanner(host, sub, 1.5));
}

TEST(Stretch, InfiniteWhenSubgraphDisconnects) {
  DistanceMatrix host(2, 1.0);
  DistanceMatrix sub(2);  // disconnected
  EXPECT_EQ(max_stretch(host, sub), kInf);
}

TEST(Stretch, ZeroHostDistancePairs) {
  DistanceMatrix host(2, 0.0);
  host.set_symmetric(0, 1, 0.0);
  DistanceMatrix sub_zero(2, 0.0);
  sub_zero.set_symmetric(0, 1, 0.0);
  EXPECT_DOUBLE_EQ(max_stretch(host, sub_zero), 1.0);
  DistanceMatrix sub_positive(2, 0.0);
  sub_positive.set_symmetric(0, 1, 1.0);
  EXPECT_EQ(max_stretch(host, sub_positive), kInf);
}

TEST(GreedySpanner, RespectsStretchGuarantee) {
  Rng rng(5);
  for (double t : {1.5, 2.0, 3.0}) {
    const auto host = random_metric_host(8, rng);
    const auto edges = greedy_spanner(host.weights(), t);
    WeightedGraph g(host.node_count());
    for (const auto& e : edges) g.add_edge(e.u, e.v, e.weight);
    DistanceMatrix host_closure = host.weights();
    floyd_warshall(host_closure);
    EXPECT_TRUE(is_k_spanner(host_closure, apsp(g), t))
        << "greedy spanner violated t=" << t;
  }
}

TEST(GreedySpanner, StretchOneKeepsShortestPathEdges) {
  // With t = 1, the spanner must preserve all host distances exactly.
  Rng rng(11);
  const auto host = random_metric_host(7, rng);
  const auto edges = greedy_spanner(host.weights(), 1.0);
  WeightedGraph g(host.node_count());
  for (const auto& e : edges) g.add_edge(e.u, e.v, e.weight);
  const auto dist = apsp(g);
  for (int u = 0; u < host.node_count(); ++u)
    for (int v = u + 1; v < host.node_count(); ++v)
      EXPECT_NEAR(dist.at(u, v), host.weight(u, v), 1e-9);
}

TEST(OneTwoSpanner, ContainsAllOneEdges) {
  Rng rng(7);
  const auto host = random_one_two_host(7, 0.4, rng);
  const auto edges = min_weight_three_halves_spanner_onetwo(host.weights());
  WeightedGraph g(host.node_count());
  for (const auto& e : edges) g.add_edge(e.u, e.v, e.weight);
  for (int u = 0; u < host.node_count(); ++u)
    for (int v = u + 1; v < host.node_count(); ++v)
      if (host.weight(u, v) == 1.0) {
        EXPECT_TRUE(g.has_edge(u, v));
      }
}

TEST(OneTwoSpanner, IsAThreeHalvesSpanner) {
  Rng rng(9);
  for (int trial = 0; trial < 5; ++trial) {
    const auto host = random_one_two_host(6, 0.35, rng);
    const auto edges = min_weight_three_halves_spanner_onetwo(host.weights());
    WeightedGraph g(host.node_count());
    for (const auto& e : edges) g.add_edge(e.u, e.v, e.weight);
    EXPECT_TRUE(is_k_spanner(host.weights(), apsp(g), 1.5));
  }
}

TEST(OneTwoSpanner, MatchesBruteForceMinimumWeight) {
  // Exhaustive reference: try all subsets of 2-edges on tiny hosts.
  Rng rng(13);
  for (int trial = 0; trial < 4; ++trial) {
    const auto host = random_one_two_host(5, 0.4, rng);
    const int n = host.node_count();
    std::vector<Edge> one_edges, two_edges;
    for (int u = 0; u < n; ++u)
      for (int v = u + 1; v < n; ++v)
        (host.weight(u, v) == 1.0 ? one_edges : two_edges)
            .push_back({u, v, host.weight(u, v)});
    double best_weight = kInf;
    for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << two_edges.size());
         ++mask) {
      WeightedGraph g(n);
      for (const auto& e : one_edges) g.add_edge(e.u, e.v, 1.0);
      for (std::size_t i = 0; i < two_edges.size(); ++i)
        if ((mask >> i) & 1U)
          g.add_edge(two_edges[i].u, two_edges[i].v, 2.0);
      if (is_k_spanner(host.weights(), apsp(g), 1.5))
        best_weight = std::min(best_weight, g.total_weight());
    }
    const auto exact = min_weight_three_halves_spanner_onetwo(host.weights());
    EXPECT_DOUBLE_EQ(edge_list_weight(exact), best_weight);
  }
}

TEST(OneTwoSpanner, RejectsNonOneTwoHosts) {
  DistanceMatrix weights(3, 3.0);
  EXPECT_THROW(min_weight_three_halves_spanner_onetwo(weights),
               ContractViolation);
}

}  // namespace
}  // namespace gncg
