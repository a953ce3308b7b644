#include "core/cost.hpp"

#include "graph/dijkstra.hpp"
#include "support/parallel.hpp"

namespace gncg {

double buying_cost(const Game& game, const StrategyProfile& s, int u) {
  double total = 0.0;
  s.strategy(u).for_each([&](int v) { total += game.weight(u, v); });
  return game.alpha() * total;
}

double distance_cost(const Game& game,
                     const std::vector<std::vector<Neighbor>>& adjacency,
                     int u) {
  return distance_sum_over(game.node_count(), u, [&](int x, auto&& visit) {
    for (const auto& nb : adjacency[static_cast<std::size_t>(x)])
      visit(nb.to, nb.weight);
  });
}

double agent_cost(const Game& game, const StrategyProfile& s, int u) {
  const auto adjacency = build_adjacency(game, s);
  return buying_cost(game, s, u) + distance_cost(game, adjacency, u);
}

AgentCostBreakdown agent_cost_breakdown(const Game& game,
                                        const StrategyProfile& s, int u) {
  const auto adjacency = build_adjacency(game, s);
  return {buying_cost(game, s, u), distance_cost(game, adjacency, u)};
}

SocialCostBreakdown social_cost_breakdown(const Game& game,
                                          const StrategyProfile& s) {
  const int n = game.node_count();
  const auto adjacency = build_adjacency(game, s);
  std::vector<double> dist_costs(static_cast<std::size_t>(n), 0.0);
  parallel_for(0, static_cast<std::size_t>(n), [&](std::size_t u) {
    dist_costs[u] = distance_cost(game, adjacency, static_cast<int>(u));
  });
  SocialCostBreakdown result;
  for (int u = 0; u < n; ++u) {
    result.edge_cost += buying_cost(game, s, u);
    result.dist_cost += dist_costs[static_cast<std::size_t>(u)];
  }
  return result;
}

double social_cost(const Game& game, const StrategyProfile& s) {
  return social_cost_breakdown(game, s).total();
}

SocialCostBreakdown network_social_cost_breakdown(
    const Game& game, const std::vector<Edge>& network) {
  const int n = game.node_count();
  WeightedGraph g(n);
  double edge_weight_total = 0.0;
  for (const auto& e : network) {
    GNCG_CHECK(game.can_buy(e.u, e.v), "network contains a forbidden edge");
    g.add_edge(e.u, e.v, game.weight(e.u, e.v));
    edge_weight_total += game.weight(e.u, e.v);
  }
  std::vector<double> dist_costs(static_cast<std::size_t>(n), 0.0);
  parallel_for(0, static_cast<std::size_t>(n), [&](std::size_t u) {
    dist_costs[u] = distance_sum(g, static_cast<int>(u));
  });
  SocialCostBreakdown result;
  result.edge_cost = game.alpha() * edge_weight_total;
  for (double d : dist_costs) result.dist_cost += d;
  return result;
}

double network_social_cost(const Game& game, const std::vector<Edge>& network) {
  return network_social_cost_breakdown(game, network).total();
}

}  // namespace gncg
