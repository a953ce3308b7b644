// Agent and social cost evaluation.
//
// cost(u, G(s)) = alpha * w(u, S_u) + sum_v d_{G(s)}(u, v)
// cost(G(s))    = sum_u cost(u, G(s))
//
// Disconnection yields +infinity, exactly as in the paper (d = +inf when no
// path exists).  Social cost is computed by one Dijkstra per agent fanned
// out over the worker pool.
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/game.hpp"

namespace gncg {

/// The epsilon scale used by `improves` (exposed for tests).
inline constexpr double kImproveEps = 1e-9;

/// Strict-improvement test with a scale-aware epsilon: `candidate` improves
/// on `incumbent` iff it is smaller by more than kImproveEps (relative).
/// Infinite incumbents are improved by any finite candidate.  Inline: the
/// single-move scans and the best-response searches call it per candidate.
inline bool improves(double candidate, double incumbent) {
  if (!(incumbent < kInf)) return candidate < kInf;
  const double slack = kImproveEps * std::max(1.0, std::abs(incumbent));
  return candidate < incumbent - slack;
}

/// alpha * total weight of the edges agent u buys.
double buying_cost(const Game& game, const StrategyProfile& s, int u);

/// Sum of agent u's distances in the built network (kInf if disconnected).
double distance_cost(const Game& game,
                     const std::vector<std::vector<Neighbor>>& adjacency,
                     int u);

/// cost(u, G(s)): buying cost plus distance cost.
double agent_cost(const Game& game, const StrategyProfile& s, int u);

/// Per-agent cost split used in reports.
struct AgentCostBreakdown {
  double edge_cost = 0.0;
  double dist_cost = 0.0;
  double total() const { return edge_cost + dist_cost; }
};

AgentCostBreakdown agent_cost_breakdown(const Game& game,
                                        const StrategyProfile& s, int u);

/// Social cost split: total edge expenditure and total distance cost.
struct SocialCostBreakdown {
  double edge_cost = 0.0;
  double dist_cost = 0.0;
  double total() const { return edge_cost + dist_cost; }
};

/// cost(G(s)) decomposed; parallel over agents.
SocialCostBreakdown social_cost_breakdown(const Game& game,
                                          const StrategyProfile& s);

/// cost(G(s)).
double social_cost(const Game& game, const StrategyProfile& s);

/// Social cost of a bare network (ownership-free edge set): each edge is
/// paid once, alpha * sum(w) + sum of all ordered-pair distances.  This is
/// the objective of the social-optimum problem.
SocialCostBreakdown network_social_cost_breakdown(
    const Game& game, const std::vector<Edge>& network);

double network_social_cost(const Game& game, const std::vector<Edge>& network);

}  // namespace gncg
