#include "core/guidance.hpp"

#include <utility>

#include "core/equilibrium.hpp"
#include "core/ownership.hpp"

namespace gncg {

StrategyProfile guided_profile(const Game& game,
                               const std::vector<Edge>& network,
                               std::uint64_t seed, int max_search_edges) {
  if (static_cast<int>(network.size()) <= max_search_edges) {
    // A stability-searched ownership makes the guided start itself as
    // stable as possible; if it is already a GE the dynamics only have to
    // fix multi-edge deviations.
    if (auto owned = find_greedy_ownership(game, network, max_search_edges))
      return std::move(*owned);
  }
  Rng rng(seed);
  StrategyProfile profile(game.node_count());
  for (const auto& e : network) {
    if (rng.bernoulli(0.5)) profile.add_buy(e.u, e.v);
    else profile.add_buy(e.v, e.u);
  }
  return profile;
}

double GuidanceComparison::random_mean_cost() const {
  double total = 0.0;
  int converged = 0;
  for (const auto& run : random_runs) {
    if (!run.converged) continue;
    total += run.social_cost;
    ++converged;
  }
  return converged == 0 ? kInf : total / converged;
}

namespace {

GuidanceOutcome run_once(const Game& game, StrategyProfile start,
                         const GuidanceOptions& options, std::uint64_t seed) {
  DynamicsOptions dyn;
  dyn.rule = options.rule;
  dyn.max_moves = options.max_moves;
  dyn.seed = seed;
  auto run = run_dynamics(game, std::move(start), dyn);
  GuidanceOutcome outcome;
  outcome.converged = run.converged;
  outcome.moves = run.moves;
  outcome.social_cost = social_cost(game, run.final_profile);
  if (run.converged && options.verify_nash)
    outcome.nash_verified = is_nash_equilibrium(game, run.final_profile);
  outcome.profile = std::move(run.final_profile);
  return outcome;
}

}  // namespace

GuidanceComparison compare_guided_vs_random(const Game& game,
                                            const NetworkDesign& target,
                                            const GuidanceOptions& options) {
  Rng rng(options.seed);
  GuidanceComparison comparison;
  comparison.target_cost = target.cost.total();
  comparison.guided = run_once(
      game, guided_profile(game, target.edges, rng()), options, rng());
  comparison.random_runs.reserve(static_cast<std::size_t>(options.random_runs));
  for (int i = 0; i < options.random_runs; ++i)
    comparison.random_runs.push_back(
        run_once(game, random_profile(game, rng), options, rng()));
  return comparison;
}

}  // namespace gncg
