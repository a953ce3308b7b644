#include "constructions/cycle_instances.hpp"

#include "core/game.hpp"

namespace gncg {

std::vector<double> theorem14_weight_multiset() {
  return {3.0, 7.0, 2.0, 5.0, 12.0, 9.0, 11.0, 2.0, 10.0};
}

PointSet theorem17_points() {
  return PointSet({{3.0, 0.0},
                   {0.0, 3.0},
                   {2.0, 2.0},
                   {0.0, 2.0},
                   {1.0, 1.0},
                   {4.0, 3.0},
                   {2.0, 0.0},
                   {4.0, 1.0},
                   {1.0, 4.0},
                   {1.0, 0.0}});
}

CycleSearchResult find_tree_fip_violation(int n, int max_trees,
                                          std::uint64_t seed, double alpha,
                                          bool best_response_arcs_only) {
  CycleSearchResult result;
  result.alpha = alpha;
  Rng rng(seed);
  for (int attempt = 0; attempt < max_trees; ++attempt) {
    WeightedTree tree = random_tree(n, rng, /*w_min=*/1.0, /*w_max=*/10.0);
    Game game(HostGraph::from_tree(tree), alpha);
    ExhaustiveFipOptions options;
    options.best_response_arcs_only = best_response_arcs_only;
    FipAnalysis analysis = exhaustive_fip_analysis(game, options);
    ++result.attempts;
    if (analysis.cycle_found) {
      result.found = true;
      result.tree = std::move(tree);
      result.analysis = std::move(analysis);
      return result;
    }
  }
  return result;
}

PointSet conjecture1_euclidean_points() {
  return PointSet({{2.0, 0.0},
                   {3.0, 0.0},
                   {2.0, 1.0},
                   {3.0, 2.0},
                   {0.0, 3.0},
                   {0.0, 2.0},
                   {1.0, 1.0},
                   {1.0, 2.0}});
}

CycleSearchResult search_conjecture1_cycle(int attempts, std::uint64_t seed) {
  CycleSearchResult result;
  result.alpha = kConjecture1Alpha;
  const Game game(
      HostGraph::from_points(conjecture1_euclidean_points(), /*p=*/2.0),
      kConjecture1Alpha);
  FipAnalysis analysis =
      search_best_response_cycle(game, attempts, seed, /*max_moves=*/1200);
  result.attempts = analysis.states_visited;
  if (analysis.cycle_found) {
    result.found = true;
    result.analysis = std::move(analysis);
  }
  return result;
}

CycleSearchResult search_theorem17_cycle(const std::vector<double>& alphas,
                                         int attempts_per_alpha,
                                         std::uint64_t seed) {
  CycleSearchResult result;
  Rng rng(seed);
  const PointSet points = theorem17_points();
  for (double alpha : alphas) {
    Game game(HostGraph::from_points(points, /*p=*/1.0), alpha);
    FipAnalysis analysis =
        search_best_response_cycle(game, attempts_per_alpha, rng());
    result.attempts += analysis.states_visited;
    if (analysis.cycle_found) {
      result.found = true;
      result.alpha = alpha;
      result.analysis = std::move(analysis);
      return result;
    }
  }
  return result;
}

}  // namespace gncg
