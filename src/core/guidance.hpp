// Guided dynamics -- the paper's "future work" direction, implemented.
//
// The conclusion asks for (a) the Price of Stability (cheapest NE / OPT)
// and (b) "a way to guide the agents to stable states with preferably low
// social cost".  This module provides both: PoS comes from the equilibrium
// enumeration/sampling machinery (estimate_poa reports it), and guidance is
// realized by *seeding* best-response dynamics from a low-cost network
// (Algorithm 1 output, the defining tree, or a local-search optimum) with a
// stability-searched edge ownership, then comparing the equilibria reached
// from the guided start against random-start dynamics.
#pragma once

#include <cstdint>
#include <vector>

#include "core/dynamics.hpp"
#include "core/game.hpp"
#include "core/social_optimum.hpp"

namespace gncg {

/// Builds a starting profile over a target network: tries a Greedy
/// Equilibrium ownership first (searching all 2^|E| assignments when |E| <=
/// max_search_edges), and falls back to randomized ownership otherwise.
StrategyProfile guided_profile(const Game& game,
                               const std::vector<Edge>& network,
                               std::uint64_t seed,
                               int max_search_edges = 16);

/// Outcome of one dynamics run in a guidance experiment.
struct GuidanceOutcome {
  bool converged = false;
  bool nash_verified = false;   ///< exact NE check (skipped for large n)
  double social_cost = 0.0;
  std::uint64_t moves = 0;
  StrategyProfile profile;
};

/// Comparison of guided vs random starts on one game.
struct GuidanceComparison {
  GuidanceOutcome guided;
  std::vector<GuidanceOutcome> random_runs;
  double target_cost = 0.0;  ///< social cost of the guiding network

  /// Mean social cost of converged random runs (kInf if none converged).
  double random_mean_cost() const;
};

struct GuidanceOptions {
  int random_runs = 5;
  std::uint64_t seed = 1;
  MoveRule rule = MoveRule::kBestResponse;
  std::uint64_t max_moves = 5000;
  bool verify_nash = true;
};

/// Runs dynamics once from the guided profile over `target` and
/// `random_runs` times from random profiles; reports the reached costs.
GuidanceComparison compare_guided_vs_random(const Game& game,
                                            const NetworkDesign& target,
                                            const GuidanceOptions& options = {});

}  // namespace gncg
