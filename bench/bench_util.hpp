// Shared helpers for the experiment benches: every bench prints
// paper-value vs measured-value rows through these utilities.
#pragma once

#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "core/cost.hpp"
#include "core/game.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"

namespace gncg::bench {

/// Measured / expected agreement marker for result tables.
inline std::string verdict(double measured, double expected,
                           double tolerance = 1e-6) {
  if (!(expected < kInf) && !(measured < kInf)) return "ok";
  const double scale = std::max({1.0, std::abs(expected), std::abs(measured)});
  return std::abs(measured - expected) <= tolerance * scale ? "ok" : "MISMATCH";
}

/// "holds" / "VIOLATED" marker for one-sided bounds.
inline std::string bound_verdict(double measured, double bound,
                                 double tolerance = 1e-6) {
  return measured <= bound + tolerance * std::max(1.0, std::abs(bound))
             ? "holds"
             : "VIOLATED";
}

/// Social-cost ratio of a claimed equilibrium profile over a reference
/// network (the measured PoA contribution of a construction).
inline double measured_ratio(const Game& game, const StrategyProfile& ne,
                             const std::vector<Edge>& optimum) {
  return social_cost(game, ne) / network_social_cost(game, optimum);
}

}  // namespace gncg::bench
