// Best-response-cycle instances (Theorems 14 and 17: no finite improvement
// property on tree metrics or 1-norm points).
//
// Figure 5's tree drawing does not fully specify its edge set in the paper
// text, so the Theorem 14 reproduction is exhaustive improvement-graph
// analysis of small random tree metrics -- a rigorous FIP-violation
// witness.  Figure 8's ten points are given exactly in the text and are
// reproduced verbatim for Theorem 17.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/fip.hpp"
#include "metric/points.hpp"
#include "metric/tree.hpp"

namespace gncg {

/// The Figure 5 edge-weight multiset (9 weights for a 10-node tree).
std::vector<double> theorem14_weight_multiset();

/// The exact ten Figure 8 points: a0=(3,0), a1=(0,3), a2=(2,2), a3=(0,2),
/// a4=(1,1), a5=(4,3), a6=(2,0), a7=(4,1), a8=(1,4), a9=(1,0).
PointSet theorem17_points();

/// Result of a search for an instance violating the FIP.
struct CycleSearchResult {
  bool found = false;
  std::uint64_t attempts = 0;
  std::optional<WeightedTree> tree;  ///< tree searches only
  double alpha = 0.0;
  FipAnalysis analysis;              ///< carries the certified cycle
};

/// Exhaustive FIP-violation search over random n-node tree metrics: draws
/// trees until exhaustive_fip_analysis certifies an improving-move cycle
/// (Theorem 14 witness on a tiny instance).  n must keep the state space
/// within the exhaustive cap (n <= 4 for complete hosts by default).
CycleSearchResult find_tree_fip_violation(int n, int max_trees,
                                          std::uint64_t seed, double alpha,
                                          bool best_response_arcs_only = false);

/// Heuristic Theorem 17 search on the exact Figure 8 point set under the
/// 1-norm, over an alpha grid.
CycleSearchResult search_theorem17_cycle(const std::vector<double>& alphas,
                                         int attempts_per_alpha,
                                         std::uint64_t seed);

/// Eight DISTINCT integer points in the plane on which best-response
/// dynamics cycle under the EUCLIDEAN norm at alpha = 1: (2,0), (3,0),
/// (2,1), (3,2), (0,3), (0,2), (1,1), (1,2).  Found by randomized search
/// over tie-rich integer grids; a computational witness for the paper's
/// Conjecture 1 (no FIP under any p-norm) beyond the proved 1-norm case.
PointSet conjecture1_euclidean_points();

/// The alpha at which the witness cycle was found.
inline constexpr double kConjecture1Alpha = 1.0;

/// BR-cycle search pinned to the Conjecture 1 witness instance (p = 2).
/// With the documented seed the cycle reproduces deterministically.
CycleSearchResult search_conjecture1_cycle(
    int attempts, std::uint64_t seed = 18199693810459455346ULL);

}  // namespace gncg
