// Incremental best-response search: the shared branch-and-bound driver.
//
// Computing a best response is NP-hard in every variant of the game
// (Corollary 1, Theorems 13 and 16), so the exact solver is a pruned
// exponential DFS over subsets of purchase targets.  This module is the one
// driver behind both objectives -- SUM (the paper's cost) and MAX (the
// egalitarian variant) differ only in a cost-model policy -- and it replaces
// the pay-one-Dijkstra-per-subset search:
//
//  * Row-min distance maintenance: every bought edge is incident to the
//    agent, so a shortest path uses at most one of them, first.  Hence for
//    any subset S, d_S(t) = min over v in S of d_v(t), where d_v is the
//    single-insert repair of v from the base vector (IncrementalSssp,
//    decrease-only).  The search runs one Dijkstra, builds each candidate's
//    row once (lazily, the first time the DFS inserts it; branches share
//    the rows read-only), and a DFS step is one O(n) pointwise min into a
//    per-depth vector -- no repair, no rollback.  Evaluating a subset costs
//    one O(n) aggregation pass.
//  * Two-level admissible pruning: the O(1) global floor (host_distance_sum
//    for SUM, host eccentricity for MAX) cuts first; surviving candidates
//    face the tighter O(n) per-node floor
//        sum/max over t of  max(d_H(u, t), min(d_S(t), w_next)),
//    admissible because every path in a superset graph either avoids the
//    new edges (length >= current d_S(t)) or starts with one (length >=
//    w_next, the smallest remaining candidate weight; new edges are all
//    incident to the source, so a shortest path uses at most one, first).
//  * Deterministic parallel fan-out: first-level branches (partitioned by
//    smallest chosen candidate index) run over the shared worker pool with
//    branch-local incumbents and are folded in branch order (strict
//    improvement to replace), which reproduces the sequential DFS's
//    first-found-among-ties answer -- the smaller-lexicographic strategy in
//    candidate order wins -- independent of thread count.  First-improvement
//    searches abort branch i once a branch j < i has improved (branch i's
//    result could never win the fold), so `evaluations` alone may vary with
//    timing in that mode; strategy/cost/improved never do.
//
// Bit-compatibility with the naive per-subset-Dijkstra search
// (naive_exact_best_response / naive_max_exact_best_response) is the
// contract: identical strategies on hosts whose distinct costs are
// separated by more than the improves() slack (unit, 1-2, integer weights;
// real-weight near-ties agree to ~1e-12 relative), with one deliberate
// strengthening on the cost itself -- evaluation here is *canonical* (the
// edge-weight term is re-summed per subset in increasing target order), so
// the returned cost equals AgentEnvironment::cost_of(strategy) bitwise.
// The naive search instead records its running DFS accumulator, whose
// low-order bits depend on which sibling subtrees were explored first, so
// naive costs are compared through re-evaluation.
// tests/test_best_response.cpp carries the differential fuzz gate.
#pragma once

#include "core/best_response.hpp"
#include "core/game.hpp"

namespace gncg {

/// SUM-objective search: distance term is sum_t d(t).  Used by
/// exact_best_response; `env.agent()` is the deviating agent and
/// `env.game()` the game searched (one source of truth -- a separate game
/// parameter could silently disagree with the environment's).
BestResponseResult br_search_sum(const AgentEnvironment& env,
                                 const BestResponseOptions& options);

/// MAX-objective search: distance term is max_t d(t) (eccentricity).  Used
/// by max_exact_best_response.
BestResponseResult br_search_max(const AgentEnvironment& env,
                                 const BestResponseOptions& options);

}  // namespace gncg
