// Incremental deviation engine: cached game state + delta move evaluation.
//
// Every experiment in the paper (equilibrium checks, best-response dynamics,
// PoA sweeps) reduces to evaluating many candidate deviations against the
// *same* strategy profile.  The naive path pays a full adjacency rebuild and
// a fresh Dijkstra per candidate; this engine amortizes that work:
//
//  * It owns the materialized adjacency of the current StrategyProfile and
//    updates it incrementally under add_buy/remove_buy/apply_move/
//    set_strategy -- no build_adjacency per evaluation.  Ownership changes
//    that do not alter the built topology (double-ownership adds/removes)
//    leave the distance caches valid.
//  * It caches one SSSP distance vector per agent, invalidated lazily via a
//    topology epoch: a mutation bumps the epoch, and each agent's vector is
//    recomputed only when next queried.
//  * Single-move deviations are evaluated by *delta* where an exact closed
//    form exists, and by a buffer-reusing Dijkstra otherwise:
//      - addition (u,x):  d'(u,t) = min(d(u,t), w(u,x) + d(x,t)) over the
//        cached vectors of u and x -- O(n) per candidate, no Dijkstra,
//        computed once per scan and reused by the swap branches;
//      - deleting a *bridge* (and swapping it for (u,x)): the graph splits
//        into the side reachable from u and the rest, and distances on each
//        side are unchanged, so the swap re-costs from cached vectors plus
//        one reachability sweep per owned edge;
//      - all remaining deletes/swaps re-run Dijkstra over a masked view of
//        the engine adjacency with per-worker arena scratch (support/
//        arena.hpp), pruned by the admissible bound "distances cannot
//        shrink when an edge is removed".
//    The two O(n) delta forms run in one lane-batched kernel: each pass over
//    t evaluates a block of candidate targets, every lane adding in
//    increasing t into its own accumulator, so each candidate's sum is
//    bitwise the one-candidate loop's.  Before a candidate takes a lane, a
//    lower bound on its cost is checked against the running best: buying
//    (u,x) shortens no distance of u by more than max(0, d(u,x) - w(u,x)),
//    so candidates that provably cannot improve (with a rigorous
//    floating-point margin) are skipped without changing any result.
//
// All SSSP work runs over a flat CSR adjacency slab (graph/csr_adjacency.hpp)
// and draws every scratch buffer from the calling worker's ScratchArena, so
// steady-state move evaluation performs no heap allocation.  On hosts whose
// weights are small integers (unit, 1-2, integer trees) the kernels switch
// from the binary heap to the bucket-queue ("dial") Dijkstra -- distances
// are bit-identical either way.
//
// Scan order and tie-breaking replicate the naive scan_single_moves exactly,
// so on hosts whose weights sum exactly in doubles (unit, 1-2, integer
// weights) the engine returns bit-identical costs and identical moves; on
// real-weighted hosts results agree up to floating-point associativity (see
// tests/test_deviation_engine.cpp for the differential contract).
//
// Invalidation contract (for code building on the engine): `distances(u)` /
// `distance_cost(u)` / `agent_cost(u)` are valid only until the next
// topology mutation; references returned by `distances`/`adjacency` are
// invalidated by any mutation.  `*_warm` members require `warm_distances()`
// after the last mutation and are const + thread-safe, which is what the
// dynamics scheduler's parallel proposal batching runs on.
//
// The engine also maintains the Zobrist ownership hash of its profile
// (core/transposition.hpp) incrementally: every ownership mutation --
// including double-ownership changes that leave the topology and the
// distance caches untouched -- updates `profile_hash()` in O(1), so
// dynamics cycle detection reads a fingerprint per step instead of
// rehashing the profile.
//
// Host weights are queried once per candidate per scan through Game::weight,
// i.e. the host-metric backend (metric/host_backend.hpp): stable, const and
// thread-safe, O(1) on dense hosts and O(d)/O(1) on implicit geometric
// ones -- which is what lets a euclidean n=4096 sweep run without any
// O(n^2) host matrix existing.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/best_response.hpp"
#include "core/cost.hpp"
#include "core/game.hpp"
#include "graph/csr_adjacency.hpp"

namespace gncg {

class DeviationEngine {
 public:
  /// Takes ownership of `profile` and materializes its adjacency once.
  DeviationEngine(const Game& game, StrategyProfile profile);

  const Game& game() const { return *game_; }
  const StrategyProfile& profile() const { return profile_; }

  /// Zobrist ownership hash of the current profile, maintained O(1) under
  /// every mutation.  Always equals zobrist_profile_hash(profile()).
  std::uint64_t profile_hash() const { return profile_hash_; }

  /// Materialized adjacency of the built network (double ownership collapsed
  /// into one undirected entry), stored as a flat CSR slab so SSSP inner
  /// loops traverse contiguous memory.  Spans/references into it are
  /// invalidated by any mutation (entries may relocate).
  const CsrAdjacency& adjacency() const { return adjacency_; }

  /// True when this engine's SSSP kernels use the bucket-queue (dial) path
  /// (integer-weight host within the dial gate; see
  /// HostGraph::dial_weight_bound).
  bool dial_enabled() const { return dial_bound_ > 0; }

  /// Forces the binary-heap Dijkstra path even on integer-weight hosts.
  /// Bench/test knob (dial-vs-heap comparisons); distances are bit-identical
  /// either way, so this never changes results.
  void disable_dial() { dial_bound_ = 0; }

  // --- mutations (incremental adjacency, lazy cache invalidation) ---

  void add_buy(int u, int v);
  void remove_buy(int u, int v);
  void set_strategy(int u, NodeSet strategy);
  void apply_move(int u, const SingleMove& move);

  /// Batched apply for round-commit dynamics (the parallel-MGM scheduler):
  /// replaces each listed agent's strategy in input order, bumping the
  /// topology epoch at most once for the whole batch instead of once per
  /// changed edge.  Agents must be distinct; the resulting profile,
  /// adjacency and Zobrist hash equal a sequence of set_strategy calls.
  void set_strategies(const std::vector<std::pair<int, NodeSet>>& moves);

  /// Conservative conflict set of "u plays `next`": u itself plus every
  /// endpoint of u's current and proposed strategies -- the nodes whose
  /// incident built edges (and hence SSSP rows) the move may touch.  Two
  /// moves with disjoint conflict sets commute: neither edits an edge the
  /// other reads or writes.  Appends ids to `out` sorted and deduplicated.
  void move_conflict_set(int u, const NodeSet& next,
                         std::vector<int>& out) const;

  /// Replaces the whole profile (full rebuild; for dynamics restarts).
  void set_profile(StrategyProfile profile);

  // --- cached state queries (compute on first use after a mutation) ---

  /// SSSP distance vector of agent u in the built network.
  const std::vector<double>& distances(int u);

  /// Sum of agent u's distances (kInf when disconnected).
  double distance_cost(int u);

  /// alpha * total weight of u's bought edges (recomputed per call in the
  /// same summation order as the naive path; cheap).
  double buying_cost(int u) const;

  /// cost(u, G(s)) = buying_cost(u) + distance_cost(u).
  double agent_cost(int u);

  /// Ensures every agent's distance cache is valid (parallel over agents).
  void warm_distances();

  // --- move evaluation ---

  /// Best single move / addition / swap of agent u.  Same semantics, scan
  /// order and tie-breaking as the naive free functions.
  SingleMoveResult best_single_move(int u);
  SingleMoveResult best_addition(int u);
  SingleMoveResult best_swap(int u);

  /// Early-exit existence checks (equilibrium predicates): true when some
  /// move of the family strictly improves u's cost.
  bool has_improving_single_move(int u);
  bool has_improving_addition(int u);
  bool has_improving_swap(int u);

  // --- warm (const, thread-safe) variants for parallel proposal batching.
  // Require warm_distances() after the last mutation. ---

  double distance_cost_warm(int u) const;
  double agent_cost_warm(int u) const;

  /// Warmed SSSP row of agent u in the built network (the vector behind
  /// distance_cost_warm).  The batched certifier feeds this to the ladder's
  /// current-network floor (ApproxBrOptions::current_dist) without paying a
  /// fresh Dijkstra.  Invalidated by any mutation, like distances().
  const std::vector<double>& distances_warm(int u) const {
    return warmed(u).dist;
  }
  SingleMoveResult best_single_move_warm(int u) const;
  SingleMoveResult best_addition_warm(int u) const;
  SingleMoveResult best_swap_warm(int u) const;

  /// cost(u) if u plays exactly `targets` (everyone else fixed): Dijkstra
  /// over the engine adjacency with u's sole-owned edges masked and the
  /// target edges added, using the worker arena.  Const and thread-safe.
  double cost_of_strategy(int u, const NodeSet& targets) const;

 private:
  struct AgentCache {
    std::vector<double> dist;
    double dist_sum = 0.0;
    std::uint64_t epoch = 0;  ///< topology epoch the cache was filled at
  };

  struct ScanFlags {
    bool adds = false;
    bool deletes = false;
    bool swaps = false;
  };

  std::size_t idx(int u) const { return static_cast<std::size_t>(u); }

  /// True when the built edge (u,t) exists only because u buys it (removing
  /// u's buy removes the edge).
  bool solely_owned(int u, int t) const {
    return profile_.buys(u, t) && !profile_.buys(t, u);
  }

  /// Inserts / removes the undirected adjacency entry for (a, b).
  void link(int a, int b);
  void unlink(int a, int b);

  /// set_strategy body without the per-edge epoch bumps: updates ownership,
  /// hash and adjacency, and returns whether the built topology changed
  /// (the caller decides how many epoch bumps the batch pays).
  bool replace_strategy_edges(int u, const NodeSet& next);

  const AgentCache& warmed(int u) const;
  const AgentCache& ensure(int u);

  /// Marks the nodes reachable from u in the built network minus edge (u,v)
  /// into `mark`; returns true when v is still reachable (the edge is not a
  /// bridge).
  bool mark_reachable_without(int u, int v, std::vector<char>& mark) const;

  /// Dijkstra distance cost of u with edge (u,remove) masked out of the
  /// adjacency and, when add >= 0, edge (u,add) of weight `add_weight`
  /// visited additionally.
  double masked_distance_cost(int u, int remove, int add,
                              double add_weight) const;

  /// Shared single-move scan (const: caches must be warm).  With
  /// `early_exit` the scan stops at the first improving candidate.
  /// Candidates whose cost lower bound cannot beat the running best are
  /// skipped; the rest have their delta sums lane-batched (several targets
  /// x per pass over the distance rows, each summed in its own increasing-t
  /// order) and are considered one by one in increasing x, so results,
  /// tie-breaking and early exit match a one-candidate-at-a-time scan.
  SingleMoveResult scan_moves(int u, const ScanFlags& flags,
                              bool early_exit) const;

  /// Refills adjacency_ from profile_ with the two-pass CSR rebuild
  /// (replicates build_adjacency's double-ownership collapse and per-node
  /// entry order exactly).
  void rebuild_adjacency();

  const Game* game_;
  StrategyProfile profile_;
  CsrAdjacency adjacency_;
  std::vector<AgentCache> caches_;
  std::uint64_t epoch_ = 1;
  std::uint64_t profile_hash_ = 0;
  int dial_bound_ = 0;  ///< bucket-queue weight bound; 0 = use the heap
};

}  // namespace gncg
