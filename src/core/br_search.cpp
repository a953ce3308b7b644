#include "core/br_search.hpp"

#include <algorithm>
#include <atomic>
#include <climits>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/dijkstra.hpp"
#include "graph/incremental_sssp.hpp"
#include "support/arena.hpp"
#include "support/instrument.hpp"
#include "support/parallel.hpp"

namespace gncg {

namespace {

// --- cost models ----------------------------------------------------------
//
// A model supplies the distance aggregation and the two admissible floors.
// Aggregations run in increasing node order so SUM stays bit-identical to
// the naive search's "fresh Dijkstra, sum in node order" evaluation (MAX is
// order-insensitive).

struct SumCostModel {
  static double distance_term(std::span<const double> dist) {
    double total = 0.0;
    for (double d : dist) total += d;
    return total;
  }

  /// Global floor: the host-closure distance sum, summed over the already
  /// filled host row in increasing v order.  Every backend's cached
  /// host_distance_sum(u) is that same row summed in the same order (the
  /// host-backend query contract), so this is bitwise the naive search's
  /// dist_lower_bound -- without the O(n^2) all-pairs pass an implicit
  /// backend pays to fill its sums cache on first query.
  static double cheap_floor(const Game& game, int u,
                            const std::vector<double>& host_row) {
    (void)game;
    (void)u;
    return distance_term(host_row);
  }

  /// Per-node floor for any superset reachable from the current DFS node:
  /// d(t) >= max(d_H(u,t), min(d_S(t), w_next)).  Any path either avoids
  /// the new edges (>= d_S(t)) or starts with one (all new edges are
  /// incident to the source, so a shortest path uses at most one, first;
  /// its weight alone is >= w_next, the smallest remaining candidate).
  static double tight_floor(const std::vector<double>& host_row,
                            std::span<const double> dist, double w_next) {
    double total = 0.0;
    for (std::size_t t = 0; t < dist.size(); ++t)
      total += std::max(host_row[t], std::min(dist[t], w_next));
    return total;
  }
};

struct MaxCostModel {
  static double distance_term(std::span<const double> dist) {
    double worst = 0.0;
    for (double d : dist) worst = std::max(worst, d);
    return worst;
  }

  /// Global floor: the host-closure eccentricity of the agent.
  static double cheap_floor(const Game& game, int u,
                            const std::vector<double>& host_row) {
    (void)game;
    (void)u;
    return distance_term(host_row);
  }

  static double tight_floor(const std::vector<double>& host_row,
                            std::span<const double> dist, double w_next) {
    double worst = 0.0;
    for (std::size_t t = 0; t < dist.size(); ++t)
      worst = std::max(worst, std::max(host_row[t],
                                       std::min(dist[t], w_next)));
    return worst;
  }
};

// --- candidate rows --------------------------------------------------------

/// The search's per-candidate rows (core/br_search.hpp: d_S = min over v in
/// S of d_v).  Row i is built once per search, by the first branch that
/// inserts candidate i, into the driver arena's row slot; its state byte
/// (0 unbuilt, 1 being built, 2 built) hands it to every other branch, which
/// only reads it.  A row's content is a function of (base vector,
/// candidate, cap) alone, so which worker builds it never shows.
class RowTable {
 public:
  RowTable(const AgentEnvironment& env, ScratchArena::BrScratch& scratch,
           std::size_t repair_cap, std::uint64_t search_token)
      : env_(&env),
        scratch_(&scratch),
        repair_cap_(repair_cap),
        search_token_(search_token) {
    // Buffers follow the arena shrink policy (graph/dijkstra.hpp): a slab
    // or row left over from a much larger search is released.
    const std::size_t k = scratch.candidates.size();
    detail::release_excess(scratch.rows, k);
    if (scratch.rows.size() < k) scratch.rows.resize(k);
    scratch.row_state.assign(k, kUnbuilt);
  }

  const ScratchArena::CandidateRow& row(std::size_t i) const {
    std::atomic_ref<std::uint8_t> state(scratch_->row_state[i]);
    std::uint8_t seen = state.load(std::memory_order_acquire);
    if (seen != kBuilt) {
      if (seen == kUnbuilt &&
          state.compare_exchange_strong(seen, kBuilding,
                                        std::memory_order_acquire)) {
        build(i);
        state.store(kBuilt, std::memory_order_release);
        state.notify_all();
      } else {
        while ((seen = state.load(std::memory_order_acquire)) != kBuilt)
          state.wait(seen, std::memory_order_acquire);
      }
    }
    return scratch_->rows[i];
  }

 private:
  static constexpr std::uint8_t kUnbuilt = 0;
  static constexpr std::uint8_t kBuilding = 1;
  static constexpr std::uint8_t kBuilt = 2;

  /// One single-insert repair of candidate i from the base vector on the
  /// calling worker's IncrementalSssp (capped under repair_cap), kept as
  /// the list of nodes it lowered: repairs only ever decrease, so a node
  /// is in the list iff its repaired distance is below the base one.
  void build(std::size_t i) const {
    const std::vector<double>& base = scratch_->base_dist;
    const int v = scratch_->candidates[i];
    const double w = scratch_->weights[i];
    IncrementalSssp& sssp = worker_arena().incremental_sssp();
    sssp.reset(base, search_token_);
    // The source's distance is 0 and never changes, so the repair needs
    // only the environment edges: no path improves through the source.
    const auto environment_edges = [this](int x, auto&& visit) {
      env_->for_neighbors(x, visit);
    };
    // Cap 0 is the unbounded policy: the exact repair, never truncated.
    FrontierPolicy policy;
    policy.node_cap = repair_cap_;
    ScratchArena::CandidateRow& row = scratch_->rows[i];
    row.frontier =
        sssp.relax_insert(v, w, policy, environment_edges).frontier_min;
    detail::release_excess(row.lowered, base.size());
    row.lowered.clear();
    const std::vector<double>& dist = sssp.dist();
    for (std::size_t t = 0; t < dist.size(); ++t)
      if (dist[t] < base[t])
        row.lowered.emplace_back(static_cast<int>(t), dist[t]);
  }

  const AgentEnvironment* env_;
  ScratchArena::BrScratch* scratch_;
  std::size_t repair_cap_;
  std::uint64_t search_token_;
};

// --- branch-local DFS -----------------------------------------------------

/// One first-level branch of the subset DFS: all subsets whose smallest
/// chosen candidate index is `branch`.  Owns its incumbent (its outcome
/// slot), its subset and its depth vectors (the executing worker's arena);
/// reads the shared rows only, so branches run concurrently and the fold
/// over branch outcomes is independent of thread count.
template <class Model>
struct BranchSearch {
  const Game* game = nullptr;
  const RowTable* rows = nullptr;
  const std::vector<double>* weights = nullptr;
  const std::vector<int>* candidates = nullptr;
  const std::vector<double>* weight_row = nullptr;  ///< weight by node id
  const std::vector<double>* host_row = nullptr;
  double cheap_floor = 0.0;
  double base_bound = kInf;  ///< min(empty-set recorded cost, incumbent)
  double incumbent = kInf;   ///< original bound (improved = beat this)
  bool first_improvement = false;
  int branch = 0;
  const std::atomic<int>* winner = nullptr;  ///< lowest improving branch

  /// The executing worker's branch state (ScratchArena::br_branch): the
  /// subset, empty between branches, and the depth vectors.  Branches run
  /// to completion on one thread, so sequential branches on the same worker
  /// share it.
  NodeSet* current = nullptr;
  std::vector<std::vector<double>>* depth_dist = nullptr;
  /// Distance vector of the current DFS node's subset: the base vector at
  /// the root, a depth vector below it.
  std::span<const double> dist;
  double current_weight = 0.0;
  /// The branch's incumbent, written straight into its driver slot.
  ScratchArena::BranchOutcome* result = nullptr;
  bool done = false;

  /// Bounded-frontier mode (repair_cap > 0): every row is one capped repair,
  /// and `path_frontier` is the minimum frontier key over the *truncated*
  /// rows of the current subset (kInf when every one ran exact, always at
  /// cap 0).  For each row, true_v(t) >= min(d_v(t), F_v); the true
  /// distance of the subset is the minimum of the true_v, so
  /// true(t) >= min(dist(t), path_frontier).  Saved/restored around each
  /// descend step like the distance vector.
  double path_frontier = kInf;

  double bound() const { return std::min(result->cost, base_bound); }

  /// A branch whose index can no longer win the first-improvement fold (a
  /// lower branch already improved) stops; its result is discarded either
  /// way, so the fold outcome stays deterministic.
  bool aborted() const {
    return winner != nullptr &&
           winner->load(std::memory_order_relaxed) < branch;
  }

  void evaluate() {
    // Canonical evaluation: the edge-weight term is re-summed in increasing
    // target order (exactly AgentEnvironment::cost_of's order), so the
    // recorded cost is a function of the subset alone.  The DFS accumulator
    // `current_weight` is kept only for the pruning bound -- recording it
    // would carry path-dependent rounding noise (which subtrees were
    // explored before reaching this node), the pre-refactor search's
    // cost-vs-cost_of ulp mismatch.
    double edge_sum = 0.0;
    current->for_each(
        [&](int v) { edge_sum += (*weight_row)[static_cast<std::size_t>(v)]; });
    // With a truncated row in the subset the vector is only an upper bound,
    // so the recorded value is the admissible floor
    // sum_t max(host(t), min(dist(t), path_frontier)) -- a certified lower
    // bound on the subset's true cost.  Without one, the vector is the exact
    // fixpoint and the plain distance term keeps the cap-0 path bitwise
    // identical (max(host, dist) could differ from dist in the last ulp).
    const bool lower_bound_only = path_frontier < kInf;
    const double dist_term =
        lower_bound_only ? Model::tight_floor(*host_row, dist, path_frontier)
                         : Model::distance_term(dist);
    const double cost = game->alpha() * edge_sum + dist_term;
    ++result->evaluations;
    GNCG_COUNT(kBrEvaluations);
    if (improves(cost, bound())) {
      result->cost = cost;
      result->strategy = *current;
      result->improved = improves(cost, incumbent);
      result->truncated = lower_bound_only;
      if (first_improvement && result->improved) done = true;
    }
  }

  /// Two-level admissible cut for the subtree rooted at candidate i: the
  /// O(1) global floor first, then the O(n) per-node floor.  Both are
  /// nondecreasing in the candidate weight, so on the weight-sorted list a
  /// failure cuts every later sibling too (the caller breaks).
  bool pruned(std::size_t i) const {
    const double b = bound();
    const double edge_cost =
        game->alpha() * (current_weight + (*weights)[i]);
    if (!improves(edge_cost + cheap_floor, b)) {
      GNCG_COUNT(kBrPrunesGlobal);
      return true;
    }
    // Under truncated rows the vector is an upper bound, so the per-node
    // floor compensates with the path frontier: any true distance is >=
    // min(dist(t), path_frontier), and a new edge still costs at least
    // w_next.  Without one, min(w_next, kInf) is w_next itself.
    const double w_eff = std::min((*weights)[i], path_frontier);
    if (!improves(edge_cost + Model::tight_floor(*host_row, dist, w_eff), b)) {
      GNCG_COUNT(kBrPrunesPerNode);
      return true;
    }
    return false;
  }

  /// Adds candidate i to the subset at DFS depth `depth` (its vector goes
  /// to depth vector depth - 1): the pointwise min of the parent's vector
  /// and row i.  The parent is <= the base vector everywhere, so only the
  /// row's lowered nodes can change.
  void insert(std::size_t i, std::size_t depth) {
    GNCG_COUNT(kBrExpansions);
    current->insert((*candidates)[i]);
    current_weight += (*weights)[i];
    const ScratchArena::CandidateRow& row = rows->row(i);
    if (depth_dist->size() < depth) depth_dist->resize(depth);
    std::vector<double>& child = (*depth_dist)[depth - 1];
    child.assign(dist.begin(), dist.end());
    for (const auto& [t, d] : row.lowered) {
      double& slot = child[static_cast<std::size_t>(t)];
      slot = std::min(slot, d);
    }
    path_frontier = std::min(path_frontier, row.frontier);
    dist = child;
  }

  void remove(std::size_t i) {
    current->erase((*candidates)[i]);
    current_weight -= (*weights)[i];
  }

  void descend(std::size_t start, std::size_t depth) {
    for (std::size_t i = start; i < candidates->size() && !done; ++i) {
      if (aborted()) {
        GNCG_COUNT(kBrBranchAborts);
        done = true;
        break;
      }
      if (pruned(i)) break;
      const std::span<const double> parent = dist;
      const double pf_mark = path_frontier;
      insert(i, depth);
      evaluate();
      if (!done) descend(i + 1, depth + 1);
      remove(i);
      dist = parent;
      path_frontier = pf_mark;
    }
  }
};

/// The shared driver: empty-set evaluation, first-level fan-out over the
/// worker pool, deterministic in-order fold.
template <class Model>
BestResponseResult run_search(const AgentEnvironment& env,
                              const BestResponseOptions& options) {
  const Game& game = env.game();
  const int n = game.node_count();
  const int u = env.agent();
  GNCG_COUNT(kBrSearches);

  // Driver scratch comes from the calling worker's arena.  Branch tasks on
  // any worker (the caller participates in the fan-out) read these buffers
  // and write only two kinds of slot: a candidate row, once, under its
  // state byte (RowTable), and their own outcome.  Everything else a branch
  // writes lives in the executing worker's disjoint br_branch() and
  // incremental-SSSP members.
  ScratchArena::BrScratch& scratch = worker_arena().br();

  // Candidate targets sorted by edge weight so the branch-and-bound cut is
  // monotone: every node u may buy towards, or -- under restrict_targets --
  // only the oracle's shortlist (same sort key, so a full-coverage list
  // reproduces the unrestricted order bit-for-bit).
  std::vector<std::pair<double, int>>& order = scratch.order;
  order.clear();
  if (options.restrict_targets != nullptr) {
    for (int v : *options.restrict_targets)
      if (game.can_buy(u, v)) order.emplace_back(game.weight(u, v), v);
    std::sort(order.begin(), order.end());
    // A duplicated list entry would make the DFS insert one node twice;
    // collapse exact repeats (identical (weight, node) pairs).
    order.erase(std::unique(order.begin(), order.end()), order.end());
  } else {
    for (int v = 0; v < n; ++v)
      if (game.can_buy(u, v)) order.emplace_back(game.weight(u, v), v);
    std::sort(order.begin(), order.end());
  }
  std::vector<int>& candidates = scratch.candidates;
  std::vector<double>& weights = scratch.weights;
  candidates.clear();
  weights.clear();
  for (const auto& [w, v] : order) {
    candidates.push_back(v);
    weights.push_back(w);
  }

  // The one Dijkstra of the search: u's distances in the bare environment
  // (the empty-strategy network).  Every candidate row is repaired from
  // this.  Integer-weight hosts take the bucket-queue kernel
  // (bit-identical distances).  A caller that already holds this exact row
  // (the batched certifier sharing one warmed base across the ladder's
  // tiers) passes it via options.base_dist and the search skips the kernel.
  std::vector<double>& base_dist = scratch.base_dist;
  if (options.base_dist != nullptr) {
    GNCG_DASSERT(options.base_dist->size() == static_cast<std::size_t>(n));
    base_dist = *options.base_dist;
  } else {
    ScratchArena& arena = worker_arena();
    const int dial_bound = game.host().dial_weight_bound();
    const auto environment_edges = [&](int x, auto&& visit) {
      env.for_neighbors(x, visit);
    };
    if (dial_bound > 0) {
      arena.dial().run_into(base_dist, n, u, dial_bound, environment_edges);
    } else {
      arena.dijkstra().run_into(base_dist, n, u, environment_edges);
    }
  }

  // Host-closure row of u: the per-node admissible floor (stable per the
  // host-backend query contract; materialized once per search so the DFS
  // bound never re-queries implicit backends).  weight_row serves the
  // canonical edge-sum evaluation the same way.
  std::vector<double>& host_row = scratch.host_row;
  std::vector<double>& weight_row = scratch.weight_row;
  host_row.assign(static_cast<std::size_t>(n), 0.0);
  weight_row.assign(static_cast<std::size_t>(n), kInf);
  for (int v = 0; v < n; ++v)
    host_row[static_cast<std::size_t>(v)] = game.host_distance(u, v);
  for (std::size_t i = 0; i < candidates.size(); ++i)
    weight_row[static_cast<std::size_t>(candidates[i])] = weights[i];
  const double cheap_floor = Model::cheap_floor(game, u, host_row);

  BestResponseResult result;
  result.strategy = NodeSet(n);
  const double empty_cost =
      game.alpha() * 0.0 + Model::distance_term(base_dist);
  result.evaluations = 1;
  GNCG_COUNT(kBrEvaluations);
  bool done = false;
  if (improves(empty_cost, options.incumbent)) {
    result.cost = empty_cost;
    result.improved = true;
    if (options.first_improvement) done = true;
  }

  const std::size_t k = candidates.size();
  if (!done && k > 0) {
    const double base_bound = std::min(result.cost, options.incumbent);
    std::atomic<int> winner{INT_MAX};
    // Every row is built under this token, so the shrink policy of the
    // building workers' incremental SSSP runs once per search, not once per
    // row.
    const RowTable rows(env, scratch, options.repair_cap,
                        IncrementalSssp::new_search_token());
    std::vector<ScratchArena::BranchOutcome>& outcomes = scratch.outcomes;
    if (outcomes.size() < k) outcomes.resize(k);
    for (std::size_t i = 0; i < k; ++i) {
      outcomes[i].cost = kInf;
      outcomes[i].improved = false;
      outcomes[i].evaluations = 0;
      outcomes[i].truncated = false;
    }
    // One task per first-level branch; branch subtrees are whole jobs, so
    // short candidate lists still fan out (serial_cutoff 2).
    parallel_for(
        0, k,
        [&](std::size_t i) {
          if (options.first_improvement &&
              winner.load(std::memory_order_relaxed) <
                  static_cast<int>(i)) {
            GNCG_COUNT(kBrBranchAborts);
            return;
          }
          // Entry cut against the base state (before building the row).
          const double entry_edge = game.alpha() * (0.0 + weights[i]);
          if (!improves(entry_edge + cheap_floor, base_bound)) {
            GNCG_COUNT(kBrPrunesGlobal);
            return;
          }
          if (!improves(entry_edge +
                            Model::tight_floor(host_row, base_dist,
                                               weights[i]),
                        base_bound)) {
            GNCG_COUNT(kBrPrunesPerNode);
            return;
          }

          ScratchArena::BrBranchScratch& branch = worker_arena().br_branch();
          if (branch.current.universe() != n) branch.current = NodeSet(n);
          GNCG_DASSERT(branch.current.empty());  // branches remove all they add
          for (std::vector<double>& depth : branch.depth_dist)
            detail::release_excess(depth, static_cast<std::size_t>(n));
          BranchSearch<Model> search;
          search.game = &game;
          search.rows = &rows;
          search.candidates = &candidates;
          search.weights = &weights;
          search.weight_row = &weight_row;
          search.host_row = &host_row;
          search.cheap_floor = cheap_floor;
          search.base_bound = base_bound;
          search.incumbent = options.incumbent;
          search.first_improvement = options.first_improvement;
          search.branch = static_cast<int>(i);
          if (options.first_improvement) search.winner = &winner;
          search.current = &branch.current;
          search.depth_dist = &branch.depth_dist;
          search.dist = base_dist;
          search.result = &outcomes[i];

          search.insert(i, 1);
          search.evaluate();
          if (!search.done) search.descend(i + 1, 2);
          search.remove(i);

          if (outcomes[i].improved && options.first_improvement) {
            int expected = winner.load(std::memory_order_relaxed);
            while (static_cast<int>(i) < expected &&
                   !winner.compare_exchange_weak(
                       expected, static_cast<int>(i),
                       std::memory_order_relaxed)) {
            }
          }
        },
        /*grain=*/1, /*serial_cutoff=*/2);

    // Deterministic fold in branch order: strict improvement to replace
    // reproduces the sequential DFS's first-found-among-ties answer (the
    // smaller-lexicographic strategy in candidate order).  Strategies are
    // copied, not moved, so the outcome slots keep their storage.
    for (std::size_t i = 0; i < k; ++i) {
      const ScratchArena::BranchOutcome& outcome = outcomes[i];
      result.evaluations += outcome.evaluations;
      if (options.first_improvement) {
        if (!result.improved && outcome.improved) {
          result.cost = outcome.cost;
          result.strategy = outcome.strategy;
          result.improved = true;
          result.truncated = outcome.truncated;
        }
      } else if (improves(outcome.cost,
                          std::min(result.cost, options.incumbent))) {
        result.cost = outcome.cost;
        result.strategy = outcome.strategy;
        result.improved = improves(result.cost, options.incumbent);
        result.truncated = outcome.truncated;
      }
    }
  }

  // A full search (infinite incumbent) always reports the argmin, even when
  // every strategy costs kInf (hosts that cannot connect u at all).
  if (!(result.cost < kInf) && !(options.incumbent < kInf)) {
    result.cost = empty_cost;
  }
  return result;
}

}  // namespace

BestResponseResult br_search_sum(const AgentEnvironment& env,
                                 const BestResponseOptions& options) {
  return run_search<SumCostModel>(env, options);
}

BestResponseResult br_search_max(const AgentEnvironment& env,
                                 const BestResponseOptions& options) {
  return run_search<MaxCostModel>(env, options);
}

}  // namespace gncg
