#include "core/deviation_engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "core/transposition.hpp"
#include "graph/dijkstra.hpp"
#include "support/arena.hpp"
#include "support/instrument.hpp"
#include "support/parallel.hpp"

namespace gncg {

namespace {

/// SSSP from `source` into `dist` with the calling worker's arena, selecting
/// the bucket-queue kernel when the engine certified an integer bound.
template <class NeighborFn>
void arena_sssp(std::vector<double>& dist, int n, int source, int dial_bound,
                NeighborFn&& neighbor_fn) {
  ScratchArena& arena = worker_arena();
  if (dial_bound > 0) {
    arena.dial().run_into(dist, n, source, dial_bound,
                          std::forward<NeighborFn>(neighbor_fn));
  } else {
    arena.dijkstra().run_into(dist, n, source,
                              std::forward<NeighborFn>(neighbor_fn));
  }
}

/// Distance sum from `source` via the arena's sum-scratch vector (increasing
/// index order, same as summing a run_into result).
template <class NeighborFn>
double arena_sssp_sum(int n, int source, int dial_bound,
                      NeighborFn&& neighbor_fn) {
  std::vector<double>& dist = worker_arena().sum_dist();
  arena_sssp(dist, n, source, dial_bound,
             std::forward<NeighborFn>(neighbor_fn));
  double total = 0.0;
  for (double d : dist) total += d;
  return total;
}

/// Candidate targets evaluated per pass of the delta kernel over t.
constexpr int kLanes = 4;

/// Up to kLanes candidate targets x of one scanning agent, in increasing x:
/// each candidate's cached distance row and w(u, x).
struct LaneBlock {
  int x[kLanes] = {};
  const double* dx[kLanes] = {};
  double w[kLanes] = {};
  int size = 0;

  void push(int target, const double* row, double weight) {
    x[size] = target;
    dx[size] = row;
    w[size] = weight;
    ++size;
  }
  bool full() const { return size == kLanes; }
};

/// The lane-batched delta kernel: out[l] = sum over t of term(t, w[l],
/// dx[l][t]) for every lane of `block`.  Each lane keeps its own accumulator
/// and adds in increasing t, so its sum is bitwise the single-candidate
/// loop's; the lanes only give the CPU independent add chains (one serial
/// `total +=` chain is bound by add latency).  Unused lanes of a partial
/// block repeat lane 0 so every pass runs at full width.
template <class Term>
void lane_sums(std::size_t n, LaneBlock& block, double* out, Term&& term) {
  for (int l = block.size; l < kLanes; ++l) {
    block.dx[l] = block.dx[0];
    block.w[l] = block.w[0];
  }
  double acc[kLanes] = {};
  for (std::size_t t = 0; t < n; ++t)
    for (int l = 0; l < kLanes; ++l)
      acc[l] += term(t, block.w[l], block.dx[l][t]);
  for (int l = 0; l < kLanes; ++l) out[l] = acc[l];
}

/// Distance cost of u after buying the extra edge (u, x) per lane:
/// sum_t min(d(u, t), w(u, x) + d(x, t)).
void addition_costs(const std::vector<double>& du, LaneBlock& block,
                    double* out) {
  const double* d = du.data();
  lane_sums(du.size(), block, out, [d](std::size_t t, double w, double dxt) {
    return std::min(d[t], w + dxt);
  });
}

/// Distance cost of u after swapping bridge (u, v) for (u, x) per lane.
/// Deleting the bridge splits the network into the side reachable from u
/// (u_side) and the rest; distances within each side are untouched, and
/// after adding (u, x) every far-side node t is reached as u -> x ~> t.
void bridge_swap_costs(const std::vector<double>& du,
                       const std::vector<char>& u_side, LaneBlock& block,
                       double* out) {
  const double* d = du.data();
  const char* side = u_side.data();
  lane_sums(du.size(), block, out,
            [d, side](std::size_t t, double w, double dxt) {
              return side[t] != 0 ? d[t] : w + dxt;
            });
}

/// alpha-free total weight of (S_u \ {remove}) ∪ {add} from the scan's owned
/// (target, weight) list, summed in increasing-target order (exactly the
/// naive NodeSet::for_each order, so integer-weight hosts match the naive
/// path bit-for-bit).  Pass -1 to skip either part; `add` must not already
/// be in S_u.
double strategy_weight(const ScratchArena::ScanScratch& scan, int remove,
                       int add, double add_weight) {
  double total = 0.0;
  bool added = add < 0;
  for (std::size_t i = 0; i < scan.owned.size(); ++i) {
    const int v = scan.owned[i];
    if (v == remove) continue;
    if (!added && add < v) {
      total += add_weight;
      added = true;
    }
    total += scan.owned_w[i];
  }
  if (!added) total += add_weight;
  return total;
}

/// A scan's bound tallies, kept on the stack and flushed once on return.
struct ScanTally {
  std::uint64_t candidates = 0;
  std::uint64_t skips = 0;
  ~ScanTally() {
    GNCG_COUNT_N(kEngineScanCandidates, candidates);
    GNCG_COUNT_N(kEngineScanBoundSkips, skips);
  }
};

}  // namespace

DeviationEngine::DeviationEngine(const Game& game, StrategyProfile profile)
    : game_(&game), profile_(std::move(profile)) {
  GNCG_CHECK(profile_.node_count() == game.node_count(),
             "profile/game size mismatch");
  rebuild_adjacency();
  caches_.resize(static_cast<std::size_t>(game.node_count()));
  profile_hash_ = zobrist_profile_hash(profile_);
  dial_bound_ = game.host().dial_weight_bound();
}

void DeviationEngine::rebuild_adjacency() {
  // Two passes over the profile in the exact traversal order of
  // build_adjacency: a doubly-owned edge is emitted once, by the
  // smaller-index owner, so per-node entry order matches the vector-of-
  // vectors reference builder entry for entry.
  const int n = game_->node_count();
  adjacency_.begin_rebuild(n);
  for (int u = 0; u < n; ++u) {
    profile_.strategy(u).for_each([&](int v) {
      if (v < u && profile_.buys(v, u)) return;
      adjacency_.count_half(u);
      adjacency_.count_half(v);
    });
  }
  adjacency_.finish_counts();
  for (int u = 0; u < n; ++u) {
    profile_.strategy(u).for_each([&](int v) {
      if (v < u && profile_.buys(v, u)) return;
      const double w = game_->weight(u, v);
      adjacency_.fill_half(u, v, w);
      adjacency_.fill_half(v, u, w);
    });
  }
}

void DeviationEngine::link(int a, int b) {
  adjacency_.link(a, b, game_->weight(a, b));
}

void DeviationEngine::unlink(int a, int b) { adjacency_.unlink(a, b); }

void DeviationEngine::add_buy(int u, int v) {
  GNCG_CHECK(game_->can_buy(u, v), "engine add_buy of a forbidden edge");
  if (profile_.buys(u, v)) return;
  const bool existed = profile_.has_edge(u, v);
  profile_.add_buy(u, v);
  profile_hash_ ^= zobrist_buy_key(u, v);
  // Double-ownership adds do not change the built topology: the adjacency
  // entry already exists and every distance cache stays valid.
  if (!existed) {
    link(u, v);
    ++epoch_;
    GNCG_COUNT(kEngineEpochBumps);
  }
}

void DeviationEngine::remove_buy(int u, int v) {
  if (!profile_.buys(u, v)) return;
  profile_.remove_buy(u, v);
  profile_hash_ ^= zobrist_buy_key(u, v);
  if (!profile_.has_edge(u, v)) {
    unlink(u, v);
    ++epoch_;
    GNCG_COUNT(kEngineEpochBumps);
  }
}

void DeviationEngine::set_strategy(int u, NodeSet strategy) {
  GNCG_CHECK(strategy.universe() == game_->node_count(),
             "strategy universe mismatch");
  GNCG_CHECK(!strategy.contains(u), "strategy may not contain the agent");
  const NodeSet old = profile_.strategy(u);
  old.for_each([&](int v) {
    if (!strategy.contains(v)) remove_buy(u, v);
  });
  strategy.for_each([&](int v) {
    if (!old.contains(v)) add_buy(u, v);
  });
}

bool DeviationEngine::replace_strategy_edges(int u, const NodeSet& next) {
  GNCG_CHECK(next.universe() == game_->node_count(),
             "strategy universe mismatch");
  GNCG_CHECK(!next.contains(u), "strategy may not contain the agent");
  bool changed = false;
  const NodeSet old = profile_.strategy(u);
  old.for_each([&](int v) {
    if (next.contains(v)) return;
    profile_.remove_buy(u, v);
    profile_hash_ ^= zobrist_buy_key(u, v);
    if (!profile_.has_edge(u, v)) {
      unlink(u, v);
      changed = true;
    }
  });
  next.for_each([&](int v) {
    if (old.contains(v)) return;
    GNCG_CHECK(game_->can_buy(u, v), "engine add_buy of a forbidden edge");
    const bool existed = profile_.has_edge(u, v);
    profile_.add_buy(u, v);
    profile_hash_ ^= zobrist_buy_key(u, v);
    if (!existed) {
      link(u, v);
      changed = true;
    }
  });
  return changed;
}

void DeviationEngine::set_strategies(
    const std::vector<std::pair<int, NodeSet>>& moves) {
  for (std::size_t i = 0; i < moves.size(); ++i)
    for (std::size_t j = i + 1; j < moves.size(); ++j)
      GNCG_CHECK(moves[i].first != moves[j].first,
                 "set_strategies batch repeats agent " << moves[i].first);
  bool changed = false;
  for (const auto& [u, next] : moves)
    changed = replace_strategy_edges(u, next) || changed;
  if (changed) {
    ++epoch_;
    GNCG_COUNT(kEngineEpochBumps);
  }
}

void DeviationEngine::move_conflict_set(int u, const NodeSet& next,
                                        std::vector<int>& out) const {
  out.clear();
  out.push_back(u);
  profile_.strategy(u).for_each([&](int v) { out.push_back(v); });
  next.for_each([&](int v) { out.push_back(v); });
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

void DeviationEngine::apply_move(int u, const SingleMove& move) {
  switch (move.type) {
    case MoveType::kNone:
      return;
    case MoveType::kAdd:
      add_buy(u, move.add);
      return;
    case MoveType::kDelete:
      remove_buy(u, move.remove);
      return;
    case MoveType::kSwap:
      remove_buy(u, move.remove);
      add_buy(u, move.add);
      return;
  }
}

void DeviationEngine::set_profile(StrategyProfile profile) {
  GNCG_CHECK(profile.node_count() == game_->node_count(),
             "profile/game size mismatch");
  profile_ = std::move(profile);
  rebuild_adjacency();
  profile_hash_ = zobrist_profile_hash(profile_);
  ++epoch_;
  GNCG_COUNT(kEngineEpochBumps);
}

const DeviationEngine::AgentCache& DeviationEngine::ensure(int u) {
  AgentCache& cache = caches_[idx(u)];
  if (cache.epoch != epoch_) {
    GNCG_COUNT(kEngineCacheMisses);
    arena_sssp(cache.dist, game_->node_count(), u, dial_bound_,
               [&](int y, auto&& visit) {
                 for (const auto& nb : adjacency_.neighbors(y))
                   visit(nb.to, nb.weight);
               });
    double total = 0.0;
    for (double d : cache.dist) total += d;
    cache.dist_sum = total;
    cache.epoch = epoch_;
  } else {
    GNCG_COUNT(kEngineCacheHits);
  }
  return cache;
}

const DeviationEngine::AgentCache& DeviationEngine::warmed(int u) const {
  const AgentCache& cache = caches_[idx(u)];
  GNCG_CHECK(cache.epoch == epoch_,
             "distance cache of agent " << u
                                        << " is stale; call warm_distances()");
  return cache;
}

void DeviationEngine::warm_distances() {
  const int n = game_->node_count();
  parallel_for(0, static_cast<std::size_t>(n),
               [&](std::size_t u) { ensure(static_cast<int>(u)); });
}

const std::vector<double>& DeviationEngine::distances(int u) {
  return ensure(u).dist;
}

double DeviationEngine::distance_cost(int u) { return ensure(u).dist_sum; }

double DeviationEngine::distance_cost_warm(int u) const {
  return warmed(u).dist_sum;
}

double DeviationEngine::buying_cost(int u) const {
  double total = 0.0;
  profile_.strategy(u).for_each([&](int v) { total += game_->weight(u, v); });
  return game_->alpha() * total;
}

double DeviationEngine::agent_cost(int u) {
  return buying_cost(u) + distance_cost(u);
}

double DeviationEngine::agent_cost_warm(int u) const {
  return buying_cost(u) + distance_cost_warm(u);
}

bool DeviationEngine::mark_reachable_without(int u, int v,
                                             std::vector<char>& mark) const {
  const int n = game_->node_count();
  mark.assign(static_cast<std::size_t>(n), 0);
  std::vector<int>& stack = worker_arena().scan().dfs_stack;
  stack.clear();
  mark[idx(u)] = 1;
  stack.push_back(u);
  while (!stack.empty()) {
    const int y = stack.back();
    stack.pop_back();
    for (const auto& nb : adjacency_.neighbors(y)) {
      if ((y == u && nb.to == v) || (y == v && nb.to == u)) continue;
      if (!mark[idx(nb.to)]) {
        mark[idx(nb.to)] = 1;
        stack.push_back(nb.to);
      }
    }
  }
  return mark[idx(v)] != 0;
}

double DeviationEngine::masked_distance_cost(int u, int remove, int add,
                                             double add_weight) const {
  return arena_sssp_sum(
      game_->node_count(), u, dial_bound_, [&](int y, auto&& visit) {
        for (const auto& nb : adjacency_.neighbors(y)) {
          if ((y == u && nb.to == remove) || (y == remove && nb.to == u))
            continue;
          visit(nb.to, nb.weight);
        }
        if (add >= 0) {
          if (y == u) visit(add, add_weight);
          else if (y == add) visit(u, add_weight);
        }
      });
}

double DeviationEngine::cost_of_strategy(int u, const NodeSet& targets) const {
  double edge_weight = 0.0;
  targets.for_each([&](int v) { edge_weight += game_->weight(u, v); });
  const double dist = arena_sssp_sum(
      game_->node_count(), u, dial_bound_, [&](int y, auto&& visit) {
        for (const auto& nb : adjacency_.neighbors(y)) {
          // Mask u's sole-owned edges: the environment is everyone else's.
          if (y == u && solely_owned(u, nb.to)) continue;
          if (nb.to == u && solely_owned(u, y)) continue;
          visit(nb.to, nb.weight);
        }
        if (y == u) {
          targets.for_each([&](int v) { visit(v, game_->weight(u, v)); });
        } else if (targets.contains(y)) {
          visit(u, game_->weight(u, y));
        }
      });
  return game_->alpha() * edge_weight + dist;
}

SingleMoveResult DeviationEngine::scan_moves(int u, const ScanFlags& flags,
                                             bool early_exit) const {
  const int n = game_->node_count();
  const double alpha = game_->alpha();
  const AgentCache& cu = warmed(u);
  const double su = cu.dist_sum;
  // Per-scan tables live in the calling worker's arena, so parallel warm
  // scans never collide and steady-state scans allocate nothing.
  ScratchArena::ScanScratch& scan = worker_arena().scan();
  GNCG_IF_INSTRUMENT(ScanTally tally;)

  // u's owned (target, weight) list, built once: every candidate's edge
  // cost sums it instead of re-querying the host per owned edge.
  scan.owned.clear();
  scan.owned_w.clear();
  profile_.strategy(u).for_each([&](int v) {
    scan.owned.push_back(v);
    scan.owned_w.push_back(game_->weight(u, v));
  });

  SingleMoveResult result;
  result.current_cost = alpha * strategy_weight(scan, -1, -1, 0.0) + su;
  result.cost = result.current_cost;

  const auto consider = [&](MoveType type, int remove, int add, double cost) {
    if (improves(cost, result.cost)) {
      result.cost = cost;
      result.move = {type, remove, add};
      result.improved = true;
    }
  };

  // w(u, x), queried once per x on first need: x_weight[y] is valid for
  // every y < weighed.
  scan.x_weight.resize(static_cast<std::size_t>(n));
  int weighed = 0;
  const auto buyable = [&](int x) {
    for (; weighed <= x; ++weighed)
      scan.x_weight[idx(weighed)] = game_->weight(u, weighed);
    return x != u && scan.x_weight[idx(x)] < kInf;
  };
  const auto edge_cost = [&](int remove, int x) {
    return alpha * strategy_weight(scan, remove, x, scan.x_weight[idx(x)]);
  };

  // Cost bound.  Buying (u, x) shortens u's distance to any t by at most
  // g = max(0, d_u(x) - w(u, x)), since d_u(t) <= d_u(x) + d_x(t).  So a
  // candidate's distance cost is at least S_u - k g, k counting the nodes
  // whose distance may shrink: n for an addition and for a swap that deletes
  // a non-bridge (deleting only lengthens paths), the F far-side nodes for a
  // bridge swap (near-side terms stay d_u(t)).  A candidate whose edge cost
  // plus that bound fails improves() is skipped before its O(n) pass:
  // consider() would reject it, and still would against any later, lower
  // incumbent.
  //
  // The margin keeps every skip exact in floating point.  Let eps = 2^-53,
  // gamma = n eps / (1 - n eps), E the candidate's edge cost:
  //  * the cached rows are Dijkstra fixpoints, d_u(z) <= fl(d_u(y) + w) on
  //    every built edge (y, z), so adding x's shortest path to t (< n edges)
  //    onto d_u(x) left to right gives d_u(t) <= (1 + gamma) d_u(x) +
  //    (1 + 2.01 gamma) d_x(t);
  //  * hence each lane term, min(d_u(t), fl(w + d_x(t))) or d_u(t) or
  //    fl(w + d_x(t)), is at least d_u(t) - g - gamma d_u(x) -
  //    (2.01 gamma + 2 eps) d_u(t) (a term with w + d_x(t) >= 2 d_u(t) is at
  //    least d_u(t) outright);
  //  * S_u and the lane sum are n-term sums of nonnegatives, off by at most
  //    gamma S and 2 gamma S (a lane sum above 2 S beats the bound outright),
  //    S the exact sum of the row; forming fl(E + fl(S_u - fl(k g))) adds at
  //    most eps (|E| + 2 S_u + 4.03 k d_u(x)).
  // In total the bound exceeds the computed cost E + C by less than
  // eps (|E| + 7.2 n S_u + 3.1 n^2 d_u(x)) for n >= 2.  The margin
  // 16 n eps (|E| + S_u + n d_u(x)) is over twice that, which also covers
  // its own rounding, so fl(fl(E + bound) - margin) <= fl(E + C) by monotone
  // rounding.  It is about 1e-13 relative at n = 256, far below
  // kImproveEps.  The rows must be finite: on a disconnected network
  // (S_u = inf) the bound is off.
  const bool bounded = su < kInf;
  const double margin_scale = 16.0 * n * 0x1p-53;
  const auto cannot_improve = [&](double edge, int x, int reach) {
    GNCG_IF_INSTRUMENT(++tally.candidates;)
    if (!bounded) return false;
    const double dux = cu.dist[idx(x)];
    const double gain = std::max(0.0, dux - scan.x_weight[idx(x)]);
    const double margin = margin_scale * (std::abs(edge) + su + n * dux);
    const bool skip =
        !improves(edge + (su - reach * gain) - margin, result.cost);
    GNCG_IF_INSTRUMENT(tally.skips += skip;)
    return skip;
  };

  // Survivors of the bound queue up in increasing x.  Those whose distance
  // cost is still unknown (NaN) also take a lane of `block`; settle() fills
  // the lanes in one kernel pass, then decides the queue in order, so
  // consider() still sees candidates in increasing x.  The addition cost of
  // x (no built edge (u, x)) is cached per scan: the add branch, doubly-owned
  // swaps and the non-bridge swap pre-check all read it.
  constexpr double kUnknown = std::numeric_limits<double>::quiet_NaN();
  scan.add_cost.assign(static_cast<std::size_t>(n), kUnknown);
  std::vector<ScratchArena::ScanCandidate>& queue = scan.queue;
  queue.clear();
  LaneBlock block;
  std::size_t lane_slot[kLanes] = {};
  // Queues x; true when its lane filled the block.
  const auto enqueue = [&](int x, double edge, double dist) {
    if (std::isnan(dist)) {
      lane_slot[block.size] = queue.size();
      block.push(x, warmed(x).dist.data(), scan.x_weight[idx(x)]);
    }
    queue.push_back({x, edge, dist});
    return block.full();
  };
  // Drains the queue; true when `decide` stopped the scan (early exit).
  const auto settle = [&](auto&& lane_kernel, auto&& decide) {
    if (block.size > 0) {
      double out[kLanes];
      lane_kernel(block, out);
      for (int l = 0; l < block.size; ++l)
        queue[lane_slot[l]].dist_cost = out[l];
      block.size = 0;
    }
    for (const ScratchArena::ScanCandidate& c : queue)
      if (decide(c)) return true;
    queue.clear();
    return false;
  };
  const auto additions = [&](LaneBlock& lanes, double* out) {
    addition_costs(cu.dist, lanes, out);
    for (int l = 0; l < lanes.size; ++l)
      scan.add_cost[idx(lanes.x[l])] = out[l];
  };

  if (flags.adds) {
    const auto decide = [&](const ScratchArena::ScanCandidate& c) {
      consider(MoveType::kAdd, -1, c.x, c.edge_cost + c.dist_cost);
      return early_exit && result.improved;
    };
    for (int x = 0; x < n; ++x) {
      if (!buyable(x) || profile_.has_edge(u, x)) continue;
      const double edge = edge_cost(-1, x);
      if (cannot_improve(edge, x, n)) continue;
      if (enqueue(x, edge, kUnknown) && settle(additions, decide))
        return result;
    }
    if (settle(additions, decide)) return result;
  }

  if (flags.deletes || flags.swaps) {
    std::vector<char>& u_side = scan.side_mark;
    for (const int v : scan.owned) {
      // If v buys the edge too, dropping u's payment keeps the topology.
      const bool doubly = profile_.buys(v, u);
      const bool bridge = !doubly && !mark_reachable_without(u, v, u_side);

      if (flags.deletes) {
        const double drop_cost = alpha * strategy_weight(scan, v, -1, 0.0);
        if (doubly) {
          consider(MoveType::kDelete, v, -1, drop_cost + su);
        } else if (!bridge) {
          // Removing an edge cannot shrink any distance, so the current
          // distance sum is an admissible bound: run Dijkstra only when the
          // alpha saving alone could beat the incumbent.
          if (improves(drop_cost + su, result.cost)) {
            consider(MoveType::kDelete, v, -1,
                     drop_cost + masked_distance_cost(u, v, -1, 0.0));
          }
        }
        // Deleting a bridge disconnects u: cost kInf, never improving.
        if (early_exit && result.improved) return result;
      }
      if (!flags.swaps) continue;

      // Swapping to an already-present edge is dominated by the plain
      // deletion, so such x are skipped when deletions are in the move set;
      // swap-only scans must consider them (see scan semantics in
      // best_response.cpp).
      const auto swap_target = [&](int x) {
        if (x == v || !buyable(x)) return false;
        return flags.deletes ? !profile_.has_edge(u, x)
                             : !profile_.strategy(u).contains(x);
      };
      if (bridge) {
        // Only far-side x reconnect u (u-side x leave it cut off: kInf).
        const int far = n - static_cast<int>(std::count(
                                u_side.begin(), u_side.end(), char{1}));
        const auto bridge_swaps = [&](LaneBlock& lanes, double* out) {
          bridge_swap_costs(cu.dist, u_side, lanes, out);
        };
        const auto decide = [&](const ScratchArena::ScanCandidate& c) {
          consider(MoveType::kSwap, v, c.x, c.edge_cost + c.dist_cost);
          return early_exit && result.improved;
        };
        for (int x = 0; x < n; ++x) {
          if (!swap_target(x) || u_side[idx(x)] != 0) continue;
          const double edge = edge_cost(v, x);
          if (cannot_improve(edge, x, far)) continue;
          if (enqueue(x, edge, kUnknown) && settle(bridge_swaps, decide))
            return result;
        }
        if (settle(bridge_swaps, decide)) return result;
        continue;
      }
      const auto decide = [&](const ScratchArena::ScanCandidate& c) {
        double cost = c.edge_cost + c.dist_cost;
        if (!doubly) {
          // Distances in G - (u,v) + (u,x) are bounded below by distances
          // in G + (u,x) (deleting only hurts), which the cached vectors
          // evaluate in O(n); Dijkstra runs only past that bound.
          if (!improves(cost, result.cost)) return false;
          cost = c.edge_cost +
                 masked_distance_cost(u, v, c.x, scan.x_weight[idx(c.x)]);
        }
        // A doubly-owned (u, v) stays built: the swap is a pure addition.
        consider(MoveType::kSwap, v, c.x, cost);
        return early_exit && result.improved;
      };
      for (int x = 0; x < n; ++x) {
        if (!swap_target(x)) continue;
        const double edge = edge_cost(v, x);
        if (cannot_improve(edge, x, n)) continue;
        const double added_dist =
            profile_.has_edge(u, x) ? su : scan.add_cost[idx(x)];
        if (enqueue(x, edge, added_dist) && settle(additions, decide))
          return result;
      }
      if (settle(additions, decide)) return result;
    }
  }
  return result;
}

SingleMoveResult DeviationEngine::best_single_move(int u) {
  warm_distances();
  return scan_moves(u, {true, true, true}, false);
}

SingleMoveResult DeviationEngine::best_addition(int u) {
  warm_distances();
  return scan_moves(u, {true, false, false}, false);
}

SingleMoveResult DeviationEngine::best_swap(int u) {
  warm_distances();
  return scan_moves(u, {false, false, true}, false);
}

bool DeviationEngine::has_improving_single_move(int u) {
  warm_distances();
  return scan_moves(u, {true, true, true}, true).improved;
}

bool DeviationEngine::has_improving_addition(int u) {
  warm_distances();
  return scan_moves(u, {true, false, false}, true).improved;
}

bool DeviationEngine::has_improving_swap(int u) {
  warm_distances();
  return scan_moves(u, {false, false, true}, true).improved;
}

SingleMoveResult DeviationEngine::best_single_move_warm(int u) const {
  return scan_moves(u, {true, true, true}, false);
}

SingleMoveResult DeviationEngine::best_addition_warm(int u) const {
  return scan_moves(u, {true, false, false}, false);
}

SingleMoveResult DeviationEngine::best_swap_warm(int u) const {
  return scan_moves(u, {false, false, true}, false);
}

}  // namespace gncg
