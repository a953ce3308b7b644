// Differential fuzz tests for the incremental deviation engine.
//
// Contract proven here (the precondition for ever deleting naive paths):
//  * On hosts whose weights sum exactly in doubles (unit, {1,2}, {1,inf},
//    small-integer weights) the engine's costs and chosen moves match the
//    naive AgentEnvironment/Dijkstra-per-candidate scans BIT-FOR-BIT.
//  * On real-weighted hosts the delta formulas re-associate floating-point
//    sums, so costs agree to a 1e-12 relative tolerance (far below the
//    kImproveEps = 1e-9 decision threshold) and decisions coincide.
//
// The fuzz axes: random games (four host families) x random profiles (trees
// and trees-plus-chords, random ownership, double ownership) x random move
// sequences (add_buy / remove_buy / set_strategy / apply_move).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/best_response.hpp"
#include "core/cost.hpp"
#include "core/deviation_engine.hpp"
#include "core/dynamics.hpp"
#include "core/equilibrium.hpp"
#include "graph/dijkstra.hpp"
#include "metric/host_graph.hpp"
#include "metric/points.hpp"
#include "metric/tree.hpp"
#include "support/instrument.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"

namespace gncg {
namespace {

/// Random complete host with integer weights in [1, 9]: generally
/// non-metric, and every distance/cost sums exactly in doubles.
HostGraph random_integer_host(int n, Rng& rng) {
  DistanceMatrix weights(n, 0.0);
  for (int u = 0; u < n; ++u)
    for (int v = u + 1; v < n; ++v)
      weights.set_symmetric(u, v,
                            static_cast<double>(rng.uniform_int(1, 9)));
  return HostGraph::from_weights(std::move(weights));
}

/// Expects exact equality, treating two infinities as equal.
void expect_cost_eq(double engine_cost, double naive_cost) {
  if (!(naive_cost < kInf)) {
    EXPECT_FALSE(engine_cost < kInf);
  } else {
    EXPECT_DOUBLE_EQ(engine_cost, naive_cost);
  }
}

void expect_cost_near(double engine_cost, double naive_cost) {
  if (!(naive_cost < kInf)) {
    EXPECT_FALSE(engine_cost < kInf);
  } else {
    const double scale = std::max(1.0, std::abs(naive_cost));
    EXPECT_NEAR(engine_cost, naive_cost, 1e-12 * scale);
  }
}

void expect_move_eq(const SingleMoveResult& from_engine,
                    const SingleMoveResult& from_naive, bool exact) {
  EXPECT_EQ(from_engine.improved, from_naive.improved);
  EXPECT_EQ(from_engine.move.type, from_naive.move.type);
  EXPECT_EQ(from_engine.move.remove, from_naive.move.remove);
  EXPECT_EQ(from_engine.move.add, from_naive.move.add);
  if (exact) {
    expect_cost_eq(from_engine.cost, from_naive.cost);
    expect_cost_eq(from_engine.current_cost, from_naive.current_cost);
  } else {
    expect_cost_near(from_engine.cost, from_naive.cost);
    expect_cost_near(from_engine.current_cost, from_naive.current_cost);
  }
}

/// Compares every scan family and the cached costs of every agent between
/// the engine and the naive evaluators on one fixed profile.
void compare_all_agents(const Game& game, const StrategyProfile& s,
                        bool exact) {
  DeviationEngine engine(game, s);
  ASSERT_TRUE(engine.profile() == s);
  for (int u = 0; u < game.node_count(); ++u) {
    SCOPED_TRACE(::testing::Message() << "agent " << u);
    const double naive_cost = agent_cost(game, s, u);
    if (exact) expect_cost_eq(engine.agent_cost(u), naive_cost);
    else expect_cost_near(engine.agent_cost(u), naive_cost);

    expect_move_eq(engine.best_single_move(u), naive_best_single_move(game, s, u),
                   exact);
    expect_move_eq(engine.best_addition(u), naive_best_addition(game, s, u),
                   exact);
    expect_move_eq(engine.best_swap(u), naive_best_swap(game, s, u), exact);

    EXPECT_EQ(engine.has_improving_single_move(u),
              naive_best_single_move(game, s, u).improved);
  }
}

Game random_game(int family, int n, Rng& rng) {
  const double alpha = rng.uniform_real(0.2, 4.0);
  switch (family) {
    case 0:
      return Game(random_one_two_host(n, 0.5, rng), alpha);
    case 1:
      return Game(random_one_inf_host(n, 0.6, rng), alpha);
    case 2:
      return Game(random_integer_host(n, rng), alpha);
    default:
      return Game(random_metric_host(n, rng), alpha);
  }
}

TEST(DeviationEngineDifferential, SingleMoveScansMatchNaiveOnIntegerHosts) {
  Rng rng(101);
  for (int round = 0; round < 12; ++round) {
    const int family = round % 3;  // integer-exact families only
    const int n = 4 + static_cast<int>(rng.uniform_below(5));
    const Game game = random_game(family, n, rng);
    // Trees exercise the bridge-delta path; chords the Dijkstra fallback.
    const double extra = round % 2 == 0 ? 0.0 : 0.3;
    const StrategyProfile profile = random_profile(game, rng, extra);
    SCOPED_TRACE(::testing::Message()
                 << "round " << round << " family " << family << " n " << n);
    compare_all_agents(game, profile, /*exact=*/true);
  }
}

TEST(DeviationEngineDifferential, SingleMoveScansAgreeOnRealHosts) {
  Rng rng(202);
  for (int round = 0; round < 8; ++round) {
    const int n = 4 + static_cast<int>(rng.uniform_below(5));
    const Game game = random_game(3, n, rng);
    const StrategyProfile profile =
        random_profile(game, rng, round % 2 == 0 ? 0.0 : 0.25);
    SCOPED_TRACE(::testing::Message() << "round " << round << " n " << n);
    compare_all_agents(game, profile, /*exact=*/false);
  }
}

TEST(DeviationEngineDifferential, DoubleOwnershipStatesMatchNaive) {
  Rng rng(303);
  for (int round = 0; round < 6; ++round) {
    const int n = 4 + static_cast<int>(rng.uniform_below(4));
    const Game game = random_game(round % 3, n, rng);
    StrategyProfile profile = random_profile(game, rng, 0.2);
    // Force some doubly-owned edges: dynamics must pass through such states.
    for (int u = 0; u < n; ++u)
      for (int v = 0; v < n; ++v)
        if (u != v && profile.buys(u, v) && rng.bernoulli(0.4))
          profile.add_buy(v, u);
    SCOPED_TRACE(::testing::Message() << "round " << round << " n " << n);
    compare_all_agents(game, profile, /*exact=*/true);
  }
}

TEST(DeviationEngineDifferential, RandomMoveSequencesKeepStateInSync) {
  Rng rng(404);
  for (int round = 0; round < 6; ++round) {
    const int family = round % 3;
    const int n = 4 + static_cast<int>(rng.uniform_below(4));
    const Game game = random_game(family, n, rng);
    StrategyProfile shadow = random_profile(game, rng, 0.2);
    DeviationEngine engine(game, shadow);

    for (int step = 0; step < 40; ++step) {
      const int op = static_cast<int>(rng.uniform_below(4));
      const int u = static_cast<int>(rng.uniform_below(n));
      const int v = static_cast<int>(rng.uniform_below(n));
      switch (op) {
        case 0:
          if (game.can_buy(u, v)) {
            engine.add_buy(u, v);
            shadow.add_buy(u, v);
          }
          break;
        case 1:
          if (u != v) {
            engine.remove_buy(u, v);
            shadow.remove_buy(u, v);
          }
          break;
        case 2: {
          NodeSet strategy(n);
          for (int t = 0; t < n; ++t)
            if (game.can_buy(u, t) && rng.bernoulli(0.3)) strategy.insert(t);
          engine.set_strategy(u, strategy);
          shadow.set_strategy(u, strategy);
          break;
        }
        default: {
          const auto move = naive_best_single_move(game, shadow, u);
          engine.apply_move(u, move.move);
          apply_move(shadow, u, move.move);
          break;
        }
      }
      ASSERT_TRUE(engine.profile() == shadow) << "round " << round
                                              << " step " << step;
      const int probe = static_cast<int>(rng.uniform_below(n));
      expect_cost_eq(engine.agent_cost(probe), agent_cost(game, shadow, probe));
    }
    // Full scan comparison on the final mutated state.
    compare_all_agents(game, shadow, /*exact=*/true);
  }
}

TEST(DeviationEngineDifferential, CostOfStrategyMatchesAgentEnvironment) {
  Rng rng(505);
  for (int round = 0; round < 6; ++round) {
    const int n = 4 + static_cast<int>(rng.uniform_below(4));
    const Game game = random_game(round % 3, n, rng);
    const StrategyProfile profile = random_profile(game, rng, 0.25);
    const DeviationEngine engine(game, profile);
    for (int u = 0; u < n; ++u) {
      const AgentEnvironment env(game, profile, u);
      const AgentEnvironment env_from_engine(engine, u);
      for (int trial = 0; trial < 5; ++trial) {
        NodeSet targets(n);
        for (int t = 0; t < n; ++t)
          if (game.can_buy(u, t) && rng.bernoulli(0.35)) targets.insert(t);
        const double reference = env.cost_of(targets);
        expect_cost_eq(engine.cost_of_strategy(u, targets), reference);
        expect_cost_eq(env_from_engine.cost_of(targets), reference);
      }
    }
  }
}

TEST(DeviationEngineDifferential, EquilibriumPredicatesMatchNaiveScans) {
  Rng rng(606);
  for (int round = 0; round < 6; ++round) {
    const int n = 4 + static_cast<int>(rng.uniform_below(3));
    const Game game = random_game(round % 3, n, rng);
    const StrategyProfile profile = random_profile(game, rng, 0.3);

    bool naive_ge = true, naive_ae = true, naive_se = true;
    for (int u = 0; u < n; ++u) {
      naive_ge = naive_ge && !naive_best_single_move(game, profile, u).improved;
      naive_ae = naive_ae && !naive_best_addition(game, profile, u).improved;
      naive_se = naive_se && !naive_best_swap(game, profile, u).improved;
    }
    EXPECT_EQ(is_greedy_equilibrium(game, profile), naive_ge);
    EXPECT_EQ(is_add_only_equilibrium(game, profile), naive_ae);
    EXPECT_EQ(is_swap_equilibrium(game, profile), naive_se);
  }
}

// --- lane-batched scans vs the frozen scalar scan ---------------------------
//
// The engine evaluates candidate deltas kLanes targets per pass over the
// distance rows.  The contract is that batching changes nothing: below is a
// frozen copy of the scalar one-candidate-at-a-time scan it replaced, built
// on the engine's public warm state only, and every scan family must match
// it on the bits of each cost and on the chosen move.

struct ScanFamily {
  bool adds, deletes, swaps;
};

/// alpha-free weight of (S_u \ {remove}) ∪ {add} in increasing target order.
double reference_strategy_weight(const Game& game, const StrategyProfile& s,
                                 int u, int remove, int add) {
  double total = 0.0;
  bool added = add < 0;
  const double add_weight = add >= 0 ? game.weight(u, add) : 0.0;
  s.strategy(u).for_each([&](int v) {
    if (v == remove) return;
    if (!added && add < v) {
      total += add_weight;
      added = true;
    }
    total += game.weight(u, v);
  });
  if (!added) total += add_weight;
  return total;
}

/// Distance sum of u with edge (u, remove) masked and (u, add) added.
double reference_masked_cost(const DeviationEngine& engine, int u, int remove,
                             int add) {
  const Game& game = engine.game();
  const double add_weight = add >= 0 ? game.weight(u, add) : 0.0;
  std::vector<double> dist;
  dijkstra_over(
      game.node_count(), u,
      [&](int y, auto&& visit) {
        for (const auto& nb : engine.adjacency().neighbors(y)) {
          if ((y == u && nb.to == remove) || (y == remove && nb.to == u))
            continue;
          visit(nb.to, nb.weight);
        }
        if (add >= 0) {
          if (y == u) visit(add, add_weight);
          else if (y == add) visit(u, add_weight);
        }
      },
      dist);
  double total = 0.0;
  for (double d : dist) total += d;
  return total;
}

/// Marks the nodes reachable from u without edge (u, v); true if v is.
bool reference_reachable_without(const DeviationEngine& engine, int u, int v,
                                 std::vector<char>& mark) {
  mark.assign(static_cast<std::size_t>(engine.game().node_count()), 0);
  std::vector<int> stack{u};
  mark[static_cast<std::size_t>(u)] = 1;
  while (!stack.empty()) {
    const int y = stack.back();
    stack.pop_back();
    for (const auto& nb : engine.adjacency().neighbors(y)) {
      if ((y == u && nb.to == v) || (y == v && nb.to == u)) continue;
      if (!mark[static_cast<std::size_t>(nb.to)]) {
        mark[static_cast<std::size_t>(nb.to)] = 1;
        stack.push_back(nb.to);
      }
    }
  }
  return mark[static_cast<std::size_t>(v)] != 0;
}

/// The scalar scan, frozen: one candidate per O(n) loop, each loop a single
/// increasing-t `total +=` chain.  Requires warm engine caches.
SingleMoveResult reference_scan(const DeviationEngine& engine, int u,
                                const ScanFamily& flags, bool early_exit) {
  const Game& game = engine.game();
  const StrategyProfile& profile = engine.profile();
  const int n = game.node_count();
  const double alpha = game.alpha();
  const std::vector<double>& du = engine.distances_warm(u);
  const double dist_sum = engine.distance_cost_warm(u);

  SingleMoveResult result;
  result.current_cost =
      alpha * reference_strategy_weight(game, profile, u, -1, -1) + dist_sum;
  result.cost = result.current_cost;
  const auto consider = [&](MoveType type, int remove, int add, double cost) {
    if (improves(cost, result.cost)) {
      result.cost = cost;
      result.move = {type, remove, add};
      result.improved = true;
    }
  };
  const auto addition_cost = [&](int x) {
    const std::vector<double>& dx = engine.distances_warm(x);
    const double w = game.weight(u, x);
    double total = 0.0;
    for (std::size_t t = 0; t < du.size(); ++t)
      total += std::min(du[t], w + dx[t]);
    return total;
  };

  if (flags.adds) {
    for (int x = 0; x < n; ++x) {
      if (x == u || !game.can_buy(u, x) || profile.has_edge(u, x)) continue;
      consider(MoveType::kAdd, -1, x,
               alpha * reference_strategy_weight(game, profile, u, -1, x) +
                   addition_cost(x));
      if (early_exit && result.improved) return result;
    }
  }
  if (!flags.deletes && !flags.swaps) return result;

  const std::vector<int> owned = profile.strategy(u).to_vector();
  std::vector<char> u_side;
  for (int v : owned) {
    const bool doubly = profile.buys(v, u);
    const bool bridge =
        !doubly && !reference_reachable_without(engine, u, v, u_side);
    if (flags.deletes) {
      const double edge_cost =
          alpha * reference_strategy_weight(game, profile, u, v, -1);
      if (doubly) {
        consider(MoveType::kDelete, v, -1, edge_cost + dist_sum);
      } else if (!bridge && improves(edge_cost + dist_sum, result.cost)) {
        consider(MoveType::kDelete, v, -1,
                 edge_cost + reference_masked_cost(engine, u, v, -1));
      }
      if (early_exit && result.improved) return result;
    }
    if (!flags.swaps) continue;
    for (int x = 0; x < n; ++x) {
      if (x == u || x == v || !game.can_buy(u, x)) continue;
      if (flags.deletes && profile.has_edge(u, x)) continue;
      if (!flags.deletes && profile.strategy(u).contains(x)) continue;
      const bool duplicate = profile.has_edge(u, x);
      const double edge_cost =
          alpha * reference_strategy_weight(game, profile, u, v, x);
      double cost;
      if (doubly) {
        cost = edge_cost + (duplicate ? dist_sum : addition_cost(x));
      } else if (bridge) {
        if (u_side[static_cast<std::size_t>(x)] != 0) continue;
        const std::vector<double>& dx = engine.distances_warm(x);
        const double w = game.weight(u, x);
        double total = 0.0;
        for (std::size_t t = 0; t < du.size(); ++t)
          total += u_side[t] != 0 ? du[t] : w + dx[t];
        cost = edge_cost + total;
      } else {
        const double bound = duplicate ? dist_sum : addition_cost(x);
        if (!improves(edge_cost + bound, result.cost)) continue;
        cost = edge_cost + reference_masked_cost(engine, u, v, x);
      }
      consider(MoveType::kSwap, v, x, cost);
      if (early_exit && result.improved) return result;
    }
  }
  return result;
}

/// Same bits on both costs and the same move.
void expect_bitwise(const SingleMoveResult& got, const SingleMoveResult& ref) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.cost),
            std::bit_cast<std::uint64_t>(ref.cost));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.current_cost),
            std::bit_cast<std::uint64_t>(ref.current_cost));
  EXPECT_EQ(got.improved, ref.improved);
  EXPECT_EQ(got.move.type, ref.move.type);
  EXPECT_EQ(got.move.remove, ref.move.remove);
  EXPECT_EQ(got.move.add, ref.move.add);
}

/// Every warm scan family and existence predicate of every agent vs the
/// frozen scalar scan.  Returns how many agents had an improving move.
int compare_with_reference(const Game& game, const StrategyProfile& profile) {
  DeviationEngine engine(game, profile);
  engine.warm_distances();
  constexpr ScanFamily kSingle{true, true, true};
  constexpr ScanFamily kAdd{true, false, false};
  constexpr ScanFamily kSwap{false, false, true};
  int improving = 0;
  for (int u = 0; u < game.node_count(); ++u) {
    SCOPED_TRACE(::testing::Message() << "agent " << u);
    const SingleMoveResult single = engine.best_single_move_warm(u);
    expect_bitwise(single, reference_scan(engine, u, kSingle, false));
    expect_bitwise(engine.best_addition_warm(u),
                   reference_scan(engine, u, kAdd, false));
    expect_bitwise(engine.best_swap_warm(u),
                   reference_scan(engine, u, kSwap, false));
    EXPECT_EQ(engine.has_improving_single_move(u),
              reference_scan(engine, u, kSingle, true).improved);
    EXPECT_EQ(engine.has_improving_addition(u),
              reference_scan(engine, u, kAdd, true).improved);
    EXPECT_EQ(engine.has_improving_swap(u),
              reference_scan(engine, u, kSwap, true).improved);
    if (single.improved) ++improving;
  }
  return improving;
}

TEST(DeviationEngineLanes, ScansMatchFrozenScalarScanBitwise) {
  // Sizes around the lane width: 5 and 17 leave partial blocks, 63 and 64
  // straddle a multiple of it.  Hosts: euclidean under p = 1, 2, inf (real
  // weights, where any re-association would show in the bits), dense
  // integer and tree metrics.  Profiles: spanning trees (every edge a
  // bridge) and trees plus chords with doubly-owned edges (Dijkstra
  // fallbacks, doubly-owned deletes/swaps, swaps onto existing edges).
  Rng rng(909);
  int improving = 0, agents = 0;
  for (int n : {5, 17, 63, 64}) {
    for (int host = 0; host < 5; ++host) {
      const double alpha = rng.uniform_real(0.3, 3.0) * n;
      HostGraph graph = [&] {
        switch (host) {
          case 0:
          case 1:
          case 2: {
            const double p = host == 0 ? 1.0 : host == 1 ? 2.0 : kPNormInf;
            return HostGraph::from_points(uniform_points(n, 2, 100.0, rng), p);
          }
          case 3:
            return random_integer_host(n, rng);
          default:
            return HostGraph::from_tree(random_tree(n, rng));
        }
      }();
      const Game game(std::move(graph), alpha);
      for (int shape = 0; shape < 2; ++shape) {
        SCOPED_TRACE(::testing::Message() << "n " << n << " host " << host
                                          << " shape " << shape);
        StrategyProfile profile = random_profile(game, rng, 0.3 * shape);
        if (shape == 1) {
          for (int u = 0; u < n; ++u)
            for (int v = 0; v < n; ++v)
              if (u != v && profile.buys(u, v) && rng.bernoulli(0.3))
                profile.add_buy(v, u);
        }
        improving += compare_with_reference(game, profile);
        agents += n;
      }
    }
  }
  // Both outcomes must be exercised: improving scans (early exits, moves)
  // and scans that run to the end without finding one.
  EXPECT_GT(improving, 0);
  EXPECT_LT(improving, agents);
}

// The scans skip a candidate when a lower bound on its cost -- edge cost
// plus S_u - k g_x, minus a floating-point margin -- cannot beat the
// incumbent.  The skips must be invisible: the cases below pin the pruned
// scans to the frozen scalar scan (and, on exact-arithmetic hosts, to the
// naive scans) on the near-equilibrium profiles where the bound fires, and
// on a disconnected network where it must stay off.

namespace ins = ::gncg::instrument;

std::uint64_t bound_skips(const ins::ThreadFrame& frame) {
  return frame.delta()[static_cast<std::size_t>(
      ins::Counter::kEngineScanBoundSkips)];
}

/// Random tree host whose edge weights are integers in [1, 9], so every
/// distance and cost sums exactly in doubles.
HostGraph integer_tree_host(int n, Rng& rng) {
  std::vector<double> weights;
  for (int i = 0; i + 1 < n; ++i)
    weights.push_back(static_cast<double>(rng.uniform_int(1, 9)));
  return HostGraph::from_tree(random_tree_with_weights(n, weights, rng));
}

/// Applies up to `steps` best single moves (the lowest improving agent's,
/// as a round-robin scheduler would), calling `check` on every visited
/// profile.  Improving moves drive the profile toward equilibrium, where
/// incumbents are tight and most candidates are provably non-improving.
template <class Check>
void walk_best_moves(const Game& game, StrategyProfile profile, int steps,
                     Check&& check) {
  for (int step = 0; step <= steps; ++step) {
    check(profile);
    DeviationEngine engine(game, profile);
    engine.warm_distances();
    bool moved = false;
    for (int u = 0; u < game.node_count() && !moved; ++u) {
      const SingleMoveResult best = engine.best_single_move_warm(u);
      if (!best.improved) continue;
      engine.apply_move(u, best.move);
      moved = true;
    }
    if (!moved) return;
    profile = engine.profile();
  }
}

TEST(DeviationEngineBound, PrunedScansMatchFrozenScanWhereTheBoundFires) {
  // Large alpha keeps the networks sparse (tree-like, many bridges) and the
  // walk settles them, so every scan family prunes: additions, bridge swaps
  // and non-bridge or doubly-owned swaps.
  Rng rng(1313);
  for (int host = 0; host < 4; ++host) {
    const int n = host == 0 ? 41 : 24;
    HostGraph graph = [&] {
      switch (host) {
        case 0:
          return HostGraph::from_points(uniform_points(n, 2, 100.0, rng), 2.0);
        case 1:
          return random_integer_host(n, rng);
        case 2:
          return integer_tree_host(n, rng);
        default:
          return random_one_two_host(n, 0.5, rng);
      }
    }();
    const Game game(std::move(graph), rng.uniform_real(0.5, 2.0) * n);
    StrategyProfile start = random_profile(game, rng, 0.05);
    for (int u = 0; u < n; ++u)
      for (int v = 0; v < n; ++v)
        if (u != v && start.buys(u, v) && rng.bernoulli(0.2))
          start.add_buy(v, u);
    SCOPED_TRACE(::testing::Message() << "host " << host);
    const ins::ThreadFrame frame;
    walk_best_moves(game, start, 12, [&](const StrategyProfile& profile) {
      compare_with_reference(game, profile);
    });
    if (ins::compiled_in()) {
      EXPECT_GT(bound_skips(frame), 0u);
    }
  }
}

TEST(DeviationEngineBound, ExactHostsMatchNaiveScansWhereTheBoundFires) {
  // On dense integer-weight and integer tree hosts the engine must match the
  // naive Dijkstra-per-candidate scans bit for bit, pruned or not.
  Rng rng(1314);
  for (int host = 0; host < 2; ++host) {
    const int n = 18;
    HostGraph graph =
        host == 0 ? random_integer_host(n, rng) : integer_tree_host(n, rng);
    const Game game(std::move(graph), rng.uniform_real(0.5, 2.0) * n);
    SCOPED_TRACE(::testing::Message() << "host " << host);
    const ins::ThreadFrame frame;
    walk_best_moves(game, random_profile(game, rng, 0.1), 10,
                    [&](const StrategyProfile& profile) {
                      compare_all_agents(game, profile, /*exact=*/true);
                    });
    if (ins::compiled_in()) {
      EXPECT_GT(bound_skips(frame), 0u);
    }
  }
}

TEST(DeviationEngineBound, DisconnectedNetworkKeepsEveryCandidate) {
  // Two components: every S_u is infinite, so the bound must stay off.
  // Buying an edge across reconnects the agent, a finite cost that improves
  // on the infinite one; a bound formed from S_u = inf would skip it.
  Rng rng(1315);
  for (int host = 0; host < 2; ++host) {
    const int n = 12;
    HostGraph graph =
        host == 0
            ? HostGraph::from_points(uniform_points(n, 2, 100.0, rng), 2.0)
            : random_integer_host(n, rng);
    const Game game(std::move(graph), 3.0);
    StrategyProfile profile(n);
    for (int u = 1; u < n; ++u)
      if (u != n / 2) profile.add_buy(u, u - 1);  // paths 0..n/2-1, n/2..n-1
    profile.add_buy(2, 0);                        // a chord: a non-bridge
    profile.add_buy(n / 2, n / 2 + 1);            // a doubly-owned edge
    SCOPED_TRACE(::testing::Message() << "host " << host);
    const ins::ThreadFrame frame;
    EXPECT_EQ(compare_with_reference(game, profile), n);
    EXPECT_EQ(bound_skips(frame), 0u);
  }
}

TEST(DeviationEngine, DistanceCachesSurviveOwnershipOnlyMutations) {
  // A double-ownership add/remove changes who pays, not the topology: the
  // engine must keep distances identical (and, per the invalidation
  // contract, may keep the caches warm).
  Rng rng(707);
  const Game game = random_game(0, 6, rng);
  StrategyProfile profile = random_profile(game, rng, 0.2);
  int owner = -1, target = -1;
  for (int u = 0; u < 6 && owner < 0; ++u)
    for (int v = 0; v < 6 && owner < 0; ++v)
      if (u != v && profile.buys(u, v) && !profile.buys(v, u)) {
        owner = u;
        target = v;
      }
  ASSERT_GE(owner, 0);
  DeviationEngine engine(game, profile);
  const double before = engine.distance_cost(target);
  engine.apply_move(target, {MoveType::kAdd, -1, owner});  // double-own
  EXPECT_DOUBLE_EQ(engine.distance_cost(target), before);
  EXPECT_DOUBLE_EQ(engine.agent_cost(target),
                   agent_cost(game, engine.profile(), target));
  engine.apply_move(target, {MoveType::kDelete, owner, -1});
  EXPECT_DOUBLE_EQ(engine.distance_cost(target), before);
  EXPECT_TRUE(engine.profile() == profile);
}

TEST(DeviationEngine, BatchedSetStrategiesMatchesSequentialSetStrategy) {
  // The round-commit batch apply must land on the same profile, hash,
  // adjacency and costs as a sequence of set_strategy calls -- only the
  // epoch accounting is batched (at most one bump per batch).
  Rng rng(809);
  for (int round = 0; round < 8; ++round) {
    const int n = 5 + static_cast<int>(rng.uniform_below(4));
    const Game game = random_game(round % 3, n, rng);
    const StrategyProfile profile = random_profile(game, rng, 0.3);
    DeviationEngine batched(game, profile);
    DeviationEngine sequential(game, profile);

    std::vector<std::pair<int, NodeSet>> batch;
    for (int u = 0; u < n; ++u) {
      if (!rng.bernoulli(0.5)) continue;
      NodeSet next(n);
      for (int t = 0; t < n; ++t)
        if (t != u && game.can_buy(u, t) && rng.bernoulli(0.3))
          next.insert(t);
      batch.emplace_back(u, std::move(next));
    }
    batched.set_strategies(batch);
    for (const auto& [u, next] : batch) sequential.set_strategy(u, next);

    EXPECT_TRUE(batched.profile() == sequential.profile()) << round;
    EXPECT_EQ(batched.profile_hash(), sequential.profile_hash()) << round;
    for (int u = 0; u < n; ++u)
      EXPECT_EQ(batched.distance_cost(u), sequential.distance_cost(u))
          << "round " << round << " agent " << u;
  }
}

TEST(DeviationEngine, WarmSweepIsBitwiseIdenticalAcrossThreadCounts) {
  // The parallel warm sweep: flip one edge, re-warm every distance cache
  // (dial kernel on a {1,2} host), then scan every agent's best single move
  // over the pool.  Each agent's scan is independent of the others, so the
  // cost vectors must match bit-for-bit at 1 and 4 workers.
  constexpr int kNodes = 64;  // above parallel_for's serial cutoff
  constexpr int kRounds = 4;
  auto sweep = [&](std::size_t threads) {
    set_default_thread_count(threads);
    Rng rng(6363);
    const Game game(random_one_two_host(kNodes, 0.5, rng), 1.5);
    DeviationEngine engine(game, random_profile(game, rng, 0.2));
    int flip_u = -1, flip_v = -1;
    for (int u = 0; u < kNodes && flip_u < 0; ++u)
      for (int v = u + 1; v < kNodes && flip_u < 0; ++v)
        if (!engine.profile().has_edge(u, v)) {
          flip_u = u;
          flip_v = v;
        }
    EXPECT_GE(flip_u, 0);
    std::vector<std::uint64_t> bits(static_cast<std::size_t>(kNodes) *
                                    kRounds);
    for (int r = 0; r < kRounds; ++r) {
      if (r % 2 == 0) engine.add_buy(flip_u, flip_v);
      else engine.remove_buy(flip_u, flip_v);
      engine.warm_distances();
      std::uint64_t* row = bits.data() + static_cast<std::size_t>(r) * kNodes;
      parallel_for(0, static_cast<std::size_t>(kNodes), [&](std::size_t a) {
        row[a] = std::bit_cast<std::uint64_t>(
            engine.best_single_move_warm(static_cast<int>(a)).cost);
      });
    }
    return bits;
  };
  const std::vector<std::uint64_t> serial = sweep(1);
  const std::vector<std::uint64_t> pooled = sweep(4);
  set_default_thread_count(0);
  EXPECT_EQ(serial, pooled);
}

TEST(DeviationEngine, MoveConflictSetCoversTouchedEndpoints) {
  Rng rng(811);
  const Game game = random_game(0, 7, rng);
  const StrategyProfile profile = random_profile(game, rng, 0.3);
  DeviationEngine engine(game, profile);
  const int u = 2;
  NodeSet next(7);
  next.insert(0);
  next.insert(5);
  std::vector<int> conflict;
  engine.move_conflict_set(u, next, conflict);
  // Sorted, deduplicated, and exactly {u} ∪ old ∪ new.
  EXPECT_TRUE(std::is_sorted(conflict.begin(), conflict.end()));
  EXPECT_EQ(std::adjacent_find(conflict.begin(), conflict.end()),
            conflict.end());
  std::vector<int> expected{u, 0, 5};
  profile.strategy(u).for_each([&](int v) { expected.push_back(v); });
  std::sort(expected.begin(), expected.end());
  expected.erase(std::unique(expected.begin(), expected.end()),
                 expected.end());
  EXPECT_EQ(conflict, expected);
}

}  // namespace
}  // namespace gncg
