// Tests for best-response machinery: the pruned exact search against the
// unpruned brute force, the incremental br_search engine against the naive
// per-subset-Dijkstra baseline and against a frozen copy of its former
// stacked-repair DFS, single-move scans, and the improvement predicate.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/best_response.hpp"
#include "core/br_search.hpp"
#include "core/deviation_engine.hpp"
#include "core/dynamics.hpp"
#include "graph/dijkstra.hpp"
#include "graph/incremental_sssp.hpp"
#include "metric/host_graph.hpp"
#include "metric/points.hpp"
#include "metric/tree.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"
#include "variants/max_game.hpp"

namespace gncg {
namespace {

/// Randomized hosts across model classes for property sweeps.
Game random_game(int n, double alpha, int flavor, Rng& rng) {
  switch (flavor % 4) {
    case 0: return Game(random_metric_host(n, rng), alpha);
    case 1: return Game(random_one_two_host(n, 0.5, rng), alpha);
    case 2: return Game(random_general_host(n, rng), alpha);
    default: return Game(random_one_inf_host(n, 0.6, rng), alpha);
  }
}

/// Randomized hosts across every backend kind (dense model classes plus the
/// implicit euclidean / tree backends) for the differential fuzz.
Game random_backend_game(int n, double alpha, int flavor, Rng& rng) {
  switch (flavor % 6) {
    case 0: return Game(random_metric_host(n, rng), alpha);
    case 1: return Game(random_one_two_host(n, 0.5, rng), alpha);
    case 2: return Game(random_general_host(n, rng), alpha);
    case 3: return Game(random_one_inf_host(n, 0.6, rng), alpha);
    case 4:
      return Game(HostGraph::from_points(uniform_points(n, 2, 100.0, rng),
                                         2.0),
                  alpha);
    default:
      return Game(HostGraph::from_tree(random_tree(n, rng, 1.0, 10.0)),
                  alpha);
  }
}

/// Inserts `pairs` mutual (double-ownership) buys into the profile: both
/// endpoints pay for the same built edge, the state dynamics can pass
/// through and the environment masking must keep.
void force_mutual_buys(const Game& game, StrategyProfile& profile, int pairs,
                       Rng& rng) {
  const int n = game.node_count();
  for (int j = 0; j < pairs; ++j) {
    const int a = static_cast<int>(rng.uniform_below(
        static_cast<std::uint64_t>(n)));
    const int b = static_cast<int>(rng.uniform_below(
        static_cast<std::uint64_t>(n)));
    if (a == b || !game.can_buy(a, b)) continue;
    profile.add_buy(a, b);
    profile.add_buy(b, a);
  }
}

TEST(ExactBestResponse, MatchesBruteForceAcrossModels) {
  Rng rng(101);
  for (int trial = 0; trial < 24; ++trial) {
    const int n = 4 + static_cast<int>(rng.uniform_below(3));  // 4..6
    const double alpha = rng.uniform_real(0.2, 4.0);
    const Game game = random_game(n, alpha, trial, rng);
    const StrategyProfile profile = random_profile(game, rng);
    const int u = static_cast<int>(rng.uniform_below(static_cast<std::uint64_t>(n)));
    const auto exact = exact_best_response(game, profile, u);
    const auto brute = testing::brute_force_best_response(game, profile, u);
    EXPECT_NEAR(exact.cost, brute.cost, 1e-9 * std::max(1.0, brute.cost))
        << "trial " << trial << " agent " << u;
    EXPECT_LE(exact.evaluations, brute.evaluations);
  }
}

TEST(ExactBestResponse, PrunesSubstantially) {
  // With a large alpha the best response buys few edges, so the edge-cost
  // lower bound cuts nearly the whole 2^(n-1) subset tree.
  Rng rng(103);
  const Game game(random_metric_host(8, rng), 20.0);
  const StrategyProfile profile = random_profile(game, rng);
  const auto exact = exact_best_response(game, profile, 0);
  const auto brute = testing::brute_force_best_response(game, profile, 0);
  EXPECT_NEAR(exact.cost, brute.cost, 1e-9 * std::max(1.0, brute.cost));
  EXPECT_LT(exact.evaluations, brute.evaluations / 2)
      << "pruning should cut most of the 2^(n-1) subsets";
}

TEST(ExactBestResponse, IncumbentEarlyExitFindsImprovement) {
  Rng rng(107);
  const Game game(random_metric_host(5, rng), 1.0);
  StrategyProfile profile(5);  // empty: every agent is at infinite cost
  BestResponseOptions options;
  options.incumbent = agent_cost(game, profile, 0);
  options.first_improvement = true;
  const auto result = exact_best_response(game, profile, 0, options);
  EXPECT_TRUE(result.improved);
  EXPECT_LT(result.cost, kInf);
}

TEST(ExactBestResponse, ReportsNoImprovementAtOptimum) {
  Rng rng(109);
  const Game game(random_metric_host(5, rng), 1.0);
  StrategyProfile profile = random_profile(game, rng);
  const auto full = exact_best_response(game, profile, 2);
  StrategyProfile best = profile;
  best.set_strategy(2, full.strategy);
  BestResponseOptions options;
  options.incumbent = agent_cost(game, best, 2);
  EXPECT_FALSE(exact_best_response(game, best, 2, options).improved);
  EXPECT_FALSE(has_improving_deviation(game, best, 2));
}

TEST(ExactBestResponse, EnvironmentCostMatchesAgentCost) {
  Rng rng(113);
  const Game game(random_metric_host(6, rng), 1.3);
  const StrategyProfile profile = random_profile(game, rng);
  for (int u = 0; u < 6; ++u) {
    const AgentEnvironment env(game, profile, u);
    EXPECT_NEAR(env.cost_of(profile.strategy(u)), agent_cost(game, profile, u),
                1e-9);
  }
}

TEST(ExactBestResponse, NeverBuysForbiddenEdges) {
  Rng rng(127);
  const Game game(random_one_inf_host(6, 0.5, rng), 0.7);
  const StrategyProfile profile = random_profile(game, rng);
  const auto result = exact_best_response(game, profile, 0);
  result.strategy.for_each([&](int v) {
    EXPECT_LT(game.weight(0, v), kInf);
  });
}

TEST(SingleMoves, AdditionImprovesDisconnectedAgent) {
  // Everyone but agent 0 forms a star; agent 0 is isolated, so any single
  // purchase connects it to the whole network.
  Rng rng(131);
  const Game game(random_metric_host(5, rng), 1.0);
  StrategyProfile profile(5);
  for (int v = 2; v < 5; ++v) profile.add_buy(1, v);
  const auto result = best_addition(game, profile, 0);
  EXPECT_TRUE(result.improved);
  EXPECT_EQ(result.move.type, MoveType::kAdd);
  EXPECT_EQ(result.current_cost, kInf);
  EXPECT_LT(result.cost, kInf);
}

TEST(SingleMoves, DeletionOfRedundantEdgeImproves) {
  // Complete profile on a triangle: dropping the heaviest edge helps.
  DistanceMatrix weights(3, 0.0);
  weights.set_symmetric(0, 1, 1.0);
  weights.set_symmetric(1, 2, 1.0);
  weights.set_symmetric(0, 2, 2.0);
  const Game game(HostGraph::from_weights(std::move(weights)), 5.0);
  StrategyProfile profile(3);
  profile.add_buy(0, 1);
  profile.add_buy(1, 2);
  profile.add_buy(0, 2);
  const auto result = best_single_move(game, profile, 0);
  EXPECT_TRUE(result.improved);
  EXPECT_EQ(result.move.type, MoveType::kDelete);
  EXPECT_EQ(result.move.remove, 2);
}

TEST(SingleMoves, SwapBeatsAddAndDeleteWhenBothNeeded) {
  // Star at 0 on a path metric: the leaf buying the far edge should swap it
  // for the near one.  Host: points 0,1,10 on a line.
  const PointSet points = line_points({0.0, 1.0, 10.0});
  const Game game(HostGraph::from_points(points, 1.0), 10.0);
  StrategyProfile profile(3);
  profile.add_buy(2, 0);  // node 2 buys the long edge to 0
  profile.add_buy(0, 1);
  const auto result = best_single_move(game, profile, 2);
  EXPECT_TRUE(result.improved);
  EXPECT_EQ(result.move.type, MoveType::kSwap);
  EXPECT_EQ(result.move.remove, 0);
  EXPECT_EQ(result.move.add, 1);
}

TEST(SingleMoves, BestSingleMoveNeverWorseThanBestResponse) {
  Rng rng(137);
  for (int trial = 0; trial < 12; ++trial) {
    const Game game = random_game(5, rng.uniform_real(0.3, 3.0), trial, rng);
    const StrategyProfile profile = random_profile(game, rng);
    const int u = static_cast<int>(rng.uniform_below(5));
    const auto single = best_single_move(game, profile, u);
    const auto full = exact_best_response(game, profile, u);
    EXPECT_GE(single.cost + 1e-9, full.cost)
        << "single move cannot beat the exact best response";
    EXPECT_LE(single.cost, single.current_cost + 1e-9);
  }
}

TEST(SingleMoves, ApplyMoveMatchesReportedCost) {
  Rng rng(139);
  const Game game(random_metric_host(6, rng), 0.8);
  StrategyProfile profile = random_profile(game, rng);
  for (int u = 0; u < 6; ++u) {
    const auto result = best_single_move(game, profile, u);
    if (!result.improved) continue;
    StrategyProfile moved = profile;
    apply_move(moved, u, result.move);
    EXPECT_NEAR(agent_cost(game, moved, u), result.cost, 1e-9);
    return;  // one verified application suffices
  }
}

// --- incremental br_search vs naive baseline (differential fuzz) ----------

TEST(BrSearchDifferential, FullSearchMatchesNaiveAcrossBackends) {
  Rng rng(211);
  for (int trial = 0; trial < 36; ++trial) {
    const int n = 6 + (trial % 5);  // 6..10
    const double alpha = rng.uniform_real(0.2, 4.0);
    const Game game = random_backend_game(n, alpha, trial, rng);
    StrategyProfile profile = random_profile(game, rng);
    force_mutual_buys(game, profile, n / 3, rng);
    for (int u = 0; u < n; ++u) {
      const auto naive = naive_exact_best_response(game, profile, u);
      const auto fast = exact_best_response(game, profile, u);
      EXPECT_TRUE(fast.strategy == naive.strategy)
          << "trial " << trial << " agent " << u;
      EXPECT_EQ(fast.improved, naive.improved);
      // The new engine's evaluation is canonical: its cost equals the
      // environment re-evaluation of the winning strategy bitwise.  (The
      // naive search records its running DFS accumulator instead, whose
      // low-order bits are path-dependent, so its raw cost is compared
      // through re-evaluation.)
      const AgentEnvironment env(game, profile, u);
      EXPECT_EQ(fast.cost, env.cost_of(naive.strategy))
          << "trial " << trial << " agent " << u;
      if (naive.cost < kInf) {
        EXPECT_NEAR(fast.cost, naive.cost,
                    1e-12 * std::max(1.0, std::abs(naive.cost)));
      } else {
        EXPECT_FALSE(fast.cost < kInf);
      }
    }
  }
}

TEST(BrSearchDifferential, CertificationMatchesNaiveAcrossBackends) {
  // NE-certification mode: incumbent = current cost, stop at the first
  // strict improvement.  The found improvement (the DFS-first one) must be
  // identical, not just its existence.
  Rng rng(227);
  for (int trial = 0; trial < 36; ++trial) {
    const int n = 6 + (trial % 5);
    const double alpha = rng.uniform_real(0.2, 4.0);
    const Game game = random_backend_game(n, alpha, trial, rng);
    StrategyProfile profile = random_profile(game, rng);
    force_mutual_buys(game, profile, n / 3, rng);
    DeviationEngine engine(game, profile);
    for (int u = 0; u < n; ++u) {
      BestResponseOptions options;
      options.incumbent = agent_cost(game, profile, u);
      options.first_improvement = true;
      const auto naive = naive_exact_best_response(game, profile, u, options);
      const auto fast = exact_best_response(engine, u, options);
      EXPECT_EQ(fast.improved, naive.improved)
          << "trial " << trial << " agent " << u;
      if (naive.improved) {
        EXPECT_TRUE(fast.strategy == naive.strategy)
            << "trial " << trial << " agent " << u;
        const AgentEnvironment env(game, profile, u);
        EXPECT_EQ(fast.cost, env.cost_of(naive.strategy));
      }
      EXPECT_EQ(fast.improved, has_improving_deviation(engine, u));
    }
  }
}

TEST(BrSearchDifferential, ThreadCountInvariant) {
  // The parallel first-level fan-out folds branch outcomes in branch
  // order: full-search results -- including the evaluation count -- must be
  // byte-identical between 1 worker and the default pool.
  Rng rng(229);
  for (int trial = 0; trial < 12; ++trial) {
    const int n = 8 + (trial % 4);
    const double alpha = rng.uniform_real(0.3, 3.0);
    const Game game = random_backend_game(n, alpha, trial, rng);
    StrategyProfile profile = random_profile(game, rng);
    force_mutual_buys(game, profile, n / 3, rng);
    for (int u = 0; u < n; ++u) {
      set_default_thread_count(1);
      const auto serial = exact_best_response(game, profile, u);
      set_default_thread_count(0);
      const auto parallel = exact_best_response(game, profile, u);
      EXPECT_EQ(parallel.cost, serial.cost);
      EXPECT_TRUE(parallel.strategy == serial.strategy);
      EXPECT_EQ(parallel.improved, serial.improved);
      EXPECT_EQ(parallel.evaluations, serial.evaluations)
          << "full-mode searches do the same work at any thread count";

      // Certification mode: the result (not the work counter) is invariant.
      BestResponseOptions options;
      options.incumbent = agent_cost(game, profile, u);
      options.first_improvement = true;
      set_default_thread_count(1);
      const auto serial_cert = exact_best_response(game, profile, u, options);
      set_default_thread_count(0);
      const auto parallel_cert =
          exact_best_response(game, profile, u, options);
      EXPECT_EQ(parallel_cert.improved, serial_cert.improved);
      if (serial_cert.improved) {
        EXPECT_EQ(parallel_cert.cost, serial_cert.cost);
        EXPECT_TRUE(parallel_cert.strategy == serial_cert.strategy);
      }
    }
  }
  set_default_thread_count(0);
}

// --- row-min search vs the frozen stacked-repair DFS ----------------------
//
// br_search keeps the subset's distance vector as the pointwise minimum of
// per-candidate single-insert rows.  Before that it kept one vector per
// branch, repaired incrementally on every DFS insert and rolled back on
// every backtrack.  The copy below freezes that DFS (cap 0, serial, branch
// by branch with branch-local incumbents -- the fold the parallel driver
// reproduces) on the public IncrementalSssp; the row-min search must match
// it bit for bit: strategy, cost bits, improved, and the full-mode
// evaluation count, which pins every pruning decision.

/// SUM or MAX aggregation of a distance vector, in increasing node order.
double frozen_distance_term(const std::vector<double>& dist, bool max_obj) {
  double total = 0.0;
  for (double d : dist) total = max_obj ? std::max(total, d) : total + d;
  return total;
}

/// sum/max over t of max(host(t), min(dist(t), w_next)).
double frozen_tight_floor(const std::vector<double>& host_row,
                          const std::vector<double>& dist, double w_next,
                          bool max_obj) {
  double total = 0.0;
  for (std::size_t t = 0; t < dist.size(); ++t) {
    const double floor = std::max(host_row[t], std::min(dist[t], w_next));
    total = max_obj ? std::max(total, floor) : total + floor;
  }
  return total;
}

struct FrozenBranch {
  const AgentEnvironment* env = nullptr;
  const std::vector<int>* candidates = nullptr;
  const std::vector<double>* weights = nullptr;
  const std::vector<double>* weight_row = nullptr;
  const std::vector<double>* host_row = nullptr;
  bool max_obj = false;
  double cheap_floor = 0.0;
  double base_bound = kInf;
  double incumbent = kInf;
  bool first_improvement = false;
  IncrementalSssp sssp;
  NodeSet current;
  double current_weight = 0.0;
  BestResponseResult result;
  bool done = false;

  double alpha() const { return env->game().alpha(); }
  double bound() const { return std::min(result.cost, base_bound); }

  void evaluate() {
    double edge_sum = 0.0;
    current.for_each(
        [&](int v) { edge_sum += (*weight_row)[static_cast<std::size_t>(v)]; });
    const double cost =
        alpha() * edge_sum + frozen_distance_term(sssp.dist(), max_obj);
    ++result.evaluations;
    if (improves(cost, bound())) {
      result.cost = cost;
      result.strategy = current;
      result.improved = improves(cost, incumbent);
      if (first_improvement && result.improved) done = true;
    }
  }

  bool pruned(std::size_t i) const {
    const double b = bound();
    const double edge_cost = alpha() * (current_weight + (*weights)[i]);
    if (!improves(edge_cost + cheap_floor, b)) return true;
    return !improves(edge_cost + frozen_tight_floor(*host_row, sssp.dist(),
                                                    (*weights)[i], max_obj),
                     b);
  }

  void insert(std::size_t i) {
    current.insert((*candidates)[i]);
    current_weight += (*weights)[i];
    sssp.relax_insert((*candidates)[i], (*weights)[i],
                      [this](int x, auto&& visit) {
                        env->for_neighbors(x, visit);
                      });
  }

  void remove(std::size_t i, IncrementalSssp::Checkpoint mark) {
    sssp.rollback(mark);
    current.erase((*candidates)[i]);
    current_weight -= (*weights)[i];
  }

  void descend(std::size_t start) {
    for (std::size_t i = start; i < candidates->size() && !done; ++i) {
      if (pruned(i)) break;
      const IncrementalSssp::Checkpoint mark = sssp.checkpoint();
      insert(i);
      evaluate();
      if (!done) descend(i + 1);
      remove(i, mark);
    }
  }
};

/// The frozen stacked-repair search (repair cap 0).
BestResponseResult frozen_br_search(const AgentEnvironment& env,
                                    const BestResponseOptions& options,
                                    bool max_obj) {
  const Game& game = env.game();
  const int n = game.node_count();
  const int u = env.agent();
  std::vector<std::pair<double, int>> order;
  if (options.restrict_targets != nullptr) {
    for (int v : *options.restrict_targets)
      if (game.can_buy(u, v)) order.emplace_back(game.weight(u, v), v);
  } else {
    for (int v = 0; v < n; ++v)
      if (game.can_buy(u, v)) order.emplace_back(game.weight(u, v), v);
  }
  std::sort(order.begin(), order.end());
  order.erase(std::unique(order.begin(), order.end()), order.end());
  std::vector<int> candidates;
  std::vector<double> weights;
  for (const auto& [w, v] : order) {
    candidates.push_back(v);
    weights.push_back(w);
  }
  std::vector<double> base;
  dijkstra_over(
      n, u, [&](int x, auto&& visit) { env.for_neighbors(x, visit); }, base);
  std::vector<double> host_row(static_cast<std::size_t>(n));
  std::vector<double> weight_row(static_cast<std::size_t>(n), kInf);
  for (int v = 0; v < n; ++v)
    host_row[static_cast<std::size_t>(v)] = game.host_distance(u, v);
  for (std::size_t i = 0; i < candidates.size(); ++i)
    weight_row[static_cast<std::size_t>(candidates[i])] = weights[i];
  const double cheap_floor = frozen_distance_term(host_row, max_obj);

  BestResponseResult result;
  result.strategy = NodeSet(n);
  const double empty_cost =
      game.alpha() * 0.0 + frozen_distance_term(base, max_obj);
  result.evaluations = 1;
  if (improves(empty_cost, options.incumbent)) {
    result.cost = empty_cost;
    result.improved = true;
    if (options.first_improvement) return result;
  }
  const double base_bound = std::min(result.cost, options.incumbent);
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const double entry_edge = game.alpha() * (0.0 + weights[i]);
    if (!improves(entry_edge + cheap_floor, base_bound)) continue;
    if (!improves(entry_edge + frozen_tight_floor(host_row, base, weights[i],
                                                  max_obj),
                  base_bound))
      continue;
    FrozenBranch branch;
    branch.env = &env;
    branch.candidates = &candidates;
    branch.weights = &weights;
    branch.weight_row = &weight_row;
    branch.host_row = &host_row;
    branch.max_obj = max_obj;
    branch.cheap_floor = cheap_floor;
    branch.base_bound = base_bound;
    branch.incumbent = options.incumbent;
    branch.first_improvement = options.first_improvement;
    branch.sssp.reset(base);
    branch.current = NodeSet(n);
    branch.result.strategy = NodeSet(n);
    const IncrementalSssp::Checkpoint mark = branch.sssp.checkpoint();
    branch.insert(i);
    branch.evaluate();
    if (!branch.done) branch.descend(i + 1);
    branch.remove(i, mark);

    const BestResponseResult& out = branch.result;
    result.evaluations += out.evaluations;
    if (options.first_improvement) {
      if (out.improved) {
        result.cost = out.cost;
        result.strategy = out.strategy;
        result.improved = true;
        return result;  // the lowest improving branch wins the fold
      }
    } else if (improves(out.cost, std::min(result.cost, options.incumbent))) {
      result.cost = out.cost;
      result.strategy = out.strategy;
      result.improved = improves(result.cost, options.incumbent);
    }
  }
  if (!(result.cost < kInf) && !(options.incumbent < kInf))
    result.cost = empty_cost;
  return result;
}

TEST(BrSearchRowMin, MatchesFrozenStackedRepairSearchBitwise) {
  // Hosts: dense model classes (metric, 1-2, general, 1-inf), euclidean
  // L2 and tree.  Per agent: full argmin and first-improvement
  // certification, unrestricted and restricted to a random target list
  // (with repeats and unpurchasable entries), SUM and MAX, at 1 and 4
  // workers.
  Rng rng(2027);
  int improving = 0, searches = 0;
  for (int trial = 0; trial < 30; ++trial) {
    const int n = 7 + (trial % 5);  // 7..11
    const double alpha = rng.uniform_real(0.2, 4.0);
    const Game game = random_backend_game(n, alpha, trial, rng);
    StrategyProfile profile = random_profile(game, rng);
    force_mutual_buys(game, profile, n / 3, rng);
    DeviationEngine engine(game, profile);
    for (int u = 0; u < n; ++u) {
      std::vector<int> shortlist;
      for (int v = 0; v < n; ++v)
        if (rng.bernoulli(0.6)) shortlist.push_back(v);
      if (!shortlist.empty()) shortlist.push_back(shortlist.front());
      const AgentEnvironment env(engine, u);
      for (const bool max_obj : {false, true}) {
        for (const bool restricted : {false, true}) {
          for (const bool certify : {false, true}) {
            BestResponseOptions options;
            if (restricted) options.restrict_targets = &shortlist;
            if (certify) {
              options.incumbent = max_obj ? max_agent_cost(game, profile, u)
                                          : agent_cost(game, profile, u);
              options.first_improvement = true;
            }
            const BestResponseResult ref =
                frozen_br_search(env, options, max_obj);
            for (const std::size_t threads : {1, 4}) {
              SCOPED_TRACE(::testing::Message()
                           << "trial " << trial << " agent " << u << " max "
                           << max_obj << " restricted " << restricted
                           << " certify " << certify << " threads "
                           << threads);
              set_default_thread_count(threads);
              const BestResponseResult got =
                  max_obj ? br_search_max(env, options)
                          : br_search_sum(env, options);
              EXPECT_TRUE(got.strategy == ref.strategy);
              EXPECT_EQ(std::bit_cast<std::uint64_t>(got.cost),
                        std::bit_cast<std::uint64_t>(ref.cost));
              EXPECT_EQ(got.improved, ref.improved);
              if (!certify) {
                EXPECT_EQ(got.evaluations, ref.evaluations);
              }
              EXPECT_FALSE(got.truncated);
            }
            ++searches;
            if (ref.improved && certify) ++improving;
          }
        }
      }
    }
  }
  set_default_thread_count(0);
  // Certification must see both verdicts.
  EXPECT_GT(improving, 0);
  EXPECT_LT(improving, searches / 2);
}

// --- AgentEnvironment borrow mode (double-ownership masking) --------------

TEST(AgentEnvironmentView, BorrowMatchesOwnedBuildUnderMutualBuys) {
  // The engine-borrowing environment masks u's sole-owned edges on the fly;
  // edges both endpoints buy must survive the mask.  Differential fuzz of
  // borrowed vs owned costs on profiles with forced mutual buys.
  Rng rng(233);
  for (int trial = 0; trial < 24; ++trial) {
    const int n = 5 + (trial % 5);
    const double alpha = rng.uniform_real(0.2, 4.0);
    const Game game = random_backend_game(n, alpha, trial, rng);
    StrategyProfile profile = random_profile(game, rng);
    force_mutual_buys(game, profile, n / 2, rng);
    DeviationEngine engine(game, profile);
    for (int u = 0; u < n; ++u) {
      const AgentEnvironment owned(game, profile, u);
      const AgentEnvironment borrowed(engine, u);
      // The agent's own strategy: cost_of must reproduce agent_cost.
      EXPECT_EQ(borrowed.cost_of(profile.strategy(u)),
                owned.cost_of(profile.strategy(u)))
          << "trial " << trial << " agent " << u;
      // Random candidate sets.
      for (int draw = 0; draw < 4; ++draw) {
        NodeSet targets(n);
        for (int v = 0; v < n; ++v)
          if (v != u && game.can_buy(u, v) && rng.bernoulli(0.4))
            targets.insert(v);
        EXPECT_EQ(borrowed.cost_of(targets), owned.cost_of(targets))
            << "trial " << trial << " agent " << u << " draw " << draw;
      }
      // Full searches through both environment paths agree.
      const auto via_profile = exact_best_response(game, profile, u);
      const auto via_engine = exact_best_response(engine, u);
      EXPECT_EQ(via_engine.cost, via_profile.cost);
      EXPECT_TRUE(via_engine.strategy == via_profile.strategy);
    }
  }
}

TEST(SingleMoves, NoneMoveIsNoOp) {
  StrategyProfile profile(3);
  profile.add_buy(0, 1);
  StrategyProfile copy = profile;
  apply_move(copy, 0, SingleMove{});
  EXPECT_EQ(copy, profile);
}

}  // namespace
}  // namespace gncg
