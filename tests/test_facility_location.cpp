// Tests for UMFL and the Theorem 3 reduction: the cost bijection between
// agent strategies and facility sets, the locality gap, and the induced
// 3-approximate best response.
#include <gtest/gtest.h>

#include "core/best_response.hpp"
#include "core/dynamics.hpp"
#include "core/facility_location.hpp"
#include "metric/host_graph.hpp"
#include "support/rng.hpp"

namespace gncg {
namespace {

UmflInstance hand_instance() {
  // Two facilities, three clients.
  UmflInstance instance;
  instance.open_cost = {5.0, 1.0};
  instance.service = {{1.0, 2.0, 9.0}, {4.0, 1.0, 1.0}};
  return instance;
}

TEST(Umfl, CostEvaluation) {
  const auto instance = hand_instance();
  EXPECT_DOUBLE_EQ(umfl_cost(instance, {1, 0}), 5.0 + 1.0 + 2.0 + 9.0);
  EXPECT_DOUBLE_EQ(umfl_cost(instance, {0, 1}), 1.0 + 4.0 + 1.0 + 1.0);
  EXPECT_DOUBLE_EQ(umfl_cost(instance, {1, 1}), 6.0 + 1.0 + 1.0 + 1.0);
  EXPECT_EQ(umfl_cost(instance, {0, 0}), kInf);  // clients unserved
}

TEST(Umfl, ExactFindsOptimum) {
  const auto instance = hand_instance();
  const auto best = umfl_exact(instance);
  EXPECT_DOUBLE_EQ(best.cost, 7.0);  // open only facility 1
  EXPECT_EQ(best.open, (std::vector<char>{0, 1}));
}

TEST(Umfl, LocalSearchReachesLocalOptimumWithinGap) {
  Rng rng(601);
  for (int trial = 0; trial < 10; ++trial) {
    // Random metric-ish instance from points on a line.
    const std::size_t f = 4, c = 5;
    UmflInstance instance;
    instance.open_cost.resize(f);
    instance.service.assign(f, std::vector<double>(c));
    std::vector<double> fpos(f), cpos(c);
    for (auto& x : fpos) x = rng.uniform_real(0.0, 10.0);
    for (auto& x : cpos) x = rng.uniform_real(0.0, 10.0);
    for (std::size_t i = 0; i < f; ++i) {
      instance.open_cost[i] = rng.uniform_real(0.0, 5.0);
      for (std::size_t j = 0; j < c; ++j)
        instance.service[i][j] = std::abs(fpos[i] - cpos[j]);
    }
    const auto local = umfl_local_search(instance);
    const auto exact = umfl_exact(instance);
    EXPECT_LE(local.cost, 3.0 * exact.cost + 1e-9)
        << "locality gap 3 violated on metric instance, trial " << trial;
    EXPECT_GE(local.cost, exact.cost - 1e-9);
  }
}

TEST(Umfl, ForcedFacilitiesStayOpen) {
  auto instance = hand_instance();
  instance.forced_open = {1, 0};  // facility 0 pinned
  const auto local = umfl_local_search(instance);
  EXPECT_EQ(local.open[0], 1);
  const auto exact = umfl_exact(instance);
  EXPECT_EQ(exact.open[0], 1);
}

TEST(Umfl, InfiniteOpenCostFacilitiesNeverOpen) {
  auto instance = hand_instance();
  instance.open_cost[0] = kInf;
  const auto local = umfl_local_search(instance);
  EXPECT_EQ(local.open[0], 0);
}

TEST(Theorem3Reduction, CostBijectionHolds) {
  // cost(u, G(S)) == umfl_cost(pi(S)) for arbitrary S (the paper's mapping).
  Rng rng(607);
  for (int trial = 0; trial < 10; ++trial) {
    const Game game(random_metric_host(6, rng), rng.uniform_real(0.4, 2.5));
    const auto profile = random_profile(game, rng);
    const int u = static_cast<int>(rng.uniform_below(6));
    const auto reduction = umfl_from_best_response(game, profile, u);
    // Try the agent's current strategy and two random ones.
    for (int k = 0; k < 3; ++k) {
      NodeSet strategy(6);
      if (k == 0) {
        strategy = profile.strategy(u);
      } else {
        // The paper's bijection pi(S) = S u Z covers strategies disjoint
        // from Z (buying an edge someone else already owns is dominated and
        // breaks the cost identity by the duplicated payment).
        for (int v = 0; v < 6; ++v)
          if (v != u && !profile.buys(v, u) && rng.bernoulli(0.4))
            strategy.insert(v);
      }
      StrategyProfile changed = profile;
      changed.set_strategy(u, strategy);
      const double game_cost = agent_cost(game, changed, u);
      const double fl_cost = umfl_cost(
          reduction.instance, strategy_to_umfl_open(reduction, strategy));
      if (game_cost < kInf)
        EXPECT_NEAR(game_cost, fl_cost, 1e-9 * std::max(1.0, game_cost))
            << "trial " << trial << " k " << k;
      else
        EXPECT_EQ(fl_cost, kInf);
    }
  }
}

TEST(Theorem3Reduction, RoundTripStrategyMapping) {
  Rng rng(613);
  const Game game(random_metric_host(5, rng), 1.0);
  const auto profile = random_profile(game, rng);
  const auto reduction = umfl_from_best_response(game, profile, 2);
  NodeSet strategy(5);
  strategy.insert(0);
  strategy.insert(4);
  const auto open = strategy_to_umfl_open(reduction, strategy);
  UmflSolution solution;
  solution.open = open;
  const auto back = umfl_solution_to_strategy(reduction, solution, 5);
  // The round trip re-derives S = F \ Z, so bought-by-others nodes drop out.
  strategy.for_each([&](int v) {
    if (!profile.buys(v, 2)) {
      EXPECT_TRUE(back.contains(v));
    }
  });
}

TEST(Theorem3Reduction, ApproxBestResponseWithinFactorThree) {
  // Theorem 3's consequence: the UMFL-local-search response costs at most
  // 3x the exact best response on metric hosts.
  Rng rng(617);
  for (int trial = 0; trial < 8; ++trial) {
    const Game game(random_metric_host(6, rng), rng.uniform_real(0.5, 2.0));
    const auto profile = random_profile(game, rng);
    const int u = static_cast<int>(rng.uniform_below(6));
    const NodeSet approx = approx_best_response_umfl(game, profile, u);
    const AgentEnvironment env(game, profile, u);
    const double approx_cost = env.cost_of(approx);
    const auto exact = exact_best_response(game, profile, u);
    EXPECT_LE(approx_cost, 3.0 * exact.cost + 1e-6)
        << "trial " << trial << " agent " << u;
  }
}

TEST(Theorem3Reduction, ApproxResponseNeverWorseThanCurrent) {
  Rng rng(619);
  const Game game(random_metric_host(7, rng), 1.0);
  const auto profile = random_profile(game, rng);
  for (int u = 0; u < 7; ++u) {
    const AgentEnvironment env(game, profile, u);
    const NodeSet approx = approx_best_response_umfl(game, profile, u);
    EXPECT_LE(env.cost_of(approx),
              agent_cost(game, profile, u) + 1e-9);
  }
}

}  // namespace
}  // namespace gncg
