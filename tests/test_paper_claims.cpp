// The paper's result matrix (Table 1), its open questions (Conjecture 2 and
// NE existence in the M-GNCG) and the Figure 3 / Figure 10 parameter sweeps,
// asserted on small exact instances:
//   * Table 1: for every model class at n = 4, the exact PoA (exhaustive NE
//     enumeration over the exact optimum) respects the model's upper bound
//     and an NE exists; for every weighted class an improving-move cycle is
//     certified by exhaustive improvement-graph analysis and replayed;
//   * Conjecture 2: no seeded general host exceeds (alpha+2)/2;
//   * every seeded metric host admits a pure NE;
//   * Figures 3 and 10 run through the sweep orchestrator as registered
//     scenarios: every equilibrium claim verifies and the measured ratio
//     climbs towards its limit.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "core/dynamics.hpp"
#include "core/equilibrium_search.hpp"
#include "core/fip.hpp"
#include "core/poa.hpp"
#include "core/social_optimum.hpp"
#include "metric/host_graph.hpp"
#include "metric/points.hpp"
#include "metric/tree.hpp"
#include "support/rng.hpp"
#include "sweep/runner.hpp"

namespace gncg {
namespace {

/// Exact PoA of `game`: worst enumerated NE over the exact optimum.  Fails
/// the test when the game has no pure NE.
double exact_poa(const Game& game) {
  const auto equilibria = enumerate_nash_equilibria(game);
  EXPECT_FALSE(equilibria.empty()) << "no pure NE";
  if (equilibria.empty()) return 0.0;
  const auto opt = exact_social_optimum(game);
  return estimate_poa(equilibria, opt.cost.total(), true).poa;
}

// ---------------------------------------------------------------- Table 1

/// One row of Table 1: a model class, how to draw a small random host of
/// it, and the paper's PoA upper bound for it.
struct ModelClassRow {
  std::string name;
  std::function<HostGraph(Rng&)> sample;
  double (*poa_bound)(double alpha);
  std::uint64_t seed;
};

std::vector<ModelClassRow> unweighted_rows() {
  return {
      {"NCG", [](Rng&) { return HostGraph::unit(4); }, paper::metric_poa, 11},
      {"OneTwo", [](Rng& r) { return random_one_two_host(4, 0.5, r); },
       paper::metric_poa, 12},
      {"OneInf", [](Rng& r) { return random_one_inf_host(4, 0.7, r); },
       paper::general_poa_upper, 13},
  };
}

/// The weighted classes: the paper proves (or, for p = 2, conjectures) that
/// none of them has the FIP, and n = 4 already shows a cycle.
std::vector<ModelClassRow> weighted_rows() {
  return {
      {"Tree",
       [](Rng& r) { return HostGraph::from_tree(random_tree(4, r, 1.0, 6.0)); },
       paper::metric_poa, 14},
      {"RdOneNorm",
       [](Rng& r) {
         return HostGraph::from_points(uniform_points(4, 2, 10.0, r), 1.0);
       },
       paper::metric_poa, 15},
      {"RdTwoNorm",
       [](Rng& r) {
         return HostGraph::from_points(uniform_points(4, 2, 10.0, r), 2.0);
       },
       paper::metric_poa, 16},
      {"Metric", [](Rng& r) { return random_metric_host(4, r); },
       paper::metric_poa, 17},
      {"General", [](Rng& r) { return random_general_host(4, r); },
       paper::general_poa_upper, 18},
  };
}

std::vector<ModelClassRow> all_rows() {
  auto rows = unweighted_rows();
  for (auto& row : weighted_rows()) rows.push_back(std::move(row));
  return rows;
}

using Table1Cell = std::tuple<ModelClassRow, double>;

std::string cell_name(const ::testing::TestParamInfo<Table1Cell>& info) {
  const auto& [row, alpha] = info.param;
  const int tenths = static_cast<int>(std::lround(alpha * 10));
  return row.name + "_alpha" + std::to_string(tenths / 10) + "_" +
         std::to_string(tenths % 10);
}

class Table1PoaCell : public ::testing::TestWithParam<Table1Cell> {};

TEST_P(Table1PoaCell, ExactPoaWithinBoundAndNashExists) {
  const auto& [row, alpha] = GetParam();
  Rng rng(row.seed * 100 + static_cast<std::uint64_t>(alpha * 10));
  for (int trial = 0; trial < 3; ++trial) {
    const Game game(row.sample(rng), alpha);
    EXPECT_LE(exact_poa(game), row.poa_bound(alpha) + 1e-9)
        << row.name << " trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Table1, Table1PoaCell,
                         ::testing::Combine(::testing::ValuesIn(all_rows()),
                                            ::testing::Values(0.5, 1.0, 2.0)),
                         cell_name);

class Table1NoFipCell : public ::testing::TestWithParam<Table1Cell> {};

TEST_P(Table1NoFipCell, ImprovingMoveCycleIsCertified) {
  const auto& [row, alpha] = GetParam();
  Rng rng(row.seed * 100 + static_cast<std::uint64_t>(alpha * 10));
  for (int trial = 0; trial < 20; ++trial) {
    const Game game(row.sample(rng), alpha);
    const auto analysis = exhaustive_fip_analysis(game);
    if (!analysis.cycle_found) continue;
    EXPECT_GE(analysis.cycle.size(), 2u);
    EXPECT_TRUE(verify_improvement_cycle(game, analysis.cycle_start,
                                         analysis.cycle,
                                         /*require_best_response=*/false))
        << row.name << " trial " << trial;
    return;
  }
  ADD_FAILURE() << "no improving-move cycle on 20 " << row.name
                << " instances at alpha " << alpha;
}

INSTANTIATE_TEST_SUITE_P(
    Table1, Table1NoFipCell,
    ::testing::Combine(::testing::ValuesIn(weighted_rows()),
                       ::testing::Values(0.5, 1.0, 2.0)),
    cell_name);

// ---------------------------------------------------------- open questions

TEST(Conjecture2, GeneralHostsStayWithinMetricBound) {
  // Conjecture 2: the GNCG's PoA is (alpha+2)/2, not the proved square.
  Rng rng(2101);
  for (double alpha : {0.5, 1.0, 2.0, 4.0})
    for (int trial = 0; trial < 12; ++trial) {
      const Game game(random_general_host(4, rng), alpha);
      EXPECT_LE(exact_poa(game), paper::metric_poa(alpha) + 1e-9)
          << "alpha " << alpha << " trial " << trial;
    }
}

TEST(MetricNashExistence, SeededMetricHostsAdmitPureNash) {
  // Open in the paper: do pure NE always exist in the M-GNCG?
  Rng rng(2111);
  for (double alpha : {0.5, 1.0, 2.0, 4.0})
    for (int trial = 0; trial < 15; ++trial) {
      const Game game(random_metric_host(4, rng), alpha);
      EXPECT_FALSE(enumerate_nash_equilibria(game).empty())
          << "alpha " << alpha << " trial " << trial;
    }
}

// ------------------------------------------------- Figures 3 and 10 sweeps

/// Runs a one-scenario plan and returns its rows grouped by alpha, each
/// group in increasing n (the plan expands n-major, alpha-minor).
std::vector<std::vector<ScenarioRow>> rows_by_alpha(const SweepPlan& plan) {
  const SweepReport report = run_sweep(plan);
  EXPECT_EQ(report.outcomes.size(), plan.ns.size() * plan.alphas.size());
  std::vector<std::vector<ScenarioRow>> groups(plan.alphas.size());
  for (std::size_t a = 0; a < plan.alphas.size(); ++a)
    for (const int n : plan.ns)
      for (const SweepOutcome& outcome : report.outcomes)
        if (outcome.point.n == n && outcome.point.alpha == plan.alphas[a]) {
          EXPECT_EQ(outcome.result.rows.size(), 1u);
          groups[a].push_back(outcome.result.rows.front());
        }
  return groups;
}

TEST(Figure3Sweep, OneTwoRatioClimbsTowardsTheorem8Limit) {
  SweepPlan plan;
  plan.scenarios = {"fig3_onetwo_poa"};
  plan.hosts = {"dense"};
  plan.ns = {2, 3, 4, 6, 8, 10, 12};  // the clique parameter N
  plan.alphas = {0.5, 0.75, 1.0};
  const auto groups = rows_by_alpha(plan);
  for (std::size_t a = 0; a < plan.alphas.size(); ++a) {
    const double alpha = plan.alphas[a];
    const double limit = alpha == 1.0 ? 1.5 : 3.0 / (alpha + 2.0);
    ASSERT_EQ(groups[a].size(), plan.ns.size());
    double previous = 0.0;
    for (const ScenarioRow& row : groups[a]) {
      SCOPED_TRACE("alpha " + std::to_string(alpha) + " N " +
                   std::to_string(row.metric_or_nan("N")));
      EXPECT_EQ(row.tag_or_empty("equilibrium_check").rfind("NOT", 0),
                std::string::npos);
      EXPECT_DOUBLE_EQ(row.metric_or_nan("paper_limit"), limit);
      const double ratio = row.metric_or_nan("measured_ratio");
      EXPECT_GT(ratio, previous);
      EXPECT_LT(ratio, limit);
      previous = ratio;
    }
  }
}

TEST(Figure10Sweep, OneNormRatioMatchesTheorem19AndClimbsWithDimension) {
  SweepPlan plan;
  plan.scenarios = {"fig10_dimension"};
  plan.hosts = {"euclidean"};
  plan.ns = {1, 2, 3, 4, 6, 8, 12};  // the dimension d
  plan.alphas = {0.5, 1.0, 2.0, 4.0};
  plan.norm_ps = {1.0};
  const auto groups = rows_by_alpha(plan);
  for (std::size_t a = 0; a < plan.alphas.size(); ++a) {
    const double alpha = plan.alphas[a];
    ASSERT_EQ(groups[a].size(), plan.ns.size());
    double previous = 0.0;
    for (const ScenarioRow& row : groups[a]) {
      SCOPED_TRACE("alpha " + std::to_string(alpha) + " d " +
                   std::to_string(row.metric_or_nan("d")));
      EXPECT_EQ(row.tag_or_empty("ne_check").rfind("NOT", 0),
                std::string::npos);
      EXPECT_EQ(row.tag_or_empty("agreement"), "ok");
      EXPECT_DOUBLE_EQ(row.metric_or_nan("metric_limit"),
                       paper::metric_poa(alpha));
      const double ratio = row.metric_or_nan("measured_ratio");
      EXPECT_GT(ratio, previous);
      EXPECT_LT(ratio, paper::metric_poa(alpha));
      previous = ratio;
    }
  }
}

}  // namespace
}  // namespace gncg
