// Tests for the paper's lower-bound constructions: every claimed
// equilibrium is verified exactly (for small sizes), every claimed optimum
// is cross-checked against the exact optimum, and every closed-form ratio
// is reproduced numerically.
#include <gtest/gtest.h>

#include <cmath>

#include "constructions/ratio_constructions.hpp"
#include "core/equilibrium.hpp"
#include "core/equilibrium_search.hpp"
#include "core/poa.hpp"
#include "core/social_optimum.hpp"
#include "core/spanner_bounds.hpp"
#include "graph/graph_algos.hpp"
#include "metric/host_graph.hpp"
#include "support/rng.hpp"

namespace gncg {
namespace {

double construction_ratio(const RatioConstruction& c) {
  return social_cost(c.game, c.equilibrium) /
         network_social_cost(c.game, c.optimum);
}

// ---------------------------------------------------------------- Thm 15

class Theorem15Sweep
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(Theorem15Sweep, StarIsNashAndRatioMatchesFormula) {
  const auto [n, alpha] = GetParam();
  const auto c = theorem15_construction(n, alpha);
  // The equilibrium claim is verified exactly while the per-agent search
  // is small, as greedy stability (Theorem 3's 3-approximation) to n = 64,
  // and through the closed form beyond.
  if (n <= 8) {
    EXPECT_TRUE(is_nash_equilibrium(c.game, c.equilibrium))
        << "n=" << n << " alpha=" << alpha;
  } else if (n <= 64) {
    EXPECT_TRUE(is_greedy_equilibrium(c.game, c.equilibrium))
        << "n=" << n << " alpha=" << alpha;
  }
  EXPECT_NEAR(construction_ratio(c), c.expected_ratio, 1e-9);
  EXPECT_NEAR(c.expected_ratio, paper::theorem15_ratio(n, alpha), 0.0);
  EXPECT_LT(c.expected_ratio, paper::metric_poa(alpha));
}

INSTANTIATE_TEST_SUITE_P(
    SmallSizes, Theorem15Sweep,
    ::testing::Combine(::testing::Values(4, 6, 8, 16, 32, 64, 128, 256),
                       ::testing::Values(0.5, 1.0, 2.0, 4.0, 8.0, 32.0)));

TEST(Theorem15, TreeIsOptimumAndRatioTendsToMetricPoa) {
  const double alpha = 2.0;
  const auto small = theorem15_construction(5, alpha);
  const auto exact = exact_social_optimum(small.game);
  EXPECT_NEAR(network_social_cost(small.game, small.optimum),
              exact.cost.total(), 1e-9)
      << "the defining tree should be the social optimum (Cor 3)";
  // Ratio increases towards (alpha+2)/2 with n.
  const double r64 = construction_ratio(theorem15_construction(64, alpha));
  const double r256 = construction_ratio(theorem15_construction(256, alpha));
  EXPECT_LT(r64, r256);
  EXPECT_LT(r256, paper::metric_poa(alpha));
  EXPECT_GT(r256, 0.97 * paper::metric_poa(alpha));
}

// ---------------------------------------------------------------- Thm 8

TEST(Theorem8, EquilibriumVerifiedExactlyAtSmallN) {
  for (double alpha : {0.5, 0.75, 1.0}) {
    const auto c = theorem8_construction(2, alpha);
    EXPECT_TRUE(is_nash_equilibrium(c.game, c.equilibrium))
        << "alpha=" << alpha;
  }
}

TEST(Theorem8, GreedyStableAtMediumN) {
  const auto c = theorem8_construction(3, 1.0);
  EXPECT_TRUE(is_greedy_equilibrium(c.game, c.equilibrium));
}

TEST(Theorem8, OptimumIsAlgorithmOneAndRatioApproachesLimit) {
  // At alpha = 1 the ratio tends to 3/2; at alpha = 0.5 to 3/2.5 = 1.2.
  for (double alpha : {1.0, 0.5}) {
    const double small = [&] {
      const auto c = theorem8_construction(3, alpha);
      return construction_ratio(c);
    }();
    const double large = [&] {
      const auto c = theorem8_construction(8, alpha);
      return construction_ratio(c);
    }();
    const double limit = alpha == 1.0 ? 1.5 : 3.0 / (alpha + 2.0);
    EXPECT_GT(large, small) << "ratio should grow with N";
    EXPECT_LT(large, limit + 1e-9);
    EXPECT_GT(large, 0.85 * limit);
  }
}

TEST(Theorem8, HostIsOneTwoMetric) {
  const auto c = theorem8_construction(3, 1.0);
  EXPECT_TRUE(c.game.host().is_one_two());
  EXPECT_TRUE(c.game.host().is_metric());
}

// ---------------------------------------------------------------- Lemma 8 / Thm 18

TEST(Lemma8, StarIsNashOnGeometricPath) {
  for (int nodes : {3, 4, 6, 8})
    for (double alpha : {0.5, 1.0, 2.0, 4.0}) {
      const auto c = lemma8_construction(nodes, alpha);
      EXPECT_TRUE(is_nash_equilibrium(c.game, c.equilibrium))
          << "nodes=" << nodes << " alpha=" << alpha;
    }
}

TEST(Lemma8, RatioExceedsOne) {
  for (int nodes : {3, 4, 6, 8, 12, 16})
    for (double alpha : {0.5, 1.0, 1.5, 2.0, 4.0}) {
      const auto c = lemma8_construction(nodes, alpha);
      EXPECT_GT(construction_ratio(c), 1.0)
          << "nodes=" << nodes << " alpha=" << alpha;
    }
}

TEST(Lemma8, PathIsOptimalForSmallInstances) {
  for (int nodes : {3, 4, 5, 6})
    for (double alpha : {0.5, 1.0, 2.0, 4.0}) {
      const auto c = lemma8_construction(nodes, alpha);
      const auto exact = exact_social_optimum(c.game);
      EXPECT_NEAR(network_social_cost(c.game, c.optimum), exact.cost.total(),
                  1e-6)
          << "nodes=" << nodes << " alpha=" << alpha;
    }
}

TEST(Lemma8, StarWeightsFollowGeometricLaw) {
  const double alpha = 2.0;
  const auto c = lemma8_construction(6, alpha);
  for (int i = 1; i < 6; ++i)
    EXPECT_NEAR(c.game.weight(0, i), std::pow(1.0 + 2.0 / alpha, i - 1),
                1e-9);
}

TEST(Theorem18, FourNodeRatioMatchesClosedForm) {
  for (double alpha : {0.25, 0.5, 1.0, 2.0, 4.0, 5.0, 8.0, 16.0, 20.0, 64.0,
                       256.0, 4096.0}) {
    const auto c = theorem18_construction(alpha);
    EXPECT_TRUE(is_nash_equilibrium(c.game, c.equilibrium));
    EXPECT_NEAR(construction_ratio(c), paper::theorem18_lower(alpha), 1e-9)
        << "alpha=" << alpha;
  }
}

TEST(Theorem18, LimitIsThreeForLargeAlpha) {
  EXPECT_NEAR(paper::theorem18_lower(1e9), 3.0, 1e-6);
  EXPECT_GT(paper::theorem18_lower(1.0), 1.0);
}

// ---------------------------------------------------------------- Thm 19

class Theorem19Sweep
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(Theorem19Sweep, StarIsNashAndRatioMatchesFormula) {
  const auto [d, alpha] = GetParam();
  const auto c = theorem19_construction(d, alpha);
  EXPECT_EQ(c.game.node_count(), 2 * d + 1);
  EXPECT_TRUE(is_nash_equilibrium(c.game, c.equilibrium))
      << "d=" << d << " alpha=" << alpha;
  EXPECT_NEAR(construction_ratio(c), paper::theorem19_lower(alpha, d), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    SmallDims, Theorem19Sweep,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(0.5, 1.0, 2.0)));

TEST(Theorem19, RatioApproachesMetricPoaWithDimension) {
  const double alpha = 3.0;
  const double r2 = paper::theorem19_lower(alpha, 2);
  const double r8 = paper::theorem19_lower(alpha, 8);
  const double r64 = paper::theorem19_lower(alpha, 64);
  EXPECT_LT(r2, r8);
  EXPECT_LT(r8, r64);
  EXPECT_LT(r64, paper::metric_poa(alpha));
  EXPECT_GT(r64, 0.95 * paper::metric_poa(alpha));
  // And the measured ratio matches the formula at a moderate dimension.
  const auto c = theorem19_construction(5, alpha);
  EXPECT_NEAR(construction_ratio(c), r2 * 0 + paper::theorem19_lower(alpha, 5),
              1e-9);
}

TEST(Theorem19, OriginStarIsOptimalForSmallDims) {
  const auto c = theorem19_construction(2, 1.0);
  const auto exact = exact_social_optimum(c.game);
  EXPECT_NEAR(network_social_cost(c.game, c.optimum), exact.cost.total(),
              1e-6);
}

// ---------------------------------------------------------------- Thm 20 remark

TEST(Theorem20Remark, EquilibriumRatioAndSigma) {
  // The realized cost ratio -- and the exact PoA over every NE -- is only
  // (alpha+2)/2, while the proof's per-pair sigma reaches the square.
  for (double alpha : {0.5, 1.0, 2.0, 4.0}) {
    const auto c = theorem20_remark_construction(alpha);
    EXPECT_FALSE(c.game.host().is_metric());
    EXPECT_TRUE(is_nash_equilibrium(c.game, c.equilibrium))
        << "alpha=" << alpha;
    EXPECT_NEAR(construction_ratio(c), paper::metric_poa(alpha), 1e-9);
    const auto equilibria = enumerate_nash_equilibria(c.game);
    const auto opt = exact_social_optimum(c.game);
    EXPECT_NEAR(estimate_poa(equilibria, opt.cost.total(), true).poa,
                paper::metric_poa(alpha), 1e-9)
        << "alpha=" << alpha;
    EXPECT_NEAR(max_pair_sigma(c.game, c.equilibrium, c.optimum),
                paper::general_poa_upper(alpha), 1e-9)
        << "alpha=" << alpha;
  }
}

TEST(Theorem20Remark, OptimumPathIsExactOptimum) {
  const auto c = theorem20_remark_construction(1.5);
  const auto exact = exact_social_optimum(c.game);
  EXPECT_NEAR(network_social_cost(c.game, c.optimum), exact.cost.total(),
              1e-9);
}

// ---------------------------------------------------------------- Thm 10

TEST(Theorem10, StarsAreNashOnOneTwoHostsForAlphaAtLeastThree) {
  Rng rng(909);
  for (int trial = 0; trial < 6; ++trial) {
    const double alpha = 3.0 + rng.uniform_real(0.0, 5.0);
    const Game game(random_one_two_host(6, rng.uniform01(), rng), alpha);
    const auto star = star_profile(game, static_cast<int>(rng.uniform_below(6)));
    EXPECT_TRUE(is_nash_equilibrium(game, star))
        << "alpha=" << alpha << " trial=" << trial;
  }
  // The boundary alpha = 3 and a larger alpha, at n = 7.
  for (double alpha : {3.0, 5.0, 10.0}) {
    const Game game(random_one_two_host(7, 0.5, rng), alpha);
    EXPECT_TRUE(is_nash_equilibrium(game, star_profile(game, 0)))
        << "alpha=" << alpha << " n=7";
  }
}

TEST(Theorem10, StarsCanFailBelowThree) {
  // At small alpha the star is generally unstable (leaves want shortcuts).
  Rng rng(911);
  int failures = 0;
  for (int trial = 0; trial < 8; ++trial) {
    const Game game(random_one_two_host(6, 0.7, rng), 0.4);
    if (!is_nash_equilibrium(game, star_profile(game, 0))) ++failures;
  }
  EXPECT_GT(failures, 0);
}

}  // namespace
}  // namespace gncg
