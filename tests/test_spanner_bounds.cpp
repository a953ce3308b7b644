// Property tests for the paper's structural lemmas:
//   Lemma 1: every AE is an (alpha+1)-spanner of the host.
//   Lemma 2: the social optimum is an (alpha/2+1)-spanner.
//   Theorem 1 proof engine: per-pair sigma <= (alpha+2)/2 on metric hosts.
//   Theorem 20: sigma <= ((alpha+2)/2)^2 in general.
#include <gtest/gtest.h>

#include "core/dynamics.hpp"
#include "core/equilibrium.hpp"
#include "core/poa.hpp"
#include "core/social_optimum.hpp"
#include "core/spanner_bounds.hpp"
#include "metric/host_graph.hpp"
#include "support/rng.hpp"

namespace gncg {
namespace {

/// Runs add-only dynamics to an AE from a connected random profile.  (The
/// empty profile is vacuously an AE with all-infinite costs -- no single
/// addition can make any agent's cost finite -- and Lemma 1 implicitly
/// speaks about connected outcomes.)
StrategyProfile reach_add_only_equilibrium(const Game& game, Rng& rng) {
  DynamicsOptions options;
  options.rule = MoveRule::kBestAddition;
  options.max_moves = 10000;
  const auto run = run_dynamics(game, random_profile(game, rng), options);
  EXPECT_TRUE(run.converged);
  return run.final_profile;
}

class SpannerBoundsSweep : public ::testing::TestWithParam<double> {};

TEST_P(SpannerBoundsSweep, Lemma1AddOnlyEquilibriaAreAlphaPlusOneSpanners) {
  const double alpha = GetParam();
  Rng rng(801 + static_cast<std::uint64_t>(alpha * 100));
  for (int trial = 0; trial < 4; ++trial) {
    const Game game(random_metric_host(7, rng), alpha);
    const auto ae = reach_add_only_equilibrium(game, rng);
    ASSERT_TRUE(is_add_only_equilibrium(game, ae));
    EXPECT_LE(profile_stretch(game, ae), alpha + 1.0 + 1e-6)
        << "Lemma 1 violated at alpha=" << alpha;
  }
}

TEST_P(SpannerBoundsSweep, Lemma2OptimaAreHalfAlphaPlusOneSpanners) {
  const double alpha = GetParam();
  Rng rng(853 + static_cast<std::uint64_t>(alpha * 100));
  // Three metric hosts, then three 1-2 hosts (also metric).
  for (int trial = 0; trial < 6; ++trial) {
    const Game game(trial < 3 ? random_metric_host(5, rng)
                              : random_one_two_host(5, 0.5, rng),
                    alpha);
    const auto opt = exact_social_optimum(game);
    EXPECT_LE(network_stretch(game, opt.edges), alpha / 2.0 + 1.0 + 1e-6)
        << "Lemma 2 violated at alpha=" << alpha << " trial " << trial;
  }
}

TEST_P(SpannerBoundsSweep, Theorem1SigmaBoundOnMetricEquilibria) {
  const double alpha = GetParam();
  Rng rng(877 + static_cast<std::uint64_t>(alpha * 100));
  // Three metric hosts, then three 1-2 hosts (also metric).
  for (int trial = 0; trial < 6; ++trial) {
    const Game game(trial < 3 ? random_metric_host(5, rng)
                              : random_one_two_host(5, 0.5, rng),
                    alpha);
    DynamicsOptions options;
    options.max_moves = 4000;
    const auto run = run_dynamics(game, random_profile(game, rng), options);
    if (!run.converged) continue;
    if (!is_nash_equilibrium(game, run.final_profile)) continue;
    const auto opt = exact_social_optimum(game);
    const double sigma = max_pair_sigma(game, run.final_profile, opt.edges);
    EXPECT_LE(sigma, paper::metric_poa(alpha) + 1e-6)
        << "per-pair sigma exceeded (alpha+2)/2 on a metric host";
  }
}

INSTANTIATE_TEST_SUITE_P(AlphaGrid, SpannerBoundsSweep,
                         ::testing::Values(0.25, 0.5, 1.0, 2.0, 4.0));

TEST(SpannerBounds, Lemma1AlsoHoldsOnOneTwoHosts) {
  Rng rng(881);
  for (double alpha : {0.5, 1.0, 3.0, 2.0, 4.0}) {
    const Game game(random_one_two_host(7, 0.5, rng), alpha);
    const auto ae = reach_add_only_equilibrium(game, rng);
    EXPECT_LE(profile_stretch(game, ae), alpha + 1.0 + 1e-6);
  }
}

TEST(SpannerBounds, SigmaCanExceedMetricBoundOnGeneralHosts) {
  // The Theorem 20 remark instance: sigma hits ((alpha+2)/2)^2 exactly
  // while metric hosts are capped at (alpha+2)/2.
  const double alpha = 2.0;
  DistanceMatrix weights(3, 0.0);
  weights.set_symmetric(0, 1, 0.0);
  weights.set_symmetric(1, 2, 1.0);
  weights.set_symmetric(0, 2, (alpha + 2.0) / 2.0);
  const Game game(HostGraph::from_weights(std::move(weights)), alpha);
  StrategyProfile ne(3);
  ne.add_buy(0, 1);
  ne.add_buy(0, 2);
  ASSERT_TRUE(is_nash_equilibrium(game, ne));
  const std::vector<Edge> opt{{0, 1, 0.0}, {1, 2, 1.0}};
  const double sigma = max_pair_sigma(game, ne, opt);
  EXPECT_NEAR(sigma, paper::general_poa_upper(alpha), 1e-9);
  EXPECT_GT(sigma, paper::metric_poa(alpha));
}

TEST(SpannerBounds, StretchOfHostItselfIsOne) {
  Rng rng(883);
  const Game game(random_metric_host(5, rng), 1.0);
  std::vector<Edge> all_edges;
  for (int u = 0; u < 5; ++u)
    for (int v = u + 1; v < 5; ++v)
      all_edges.push_back({u, v, game.weight(u, v)});
  EXPECT_NEAR(network_stretch(game, all_edges), 1.0, 1e-9);
}

}  // namespace
}  // namespace gncg
