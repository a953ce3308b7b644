// Tests for NE enumeration, sampling and PoA estimation -- including the
// Theorem 9 statement (PoA = 1 for the 1-2-GNCG with alpha < 1/2).
#include <gtest/gtest.h>

#include <algorithm>

#include "core/equilibrium.hpp"
#include "core/equilibrium_search.hpp"
#include "core/poa.hpp"
#include "core/social_optimum.hpp"
#include "metric/host_graph.hpp"
#include "support/rng.hpp"

namespace gncg {
namespace {

TEST(Enumeration, FindsStarEquilibriaOnUnitHost) {
  // NCG, n=4, alpha = 3: stars are NE; enumeration must find some NE and
  // every reported profile must pass the exact check.
  const Game game(HostGraph::unit(4), 3.0);
  const auto set = enumerate_nash_equilibria(game);
  EXPECT_TRUE(set.exhaustive);
  ASSERT_FALSE(set.empty());
  for (const auto& profile : set.profiles)
    EXPECT_TRUE(is_nash_equilibrium(game, profile));
  // The star centered at 0 (owned by 0) must be among them.
  const auto star = star_profile(game, 0);
  EXPECT_NE(std::find(set.profiles.begin(), set.profiles.end(), star),
            set.profiles.end());
}

TEST(Enumeration, CostsAlignWithProfiles) {
  Rng rng(701);
  const Game game(random_one_two_host(4, 0.5, rng), 1.5);
  const auto set = enumerate_nash_equilibria(game);
  ASSERT_EQ(set.profiles.size(), set.social_costs.size());
  for (std::size_t i = 0; i < set.profiles.size(); ++i)
    EXPECT_NEAR(set.social_costs[i], social_cost(game, set.profiles[i]), 1e-9);
}

TEST(Enumeration, RespectsStateCap) {
  const Game game(HostGraph::unit(8), 1.0);  // 3^28 states
  EnumerationOptions options;
  options.max_states = 1000;
  EXPECT_THROW(enumerate_nash_equilibria(game, options), ContractViolation);
}

TEST(Enumeration, Theorem9PoaIsOneForTinyAlpha) {
  // alpha < 1/2 in the 1-2-GNCG: every NE equals the Algorithm 1 optimum.
  Rng rng(709);
  for (int trial = 0; trial < 7; ++trial) {
    const double alpha = rng.uniform_real(0.05, 0.49);
    const int n = trial < 4 ? 4 : 5;
    const Game game(random_one_two_host(n, 0.5, rng), alpha);
    const auto set = enumerate_nash_equilibria(game);
    const auto opt = algorithm1_one_two(game);
    ASSERT_FALSE(set.empty()) << "Theorem 9 also promises NE existence";
    const auto estimate = estimate_poa(set, opt.cost.total(), true);
    EXPECT_NEAR(estimate.poa, 1.0, 1e-9) << "alpha=" << alpha;
    EXPECT_NEAR(estimate.pos, 1.0, 1e-9);
  }
}

TEST(Enumeration, MetricPoaRespectsTheorem1Bound) {
  Rng rng(719);
  for (int trial = 0; trial < 4; ++trial) {
    const double alpha = rng.uniform_real(0.3, 3.0);
    const Game game(random_metric_host(4, rng), alpha);
    const auto set = enumerate_nash_equilibria(game);
    if (set.empty()) continue;
    const auto opt = exact_social_optimum(game);
    const auto estimate = estimate_poa(set, opt.cost.total(), true);
    EXPECT_LE(estimate.poa, paper::metric_poa(alpha) + 1e-6)
        << "Theorem 1 upper bound violated, alpha=" << alpha;
    EXPECT_LE(estimate.pos, estimate.poa + 1e-12);
    EXPECT_GE(estimate.pos, 1.0 - 1e-9);
  }
}

TEST(Sampling, SampledProfilesAreNash) {
  Rng rng(727);
  const Game game(random_metric_host(5, rng), 1.0);
  SamplingOptions options;
  options.attempts = 20;
  options.seed = 99;
  const auto set = sample_equilibria(game, options);
  for (const auto& profile : set.profiles)
    EXPECT_TRUE(is_nash_equilibrium(game, profile));
  EXPECT_FALSE(set.exhaustive);
}

TEST(Sampling, Theorem9SampledEquilibriaCostTheOptimum) {
  // Theorem 9 beyond exhaustive sizes: every NE that best-response
  // dynamics reach on a larger 1-2 host at alpha < 1/2 costs exactly the
  // Algorithm 1 optimum.
  Rng rng(739);
  for (int n : {8, 10}) {
    const double alpha = rng.uniform_real(0.1, 0.45);
    const Game game(random_one_two_host(n, 0.5, rng), alpha);
    SamplingOptions options;
    options.attempts = 10;
    options.seed = rng();
    options.verify_exact_ne = n <= 8;
    const auto set = sample_equilibria(game, options);
    ASSERT_FALSE(set.empty()) << "n=" << n;
    const double optimum = algorithm1_one_two(game).cost.total();
    for (double cost : set.social_costs)
      EXPECT_NEAR(cost, optimum, 1e-6) << "n=" << n << " alpha=" << alpha;
  }
}

TEST(Sampling, DeduplicatesConvergedProfiles) {
  const Game game(HostGraph::unit(4), 3.0);
  SamplingOptions options;
  options.attempts = 30;
  options.seed = 3;
  const auto set = sample_equilibria(game, options);
  for (std::size_t i = 0; i < set.profiles.size(); ++i)
    for (std::size_t j = i + 1; j < set.profiles.size(); ++j)
      EXPECT_FALSE(set.profiles[i] == set.profiles[j]);
}

TEST(Sampling, SubsetOfEnumeration) {
  Rng rng(733);
  const Game game(random_one_two_host(4, 0.6, rng), 2.0);
  const auto all = enumerate_nash_equilibria(game);
  SamplingOptions options;
  options.attempts = 15;
  const auto sampled = sample_equilibria(game, options);
  for (const auto& profile : sampled.profiles)
    EXPECT_NE(std::find(all.profiles.begin(), all.profiles.end(), profile),
              all.profiles.end());
}

TEST(PoaEstimate, HandlesEmptySet) {
  EquilibriumSet empty;
  const auto estimate = estimate_poa(empty, 10.0, true);
  EXPECT_EQ(estimate.equilibrium_count, 0u);
  EXPECT_EQ(estimate.poa, 0.0);
}

}  // namespace
}  // namespace gncg
