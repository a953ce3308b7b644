// Tests for the NP-hardness gadgets run forwards: the agent's best response
// in the Theorem 13 / 16 gadgets encodes a minimum set cover, and in the
// Theorem 4 gadget an improving move exists exactly when a smaller vertex
// cover exists.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "constructions/hardness_gadgets.hpp"
#include "core/best_response.hpp"
#include "core/equilibrium.hpp"
#include "graph/dijkstra.hpp"
#include "npc/set_cover.hpp"
#include "npc/vertex_cover.hpp"
#include "support/rng.hpp"

namespace gncg {
namespace {

SetCoverInstance hand_cover_instance() {
  SetCoverInstance instance;
  instance.universe_size = 4;
  instance.sets = {{0, 1}, {1, 2}, {2, 3}, {0, 3}};  // min cover = 2
  return instance;
}

void expect_gadget_encodes_min_cover(const SetCoverGadget& gadget) {
  const auto br = exact_best_response(gadget.game, gadget.profile, gadget.agent);
  // (1) best response buys only set nodes,
  const auto cover = gadget_strategy_to_cover(gadget, br.strategy);
  // (2) the bought sets cover the universe,
  EXPECT_TRUE(is_cover(gadget.instance, cover));
  // (3) and exactly as many sets as the exact minimum.
  const auto exact = exact_min_set_cover(gadget.instance);
  ASSERT_TRUE(exact.feasible);
  EXPECT_EQ(cover.size(), exact.chosen.size());
}

/// Random set systems over k = 3..5 elements and m = 3..4 sets.
std::vector<SetCoverInstance> size_grid_cover_instances() {
  Rng rng(20190416);
  std::vector<SetCoverInstance> instances;
  for (int trial = 0; trial < 6; ++trial)
    instances.push_back(
        random_set_cover(3 + trial % 3, 3 + (trial / 2) % 2, 0.45, rng));
  return instances;
}

TEST(Theorem13Gadget, HandInstanceEncodesMinimumCover) {
  expect_gadget_encodes_min_cover(theorem13_gadget(hand_cover_instance()));
}

TEST(Theorem13Gadget, RandomInstancesEncodeMinimumCovers) {
  Rng rng(1001);
  for (int trial = 0; trial < 4; ++trial) {
    const auto instance = random_set_cover(4, 3, 0.4, rng);
    expect_gadget_encodes_min_cover(theorem13_gadget(instance));
  }
  for (const auto& instance : size_grid_cover_instances())
    expect_gadget_encodes_min_cover(theorem13_gadget(instance));
}

TEST(Theorem13Gadget, HostIsATreeMetric) {
  const auto gadget = theorem13_gadget(hand_cover_instance());
  EXPECT_EQ(gadget.game.host().declared_model(), ModelClass::kTree);
  EXPECT_TRUE(gadget.game.host().is_metric());
}

TEST(Theorem13Gadget, AgentDistancesMatchPaperValues) {
  // The proof's anchor values: w(u, a_i) = L, d_G(u, a_i) = 2L - beta and
  // d_G(u, p_j) = 3L - beta (up to the eps arc slack).
  const SetCoverGadgetParams params;
  const auto gadget = theorem13_gadget(hand_cover_instance(), params);
  const auto network = built_graph(gadget.game, gadget.profile);
  const auto from_u = sssp(network, gadget.agent);
  for (int a : gadget.set_nodes) {
    EXPECT_NEAR(gadget.game.weight(gadget.agent, a), params.L, 1e-9);
    EXPECT_NEAR(from_u.dist[static_cast<std::size_t>(a)],
                2.0 * params.L - params.beta, 1e-9);
  }
  for (int p : gadget.element_nodes)
    EXPECT_NEAR(from_u.dist[static_cast<std::size_t>(p)],
                3.0 * params.L - params.beta,
                2.0 * params.eps + 1e-9);
}

TEST(Theorem13Gadget, RejectsBadParameters) {
  SetCoverGadgetParams params;
  params.beta = params.L;  // violates beta < L/3
  EXPECT_THROW(theorem13_gadget(hand_cover_instance(), params),
               ContractViolation);
}

TEST(Theorem16Gadget, EncodesMinimumCoverUnderEuclideanNorm) {
  expect_gadget_encodes_min_cover(theorem16_gadget(hand_cover_instance(), 2.0));
}

TEST(Theorem16Gadget, EncodesMinimumCoverUnderOneNorm) {
  expect_gadget_encodes_min_cover(theorem16_gadget(hand_cover_instance(), 1.0));
}

TEST(Theorem16Gadget, RandomInstancesAcrossNorms) {
  Rng rng(1013);
  for (int trial = 0; trial < 3; ++trial) {
    const auto instance = random_set_cover(4, 3, 0.45, rng);
    const double p = trial == 0 ? 1.0 : (trial == 1 ? 2.0 : 3.0);
    expect_gadget_encodes_min_cover(theorem16_gadget(instance, p));
  }
  for (const auto& instance : size_grid_cover_instances())
    for (double p : {1.0, 2.0})
      expect_gadget_encodes_min_cover(theorem16_gadget(instance, p));
}

TEST(Theorem16Gadget, BlockerGeometryMatchesPaper) {
  // d_G(u, a_i) = 2L - beta via the opposite-ray blocker.
  const SetCoverGadgetParams params;
  const auto gadget = theorem16_gadget(hand_cover_instance(), 2.0, params);
  const int m = static_cast<int>(gadget.instance.set_count());
  for (int i = 0; i < m; ++i) {
    const int a = gadget.set_nodes[static_cast<std::size_t>(i)];
    const int b = 1 + m + i;  // blocker layout in the builder
    EXPECT_NEAR(gadget.game.weight(gadget.agent, b),
                (params.L - params.beta) / 2.0, 1e-9);
    EXPECT_NEAR(gadget.game.weight(b, a), (params.L - params.beta) / 2.0 + params.L,
                1e-6);
  }
}

// ---------------------------------------------------------------- Thm 4

VertexCoverInstance hand_vc_instance() {
  // Path 0-1-2-3: minimum vertex cover {1, 2} of size 2.
  VertexCoverInstance instance;
  instance.n = 4;
  instance.edges = {{0, 1}, {1, 2}, {2, 3}};
  return instance;
}

TEST(Theorem4Gadget, AgentCostMatchesFormula) {
  const auto instance = hand_vc_instance();
  const auto gadget = theorem4_gadget(instance, {1, 2});
  EXPECT_NEAR(agent_cost(gadget.game, gadget.profile, gadget.agent),
              theorem4_agent_cost_formula(instance, 2), 1e-9);
  // A non-minimal cover costs one more per extra vertex.
  const auto bigger = theorem4_gadget(instance, {0, 1, 2});
  EXPECT_NEAR(agent_cost(bigger.game, bigger.profile, bigger.agent),
              theorem4_agent_cost_formula(instance, 3), 1e-9);
}

TEST(Theorem4Gadget, MinimumCoverMakesAgentBestResponse) {
  const auto instance = hand_vc_instance();
  const auto minimum = exact_min_vertex_cover(instance);
  const auto gadget = theorem4_gadget(instance, minimum);
  EXPECT_FALSE(
      has_improving_deviation(gadget.game, gadget.profile, gadget.agent));
}

TEST(Theorem4Gadget, NonMinimumCoverLeavesImprovingMove) {
  const auto instance = hand_vc_instance();
  const auto gadget = theorem4_gadget(instance, {0, 1, 2});  // size 3 > 2
  EXPECT_TRUE(
      has_improving_deviation(gadget.game, gadget.profile, gadget.agent));
}

/// Theorem 4 on one vertex-cover instance: with u playing a minimum cover
/// it has no improving move, with one extra vertex it has one, and u's
/// cost is 3N + 6m + k in both.
void expect_theorem4_equivalence(const VertexCoverInstance& instance) {
  const auto check = [&](const std::vector<int>& cover,
                         bool expect_improving) {
    const auto gadget = theorem4_gadget(instance, cover);
    EXPECT_EQ(has_improving_deviation(gadget.game, gadget.profile,
                                      gadget.agent),
              expect_improving)
        << "cover of " << cover.size();
    EXPECT_NEAR(agent_cost(gadget.game, gadget.profile, gadget.agent),
                theorem4_agent_cost_formula(
                    instance, static_cast<int>(cover.size())),
                1e-9)
        << "cover of " << cover.size();
  };
  const auto minimum = exact_min_vertex_cover(instance);
  check(minimum, /*expect_improving=*/false);
  if (minimum.size() < static_cast<std::size_t>(instance.n)) {
    std::vector<int> bigger = minimum;
    for (int v = 0; v < instance.n; ++v) {
      if (std::find(bigger.begin(), bigger.end(), v) == bigger.end()) {
        bigger.push_back(v);
        break;
      }
    }
    check(bigger, /*expect_improving=*/true);
  }
}

TEST(Theorem4Gadget, EquivalenceOnRandomSubcubicGraphs) {
  Rng rng(1021);
  for (int trial = 0; trial < 3; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    expect_theorem4_equivalence(random_subcubic_graph(4, rng));
  }
  // Four- and five-vertex graphs from a second stream.
  Rng mixed(42);
  for (int trial = 0; trial < 5; ++trial) {
    SCOPED_TRACE("mixed trial " + std::to_string(trial));
    expect_theorem4_equivalence(random_subcubic_graph(4 + trial % 2, mixed));
  }
}

TEST(Theorem4Gadget, OtherAgentsPlayBestResponses) {
  // The proof asserts every agent but u is already at a best response.
  VertexCoverInstance tiny;
  tiny.n = 3;
  tiny.edges = {{0, 1}, {1, 2}};
  const auto gadget = theorem4_gadget(tiny, {1});
  for (int agent = 0; agent < gadget.game.node_count(); ++agent) {
    if (agent == gadget.agent) continue;
    EXPECT_FALSE(has_improving_deviation(gadget.game, gadget.profile, agent))
        << "agent " << agent;
  }
}

TEST(Theorem4Gadget, RejectsNonCovers) {
  EXPECT_THROW(theorem4_gadget(hand_vc_instance(), {0}), ContractViolation);
}

TEST(Theorem4Gadget, HostIsOneTwo) {
  const auto gadget = theorem4_gadget(hand_vc_instance(), {1, 2});
  EXPECT_TRUE(gadget.game.host().is_one_two());
}

}  // namespace
}  // namespace gncg
