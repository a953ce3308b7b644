// CSR adjacency slab: unit tests for the relocation / compaction machinery
// and the differential fuzz contract behind DeviationEngine::adjacency().
//
// The load-bearing property: after ANY sequence of engine mutations
// (add_buy / remove_buy / set_strategy / apply_move / set_profile), the CSR
// slab enumerates, per node, exactly the neighbor multiset of a from-scratch
// build_adjacency on the same profile -- including the double-ownership
// collapse rule (a doubly-owned edge appears once, emitted by the
// smaller-id owner).  This is what every bitwise engine-vs-naive
// differential in test_deviation_engine.cpp silently rides on.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "core/deviation_engine.hpp"
#include "core/game.hpp"
#include "core/profile_gen.hpp"
#include "graph/csr_adjacency.hpp"
#include "metric/host_graph.hpp"
#include "metric/points.hpp"
#include "metric/tree.hpp"
#include "support/rng.hpp"

namespace gncg {
namespace {

using Entry = std::pair<int, double>;

std::vector<Entry> sorted_entries(std::span<const Neighbor> span) {
  std::vector<Entry> out;
  out.reserve(span.size());
  for (const auto& nb : span) out.emplace_back(nb.to, nb.weight);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Entry> sorted_entries(const std::vector<Neighbor>& list) {
  return sorted_entries(std::span<const Neighbor>(list.data(), list.size()));
}

/// Asserts that the engine's CSR adjacency matches a from-scratch
/// build_adjacency of the engine's current profile, node by node.
void expect_matches_rebuild(const DeviationEngine& engine) {
  const auto reference = build_adjacency(engine.game(), engine.profile());
  const CsrAdjacency& csr = engine.adjacency();
  ASSERT_EQ(csr.node_count(), static_cast<int>(reference.size()));
  for (int u = 0; u < csr.node_count(); ++u) {
    SCOPED_TRACE(::testing::Message() << "node " << u);
    const auto& ref = reference[static_cast<std::size_t>(u)];
    ASSERT_EQ(csr.degree(u), static_cast<int>(ref.size()));
    EXPECT_EQ(sorted_entries(csr.neighbors(u)), sorted_entries(ref));
  }
}

// --- raw slab unit tests ---------------------------------------------------

TEST(CsrAdjacency, AddBeyondSlackRelocatesAndPreservesEntries) {
  CsrAdjacency csr;
  csr.begin_rebuild(40);
  csr.finish_counts();  // every node starts with an empty slice
  // Node 0 grows far past any initial slack: forces repeated relocation.
  for (int v = 1; v < 40; ++v) csr.add_half(0, v, static_cast<double>(v));
  EXPECT_EQ(csr.degree(0), 39);
  EXPECT_GT(csr.relocations(), 0u);
  std::vector<Entry> expected;
  for (int v = 1; v < 40; ++v) expected.emplace_back(v, static_cast<double>(v));
  EXPECT_EQ(sorted_entries(csr.neighbors(0)), expected);
  // Enumeration order is append order: never permuted by relocation.
  const auto span = csr.neighbors(0);
  for (int i = 0; i < 39; ++i) EXPECT_EQ(span[static_cast<std::size_t>(i)].to, i + 1);
}

TEST(CsrAdjacency, RemoveIsSwapWithLastWithinSlice) {
  CsrAdjacency csr;
  csr.begin_rebuild(5);
  csr.finish_counts();
  for (int v = 1; v < 5; ++v) csr.add_half(0, v, 1.0);
  csr.remove_half(0, 2);  // last entry (4) takes slot of 2
  const auto span = csr.neighbors(0);
  ASSERT_EQ(span.size(), 3u);
  EXPECT_EQ(span[0].to, 1);
  EXPECT_EQ(span[1].to, 4);
  EXPECT_EQ(span[2].to, 3);
}

TEST(CsrAdjacency, GrowShrinkChurnTriggersCompaction) {
  CsrAdjacency csr;
  csr.begin_rebuild(8);
  csr.finish_counts();
  // Repeatedly inflate then deflate node degrees: every inflation past the
  // slack relocates a slice and strands its old slots, so dead space keeps
  // accumulating until the compaction threshold trips.
  Rng rng(7);
  for (int round = 0; round < 60; ++round) {
    const int u = static_cast<int>(rng.uniform_below(8));
    std::vector<int> added;
    for (int v = 0; v < 8; ++v) {
      if (v == u) continue;
      csr.add_half(u, v, 1.0 + v);
      added.push_back(v);
    }
    for (int v : added) csr.remove_half(u, v);
    EXPECT_EQ(csr.degree(u), 0);
  }
  EXPECT_GT(csr.compactions(), 0u);
  // After all the churn every node is empty and the invariants still hold.
  for (int u = 0; u < 8; ++u) EXPECT_EQ(csr.degree(u), 0);
  // Dead space is bounded by the compaction threshold (a third of the slab).
  EXPECT_LE(csr.dead_entries() * 3, csr.slab_entries());
}

TEST(CsrAdjacency, CompactionPreservesPerNodeOrder) {
  CsrAdjacency csr;
  csr.begin_rebuild(6);
  csr.finish_counts();
  // Node 5 keeps a fixed, ordered list while nodes 0..4 churn hard enough
  // to force compactions around it.
  for (int v = 0; v < 5; ++v) csr.add_half(5, v, 10.0 + v);
  const std::uint64_t before = csr.compactions();
  for (int round = 0; round < 40; ++round) {
    for (int u = 0; u < 5; ++u)
      for (int v = 0; v < 6; ++v) {
        if (v == u) continue;
        csr.add_half(u, v, 1.0);
      }
    for (int u = 0; u < 5; ++u)
      for (int v = 0; v < 6; ++v) {
        if (v == u) continue;
        csr.remove_half(u, v);
      }
  }
  EXPECT_GT(csr.compactions(), before);
  const auto span = csr.neighbors(5);
  ASSERT_EQ(span.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(span[static_cast<std::size_t>(i)].to, i);
    EXPECT_DOUBLE_EQ(span[static_cast<std::size_t>(i)].weight, 10.0 + i);
  }
}

TEST(CsrAdjacency, RebuildReusesSlabAndMatchesIncremental) {
  CsrAdjacency incremental;
  incremental.begin_rebuild(4);
  incremental.finish_counts();
  incremental.link(0, 1, 1.0);
  incremental.link(1, 2, 2.0);
  incremental.link(2, 3, 3.0);

  CsrAdjacency rebuilt;
  rebuilt.begin_rebuild(4);
  const int edges[3][2] = {{0, 1}, {1, 2}, {2, 3}};
  for (const auto& e : edges) {
    rebuilt.count_half(e[0]);
    rebuilt.count_half(e[1]);
  }
  rebuilt.finish_counts();
  double w = 1.0;
  for (const auto& e : edges) {
    rebuilt.fill_half(e[0], e[1], w);
    rebuilt.fill_half(e[1], e[0], w);
    w += 1.0;
  }
  for (int u = 0; u < 4; ++u)
    EXPECT_EQ(sorted_entries(incremental.neighbors(u)),
              sorted_entries(rebuilt.neighbors(u)));
}

// --- differential fuzz vs build_adjacency ----------------------------------

HostGraph random_host(int family, int n, Rng& rng) {
  switch (family) {
    case 0:
      return random_one_two_host(n, 0.5, rng);
    case 1: {  // lazy general integer host (LazyHostBackend path)
      DistanceMatrix weights(n, 0.0);
      for (int u = 0; u < n; ++u)
        for (int v = u + 1; v < n; ++v)
          weights.set_symmetric(u, v,
                                static_cast<double>(rng.uniform_int(1, 9)));
      return HostGraph::from_weights_lazy(std::move(weights),
                                          ModelClass::kGeneral);
    }
    case 2:
      return HostGraph::from_points(uniform_points(n, 2, 100.0, rng),
                                    /*p=*/2.0);
    default:
      return HostGraph::from_tree(random_tree(n, rng));
  }
}

TEST(CsrAdjacencyDifferential, RandomMutationSequencesMatchBuildAdjacency) {
  Rng rng(424242);
  for (int round = 0; round < 16; ++round) {
    const int family = round % 4;
    const int n = 5 + static_cast<int>(rng.uniform_below(8));
    const Game game(random_host(family, n, rng), /*alpha=*/1.0);
    DeviationEngine engine(game, random_profile(game, rng, 0.3));
    SCOPED_TRACE(::testing::Message()
                 << "round " << round << " family " << family << " n " << n);
    expect_matches_rebuild(engine);
    for (int batch = 0; batch < 6; ++batch) {
      SCOPED_TRACE(::testing::Message() << "batch " << batch);
      for (int step = 0; step < 10; ++step) {
        const int u = static_cast<int>(rng.uniform_below(n));
        int v = static_cast<int>(rng.uniform_below(n));
        if (v == u) v = (v + 1) % n;
        switch (rng.uniform_below(4)) {
          case 0:
            if (game.can_buy(u, v)) engine.add_buy(u, v);
            break;
          case 1:
            engine.remove_buy(u, v);
            break;
          case 2: {  // force double ownership, then sometimes drop one side
            if (game.can_buy(u, v) && game.can_buy(v, u)) {
              engine.add_buy(u, v);
              engine.add_buy(v, u);
              if (rng.uniform_below(2) == 0) engine.remove_buy(u, v);
            }
            break;
          }
          default: {  // whole-strategy replacement
            NodeSet strategy(n);
            for (int t = 0; t < n; ++t)
              if (t != u && game.can_buy(u, t) && rng.uniform_below(3) == 0)
                strategy.insert(t);
            engine.set_strategy(u, strategy);
            break;
          }
        }
      }
      expect_matches_rebuild(engine);
    }
    // Full-profile replacement (the two-pass rebuild path) after the churn.
    engine.set_profile(random_profile(game, rng, 0.2));
    expect_matches_rebuild(engine);
  }
}

TEST(CsrAdjacencyDifferential, DoubleOwnershipCollapsesToOneEntry) {
  Rng rng(9);
  const Game game(random_one_two_host(6, 0.5, rng), 1.0);
  StrategyProfile profile(6);
  profile.add_buy(0, 1);
  DeviationEngine engine(game, std::move(profile));
  ASSERT_EQ(engine.adjacency().degree(0), 1);
  ASSERT_EQ(engine.adjacency().degree(1), 1);
  // The reverse buy must NOT create a second undirected entry...
  engine.add_buy(1, 0);
  EXPECT_EQ(engine.adjacency().degree(0), 1);
  EXPECT_EQ(engine.adjacency().degree(1), 1);
  expect_matches_rebuild(engine);
  // ...and dropping one of the two owners must keep the edge built.
  engine.remove_buy(0, 1);
  EXPECT_EQ(engine.adjacency().degree(0), 1);
  EXPECT_EQ(engine.adjacency().degree(1), 1);
  expect_matches_rebuild(engine);
  // Dropping the last owner finally unlinks it.
  engine.remove_buy(1, 0);
  EXPECT_EQ(engine.adjacency().degree(0), 0);
  EXPECT_EQ(engine.adjacency().degree(1), 0);
  expect_matches_rebuild(engine);
}

}  // namespace
}  // namespace gncg
