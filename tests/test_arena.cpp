// Scratch-arena discipline: the zero-steady-state-allocation probe and the
// workspace shrink-policy regressions.
//
// The probe is the PR's enforcement mechanism for "hot paths draw every
// buffer from the worker arena": global operator new/delete are replaced
// with counting versions, the engine loop (mutate -> warm_distances -> warm
// single-move scans -> cost_of_strategy) is run until warm, and then
// further identical iterations must perform ZERO heap allocations.  Any
// future per-call vector, to_vector(), or std::function sneaking into the
// scan/SSSP paths turns this red.
//
// The best-response probe allows one allocation per search: the strategy
// the search returns.
//
// The probe runs the pool at one thread: parallel_for dispatch itself
// allocates (a std::function per region), which is out of scope -- the
// contract is about the per-item work, which is what executes on workers.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/approx_br.hpp"
#include "core/best_response.hpp"
#include "core/br_search.hpp"
#include "core/deviation_engine.hpp"
#include "core/profile_gen.hpp"
#include "graph/dijkstra.hpp"
#include "metric/host_graph.hpp"
#include "metric/points.hpp"
#include "support/arena.hpp"
#include "support/instrument.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

}  // namespace

// Counting global allocator: every allocation in this binary bumps the
// counter.  Deliberately minimal -- malloc/free with the required
// bad_alloc/null handling.
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

// GCC's -Wmismatched-new-delete sees free() of a pointer from operator
// new once these inline into a call site; here operator new *is* malloc.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace gncg {
namespace {

TEST(ArenaProbe, SteadyStateMoveEvaluationDoesNotAllocate) {
  set_default_thread_count(1);
  Rng rng(20260808);
  const int n = 24;
  const Game game(random_one_two_host(n, 0.5, rng), /*alpha=*/1.6);
  DeviationEngine engine(game, random_profile(game, rng, 0.25));
  ASSERT_TRUE(engine.dial_enabled());  // 1-2 host: bucket-queue path

  // A toggled edge not present in the profile, so add/remove flips the
  // built topology (and therefore invalidates every distance cache) each
  // iteration.
  int flip_u = -1, flip_v = -1;
  for (int u = 0; u < n && flip_u < 0; ++u)
    for (int v = u + 1; v < n; ++v)
      if (!engine.profile().has_edge(u, v)) {
        flip_u = u;
        flip_v = v;
        break;
      }
  ASSERT_GE(flip_u, 0);

  NodeSet probe_strategy(n);
  probe_strategy.insert(flip_v);
  probe_strategy.insert((flip_v + 1) % n == flip_u ? (flip_v + 2) % n
                                                   : (flip_v + 1) % n);

  double checksum_first = 0.0;
  auto iteration = [&]() {
    double checksum = 0.0;
    engine.add_buy(flip_u, flip_v);
    engine.warm_distances();
    for (int a = 0; a < n; ++a) {
      checksum += engine.best_single_move_warm(a).cost;
      checksum += engine.cost_of_strategy(a, probe_strategy);
    }
    engine.remove_buy(flip_u, flip_v);
    engine.warm_distances();
    for (int a = 0; a < n; ++a) checksum += engine.best_swap_warm(a).cost;
    return checksum;
  };

  // Warm-up: let every arena buffer, CSR slack slot and cache vector reach
  // steady-state capacity.
  for (int i = 0; i < 3; ++i) checksum_first = iteration();

  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  double checksum_probe = 0.0;
  for (int i = 0; i < 4; ++i) checksum_probe = iteration();
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);

  EXPECT_EQ(after - before, 0u)
      << "steady-state engine loop performed heap allocations";
  // Same mutations, same caches -> identical results (and the compiler
  // cannot elide the probe loop).
  EXPECT_DOUBLE_EQ(checksum_probe, checksum_first);
  set_default_thread_count(0);
}

TEST(ArenaProbe, WarmSingleMoveScansDoNotAllocate) {
  // The lane-batched scan path on a real-weighted host: heap Dijkstra
  // fallbacks, bridge swaps (tree part of the profile) and the per-scan
  // weight / addition-cost tables, over enough agents and targets that the
  // kernel runs full and partial blocks.
  set_default_thread_count(1);
  Rng rng(20261017);
  const int n = 37;
  const Game game(HostGraph::from_points(uniform_points(n, 2, 100.0, rng), 2.0),
                  /*alpha=*/40.0);
  DeviationEngine engine(game, random_profile(game, rng, 0.05));
  ASSERT_FALSE(engine.dial_enabled());
  engine.warm_distances();

  auto loop = [&]() {
    double checksum = 0.0;
    for (int a = 0; a < n; ++a) {
      checksum += engine.best_single_move_warm(a).cost;
      checksum += engine.best_addition_warm(a).cost;
      checksum += engine.best_swap_warm(a).cost;
    }
    return checksum;
  };
  const double checksum_first = loop();  // warm-up: arena reaches capacity

  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  double checksum_probe = 0.0;
  for (int i = 0; i < 3; ++i) checksum_probe = loop();
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);

  EXPECT_EQ(after - before, 0u)
      << "warm best_single_move_warm loop performed heap allocations";
  EXPECT_EQ(checksum_probe, checksum_first);
  set_default_thread_count(0);
}

TEST(ArenaProbe, RepeatedBestResponseSearchesReuseRowsAndDepthVectors) {
  // Repeated br_search calls: the candidate rows, the per-branch outcomes,
  // the branch's subset and its per-depth distance vectors all live in the
  // arena and keep their capacity across searches, so a steady-state search
  // allocates exactly one buffer -- the returned strategy's.  Restricted
  // (shortlist, exact and capped rows) and unrestricted searches.
  set_default_thread_count(1);
  Rng rng(20261018);
  const int n = 30;
  const Game game(HostGraph::from_points(uniform_points(n, 2, 100.0, rng), 2.0),
                  /*alpha=*/12.0);
  DeviationEngine engine(game, random_profile(game, rng, 0.05));
  std::vector<AgentEnvironment> envs;
  std::vector<std::vector<int>> shortlists(static_cast<std::size_t>(n));
  for (int u = 0; u < n; ++u) {
    envs.emplace_back(engine, u);
    game.host().candidate_targets(u, 7, shortlists[envs.size() - 1]);
  }

  std::size_t calls = 0;
  auto loop = [&]() {
    double checksum = 0.0;
    for (std::size_t u = 0; u < envs.size(); ++u) {
      BestResponseOptions options;
      checksum += br_search_sum(envs[u], options).cost;
      options.restrict_targets = &shortlists[u];
      checksum += br_search_sum(envs[u], options).cost;
      options.repair_cap = 3;
      checksum += br_search_sum(envs[u], options).cost;
      calls += 3;
    }
    return checksum;
  };
  const double checksum_first = loop();  // warm-up: arena reaches capacity
  // The searches built several rows and went below depth 1.
  EXPECT_GE(worker_arena().br().rows.size(), 7u);
  EXPECT_GE(worker_arena().br_branch().depth_dist.size(), 2u);

  calls = 0;
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  double checksum_probe = 0.0;
  for (int i = 0; i < 3; ++i) checksum_probe = loop();
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);

  EXPECT_EQ(after - before, calls)
      << "steady-state br_search allocated beyond its returned strategy";
  EXPECT_EQ(checksum_probe, checksum_first);
  set_default_thread_count(0);
}

TEST(ArenaProbe, ArenaStatsReportRegisteredArenas) {
  // Touch the calling thread's arena so at least one exists.
  ScratchArena& arena = worker_arena();
  ASSERT_EQ(&arena, &worker_arena());  // stable per thread
  const ArenaStats stats = arena_stats();
  EXPECT_GE(stats.arenas, 1u);
  // Footprint tracks the registered arenas' buffers and never goes down as
  // long as the buffers keep their capacity.
  arena.sum_dist().reserve(1024);
  EXPECT_GE(arena_stats().footprint_bytes, 1024 * sizeof(double));
}

// --- shrink-policy regressions (satellite: decreasing-n engine reuse) ------

/// Star host: node 0 adjacent to 1..n-1 with weight 1 -- drives the heap /
/// pending-ring population to ~n from source 0.
template <class Fn>
void star_neighbors(int n, int u, Fn&& visit) {
  if (u == 0) {
    for (int v = 1; v < n; ++v) visit(v, 1.0);
  } else {
    visit(0, 1.0);
  }
}

TEST(ShrinkPolicy, DijkstraBuffersReleaseBigRunCapacity) {
  DijkstraBuffers buffers;
  const int big = 6000, small = 8;
  const auto& big_dist = buffers.run(
      big, 0, [&](int u, auto&& visit) { star_neighbors(big, u, visit); });
  EXPECT_DOUBLE_EQ(big_dist[1], 1.0);
  EXPECT_GE(buffers.dist_capacity(), static_cast<std::size_t>(big));
  EXPECT_GT(buffers.heap_capacity(),
            detail::kShrinkFactor * detail::kShrinkFloor);

  // dist shrinks on the first small run; the heap's shrink estimate decays
  // by halves from the big run's peak (max(last peak, estimate / 2)), so a
  // genuine downshift releases after ~log2(big / small) runs instead of
  // churning on alternating workloads.
  for (int round = 0; round < 12; ++round) {
    const auto& dist = buffers.run(small, 0, [&](int u, auto&& visit) {
      star_neighbors(small, u, visit);
    });
    ASSERT_EQ(dist.size(), static_cast<std::size_t>(small));
    for (int v = 1; v < small; ++v) EXPECT_DOUBLE_EQ(dist[v], 1.0);
  }
  EXPECT_LE(buffers.dist_capacity(),
            detail::kShrinkFactor * detail::kShrinkFloor);
  EXPECT_LE(buffers.heap_capacity(),
            detail::kShrinkFactor * detail::kShrinkFloor);
}

TEST(ShrinkPolicy, DijkstraBuffersKeepStableWorkloadCapacity) {
  DijkstraBuffers buffers;
  const int n = 300;
  for (int round = 0; round < 3; ++round)
    buffers.run(n, 0,
                [&](int u, auto&& visit) { star_neighbors(n, u, visit); });
  const std::size_t dist_cap = buffers.dist_capacity();
  const std::size_t heap_cap = buffers.heap_capacity();
  // A stable workload must not shrink-then-regrow (that would break the
  // zero-allocation probe above).
  for (int round = 0; round < 5; ++round)
    buffers.run(n, 0,
                [&](int u, auto&& visit) { star_neighbors(n, u, visit); });
  EXPECT_EQ(buffers.dist_capacity(), dist_cap);
  EXPECT_EQ(buffers.heap_capacity(), heap_cap);
}

TEST(ShrinkPolicy, DialBuffersShrinkRingArray) {
  DialBuffers buffers;
  const int n = 64;
  // Big weight bound: 501 rings.
  buffers.run(n, 0, /*max_weight=*/500, [&](int u, auto&& visit) {
    if (u == 0)
      for (int v = 1; v < n; ++v) visit(v, 500.0);
    else
      visit(0, 500.0);
  });
  EXPECT_EQ(buffers.ring_count(), 501u);
  // Small bound afterwards: the ring array releases down to what is needed.
  const auto& dist = buffers.run(n, 0, /*max_weight=*/3,
                                 [&](int u, auto&& visit) {
                                   star_neighbors(n, u, visit);
                                 });
  EXPECT_EQ(buffers.ring_count(), 4u);
  for (int v = 1; v < n; ++v) EXPECT_DOUBLE_EQ(dist[v], 1.0);
}

TEST(ShrinkPolicy, IncrementalSsspResetReleasesBigRunState) {
  IncrementalSssp sssp;
  const int big = 8000;
  std::vector<double> base(static_cast<std::size_t>(big), 1.0);
  base[0] = 0.0;
  sssp.reset(base);
  // Insert a much better edge to node 0's neighbors: every node improves,
  // so the change log and repair heap reach ~n entries.
  const auto mark = sssp.checkpoint();
  sssp.relax_insert(1, 0.25, [&](int u, auto&& visit) {
    if (u == 1)
      for (int v = 2; v < big; ++v) visit(v, 0.25);
  });
  EXPECT_DOUBLE_EQ(sssp.dist()[2], 0.5);
  sssp.rollback(mark);
  const std::size_t big_footprint = sssp.footprint_bytes();
  EXPECT_GT(big_footprint, static_cast<std::size_t>(big) * sizeof(double));

  // Re-targeting the workspace at a small engine releases the big-run
  // capacity: dist immediately, log/heap through the decaying need estimate
  // (7/8 of it kept per reset from the big run's peak), so the release
  // lands within a logarithmic number of resets of a sustained downshift.
  std::vector<double> small_base{0.0, 1.0, 2.0, 3.0};
  for (int round = 0; round < 16; ++round) sssp.reset(small_base);
  EXPECT_LT(sssp.footprint_bytes(), big_footprint / 4);
  EXPECT_EQ(sssp.dist().size(), small_base.size());
}

TEST(ShrinkPolicy, AlternatingWorkloadsKeepCapacity) {
  // The PR 8 policy shrank from the *last* run's peak alone, so a workload
  // alternating small probes and large floods (the bounded ladder's probe /
  // commit pattern) released and re-grew its buffers every other call --
  // 923 arena_shrink_events per large-geometric-tier benchmark run.  The
  // decaying estimate must keep the large capacity across interleaved
  // small runs.
  DijkstraBuffers buffers;
  const int big = 6000, small = 8;
  buffers.run(big, 0,
              [&](int u, auto&& visit) { star_neighbors(big, u, visit); });
  const std::size_t big_heap_cap = buffers.heap_capacity();
  for (int round = 0; round < 6; ++round) {
    buffers.run(small, 0,
                [&](int u, auto&& visit) { star_neighbors(small, u, visit); });
    buffers.run(big, 0,
                [&](int u, auto&& visit) { star_neighbors(big, u, visit); });
  }
  EXPECT_EQ(buffers.heap_capacity(), big_heap_cap);

  IncrementalSssp sssp;
  std::vector<double> base(static_cast<std::size_t>(big), 1.0);
  base[0] = 0.0;
  const auto flood = [&](IncrementalSssp& s) {
    const auto mark = s.checkpoint();
    s.relax_insert(1, 0.25, [&](int u, auto&& visit) {
      if (u == 1)
        for (int v = 2; v < big; ++v) visit(v, 0.25);
    });
    s.rollback(mark);
  };
  sssp.reset(base);
  flood(sssp);
  const std::size_t big_footprint = sssp.footprint_bytes();
  for (int round = 0; round < 6; ++round) {
    sssp.reset(base);  // no flood: peak stays tiny this round
    sssp.reset(base);
    flood(sssp);
  }
  EXPECT_EQ(sssp.footprint_bytes(), big_footprint);
}

TEST(ShrinkPolicy, RepeatedLadderCallKeepsCapacity) {
  // One ladder call runs a tier-2 search whose first-level branches reseed
  // the worker's incremental SSSP one after another, the early ones large
  // and the late ones small.  A shrink-policy step per branch releases
  // buffers inside the call that the next call regrows (about 1.7 shrinks
  // per ladder call on euclidean n = 10^4).  With one step per search,
  // repeating a call on one worker must not shrink anything.
  if (!instrument::compiled_in()) GTEST_SKIP() << "GNCG_INSTRUMENT=OFF";
  set_default_thread_count(1);
  Rng rng(20261017);
  const int n = 2000;
  const Game game(HostGraph::from_points(uniform_points(n, 2, 100.0, rng), 2.0),
                  /*alpha=*/100.0);
  DeviationEngine engine(game, recursive_tree_profile(game, rng));
  engine.warm_distances();
  ApproxBrOptions options;
  options.budget = 8;
  options.repair_cap = 2048;
  const auto shrinks = [](const instrument::ThreadFrame& frame) {
    return frame.delta()[static_cast<std::size_t>(
        instrument::Counter::kArenaShrinkEvents)];
  };
  int checked = 0;
  for (int u = 0; u < n; u += n / 8) {
    options.incumbent = engine.agent_cost_warm(u);
    options.current_dist = &engine.distances_warm(u);
    const ApproxBrResult first =
        approx_best_response_ladder(engine, u, options);
    const instrument::ThreadFrame frame;
    const ApproxBrResult second =
        approx_best_response_ladder(engine, u, options);
    EXPECT_EQ(shrinks(frame), 0u) << "agent " << u;
    EXPECT_TRUE(second.strategy == first.strategy);
    EXPECT_EQ(second.cost, first.cost);
    ++checked;
  }
  EXPECT_EQ(checked, 8);
  set_default_thread_count(0);
}

}  // namespace
}  // namespace gncg
