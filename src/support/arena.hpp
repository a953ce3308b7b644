// Per-worker scratch arenas: pool-owned workspaces behind every hot path.
//
// The SSSP-dominated inner loops (engine cache refills, single-move scans,
// best-response branch evaluation) used to draw on a grab-bag of
// thread_local buffers plus per-call vector allocations (strategy
// to_vector(), DFS stacks, candidate/weight rows).  ScratchArena gathers all
// of that per-thread state into one object:
//
//   * the binary-heap and bucket-queue Dijkstra workspaces,
//   * the IncrementalSssp instance that builds best-response candidate rows
//     and the subset and per-depth distance vectors of a best-response DFS
//     branch,
//   * the deviation engine's scan scratch (owned-target and weight lists,
//     per-candidate weight and addition-cost tables, side marks, DFS stack,
//     distance-sum vector),
//   * the best-response driver's candidate/weight/base-distance rows, its
//     per-candidate rows and its per-branch outcomes.
//
// `worker_arena()` hands the calling thread its arena, creating and
// registering it on first use.  The worker pool's threads persist for the
// process lifetime, so after one warm-up pass every buffer has reached its
// steady-state capacity and the hot loops allocate nothing
// (tests/test_arena.cpp holds the zero-allocation probe).  Arenas are owned
// by a process-wide registry (not the threads), so `arena_stats()` can
// report fleet-wide footprint and tests can reason about reuse.
//
// Thread-safety: an arena is single-threaded by construction -- only the
// owning thread ever touches it -- with one exception below.  Code holding
// one arena reference must not hand it to another thread, and nested users
// of the same thread must use disjoint members (the engine's scan path uses
// scan buffers + a Dijkstra workspace; best-response branches use the
// IncrementalSssp and BrBranchScratch -- the members are partitioned so no
// hot path aliases another's buffer).  The exception is a best-response
// search's driver scratch (BrScratch): the search's branches, on any
// worker, fill each candidate row exactly once under its state byte and
// then only read it, and each branch writes its own outcome slot.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "graph/dijkstra.hpp"
#include "graph/incremental_sssp.hpp"
#include "support/node_set.hpp"

namespace gncg {

class ScratchArena {
 public:
  /// Binary-heap Dijkstra workspace (general weights).
  DijkstraBuffers& dijkstra() { return dijkstra_; }

  /// Bucket-queue Dijkstra workspace (integer-weight hosts).
  DialBuffers& dial() { return dial_; }

  /// Incremental SSSP that builds best-response candidate rows (one
  /// single-insert repair from the search's base vector per row).
  IncrementalSssp& incremental_sssp() { return sssp_; }

  /// State of the best-response DFS branch running on this thread: the
  /// subset being explored and its distance vectors, entry d of depth_dist
  /// holding the vector of the subset at DFS depth d + 1.
  struct BrBranchScratch {
    NodeSet current;
    std::vector<std::vector<double>> depth_dist;
  };
  BrBranchScratch& br_branch() { return br_branch_; }

  /// Distance vector for sum-only SSSP queries (masked scans, strategy
  /// costs).  Distinct from the Dijkstra workspaces' internal vectors so a
  /// sum query never clobbers a caller-visible run() result.
  std::vector<double>& sum_dist() { return sum_dist_; }

  // --- deviation-engine scan scratch ---
  //
  // Per-scan tables of DeviationEngine::scan_moves.  The scan's masked
  // Dijkstra fallbacks draw on the SSSP workspaces and sum_dist above, never
  // on these, so the two partitions are live together without aliasing.

  /// A single-move candidate that survived the scan's cost bound, waiting
  /// for its exact distance cost (NaN until a lane pass fills it).
  struct ScanCandidate {
    int x;
    double edge_cost;
    double dist_cost;
  };

  struct ScanScratch {
    std::vector<int> owned;         ///< scanning agent's targets, increasing
    std::vector<double> owned_w;    ///< w(u, v) per owned target
    std::vector<double> x_weight;   ///< w(u, x) by node id
    std::vector<double> add_cost;   ///< addition distance cost by node id
    std::vector<ScanCandidate> queue;  ///< bound survivors, increasing x
    std::vector<char> side_mark;    ///< reachability marks (bridge detection)
    std::vector<int> dfs_stack;     ///< explicit DFS stack for reachability
  };
  ScanScratch& scan() { return scan_; }

  // --- best-response driver scratch ---

  /// One candidate's single-insert row: the nodes whose distance buying
  /// that candidate alone lowers, with the lowered distances, and the
  /// repair's frontier key (kInf when the repair ran to the fixpoint).
  struct CandidateRow {
    std::vector<std::pair<int, double>> lowered;
    double frontier = kInf;
  };

  /// Result of one first-level best-response branch, folded in branch order
  /// by the driver.
  struct BranchOutcome {
    double cost = kInf;
    NodeSet strategy;
    bool improved = false;
    std::uint64_t evaluations = 0;
    bool truncated = false;
  };

  struct BrScratch {
    std::vector<std::pair<double, int>> order;  ///< (key, node) branch order
    std::vector<int> candidates;                ///< candidate purchase targets
    std::vector<double> weights;                ///< edge weight per candidate
    std::vector<double> base_dist;              ///< SSSP from the empty set
    std::vector<double> host_row;               ///< host distances from u
    std::vector<double> weight_row;             ///< buy weights from u
    /// Candidate rows by candidate index, built lazily during the search
    /// (only the first `candidates.size()` entries are live; the rest keep
    /// their capacity for later searches).
    std::vector<CandidateRow> rows;
    /// Per live row: 0 unbuilt, 1 being built, 2 built.  Accessed through
    /// std::atomic_ref while the search's branches run.
    std::vector<std::uint8_t> row_state;
    /// Per first-level branch (first `candidates.size()` entries live);
    /// each branch writes only its own slot.
    std::vector<BranchOutcome> outcomes;
  };
  BrScratch& br() { return br_; }

  // --- approximate-BR ladder scratch (core/approx_br.cpp) ---
  //
  // Disjoint from BrScratch and the shared IncrementalSssp on purpose: the
  // ladder's tier 2 nests a full br_search call, which owns those members
  // for its duration -- the ladder must keep its candidate rows and greedy
  // repair state alive across that call.

  struct LadderScratch {
    std::vector<int> cand;          ///< oracle candidate shortlist
    std::vector<double> cand_w;     ///< edge weight per candidate
    std::vector<double> base_dist;  ///< SSSP from the empty strategy
    std::vector<double> host_row;   ///< host distances from u
    std::vector<double> weight_row; ///< buy weights by node id
    std::vector<char> in_cand;      ///< candidate membership by node id
    IncrementalSssp sssp;           ///< tier-1 greedy repair state
    /// Bounded tier-1 probe ranking: (lower-bound estimate, candidate index)
    /// pairs sorted ascending before full-repair commits.
    std::vector<std::pair<double, int>> probe_rank;
  };
  LadderScratch& ladder() { return ladder_; }

  /// Bytes currently reserved across every buffer in this arena.
  std::size_t footprint_bytes() const;

 private:
  DijkstraBuffers dijkstra_;
  DialBuffers dial_;
  IncrementalSssp sssp_;
  BrBranchScratch br_branch_;
  std::vector<double> sum_dist_;
  ScanScratch scan_;
  BrScratch br_;
  LadderScratch ladder_;
};

/// The calling thread's arena, created and registered on first use.  Stable
/// for the thread's lifetime; pool workers persist for the process lifetime,
/// so each worker pays the creation exactly once.
ScratchArena& worker_arena();

/// Fleet-wide arena statistics (every arena ever registered, including ones
/// whose threads have exited -- the registry owns them).
struct ArenaStats {
  std::size_t arenas = 0;
  std::size_t footprint_bytes = 0;
  /// Sum of per-arena footprint high-water marks (each arena's peak is
  /// sampled on arena_stats() calls, so bracket a workload with two calls
  /// to observe its peak).  An upper bound on the simultaneous peak, but
  /// attributable per worker.
  std::size_t peak_footprint_bytes = 0;
  /// Buffer shrinks taken process-wide: release_excess firings plus dial
  /// ring-array downsizings, summed over the per-worker
  /// instrument::Counter::kArenaShrinkEvents slots (0 when
  /// GNCG_INSTRUMENT=OFF).
  std::uint64_t shrink_events = 0;
};
ArenaStats arena_stats();

}  // namespace gncg
