// The four benchmark workloads.  Parameters and the reason for each are
// listed in perfbench/README.md; the failure classes each one counts are
// documented on its class.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <string>
#include <unistd.h>
#include <utility>
#include <vector>

#include "core/approx_br.hpp"
#include "core/best_response.hpp"
#include "core/cost.hpp"
#include "core/deviation_engine.hpp"
#include "core/dynamics.hpp"
#include "core/game.hpp"
#include "core/profile_gen.hpp"
#include "core/social_optimum.hpp"
#include "core/transposition.hpp"
#include "graph/distance_matrix.hpp"
#include "harness.hpp"
#include "metric/host_graph.hpp"
#include "metric/points.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "sweep/jsonl.hpp"
#include "sweep/plan.hpp"
#include "sweep/runner.hpp"
#include "sweep/scenario.hpp"

namespace perfbench {
namespace {

using gncg::DeviationEngine;
using gncg::DynamicsOptions;
using gncg::DynamicsResult;
using gncg::Game;
using gncg::HostGraph;
using gncg::Rng;
using gncg::Stopwatch;
using gncg::StrategyProfile;

/// The workload's input stream: a pure function of its name and the seed.
Rng input_rng(const char* workload, std::uint64_t seed) {
  return Rng(gncg::stream_seed(workload, 0, seed));
}

Game euclidean_game(int n, double alpha, Rng& rng) {
  return Game(
      HostGraph::from_points(gncg::uniform_points(n, 2, 1000.0, rng), 2.0),
      alpha);
}

/// Wall time between commit rounds of a dynamics run, taken at the
/// observer's on_round_end callbacks (the first round is timed from
/// on_run_start).
class RoundTimer final : public gncg::StepObserver {
 public:
  explicit RoundTimer(std::vector<double>& round_ms) : round_ms_(round_ms) {}

  void on_run_start(const DeviationEngine&) override { timer_.restart(); }
  void on_step(const gncg::DynamicsStep&, std::uint64_t) override {}
  void on_round_end(std::uint64_t, std::size_t) override {
    round_ms_.push_back(timer_.millis());
    timer_.restart();
  }

 private:
  std::vector<double>& round_ms_;
  Stopwatch timer_;
};

// --- ne-certify -------------------------------------------------------------

/// Exact NE certification of every agent on settled profiles.  A part is a
/// pair of hosts: a dense 1-2 host (alpha = n) and a euclidean L2 host
/// (alpha = n/4), each with a recursive-tree start settled in set-up by
/// round-robin best-single-move dynamics (budget 8n).  The timed phase is
/// read-only on the engines: one first-improvement has_improving_deviation
/// call per agent.
///
/// Failure class: a sampled agent (every 16th) whose first-improvement
/// verdict disagrees with the `improved` flag of a full-mode
/// exact_best_response -- one failed certification per run of its part.
class NeCertify final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    instances_.clear();
    Rng rng = input_rng("ne-certify", seed);
    for (int pair = 0; pair < kPairs; ++pair) {
      instances_.push_back(settle(
          "dense",
          Game(gncg::random_one_two_host(kDenseN, 0.5, rng), kDenseN), rng));
      instances_.push_back(settle(
          "euclidean", euclidean_game(kEuclidN, kEuclidN / 4.0, rng), rng));
    }
  }

  std::size_t parts() const override { return kPairs; }

  std::size_t run_part(std::size_t index, LayerClock& clock,
                       std::vector<double>& latency_ms) override {
    std::size_t certified = 0;
    for (std::size_t i = 2 * index; i < 2 * index + 2; ++i) {
      Instance& inst = instances_[i];
      const int n = inst.game->node_count();
      const Stopwatch instance_timer;
      std::vector<char> verdicts(static_cast<std::size_t>(n));
      for (int u = 0; u < n; ++u) {
        const Stopwatch timer;
        {
          const LayerClock::Scope scope(clock, "core.br");
          verdicts[static_cast<std::size_t>(u)] =
              gncg::has_improving_deviation(*inst.engine, u) ? 1 : 0;
        }
        const double ms = timer.millis();
        latency_ms.push_back(ms);
        certify_ms_.push_back(ms);
      }
      certified += static_cast<std::size_t>(n);
      inst.certify_s.push_back(instance_timer.seconds());
      if (inst.verdicts.empty())
        inst.verdicts = std::move(verdicts);
      else if (verdicts != inst.verdicts)
        ++inst.verdict_mismatches;
    }
    return certified;
  }

  void check(Tally& tally) override {
    for (Instance& inst : instances_) {
      const int n = inst.game->node_count();
      const std::uint64_t executions = inst.certify_s.size();
      tally.attempted += static_cast<std::uint64_t>(n) * executions;
      if (inst.verdict_mismatches > 0)
        tally.wrong(inst.label + ": first-improvement verdicts changed "
                                 "between passes");
      std::uint64_t disagreements = 0;
      for (int u = 0; u < n; u += kSampleStride) {
        gncg::BestResponseOptions options;
        options.incumbent = inst.engine->agent_cost(u);
        const bool full_improved =
            gncg::exact_best_response(*inst.engine, u, options).improved;
        if (full_improved != (inst.verdicts[static_cast<std::size_t>(u)] != 0))
          ++disagreements;
      }
      tally.fail(disagreements * executions,
                 inst.label + ": first-improvement verdict disagrees with "
                              "full-mode exact_best_response");
      inst.improving = static_cast<int>(
          std::count(inst.verdicts.begin(), inst.verdicts.end(), 1));
    }
  }

  void report(MetricSet& out) const override {
    double total_ms = 0.0;
    for (double ms : certify_ms_) total_ms += ms;
    const LatencySummary latency = summarize_latency(certify_ms_);
    out.add("certify_agents_per_s",
            ratio(static_cast<double>(certify_ms_.size()), total_ms / 1e3),
            "1/s", "agents certified / time in has_improving_deviation");
    out.add("certify_ms_p50", latency.p50, "ms",
            std::to_string(latency.count) + " samples");
    out.add("certify_ms_tail", latency.tail, "ms", latency.describe_tail());
    for (const char* label : {"dense", "euclidean"}) {
      std::vector<double> certify_s, settle_s;
      int converged = 0, improving = 0, agents = 0;
      for (const Instance& inst : instances_) {
        if (inst.label != label) continue;
        certify_s.push_back(median(inst.certify_s));
        settle_s.push_back(inst.settle_s);
        converged += inst.settle_converged ? 1 : 0;
        improving += inst.improving;
        agents += inst.game->node_count();
      }
      const std::string name(label);
      out.add("certify_s." + name, median(certify_s), "s",
              "median over " + std::to_string(certify_s.size()) + " hosts");
      out.add("settle_s." + name, median(settle_s), "s",
              "last set-up, " + std::to_string(converged) + " of " +
                  std::to_string(settle_s.size()) + " settles converged");
      out.add("improving_agents." + name, improving, "count",
              "of " + std::to_string(agents) + " agents");
    }
  }

 private:
  static constexpr int kPairs = 1;
  static constexpr int kDenseN = 256;
  static constexpr int kEuclidN = 192;
  static constexpr int kSampleStride = 16;

  struct Instance {
    std::string label;
    std::unique_ptr<Game> game;
    std::unique_ptr<DeviationEngine> engine;
    bool settle_converged = false;
    double settle_s = 0.0;
    std::vector<double> certify_s;  ///< one per run of the instance's part
    std::vector<char> verdicts;     ///< first run; later runs must match
    int verdict_mismatches = 0;
    int improving = 0;
  };

  static Instance settle(std::string label, Game game, Rng& rng) {
    const Stopwatch timer;
    Instance inst;
    inst.label = std::move(label);
    inst.game = std::make_unique<Game>(std::move(game));
    DynamicsOptions options;
    options.rule = gncg::MoveRule::kBestSingleMove;
    options.scheduler = gncg::SchedulerKind::kRoundRobin;
    options.max_moves = 8 * static_cast<std::uint64_t>(inst.game->node_count());
    options.record_steps = false;
    options.seed = rng();
    const DynamicsResult settled = gncg::run_dynamics(
        *inst.game, gncg::recursive_tree_profile(*inst.game, rng), options);
    inst.settle_converged = settled.converged;
    inst.engine =
        std::make_unique<DeviationEngine>(*inst.game, settled.final_profile);
    inst.engine->warm_distances();
    inst.settle_s = timer.seconds();
    return inst;
  }

  std::vector<Instance> instances_;
  std::vector<double> certify_ms_;
};

// --- dynamics-euclid --------------------------------------------------------

/// Best-single-move dynamics to convergence on euclidean L2 hosts (n = 256,
/// alpha = 400) from recursive-tree starts, budget 8n moves per run.  A
/// pass covers three hosts: parallel_mgm runs on starts 0..2 of each, and
/// max_gain on start 0 of hosts 1 and 2 (host 0, part 0, stays short
/// because the traced run repeats it).  Each run gets a fresh engine warmed
/// by the benchmark (the warm pass every run pays first).
///
/// Failure class, one failed run per pass: the run hit its move budget,
/// ended on a disconnected network (infinite social cost), or reported
/// convergence while some agent still has an improving best_single_move on
/// a fresh engine.
class DynamicsEuclid final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    Rng rng = input_rng("dynamics-euclid", seed);
    hosts_.clear();
    for (int h = 0; h < kHosts; ++h) {
      Host host;
      host.game = std::make_unique<Game>(euclidean_game(kN, 400.0, rng));
      std::vector<StrategyProfile> starts;
      for (int i = 0; i < kStarts; ++i)
        starts.push_back(gncg::recursive_tree_profile(*host.game, rng));
      const std::uint64_t run_seed = rng();
      if (h > 0)
        host.add_run(gncg::SchedulerKind::kMaxGain, starts[0], run_seed);
      for (int i = 0; i < kStarts; ++i)
        host.add_run(gncg::SchedulerKind::kParallelMgm, starts[i],
                     run_seed + static_cast<std::uint64_t>(i));
      hosts_.push_back(std::move(host));
    }
    // The first engine build and warm pass: starts the worker pool and
    // sizes the arenas before anything is timed.
    DeviationEngine engine(*hosts_[0].game, hosts_[0].runs[0].start);
    engine.warm_distances();
  }

  std::size_t parts() const override { return hosts_.size(); }

  std::size_t run_part(std::size_t index, LayerClock& clock,
                       std::vector<double>& latency_ms) override {
    Host& host = hosts_[index];
    std::size_t rounds = 0;
    for (Run& run : host.runs)
      rounds += execute(*host.game, run, clock, latency_ms);
    return rounds;
  }

  void check(Tally& tally) override {
    for (Host& host : hosts_) {
      host.lower_bound = gncg::social_optimum_lower_bound(*host.game);
      for (Run& run : host.runs) check_run(*host.game, run, tally);
    }
  }

  void report(MetricSet& out) const override {
    std::vector<double> max_gain_s, mgm_s, max_gain_ratio;
    std::uint64_t moves = 0;
    double dynamics_s = 0.0, worst_mgm = 0.0;
    int runs = 0, disconnected = 0;
    for (const Host& host : hosts_) {
      for (const Run& run : host.runs) {
        ++runs;
        moves += run.result->moves * run.converge_s.size();
        for (double s : run.converge_s) dynamics_s += s;
        const double social_ratio = run.social_cost / host.lower_bound;
        if (!std::isfinite(run.social_cost)) ++disconnected;
        if (run.scheduler == gncg::SchedulerKind::kMaxGain) {
          max_gain_s.push_back(median(run.converge_s));
          max_gain_ratio.push_back(social_ratio);
        } else {
          mgm_s.push_back(median(run.converge_s));
          worst_mgm = std::max(worst_mgm, social_ratio);
        }
      }
    }
    out.add("moves_per_s", ratio(static_cast<double>(moves), dynamics_s),
            "1/s", "committed moves / run wall time, all runs");
    out.add("converge_s.max_gain", median(max_gain_s), "s",
            "median over " + std::to_string(max_gain_s.size()) + " hosts");
    out.add("converge_s.parallel_mgm", median(mgm_s), "s",
            "median over " + std::to_string(mgm_s.size()) + " starts");
    out.add("social_cost_ratio", median(max_gain_ratio), "ratio",
            "max_gain final social cost / social_optimum_lower_bound, "
            "median over hosts");
    out.add("social_cost_ratio.parallel_mgm_max", worst_mgm, "ratio",
            std::to_string(disconnected) + " of " + std::to_string(runs) +
                " runs disconnected");
  }

  void layer_report(MetricSet& out) const override {
    const LatencySummary rounds = summarize_latency(round_ms_);
    out.add("core.dynamics.round_ms_p50", rounds.p50, "ms",
            std::to_string(rounds.count) + " rounds");
    out.add("core.dynamics.round_ms_tail", rounds.tail, "ms",
            rounds.describe_tail());
  }

 private:
  static constexpr int kN = 256;
  static constexpr int kHosts = 3;
  static constexpr int kStarts = 3;
  static constexpr std::uint64_t kMaxMoves = 8 * kN;

  struct Run {
    gncg::SchedulerKind scheduler = gncg::SchedulerKind::kMaxGain;
    StrategyProfile start;
    std::uint64_t seed = 0;
    std::optional<DynamicsResult> result;  ///< first pass
    std::uint64_t hash = 0;
    int mismatches = 0;
    std::vector<double> converge_s;
    double social_cost = 0.0;
  };

  struct Host {
    std::unique_ptr<Game> game;
    std::vector<Run> runs;
    double lower_bound = 0.0;

    void add_run(gncg::SchedulerKind scheduler, const StrategyProfile& start,
                 std::uint64_t seed) {
      Run run;
      run.scheduler = scheduler;
      run.start = start;
      run.seed = seed;
      runs.push_back(std::move(run));
    }
  };

  /// Runs one dynamics run; returns its commit rounds, the primary
  /// operation (a round costs one warm pass plus n proposals under either
  /// scheduler, so rounds per second do not depend on the scheduler mix).
  std::size_t execute(const Game& game, Run& run, LayerClock& clock,
                      std::vector<double>& latency_ms) {
    DynamicsOptions options;
    options.rule = gncg::MoveRule::kBestSingleMove;
    options.scheduler = run.scheduler;
    options.max_moves = kMaxMoves;
    options.seed = run.seed;
    options.record_steps = false;
    const std::size_t first_round = round_ms_.size();
    RoundTimer rounds(round_ms_);
    options.observer = &rounds;

    const Stopwatch timer;
    std::optional<DeviationEngine> engine;
    {
      const LayerClock::Scope scope(clock, "core.engine");
      engine.emplace(game, run.start);
      engine->warm_distances();
    }
    DynamicsResult result;
    {
      const LayerClock::Scope scope(clock, "core.dynamics");
      result = gncg::run_dynamics(*engine, options);
    }
    run.converge_s.push_back(timer.seconds());
    latency_ms.insert(latency_ms.end(), round_ms_.begin() + first_round,
                      round_ms_.end());
    const std::uint64_t hash = gncg::zobrist_profile_hash(result.final_profile);
    if (!run.result.has_value()) {
      run.result = std::move(result);
      run.hash = hash;
    } else if (hash != run.hash || result.moves != run.result->moves) {
      ++run.mismatches;
    }
    return round_ms_.size() - first_round;
  }

  static void check_run(const Game& game, Run& run, Tally& tally) {
    const std::uint64_t executions = run.converge_s.size();
    tally.attempted += executions;
    const std::string label(gncg::scheduler_name(run.scheduler));
    if (run.mismatches > 0)
      tally.wrong(label + ": final profile changed between passes");
    const DynamicsResult& result = *run.result;
    run.social_cost = gncg::social_cost(game, result.final_profile);
    if (!std::isfinite(run.social_cost)) {
      tally.fail(executions, label + " ended on a disconnected network" +
                              (result.converged ? " and reported convergence"
                                                : ""));
      return;
    }
    if (!result.converged && !result.cycle_found) {
      tally.fail(executions, label + " hit its move budget");
      return;
    }
    if (!result.converged) return;
    bool improving = false;
    DeviationEngine fresh(game, result.final_profile);
    for (int u = 0; u < kN && !improving; ++u)
      improving = fresh.best_single_move(u).improved;
    if (improving)
      tally.fail(executions, label + " reported convergence with an improving "
                                  "best_single_move left");
  }

  std::vector<Host> hosts_;
  std::vector<double> round_ms_;
};

// --- approx-geo-1e4 ---------------------------------------------------------

/// The large tier: euclidean L2 hosts at n = 10^4, alpha = 100, two per
/// pass.  On each, approx-ladder round-robin dynamics from a recursive-tree
/// start under a fixed budget of 150 moves (shortlist 8, repair cap 2048),
/// then certify_agents on 64 evenly spaced agents of the reached profile.
/// No O(n^2) state: the engines are never fully warmed.
///
/// Failure class: a certified agent with lower_bound > current_cost or a
/// non-finite cost (one failed certification), and any change of
/// DistanceMatrix::allocated_cells_total() across a host's pass (one failed
/// dynamics run).
class ApproxGeo final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    Rng rng = input_rng("approx-geo-1e4", seed);
    hosts_.clear();
    for (int h = 0; h < kHosts; ++h) {
      Host host;
      host.game = std::make_unique<Game>(euclidean_game(kN, 100.0, rng));
      host.start = gncg::recursive_tree_profile(*host.game, rng);
      host.run_seed = rng();
      hosts_.push_back(std::move(host));
    }
    agents_.clear();
    for (int i = 0; i < kCertify; ++i)
      agents_.push_back(static_cast<int>(
          (static_cast<long long>(i) * kN) / kCertify));
  }

  std::size_t parts() const override { return hosts_.size(); }

  std::size_t run_part(std::size_t index, LayerClock& clock,
                       std::vector<double>& latency_ms) override {
    return execute(hosts_[index], clock, latency_ms);
  }

  void check(Tally& tally) override {
    max_beta_ = 1.0;
    for (const Host& host : hosts_) {
      tally.attempted += host.executions * (1 + host.certified.size());
      if (host.mismatches > 0)
        tally.wrong("reached profile or certificates changed between passes");
      tally.fail(host.dense_moved, "DistanceMatrix::allocated_cells_total() "
                                   "moved during a pass");
      std::uint64_t unsound = 0;
      for (const gncg::CertifiedAgent& agent : host.certified) {
        const double cost = agent.current_cost;
        const double bound = agent.result.lower_bound;
        const double tol = 1e-9 * std::max(1.0, std::abs(cost));
        if (!std::isfinite(cost) || !std::isfinite(agent.result.cost) ||
            bound > cost + tol) {
          ++unsound;
          continue;
        }
        if (bound > 0.0) max_beta_ = std::max(max_beta_, cost / bound);
      }
      tally.fail(unsound * host.executions, "certificate with lower_bound > "
                                    "current_cost or a non-finite cost");
    }
  }

  void report(MetricSet& out) const override {
    double certify_total = 0.0;
    for (double s : certify_s_) certify_total += s;
    const double agents = static_cast<double>(kCertify * certify_s_.size());
    out.add("moves_per_s", ratio(static_cast<double>(moves_), dynamics_s_),
            "1/s", "ladder moves / run_dynamics wall time");
    out.add("certify_agents_per_s", ratio(agents, certify_total), "1/s",
            "agents / (engine build + certify_agents) wall time");
    out.add("certify_ms_mean", ratio(certify_total * 1e3, agents), "ms",
            "per agent; certify_agents is one batched call, so per-agent "
            "percentiles are not observable from outside");
    out.add("max_beta", max_beta_, "ratio",
            "max over " + std::to_string(kCertify * kHosts) +
                " agents of current_cost / lower_bound");
  }

  void layer_report(MetricSet& out) const override {
    const LatencySummary rounds = summarize_latency(move_ms_);
    out.add("core.dynamics.round_ms_p50", rounds.p50, "ms",
            std::to_string(rounds.count) + " rounds");
    out.add("core.dynamics.round_ms_tail", rounds.tail, "ms",
            rounds.describe_tail());
  }

 private:
  static constexpr int kN = 10000;
  static constexpr int kHosts = 2;
  static constexpr int kBudget = 8;
  static constexpr std::size_t kRepairCap = 2048;
  static constexpr std::uint64_t kMoves = 150;
  static constexpr int kCertify = 64;

  struct Signature {
    std::uint64_t hash = 0;
    std::uint64_t moves = 0;
    std::vector<double> bounds;
    bool operator==(const Signature&) const = default;
  };

  struct Host {
    std::unique_ptr<Game> game;
    StrategyProfile start;
    std::uint64_t run_seed = 0;
    std::optional<Signature> reference;  ///< first pass
    std::vector<gncg::CertifiedAgent> certified;  ///< first pass
    int mismatches = 0;
    std::uint64_t dense_moved = 0;
    std::uint64_t executions = 0;
  };

  std::size_t execute(Host& host, LayerClock& clock,
                      std::vector<double>& latency_ms) {
    const std::uint64_t dense_before =
        gncg::DistanceMatrix::allocated_cells_total();
    DynamicsOptions options;
    options.rule = gncg::MoveRule::kApproxLadder;
    options.scheduler = gncg::SchedulerKind::kRoundRobin;
    options.max_moves = kMoves;
    options.approx_budget = kBudget;
    options.approx_repair_cap = kRepairCap;
    options.detect_cycles = false;
    options.record_steps = false;
    options.seed = host.run_seed;
    const std::size_t first_round = move_ms_.size();
    RoundTimer rounds(move_ms_);
    options.observer = &rounds;

    DynamicsResult result;
    {
      const Stopwatch timer;
      const LayerClock::Scope scope(clock, "core.dynamics");
      result = gncg::run_dynamics(*host.game, host.start, options);
      dynamics_s_ += timer.seconds();
    }
    latency_ms.insert(latency_ms.end(), move_ms_.begin() + first_round,
                      move_ms_.end());
    moves_ += result.moves;

    std::vector<gncg::CertifiedAgent> certified;
    {
      const Stopwatch timer;
      std::optional<DeviationEngine> engine;
      {
        const LayerClock::Scope scope(clock, "core.engine");
        engine.emplace(*host.game, result.final_profile);
      }
      gncg::ApproxBrOptions ladder;
      ladder.budget = kBudget;
      ladder.repair_cap = kRepairCap;
      {
        const LayerClock::Scope scope(clock, "core.ladder");
        certified = gncg::certify_agents(*engine, agents_, ladder);
      }
      certify_s_.push_back(timer.seconds());
    }
    host.dense_moved +=
        gncg::DistanceMatrix::allocated_cells_total() != dense_before;
    ++host.executions;

    Signature signature{gncg::zobrist_profile_hash(result.final_profile),
                        result.moves, {}};
    for (const gncg::CertifiedAgent& agent : certified)
      signature.bounds.push_back(agent.result.lower_bound);
    if (!host.reference.has_value()) {
      host.reference = std::move(signature);
      host.certified = std::move(certified);
    } else if (!(signature == *host.reference)) {
      ++host.mismatches;
    }
    return result.moves;
  }

  std::vector<Host> hosts_;
  std::vector<int> agents_;
  std::vector<double> move_ms_;
  std::vector<double> certify_s_;
  double dynamics_s_ = 0.0;
  std::uint64_t moves_ = 0;
  double max_beta_ = 1.0;
};

// --- paper-sweep ------------------------------------------------------------

/// run_sweep over {ne_sampling, fip_probe, poa_random} x {dense, euclidean,
/// tree} x n = 16 x alpha in {1, 4} x 8 seeds: 144 small jobs, replicate
/// seeds from 8 * seed.  A pass runs the sweep once, journaled to a fresh
/// file.
///
/// Failure class: a job whose record is missing from its sweep's journal or
/// is not the exact canonical record of the job's result (malformed) -- one
/// failed job per record.
class PaperSweep final : public Workload {
 public:
  // The journal directory belongs to the run, not to the inputs: it is
  // made once here, so the timed set-up makes no file-system calls.
  explicit PaperSweep(const std::string& scratch)
      : dir_(std::filesystem::path(scratch) /
             ("sweep-" + std::to_string(::getpid()))) {
    std::filesystem::create_directories(dir_);
  }

  ~PaperSweep() override {
    std::error_code ignored;
    std::filesystem::remove_all(dir_, ignored);
  }

  void setup(std::uint64_t seed) override {
    const gncg::ScenarioRegistry& registry = gncg::ScenarioRegistry::instance();
    plan_ = gncg::SweepPlan{};
    plan_.scenarios = {"ne_sampling", "fip_probe", "poa_random"};
    plan_.hosts = {"dense", "euclidean", "tree"};
    plan_.ns = {16};
    plan_.alphas = {1.0, 4.0};
    plan_.seeds = 8;
    plan_.seed_base = 8 * seed;
    jobs_ = plan_.expand(registry).size();
    header_ = gncg::sweep_journal_header(plan_.fingerprint(registry), jobs_);
    journals_.clear();
  }

  std::size_t parts() const override { return 1; }

  std::size_t run_part(std::size_t, LayerClock& clock,
                       std::vector<double>& latency_ms) override {
    gncg::SweepRunnerOptions options;
    options.threads = gncg::default_thread_count();
    options.journal_path =
        (dir_ / ("journal-" + std::to_string(journals_.size()) + ".jsonl"))
            .string();
    gncg::SweepReport report;
    {
      const Stopwatch timer;
      const LayerClock::Scope scope(clock, "sweep");
      report = gncg::run_sweep(plan_, options);
      sweep_s_ += timer.seconds();
    }
    Journal journal{options.journal_path, {}};
    for (const gncg::SweepOutcome& outcome : report.outcomes) {
      latency_ms.push_back(outcome.elapsed_ms);
      if (outcome.point.scenario != "poa_random")
        restart_busy_s_ += outcome.elapsed_ms / 1e3;
      journal.expected.push_back(
          gncg::sweep_record_json(outcome.point, outcome.result));
    }
    std::sort(journal.expected.begin(), journal.expected.end());
    journals_.push_back(std::move(journal));
    return report.outcomes.size();
  }

  void check(Tally& tally) override {
    for (const Journal& journal : journals_) {
      tally.attempted += jobs_;
      if (journal.expected.size() != jobs_)
        tally.wrong("run_sweep returned " +
                    std::to_string(journal.expected.size()) +
                    " outcomes for " + std::to_string(jobs_) + " jobs");
      if (journal.expected != journals_.front().expected)
        tally.wrong("sweep records changed between passes");
      std::ifstream in(journal.path);
      std::string line;
      if (!std::getline(in, line) || line != header_)
        tally.wrong("journal header missing or wrong in " + journal.path);
      std::multiset<std::string> written;
      while (std::getline(in, line)) {
        const auto parsed = gncg::JsonValue::parse(line);
        if (parsed.has_value() && parsed->is_object() &&
            parsed->string_at("schema") == std::string("gncg-sweep-1"))
          written.insert(line);
      }
      std::uint64_t bad = 0;
      for (const std::string& record : journal.expected) {
        const auto it = written.find(record);
        if (it == written.end())
          ++bad;
        else
          written.erase(it);
      }
      tally.fail(bad, "journal record missing or malformed");
    }
  }

  void report(MetricSet& out) const override {
    out.add("jobs_per_s",
            ratio(static_cast<double>(jobs_ * journals_.size()), sweep_s_),
            "1/s", "jobs / run_sweep wall time");
  }

  void layer_report(MetricSet& out) const override {
    out.add("core.restarts.time_s", restart_busy_s_, "s",
            "busy time of the ne_sampling and fip_probe jobs (each a "
            "run_restarts batch), summed over workers");
  }

 private:
  struct Journal {
    std::string path;
    std::vector<std::string> expected;  ///< sorted canonical records
  };

  std::filesystem::path dir_;
  gncg::SweepPlan plan_;
  std::size_t jobs_ = 0;
  std::string header_;  ///< expected journal header line
  std::vector<Journal> journals_;
  double sweep_s_ = 0.0;
  double restart_busy_s_ = 0.0;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "ne-certify", "dynamics-euclid", "approx-geo-1e4", "paper-sweep"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const std::string& scratch) {
  if (name == "ne-certify") return std::make_unique<NeCertify>();
  if (name == "dynamics-euclid") return std::make_unique<DynamicsEuclid>();
  if (name == "approx-geo-1e4") return std::make_unique<ApproxGeo>();
  if (name == "paper-sweep") return std::make_unique<PaperSweep>(scratch);
  return nullptr;
}

}  // namespace perfbench
