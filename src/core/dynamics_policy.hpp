// Dynamics policies: pluggable move rules and activation schedulers.
//
// The dynamics kernel (core/dynamics.hpp) is a loop of "the scheduler picks
// an improving activation, the engine applies it".  Both decisions are
// policies:
//
//  * A MoveRulePolicy maps an activated agent to its proposed deviation
//    (exact best response, best single move, best addition, UMFL
//    3-approximation).  Proposals are evaluated against *warm* engine state
//    and must be const + thread-safe, so gain-based schedulers can fan all
//    agents out over the worker pool.
//  * A SchedulerPolicy decides which agent moves next: round-robin and
//    random-order probe agents in an activation order (one full silent
//    round certifies convergence); max-gain, softmax-gain and
//    fairness-bounded batch-propose every agent in parallel and select by
//    gain (deterministically -- any randomness comes from the run's Rng,
//    never from thread scheduling).
//
// Policies are stateful per run (cursors, fairness counters) and are
// created fresh by factories.  The DynamicsPolicyRegistry maps stable
// names ("round_robin", "softmax_gain", ...) to factories so sweep
// scenarios, CLIs and tests can select policies by string; the MoveRule /
// SchedulerKind enums remain the convenient spelling for the builtins and
// resolve through the same registry.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/deviation_engine.hpp"
#include "support/rng.hpp"

namespace gncg {

/// What an activated agent plays.
enum class MoveRule {
  kBestResponse,    ///< exact best response (exponential per activation)
  kBestSingleMove,  ///< best add/delete/swap (the GE move set)
  kBestAddition,    ///< best single addition (the AE move set)
  kUmflResponse,    ///< 3-approximate BR via facility-location local search
  kApproxLadder,    ///< spatial-shortlist approximate-BR ladder
};

/// Order in which agents are activated.
enum class SchedulerKind {
  kRoundRobin,       ///< fixed order 0..n-1, repeated
  kRandomOrder,      ///< fresh uniform permutation every round
  kMaxGain,          ///< activate the agent with the largest cost improvement
  kFairnessBounded,  ///< max-gain, but no improving agent waits > bound steps
  kSoftmaxGain,      ///< sample an improving agent ~ softmax of its gain
  kParallelMgm,      ///< sharded MGM rounds: non-conflicting winners commit
};

/// A proposed deviation for one agent: the strategy and the resulting cost.
struct Proposal {
  bool improving = false;
  NodeSet strategy;
  double old_cost = kInf;
  double new_cost = kInf;

  /// Cost improvement; kInf when the move reconnects a disconnected agent.
  double gain() const {
    return (old_cost < kInf && new_cost < kInf) ? old_cost - new_cost : kInf;
  }
};

/// One scheduler decision: the chosen agent and its (improving) proposal.
struct Activation {
  int agent = -1;
  Proposal proposal;
};

/// Shared knobs a policy factory may read.
struct PolicyConfig {
  int node_count = 0;
  /// Fairness-bounded scheduler: the longest an agent with an improving
  /// move may be passed over, in scheduler steps.  0 = 2 * node_count.
  std::uint64_t fairness_bound = 0;
  /// Softmax-gain scheduler: selection temperature relative to the largest
  /// current gain (higher = closer to uniform over improving agents).
  double softmax_tau = 0.25;
  /// Approx-ladder move rule: candidate-shortlist size handed to the
  /// spatial oracle.  <= 0 picks the ladder's default.
  int approx_budget = 0;
  /// Approx-ladder bounded-frontier repair cap; 0 = exact repairs.
  std::size_t approx_repair_cap = 0;
  /// Parallel-MGM scheduler: number of agent shards per round (each shard
  /// nominates its max-gain improving agent; non-conflicting nominees
  /// commit together).  <= 0 picks the default max(1, node_count / 16);
  /// 1 degenerates to the sequential max_gain step.
  int mgm_shards = 0;
};

/// Maps an activated agent to its proposal.  Stateless; const-callable from
/// multiple threads against warm engine state.
class MoveRulePolicy {
 public:
  virtual ~MoveRulePolicy() = default;

  virtual std::string_view name() const = 0;

  /// Proposal for agent u against warm engine state (const, thread-safe).
  virtual Proposal propose_warm(const DeviationEngine& engine,
                                int u) const = 0;

  /// True when propose_warm reads every agent's distance cache (the
  /// single-move scans); false when it only reads u's (the BR / UMFL
  /// searches run their own Dijkstras, and a full warm-up would waste
  /// n-1 SSSP per serial proposal).
  virtual bool wants_full_warm() const = 0;
};

/// Warms exactly the caches `rule` needs for agent u, then proposes (the
/// serial activation path; gain-based schedulers warm everything once and
/// call propose_warm directly).
Proposal propose(DeviationEngine& engine, const MoveRulePolicy& rule, int u);

/// Decides which agent moves next.  Stateful per run.  The kernel drives
/// schedulers through `next_round`: the batch of activations to commit
/// together (an empty batch certifies convergence), applied by the kernel
/// in the returned order before the following call.  Sequential schedulers
/// override `next` (one activation per round, via the default adapter);
/// round-based ones (parallel_mgm) override `next_round` directly.
class SchedulerPolicy {
 public:
  virtual ~SchedulerPolicy() = default;

  virtual std::string_view name() const = 0;

  /// The next improving activation, or nullopt when no agent can improve
  /// (convergence).  All randomness must come from `rng`.  Round-based
  /// schedulers that only implement next_round contract-fail here.
  virtual std::optional<Activation> next(DeviationEngine& engine,
                                         const MoveRulePolicy& rule, Rng& rng);

  /// The activations committed this round, in commit order; empty means no
  /// agent can improve (convergence).  Agents are distinct within a round
  /// and every proposal was improving against the round's start profile.
  /// At most `max_batch` (>= 1, the kernel's remaining move budget)
  /// activations: a scheduler whose batch is larger keeps its commit-order
  /// prefix, and the kernel applies every returned activation.
  /// Default: adapts `next` into single-activation rounds, so sequential
  /// scheduler behavior under the round kernel is unchanged move for move.
  virtual std::vector<Activation> next_round(DeviationEngine& engine,
                                             const MoveRulePolicy& rule,
                                             Rng& rng, std::size_t max_batch);

  /// Completed activation rounds (order-based schedulers), selection steps
  /// (gain-based ones) or MGM rounds -- the DynamicsResult::rounds value.
  virtual std::uint64_t rounds() const = 0;
};

using MoveRuleFactory =
    std::function<std::unique_ptr<MoveRulePolicy>(const PolicyConfig&)>;
using SchedulerFactory =
    std::function<std::unique_ptr<SchedulerPolicy>(const PolicyConfig&)>;

/// Name -> factory registry for schedulers and move rules.  `instance()`
/// registers the builtins on first use (explicitly, not via static
/// initializers -- same linker rationale as ScenarioRegistry).
class DynamicsPolicyRegistry {
 public:
  static DynamicsPolicyRegistry& instance();

  /// Registers a factory; contract-fails on duplicate names.
  void add_scheduler(std::string name, SchedulerFactory factory);
  void add_rule(std::string name, MoveRuleFactory factory);

  /// Builds a fresh policy; contract-fails on unknown names (with the
  /// known-name list in the message).
  std::unique_ptr<SchedulerPolicy> make_scheduler(
      std::string_view name, const PolicyConfig& config) const;
  std::unique_ptr<MoveRulePolicy> make_rule(std::string_view name,
                                            const PolicyConfig& config) const;

  /// All registered names, sorted.
  std::vector<std::string> scheduler_names() const;
  std::vector<std::string> rule_names() const;

 private:
  std::vector<std::pair<std::string, SchedulerFactory>> schedulers_;
  std::vector<std::pair<std::string, MoveRuleFactory>> rules_;
};

/// Canonical registry names of the builtin enums.
std::string_view scheduler_name(SchedulerKind kind);
std::string_view move_rule_name(MoveRule rule);

/// Builds a builtin policy (enum convenience over the registry).
std::unique_ptr<SchedulerPolicy> make_scheduler(SchedulerKind kind,
                                                const PolicyConfig& config);
std::unique_ptr<MoveRulePolicy> make_move_rule(MoveRule rule,
                                               const PolicyConfig& config);

}  // namespace gncg
