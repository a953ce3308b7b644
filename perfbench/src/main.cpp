// perfbench: the repository benchmark program.
//
//   perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//             [--scratch <dir>]
//
// One process, one worker pool of min(2, hardware threads).  A run builds
// the workload's inputs from the seed (set-up, repeated and reported as a
// median), runs whole passes of the workload's fixed work until --seconds
// have elapsed, then checks every output outside the timed phase.
//
// --trace 0 prints the end-to-end metrics (tracing off).  --trace 1 runs
// the per-layer variant instead: the timed passes run under a Chrome trace
// session with benchmark-side spans around each layer call and counters
// are read per phase; then part 0 runs once untraced (tracing overhead)
// and once traced on one thread and on the full pool (pool speed-up).
//
// stdout: a readable table, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}.  Usage errors exit 1;
// a library contract failure exits 3 without a result line.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "harness.hpp"
#include "support/arena.hpp"
#include "support/parallel.hpp"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string scratch = ".";
};

bool parse_args(int argc, char** argv, Args& args) {
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && args.seconds >= 1.0;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else if (key == "--scratch") {
      args.scratch = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds;
}

/// One workload's result: the JSON fields plus the table sections.
struct RunResult {
  Tally tally;
  MetricSet metrics;   ///< the JSON metrics (end-to-end or per-layer)
  MetricSet details;   ///< workload-named figures, table only
};

void print_metrics(const char* title, const MetricSet& set) {
  std::printf("%s\n", title);
  for (const Metric& m : set.items())
    std::printf("  %-40s %16.6g %-8s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
}

void print_spans(const LayerClock& clock) {
  std::printf("benchmark-side spans (layer, calls, total_s, self_s)\n");
  for (const auto& [layer, entry] : clock.entries())
    std::printf("  %-40s %8zu %12.6f %12.6f\n", layer.c_str(), entry.calls,
                entry.total_s, entry.self_s);
}

void print_counters(const char* phase, const CounterArray& counters) {
  std::printf("counters, %s phase:", phase);
  int shown = 0;
  for (std::size_t i = 0; i < gncg::instrument::kCounterCount; ++i) {
    if (counters[i] == 0) continue;
    std::printf("%s %s=%llu", shown % 4 == 0 ? "\n " : "",
                gncg::instrument::counter_name(static_cast<Counter>(i)),
                static_cast<unsigned long long>(counters[i]));
    ++shown;
  }
  std::printf("%s\n", shown == 0 ? " (none)" : "");
}

/// Every per-layer metric, from the traced phase's counters and spans.
/// Ratios state their base in the note; a zero base reads 0.
void layer_metrics(const CounterArray& c, const LayerClock& clock,
                   const MetricSet& own, double speedup, double overhead,
                   MetricSet& out) {
  auto d = [&](Counter counter) { return static_cast<double>(at(c, counter)); };
  auto base = [](const char* what, double value) {
    char text[96];
    std::snprintf(text, sizeof text, "base: %s = %.0f", what, value);
    return std::string(text);
  };
  const double heap = d(Counter::kSsspHeapRelaxations);
  const double dial = d(Counter::kSsspDialRelaxations);
  const double relax = heap + dial;
  out.add("graph.relaxations", relax, "count", "heap + dial base SSSP");
  out.add("graph.dial_share", ratio(dial, relax), "ratio",
          base("base relaxations", relax));
  out.add("graph.repair_per_base",
          ratio(d(Counter::kSsspRepairRelaxations), relax), "ratio",
          base("base relaxations", relax));
  out.add("graph.truncation_rate",
          ratio(d(Counter::kSsspBoundedTruncations),
                d(Counter::kSsspBoundedRepairs)),
          "ratio", base("bounded repairs", d(Counter::kSsspBoundedRepairs)));
  out.add("graph.rollback_entries", d(Counter::kSsspRollbackEntries), "count");

  const double expansions = d(Counter::kBrExpansions);
  const double prunes =
      d(Counter::kBrPrunesGlobal) + d(Counter::kBrPrunesPerNode);
  out.add("core.br.time_s", clock.total_s("core.br"), "s",
          "benchmark calls into has_improving_deviation/exact_best_response");
  out.add("core.br.expansions", expansions, "count");
  out.add("core.br.prune_rate", ratio(prunes, prunes + expansions), "ratio",
          base("prunes + expansions", prunes + expansions));
  out.add("core.br.aborts", d(Counter::kBrBranchAborts), "count");

  const double hits = d(Counter::kEngineCacheHits);
  const double misses = d(Counter::kEngineCacheMisses);
  out.add("core.engine.warm_s", clock.total_s("core.engine"), "s",
          "benchmark engine builds + warm_distances calls");
  out.add("core.engine.cache_hit_rate", ratio(hits, hits + misses), "ratio",
          base("cache queries", hits + misses));
  out.add("core.engine.epoch_bumps", d(Counter::kEngineEpochBumps), "count");

  auto own_or_zero = [&](const char* name, const char* unit,
                         const char* why) {
    const Metric* m = own.find(name);
    if (m != nullptr)
      out.add(name, m->value, unit, m->note);
    else
      out.add(name, 0.0, unit, why);
  };
  own_or_zero("core.dynamics.round_ms_p50", "ms", "no dynamics rounds");
  own_or_zero("core.dynamics.round_ms_tail", "ms", "no dynamics rounds");
  const double rounds = d(Counter::kMgmRounds);
  const double commits = d(Counter::kMgmCommits);
  const double drops = d(Counter::kMgmConflictDrops);
  out.add("core.dynamics.commits_per_round", ratio(commits, rounds), "ratio",
          base("parallel_mgm rounds", rounds));
  out.add("core.dynamics.conflict_drop_rate", ratio(drops, drops + commits),
          "ratio", base("shard winners", drops + commits));
  out.add("core.dynamics.proposals_per_commit",
          ratio(d(Counter::kMgmProposals), commits), "ratio",
          base("parallel_mgm commits", commits));
  out.add("core.dynamics.time_s", clock.total_s("core.dynamics"), "s",
          "benchmark run_dynamics calls");

  const double calls = d(Counter::kLadderCalls);
  const double shortlist = d(Counter::kLadderCandidates);
  out.add("core.ladder.certify_s", clock.total_s("core.ladder"), "s",
          "benchmark certify_agents calls");
  out.add("core.ladder.escape_exact_rate",
          ratio(d(Counter::kLadderEscapeExact), calls), "ratio",
          base("ladder calls", calls));
  // Tier-1 probes are not counted on their own; every probe is one
  // bounded repair, so bounded repairs are the nearest base.
  out.add("core.ladder.bounded_probe_share",
          ratio(d(Counter::kLadderBoundedProbes),
                d(Counter::kSsspBoundedRepairs)),
          "ratio", base("bounded repairs", d(Counter::kSsspBoundedRepairs)));
  out.add("metric.candidate_fill",
          ratio(shortlist, d(Counter::kLadderCandidateBudget)), "ratio",
          base("shortlist budget", d(Counter::kLadderCandidateBudget)));
  out.add("support.arena.shrinks_per_ladder_call",
          ratio(d(Counter::kArenaShrinkEvents), calls), "ratio",
          base("ladder calls", calls));
  out.add("support.arena.peak_bytes",
          static_cast<double>(gncg::arena_stats().peak_footprint_bytes),
          "bytes", "sum of per-worker arena high-water marks");

  out.add("support.pool.speedup_4t", speedup, "x",
          "part 0: traced 1-thread wall / traced full-pool (4) wall");
  out.add("support.pool.tasks_per_region",
          ratio(d(Counter::kPoolTasks), d(Counter::kPoolRegions)), "ratio",
          base("pool regions", d(Counter::kPoolRegions)));

  own_or_zero("core.restarts.time_s", "s", "no run_restarts work");
  out.add("core.tt.confirms", d(Counter::kTtConfirms), "count");
  out.add("sweep.time_s", clock.total_s("sweep"), "s",
          "benchmark run_sweep calls");
  out.add("trace.overhead_frac", overhead, "ratio",
          "part 0: traced wall / untraced wall - 1");
}

/// Walls and work of a run of passes.
struct PassLog {
  std::vector<double> walls;       ///< one per pass
  std::vector<double> part0_walls; ///< part 0 of each pass
  std::vector<double> cpu_s;       ///< one per pass, all threads
  std::vector<double> latency_ms;  ///< one per primary operation
  std::size_t ops = 0;
};

/// Runs whole passes until `seconds` have elapsed (at least one).
PassLog timed_passes(Workload& workload, LayerClock& clock, double seconds) {
  PassLog log;
  const gncg::Stopwatch measured;
  do {
    const gncg::Stopwatch timer;
    const double cpu_before = process_cpu_s();
    {
      const LayerClock::Scope scope(clock, "perfbench.pass");
      for (std::size_t part = 0; part < workload.parts(); ++part) {
        const gncg::Stopwatch part_timer;
        log.ops += workload.run_part(part, clock, log.latency_ms);
        if (part == 0) log.part0_walls.push_back(part_timer.seconds());
      }
    }
    log.walls.push_back(timer.seconds());
    log.cpu_s.push_back(process_cpu_s() - cpu_before);
  } while (measured.seconds() < seconds);
  return log;
}

/// Wall time of one more untimed-phase run of part 0.
double rerun_part0(Workload& workload, LayerClock& clock) {
  std::vector<double> unused;
  const gncg::Stopwatch timer;
  workload.run_part(0, clock, unused);
  return timer.seconds();
}

RunResult run_workload(const std::string& name, const Args& args) {
  RunResult run;
  const std::size_t threads = bench_threads();
  gncg::set_default_thread_count(threads);
  std::unique_ptr<Workload> workload = make_workload(name, args.scratch);

  std::vector<double> setup_s;
  const CounterPhase setup_phase;
  // At least two set-ups (one when traced); cheap set-ups repeat until one
  // second of set-up time or 200 repeats, so their median is steady.
  double setup_total = 0.0;
  do {
    const gncg::Stopwatch timer;
    workload->setup(args.seed);
    setup_s.push_back(timer.seconds());
    setup_total += setup_s.back();
  } while (!args.trace &&
           (setup_s.size() < 2 || (setup_total < 1.0 && setup_s.size() < 200)));
  const CounterArray setup_counters = setup_phase.delta();

  LayerClock clock;
  const CounterPhase timed_phase;
  const std::string trace_path =
      (std::filesystem::path(args.scratch) /
       ("trace-" + name + "-" + std::to_string(args.seed) + ".json"))
          .string();
  if (args.trace) gncg::instrument::start_tracing();
  const PassLog log = timed_passes(*workload, clock, args.seconds);
  std::size_t spans = 0;
  if (args.trace) spans = gncg::instrument::stop_tracing(trace_path);
  const CounterArray timed_counters = timed_phase.delta();

  if (!args.trace) {
    const LatencySummary latency = summarize_latency(log.latency_ms);
    double total = 0.0;
    for (double wall : log.walls) total += wall;
    run.metrics.add("setup_s", median(setup_s), "s",
                    "median of " + std::to_string(setup_s.size()) +
                        " set-ups");
    run.metrics.add("wall_s", median(log.walls), "s",
                    "median of " + std::to_string(log.walls.size()) +
                        " passes");
    run.metrics.add("throughput_per_s",
                    ratio(static_cast<double>(log.ops), total), "1/s",
                    std::to_string(log.ops) + " operations");
    run.metrics.add("latency_ms_p50", latency.p50, "ms",
                    std::to_string(latency.count) + " samples");
    run.metrics.add("peak_rss_mb", peak_rss_mb(), "MiB");
    // Reported, not gated: their spread across seeds exceeds the largest
    // bound a metric may have (see perfbench/README.md).
    run.details.add("latency_ms_tail", latency.tail, "ms",
                    latency.describe_tail());
    run.details.add("cpu_s", median(log.cpu_s), "s",
                    "CPU time of one pass, all threads");
  } else {
    // The layer figures come from the traced passes alone.  Part 0 then
    // runs once untraced (tracing overhead, against its traced wall) and
    // once traced on one thread and on the full pool (pool speed-up).
    const LayerClock traced_clock = clock;
    MetricSet own;
    workload->layer_report(own);
    const double traced_wall = median(log.part0_walls);
    const double untraced_wall = rerun_part0(*workload, clock);
    auto traced_rerun = [&](std::size_t width) {
      gncg::set_default_thread_count(width);
      gncg::instrument::start_tracing();
      const double wall = rerun_part0(*workload, clock);
      gncg::instrument::stop_tracing(
          (std::filesystem::path(args.scratch) /
           ("trace-" + name + "-" + std::to_string(args.seed) + "-" +
            std::to_string(width) + "t.json"))
              .string());
      gncg::set_default_thread_count(threads);
      return wall;
    };
    const double serial_wall = traced_rerun(1);
    const double full_wall = traced_rerun(full_pool_threads());

    layer_metrics(timed_counters, traced_clock, own,
                  ratio(serial_wall, full_wall),
                  ratio(traced_wall, untraced_wall) - 1.0, run.metrics);
    print_spans(traced_clock);
    print_counters("set-up", setup_counters);
    print_counters("timed (traced)", timed_counters);
    std::printf("chrome trace: %s (%zu spans)\n", trace_path.c_str(), spans);
    std::printf("part 0 walls: traced %zut median %.6f s over %zu passes, "
                "untraced %zut %.6f s, traced 1t %.6f s, traced %zut %.6f s\n",
                threads, traced_wall, log.part0_walls.size(), threads,
                untraced_wall, serial_wall, full_pool_threads(), full_wall);
  }

  const CounterPhase check_phase;
  workload->check(run.tally);
  // A traced run's workload figures would mix in the extra part-0 runs, so
  // only untraced runs report them.
  if (args.trace)
    print_counters("check", check_phase.delta());
  else
    workload->report(run.details);
  run.details.add("failed_frac",
                  ratio(static_cast<double>(run.tally.failed),
                        static_cast<double>(run.tally.attempted)),
                  "ratio",
                  std::to_string(run.tally.failed) + " of " +
                      std::to_string(run.tally.attempted) + " operations");
  if (run.tally.attempted == 0) run.tally.wrong("no operation attempted");
  for (const Metric& m : run.metrics.items())
    if (!std::isfinite(m.value)) run.tally.wrong(m.name + " is not finite");
  return run;
}

void print_json_metrics(const MetricSet& set, const std::string& prefix,
                        bool& first) {
  for (const Metric& m : set.items()) {
    std::printf("%s\"%s%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", prefix.c_str(), m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
    first = false;
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name|all> --seed <n> "
                 "--seconds <s> --trace <0|1> [--scratch <dir>]\n");
    return 1;
  }
  std::vector<std::string> names;
  const std::vector<std::string>& known = workload_names();
  if (args.workload == "all") {
    names = known;
  } else if (std::find(known.begin(), known.end(), args.workload) !=
             known.end()) {
    names = {args.workload};
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 1;
  }

  std::vector<RunResult> results;
  try {
    for (const std::string& name : names) {
      std::printf("== %s (seed %llu, %g s, %s, %zu threads)\n", name.c_str(),
                  static_cast<unsigned long long>(args.seed), args.seconds,
                  args.trace ? "traced" : "untraced", bench_threads());
      std::fflush(stdout);
      results.push_back(run_workload(name, args));
      const RunResult& run = results.back();
      print_metrics(args.trace ? "per-layer metrics" : "end-to-end metrics",
                    run.metrics);
      print_metrics("workload metrics", run.details);
      for (const std::string& note : run.tally.notes)
        std::printf("  %s\n", note.c_str());
      std::fflush(stdout);
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 3;
  }

  bool correct = true;
  std::uint64_t attempted = 0, failed = 0;
  for (const RunResult& run : results) {
    correct = correct && run.tally.correct;
    attempted += run.tally.attempted;
    failed += run.tally.failed;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  bool first = true;
  for (std::size_t i = 0; i < results.size(); ++i)
    print_json_metrics(results[i].metrics,
                       names.size() > 1 ? names[i] + "/" : "", first);
  std::printf("}}\n");
  return 0;
}
