// Shared machinery of the perfbench program: named metrics, latency
// summaries, benchmark-side layer spans, outcome accounting and the
// workload interface.
//
// Everything here observes the library from outside: spans wrap the
// program's own calls into public functions, and kernel work is read as
// deltas of gncg::instrument::metrics_snapshot() counters.  Nothing is
// added inside the library.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "support/instrument.hpp"
#include "support/timer.hpp"

namespace perfbench {

using gncg::instrument::Counter;
using gncg::instrument::CounterArray;

/// One reported figure.  `note` states the base of a ratio or the sample
/// count of a percentile; it is printed in the table, never in the JSON.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;
};

/// Metrics in insertion order.
class MetricSet {
 public:
  void add(std::string name, double value, std::string unit,
           std::string note = "");
  const std::vector<Metric>& items() const { return items_; }
  const Metric* find(const std::string& name) const;

 private:
  std::vector<Metric> items_;
};

/// Median of a sample (0 for an empty one).
double median(std::vector<double> values);

/// Median and tail of a latency sample.  The tail is the highest
/// nearest-rank percentile that leaves at least ten samples beyond it; with
/// fewer than eleven samples there is none, and the maximum is reported.
struct LatencySummary {
  double p50 = 0.0;
  double tail = 0.0;
  double tail_percentile = 0.0;
  std::size_t count = 0;

  /// "p<pct> of <count> samples" (or "max of <count>").
  std::string describe_tail() const;
};
LatencySummary summarize_latency(std::vector<double> samples);

/// Ratio with a zero base reported as 0 (the table notes the base).
double ratio(double numerator, double denominator);

/// Value of one counter in a delta array.
std::uint64_t at(const CounterArray& counters, Counter counter);

/// Process-wide counter totals since construction (read at quiescent
/// points, after the pool joined).
class CounterPhase {
 public:
  CounterPhase();
  CounterArray delta() const;

 private:
  gncg::instrument::MetricsSnapshot before_;
};

/// Benchmark-side spans around the program's calls into the library's
/// layers.  Each scope records a Chrome trace span (category "perfbench",
/// kept only while a trace session is active) and adds its wall time to the
/// layer's totals; a scope's self time excludes the scopes nested in it.
/// Scopes are opened on the main thread only.
class LayerClock {
 public:
  struct Entry {
    std::size_t calls = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };

  class Scope {
   public:
    Scope(LayerClock& clock, std::string layer);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    LayerClock& clock_;
    std::string layer_;
    Scope* parent_;
    double child_s_ = 0.0;
    gncg::instrument::Span span_;
    gncg::Stopwatch timer_;
  };

  /// Total wall time of a layer's scopes (0 when it had none).
  double total_s(const std::string& layer) const;
  const std::map<std::string, Entry>& entries() const { return entries_; }

 private:
  std::map<std::string, Entry> entries_;
  Scope* open_ = nullptr;
};

/// Operations attempted and failed, plus the benchmark's own consistency
/// verdict.  A failed operation is a wrong or unusable answer of the
/// library on one unit of work (the failure classes each workload names);
/// `correct` turns false when an output disagrees with itself across
/// repeated passes or with the in-memory result it was written from, when
/// nothing was attempted, or when a reported metric is not finite.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> notes;

  void fail(std::uint64_t count, const std::string& why);
  void wrong(const std::string& why);
};

/// One benchmark workload.  Its timed work is a pass over a fixed number
/// of independent parts (hosts, a sweep), all built from the seed.
/// main() calls setup (several times, each rebuilding the same inputs),
/// then passes while the measured time lasts, then check once.  Running a
/// part again repeats identical work.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the inputs from the seed (timed as set-up).
  virtual void setup(std::uint64_t seed) = 0;

  /// Number of parts in one pass.
  virtual std::size_t parts() const = 0;

  /// Runs part `index` once.  Appends one latency sample (ms) per primary
  /// operation and returns the number of primary operations completed.
  virtual std::size_t run_part(std::size_t index, LayerClock& clock,
                               std::vector<double>& latency_ms) = 0;

  /// Output checks, outside the timed phase, over every part run so far.
  virtual void check(Tally& tally) = 0;

  /// Workload-named end-to-end figures (after check).
  virtual void report(MetricSet& out) const = 0;

  /// Layer figures only the workload observes (round latency, job busy
  /// time), over the parts run so far.
  virtual void layer_report(MetricSet& out) const { (void)out; }
};

/// Workload by name (one of workload_names()).  `scratch` is a directory
/// the workload may write into (the sweep journal).
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const std::string& scratch);

/// The workload names, in the order `--workload all` runs them.
const std::vector<std::string>& workload_names();

/// Pool width of the end-to-end runs and the traced passes: min(2, full
/// pool).  On a shared virtual machine a four-wide pool makes the fork-join
/// workloads' wall times follow the host's contention (see README.md); two
/// workers keep them repeatable.
std::size_t bench_threads();

/// The full pool, min(4, hardware threads): the traced run's speed-up
/// reference.
std::size_t full_pool_threads();

/// Peak resident set of the process image so far, in MiB.
double peak_rss_mb();

/// CPU time (user + system, all threads) the process has used so far.
double process_cpu_s();

}  // namespace perfbench
