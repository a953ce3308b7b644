#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>
#include <utility>

namespace perfbench {

void MetricSet::add(std::string name, double value, std::string unit,
                    std::string note) {
  items_.push_back(
      {std::move(name), value, std::move(unit), std::move(note)});
}

const Metric* MetricSet::find(const std::string& name) const {
  for (const Metric& metric : items_)
    if (metric.name == name) return &metric;
  return nullptr;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

std::string LatencySummary::describe_tail() const {
  char text[64];
  if (count >= 11)
    std::snprintf(text, sizeof text, "p%.2f of %zu samples",
                  tail_percentile, count);
  else
    std::snprintf(text, sizeof text, "max of %zu samples", count);
  return text;
}

LatencySummary summarize_latency(std::vector<double> samples) {
  LatencySummary summary;
  summary.count = samples.size();
  if (samples.empty()) return summary;
  summary.p50 = median(samples);
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  if (n >= 11) {
    // Nearest rank n - 10 (1-based): exactly ten samples rank above it.
    summary.tail = samples[n - 11];
    summary.tail_percentile =
        100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  } else {
    summary.tail = samples.back();
    summary.tail_percentile = 100.0;
  }
  return summary;
}

double ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

std::uint64_t at(const CounterArray& counters, Counter counter) {
  return counters[static_cast<std::size_t>(counter)];
}

CounterPhase::CounterPhase() : before_(gncg::instrument::metrics_snapshot()) {}

CounterArray CounterPhase::delta() const {
  return gncg::instrument::counters_delta(
      before_, gncg::instrument::metrics_snapshot());
}

LayerClock::Scope::Scope(LayerClock& clock, std::string layer)
    : clock_(clock),
      layer_(std::move(layer)),
      parent_(clock.open_),
      span_(layer_, "perfbench") {
  clock_.open_ = this;
}

LayerClock::Scope::~Scope() {
  const double elapsed = timer_.seconds();
  Entry& entry = clock_.entries_[layer_];
  ++entry.calls;
  entry.total_s += elapsed;
  entry.self_s += elapsed - child_s_;
  if (parent_ != nullptr) parent_->child_s_ += elapsed;
  clock_.open_ = parent_;
}

double LayerClock::total_s(const std::string& layer) const {
  const auto it = entries_.find(layer);
  return it == entries_.end() ? 0.0 : it->second.total_s;
}

void Tally::fail(std::uint64_t count, const std::string& why) {
  if (count == 0) return;
  failed += count;
  notes.push_back("failed x" + std::to_string(count) + ": " + why);
}

void Tally::wrong(const std::string& why) {
  correct = false;
  notes.push_back("inconsistent: " + why);
}

std::size_t bench_threads() {
  return std::min<std::size_t>(2, full_pool_threads());
}

std::size_t full_pool_threads() {
  const unsigned hardware = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hardware, 1, 4);
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss over exec,
  // so it would report the launching interpreter's peak when that is larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
  return 0.0;
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

}  // namespace perfbench
