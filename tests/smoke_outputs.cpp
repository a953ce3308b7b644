// Checks the files the orchestrator smoke ctests write into the build tree.
//
// sweep_smoke, dynamics_smoke, br_certify_smoke and approx_ne_smoke run
// sweep_runner once each (their grids are spelled only in CMakeLists.txt)
// and are this test's ctest fixture setup, so these cases parse the real
// CLI output -- journals, records, summaries, and the sweep smoke's
// kernel-counter metrics and Chrome trace -- without running any grid a
// second time.  GNCG_SMOKE_DIR is the build directory they write to.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "support/instrument.hpp"
#include "sweep/jsonl.hpp"

namespace gncg {
namespace {

std::string smoke_path(const std::string& name) {
  return std::string(GNCG_SMOKE_DIR) + "/" + name;
}

/// Every line of a JSONL file, parsed; a malformed line fails the test.
std::vector<JsonValue> read_jsonl(const std::string& name) {
  std::ifstream in(smoke_path(name));
  EXPECT_TRUE(in.is_open()) << smoke_path(name);
  std::vector<JsonValue> values;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    auto value = JsonValue::parse(line);
    EXPECT_TRUE(value.has_value()) << name << ": " << line;
    if (value.has_value()) values.push_back(std::move(*value));
  }
  return values;
}

double metric(const JsonValue& row, const char* key) {
  const JsonValue* metrics = row.find("metrics");
  return metrics == nullptr ? NAN : metrics->number_at(key).value_or(NAN);
}

std::string tag(const JsonValue& row, const char* key) {
  const JsonValue* tags = row.find("tags");
  return tags == nullptr ? "" : tags->string_at(key).value_or("");
}

/// Checks the schema every smoke's outputs share and returns the journal's
/// job records: the journal header counts its records and every record
/// carries the plan coordinates; each row is exactly {metrics, tags} with
/// no wall-clock (`*_ms`) metric; journal points are a permutation of
/// 0..jobs-1 and the records file lists them in order; every summary line
/// aggregates at least one value.
std::vector<JsonValue> check_outputs(const std::string& smoke) {
  const auto journal = read_jsonl(smoke + ".jsonl");
  if (journal.empty()) {
    ADD_FAILURE() << smoke << ": empty journal";
    return {};
  }
  const JsonValue& header = journal[0];
  EXPECT_EQ(header.string_at("schema"), "gncg-sweep-journal-1") << smoke;
  const std::vector<JsonValue> records(journal.begin() + 1, journal.end());
  EXPECT_EQ(header.number_at("jobs"), static_cast<double>(records.size()))
      << smoke;

  std::vector<int> points;
  for (const JsonValue& record : records) {
    EXPECT_EQ(record.string_at("schema"), "gncg-sweep-1") << smoke;
    for (const char* key : {"scenario", "point", "host", "n", "alpha",
                            "norm_p", "seed", "stream", "rows"})
      EXPECT_NE(record.find(key), nullptr) << smoke << ": no " << key;
    points.push_back(static_cast<int>(record.number_at("point").value_or(-1)));
    const JsonValue* rows = record.find("rows");
    if (rows == nullptr) continue;
    for (const JsonValue& row : rows->items()) {
      EXPECT_EQ(row.members().size(), 2u) << smoke;
      EXPECT_NE(row.find("tags"), nullptr) << smoke;
      const JsonValue* metrics = row.find("metrics");
      EXPECT_NE(metrics, nullptr) << smoke;
      if (metrics == nullptr) continue;
      for (const auto& [key, value] : metrics->members())
        EXPECT_FALSE(key.ends_with("_ms")) << smoke << ": " << key;
    }
  }
  std::sort(points.begin(), points.end());
  for (std::size_t i = 0; i < points.size(); ++i)
    EXPECT_EQ(points[i], static_cast<int>(i)) << smoke;

  const auto results = read_jsonl(smoke + "_records.jsonl");
  EXPECT_EQ(results.size(), records.size()) << smoke;
  for (std::size_t i = 0; i < results.size(); ++i)
    EXPECT_EQ(results[i].number_at("point"), static_cast<double>(i)) << smoke;

  const auto summaries = read_jsonl(smoke + "_summary.jsonl");
  EXPECT_FALSE(summaries.empty()) << smoke;
  for (const JsonValue& summary : summaries) {
    EXPECT_EQ(summary.string_at("schema"), "gncg-sweep-summary-1") << smoke;
    EXPECT_GE(summary.number_at("count").value_or(0.0), 1.0) << smoke;
  }
  return records;
}

const std::vector<JsonValue>& rows_of(const JsonValue& record) {
  static const std::vector<JsonValue> kNone;
  const JsonValue* rows = record.find("rows");
  return rows == nullptr ? kNone : rows->items();
}

TEST(SmokeGrid, SweepSmokeOutputsCarrySchema) {
  const auto records = check_outputs("sweep_smoke");
  // br_dynamics, poa_random, optimum_gap x dense, euclidean, tree x 2 seeds.
  EXPECT_EQ(records.size(), 18u);
}

TEST(SmokeGrid, SweepSmokeMetricsCountKernelWork) {
  const auto metrics = read_jsonl("sweep_smoke_metrics.jsonl");
  const auto journal = read_jsonl("sweep_smoke.jsonl");
  ASSERT_FALSE(metrics.empty());
  ASSERT_FALSE(journal.empty());
  const JsonValue& header = metrics[0];
  EXPECT_EQ(header.string_at("schema"), "gncg-sweep-metrics-1");
  ASSERT_NE(header.find("instrumented"), nullptr);
  EXPECT_EQ(header.find("instrumented")->as_bool(), instrument::compiled_in());
  const std::size_t jobs = metrics.size() - 1;
  EXPECT_EQ(header.number_at("jobs"), static_cast<double>(jobs));
  EXPECT_EQ(journal[0].number_at("jobs"), static_cast<double>(jobs));

  // One fixed counter taxonomy in every record: non-negative integer event
  // counts only, never wall-clock.
  std::optional<std::vector<std::string>> names;
  double total = 0.0;
  for (std::size_t i = 1; i < metrics.size(); ++i) {
    EXPECT_EQ(metrics[i].string_at("schema"), "gncg-sweep-metrics-1");
    const JsonValue* counters = metrics[i].find("counters");
    ASSERT_NE(counters, nullptr);
    std::vector<std::string> keys;
    for (const auto& [key, value] : counters->members()) {
      keys.push_back(key);
      EXPECT_FALSE(key.ends_with("_ms")) << key;
      ASSERT_TRUE(value.is_number()) << key;
      EXPECT_GE(value.as_number(), 0.0) << key;
      EXPECT_EQ(value.as_number(), std::floor(value.as_number())) << key;
      total += value.as_number();
    }
    std::sort(keys.begin(), keys.end());
    if (!names) names = keys;
    EXPECT_EQ(keys, *names);
  }
  if (instrument::compiled_in()) {
    EXPECT_GT(total, 0.0) << "instrumented run recorded no kernel work";
  } else {
    EXPECT_EQ(total, 0.0);
  }
}

TEST(SmokeGrid, SweepSmokeTraceHasASpanPerJob) {
  std::ifstream in(smoke_path("sweep_smoke_trace.json"));
  ASSERT_TRUE(in.is_open());
  std::stringstream text;
  text << in.rdbuf();
  const auto trace = JsonValue::parse(text.str());
  ASSERT_TRUE(trace.has_value());
  ASSERT_TRUE(trace->is_array());
  std::size_t spans = 0;
  for (const JsonValue& event : trace->items()) {
    if (event.string_at("ph") != "X") continue;
    ++spans;
    for (const char* key : {"name", "cat", "ts", "dur", "pid", "tid"})
      EXPECT_NE(event.find(key), nullptr) << key;
  }
  const std::size_t jobs = read_jsonl("sweep_smoke.jsonl").size() - 1;
  if (instrument::compiled_in()) {
    EXPECT_GE(spans, jobs);
  } else {
    EXPECT_TRUE(trace->items().empty());
  }
}

TEST(SmokeGrid, DynamicsRowsAreTaggedAndMgmBatches) {
  const auto records = check_outputs("dynamics_smoke");
  EXPECT_EQ(records.size(), 6u);  // 3 scenarios x 2 hosts
  // Rows per job with schedulers=2, rules=2: schedulers x rules,
  // schedulers, and parallel_mgm's three schedulers (parallel_mgm,
  // max_gain, round_robin) per rule.
  const std::map<std::string, std::size_t> expected_rows = {
      {"ne_sampling", 4}, {"fip_probe", 2}, {"parallel_mgm", 6}};
  bool saw_batch_of_two = false;
  for (const JsonValue& record : records) {
    const std::string scenario = record.string_at("scenario").value_or("");
    const auto expected = expected_rows.find(scenario);
    ASSERT_NE(expected, expected_rows.end()) << scenario;
    EXPECT_EQ(rows_of(record).size(), expected->second) << scenario;
    for (const JsonValue& row : rows_of(record)) {
      EXPECT_FALSE(tag(row, "scheduler").empty()) << scenario;
      EXPECT_FALSE(tag(row, "rule").empty()) << scenario;
      EXPECT_EQ(metric(row, "restarts"), 6.0) << scenario;
      if (scenario == "parallel_mgm" && tag(row, "scheduler") == "parallel_mgm") {
        // shards=2 bounds a round to two commits.
        const double batch = metric(row, "max_round_commits");
        EXPECT_GE(batch, 1.0);
        EXPECT_LE(batch, 2.0);
        saw_batch_of_two = saw_batch_of_two || batch == 2.0;
      }
    }
  }
  EXPECT_TRUE(saw_batch_of_two) << "no parallel_mgm round batched 2 moves";
}

TEST(SmokeGrid, BrCertifyRowsCountEveryAgent) {
  const auto records = check_outputs("br_certify_smoke");
  EXPECT_EQ(records.size(), 12u);  // 3 hosts x 2 alphas x 2 seeds
  for (const JsonValue& record : records) {
    EXPECT_EQ(record.string_at("scenario"), "br_certify");
    ASSERT_EQ(rows_of(record).size(), 1u);
    const JsonValue& row = rows_of(record)[0];
    const double agents = metric(row, "agents");
    EXPECT_EQ(agents, record.number_at("n").value_or(NAN));
    EXPECT_GE(metric(row, "improving_agents"), 0.0);
    EXPECT_GE(metric(row, "br_evaluations"), agents);
    const std::string certified = tag(row, "certified");
    EXPECT_TRUE(certified == "NE" || certified == "not NE") << certified;
  }
}

TEST(SmokeGrid, ApproxNeCertifiesWithoutDenseMatrix) {
  const auto records = check_outputs("approx_ne_smoke");
  ASSERT_EQ(records.size(), 1u);
  const JsonValue& record = records[0];
  EXPECT_EQ(record.string_at("scenario"), "approx_ne");
  EXPECT_EQ(record.string_at("host"), "euclidean");
  EXPECT_EQ(record.number_at("n"), 10000.0);
  ASSERT_EQ(rows_of(record).size(), 1u);
  const JsonValue& row = rows_of(record)[0];
  // The no-O(n^2) discipline: the euclidean path materialized no dense
  // matrix cell.
  EXPECT_EQ(metric(row, "dense_cells_delta"), 0.0);
  EXPECT_GE(metric(row, "max_beta"), 1.0);
  EXPECT_GE(metric(row, "mean_beta"), 1.0);
  EXPECT_GE(metric(row, "max_eps"), 0.0);
  EXPECT_EQ(metric(row, "certified_agents"), 16.0);
  EXPECT_EQ(tag(row, "rule"), "approx_ladder");
}

}  // namespace
}  // namespace gncg
