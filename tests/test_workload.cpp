// The workload-generation and perf-gate satellites of the bench
// subsystem:
//   - util::Zipfian draws the YCSB-shaped skew it claims (log-log
//     frequency-rank slope ≈ -theta) and is deterministic under a seed;
//   - util::seed_from_env implements the PERFDMF_SEED replay contract;
//   - bench_json output (escaping, schema_version, non-finite -> null)
//     parses back through perfguard's reader;
//   - perfguard's regression math over runs stored as PerfDMF trials:
//     pass, fail, direction, missing-metric, new-metric, zero-baseline,
//     failed-operation and ungated-class cases, and the 5-run median the
//     check.sh gate compares against.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "../bench/bench_json.h"
#include "api/database_api.h"
#include "perfguard/perfguard.h"
#include "util/error.h"
#include "util/file.h"
#include "util/json.h"
#include "util/rng.h"

using namespace perfdmf;
namespace pg = perfdmf::perfguard;

// ------------------------------------------------------------- zipfian

TEST(Zipfian, FrequencyRankSlopeMatchesTheta) {
  constexpr std::uint64_t kN = 500;
  constexpr double kTheta = 0.8;
  constexpr int kDraws = 300000;

  util::Rng rng(12345);
  util::Zipfian zipf(kN, kTheta);
  std::vector<int> counts(kN, 0);
  for (int i = 0; i < kDraws; ++i) {
    const std::uint64_t rank = zipf.next(rng);
    ASSERT_LT(rank, kN);
    ++counts[rank];
  }

  // Ranks must already be sorted by popularity (rank 0 hottest)...
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[10], counts[100]);

  // ...and the log-log frequency-rank line over the well-sampled head
  // must have slope ≈ -theta (least squares over ranks 1..30).
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  int n = 0;
  for (std::uint64_t r = 0; r < 30; ++r) {
    ASSERT_GT(counts[r], 0) << "rank " << r << " never drawn";
    const double x = std::log(static_cast<double>(r + 1));
    const double y = std::log(static_cast<double>(counts[r]));
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
    ++n;
  }
  const double slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
  EXPECT_NEAR(slope, -kTheta, 0.12)
      << "zipfian frequency-rank slope off: " << slope;
}

TEST(Zipfian, DeterministicUnderFixedSeed) {
  util::Zipfian zipf(10000, 0.99);
  util::Rng a(777);
  util::Rng b(777);
  util::Rng c(778);
  bool diverged = false;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t va = zipf.next(a);
    ASSERT_EQ(va, zipf.next(b)) << "same seed diverged at draw " << i;
    if (va != zipf.next(c)) diverged = true;
  }
  EXPECT_TRUE(diverged) << "different seeds produced identical streams";
}

TEST(Zipfian, ScatterStaysInRangeAndIsInjectiveEnough) {
  constexpr std::uint64_t kN = 5000;
  util::Zipfian zipf(kN, 0.99);
  std::map<std::uint64_t, int> seen;
  for (std::uint64_t r = 0; r < 1000; ++r) {
    const std::uint64_t key = zipf.scatter(r);
    EXPECT_LT(key, kN);
    ++seen[key];
  }
  // Scattering 1000 ranks into 5000 slots loses ~10% to birthday
  // collisions (5000·(1−e^{−0.2}) ≈ 906 distinct expected); well above
  // 800 means the hot set is genuinely spread, not clumped.
  EXPECT_GT(seen.size(), 800u);
}

// ------------------------------------------------------ seed plumbing

TEST(SeedFromEnv, OverridesAndFallsBack) {
  ::unsetenv("PERFDMF_SEED");
  EXPECT_EQ(util::seed_from_env(42), 42u);

  ::setenv("PERFDMF_SEED", "123", 1);
  EXPECT_EQ(util::seed_from_env(42), 123u);

  ::setenv("PERFDMF_SEED", "0x2a", 1);
  EXPECT_EQ(util::seed_from_env(7), 42u);

  ::setenv("PERFDMF_SEED", "not-a-seed", 1);
  EXPECT_EQ(util::seed_from_env(42), 42u);

  ::setenv("PERFDMF_SEED", "", 1);
  EXPECT_EQ(util::seed_from_env(42), 42u);

  ::unsetenv("PERFDMF_SEED");
}

// ------------------------------------------------- BENCH json parsing

TEST(BenchJsonParse, ReadsFieldsAndSkipsNullMetrics) {
  const pg::BenchRun run = pg::parse_bench_json(
      R"({"bench":"workload","schema_version":2,"git_sha":"abc\"123",)"
      R"("timestamp":"2026-08-09T00:00:00Z",)"
      R"("metrics":{"a_ms":12.5,"weird \\ name":3,"broken_ratio":null}})");
  EXPECT_EQ(run.bench, "workload");
  EXPECT_EQ(run.schema_version, 2);
  EXPECT_EQ(run.git_sha, "abc\"123");
  EXPECT_EQ(run.machine_class, "");  // before version 3: no class
  ASSERT_EQ(run.metrics.size(), 2u);
  EXPECT_EQ(run.metrics[0].first, "a_ms");
  EXPECT_DOUBLE_EQ(run.metrics[0].second, 12.5);
  EXPECT_EQ(run.metrics[1].first, "weird \\ name");
}

TEST(BenchJsonParse, RejectsMalformedAndFutureSchema) {
  EXPECT_THROW(pg::parse_bench_json("{"), ParseError);
  EXPECT_THROW(pg::parse_bench_json("[1,2]"), ParseError);
  EXPECT_THROW(pg::parse_bench_json(R"({"metrics":{}})"), ParseError);
  EXPECT_THROW(pg::parse_bench_json(R"({"bench":"x"})"), ParseError);
  EXPECT_THROW(
      pg::parse_bench_json(
          R"({"bench":"x","schema_version":99,"metrics":{}})"),
      ParseError);
}

TEST(BenchJsonParse, EmittedFileRoundTripsThroughBenchJson) {
  // End to end through the writer: special characters in the metric
  // name must be escaped, non-finite values must become null (and then
  // be dropped by the reader), and schema_version must be present.
  bench::BenchJson json("workload_test_roundtrip");
  json.set("plain_ms", 1.5);
  json.set("quote\"backslash\\name", 2.0);
  json.set("inf_speedup", std::numeric_limits<double>::infinity());
  json.write();

  const std::filesystem::path path = "BENCH_workload_test_roundtrip.json";
  const pg::BenchRun run = pg::load_bench_file(path);
  std::filesystem::remove(path);

  EXPECT_EQ(run.bench, "workload_test_roundtrip");
  EXPECT_EQ(run.schema_version, bench::kBenchJsonSchemaVersion);
  EXPECT_EQ(run.machine_class, bench::machine_class());
  EXPECT_EQ(run.machine_class.rfind("nproc", 0), 0u);
  EXPECT_EQ(run.machine_class.find_first_not_of("abcdefghijklmnopqrstuvwxyz0123456789-"),
            std::string::npos)
      << run.machine_class << " must be usable as a directory name";
  EXPECT_FALSE(run.build_type.empty());
  ASSERT_EQ(run.metrics.size(), 2u) << "null metric should be dropped";
  EXPECT_EQ(run.metrics[0].first, "plain_ms");
  EXPECT_EQ(run.metrics[1].first, "quote\"backslash\\name");
}

TEST(Json, ParsesEscapesArraysAndNumbers) {
  const auto v = util::json::parse(
      R"({"s":"aA\n","arr":[1,-2.5e1,true,false,null],"o":{}})");
  EXPECT_EQ(v.find("s")->as_string(), "aA\n");
  const auto& arr = v.find("arr")->as_array();
  ASSERT_EQ(arr.size(), 5u);
  EXPECT_DOUBLE_EQ(arr[0].as_number(), 1.0);
  EXPECT_DOUBLE_EQ(arr[1].as_number(), -25.0);
  EXPECT_TRUE(arr[2].as_bool());
  EXPECT_TRUE(arr[4].is_null());
  EXPECT_THROW(util::json::parse("{} trailing"), ParseError);
  EXPECT_THROW(util::json::parse(R"({"a":inf})"), ParseError);
}

// ----------------------------------------------------------- gating

TEST(GateRules, ParseAndMatch) {
  const auto rules = pg::parse_gate_rules(
      "# comment\n"
      "workload:*_ops_per_s\n"
      "query:hash_join_1m_ms   # trailing comment\n"
      "*:durable_commits_per_s\n"
      "workload:import_*_rows_per_s\n"
      "\n");
  ASSERT_EQ(rules.size(), 4u);
  EXPECT_TRUE(pg::is_gated(rules, "workload", "zipfian_read_t8_ops_per_s"));
  EXPECT_FALSE(pg::is_gated(rules, "workload", "zipfian_read_t8_p99_us"));
  EXPECT_TRUE(pg::is_gated(rules, "query", "hash_join_1m_ms"));
  EXPECT_FALSE(pg::is_gated(rules, "other", "hash_join_1m_ms"));
  EXPECT_TRUE(pg::is_gated(rules, "sqldb", "durable_commits_per_s"));
  // Mid-pattern star: prefix and suffix must both match.
  EXPECT_TRUE(pg::is_gated(rules, "workload", "import_t4_rows_per_s"));
  EXPECT_FALSE(pg::is_gated(rules, "workload", "import_t4_rows_per_min"));
  EXPECT_THROW(pg::parse_gate_rules("no-colon-here\n"), ParseError);
  EXPECT_THROW(pg::parse_gate_rules("workload:**_ops_per_s\n"), ParseError);
}

TEST(GateRules, DirectionHeuristic) {
  EXPECT_TRUE(pg::lower_is_better("hash_join_1m_ms"));
  EXPECT_TRUE(pg::lower_is_better("fsync_micros"));
  EXPECT_TRUE(pg::lower_is_better("p99_us"));
  EXPECT_TRUE(pg::lower_is_better("read_write_t2_errors"));
  EXPECT_FALSE(pg::lower_is_better("zipfian_read_t8_ops_per_s"));
  EXPECT_FALSE(pg::lower_is_better("top_k_speedup"));
  EXPECT_FALSE(pg::lower_is_better("ms"));  // the suffix alone is no name
}

// ----------------------------------------------- perfguard regression math

namespace {

constexpr const char* kClass = "nproc4-test-cpu";

/// A run of `bench` on kClass, `minute` minutes into the day: later
/// minutes are later runs.
pg::BenchRun make_run(const std::string& bench,
                      std::vector<std::pair<std::string, double>> metrics,
                      int minute = 0, const std::string& machine = kClass) {
  pg::BenchRun run;
  run.bench = bench;
  run.machine_class = machine;
  run.build_type = "Release";
  run.git_sha = "deadbee";
  char timestamp[32];
  std::snprintf(timestamp, sizeof timestamp, "2026-08-09T%02d:%02d:00Z",
                minute / 60, minute % 60);
  run.timestamp = timestamp;
  run.schema_version = 3;
  run.metrics = std::move(metrics);
  return run;
}

const std::vector<pg::GateRule> kGates = {{"workload", "*_ops_per_s"},
                                          {"workload", "*_ms"},
                                          {"workload", "*_errors"}};

/// `current` checked against `baselines`, all stored in one fresh store.
pg::Report check(const std::vector<pg::BenchRun>& baselines,
                 const pg::BenchRun& current) {
  pg::PerfDb db;
  for (const auto& run : baselines) db.store(run);
  pg::Report report;
  db.check(current, kGates, report);
  return report;
}

const pg::Delta* find_delta(const pg::Report& report,
                            const std::string& metric) {
  for (const pg::Delta& d : report.deltas) {
    if (d.metric == metric) return &d;
  }
  return nullptr;
}

}  // namespace

TEST(PerfGuard, WithinThresholdPasses) {
  const pg::Report report = check(
      {make_run("workload", {{"mix_t8_ops_per_s", 1000.0}, {"scan_ms", 100.0}})},
      make_run("workload", {{"mix_t8_ops_per_s", 900.0}, {"scan_ms", 110.0}}, 1));
  EXPECT_TRUE(report.ok());
  const pg::Delta* d = find_delta(report, "mix_t8_ops_per_s");
  ASSERT_NE(d, nullptr);
  EXPECT_TRUE(d->gated);
  EXPECT_FALSE(d->regressed);
  EXPECT_NEAR(d->delta_pct, -10.0, 1e-6);
  EXPECT_NEAR(find_delta(report, "scan_ms")->delta_pct, 10.0, 1e-6);
}

TEST(PerfGuard, InjectedRegressionFails) {
  const pg::Report report = check({make_run("workload", {{"scan_ms", 100.0}})},
                                  make_run("workload", {{"scan_ms", 200.0}}, 1));
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.regressions, 1);
  const pg::Delta* d = find_delta(report, "scan_ms");
  ASSERT_NE(d, nullptr);
  EXPECT_TRUE(d->regressed);
  EXPECT_NEAR(d->delta_pct, 100.0, 1e-6);
}

TEST(PerfGuard, ThroughputDropFailsAndLatencyDropPasses) {
  // Throughput falls to 40% (bad); latency falls to 40% (good).
  const pg::Report report = check(
      {make_run("workload", {{"mix_t8_ops_per_s", 1000.0}, {"scan_ms", 100.0}})},
      make_run("workload", {{"mix_t8_ops_per_s", 400.0}, {"scan_ms", 40.0}}, 1));
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.regressions, 1);
  EXPECT_TRUE(find_delta(report, "mix_t8_ops_per_s")->regressed);
  EXPECT_FALSE(find_delta(report, "scan_ms")->regressed);
}

TEST(PerfGuard, UngatedRegressionIsAdvisory) {
  const pg::Report report = check({make_run("workload", {{"p99_us", 10.0}})},
                                  make_run("workload", {{"p99_us", 1000.0}}, 1));
  EXPECT_TRUE(report.ok());
  const pg::Delta* d = find_delta(report, "p99_us");
  ASSERT_NE(d, nullptr);
  EXPECT_FALSE(d->gated);
  EXPECT_FALSE(d->regressed);
  EXPECT_NEAR(d->delta_pct, 9900.0, 1e-6);
}

TEST(PerfGuard, MissingGatedMetricFails) {
  const pg::Report report =
      check({make_run("workload", {{"scan_ms", 100.0}, {"other_ms", 5.0}})},
            make_run("workload", {{"other_ms", 5.0}}, 1));
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.missing, 1);
  const pg::Delta* d = find_delta(report, "scan_ms");
  ASSERT_NE(d, nullptr);
  EXPECT_TRUE(d->missing_current);
}

TEST(PerfGuard, MissingUngatedMetricIsAdvisory) {
  const pg::Report report = check({make_run("workload", {{"p99_us", 10.0}})},
                                  make_run("workload", {{"p50_us", 1.0}}, 1));
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(find_delta(report, "p99_us")->missing_current);
  EXPECT_TRUE(find_delta(report, "p50_us")->new_metric);
}

TEST(PerfGuard, ZeroBaselineDeltaFollowsTheChangeAndTheDirection) {
  const pg::Report report = check(
      {make_run("workload", {{"stall_ms", 0.0}, {"a_ops_per_s", 0.0}})},
      make_run("workload", {{"stall_ms", 5.0}, {"a_ops_per_s", 100.0}}, 1));
  EXPECT_EQ(report.regressions, 1);
  const pg::Delta* latency = find_delta(report, "stall_ms");
  EXPECT_TRUE(latency->regressed);
  EXPECT_GT(latency->delta_pct, 0.0);
  // A throughput rising from zero is an improvement, not a regression.
  const pg::Delta* throughput = find_delta(report, "a_ops_per_s");
  EXPECT_FALSE(throughput->regressed);
  EXPECT_GT(throughput->delta_pct, 0.0);
  EXPECT_NE(pg::format_report(report).find("+inf%"), std::string::npos);
}

TEST(PerfGuard, FailedOperationsAreLowerIsBetterAndGated) {
  const pg::Report report = check(
      {make_run("workload", {{"read_write_t2_errors", 0.0}})},
      make_run("workload", {{"read_write_t2_errors", 3.0}}, 1));
  EXPECT_FALSE(report.ok());
  const pg::Delta* d = find_delta(report, "read_write_t2_errors");
  EXPECT_TRUE(d->lower_better);
  EXPECT_TRUE(d->regressed);
  // The committed gate file gates them too.
  const auto rules =
      pg::parse_gate_rules(util::read_file(PERFDMF_SOURCE_DIR "/bench/baselines/gated.txt"));
  EXPECT_TRUE(pg::is_gated(rules, "workload", "read_write_t2_errors"));
}

// The acceptance shape of the gate: the baseline is the median of the
// newest five earlier runs of the same bench and class, so older runs,
// later runs and other benches do not move it, and a halved throughput
// fails.
TEST(PerfGuard, HalvedThroughputAgainstFiveRunMedianFails) {
  std::vector<pg::BenchRun> baselines;
  for (int i = 0; i < 5; ++i) {  // older runs: would drag the median up
    baselines.push_back(make_run("workload", {{"mix_ops_per_s", 10000.0}}, i));
  }
  int minute = 10;
  for (double value : {900.0, 1100.0, 1000.0, 950.0, 1050.0}) {
    baselines.push_back(make_run("workload", {{"mix_ops_per_s", value}}, minute++));
  }
  baselines.push_back(make_run("workload", {{"mix_ops_per_s", 1.0}}, 59));  // later
  baselines.push_back(make_run("query", {{"mix_ops_per_s", 1.0}}, 20));

  const pg::Report halved =
      check(baselines, make_run("workload", {{"mix_ops_per_s", 500.0}}, 30));
  EXPECT_FALSE(halved.ok());
  ASSERT_EQ(halved.runs.size(), 1u);
  EXPECT_EQ(halved.runs[0].baseline_runs, 5u);
  const pg::Delta* d = find_delta(halved, "mix_ops_per_s");
  ASSERT_NE(d, nullptr);
  EXPECT_DOUBLE_EQ(d->baseline, 1000.0);
  EXPECT_NEAR(d->delta_pct, -50.0, 1e-9);
  EXPECT_TRUE(d->regressed);

  EXPECT_TRUE(check(baselines, make_run("workload", {{"mix_ops_per_s", 800.0}}, 30)).ok());
}

TEST(PerfGuard, UnknownMachineClassIsUngatedAndNeverCompared) {
  const std::vector<pg::BenchRun> baselines = {
      make_run("workload", {{"mix_ops_per_s", 1000.0}}, 0),
      make_run("workload", {{"mix_ops_per_s", 1000.0}}, 1)};
  for (const std::string machine : {"nproc64-other-cpu", ""}) {
    SCOPED_TRACE(machine);
    const pg::Report report = check(
        baselines, make_run("workload", {{"mix_ops_per_s", 10.0}}, 2, machine));
    EXPECT_TRUE(report.ok());
    EXPECT_TRUE(report.deltas.empty());
    ASSERT_EQ(report.runs.size(), 1u);
    EXPECT_EQ(report.runs[0].baseline_runs, 0u);
    const std::string shown = machine.empty() ? "(none)" : machine;
    EXPECT_NE(pg::format_report(report).find(
                  "UNGATED (no baseline for machine class '" + shown + "')"),
              std::string::npos);
  }
  // A run without a class (schema_version < 3) is nobody's baseline.
  pg::PerfDb db;
  EXPECT_THROW(db.store(make_run("workload", {}, 0, "")), InvalidArgument);
}

TEST(PerfGuard, RunsAreStoredAsPerfdmfTrials) {
  // The dogfooding claim itself: application = bench, experiment =
  // machine class, trial = run, each metric an interval event.
  util::ScopedTempDir dir;
  const auto db_dir = dir.path() / "perf";
  {
    pg::PerfDb db(db_dir);
    db.store(make_run("workload", {{"a_ms", 1.0}, {"b_ops_per_s", 2.0}}, 0));
    pg::Report report;
    db.check(make_run("workload", {{"a_ms", 1.5}, {"b_ops_per_s", 2.0}}, 1), kGates,
             report);
    db.check(make_run("workload", {{"a_ms", 1.5}, {"b_ops_per_s", 2.0}}, 1), kGates,
             report);  // the same run again: stored once
    db.store(make_run("query", {{"c_ms", 3.0}}, 0));
  }
  api::DatabaseAPI api(std::make_shared<sqldb::Connection>(db_dir));
  const auto apps = api.list_applications();
  ASSERT_EQ(apps.size(), 2u);
  EXPECT_EQ(apps[0].name, "workload");
  EXPECT_EQ(apps[1].name, "query");
  const auto experiments = api.list_experiments(apps[0].id);
  ASSERT_EQ(experiments.size(), 1u);
  EXPECT_EQ(experiments[0].name, kClass);
  const auto trials = api.list_trials(experiments[0].id);
  ASSERT_EQ(trials.size(), 2u);
  EXPECT_EQ(trials[1].fields.at("date"), "2026-08-09T00:01:00Z");
  EXPECT_EQ(trials[1].fields.at("git_sha"), "deadbee");
  EXPECT_EQ(trials[1].fields.at("build_type"), "Release");
  const profile::TrialData run = api.load_trial(trials[1].id);
  ASSERT_EQ(run.events().size(), 2u);
  EXPECT_EQ(run.events()[0].name, "a_ms");
  EXPECT_DOUBLE_EQ(run.interval_data(0, 0, 0)->exclusive, 1.5);
}

TEST(PerfGuard, EndToEndInjectedRegressionThroughFiles) {
  // The full check.sh shape: a recorded baseline file, a gate file, a
  // fresh BENCH file with one gated metric degraded past the threshold,
  // loaded from disk, stored as trials, compared and failed.
  util::ScopedTempDir dir;
  const auto write_run = [&](const std::string& name, const std::string& sha,
                             const std::string& timestamp, double ops) {
    const auto path = dir.path() / name;
    util::write_file(path, R"({"bench":"workload","schema_version":3,)"
                           R"("machine_class":"nproc4-test-cpu",)"
                           R"("build_type":"Release","git_sha":")" + sha +
                               R"(","timestamp":")" + timestamp +
                               R"(","metrics":{"zipfian_read_t8_ops_per_s":)" +
                               std::to_string(ops) +
                               R"(,"zipfian_read_t8_p99_us":40}})");
    return pg::load_bench_file(path);
  };
  const pg::BenchRun baseline =
      write_run("BENCH_workload.base.json", "base", "2026-08-09T00:00:00Z", 10000);
  const auto gates = pg::parse_gate_rules("workload:*_ops_per_s\n");

  pg::PerfDb db;
  db.store(baseline);
  pg::Report report;
  db.check(write_run("BENCH_workload.json", "cur", "2026-08-09T01:00:00Z", 4000),
           gates, report);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.regressions, 1);
  const pg::Delta* d = find_delta(report, "zipfian_read_t8_ops_per_s");
  ASSERT_NE(d, nullptr);
  EXPECT_NEAR(d->delta_pct, -60.0, 1e-6);
  EXPECT_NE(pg::format_report(report).find("REGRESSED"), std::string::npos);

  // And a current run within the threshold passes.
  pg::Report ok;
  db.check(write_run("BENCH_workload.json", "cur", "2026-08-09T02:00:00Z", 11000),
           gates, ok);
  EXPECT_TRUE(ok.ok());
}

// ----------------------------------------------------------- perfguard CLI

namespace {

/// Run the perfguard binary with `args`; returns its exit status and
/// appends what it printed to `out`.
int run_perfguard(const std::string& args, std::string& out) {
  std::FILE* pipe = ::popen((std::string(PERFGUARD_BIN) + " " + args + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return -1;
  char buffer[4096];
  for (std::size_t n; (n = std::fread(buffer, 1, sizeof buffer, pipe)) > 0;) {
    out.append(buffer, n);
  }
  const int status = ::pclose(pipe);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// A BENCH_workload.json of one throughput, written to `path`.
std::string write_workload_run(const std::filesystem::path& path,
                               const std::string& machine, int minute, double ops) {
  const pg::BenchRun run = make_run("workload", {}, minute, machine);
  util::write_file(path, R"({"bench":"workload","schema_version":3,"machine_class":")" +
                             machine + R"(","build_type":"Release","git_sha":"cli",)"
                             R"("timestamp":")" + run.timestamp +
                             R"(","metrics":{"mix_ops_per_s":)" + std::to_string(ops) +
                             "}}");
  return path.string();
}

}  // namespace

TEST(PerfGuardCli, HalvedThroughputExitsOneAndAnUnknownClassIsUngated) {
  util::ScopedTempDir dir;
  const auto baselines = dir.path() / "baselines";
  std::filesystem::create_directories(baselines);
  util::write_file(baselines / "gated.txt", "workload:*_ops_per_s\n");
  const std::string baseline_dir = "--baseline-dir " + baselines.string() + " ";
  std::string out;

  // Six recorded runs: --record-baseline keeps the newest five, so the
  // far-off oldest one drops out.
  for (int i = 0; i < 6; ++i) {
    const std::string run = write_workload_run(
        dir.path() / ("run" + std::to_string(i) + ".json"), kClass, i,
        i == 0 ? 1e9 : 1000.0 + 10.0 * i);
    ASSERT_EQ(run_perfguard(baseline_dir + "--record-baseline " + run, out), 0) << out;
  }
  EXPECT_EQ(util::list_files(baselines / kClass).size(), pg::kBaselineRuns);

  // Against the median of the five (1030), a halved throughput fails...
  const std::string halved =
      write_workload_run(dir.path() / "halved.json", kClass, 30, 515.0);
  out.clear();
  EXPECT_EQ(run_perfguard(baseline_dir + halved, out), 1) << out;
  EXPECT_NE(out.find("REGRESSED"), std::string::npos) << out;
  EXPECT_NE(out.find("median of 5 earlier run(s)"), std::string::npos) << out;

  // ...and the same number from a class without recorded runs is
  // compared against nothing.
  const std::string other = write_workload_run(dir.path() / "other.json",
                                               "nproc64-other-cpu", 30, 515.0);
  out.clear();
  EXPECT_EQ(run_perfguard(baseline_dir + other, out), 0) << out;
  EXPECT_NE(out.find("UNGATED (no baseline for machine class 'nproc64-other-cpu')"),
            std::string::npos)
      << out;
  EXPECT_EQ(out.find("REGRESSED"), std::string::npos) << out;

  // The threshold is a constant, not an option.
  out.clear();
  EXPECT_EQ(run_perfguard(baseline_dir + "--threshold 90 " + halved, out), 2) << out;

  // --db keeps the runs as trials of one experiment per class.
  const auto db_dir = dir.path() / "db";
  out.clear();
  EXPECT_EQ(run_perfguard(baseline_dir + "--db " + db_dir.string() + " " + other, out), 0)
      << out;
  api::DatabaseAPI api(std::make_shared<sqldb::Connection>(db_dir));
  const auto apps = api.list_applications();
  ASSERT_EQ(apps.size(), 1u);
  const auto experiments = api.list_experiments(apps[0].id);
  ASSERT_EQ(experiments.size(), 1u);
  EXPECT_EQ(experiments[0].name, "nproc64-other-cpu");
  EXPECT_EQ(api.list_trials(experiments[0].id).size(), 1u);
}
