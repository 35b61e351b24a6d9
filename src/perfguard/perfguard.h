// perfguard: the self-hosted perf-regression gate, PerfDMF turned on
// itself. Every bench binary emits BENCH_<name>.json (bench/bench_json.h);
// perfguard stores each run in PerfDMF's own schema through
// api::DatabaseAPI:
//   application = the bench ("workload", "query", ...);
//   experiment  = the machine class the run was measured on;
//   trial       = one run, with `date`, `git_sha` and `build_type` as
//                 flexible-schema fields;
//   each metric key is an interval event with one data point (exclusive
//   = the value) under the one metric "value".
// A run is compared against the median of the newest kBaselineRuns
// earlier trials of the same bench and machine class, aligned through
// analysis::compare_trials. A run whose class has no such trial is
// UNGATED: it is never compared across classes. With a file-backed store
// (perfguard --db DIR) the history is an ordinary archive, browsable with
// `perfdmf_cli DIR ls|sql|diff`.
//
// Direction: a metric named *_ms / *_micros / *_us / *_ns (latency) or
// *_errors (failed operations) is lower-is-better; everything else
// (ops_per_s, *_speedup, ratios) is higher-is-better. Gate only metrics
// whose name carries a direction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "api/database_api.h"

namespace perfdmf::perfguard {

/// A gated metric regresses when it is worse than the baseline median by
/// this much or more: a halved throughput, a 1.5x latency. Generous on
/// purpose, because recorded same-class runs of the quick benches on a
/// shared 4-vCPU VM stray up to about 50% from their median; the gate
/// catches halvings, not jitter.
inline constexpr double kThresholdPct = 50.0;
/// How many earlier same-class runs make up a baseline median.
inline constexpr std::size_t kBaselineRuns = 5;

/// One parsed BENCH_<name>.json.
struct BenchRun {
  std::string bench;
  /// "nproc<N>-<cpu model>" (bench_json.h); empty before schema_version
  /// 3, and such a run can be no class's baseline.
  std::string machine_class;
  std::string build_type;
  std::string git_sha;
  std::string timestamp;  // ISO-8601 UTC, so text order is time order
  std::int64_t schema_version = 1;  // pre-versioning files are v1
  /// name -> value, document order. Null-valued metrics (non-finite at
  /// emit time) are dropped at parse.
  std::vector<std::pair<std::string, double>> metrics;
};

/// Parse the BENCH json text; throws ParseError on malformed input or an
/// unsupported schema_version.
BenchRun parse_bench_json(std::string_view text);
BenchRun load_bench_file(const std::filesystem::path& path);

/// True when smaller values of `metric` are better (latency and
/// failure-count names); false for throughput/ratio-shaped names.
bool lower_is_better(std::string_view metric);

/// A gate rule "bench:metric"; either side may carry one '*' anywhere
/// (matches any run of characters). Rules come from
/// bench/baselines/gated.txt.
struct GateRule {
  std::string bench;
  std::string metric;
};

/// Parse rules, one per line; '#' starts a comment, blank lines skipped.
std::vector<GateRule> parse_gate_rules(std::string_view text);
bool is_gated(const std::vector<GateRule>& rules, std::string_view bench,
              std::string_view metric);

/// One metric of a run against its baseline median (or a hole on either
/// side).
struct Delta {
  std::string bench;
  std::string metric;
  double baseline = 0.0;  // median of the baseline runs that have it
  double current = 0.0;
  /// (current - baseline) / |baseline| * 100; +-infinity when the
  /// baseline is 0 and the current value is not.
  double delta_pct = 0.0;
  bool lower_better = false;
  bool gated = false;
  bool regressed = false;       // gated and kThresholdPct or more worse
  bool missing_current = false; // in the baseline, absent from this run
  bool new_metric = false;      // in this run, absent from every baseline
};

struct Report {
  /// One compared run: its bench, its class and how many earlier runs
  /// made up its baseline; 0 means UNGATED (no baseline in its class).
  struct Run {
    std::string bench;
    std::string machine_class;
    std::size_t baseline_runs = 0;
  };
  std::vector<Run> runs;
  std::vector<Delta> deltas;
  int regressions = 0;
  int missing = 0;  // gated metrics absent from the current run

  bool ok() const { return regressions == 0 && missing == 0; }
};

/// BENCH runs as PerfDMF trials (see the header comment).
class PerfDb {
 public:
  /// In-memory store (one-shot compare).
  PerfDb();
  /// File-backed archive at `directory`: runs accumulate across
  /// invocations.
  explicit PerfDb(const std::filesystem::path& directory);

  /// Store `run` as a trial under its bench and machine class; a run
  /// already stored (same bench, class and timestamp) is not stored
  /// twice. Returns the trial id. Throws InvalidArgument for a run
  /// without a machine class.
  std::int64_t store(const BenchRun& run);

  /// Store `run` (when it has a class) and compare it against the median
  /// of the newest kBaselineRuns earlier trials of its bench and class,
  /// adding its deltas to `report`.
  void check(const BenchRun& run, const std::vector<GateRule>& gates,
             Report& report);

 private:
  /// The experiment of `run`'s bench and class, created when missing.
  std::int64_t experiment_id(const BenchRun& run);

  api::DatabaseAPI api_;
};

/// Human-readable report table (the CLI and check.sh output).
std::string format_report(const Report& report);

}  // namespace perfdmf::perfguard
