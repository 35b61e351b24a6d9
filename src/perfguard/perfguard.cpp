#include "perfguard/perfguard.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <memory>
#include <optional>

#include "analysis/comparison.h"
#include "analysis/stats.h"
#include "util/error.h"
#include "util/file.h"
#include "util/json.h"

namespace perfdmf::perfguard {

namespace {

/// Highest BENCH json layout this loader understands (bench/bench_json.h
/// documents the versions). Older files load fine; a newer file means a
/// newer emitter and the comparison could be silently wrong — refuse.
constexpr std::int64_t kMaxSchemaVersion = 3;

/// The one metric every stored run's data points sit under.
constexpr const char* kValueMetric = "value";

/// Glob with a single '*' anywhere (start, middle, end): the text must
/// carry the pattern's prefix and suffix around any gap. Multiple stars
/// are rejected at rule-parse time — gate rules don't need a glob engine.
bool matches_pattern(std::string_view pattern, std::string_view text) {
  const std::size_t star = pattern.find('*');
  if (star == std::string_view::npos) return pattern == text;
  const std::string_view prefix = pattern.substr(0, star);
  const std::string_view suffix = pattern.substr(star + 1);
  return text.size() >= prefix.size() + suffix.size() &&
         text.substr(0, prefix.size()) == prefix &&
         text.substr(text.size() - suffix.size()) == suffix;
}

/// `run` as a one-thread trial: one interval event per metric key.
profile::TrialData to_trial(const BenchRun& run) {
  profile::TrialData trial;
  trial.trial().name = run.git_sha + " " + run.timestamp;
  trial.trial().fields = {{"date", run.timestamp},
                          {"git_sha", run.git_sha},
                          {"build_type", run.build_type}};
  const std::size_t metric = trial.intern_metric(kValueMetric);
  const std::size_t thread = trial.intern_thread({});
  for (const auto& [name, value] : run.metrics) {
    profile::IntervalDataPoint point;
    point.inclusive = point.exclusive = value;
    point.num_calls = 1;
    trial.set_interval_data(trial.intern_event(name), thread, metric, point);
  }
  trial.infer_dimensions();
  return trial;
}

std::string date_of(const profile::Trial& trial) {
  const auto it = trial.fields.find("date");
  return it == trial.fields.end() ? std::string() : it->second;
}

}  // namespace

BenchRun parse_bench_json(std::string_view text) {
  const util::json::Value doc = util::json::parse(text);
  if (!doc.is_object()) throw ParseError("BENCH json: document is not an object");

  BenchRun run;
  const util::json::Value* bench = doc.find("bench");
  if (bench == nullptr || !bench->is_string() || bench->as_string().empty()) {
    throw ParseError("BENCH json: missing \"bench\" name");
  }
  run.bench = bench->as_string();
  for (auto [key, field] : {std::pair{"machine_class", &run.machine_class},
                             std::pair{"build_type", &run.build_type},
                             std::pair{"git_sha", &run.git_sha},
                             std::pair{"timestamp", &run.timestamp}}) {
    if (const auto* v = doc.find(key); v != nullptr && v->is_string()) {
      *field = v->as_string();
    }
  }
  if (const auto* v = doc.find("schema_version"); v != nullptr) {
    run.schema_version = static_cast<std::int64_t>(v->as_number());
    if (run.schema_version > kMaxSchemaVersion) {
      throw ParseError("BENCH json: schema_version " +
                       std::to_string(run.schema_version) +
                       " is newer than this perfguard understands (max " +
                       std::to_string(kMaxSchemaVersion) + ")");
    }
  }
  const util::json::Value* metrics = doc.find("metrics");
  if (metrics == nullptr || !metrics->is_object()) {
    throw ParseError("BENCH json: missing \"metrics\" object");
  }
  for (const auto& [name, value] : metrics->as_object()) {
    if (value.is_null()) continue;  // non-finite at emit time — unusable
    run.metrics.emplace_back(name, value.as_number());
  }
  return run;
}

BenchRun load_bench_file(const std::filesystem::path& path) {
  try {
    return parse_bench_json(util::read_file(path));
  } catch (const ParseError& e) {
    throw ParseError(path.string() + ": " + e.what());
  }
}

bool lower_is_better(std::string_view metric) {
  for (std::string_view suffix : {"_ms", "_micros", "_us", "_ns", "_errors"}) {
    if (metric.size() > suffix.size() &&
        metric.substr(metric.size() - suffix.size()) == suffix) {
      return true;
    }
  }
  return false;
}

std::vector<GateRule> parse_gate_rules(std::string_view text) {
  std::vector<GateRule> rules;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = std::min(text.find('\n', pos), text.size());
    std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (const std::size_t hash = line.find('#'); hash != std::string_view::npos) {
      line = line.substr(0, hash);
    }
    while (!line.empty() && (line.front() == ' ' || line.front() == '\t')) {
      line.remove_prefix(1);
    }
    while (!line.empty() && (line.back() == ' ' || line.back() == '\t' ||
                             line.back() == '\r')) {
      line.remove_suffix(1);
    }
    if (line.empty()) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos || colon == 0 ||
        colon + 1 >= line.size()) {
      throw ParseError("gate rule '" + std::string(line) +
                       "' is not bench:metric");
    }
    const std::string_view bench = line.substr(0, colon);
    const std::string_view metric = line.substr(colon + 1);
    if (std::count(bench.begin(), bench.end(), '*') > 1 ||
        std::count(metric.begin(), metric.end(), '*') > 1) {
      // A typo'd extra star would otherwise never match and silently
      // ungate the metric.
      throw ParseError("gate rule '" + std::string(line) +
                       "' has more than one '*' on a side");
    }
    rules.push_back(GateRule{std::string(bench), std::string(metric)});
  }
  return rules;
}

bool is_gated(const std::vector<GateRule>& rules, std::string_view bench,
              std::string_view metric) {
  for (const GateRule& rule : rules) {
    if (matches_pattern(rule.bench, bench) &&
        matches_pattern(rule.metric, metric)) {
      return true;
    }
  }
  return false;
}

PerfDb::PerfDb() : api_(std::make_shared<sqldb::Connection>()) {}

PerfDb::PerfDb(const std::filesystem::path& directory)
    : api_(std::make_shared<sqldb::Connection>(directory)) {}

std::int64_t PerfDb::experiment_id(const BenchRun& run) {
  std::optional<profile::Application> app = api_.find_application(run.bench);
  if (!app) {
    app.emplace();
    app->name = run.bench;
    api_.save_application(*app);
  }
  for (const profile::Experiment& experiment : api_.list_experiments(app->id)) {
    if (experiment.name == run.machine_class) return experiment.id;
  }
  profile::Experiment experiment;
  experiment.application_id = app->id;
  experiment.name = run.machine_class;
  api_.save_experiment(experiment);
  return experiment.id;
}

std::int64_t PerfDb::store(const BenchRun& run) {
  if (run.machine_class.empty()) {
    throw InvalidArgument("BENCH run of '" + run.bench +
                          "' names no machine class (schema_version " +
                          std::to_string(run.schema_version) + ")");
  }
  const std::int64_t experiment = experiment_id(run);
  for (const profile::Trial& trial : api_.list_trials(experiment)) {
    if (date_of(trial) == run.timestamp) return trial.id;
  }
  return api_.upload_trial(to_trial(run), experiment, /*extend_schema=*/true);
}

void PerfDb::check(const BenchRun& run, const std::vector<GateRule>& gates,
                   Report& report) {
  report.runs.push_back({run.bench, run.machine_class, 0});
  if (run.machine_class.empty()) return;
  const std::int64_t current = store(run);

  // The baseline: the newest earlier trials of this bench and class.
  std::vector<profile::Trial> earlier;
  for (profile::Trial& trial :
       api_.list_trials(api_.get_trial(current)->experiment_id)) {
    if (date_of(trial) < run.timestamp) earlier.push_back(std::move(trial));
  }
  std::sort(earlier.begin(), earlier.end(), [](const auto& a, const auto& b) {
    return date_of(a) > date_of(b);
  });
  if (earlier.size() > kBaselineRuns) earlier.resize(kBaselineRuns);
  report.runs.back().baseline_runs = earlier.size();
  if (earlier.empty()) return;

  std::vector<profile::TrialData> trials;
  trials.push_back(api_.load_trial(current));
  for (const profile::Trial& trial : earlier) {
    trials.push_back(api_.load_trial(trial.id));
  }
  std::vector<const profile::TrialData*> aligned;
  for (const profile::TrialData& trial : trials) aligned.push_back(&trial);
  const analysis::ComparisonReport comparison =
      analysis::compare_trials(aligned, kValueMetric);

  std::vector<Delta> deltas;
  for (const analysis::ComparisonRow& row : comparison.rows) {
    Delta d;
    d.bench = run.bench;
    d.metric = row.event_name;
    d.lower_better = lower_is_better(d.metric);
    d.gated = is_gated(gates, run.bench, d.metric);
    // Presence comes from the trials: compare_trials marks an absent
    // event -1, which is also a value a metric may hold.
    std::vector<double> baseline;
    for (std::size_t i = 1; i < trials.size(); ++i) {
      if (trials[i].find_event(d.metric)) baseline.push_back(row.mean_exclusive[i]);
    }
    if (baseline.empty()) {
      d.new_metric = true;
      d.current = row.mean_exclusive[0];
    } else if (!trials[0].find_event(d.metric)) {
      d.baseline = analysis::percentile(baseline, 0.5);
      d.missing_current = true;
      if (d.gated) ++report.missing;
    } else {
      d.baseline = analysis::percentile(baseline, 0.5);
      d.current = row.mean_exclusive[0];
      const double change = d.current - d.baseline;
      d.delta_pct = d.baseline != 0.0 ? change / std::fabs(d.baseline) * 100.0
                    : change == 0.0   ? 0.0
                                      : std::copysign(HUGE_VAL, change);
      const double worse = d.lower_better ? d.delta_pct : -d.delta_pct;
      d.regressed = d.gated && worse >= kThresholdPct;
      if (d.regressed) ++report.regressions;
    }
    deltas.push_back(std::move(d));
  }
  std::sort(deltas.begin(), deltas.end(),
            [](const Delta& a, const Delta& b) { return a.metric < b.metric; });
  std::move(deltas.begin(), deltas.end(), std::back_inserter(report.deltas));
}

std::string format_report(const Report& report) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof line, "%-10s %-40s %12s %12s %9s  %s\n", "bench",
                "metric", "baseline", "current", "delta", "verdict");
  out += line;
  for (const Delta& d : report.deltas) {
    const char* verdict = "ok";
    if (d.missing_current) verdict = d.gated ? "MISSING (gated)" : "missing";
    else if (d.new_metric) verdict = "new";
    else if (d.regressed) verdict = "REGRESSED";
    else if (!d.gated) verdict = "ok (ungated)";
    char baseline[32] = "-";
    char current[32] = "-";
    char delta[32] = "-";
    if (!d.new_metric) std::snprintf(baseline, sizeof baseline, "%.4g", d.baseline);
    if (!d.missing_current) std::snprintf(current, sizeof current, "%.4g", d.current);
    if (!d.missing_current && !d.new_metric) {
      std::snprintf(delta, sizeof delta, "%+.1f%%", d.delta_pct);
    }
    std::snprintf(line, sizeof line, "%-10s %-40s %12s %12s %9s  %s\n",
                  d.bench.c_str(), d.metric.c_str(), baseline, current, delta,
                  verdict);
    out += line;
  }
  for (const Report::Run& run : report.runs) {
    const std::string machine =
        run.machine_class.empty() ? "(none)" : run.machine_class;
    if (run.baseline_runs == 0) {
      out += "UNGATED (no baseline for machine class '" + machine +
             "'): bench '" + run.bench + "' compared against nothing\n";
    } else {
      out += "bench '" + run.bench + "' on machine class '" + machine +
             "': baseline = median of " + std::to_string(run.baseline_runs) +
             " earlier run(s)\n";
    }
  }
  char summary[128];
  std::snprintf(summary, sizeof summary,
                "perfguard: %d regression(s), %d missing gated metric(s),"
                " threshold %.0f%%\n",
                report.regressions, report.missing, kThresholdPct);
  out += summary;
  return out;
}

}  // namespace perfdmf::perfguard
