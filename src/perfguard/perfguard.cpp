#include "perfguard/perfguard.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/error.h"
#include "util/file.h"
#include "util/json.h"

namespace perfdmf::perfguard {

namespace {

/// Highest BENCH json layout this loader understands (bench/bench_json.h
/// documents the versions). Older files load fine; a newer file means a
/// newer emitter and the comparison could be silently wrong — refuse.
constexpr std::int64_t kMaxSchemaVersion = 2;

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
  if (const auto* v = doc.find("git_sha"); v != nullptr && v->is_string()) {
    run.git_sha = v->as_string();
  }
  if (const auto* v = doc.find("timestamp"); v != nullptr && v->is_string()) {
    run.timestamp = v->as_string();
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
  for (std::string_view suffix : {"_ms", "_micros", "_us", "_ns"}) {
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

PerfDb::PerfDb() : connection_(std::make_shared<sqldb::Connection>()) {
  ensure_schema();
}

PerfDb::PerfDb(const std::filesystem::path& directory)
    : connection_(std::make_shared<sqldb::Connection>(directory)) {
  ensure_schema();
}

PerfDb::PerfDb(std::shared_ptr<sqldb::Connection> connection)
    : connection_(std::move(connection)) {
  ensure_schema();
}

void PerfDb::ensure_schema() {
  connection_->execute_update(
      "CREATE TABLE IF NOT EXISTS perf_runs ("
      " id INTEGER PRIMARY KEY,"
      " bench TEXT NOT NULL,"
      " git_sha TEXT,"
      " timestamp TEXT,"
      " schema_version INTEGER,"
      " kind TEXT NOT NULL)");
  connection_->execute_update(
      "CREATE TABLE IF NOT EXISTS perf_metrics ("
      " id INTEGER PRIMARY KEY,"
      " run INTEGER NOT NULL,"
      " name TEXT NOT NULL,"
      " value REAL)");
}

std::int64_t PerfDb::record_run(const BenchRun& run, std::string_view kind) {
  if (kind != "baseline" && kind != "current") {
    throw InvalidArgument("perf run kind must be 'baseline' or 'current'");
  }
  sqldb::ScopedTransaction txn(*connection_);
  connection_->execute_update(
      "INSERT INTO perf_runs (bench, git_sha, timestamp, schema_version,"
      " kind) VALUES (?, ?, ?, ?, ?)",
      {sqldb::Value(run.bench), sqldb::Value(run.git_sha),
       sqldb::Value(run.timestamp), sqldb::Value(run.schema_version),
       sqldb::Value(std::string(kind))});
  auto rs = connection_->execute("SELECT MAX(id) FROM perf_runs");
  rs.next();
  const std::int64_t run_id = rs.get_int(1);
  auto insert = connection_->prepare(
      "INSERT INTO perf_metrics (run, name, value) VALUES (?, ?, ?)");
  for (const auto& [name, value] : run.metrics) {
    insert.set_int(1, run_id);
    insert.set_string(2, name);
    insert.set_double(3, value);
    insert.execute_update();
  }
  txn.commit();
  return run_id;
}

std::int64_t PerfDb::latest_run(std::string_view bench, std::string_view kind) {
  auto rs = connection_->execute(
      "SELECT MAX(id) FROM perf_runs WHERE bench = ? AND kind = ?",
      {sqldb::Value(std::string(bench)), sqldb::Value(std::string(kind))});
  if (!rs.next() || rs.is_null(1)) return -1;
  return rs.get_int(1);
}

std::vector<std::string> PerfDb::benches_with(std::string_view kind) {
  auto rs = connection_->execute(
      "SELECT DISTINCT bench FROM perf_runs WHERE kind = ? ORDER BY bench",
      {sqldb::Value(std::string(kind))});
  std::vector<std::string> benches;
  while (rs.next()) benches.push_back(rs.get_string(1));
  return benches;
}

Report PerfDb::compare(double threshold_pct,
                       const std::vector<GateRule>& gates) {
  Report report;
  report.threshold_pct = threshold_pct;

  for (const std::string& bench : benches_with("current")) {
    const std::int64_t current_id = latest_run(bench, "current");
    const std::int64_t baseline_id = latest_run(bench, "baseline");
    if (baseline_id < 0) {
      report.first_run_benches.push_back(bench);
      continue;
    }

    // The delta itself is SQL: baseline rows LEFT JOINed to the current
    // run, relative change computed by the engine (NULL current or a
    // zero baseline yields a NULL delta, surfaced via is_null below).
    auto rs = connection_->execute(
        "SELECT b.name, b.value, c.value,"
        " (c.value - b.value) * 100.0 / b.value"
        " FROM perf_metrics b LEFT JOIN perf_metrics c"
        " ON c.name = b.name AND c.run = ?"
        " WHERE b.run = ? ORDER BY b.name",
        {sqldb::Value(current_id), sqldb::Value(baseline_id)});
    while (rs.next()) {
      Delta d;
      d.bench = bench;
      d.metric = rs.get_string(1);
      d.baseline = rs.get_double(2);
      d.lower_better = lower_is_better(d.metric);
      d.gated = is_gated(gates, bench, d.metric);
      if (rs.is_null(3)) {
        d.missing_current = true;
        if (d.gated) ++report.missing;
      } else {
        d.current = rs.get_double(3);
        if (!rs.is_null(4)) {
          d.delta_pct = rs.get_double(4);
        } else if (d.current != 0.0) {
          // Baseline 0, current not: direction is unambiguous even if a
          // percentage is not representable.
          d.delta_pct = d.lower_better ? threshold_pct + 100.0
                                       : -(threshold_pct + 100.0);
        }
        const double worse = d.lower_better ? d.delta_pct : -d.delta_pct;
        d.regressed = d.gated && worse > threshold_pct;
        if (d.regressed) ++report.regressions;
      }
      report.deltas.push_back(std::move(d));
    }

    // Metrics this run produced that the baseline has never seen —
    // advisory only, and the cue to re-record the baseline.
    rs = connection_->execute(
        "SELECT c.name, c.value FROM perf_metrics c"
        " LEFT JOIN perf_metrics b ON b.name = c.name AND b.run = ?"
        " WHERE c.run = ? AND b.name IS NULL ORDER BY c.name",
        {sqldb::Value(baseline_id), sqldb::Value(current_id)});
    while (rs.next()) {
      Delta d;
      d.bench = bench;
      d.metric = rs.get_string(1);
      d.current = rs.get_double(2);
      d.lower_better = lower_is_better(d.metric);
      d.gated = is_gated(gates, bench, d.metric);
      d.new_metric = true;
      report.deltas.push_back(std::move(d));
    }
  }
  return report;
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
  for (const std::string& bench : report.first_run_benches) {
    out += "first run for bench '" + bench +
           "': no stored baseline, nothing gated (record one with"
           " --record-baseline)\n";
  }
  char summary[128];
  std::snprintf(summary, sizeof summary,
                "perfguard: %d regression(s), %d missing gated metric(s),"
                " threshold %.1f%%\n",
                report.regressions, report.missing, report.threshold_pct);
  out += summary;
  return out;
}

}  // namespace perfdmf::perfguard
