// E5 — abstract API vs direct SQL (paper §4): the data-management API
// "abstracts query and analysis operation into a more programmatic,
// non-SQL, form ... intended to complement the SQL interface, which is
// directly accessible by analysis tools".
//
// Shape to reproduce: both interfaces return identical results over the
// same archive; the abstraction costs little relative to raw SQL; and
// selective (filtered) queries beat loading whole trials, which is the
// rationale for the database-only access method.
// The second half benches the query-engine hot paths against their
// forced fallbacks (ExecutorTuning): equi-join as hash join vs
// index-nested-loop vs the pre-optimization pure nested loop, GROUP BY
// as hash aggregation vs the ordered-map path, ORDER BY ... LIMIT k as a
// bounded Top-K heap vs the full sort, and the per-connection plan cache
// vs re-parsing every statement.
#include <cstdio>
#include <memory>
#include <string>

#include "api/database_session.h"
#include "bench_json.h"
#include "io/synth.h"
#include "sqldb/connection.h"
#include "telemetry/metrics.h"
#include "util/timer.h"

using namespace perfdmf;

namespace {

constexpr std::int64_t kEngineRows = 1000000;
constexpr int kEventCount = 101;

/// profile(id PK, event, node, exclusive) with `rows` rows plus two
/// event tables of kEventCount rows: `event` (id PRIMARY KEY, so the
/// fallback join can use its unique index) and `event_heap` (no index at
/// all, so the fallback is the pre-optimization pure nested loop).
std::unique_ptr<sqldb::Connection> make_engine_tables(std::int64_t rows) {
  auto conn = std::make_unique<sqldb::Connection>();
  conn->execute_update(
      "CREATE TABLE profile (id INTEGER PRIMARY KEY, event INTEGER,"
      " node INTEGER, exclusive REAL)");
  conn->execute_update(
      "CREATE TABLE event (id INTEGER PRIMARY KEY, name TEXT)");
  conn->execute_update("CREATE TABLE event_heap (id INTEGER, name TEXT)");
  auto ev = conn->prepare("INSERT INTO event (id, name) VALUES (?, ?)");
  auto evh = conn->prepare("INSERT INTO event_heap (id, name) VALUES (?, ?)");
  for (int e = 0; e < kEventCount; ++e) {
    ev.set_int(1, e);
    ev.set_string(2, "routine_" + std::to_string(e));
    ev.execute_update();
    evh.set_int(1, e);
    evh.set_string(2, "routine_" + std::to_string(e));
    evh.execute_update();
  }
  auto stmt = conn->prepare(
      "INSERT INTO profile (event, node, exclusive) VALUES (?, ?, ?)");
  conn->begin();
  for (std::int64_t i = 0; i < rows; ++i) {
    stmt.set_int(1, i % kEventCount);
    stmt.set_int(2, i / kEventCount);
    stmt.set_double(3, 90.0 + static_cast<double>(i % 9973));
    stmt.execute_update();
  }
  conn->commit();
  return conn;
}

double time_query(sqldb::Connection& conn, const std::string& sql,
                  const sqldb::ExecutorTuning& tuning) {
  conn.database().set_executor_tuning(tuning);
  util::WallTimer timer;
  auto rs = conn.execute(sql);
  const double ms = timer.millis();
  if (rs.row_count() == static_cast<std::size_t>(-1)) std::abort();
  conn.database().set_executor_tuning(sqldb::ExecutorTuning{});
  return ms;
}

double time_point_queries(sqldb::Connection& conn, int reps) {
  const std::string point = "SELECT exclusive FROM profile WHERE id = 500000";
  util::WallTimer timer;
  for (int i = 0; i < reps; ++i) {
    auto rs = conn.execute(point);
    if (rs.row_count() != 1) std::abort();
  }
  return timer.millis();
}

/// Telemetry overhead on the 1M-row hot paths: the same workload with the
/// runtime switch on and off. Point queries are the worst case (the
/// per-statement record/counter cost is amortized over almost no work);
/// the 1M-row group-by shows the cost disappearing into real work.
void report_telemetry_overhead(sqldb::Connection& conn,
                               bench::BenchJson& json) {
  constexpr int kReps = 20000;
  const std::string group_by =
      "SELECT event, COUNT(*), AVG(exclusive) FROM profile GROUP BY event";
  std::printf("telemetry overhead (runtime switch), same 1M-row tables\n");
  time_point_queries(conn, 2000);  // warm caches before either side

  telemetry::set_enabled(false);
  const double point_off = time_point_queries(conn, kReps);
  util::WallTimer timer;
  auto rs = conn.execute(group_by);
  if (rs.row_count() == 0) std::abort();
  const double group_off = timer.millis();

  telemetry::set_enabled(true);
  const double point_on = time_point_queries(conn, kReps);
  timer.reset();
  rs = conn.execute(group_by);
  if (rs.row_count() == 0) std::abort();
  const double group_on = timer.millis();

  const double point_pct = 100.0 * (point_on - point_off) / point_off;
  const double group_pct = 100.0 * (group_on - group_off) / group_off;
  std::printf("  %-34s %12.1f %12.1f %+7.2f%%\n",
              ("point query x" + std::to_string(kReps)).c_str(), point_off,
              point_on, point_pct);
  std::printf("  %-34s %12.1f %12.1f %+7.2f%%\n", "group-by over 1M rows",
              group_off, group_on, group_pct);
  std::printf("  (columns: off ms, on ms, overhead)\n\n");
  json.set("telemetry_point_off_ms", point_off);
  json.set("telemetry_point_on_ms", point_on);
  json.set("telemetry_point_overhead_pct", point_pct);
  json.set("telemetry_groupby_off_ms", group_off);
  json.set("telemetry_groupby_on_ms", group_on);
  json.set("telemetry_groupby_overhead_pct", group_pct);
}

/// Introspection overhead on the 1M-row hot path: EXPLAIN ANALYZE costs
/// a handful of steady_clock reads per operator (not per row), so the
/// annotated run must track the plain statement within a few percent;
/// and a full scan of the four live system tables is bounded by the
/// registry/lock/WAL snapshot sizes, not the data volume, so it stays
/// well under the 50 ms introspection budget even with 1M rows loaded.
void report_introspection_overhead(sqldb::Connection& conn,
                                   bench::BenchJson& json) {
  const std::string group_by =
      "SELECT event, COUNT(*), AVG(exclusive) FROM profile GROUP BY event";
  std::printf("introspection overhead, same 1M-row tables\n");

  auto best_of = [&](const std::string& sql) {
    double best = 0.0;
    for (int i = 0; i < 3; ++i) {
      util::WallTimer timer;
      auto rs = conn.execute(sql);
      const double ms = timer.millis();
      if (rs.row_count() == 0) std::abort();
      if (i == 0 || ms < best) best = ms;
    }
    return best;
  };

  const double plain_ms = best_of(group_by);
  const double analyze_ms = best_of("EXPLAIN ANALYZE " + group_by);
  const double overhead_pct = 100.0 * (analyze_ms - plain_ms) / plain_ms;
  std::printf("  %-34s %12.1f %12.1f %+7.2f%%\n", "explain analyze (group-by)",
              plain_ms, analyze_ms, overhead_pct);

  const char* live_tables[] = {"PERFDMF_STATEMENTS", "PERFDMF_TRANSACTIONS",
                               "PERFDMF_LOCKS", "PERFDMF_WAL"};
  constexpr int kScans = 10;
  util::WallTimer timer;
  for (int i = 0; i < kScans; ++i) {
    for (const char* table : live_tables) {
      auto rs = conn.execute(std::string("SELECT * FROM ") + table);
      while (rs.next()) {
      }
    }
  }
  const double scan_ms = timer.millis() / kScans;
  std::printf("  %-34s %25.3f ms\n", "live-table scan (all four)", scan_ms);
  std::printf("  (columns: plain ms, analyze ms, overhead)\n\n");

  json.set("explain_analyze_plain_ms", plain_ms);
  json.set("explain_analyze_1m_ms", analyze_ms);
  json.set("explain_analyze_overhead_pct", overhead_pct);
  json.set("live_tables_scan_ms", scan_ms);
}

void report_query_engine(bench::BenchJson& json) {
  std::printf("query-engine hot paths, %lld profile rows x %d events\n",
              static_cast<long long>(kEngineRows), kEventCount);
  auto conn = make_engine_tables(kEngineRows);

  sqldb::ExecutorTuning on;  // defaults: everything enabled
  sqldb::ExecutorTuning off;
  off.hash_join = off.hash_group_by = off.top_k = false;

  std::printf("  %-34s %12s %12s %9s\n", "query", "fallback ms", "new ms",
              "speedup");

  // Equi-join, indexed build side: fallback is an index-nested-loop.
  const std::string join_indexed =
      "SELECT COUNT(*) FROM profile p JOIN event e ON p.event = e.id";
  double slow = time_query(*conn, join_indexed, off);
  double fast = time_query(*conn, join_indexed, on);
  std::printf("  %-34s %12.1f %12.1f %8.2fx\n",
              "equi-join (vs index-nested-loop)", slow, fast, slow / fast);
  json.set("hash_join_vs_index_nested_loop_speedup", slow / fast);
  json.set("hash_join_1m_ms", fast);

  // Equi-join, unindexed build side: fallback is the pre-optimization
  // pure nested loop (rows x events pair evaluations).
  const std::string join_heap =
      "SELECT COUNT(*) FROM profile p JOIN event_heap e ON p.event = e.id";
  slow = time_query(*conn, join_heap, off);
  fast = time_query(*conn, join_heap, on);
  std::printf("  %-34s %12.1f %12.1f %8.2fx\n",
              "equi-join (vs pure nested loop)", slow, fast, slow / fast);
  json.set("hash_join_vs_nested_loop_speedup", slow / fast);

  // Grouped aggregate: hash aggregation vs the ordered-map path.
  const std::string group_by =
      "SELECT event, COUNT(*), AVG(exclusive) FROM profile GROUP BY event";
  slow = time_query(*conn, group_by, off);
  fast = time_query(*conn, group_by, on);
  std::printf("  %-34s %12.1f %12.1f %8.2fx\n", "group-by aggregate", slow,
              fast, slow / fast);
  json.set("hash_group_by_speedup", slow / fast);
  json.set("hash_group_by_1m_ms", fast);

  // Top-10 of 1M: bounded heap vs sorting the full result.
  const std::string top10 =
      "SELECT id, exclusive FROM profile ORDER BY exclusive DESC, id LIMIT 10";
  slow = time_query(*conn, top10, off);
  fast = time_query(*conn, top10, on);
  std::printf("  %-34s %12.1f %12.1f %8.2fx\n", "order-by limit 10 (top-k)",
              slow, fast, slow / fast);
  json.set("top_k_speedup", slow / fast);
  json.set("top_k_1m_ms", fast);

  // Plan cache: a small repeated statement pays mostly parse cost.
  constexpr int kReps = 20000;
  const std::string point = "SELECT exclusive FROM profile WHERE id = 500000";
  conn->set_plan_cache_capacity(0);
  util::WallTimer timer;
  for (int i = 0; i < kReps; ++i) {
    auto rs = conn->execute(point);
    if (rs.row_count() != 1) std::abort();
  }
  const double uncached_ms = timer.millis();
  conn->set_plan_cache_capacity(64);
  timer.reset();
  for (int i = 0; i < kReps; ++i) {
    auto rs = conn->execute(point);
    if (rs.row_count() != 1) std::abort();
  }
  const double cached_ms = timer.millis();
  std::printf("  %-34s %12.1f %12.1f %8.2fx\n",
              ("point query x" + std::to_string(kReps) + " (plan cache)")
                  .c_str(),
              uncached_ms, cached_ms, uncached_ms / cached_ms);
  std::printf("\n");
  json.set("plan_cache_speedup", uncached_ms / cached_ms);

  report_telemetry_overhead(*conn, json);
  report_introspection_overhead(*conn, json);
}

}  // namespace

int main() {
  bench::BenchJson json("query");
  io::synth::TrialSpec spec;
  spec.nodes = 512;
  spec.event_count = 64;
  auto data = io::synth::generate_trial(spec);

  api::DatabaseSession session;
  const std::int64_t trial_id = session.save_trial(data, "app", "runs");
  auto& connection = session.api().connection();
  const std::size_t total_rows = 512u * 64u;

  std::printf("E5: API vs direct SQL over one %zu-row trial\n\n", total_rows);
  std::printf("%-44s %10s %10s\n", "operation", "rows", "time(ms)");

  util::WallTimer timer;

  // --- full trial through the API ---------------------------------------
  timer.reset();
  auto api_rows = session.get_interval_data();
  const double api_full_ms = timer.millis();
  std::printf("%-44s %10zu %10.2f\n", "API: get_interval_data (full trial)",
              api_rows.size(), api_full_ms);

  // --- full trial through raw SQL ----------------------------------------
  timer.reset();
  auto rs = connection.execute(
      "SELECT e.name, p.node, p.inclusive, p.exclusive"
      " FROM interval_event e JOIN interval_location_profile p"
      " ON p.interval_event = e.id WHERE e.trial = ?",
      {sqldb::Value(trial_id)});
  const double sql_full_ms = timer.millis();
  std::printf("%-44s %10zu %10.2f\n", "SQL: equivalent join", rs.row_count(),
              sql_full_ms);

  // --- selective query: one node ----------------------------------------
  session.set_node(17);
  timer.reset();
  auto node_rows = session.get_interval_data();
  const double api_node_ms = timer.millis();
  session.clear_node();
  std::printf("%-44s %10zu %10.2f\n", "API: node 17 only (selective access)",
              node_rows.size(), api_node_ms);

  // --- selective query: one event, SQL aggregate -------------------------
  auto events = session.get_interval_events();
  timer.reset();
  auto aggregate = session.api().aggregate_interval_column(
      trial_id, events[0].id, "exclusive");
  const double aggregate_ms = timer.millis();
  std::printf("%-44s %10zu %10.2f\n", "API: min/mean/max/stddev of one event",
              aggregate.count, aggregate_ms);

  timer.reset();
  auto rs2 = connection.execute(
      "SELECT MIN(exclusive), AVG(exclusive), MAX(exclusive),"
      " STDDEV(exclusive) FROM interval_location_profile WHERE"
      " interval_event = ?",
      {sqldb::Value(events[0].id)});
  const double sql_aggregate_ms = timer.millis();
  std::printf("%-44s %10zu %10.2f\n", "SQL: equivalent aggregate",
              rs2.row_count(), sql_aggregate_ms);

  // --- equivalence check --------------------------------------------------
  rs2 = connection.execute(
      "SELECT MIN(exclusive), AVG(exclusive), MAX(exclusive)"
      " FROM interval_location_profile WHERE interval_event = ?",
      {sqldb::Value(events[0].id)});
  rs2.next();
  const bool equivalent =
      api_rows.size() == rs.row_count() &&
      std::abs(rs2.get_double(1) - aggregate.minimum) < 1e-9 &&
      std::abs(rs2.get_double(2) - aggregate.mean) < 1e-9 &&
      std::abs(rs2.get_double(3) - aggregate.maximum) < 1e-9;
  std::printf("\nAPI and SQL results identical: %s\n",
              equivalent ? "yes" : "NO (bug!)");
  std::printf("selective node query touched %.1f%% of the rows\n\n",
              100.0 * node_rows.size() / total_rows);

  json.set("api_full_trial_ms", api_full_ms);
  json.set("sql_full_trial_ms", sql_full_ms);
  json.set("api_selective_node_ms", api_node_ms);
  json.set("api_aggregate_ms", aggregate_ms);
  json.set("sql_aggregate_ms", sql_aggregate_ms);
  json.set("api_sql_identical", equivalent ? 1.0 : 0.0);

  report_query_engine(json);
  json.write();
  return equivalent ? 0 : 1;
}
