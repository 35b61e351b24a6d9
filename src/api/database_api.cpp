#include "api/database_api.h"

#include <algorithm>
#include <concepts>
#include <type_traits>

#include "api/schema_bootstrap.h"
#include "telemetry/metrics.h"
#include "util/error.h"
#include "util/strings.h"
#include "util/timer.h"

namespace perfdmf::api {

using sqldb::Params;
using sqldb::ResultSet;
using sqldb::Value;
using DataFilter = DatabaseAPI::DataFilter;

namespace {

/// "INSERT INTO table (c1, c2, ...) VALUES (?, ?, ...)".
std::string insert_sql(const std::string& table,
                       const std::vector<std::string>& columns) {
  std::string names;
  std::string placeholders;
  for (const auto& column : columns) {
    if (!names.empty()) {
      names += ", ";
      placeholders += ", ";
    }
    names += column;
    placeholders += "?";
  }
  return "INSERT INTO " + table + " (" + names + ") VALUES (" + placeholders +
         ")";
}

/// INSERT into a profile table: the integer `keys`, then the value columns.
template <typename Point>
std::string insert_sql(const std::string& table, std::vector<std::string> keys,
                       std::span<const ValueColumn<Point>> columns) {
  for (const auto& column : columns) keys.emplace_back(column.name);
  return insert_sql(table, keys);
}

std::string interval_location_insert() {
  return insert_sql("interval_location_profile",
                    {"interval_event", "node", "context", "thread", "metric"},
                    kIntervalValueColumns);
}

/// Bind the integer `keys`, then `point`'s value columns, and run the
/// INSERT: one statement per profile row.
template <typename Point>
void insert_point(sqldb::PreparedStatement& stmt,
                  std::initializer_list<std::int64_t> keys, const Point& point,
                  std::span<const ValueColumn<Point>> columns) {
  std::size_t index = 1;
  for (std::int64_t key : keys) stmt.set_int(index++, key);
  for (const auto& column : columns) {
    stmt.set_double(index++, point.*column.member);
  }
  stmt.execute_update();
}

/// INSERT one row and return the id it was assigned. Callers hold a
/// transaction, so no other connection's insert can land between the
/// INSERT and the MAX(id) that reads it back.
std::int64_t insert_returning_id(sqldb::Connection& connection,
                                 const std::string& table,
                                 const std::vector<std::string>& columns,
                                 const Params& values) {
  connection.execute_update(insert_sql(table, columns), values);
  auto rs = connection.execute("SELECT MAX(id) FROM " + table);
  rs.next();
  return rs.get_int(1);
}

/// Every non-null column of the current row outside `core` becomes a
/// field (flexible schema, paper §3.2).
profile::Metadata read_fields(const ResultSet& rs,
                              std::initializer_list<const char*> core) {
  profile::Metadata fields;
  for (const auto& column : rs.column_names()) {
    const bool is_core = std::any_of(core.begin(), core.end(), [&](const char* c) {
      return util::iequals(c, column);
    });
    if (!is_core && !rs.is_null(column)) fields[column] = rs.get_string(column);
  }
  return fields;
}

// One reader per row type: select_rows reads every row of a query
// with it, so each entity's list_* and get_* read it the same way.
void read_row(const ResultSet& rs, std::int64_t& id) { id = rs.get_int(1); }

void read_row(const ResultSet& rs, profile::Metric& metric) {
  metric = {rs.get_int(1), rs.get_string(2), rs.get_int(3) != 0};
}

template <typename Event>  // IntervalEvent or AtomicEvent: one shape
  requires std::same_as<decltype(Event::group), std::string>
void read_row(const ResultSet& rs, Event& event) {
  event = {rs.get_int(1), rs.get_string(2), rs.get_string(3)};
}

void read_row(const ResultSet& rs, DatabaseAPI::AnalysisResult& result) {
  result = {rs.get_int(1), rs.get_string(2), rs.get_string(3), rs.get_string(4)};
}

void read_row(const ResultSet& rs, profile::Application& app) {
  app.id = rs.get_int("id");
  app.name = rs.get_string("name");
  app.fields = read_fields(rs, {"id", "name"});
}

void read_row(const ResultSet& rs, profile::Experiment& experiment) {
  experiment.id = rs.get_int("id");
  experiment.application_id = rs.get_int("application");
  experiment.name = rs.get_string("name");
  experiment.fields = read_fields(rs, {"id", "application", "name"});
}

void read_row(const ResultSet& rs, profile::Trial& trial) {
  auto count = [&](const char* column) {
    return rs.is_null(column) ? 0 : rs.get_int(column);
  };
  trial.id = rs.get_int("id");
  trial.experiment_id = rs.get_int("experiment");
  trial.name = rs.get_string("name");
  trial.node_count = count("node_count");
  trial.contexts_per_node = count("contexts_per_node");
  trial.threads_per_context = count("threads_per_context");
  trial.fields = read_fields(rs, {"id", "experiment", "name", "node_count",
                                  "contexts_per_node", "threads_per_context"});
}

/// Run `sql` and read every row with read_row. Prepared per call rather
/// than held in the connection's plan cache: with these short reads
/// cached, the miranda pipeline benchmark's peak RSS sat ~2 MB (7%)
/// higher in almost every run (4-vCPU VM).
template <typename Row>
std::vector<Row> select_rows(sqldb::Connection& connection,
                             const std::string& sql, const Params& params = {}) {
  auto stmt = connection.prepare(sql);
  for (std::size_t i = 0; i < params.size(); ++i) stmt.set_value(i + 1, params[i]);
  auto rs = stmt.execute_query();
  std::vector<Row> out;
  while (rs.next()) read_row(rs, out.emplace_back());
  return out;
}

/// `columns` of `table`'s rows under one trial, ascending by id.
template <typename Row>
std::vector<Row> select_under_trial(sqldb::Connection& connection,
                                    const std::string& table,
                                    const std::string& columns,
                                    std::int64_t trial_id) {
  return select_rows<Row>(connection,
                          "SELECT " + columns + " FROM " + table +
                              " WHERE trial = ? ORDER BY id",
                          {Value(trial_id)});
}

/// The first row of `table` whose `column` equals `key`.
template <typename Entity>
std::optional<Entity> select_first(sqldb::Connection& connection,
                                   const std::string& table,
                                   const std::string& column, Value key) {
  auto rows = select_rows<Entity>(
      connection, "SELECT * FROM " + table + " WHERE " + column + " = ?",
      {std::move(key)});
  if (rows.empty()) return std::nullopt;
  return std::move(rows.front());
}

template <typename Event>
std::vector<Event> select_events(sqldb::Connection& connection,
                                 const std::string& table,
                                 std::int64_t trial_id) {
  return select_under_trial<Event>(connection, table, "id, name, group_name",
                                   trial_id);
}

/// Narrow a query over event alias `e` and profile alias `p` by every
/// member `filter` sets. Atomic profiles have no metric column.
void append_filter(const DataFilter& filter, bool has_metric, std::string& sql,
                   Params& params) {
  auto add = [&](const char* clause, Value v) {
    sql += clause;
    params.push_back(std::move(v));
  };
  if (filter.event_id) add(" AND e.id = ?", Value(*filter.event_id));
  if (filter.event_group) add(" AND e.group_name = ?", Value(*filter.event_group));
  if (has_metric && filter.metric_id) {
    add(" AND p.metric = ?", Value(*filter.metric_id));
  }
  if (filter.node) add(" AND p.node = ?", Value(std::int64_t{*filter.node}));
  if (filter.context) {
    add(" AND p.context = ?", Value(std::int64_t{*filter.context}));
  }
  if (filter.thread) add(" AND p.thread = ?", Value(std::int64_t{*filter.thread}));
}

/// One trial's location-profile rows joined to their events, narrowed by
/// `filter`. `events` names both the event table and the profile table's
/// key column. Interval rows carry their metric; atomic rows have none.
template <typename Row, typename Point>
std::vector<Row> select_location_rows(sqldb::Connection& connection,
                                      const std::string& events,
                                      const std::string& profile_table,
                                      std::span<const ValueColumn<Point>> columns,
                                      std::int64_t trial_id,
                                      const DataFilter& filter) {
  constexpr bool kHasMetric = std::is_same_v<Row, IntervalProfileRow>;
  std::string sql = "SELECT e.id, e.name, p.node, p.context, p.thread, " +
                    std::string(kHasMetric ? "p.metric, " : "") +
                    join_columns(columns, "p.") + " FROM " + events +
                    " e JOIN " + profile_table + " p ON p." + events +
                    " = e.id WHERE e.trial = ?";
  Params params{Value(trial_id)};
  append_filter(filter, kHasMetric, sql, params);
  auto rs = connection.execute(sql, params);
  std::vector<Row> out;
  out.reserve(rs.row_count());
  while (rs.next()) {
    Row& row = out.emplace_back();
    row.event_id = rs.get_int(1);
    row.event_name = rs.get_string(2);
    row.thread.node = static_cast<std::int32_t>(rs.get_int(3));
    row.thread.context = static_cast<std::int32_t>(rs.get_int(4));
    row.thread.thread = static_cast<std::int32_t>(rs.get_int(5));
    std::size_t index = 6;
    if constexpr (kHasMetric) row.metric_id = rs.get_int(index++);
    for (const auto& column : columns) {
      row.data.*column.member = rs.get_double(index++);
    }
  }
  return out;
}

/// Insert (id == kNoId, assigning id) or update one flexible-schema row:
/// the core values plus every field whose column exists, after ALTERing
/// missing ones in when `extend_schema` is set.
void save_row(sqldb::Connection& connection, const std::string& table,
              const std::vector<std::pair<std::string, Value>>& core_values,
              std::int64_t& id, const profile::Metadata& fields,
              bool extend_schema) {
  // The reflect → extend → write sequence below is a check-then-act:
  // without a transaction, two connections saving rows with the same new
  // metadata column can both see it missing and both ALTER, and the
  // MAX(id) fetch after the INSERT can read a row another connection just
  // assigned. The transaction holds the exclusive lock across the whole
  // sequence, making it atomic against sibling connections.
  sqldb::ScopedTransaction txn(connection);

  // Discover the live column set (flexible schema, paper §3.2).
  auto meta = connection.get_meta_data();
  auto columns = meta.get_columns(table);
  auto has_column = [&](const std::string& name) {
    for (const auto& c : columns) {
      if (util::iequals(c.name, name)) return true;
    }
    return false;
  };

  if (extend_schema) {
    bool altered = false;
    for (const auto& [name, value] : fields) {
      if (!has_column(name)) {
        connection.execute_update("ALTER TABLE " + table + " ADD COLUMN \"" +
                                  name + "\" TEXT");
        altered = true;
      }
    }
    if (altered) columns = meta.get_columns(table);
  }

  // Collect the (quoted column, value) pairs we can store.
  std::vector<std::string> names;
  Params values;
  for (const auto& [name, value] : core_values) {
    names.push_back("\"" + name + "\"");
    values.push_back(value);
  }
  for (const auto& [name, value] : fields) {
    if (!util::iequals(name, "id") && has_column(name)) {
      names.push_back("\"" + name + "\"");
      values.push_back(Value(value));
    }
  }

  if (id == profile::kNoId) {
    id = insert_returning_id(connection, table, names, values);
  } else {
    std::string sql = "UPDATE " + table + " SET ";
    for (std::size_t i = 0; i < names.size(); ++i) {
      sql += (i ? ", " : "") + names[i] + " = ?";
    }
    values.push_back(Value(id));
    if (connection.execute_update(sql + " WHERE id = ?", values) == 0) {
      throw DbError("no row with id " + std::to_string(id) + " in " + table);
    }
  }

  txn.commit();
}

}  // namespace

DatabaseAPI::DatabaseAPI(std::shared_ptr<sqldb::Connection> connection)
    : connection_(std::move(connection)) {
  if (!schema_present(*connection_)) bootstrap_schema(*connection_);
}

// ------------------------------------------------------------ application

std::vector<profile::Application> DatabaseAPI::list_applications() {
  return select_rows<profile::Application>(
      *connection_, "SELECT * FROM application ORDER BY id");
}

std::optional<profile::Application> DatabaseAPI::get_application(std::int64_t id) {
  return select_first<profile::Application>(*connection_, "application", "id",
                                            Value(id));
}

std::optional<profile::Application> DatabaseAPI::find_application(
    const std::string& name) {
  return select_first<profile::Application>(*connection_, "application", "name",
                                            Value(name));
}

void DatabaseAPI::save_application(profile::Application& app, bool extend_schema) {
  save_row(*connection_, "application", {{"name", Value(app.name)}}, app.id,
           app.fields, extend_schema);
}

// ------------------------------------------------------------- experiment

std::vector<profile::Experiment> DatabaseAPI::list_experiments(
    std::int64_t application_id) {
  return select_rows<profile::Experiment>(
      *connection_, "SELECT * FROM experiment WHERE application = ? ORDER BY id",
      {Value(application_id)});
}

std::optional<profile::Experiment> DatabaseAPI::get_experiment(std::int64_t id) {
  return select_first<profile::Experiment>(*connection_, "experiment", "id",
                                           Value(id));
}

void DatabaseAPI::save_experiment(profile::Experiment& experiment,
                                  bool extend_schema) {
  if (experiment.application_id == profile::kNoId) {
    throw InvalidArgument("experiment.application_id must be set before save");
  }
  save_row(*connection_, "experiment",
           {{"application", Value(experiment.application_id)},
            {"name", Value(experiment.name)}},
           experiment.id, experiment.fields, extend_schema);
}

// ------------------------------------------------------------------ trial

std::vector<profile::Trial> DatabaseAPI::list_trials(std::int64_t experiment_id) {
  return select_rows<profile::Trial>(
      *connection_, "SELECT * FROM trial WHERE experiment = ? ORDER BY id",
      {Value(experiment_id)});
}

std::optional<profile::Trial> DatabaseAPI::get_trial(std::int64_t id) {
  return select_first<profile::Trial>(*connection_, "trial", "id", Value(id));
}

void DatabaseAPI::save_trial(profile::Trial& trial, bool extend_schema) {
  if (trial.experiment_id == profile::kNoId) {
    throw InvalidArgument("trial.experiment_id must be set before save");
  }
  save_row(
      *connection_, "trial",
      {{"experiment", Value(trial.experiment_id)},
       {"name", Value(trial.name)},
       {"node_count", Value(trial.node_count)},
       {"contexts_per_node", Value(trial.contexts_per_node)},
       {"threads_per_context", Value(trial.threads_per_context)}},
      trial.id, trial.fields, extend_schema);
}

void DatabaseAPI::delete_trial(std::int64_t trial_id) {
  sqldb::ScopedTransaction txn(*connection_);
  // Children first (the engine enforces restrict semantics on FKs). The
  // engine has no subqueries, so collect the event ids up front.
  const auto event_ids = select_under_trial<std::int64_t>(
      *connection_, "interval_event", "id", trial_id);
  const auto atomic_ids = select_under_trial<std::int64_t>(
      *connection_, "atomic_event", "id", trial_id);
  auto run_for = [&](const std::string& sql,
                     const std::vector<std::int64_t>& ids) {
    auto stmt = connection_->prepare(sql);
    for (std::int64_t id : ids) {
      stmt.set_int(1, id);
      stmt.execute_update();
    }
  };
  for (const char* table : {"interval_location_profile", "interval_total_summary",
                            "interval_mean_summary"}) {
    run_for(std::string("DELETE FROM ") + table + " WHERE interval_event = ?",
            event_ids);
  }
  run_for("DELETE FROM atomic_location_profile WHERE atomic_event = ?",
          atomic_ids);
  for (const char* table :
       {"interval_event", "atomic_event", "metric", "analysis_result"}) {
    run_for(std::string("DELETE FROM ") + table + " WHERE trial = ?", {trial_id});
  }
  run_for("DELETE FROM trial WHERE id = ?", {trial_id});
  txn.commit();
}

// ------------------------------------------------------------ bulk upload

std::int64_t DatabaseAPI::upload_trial(const profile::TrialData& data,
                                       std::int64_t experiment_id,
                                       bool extend_schema) {
  util::WallTimer upload_timer;
  profile::Trial trial = data.trial();
  trial.id = profile::kNoId;
  trial.experiment_id = experiment_id;
  // One transaction from the trial row to the last profile row: a
  // failure anywhere leaves nothing behind, in memory or on disk.
  sqldb::ScopedTransaction txn(*connection_);
  save_trial(trial, extend_schema);

  // Metrics and events: (trial, name, third) rows inserted in model
  // order, so reading the new trial's ids back ascending maps each model
  // index to its id.
  auto insert_named = [&](const std::string& table, const std::string& third,
                          const auto& items, auto third_value) {
    auto stmt = connection_->prepare(insert_sql(table, {"trial", "name", third}));
    for (const auto& item : items) {
      stmt.set_int(1, trial.id);
      stmt.set_string(2, item.name);
      stmt.set_value(3, third_value(item));
      stmt.execute_update();
    }
    return select_under_trial<std::int64_t>(*connection_, table, "id", trial.id);
  };
  const auto metric_ids =
      insert_named("metric", "derived", data.metrics(), [](const auto& metric) {
        return Value(std::int64_t{metric.derived ? 1 : 0});
      });
  const auto group_of = [](const auto& event) { return Value(event.group); };
  const auto event_ids =
      insert_named("interval_event", "group_name", data.events(), group_of);
  const auto atomic_ids =
      insert_named("atomic_event", "group_name", data.atomic_events(), group_of);

  // Location profiles (the bulk of the data: one row per point).
  {
    auto stmt = connection_->prepare(interval_location_insert());
    data.for_each_interval([&](std::size_t e, std::size_t t, std::size_t m,
                               const profile::IntervalDataPoint& p) {
      const profile::ThreadId& id = data.threads()[t];
      insert_point(stmt, {event_ids.at(e), id.node, id.context, id.thread,
                          metric_ids.at(m)},
                   p, kIntervalValueColumns);
    });
  }

  // Total & mean summary tables.
  const auto summaries = profile::compute_interval_summaries(data);
  {
    auto prepare_summary = [&](const std::string& table) {
      return connection_->prepare(
          insert_sql(table, {"interval_event", "metric"}, kIntervalValueColumns));
    };
    auto total_stmt = prepare_summary("interval_total_summary");
    auto mean_stmt = prepare_summary("interval_mean_summary");
    for (const auto& s : summaries) {
      const std::int64_t event = event_ids.at(s.event_index);
      const std::int64_t metric = metric_ids.at(s.metric_index);
      insert_point(total_stmt, {event, metric}, s.total, kIntervalValueColumns);
      insert_point(mean_stmt, {event, metric}, s.mean, kIntervalValueColumns);
    }
  }

  // Atomic location profiles.
  {
    auto stmt = connection_->prepare(
        insert_sql("atomic_location_profile",
                   {"atomic_event", "node", "context", "thread"},
                   kAtomicValueColumns));
    data.for_each_atomic([&](std::size_t a, std::size_t t,
                             const profile::AtomicDataPoint& p) {
      const profile::ThreadId& id = data.threads()[t];
      insert_point(stmt, {atomic_ids.at(a), id.node, id.context, id.thread}, p,
                   kAtomicValueColumns);
    });
  }

  txn.commit();

  const std::uint64_t uploaded_rows =
      data.metrics().size() + data.events().size() +
      data.atomic_events().size() + data.interval_point_count() +
      data.atomic_point_count() + 2 * summaries.size();
  auto& registry = telemetry::MetricsRegistry::instance();
  static auto& uploads = registry.counter("api.trial.uploads");
  static auto& upload_rows = registry.counter("api.trial.upload_rows");
  static auto& upload_micros = registry.histogram("api.trial.upload_micros");
  uploads.add();
  upload_rows.add(uploaded_rows);
  upload_micros.record(static_cast<std::uint64_t>(upload_timer.seconds() * 1e6));
  return trial.id;
}

// -------------------------------------------------------------- full load

profile::TrialData DatabaseAPI::load_trial(std::int64_t trial_id) {
  util::WallTimer load_timer;
  std::uint64_t loaded_rows = 0;
  auto stored = get_trial(trial_id);
  if (!stored) throw DbError("no trial with id " + std::to_string(trial_id));

  profile::TrialData data;
  data.trial() = *stored;

  // id -> dense index maps.
  std::unordered_map<std::int64_t, std::size_t> metric_of;
  std::unordered_map<std::int64_t, std::size_t> event_of;
  std::unordered_map<std::int64_t, std::size_t> atomic_of;

  for (const auto& metric : get_metrics(trial_id)) {
    const std::size_t index = data.intern_metric(metric.name);
    data.metric(index).derived = metric.derived;
    data.metric(index).id = metric.id;
    metric_of[metric.id] = index;
  }
  for (const auto& event : get_interval_events(trial_id)) {
    const std::size_t index = data.intern_event(event.name, event.group);
    data.event(index).id = event.id;
    event_of[event.id] = index;
  }
  for (const auto& event : get_atomic_events(trial_id)) {
    const std::size_t index = data.intern_atomic_event(event.name, event.group);
    data.atomic_event(index).id = event.id;
    atomic_of[event.id] = index;
  }

  for (const auto& row : get_interval_data(trial_id)) {
    const std::size_t thread = data.intern_thread(row.thread);
    data.set_interval_data(event_of.at(row.event_id), thread,
                           metric_of.at(row.metric_id), row.data);
    ++loaded_rows;
  }
  for (const auto& row : get_atomic_data(trial_id)) {
    const std::size_t thread = data.intern_thread(row.thread);
    data.set_atomic_data(atomic_of.at(row.event_id), thread, row.data);
    ++loaded_rows;
  }

  data.infer_dimensions();

  auto& registry = telemetry::MetricsRegistry::instance();
  static auto& loads = registry.counter("api.trial.loads");
  static auto& load_rows = registry.counter("api.trial.load_rows");
  static auto& load_micros = registry.histogram("api.trial.load_micros");
  loads.add();
  load_rows.add(loaded_rows);
  load_micros.record(static_cast<std::uint64_t>(load_timer.seconds() * 1e6));
  return data;
}

// ------------------------------------------------------ selective queries

std::vector<profile::Metric> DatabaseAPI::get_metrics(std::int64_t trial_id) {
  return select_under_trial<profile::Metric>(*connection_, "metric",
                                             "id, name, derived", trial_id);
}

std::vector<profile::IntervalEvent> DatabaseAPI::get_interval_events(
    std::int64_t trial_id) {
  return select_events<profile::IntervalEvent>(*connection_, "interval_event",
                                               trial_id);
}

std::vector<profile::AtomicEvent> DatabaseAPI::get_atomic_events(
    std::int64_t trial_id) {
  return select_events<profile::AtomicEvent>(*connection_, "atomic_event",
                                             trial_id);
}

std::vector<IntervalProfileRow> DatabaseAPI::get_interval_data(
    std::int64_t trial_id, const DataFilter& filter) {
  return select_location_rows<IntervalProfileRow>(
      *connection_, "interval_event", "interval_location_profile",
      kIntervalValueColumns, trial_id, filter);
}

std::vector<AtomicProfileRow> DatabaseAPI::get_atomic_data(
    std::int64_t trial_id, const DataFilter& filter) {
  return select_location_rows<AtomicProfileRow>(
      *connection_, "atomic_event", "atomic_location_profile",
      kAtomicValueColumns, trial_id, filter);
}

AggregateSummary DatabaseAPI::aggregate_interval_column(std::int64_t trial_id,
                                                        std::int64_t event_id,
                                                        const std::string& column,
                                                        const DataFilter& filter) {
  const auto& allowed = kIntervalValueColumns;
  if (std::none_of(allowed.begin(), allowed.end(), [&](const auto& c) {
        return util::iequals(c.name, column);
      })) {
    throw InvalidArgument("not an aggregatable profile column: " + column);
  }

  // Driven from the event's profile rows through the FK index on
  // p.interval_event, so the cost tracks one event's rows, not the
  // archive; the join keeps the check that the event is the trial's.
  std::string sql = "SELECT COUNT(p." + column + "), MIN(p." + column +
                    "), MAX(p." + column + "), AVG(p." + column + "), STDDEV(p." +
                    column +
                    ") FROM interval_location_profile p JOIN interval_event e"
                    " ON e.id = p.interval_event"
                    " WHERE p.interval_event = ? AND e.trial = ?";
  Params params{Value(event_id), Value(trial_id)};
  append_filter(filter, /*has_metric=*/true, sql, params);
  auto rs = connection_->execute(sql, params);
  AggregateSummary out;
  if (rs.next()) {
    out.count = static_cast<std::size_t>(rs.get_int(1));
    if (out.count > 0) {
      out.minimum = rs.get_double(2);
      out.maximum = rs.get_double(3);
      out.mean = rs.get_double(4);
      out.std_dev = rs.is_null(5) ? 0.0 : rs.get_double(5);
    }
  }
  return out;
}

// --------------------------------------------------------- derived metric

std::int64_t DatabaseAPI::save_derived_metric(std::int64_t trial_id,
                                              const profile::TrialData& data,
                                              const std::string& metric_name) {
  auto metric_index = data.find_metric(metric_name);
  if (!metric_index) {
    throw InvalidArgument("trial data has no metric '" + metric_name + "'");
  }
  // Map event names to the trial's stored event ids.
  std::unordered_map<std::string, std::int64_t> event_id_of;
  for (const auto& event : get_interval_events(trial_id)) {
    event_id_of[event.name] = event.id;
  }

  sqldb::ScopedTransaction txn(*connection_);
  const std::int64_t metric_id = insert_returning_id(
      *connection_, "metric", {"trial", "name", "derived"},
      {Value(trial_id), Value(metric_name), Value(std::int64_t{1})});
  auto stmt = connection_->prepare(interval_location_insert());
  data.for_each_interval([&](std::size_t e, std::size_t t, std::size_t m,
                             const profile::IntervalDataPoint& p) {
    if (m != *metric_index) return;
    auto it = event_id_of.find(data.events()[e].name);
    if (it == event_id_of.end()) return;  // event unknown to the trial
    const profile::ThreadId& id = data.threads()[t];
    insert_point(stmt, {it->second, id.node, id.context, id.thread, metric_id},
                 p, kIntervalValueColumns);
  });
  txn.commit();
  return metric_id;
}

// -------------------------------------------------------- analysis results

std::int64_t DatabaseAPI::save_analysis_result(std::int64_t trial_id,
                                               const std::string& name,
                                               const std::string& kind,
                                               const std::string& content) {
  // AnalysisServer workers insert results concurrently over sibling
  // connections; the transaction keeps the INSERT and the id fetch from
  // interleaving with another worker's insert (which would hand this
  // request someone else's result_id).
  sqldb::ScopedTransaction txn(*connection_);
  const std::int64_t id = insert_returning_id(
      *connection_, "analysis_result", {"trial", "name", "kind", "content"},
      {Value(trial_id), Value(name), Value(kind), Value(content)});
  txn.commit();
  return id;
}

std::vector<DatabaseAPI::AnalysisResult> DatabaseAPI::list_analysis_results(
    std::int64_t trial_id) {
  return select_under_trial<AnalysisResult>(*connection_, "analysis_result",
                                             "id, name, kind, content", trial_id);
}

}  // namespace perfdmf::api
