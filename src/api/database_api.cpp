#include "api/database_api.h"

#include <algorithm>
#include <cmath>

#include "api/schema_bootstrap.h"
#include "telemetry/metrics.h"
#include "util/error.h"
#include "util/strings.h"
#include "util/timer.h"

namespace perfdmf::api {

using sqldb::Params;
using sqldb::ResultSet;
using sqldb::Value;

namespace {

const std::vector<std::string> kApplicationCore = {"id", "name"};
const std::vector<std::string> kExperimentCore = {"id", "application", "name"};
const std::vector<std::string> kTrialCore = {"id",         "experiment",
                                             "name",       "node_count",
                                             "contexts_per_node",
                                             "threads_per_context"};

bool is_core(const std::string& column, const std::vector<std::string>& core) {
  for (const auto& c : core) {
    if (util::iequals(c, column)) return true;
  }
  return false;
}

}  // namespace

DatabaseAPI::DatabaseAPI(std::shared_ptr<sqldb::Connection> connection)
    : connection_(std::move(connection)) {
  if (!schema_present(*connection_)) bootstrap_schema(*connection_);
}

// ---------------------------------------------------------- flexible rows

profile::Metadata DatabaseAPI::read_fields(
    const std::string& table, ResultSet& rs,
    const std::vector<std::string>& core_columns) {
  profile::Metadata fields;
  for (const auto& column : rs.column_names()) {
    if (is_core(column, core_columns)) continue;
    if (!rs.is_null(column)) fields[column] = rs.get_string(column);
  }
  (void)table;
  return fields;
}

void DatabaseAPI::save_row_with_fields(
    const std::string& table,
    const std::vector<std::pair<std::string, Value>>& core_values,
    std::int64_t& id, const profile::Metadata& fields, bool extend_schema) {
  // The reflect → extend → write sequence below is a check-then-act:
  // without a transaction, two connections saving rows with the same new
  // metadata column can both see it missing and both ALTER, and the
  // MAX(id) fetch after the INSERT can read a row another connection just
  // assigned. The transaction holds the exclusive lock across the whole
  // sequence, making it atomic against sibling connections.
  sqldb::ScopedTransaction txn(*connection_);

  // Discover the live column set (flexible schema, paper §3.2).
  auto meta = connection_->get_meta_data();
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
        connection_->execute_update("ALTER TABLE " + table + " ADD COLUMN \"" +
                                    name + "\" TEXT");
        altered = true;
      }
    }
    if (altered) columns = meta.get_columns(table);
  }

  // Collect the (column, value) pairs we can store.
  std::vector<std::pair<std::string, Value>> writes = core_values;
  for (const auto& [name, value] : fields) {
    if (is_core(name, {"id"})) continue;
    if (has_column(name)) writes.emplace_back(name, Value(value));
  }

  if (id == profile::kNoId) {
    std::string sql = "INSERT INTO " + table + " (";
    std::string placeholders;
    for (std::size_t i = 0; i < writes.size(); ++i) {
      if (i) {
        sql += ", ";
        placeholders += ", ";
      }
      sql += "\"" + writes[i].first + "\"";
      placeholders += "?";
    }
    sql += ") VALUES (" + placeholders + ")";
    auto stmt = connection_->prepare(sql);
    for (std::size_t i = 0; i < writes.size(); ++i) {
      stmt.set_value(i + 1, writes[i].second);
    }
    stmt.execute_update();
    // Fetch the id just assigned (safe: the surrounding transaction holds
    // the exclusive lock across the INSERT and this read).
    auto rs = connection_->execute("SELECT MAX(id) FROM " + table);
    rs.next();
    id = rs.get_int(1);
  } else {
    std::string sql = "UPDATE " + table + " SET ";
    for (std::size_t i = 0; i < writes.size(); ++i) {
      if (i) sql += ", ";
      sql += "\"" + writes[i].first + "\" = ?";
    }
    sql += " WHERE id = ?";
    auto stmt = connection_->prepare(sql);
    for (std::size_t i = 0; i < writes.size(); ++i) {
      stmt.set_value(i + 1, writes[i].second);
    }
    stmt.set_int(writes.size() + 1, id);
    if (stmt.execute_update() == 0) {
      throw DbError("no row with id " + std::to_string(id) + " in " + table);
    }
  }

  txn.commit();
}

// ------------------------------------------------------------ application

std::vector<profile::Application> DatabaseAPI::list_applications() {
  auto rs = connection_->execute("SELECT * FROM application ORDER BY id");
  std::vector<profile::Application> out;
  while (rs.next()) {
    profile::Application app;
    app.id = rs.get_int("id");
    app.name = rs.get_string("name");
    app.fields = read_fields("application", rs, kApplicationCore);
    out.push_back(std::move(app));
  }
  return out;
}

std::optional<profile::Application> DatabaseAPI::get_application(std::int64_t id) {
  auto stmt = connection_->prepare("SELECT * FROM application WHERE id = ?");
  stmt.set_int(1, id);
  auto rs = stmt.execute_query();
  if (!rs.next()) return std::nullopt;
  profile::Application app;
  app.id = rs.get_int("id");
  app.name = rs.get_string("name");
  app.fields = read_fields("application", rs, kApplicationCore);
  return app;
}

std::optional<profile::Application> DatabaseAPI::find_application(
    const std::string& name) {
  auto stmt = connection_->prepare("SELECT id FROM application WHERE name = ?");
  stmt.set_string(1, name);
  auto rs = stmt.execute_query();
  if (!rs.next()) return std::nullopt;
  return get_application(rs.get_int(1));
}

void DatabaseAPI::save_application(profile::Application& app, bool extend_schema) {
  save_row_with_fields("application", {{"name", Value(app.name)}}, app.id,
                       app.fields, extend_schema);
}

// ------------------------------------------------------------- experiment

std::vector<profile::Experiment> DatabaseAPI::list_experiments(
    std::int64_t application_id) {
  auto stmt = connection_->prepare(
      "SELECT * FROM experiment WHERE application = ? ORDER BY id");
  stmt.set_int(1, application_id);
  auto rs = stmt.execute_query();
  std::vector<profile::Experiment> out;
  while (rs.next()) {
    profile::Experiment experiment;
    experiment.id = rs.get_int("id");
    experiment.application_id = rs.get_int("application");
    experiment.name = rs.get_string("name");
    experiment.fields = read_fields("experiment", rs, kExperimentCore);
    out.push_back(std::move(experiment));
  }
  return out;
}

std::optional<profile::Experiment> DatabaseAPI::get_experiment(std::int64_t id) {
  auto stmt = connection_->prepare("SELECT * FROM experiment WHERE id = ?");
  stmt.set_int(1, id);
  auto rs = stmt.execute_query();
  if (!rs.next()) return std::nullopt;
  profile::Experiment experiment;
  experiment.id = rs.get_int("id");
  experiment.application_id = rs.get_int("application");
  experiment.name = rs.get_string("name");
  experiment.fields = read_fields("experiment", rs, kExperimentCore);
  return experiment;
}

void DatabaseAPI::save_experiment(profile::Experiment& experiment,
                                  bool extend_schema) {
  if (experiment.application_id == profile::kNoId) {
    throw InvalidArgument("experiment.application_id must be set before save");
  }
  save_row_with_fields("experiment",
                       {{"application", Value(experiment.application_id)},
                        {"name", Value(experiment.name)}},
                       experiment.id, experiment.fields, extend_schema);
}

// ------------------------------------------------------------------ trial

std::vector<profile::Trial> DatabaseAPI::list_trials(std::int64_t experiment_id) {
  auto stmt =
      connection_->prepare("SELECT * FROM trial WHERE experiment = ? ORDER BY id");
  stmt.set_int(1, experiment_id);
  auto rs = stmt.execute_query();
  std::vector<profile::Trial> out;
  while (rs.next()) {
    profile::Trial trial;
    trial.id = rs.get_int("id");
    trial.experiment_id = rs.get_int("experiment");
    trial.name = rs.get_string("name");
    if (!rs.is_null("node_count")) trial.node_count = rs.get_int("node_count");
    if (!rs.is_null("contexts_per_node")) {
      trial.contexts_per_node = rs.get_int("contexts_per_node");
    }
    if (!rs.is_null("threads_per_context")) {
      trial.threads_per_context = rs.get_int("threads_per_context");
    }
    trial.fields = read_fields("trial", rs, kTrialCore);
    out.push_back(std::move(trial));
  }
  return out;
}

std::optional<profile::Trial> DatabaseAPI::get_trial(std::int64_t id) {
  auto stmt = connection_->prepare("SELECT * FROM trial WHERE id = ?");
  stmt.set_int(1, id);
  auto rs = stmt.execute_query();
  if (!rs.next()) return std::nullopt;
  profile::Trial trial;
  trial.id = rs.get_int("id");
  trial.experiment_id = rs.get_int("experiment");
  trial.name = rs.get_string("name");
  if (!rs.is_null("node_count")) trial.node_count = rs.get_int("node_count");
  if (!rs.is_null("contexts_per_node")) {
    trial.contexts_per_node = rs.get_int("contexts_per_node");
  }
  if (!rs.is_null("threads_per_context")) {
    trial.threads_per_context = rs.get_int("threads_per_context");
  }
  trial.fields = read_fields("trial", rs, kTrialCore);
  return trial;
}

void DatabaseAPI::save_trial(profile::Trial& trial, bool extend_schema) {
  if (trial.experiment_id == profile::kNoId) {
    throw InvalidArgument("trial.experiment_id must be set before save");
  }
  save_row_with_fields(
      "trial",
      {{"experiment", Value(trial.experiment_id)},
       {"name", Value(trial.name)},
       {"node_count", Value(trial.node_count)},
       {"contexts_per_node", Value(trial.contexts_per_node)},
       {"threads_per_context", Value(trial.threads_per_context)}},
      trial.id, trial.fields, extend_schema);
}

void DatabaseAPI::delete_trial(std::int64_t trial_id) {
  // Children first (the engine enforces restrict semantics on FKs). The
  // engine has no subqueries, so collect child ids through the API.
  std::vector<std::int64_t> event_ids;
  for (const auto& event : get_interval_events(trial_id)) {
    event_ids.push_back(event.id);
  }
  std::vector<std::int64_t> atomic_ids;
  for (const auto& event : get_atomic_events(trial_id)) {
    atomic_ids.push_back(event.id);
  }

  sqldb::ScopedTransaction txn(*connection_);
  auto run_for = [&](const std::string& sql,
                     const std::vector<std::int64_t>& ids) {
    auto stmt = connection_->prepare(sql);
    for (std::int64_t id : ids) {
      stmt.set_int(1, id);
      stmt.execute_update();
    }
  };
  run_for("DELETE FROM interval_location_profile WHERE interval_event = ?",
          event_ids);
  run_for("DELETE FROM interval_total_summary WHERE interval_event = ?",
          event_ids);
  run_for("DELETE FROM interval_mean_summary WHERE interval_event = ?",
          event_ids);
  run_for("DELETE FROM atomic_location_profile WHERE atomic_event = ?",
          atomic_ids);
  run_for("DELETE FROM interval_event WHERE trial = ?", {trial_id});
  run_for("DELETE FROM atomic_event WHERE trial = ?", {trial_id});
  run_for("DELETE FROM metric WHERE trial = ?", {trial_id});
  run_for("DELETE FROM analysis_result WHERE trial = ?", {trial_id});
  run_for("DELETE FROM trial WHERE id = ?", {trial_id});
  txn.commit();
}

// ------------------------------------------------------------ bulk upload

std::int64_t DatabaseAPI::upload_trial(const profile::TrialData& data,
                                       std::int64_t experiment_id,
                                       bool extend_schema) {
  util::WallTimer upload_timer;
  std::uint64_t uploaded_rows = 0;
  profile::Trial trial = data.trial();
  trial.id = profile::kNoId;
  trial.experiment_id = experiment_id;
  // One transaction from the trial row to the last profile row: a
  // failure anywhere leaves nothing behind, in memory or on disk.
  sqldb::ScopedTransaction txn(*connection_);
  save_trial(trial, extend_schema);

  // Metrics.
  std::vector<std::int64_t> metric_ids;
  {
    auto stmt = connection_->prepare(
        "INSERT INTO metric (trial, name, derived) VALUES (?, ?, ?)");
    for (const auto& metric : data.metrics()) {
      stmt.set_int(1, trial.id);
      stmt.set_string(2, metric.name);
      stmt.set_int(3, metric.derived ? 1 : 0);
      stmt.execute_update();
    }
    auto rs = connection_->execute(
        "SELECT id FROM metric WHERE trial = " + std::to_string(trial.id) +
        " ORDER BY id");
    while (rs.next()) metric_ids.push_back(rs.get_int(1));
  }

  // Interval events.
  std::vector<std::int64_t> event_ids;
  {
    auto stmt = connection_->prepare(
        "INSERT INTO interval_event (trial, name, group_name) VALUES (?, ?, ?)");
    for (const auto& event : data.events()) {
      stmt.set_int(1, trial.id);
      stmt.set_string(2, event.name);
      stmt.set_string(3, event.group);
      stmt.execute_update();
    }
    auto rs = connection_->execute(
        "SELECT id FROM interval_event WHERE trial = " +
        std::to_string(trial.id) + " ORDER BY id");
    while (rs.next()) event_ids.push_back(rs.get_int(1));
  }

  // Atomic events.
  std::vector<std::int64_t> atomic_ids;
  {
    auto stmt = connection_->prepare(
        "INSERT INTO atomic_event (trial, name, group_name) VALUES (?, ?, ?)");
    for (const auto& event : data.atomic_events()) {
      stmt.set_int(1, trial.id);
      stmt.set_string(2, event.name);
      stmt.set_string(3, event.group);
      stmt.execute_update();
    }
    auto rs = connection_->execute("SELECT id FROM atomic_event WHERE trial = " +
                                   std::to_string(trial.id) + " ORDER BY id");
    while (rs.next()) atomic_ids.push_back(rs.get_int(1));
  }

  // Location profiles (the bulk of the data: one row per point).
  {
    auto stmt = connection_->prepare(
        "INSERT INTO interval_location_profile (interval_event, node, context,"
        " thread, metric, inclusive_percentage, inclusive,"
        " exclusive_percentage, exclusive, inclusive_per_call, num_calls,"
        " num_subrs) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)");
    data.for_each_interval([&](std::size_t e, std::size_t t, std::size_t m,
                               const profile::IntervalDataPoint& p) {
      const profile::ThreadId& id = data.threads()[t];
      stmt.set_int(1, event_ids.at(e));
      stmt.set_int(2, id.node);
      stmt.set_int(3, id.context);
      stmt.set_int(4, id.thread);
      stmt.set_int(5, metric_ids.at(m));
      stmt.set_double(6, p.inclusive_pct);
      stmt.set_double(7, p.inclusive);
      stmt.set_double(8, p.exclusive_pct);
      stmt.set_double(9, p.exclusive);
      stmt.set_double(10, p.inclusive_per_call);
      stmt.set_double(11, p.num_calls);
      stmt.set_double(12, p.num_subrs);
      stmt.execute_update();
    });
  }

  // Total & mean summary tables.
  {
    const auto summaries = profile::compute_interval_summaries(data);
    auto prepare_summary = [&](const char* table) {
      return connection_->prepare(
          std::string("INSERT INTO ") + table +
          " (interval_event, metric, inclusive_percentage, inclusive,"
          " exclusive_percentage, exclusive, inclusive_per_call, num_calls,"
          " num_subrs) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)");
    };
    auto total_stmt = prepare_summary("interval_total_summary");
    auto mean_stmt = prepare_summary("interval_mean_summary");
    auto insert_summary = [&](sqldb::PreparedStatement& stmt,
                              const profile::IntervalSummary& s,
                              const profile::IntervalDataPoint& p) {
      stmt.set_int(1, event_ids.at(s.event_index));
      stmt.set_int(2, metric_ids.at(s.metric_index));
      stmt.set_double(3, p.inclusive_pct);
      stmt.set_double(4, p.inclusive);
      stmt.set_double(5, p.exclusive_pct);
      stmt.set_double(6, p.exclusive);
      stmt.set_double(7, p.inclusive_per_call);
      stmt.set_double(8, p.num_calls);
      stmt.set_double(9, p.num_subrs);
      stmt.execute_update();
    };
    for (const auto& s : summaries) {
      insert_summary(total_stmt, s, s.total);
      insert_summary(mean_stmt, s, s.mean);
    }
    uploaded_rows += 2 * summaries.size();
  }

  // Atomic location profiles.
  {
    auto stmt = connection_->prepare(
        "INSERT INTO atomic_location_profile (atomic_event, node, context,"
        " thread, sample_count, maximum_value, minimum_value, mean_value,"
        " standard_deviation) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)");
    data.for_each_atomic([&](std::size_t a, std::size_t t,
                             const profile::AtomicDataPoint& p) {
      const profile::ThreadId& id = data.threads()[t];
      stmt.set_int(1, atomic_ids.at(a));
      stmt.set_int(2, id.node);
      stmt.set_int(3, id.context);
      stmt.set_int(4, id.thread);
      stmt.set_double(5, p.sample_count);
      stmt.set_double(6, p.maximum);
      stmt.set_double(7, p.minimum);
      stmt.set_double(8, p.mean);
      stmt.set_double(9, p.std_dev);
      stmt.execute_update();
    });
  }

  txn.commit();

  uploaded_rows += data.metrics().size() + data.events().size() +
                   data.atomic_events().size() + data.interval_point_count() +
                   data.atomic_point_count();
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
  auto stmt = connection_->prepare(
      "SELECT id, name, derived FROM metric WHERE trial = ? ORDER BY id");
  stmt.set_int(1, trial_id);
  auto rs = stmt.execute_query();
  std::vector<profile::Metric> out;
  while (rs.next()) {
    profile::Metric metric;
    metric.id = rs.get_int(1);
    metric.name = rs.get_string(2);
    metric.derived = rs.get_int(3) != 0;
    out.push_back(std::move(metric));
  }
  return out;
}

std::vector<profile::IntervalEvent> DatabaseAPI::get_interval_events(
    std::int64_t trial_id) {
  auto stmt = connection_->prepare(
      "SELECT id, name, group_name FROM interval_event WHERE trial = ?"
      " ORDER BY id");
  stmt.set_int(1, trial_id);
  auto rs = stmt.execute_query();
  std::vector<profile::IntervalEvent> out;
  while (rs.next()) {
    profile::IntervalEvent event;
    event.id = rs.get_int(1);
    event.name = rs.get_string(2);
    event.group = rs.get_string(3);
    out.push_back(std::move(event));
  }
  return out;
}

std::vector<profile::AtomicEvent> DatabaseAPI::get_atomic_events(
    std::int64_t trial_id) {
  auto stmt = connection_->prepare(
      "SELECT id, name, group_name FROM atomic_event WHERE trial = ? ORDER BY id");
  stmt.set_int(1, trial_id);
  auto rs = stmt.execute_query();
  std::vector<profile::AtomicEvent> out;
  while (rs.next()) {
    profile::AtomicEvent event;
    event.id = rs.get_int(1);
    event.name = rs.get_string(2);
    event.group = rs.get_string(3);
    out.push_back(std::move(event));
  }
  return out;
}

std::vector<IntervalProfileRow> DatabaseAPI::get_interval_data(
    std::int64_t trial_id, const DataFilter& filter) {
  std::string sql =
      "SELECT e.id, e.name, p.node, p.context, p.thread, p.metric, "
      " p.inclusive, p.exclusive, p.inclusive_percentage,"
      " p.exclusive_percentage, p.inclusive_per_call, p.num_calls, p.num_subrs"
      " FROM interval_event e JOIN interval_location_profile p"
      " ON p.interval_event = e.id WHERE e.trial = ?";
  Params params;
  params.push_back(Value(trial_id));
  auto add = [&](const char* clause, Value v) {
    sql += clause;
    params.push_back(std::move(v));
  };
  if (filter.event_id) add(" AND e.id = ?", Value(*filter.event_id));
  if (filter.event_group) add(" AND e.group_name = ?", Value(*filter.event_group));
  if (filter.metric_id) add(" AND p.metric = ?", Value(*filter.metric_id));
  if (filter.node) add(" AND p.node = ?", Value(std::int64_t{*filter.node}));
  if (filter.context) {
    add(" AND p.context = ?", Value(std::int64_t{*filter.context}));
  }
  if (filter.thread) add(" AND p.thread = ?", Value(std::int64_t{*filter.thread}));

  auto rs = connection_->execute(sql, params);
  std::vector<IntervalProfileRow> out;
  out.reserve(rs.row_count());
  while (rs.next()) {
    IntervalProfileRow row;
    row.event_id = rs.get_int(1);
    row.event_name = rs.get_string(2);
    row.thread.node = static_cast<std::int32_t>(rs.get_int(3));
    row.thread.context = static_cast<std::int32_t>(rs.get_int(4));
    row.thread.thread = static_cast<std::int32_t>(rs.get_int(5));
    row.metric_id = rs.get_int(6);
    row.data.inclusive = rs.get_double(7);
    row.data.exclusive = rs.get_double(8);
    row.data.inclusive_pct = rs.get_double(9);
    row.data.exclusive_pct = rs.get_double(10);
    row.data.inclusive_per_call = rs.get_double(11);
    row.data.num_calls = rs.get_double(12);
    row.data.num_subrs = rs.get_double(13);
    out.push_back(std::move(row));
  }
  return out;
}

std::vector<AtomicProfileRow> DatabaseAPI::get_atomic_data(
    std::int64_t trial_id, const DataFilter& filter) {
  std::string sql =
      "SELECT e.id, e.name, p.node, p.context, p.thread, p.sample_count,"
      " p.maximum_value, p.minimum_value, p.mean_value, p.standard_deviation"
      " FROM atomic_event e JOIN atomic_location_profile p"
      " ON p.atomic_event = e.id WHERE e.trial = ?";
  Params params;
  params.push_back(Value(trial_id));
  if (filter.event_id) {
    sql += " AND e.id = ?";
    params.push_back(Value(*filter.event_id));
  }
  if (filter.node) {
    sql += " AND p.node = ?";
    params.push_back(Value(std::int64_t{*filter.node}));
  }
  if (filter.context) {
    sql += " AND p.context = ?";
    params.push_back(Value(std::int64_t{*filter.context}));
  }
  if (filter.thread) {
    sql += " AND p.thread = ?";
    params.push_back(Value(std::int64_t{*filter.thread}));
  }
  auto rs = connection_->execute(sql, params);
  std::vector<AtomicProfileRow> out;
  while (rs.next()) {
    AtomicProfileRow row;
    row.event_id = rs.get_int(1);
    row.event_name = rs.get_string(2);
    row.thread.node = static_cast<std::int32_t>(rs.get_int(3));
    row.thread.context = static_cast<std::int32_t>(rs.get_int(4));
    row.thread.thread = static_cast<std::int32_t>(rs.get_int(5));
    row.data.sample_count = rs.get_double(6);
    row.data.maximum = rs.get_double(7);
    row.data.minimum = rs.get_double(8);
    row.data.mean = rs.get_double(9);
    row.data.std_dev = rs.get_double(10);
    out.push_back(std::move(row));
  }
  return out;
}

AggregateSummary DatabaseAPI::aggregate_interval_column(std::int64_t trial_id,
                                                        std::int64_t event_id,
                                                        const std::string& column,
                                                        const DataFilter& filter) {
  static const char* kAllowed[] = {
      "inclusive",          "exclusive",          "inclusive_percentage",
      "exclusive_percentage", "inclusive_per_call", "num_calls",
      "num_subrs"};
  bool ok = false;
  for (const char* c : kAllowed) {
    if (util::iequals(c, column)) ok = true;
  }
  if (!ok) throw InvalidArgument("not an aggregatable profile column: " + column);

  // Driven from the event's profile rows through the FK index on
  // p.interval_event, so the cost tracks one event's rows, not the
  // archive; the join keeps the check that the event is the trial's.
  std::string sql = "SELECT COUNT(p." + column + "), MIN(p." + column +
                    "), MAX(p." + column + "), AVG(p." + column + "), STDDEV(p." +
                    column +
                    ") FROM interval_location_profile p JOIN interval_event e"
                    " ON e.id = p.interval_event"
                    " WHERE p.interval_event = ? AND e.trial = ?";
  Params params;
  params.push_back(Value(event_id));
  params.push_back(Value(trial_id));
  if (filter.metric_id) {
    sql += " AND p.metric = ?";
    params.push_back(Value(*filter.metric_id));
  }
  if (filter.node) {
    sql += " AND p.node = ?";
    params.push_back(Value(std::int64_t{*filter.node}));
  }
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
  std::int64_t metric_id = profile::kNoId;
  {
    auto stmt = connection_->prepare(
        "INSERT INTO metric (trial, name, derived) VALUES (?, ?, 1)");
    stmt.set_int(1, trial_id);
    stmt.set_string(2, metric_name);
    stmt.execute_update();
    auto rs = connection_->execute("SELECT MAX(id) FROM metric");
    rs.next();
    metric_id = rs.get_int(1);
  }
  auto stmt = connection_->prepare(
      "INSERT INTO interval_location_profile (interval_event, node, context,"
      " thread, metric, inclusive_percentage, inclusive,"
      " exclusive_percentage, exclusive, inclusive_per_call, num_calls,"
      " num_subrs) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)");
  data.for_each_interval([&](std::size_t e, std::size_t t, std::size_t m,
                             const profile::IntervalDataPoint& p) {
    if (m != *metric_index) return;
    auto it = event_id_of.find(data.events()[e].name);
    if (it == event_id_of.end()) return;  // event unknown to the trial
    const profile::ThreadId& id = data.threads()[t];
    stmt.set_int(1, it->second);
    stmt.set_int(2, id.node);
    stmt.set_int(3, id.context);
    stmt.set_int(4, id.thread);
    stmt.set_int(5, metric_id);
    stmt.set_double(6, p.inclusive_pct);
    stmt.set_double(7, p.inclusive);
    stmt.set_double(8, p.exclusive_pct);
    stmt.set_double(9, p.exclusive);
    stmt.set_double(10, p.inclusive_per_call);
    stmt.set_double(11, p.num_calls);
    stmt.set_double(12, p.num_subrs);
    stmt.execute_update();
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
  auto stmt = connection_->prepare(
      "INSERT INTO analysis_result (trial, name, kind, content)"
      " VALUES (?, ?, ?, ?)");
  stmt.set_int(1, trial_id);
  stmt.set_string(2, name);
  stmt.set_string(3, kind);
  stmt.set_string(4, content);
  stmt.execute_update();
  auto rs = connection_->execute("SELECT MAX(id) FROM analysis_result");
  rs.next();
  const std::int64_t id = rs.get_int(1);
  txn.commit();
  return id;
}

std::vector<DatabaseAPI::AnalysisResult> DatabaseAPI::list_analysis_results(
    std::int64_t trial_id) {
  auto stmt = connection_->prepare(
      "SELECT id, name, kind, content FROM analysis_result WHERE trial = ?"
      " ORDER BY id");
  stmt.set_int(1, trial_id);
  auto rs = stmt.execute_query();
  std::vector<AnalysisResult> out;
  while (rs.next()) {
    out.push_back({rs.get_int(1), rs.get_string(2), rs.get_string(3),
                   rs.get_string(4)});
  }
  return out;
}

}  // namespace perfdmf::api
