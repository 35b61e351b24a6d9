#include "api/schema_bootstrap.h"

namespace perfdmf::api {

namespace {
using profile::AtomicDataPoint;
using profile::IntervalDataPoint;

const ValueColumn<IntervalDataPoint> kIntervalColumns[] = {
    {"inclusive_percentage", &IntervalDataPoint::inclusive_pct},
    {"inclusive", &IntervalDataPoint::inclusive},
    {"exclusive_percentage", &IntervalDataPoint::exclusive_pct},
    {"exclusive", &IntervalDataPoint::exclusive},
    {"inclusive_per_call", &IntervalDataPoint::inclusive_per_call},
    {"num_calls", &IntervalDataPoint::num_calls},
    {"num_subrs", &IntervalDataPoint::num_subrs},
};

const ValueColumn<AtomicDataPoint> kAtomicColumns[] = {
    {"sample_count", &AtomicDataPoint::sample_count},
    {"maximum_value", &AtomicDataPoint::maximum},
    {"minimum_value", &AtomicDataPoint::minimum},
    {"mean_value", &AtomicDataPoint::mean},
    {"standard_deviation", &AtomicDataPoint::std_dev},
};
}  // namespace

const std::span<const ValueColumn<IntervalDataPoint>> kIntervalValueColumns =
    kIntervalColumns;
const std::span<const ValueColumn<AtomicDataPoint>> kAtomicValueColumns =
    kAtomicColumns;

void bootstrap_schema(sqldb::Connection& connection) {
  const std::string event_columns =
      " (id INTEGER PRIMARY KEY, trial INTEGER NOT NULL, name TEXT NOT NULL,"
      " group_name TEXT, FOREIGN KEY (trial) REFERENCES trial (id))";
  const std::string interval_values =
      " " + join_columns(kIntervalValueColumns, "", " REAL") + ",";
  const std::string interval_keys =
      " FOREIGN KEY (interval_event) REFERENCES interval_event (id),"
      " FOREIGN KEY (metric) REFERENCES metric (id))";
  const std::string summary_columns =
      " (interval_event INTEGER NOT NULL, metric INTEGER NOT NULL," +
      interval_values + interval_keys;
  const std::string ddl[] = {
      // ---- experiment hierarchy (flexible: extra columns may be added) ----
      "CREATE TABLE IF NOT EXISTS application ("
      " id INTEGER PRIMARY KEY,"
      " name TEXT NOT NULL,"
      " version TEXT,"
      " description TEXT,"
      " language TEXT)",

      "CREATE TABLE IF NOT EXISTS experiment ("
      " id INTEGER PRIMARY KEY,"
      " application INTEGER NOT NULL,"
      " name TEXT NOT NULL,"
      " system_info TEXT,"
      " compiler_info TEXT,"
      " configuration_info TEXT,"
      " FOREIGN KEY (application) REFERENCES application (id))",

      "CREATE TABLE IF NOT EXISTS trial ("
      " id INTEGER PRIMARY KEY,"
      " experiment INTEGER NOT NULL,"
      " name TEXT NOT NULL,"
      " date TEXT,"
      " problem_definition TEXT,"
      " node_count INTEGER,"
      " contexts_per_node INTEGER,"
      " threads_per_context INTEGER,"
      " FOREIGN KEY (experiment) REFERENCES experiment (id))",

      // ---- measurement dimension ----
      "CREATE TABLE IF NOT EXISTS metric ("
      " id INTEGER PRIMARY KEY,"
      " trial INTEGER NOT NULL,"
      " name TEXT NOT NULL,"
      " derived INTEGER NOT NULL DEFAULT 0,"
      " FOREIGN KEY (trial) REFERENCES trial (id))",

      // ---- interval (timer) data ----
      "CREATE TABLE IF NOT EXISTS interval_event" + event_columns,

      "CREATE TABLE IF NOT EXISTS interval_location_profile ("
      " interval_event INTEGER NOT NULL,"
      " node INTEGER NOT NULL,"
      " context INTEGER NOT NULL,"
      " thread INTEGER NOT NULL,"
      " metric INTEGER NOT NULL," +
          interval_values + interval_keys,

      "CREATE TABLE IF NOT EXISTS interval_total_summary" + summary_columns,

      "CREATE TABLE IF NOT EXISTS interval_mean_summary" + summary_columns,

      // ---- atomic (user event) data ----
      "CREATE TABLE IF NOT EXISTS atomic_event" + event_columns,

      "CREATE TABLE IF NOT EXISTS atomic_location_profile ("
      " atomic_event INTEGER NOT NULL,"
      " node INTEGER NOT NULL,"
      " context INTEGER NOT NULL,"
      " thread INTEGER NOT NULL, " +
          join_columns(kAtomicValueColumns, "", " REAL") +
          ", FOREIGN KEY (atomic_event) REFERENCES atomic_event (id))",

      // ---- analysis results (PerfExplorer extension, paper §5.3) ----
      "CREATE TABLE IF NOT EXISTS analysis_result ("
      " id INTEGER PRIMARY KEY,"
      " trial INTEGER NOT NULL,"
      " name TEXT NOT NULL,"
      " kind TEXT NOT NULL,"
      " content TEXT,"
      " FOREIGN KEY (trial) REFERENCES trial (id))",

      // ---- secondary indexes beyond the automatic PK/FK ones ----
      "CREATE INDEX idx_ilp_node ON interval_location_profile (node)",
  };
  for (const auto& sql : ddl) {
    connection.execute_update(sql);
  }
}

bool schema_present(sqldb::Connection& connection) {
  auto tables = connection.get_meta_data().get_tables();
  bool application = false;
  bool trial = false;
  bool profile_table = false;
  for (const auto& name : tables) {
    if (name == "application") application = true;
    if (name == "trial") trial = true;
    if (name == "interval_location_profile") profile_table = true;
  }
  return application && trial && profile_table;
}

}  // namespace perfdmf::api
