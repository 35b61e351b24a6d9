// DatabaseAPI: PerfDMF's query-and-management layer over the profile
// database (paper §4) — a programmatic, non-SQL interface that analysis
// tools use instead of hand-written queries. Analysis code that wants raw
// SQL can still use the Connection directly; the two interfaces coexist.
//
// Flexible schema: save_* writes any model `fields` whose column exists
// on the table (optionally ALTERing missing columns in), and load_*
// returns every non-core column as a field — both via DatabaseMetaData,
// never via hard-coded column lists.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "profile/data_model.h"
#include "profile/summary.h"
#include "profile/trial_data.h"
#include "sqldb/connection.h"

namespace perfdmf::api {

/// Row shape returned by interval-data queries.
struct IntervalProfileRow {
  std::int64_t event_id = profile::kNoId;
  std::string event_name;
  profile::ThreadId thread;
  std::int64_t metric_id = profile::kNoId;
  profile::IntervalDataPoint data;
};

struct AtomicProfileRow {
  std::int64_t event_id = profile::kNoId;
  std::string event_name;
  profile::ThreadId thread;
  profile::AtomicDataPoint data;
};

/// SQL-style aggregate summary of one column across a filtered query
/// (paper §5.2: "standard SQL aggregate operations such as minimum,
/// maximum, mean, standard deviation").
struct AggregateSummary {
  std::size_t count = 0;
  double minimum = 0.0;
  double maximum = 0.0;
  double mean = 0.0;
  double std_dev = 0.0;
};

class DatabaseAPI {
 public:
  /// Bootstraps the schema when missing.
  explicit DatabaseAPI(std::shared_ptr<sqldb::Connection> connection);

  sqldb::Connection& connection() { return *connection_; }
  /// The shared connection handle (for components spawning their own
  /// lightweight connections over the same database).
  const std::shared_ptr<sqldb::Connection>& connection_ptr() const {
    return connection_;
  }

  // ----- application / experiment / trial management -------------------
  std::vector<profile::Application> list_applications();
  std::optional<profile::Application> get_application(std::int64_t id);
  std::optional<profile::Application> find_application(const std::string& name);
  /// Insert (id == kNoId) or update; assigns app.id. When `extend_schema`
  /// is set, unknown fields become new TEXT columns (ALTER TABLE).
  void save_application(profile::Application& app, bool extend_schema = false);

  std::vector<profile::Experiment> list_experiments(std::int64_t application_id);
  std::optional<profile::Experiment> get_experiment(std::int64_t id);
  void save_experiment(profile::Experiment& experiment, bool extend_schema = false);

  std::vector<profile::Trial> list_trials(std::int64_t experiment_id);
  std::optional<profile::Trial> get_trial(std::int64_t id);
  void save_trial(profile::Trial& trial, bool extend_schema = false);
  /// Delete a trial with everything under it (profiles, events, metrics).
  void delete_trial(std::int64_t trial_id);

  // ----- bulk trial upload / load --------------------------------------
  /// Store a full parsed profile under `experiment_id`. Writes the trial
  /// row, metrics, events, every location profile, and the total/mean
  /// summary tables, inside one transaction. Returns the new trial id.
  /// With `extend_schema`, trial metadata fields (e.g. TAU's <metadata>
  /// attributes) become columns on the TRIAL table as needed.
  std::int64_t upload_trial(const profile::TrialData& data,
                            std::int64_t experiment_id,
                            bool extend_schema = false);

  /// Load a complete trial back into the in-memory representation.
  profile::TrialData load_trial(std::int64_t trial_id);

  // ----- selective queries (database-only access method, paper §4) ------
  std::vector<profile::Metric> get_metrics(std::int64_t trial_id);
  std::vector<profile::IntervalEvent> get_interval_events(std::int64_t trial_id);
  std::vector<profile::AtomicEvent> get_atomic_events(std::int64_t trial_id);

  /// Filter for data-point queries; unset members match everything.
  struct DataFilter {
    std::optional<std::int64_t> metric_id;
    std::optional<std::int32_t> node;
    std::optional<std::int32_t> context;
    std::optional<std::int32_t> thread;
    std::optional<std::int64_t> event_id;
    /// Restrict to events of one group (e.g. "MPI", "computation").
    std::optional<std::string> event_group;
  };
  std::vector<IntervalProfileRow> get_interval_data(std::int64_t trial_id,
                                                    const DataFilter& filter = {});
  std::vector<AtomicProfileRow> get_atomic_data(std::int64_t trial_id,
                                                const DataFilter& filter = {});

  /// Aggregate a profile column ("inclusive", "exclusive", "num_calls",
  /// ...) of one event over all of its rows that match every member
  /// `filter` sets.
  AggregateSummary aggregate_interval_column(std::int64_t trial_id,
                                             std::int64_t event_id,
                                             const std::string& column,
                                             const DataFilter& filter = {});

  // ----- derived metrics (paper §3.2 / §4) -------------------------------
  /// Append a new (derived) metric's data points to an existing trial.
  /// `data` must contain the metric `metric_name`; event names are matched
  /// against the trial's stored events. Returns the new metric id.
  std::int64_t save_derived_metric(std::int64_t trial_id,
                                   const profile::TrialData& data,
                                   const std::string& metric_name);

  // ----- analysis results (PerfExplorer extension, paper §5.3) ----------
  std::int64_t save_analysis_result(std::int64_t trial_id, const std::string& name,
                                    const std::string& kind,
                                    const std::string& content);
  struct AnalysisResult {
    std::int64_t id;
    std::string name;
    std::string kind;
    std::string content;
  };
  std::vector<AnalysisResult> list_analysis_results(std::int64_t trial_id);

 private:
  std::shared_ptr<sqldb::Connection> connection_;
};

}  // namespace perfdmf::api
