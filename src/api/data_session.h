// DataSession: the core abstract object by which interactions with
// performance data sources take place (paper §4).
//
// Two access methods are provided, mirroring the paper:
//   1. FileDataSession — the full data-management toolkit: profiles parsed
//      from flat files into memory, then browsed/filtered through this API.
//   2. DatabaseSession — database-only access that queries selectively
//      without loading entire (possibly large) trials.
// The selection of one method does not preclude the other.
//
// Filter semantics: selecting an Application scopes experiment queries,
// selecting an Experiment scopes trial queries, selecting a Trial scopes
// event/metric/data queries, and node/context/thread/metric/group
// selections scope data-point queries (atomic rows have no metric).
// Clearing a selection (kNoId / nullopt) widens the scope again.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "api/database_api.h"
#include "profile/data_model.h"
#include "profile/trial_data.h"

namespace perfdmf::api {

class DataSession {
 public:
  virtual ~DataSession() = default;

  // ----- hierarchy browsing ---------------------------------------------
  virtual std::vector<profile::Application> get_application_list() = 0;
  virtual std::vector<profile::Experiment> get_experiment_list() = 0;
  virtual std::vector<profile::Trial> get_trial_list() = 0;

  // ----- selections -------------------------------------------------------
  virtual void set_application(std::int64_t id) { application_ = id; }
  virtual void set_experiment(std::int64_t id) { experiment_ = id; }
  virtual void set_trial(std::int64_t id) { trial_ = id; }
  void clear_application() { application_.reset(); }
  void clear_experiment() { experiment_.reset(); }
  void clear_trial() { trial_.reset(); }

  void set_node(std::int32_t node) { node_ = node; }
  void set_context(std::int32_t context) { context_ = context; }
  void set_thread(std::int32_t thread) { thread_ = thread; }
  void set_metric(std::int64_t metric_id) { metric_ = metric_id; }
  void set_group(const std::string& group) { group_ = group; }
  void clear_node() { node_.reset(); }
  void clear_context() { context_.reset(); }
  void clear_thread() { thread_.reset(); }
  void clear_metric() { metric_.reset(); }
  void clear_group() { group_.reset(); }

  std::optional<std::int64_t> selected_application() const { return application_; }
  std::optional<std::int64_t> selected_experiment() const { return experiment_; }
  std::optional<std::int64_t> selected_trial() const { return trial_; }

  // ----- scoped queries (require a selected trial) ------------------------
  virtual std::vector<profile::Metric> get_metrics() = 0;
  virtual std::vector<profile::IntervalEvent> get_interval_events() = 0;
  virtual std::vector<profile::AtomicEvent> get_atomic_events() = 0;
  virtual std::vector<IntervalProfileRow> get_interval_data() = 0;
  virtual std::vector<AtomicProfileRow> get_atomic_data() = 0;

 protected:
  std::optional<std::int64_t> application_;
  std::optional<std::int64_t> experiment_;
  std::optional<std::int64_t> trial_;
  std::optional<std::int32_t> node_;
  std::optional<std::int32_t> context_;
  std::optional<std::int32_t> thread_;
  std::optional<std::int64_t> metric_;
  std::optional<std::string> group_;
};

/// In-memory session over parsed profile data (access method 1). The
/// application/experiment hierarchy is synthesized: one application and
/// one experiment wrapping the loaded trials.
class FileDataSession : public DataSession {
 public:
  FileDataSession() = default;

  /// Add a parsed trial; returns its synthetic trial id (1-based).
  std::int64_t add_trial(profile::TrialData trial);
  /// Parse a path in any supported format and add it.
  std::int64_t add_trial_from_path(const std::string& path);

  const profile::TrialData& trial_data(std::int64_t trial_id) const;

  std::vector<profile::Application> get_application_list() override;
  std::vector<profile::Experiment> get_experiment_list() override;
  std::vector<profile::Trial> get_trial_list() override;
  std::vector<profile::Metric> get_metrics() override;
  std::vector<profile::IntervalEvent> get_interval_events() override;
  std::vector<profile::AtomicEvent> get_atomic_events() override;
  std::vector<IntervalProfileRow> get_interval_data() override;
  std::vector<AtomicProfileRow> get_atomic_data() override;

 private:
  const profile::TrialData& selected() const;

  std::vector<profile::TrialData> trials_;
};

}  // namespace perfdmf::api
