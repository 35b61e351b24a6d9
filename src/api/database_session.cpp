#include "api/database_session.h"

#include "util/error.h"

namespace perfdmf::api {

DatabaseSession::DatabaseSession(std::shared_ptr<sqldb::Connection> connection)
    : api_(std::move(connection)) {}

DatabaseSession::DatabaseSession()
    : api_(std::make_shared<sqldb::Connection>()) {}

DatabaseSession::DatabaseSession(const std::filesystem::path& directory)
    : api_(std::make_shared<sqldb::Connection>(directory)) {}

DatabaseSession DatabaseSession::fork() const {
  DatabaseSession out(std::make_shared<sqldb::Connection>(
      api_.connection_ptr()->database_ptr()));
  static_cast<DataSession&>(out) = *this;  // every selection
  return out;
}

std::int64_t DatabaseSession::require_trial() const {
  if (!trial_) throw InvalidArgument("no trial selected on this session");
  return *trial_;
}

DatabaseAPI::DataFilter DatabaseSession::current_filter() const {
  DatabaseAPI::DataFilter filter;
  filter.node = node_;
  filter.context = context_;
  filter.thread = thread_;
  filter.metric_id = metric_;
  filter.event_group = group_;
  return filter;
}

std::vector<profile::Application> DatabaseSession::get_application_list() {
  return api_.list_applications();
}

std::vector<profile::Experiment> DatabaseSession::get_experiment_list() {
  if (application_) return api_.list_experiments(*application_);
  // Unscoped: every experiment of every application.
  std::vector<profile::Experiment> out;
  for (const auto& app : api_.list_applications()) {
    auto experiments = api_.list_experiments(app.id);
    out.insert(out.end(), experiments.begin(), experiments.end());
  }
  return out;
}

std::vector<profile::Trial> DatabaseSession::get_trial_list() {
  if (experiment_) return api_.list_trials(*experiment_);
  std::vector<profile::Trial> out;
  for (const auto& experiment : get_experiment_list()) {
    auto trials = api_.list_trials(experiment.id);
    out.insert(out.end(), trials.begin(), trials.end());
  }
  return out;
}

std::vector<profile::Metric> DatabaseSession::get_metrics() {
  return api_.get_metrics(require_trial());
}

std::vector<profile::IntervalEvent> DatabaseSession::get_interval_events() {
  return api_.get_interval_events(require_trial());
}

std::vector<profile::AtomicEvent> DatabaseSession::get_atomic_events() {
  return api_.get_atomic_events(require_trial());
}

std::vector<IntervalProfileRow> DatabaseSession::get_interval_data() {
  return api_.get_interval_data(require_trial(), current_filter());
}

std::vector<AtomicProfileRow> DatabaseSession::get_atomic_data() {
  return api_.get_atomic_data(require_trial(), current_filter());
}

std::int64_t DatabaseSession::save_trial(const profile::TrialData& data,
                                         const std::string& application_name,
                                         const std::string& experiment_name,
                                         bool extend_schema) {
  auto app = api_.find_application(application_name);
  if (!app) {
    profile::Application fresh;
    fresh.name = application_name;
    api_.save_application(fresh);
    app = fresh;
  }
  std::optional<profile::Experiment> experiment;
  for (const auto& e : api_.list_experiments(app->id)) {
    if (e.name == experiment_name) {
      experiment = e;
      break;
    }
  }
  if (!experiment) {
    profile::Experiment fresh;
    fresh.application_id = app->id;
    fresh.name = experiment_name;
    api_.save_experiment(fresh);
    experiment = fresh;
  }
  const std::int64_t trial_id =
      api_.upload_trial(data, experiment->id, extend_schema);
  set_application(app->id);
  set_experiment(experiment->id);
  set_trial(trial_id);
  return trial_id;
}

profile::TrialData DatabaseSession::load_selected_trial() {
  return api_.load_trial(require_trial());
}

}  // namespace perfdmf::api
