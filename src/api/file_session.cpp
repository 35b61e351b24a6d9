#include "api/data_session.h"
#include "io/detect.h"
#include "util/error.h"

namespace perfdmf::api {

namespace {
/// `items` with each id set to its index: the in-memory session's ids.
template <typename Item>
std::vector<Item> numbered(std::vector<Item> items) {
  for (std::size_t i = 0; i < items.size(); ++i) {
    items[i].id = static_cast<std::int64_t>(i);
  }
  return items;
}
}  // namespace

std::int64_t FileDataSession::add_trial(profile::TrialData trial) {
  trials_.push_back(std::move(trial));
  const std::int64_t id = static_cast<std::int64_t>(trials_.size());
  trials_.back().trial().id = id;
  return id;
}

std::int64_t FileDataSession::add_trial_from_path(const std::string& path) {
  return add_trial(io::load_profile(path));
}

const profile::TrialData& FileDataSession::trial_data(std::int64_t trial_id) const {
  if (trial_id < 1 || trial_id > static_cast<std::int64_t>(trials_.size())) {
    throw InvalidArgument("no trial with id " + std::to_string(trial_id));
  }
  return trials_[static_cast<std::size_t>(trial_id - 1)];
}

const profile::TrialData& FileDataSession::selected() const {
  if (!trial_) throw InvalidArgument("no trial selected on this session");
  return trial_data(*trial_);
}

std::vector<profile::Application> FileDataSession::get_application_list() {
  profile::Application app;
  app.id = 1;
  app.name = "(files)";
  return {app};
}

std::vector<profile::Experiment> FileDataSession::get_experiment_list() {
  profile::Experiment experiment;
  experiment.id = 1;
  experiment.application_id = 1;
  experiment.name = "(files)";
  return {experiment};
}

std::vector<profile::Trial> FileDataSession::get_trial_list() {
  std::vector<profile::Trial> out;
  for (const auto& data : trials_) {
    profile::Trial trial = data.trial();
    trial.experiment_id = 1;
    out.push_back(std::move(trial));
  }
  return out;
}

std::vector<profile::Metric> FileDataSession::get_metrics() {
  return numbered(selected().metrics());
}

std::vector<profile::IntervalEvent> FileDataSession::get_interval_events() {
  return numbered(selected().events());
}

std::vector<profile::AtomicEvent> FileDataSession::get_atomic_events() {
  return numbered(selected().atomic_events());
}

std::vector<IntervalProfileRow> FileDataSession::get_interval_data() {
  const auto& data = selected();
  std::vector<IntervalProfileRow> out;
  data.for_each_interval([&](std::size_t e, std::size_t t, std::size_t m,
                             const profile::IntervalDataPoint& p) {
    const profile::ThreadId& id = data.threads()[t];
    if (node_ && id.node != *node_) return;
    if (context_ && id.context != *context_) return;
    if (thread_ && id.thread != *thread_) return;
    if (metric_ && static_cast<std::int64_t>(m) != *metric_) return;
    if (group_ && data.events()[e].group != *group_) return;
    IntervalProfileRow row;
    row.event_id = static_cast<std::int64_t>(e);
    row.event_name = data.events()[e].name;
    row.thread = id;
    row.metric_id = static_cast<std::int64_t>(m);
    row.data = p;
    out.push_back(std::move(row));
  });
  return out;
}

std::vector<AtomicProfileRow> FileDataSession::get_atomic_data() {
  const auto& data = selected();
  std::vector<AtomicProfileRow> out;
  data.for_each_atomic([&](std::size_t a, std::size_t t,
                           const profile::AtomicDataPoint& p) {
    const profile::ThreadId& id = data.threads()[t];
    if (node_ && id.node != *node_) return;
    if (context_ && id.context != *context_) return;
    if (thread_ && id.thread != *thread_) return;
    if (group_ && data.atomic_events()[a].group != *group_) return;
    AtomicProfileRow row;
    row.event_id = static_cast<std::int64_t>(a);
    row.event_name = data.atomic_events()[a].name;
    row.thread = id;
    row.data = p;
    out.push_back(std::move(row));
  });
  return out;
}

}  // namespace perfdmf::api
