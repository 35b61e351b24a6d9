// Tests for the PerfDMF API layer: schema bootstrap, application /
// experiment / trial management, flexible schema, bulk upload/load,
// selective queries, derived metrics, analysis results.
#include <gtest/gtest.h>

#include <cerrno>

#include "api/database_api.h"
#include "api/schema_bootstrap.h"
#include "io/synth.h"
#include "profile/derived.h"
#include "sqldb/database.h"
#include "sqldb/table.h"
#include "sqldb/wal.h"
#include "telemetry/metrics.h"
#include "util/error.h"
#include "util/failpoint.h"
#include "util/file.h"

using namespace perfdmf;
using namespace perfdmf::api;

namespace {

class ApiTest : public ::testing::Test {
 protected:
  ApiTest()
      : connection(std::make_shared<sqldb::Connection>()), api(connection) {}

  std::int64_t make_app_and_experiment() {
    profile::Application app;
    app.name = "sppm";
    api.save_application(app);
    profile::Experiment experiment;
    experiment.application_id = app.id;
    experiment.name = "frost runs";
    api.save_experiment(experiment);
    return experiment.id;
  }

  std::shared_ptr<sqldb::Connection> connection;
  DatabaseAPI api;
};

TEST_F(ApiTest, BootstrapCreatesAllTables) {
  EXPECT_TRUE(schema_present(*connection));
  auto tables = connection->get_meta_data().get_tables();
  // 11 schema tables + 6 virtual system tables.
  EXPECT_EQ(tables.size(), 17u);
  // Idempotent.
  EXPECT_NO_THROW(bootstrap_schema(*connection));
}

TEST_F(ApiTest, SaveAndListApplications) {
  profile::Application app;
  app.name = "miranda";
  app.fields["version"] = "1.0";
  app.fields["description"] = "hydro";
  api.save_application(app);
  EXPECT_GT(app.id, 0);

  auto apps = api.list_applications();
  ASSERT_EQ(apps.size(), 1u);
  EXPECT_EQ(apps[0].name, "miranda");
  EXPECT_EQ(apps[0].fields.at("version"), "1.0");
  EXPECT_EQ(apps[0].fields.at("description"), "hydro");
}

TEST_F(ApiTest, UpdateExistingApplication) {
  profile::Application app;
  app.name = "x";
  api.save_application(app);
  const std::int64_t id = app.id;
  app.name = "y";
  app.fields["version"] = "2";
  api.save_application(app);
  EXPECT_EQ(app.id, id);
  auto loaded = api.get_application(id);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->name, "y");
  EXPECT_EQ(loaded->fields.at("version"), "2");
}

TEST_F(ApiTest, FindApplicationByName) {
  profile::Application app;
  app.name = "target";
  api.save_application(app);
  EXPECT_TRUE(api.find_application("target").has_value());
  EXPECT_FALSE(api.find_application("absent").has_value());
  EXPECT_FALSE(api.get_application(9999).has_value());
}

TEST_F(ApiTest, FlexibleSchemaUnknownFieldIgnoredWithoutExtend) {
  profile::Application app;
  app.name = "a";
  app.fields["funding_agency"] = "DOE";  // no such column
  api.save_application(app, /*extend_schema=*/false);
  auto loaded = api.get_application(app.id);
  EXPECT_EQ(loaded->fields.count("funding_agency"), 0u);
}

TEST_F(ApiTest, FlexibleSchemaExtendAddsColumn) {
  profile::Application app;
  app.name = "a";
  app.fields["funding_agency"] = "DOE";
  api.save_application(app, /*extend_schema=*/true);
  auto loaded = api.get_application(app.id);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->fields.at("funding_agency"), "DOE");
  // The column now exists for everyone (getMetaData discovery).
  auto columns = connection->get_meta_data().get_columns("application");
  bool found = false;
  for (const auto& c : columns) {
    if (c.name == "funding_agency") found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(ApiTest, FlexibleSchemaDroppedColumnDisappearsFromModel) {
  profile::Application app;
  app.name = "a";
  app.fields["version"] = "1";
  api.save_application(app);
  connection->execute_update("ALTER TABLE application DROP COLUMN version");
  auto loaded = api.get_application(app.id);
  EXPECT_EQ(loaded->fields.count("version"), 0u);
  // Saving again with the stale field must not fail (field is skipped).
  EXPECT_NO_THROW(api.save_application(*loaded));
}

TEST_F(ApiTest, ExperimentRequiresApplication) {
  profile::Experiment experiment;
  experiment.name = "e";
  EXPECT_THROW(api.save_experiment(experiment), InvalidArgument);
  experiment.application_id = 12345;  // dangling
  EXPECT_THROW(api.save_experiment(experiment), DbError);  // FK violation
}

TEST_F(ApiTest, ExperimentAndTrialHierarchy) {
  const std::int64_t experiment_id = make_app_and_experiment();
  profile::Trial trial;
  trial.experiment_id = experiment_id;
  trial.name = "64p";
  trial.node_count = 64;
  trial.contexts_per_node = 1;
  trial.threads_per_context = 1;
  trial.fields["problem_definition"] = "shock tube";
  api.save_trial(trial);

  auto trials = api.list_trials(experiment_id);
  ASSERT_EQ(trials.size(), 1u);
  EXPECT_EQ(trials[0].node_count, 64);
  EXPECT_EQ(trials[0].fields.at("problem_definition"), "shock tube");
}

TEST_F(ApiTest, UploadTrialStoresEverything) {
  const std::int64_t experiment_id = make_app_and_experiment();
  io::synth::TrialSpec spec;
  spec.nodes = 3;
  spec.event_count = 5;
  spec.extra_metrics = {"PAPI_FP_OPS"};
  spec.atomic_event_count = 1;
  auto data = io::synth::generate_trial(spec);
  const std::int64_t trial_id = api.upload_trial(data, experiment_id);
  EXPECT_GT(trial_id, 0);

  EXPECT_EQ(api.get_metrics(trial_id).size(), 2u);
  EXPECT_EQ(api.get_interval_events(trial_id).size(), 5u);
  EXPECT_EQ(api.get_atomic_events(trial_id).size(), 1u);
  EXPECT_EQ(api.get_interval_data(trial_id).size(), 5u * 3u * 2u);
  EXPECT_EQ(api.get_atomic_data(trial_id).size(), 3u);

  // Summary tables populated: 5 events x 2 metrics rows each.
  auto rs = connection->execute(
      "SELECT COUNT(*) FROM interval_total_summary");
  rs.next();
  EXPECT_EQ(rs.get_int(1), 10);
  auto rs2 = connection->execute("SELECT COUNT(*) FROM interval_mean_summary");
  rs2.next();
  EXPECT_EQ(rs2.get_int(1), 10);
}

TEST_F(ApiTest, UploadThenLoadRoundTrips) {
  const std::int64_t experiment_id = make_app_and_experiment();
  io::synth::TrialSpec spec;
  spec.nodes = 2;
  spec.event_count = 4;
  spec.atomic_event_count = 2;
  auto original = io::synth::generate_trial(spec);
  const std::int64_t trial_id = api.upload_trial(original, experiment_id);

  auto loaded = api.load_trial(trial_id);
  EXPECT_EQ(loaded.trial().id, trial_id);
  EXPECT_EQ(loaded.events().size(), original.events().size());
  EXPECT_EQ(loaded.threads().size(), original.threads().size());
  EXPECT_EQ(loaded.interval_point_count(), original.interval_point_count());
  EXPECT_EQ(loaded.atomic_point_count(), original.atomic_point_count());

  original.for_each_interval([&](std::size_t e, std::size_t t, std::size_t m,
                                 const profile::IntervalDataPoint& p) {
    const auto le = loaded.find_event(original.events()[e].name);
    const auto lm = loaded.find_metric(original.metrics()[m].name);
    const auto lt = loaded.find_thread(original.threads()[t]);
    ASSERT_TRUE(le && lm && lt);
    const auto* q = loaded.interval_data(*le, *lt, *lm);
    ASSERT_NE(q, nullptr);
    EXPECT_DOUBLE_EQ(q->inclusive, p.inclusive);
    EXPECT_DOUBLE_EQ(q->exclusive, p.exclusive);
    EXPECT_DOUBLE_EQ(q->num_calls, p.num_calls);
  });
}

TEST_F(ApiTest, LoadMissingTrialThrows) {
  EXPECT_THROW(api.load_trial(777), DbError);
}

TEST_F(ApiTest, SelectiveQueriesWithFilters) {
  const std::int64_t experiment_id = make_app_and_experiment();
  io::synth::TrialSpec spec;
  spec.nodes = 4;
  spec.event_count = 3;
  auto data = io::synth::generate_trial(spec);
  const std::int64_t trial_id = api.upload_trial(data, experiment_id);

  DatabaseAPI::DataFilter filter;
  filter.node = 2;
  auto rows = api.get_interval_data(trial_id, filter);
  EXPECT_EQ(rows.size(), 3u);  // 3 events x 1 thread x 1 metric
  for (const auto& row : rows) EXPECT_EQ(row.thread.node, 2);

  auto events = api.get_interval_events(trial_id);
  filter.event_id = events[1].id;
  rows = api.get_interval_data(trial_id, filter);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].event_name, events[1].name);

  auto metrics = api.get_metrics(trial_id);
  DatabaseAPI::DataFilter metric_filter;
  metric_filter.metric_id = metrics[0].id;
  EXPECT_EQ(api.get_interval_data(trial_id, metric_filter).size(), 12u);
}

TEST_F(ApiTest, AggregateColumnMatchesManualComputation) {
  const std::int64_t experiment_id = make_app_and_experiment();
  io::synth::TrialSpec spec;
  spec.nodes = 8;
  spec.event_count = 2;
  auto data = io::synth::generate_trial(spec);
  const std::int64_t trial_id = api.upload_trial(data, experiment_id);
  auto events = api.get_interval_events(trial_id);

  auto summary =
      api.aggregate_interval_column(trial_id, events[0].id, "exclusive");
  EXPECT_EQ(summary.count, 8u);
  // Manual check against raw rows.
  DatabaseAPI::DataFilter filter;
  filter.event_id = events[0].id;
  auto rows = api.get_interval_data(trial_id, filter);
  double manual_min = rows[0].data.exclusive;
  double manual_max = rows[0].data.exclusive;
  double sum = 0.0;
  for (const auto& row : rows) {
    manual_min = std::min(manual_min, row.data.exclusive);
    manual_max = std::max(manual_max, row.data.exclusive);
    sum += row.data.exclusive;
  }
  EXPECT_DOUBLE_EQ(summary.minimum, manual_min);
  EXPECT_DOUBLE_EQ(summary.maximum, manual_max);
  EXPECT_NEAR(summary.mean, sum / 8.0, 1e-9);
  EXPECT_GT(summary.std_dev, 0.0);
}

TEST_F(ApiTest, AggregateRejectsArbitraryColumn) {
  EXPECT_THROW(api.aggregate_interval_column(1, 1, "name; DROP TABLE trial"),
               InvalidArgument);
}

// Every DataFilter member narrows the aggregate exactly as it narrows
// get_interval_data: a thread filter on a multi-thread trial counts that
// thread's rows, not every thread's.
TEST_F(ApiTest, AggregateHonoursEveryFilterMember) {
  const std::int64_t experiment_id = make_app_and_experiment();
  io::synth::TrialSpec spec;
  spec.nodes = 2;
  spec.contexts_per_node = 2;
  spec.threads_per_context = 3;
  spec.event_count = 4;
  spec.extra_metrics = {"PAPI_FP_OPS"};
  const std::int64_t trial_id =
      api.upload_trial(io::synth::generate_trial(spec), experiment_id);
  const auto events = api.get_interval_events(trial_id);
  const auto metrics = api.get_metrics(trial_id);

  auto aggregate_count = [&](DatabaseAPI::DataFilter filter) {
    const auto summary = api.aggregate_interval_column(
        trial_id, events[1].id, "exclusive", filter);
    filter.event_id = events[1].id;
    EXPECT_EQ(summary.count, api.get_interval_data(trial_id, filter).size());
    return summary.count;
  };
  DatabaseAPI::DataFilter filter;
  filter.metric_id = metrics[0].id;
  EXPECT_EQ(aggregate_count(filter), 12u);  // 2 nodes x 2 contexts x 3 threads
  filter.thread = 1;
  EXPECT_EQ(aggregate_count(filter), 4u);
  filter.context = 0;
  EXPECT_EQ(aggregate_count(filter), 2u);
  filter.node = 1;
  EXPECT_EQ(aggregate_count(filter), 1u);
  filter.event_group = events[1].group;
  EXPECT_EQ(aggregate_count(filter), 1u);
  filter.event_group = "no-such-group";
  EXPECT_EQ(aggregate_count(filter), 0u);
}

TEST_F(ApiTest, AtomicDataHonoursEventGroup) {
  const std::int64_t experiment_id = make_app_and_experiment();
  io::synth::TrialSpec spec;
  spec.nodes = 3;
  spec.atomic_event_count = 2;
  const std::int64_t trial_id =
      api.upload_trial(io::synth::generate_trial(spec), experiment_id);
  DatabaseAPI::DataFilter filter;
  filter.event_group = api.get_atomic_events(trial_id)[0].group;
  EXPECT_EQ(api.get_atomic_data(trial_id, filter).size(), 6u);
  filter.event_group = "no-such-group";
  EXPECT_TRUE(api.get_atomic_data(trial_id, filter).empty());
}

TEST_F(ApiTest, SaveDerivedMetricAppendsToTrial) {
  const std::int64_t experiment_id = make_app_and_experiment();
  io::synth::TrialSpec spec;
  spec.nodes = 2;
  spec.event_count = 3;
  spec.extra_metrics = {"PAPI_FP_OPS"};
  auto data = io::synth::generate_trial(spec);
  const std::int64_t trial_id = api.upload_trial(data, experiment_id);

  profile::derive_ratio(data, "MFLOPS", "PAPI_FP_OPS", "TIME");
  const std::int64_t metric_id =
      api.save_derived_metric(trial_id, data, "MFLOPS");
  EXPECT_GT(metric_id, 0);

  auto metrics = api.get_metrics(trial_id);
  ASSERT_EQ(metrics.size(), 3u);
  EXPECT_EQ(metrics[2].name, "MFLOPS");
  EXPECT_TRUE(metrics[2].derived);

  DatabaseAPI::DataFilter filter;
  filter.metric_id = metric_id;
  EXPECT_EQ(api.get_interval_data(trial_id, filter).size(), 6u);

  // Reloading the full trial carries the derived metric.
  auto reloaded = api.load_trial(trial_id);
  EXPECT_TRUE(reloaded.find_metric("MFLOPS").has_value());
}

TEST_F(ApiTest, SaveDerivedMetricUnknownNameThrows) {
  const std::int64_t experiment_id = make_app_and_experiment();
  io::synth::TrialSpec spec;
  auto data = io::synth::generate_trial(spec);
  const std::int64_t trial_id = api.upload_trial(data, experiment_id);
  EXPECT_THROW(api.save_derived_metric(trial_id, data, "ABSENT"),
               InvalidArgument);
}

TEST_F(ApiTest, DeleteTrialRemovesEverything) {
  const std::int64_t experiment_id = make_app_and_experiment();
  io::synth::TrialSpec spec;
  spec.nodes = 2;
  spec.event_count = 3;
  spec.atomic_event_count = 1;
  auto data = io::synth::generate_trial(spec);
  const std::int64_t trial_id = api.upload_trial(data, experiment_id);
  api.save_analysis_result(trial_id, "clusters", "kmeans", "{}");

  api.delete_trial(trial_id);
  EXPECT_FALSE(api.get_trial(trial_id).has_value());
  for (const char* table :
       {"metric", "interval_event", "interval_location_profile",
        "interval_total_summary", "interval_mean_summary", "atomic_event",
        "atomic_location_profile", "analysis_result"}) {
    auto rs = connection->execute(std::string("SELECT COUNT(*) FROM ") + table);
    rs.next();
    EXPECT_EQ(rs.get_int(1), 0) << table;
  }
}

TEST_F(ApiTest, AnalysisResultsRoundTrip) {
  const std::int64_t experiment_id = make_app_and_experiment();
  io::synth::TrialSpec spec;
  auto data = io::synth::generate_trial(spec);
  const std::int64_t trial_id = api.upload_trial(data, experiment_id);

  api.save_analysis_result(trial_id, "cluster run 1", "kmeans",
                           "k=3 inertia=12.5");
  api.save_analysis_result(trial_id, "correlation", "pearson", "matrix...");
  auto results = api.list_analysis_results(trial_id);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].name, "cluster run 1");
  EXPECT_EQ(results[1].kind, "pearson");
}

TEST_F(ApiTest, PersistentArchiveSurvivesReopen) {
  util::ScopedTempDir dir;
  const auto db_dir = dir.path() / "archive";
  std::int64_t trial_id = 0;
  std::size_t expected_points = 0;
  {
    auto conn = std::make_shared<sqldb::Connection>(db_dir);
    DatabaseAPI file_api(conn);
    profile::Application app;
    app.name = "persisted";
    file_api.save_application(app);
    profile::Experiment experiment;
    experiment.application_id = app.id;
    experiment.name = "e";
    file_api.save_experiment(experiment);
    io::synth::TrialSpec spec;
    spec.nodes = 2;
    spec.event_count = 4;
    auto data = io::synth::generate_trial(spec);
    expected_points = data.interval_point_count();
    trial_id = file_api.upload_trial(data, experiment.id);
  }
  {
    auto conn = std::make_shared<sqldb::Connection>(db_dir);
    DatabaseAPI file_api(conn);
    auto apps = file_api.list_applications();
    ASSERT_EQ(apps.size(), 1u);
    EXPECT_EQ(apps[0].name, "persisted");
    auto loaded = file_api.load_trial(trial_id);
    EXPECT_EQ(loaded.interval_point_count(), expected_points);
  }
}

}  // namespace

namespace {

TEST(ApiPersistence, FlexibleSchemaColumnsSurviveReopen) {
  util::ScopedTempDir dir;
  const auto db_dir = dir.path() / "archive";
  {
    auto conn = std::make_shared<sqldb::Connection>(db_dir);
    DatabaseAPI api(conn);
    profile::Application app;
    app.name = "app";
    app.fields["funding_agency"] = "DOE";
    api.save_application(app, /*extend_schema=*/true);
  }
  {
    auto conn = std::make_shared<sqldb::Connection>(db_dir);
    DatabaseAPI api(conn);
    auto apps = api.list_applications();
    ASSERT_EQ(apps.size(), 1u);
    EXPECT_EQ(apps[0].fields.at("funding_agency"), "DOE");
    // The reopened schema still accepts the extended column on save.
    apps[0].fields["funding_agency"] = "NSF";
    EXPECT_NO_THROW(api.save_application(apps[0]));
    EXPECT_EQ(api.get_application(apps[0].id)->fields.at("funding_agency"),
              "NSF");
  }
}

// TAU-style metadata keys hold spaces; the columns they become must
// survive a snapshot and come back as fields.
TEST(ApiPersistence, MetadataKeysWithSpacesSurviveReopen) {
  util::ScopedTempDir dir;
  const auto db_dir = dir.path() / "archive";
  std::int64_t trial_id = profile::kNoId;
  {
    auto conn = std::make_shared<sqldb::Connection>(db_dir);
    DatabaseAPI api(conn);
    profile::Application app;
    app.name = "app";
    api.save_application(app);
    profile::Experiment experiment;
    experiment.application_id = app.id;
    experiment.name = "exp";
    api.save_experiment(experiment);
    profile::TrialData trial;
    trial.trial().name = "run";
    trial.trial().fields["CPU MHz"] = "2394.454";
    trial.intern_metric("TIME");
    trial_id = api.upload_trial(trial, experiment.id, /*extend_schema=*/true);
  }
  auto conn = std::make_shared<sqldb::Connection>(db_dir);
  EXPECT_TRUE(conn->recovery_report().clean());
  DatabaseAPI api(conn);
  EXPECT_EQ(api.load_trial(trial_id).trial().fields.at("CPU MHz"), "2394.454");
}

}  // namespace

namespace {

TEST(ApiUpload, ExtendSchemaStoresTrialMetadataFields) {
  auto connection = std::make_shared<sqldb::Connection>();
  DatabaseAPI api(connection);
  profile::Application app;
  app.name = "a";
  api.save_application(app);
  profile::Experiment experiment;
  experiment.application_id = app.id;
  experiment.name = "e";
  api.save_experiment(experiment);

  io::synth::TrialSpec spec;
  auto data = io::synth::generate_trial(spec);
  data.trial().fields["OS"] = "Linux";
  data.trial().fields["Hostname"] = "bgl0042";

  // Without extension the fields are dropped...
  const std::int64_t plain = api.upload_trial(data, experiment.id);
  EXPECT_EQ(api.get_trial(plain)->fields.count("OS"), 0u);
  // ...with extension they become flexible-schema columns.
  const std::int64_t extended =
      api.upload_trial(data, experiment.id, /*extend_schema=*/true);
  auto stored = api.get_trial(extended);
  EXPECT_EQ(stored->fields.at("OS"), "Linux");
  EXPECT_EQ(stored->fields.at("Hostname"), "bgl0042");
}

}  // namespace

namespace {

namespace fp = util::failpoint;

/// An archive holding one application and experiment.
struct Archive {
  explicit Archive(std::shared_ptr<sqldb::Connection> c)
      : connection(std::move(c)), api(connection) {
    profile::Application app;
    app.name = "app";
    api.save_application(app);
    profile::Experiment experiment;
    experiment.application_id = app.id;
    experiment.name = "e";
    api.save_experiment(experiment);
    experiment_id = experiment.id;
  }

  std::uint64_t wal_records() {
    return connection->database().wal()->written_seq();
  }

  std::shared_ptr<sqldb::Connection> connection;
  DatabaseAPI api;
  std::int64_t experiment_id = 0;
};

profile::TrialData small_trial() {
  io::synth::TrialSpec spec;
  spec.nodes = 2;
  spec.event_count = 3;
  spec.extra_metrics = {"PAPI_FP_OPS"};
  spec.atomic_event_count = 1;
  return io::synth::generate_trial(spec);
}

class ApiFailedCommit : public ::testing::Test {
 protected:
  void TearDown() override { fp::clear_all(); }
  util::ScopedTempDir dir;
};

// Whichever of upload_trial's commits fails, the IoError reaches the
// caller and no trial row is left behind, in memory or on disk.
TEST_F(ApiFailedCommit, UploadTrialLeavesNoTrialWhicheverCommitFails) {
  const auto data = small_trial();
  std::uint64_t commits = 0;  // WAL records one upload writes
  {
    Archive probe(std::make_shared<sqldb::Connection>(dir.path() / "probe"));
    const std::uint64_t before = probe.wal_records();
    probe.api.upload_trial(data, probe.experiment_id);
    commits = probe.wal_records() - before;
  }
  ASSERT_GE(commits, 1u);

  const auto db_dir = dir.path() / "archive";
  std::int64_t experiment_id = 0;
  {
    Archive archive(std::make_shared<sqldb::Connection>(db_dir));
    experiment_id = archive.experiment_id;
    for (std::uint64_t k = 1; k <= commits; ++k) {
      SCOPED_TRACE(::testing::Message() << "commit " << k << " fails");
      fp::enable("wal.commit", util::FailAction::kError, static_cast<int>(k),
                 EIO);
      EXPECT_THROW(archive.api.upload_trial(data, experiment_id), IoError);
      fp::clear_all();
      EXPECT_TRUE(archive.api.list_trials(experiment_id).empty());
    }
  }
  Archive reopened(std::make_shared<sqldb::Connection>(db_dir));
  EXPECT_TRUE(reopened.api.list_trials(experiment_id).empty());
  // The archive stays usable.
  const std::int64_t trial_id = reopened.api.upload_trial(data, experiment_id);
  EXPECT_EQ(reopened.api.load_trial(trial_id).interval_point_count(),
            data.interval_point_count());
}

TEST_F(ApiFailedCommit, DeleteTrialAndDerivedMetricSurfaceTheIoError) {
  Archive archive(std::make_shared<sqldb::Connection>(dir.path() / "archive"));
  auto data = small_trial();
  const std::int64_t trial_id =
      archive.api.upload_trial(data, archive.experiment_id);
  profile::derive_ratio(data, "MFLOPS", "PAPI_FP_OPS", "TIME");

  fp::enable("wal.commit", util::FailAction::kError, 1, EIO);
  EXPECT_THROW(archive.api.save_derived_metric(trial_id, data, "MFLOPS"),
               IoError);
  EXPECT_EQ(archive.api.get_metrics(trial_id).size(), 2u);

  fp::enable("wal.commit", util::FailAction::kError, 1, EIO);
  EXPECT_THROW(archive.api.delete_trial(trial_id), IoError);
  EXPECT_TRUE(archive.api.get_trial(trial_id).has_value());

  // Nothing was left half-open: both succeed once the disk behaves.
  EXPECT_GT(archive.api.save_derived_metric(trial_id, data, "MFLOPS"), 0);
  archive.api.delete_trial(trial_id);
  EXPECT_FALSE(archive.api.get_trial(trial_id).has_value());
}

// The aggregate is driven from one event's profile rows, so the rows it
// examines do not grow with the archive.
TEST(ApiAggregate, RowsExaminedDoNotGrowWithTheArchive) {
  io::synth::TrialSpec spec;
  spec.nodes = 8;
  spec.event_count = 5;
  const auto data = io::synth::generate_trial(spec);
  auto widest_input = [&](int trials) {
    Archive archive(std::make_shared<sqldb::Connection>());
    std::int64_t trial_id = 0;
    for (int t = 0; t < trials; ++t) {
      trial_id = archive.api.upload_trial(data, archive.experiment_id);
    }
    const std::int64_t event_id =
        archive.api.get_interval_events(trial_id)[1].id;
    EXPECT_EQ(archive.api
                  .aggregate_interval_column(trial_id, event_id, "exclusive")
                  .count,
              8u);
    // The statement aggregate_interval_column runs.
    auto plan = archive.connection->execute(
        "EXPLAIN ANALYZE SELECT COUNT(p.exclusive), MIN(p.exclusive),"
        " MAX(p.exclusive), AVG(p.exclusive), STDDEV(p.exclusive)"
        " FROM interval_location_profile p JOIN interval_event e"
        " ON e.id = p.interval_event"
        " WHERE p.interval_event = ? AND e.trial = ?",
        {sqldb::Value(event_id), sqldb::Value(trial_id)});
    std::uint64_t widest = 0;
    EXPECT_TRUE(plan.next());
    EXPECT_EQ(plan.get_string(1), "from p: index-eq(interval_event)");
    while (plan.next()) {
      const std::string line = plan.get_string(1);
      const auto at = line.find("rows_in=");
      if (line.rfind("analyze ", 0) == 0 && at != std::string::npos) {
        widest = std::max<std::uint64_t>(widest,
                                         std::stoull(line.substr(at + 8)));
      }
    }
    return widest;
  };
  const std::uint64_t one = widest_input(1);
  EXPECT_GT(one, 0u);
  EXPECT_EQ(widest_input(20), one);
}

// EXPLAIN ANALYZE shows what a join reads from its joined table: the
// aggregate's hash join reads every event row of the archive, so
// rows_read grows with the archive while the join's rows_in does not.
TEST(ApiAggregate, JoinReportsTheRowsItReadsFromTheJoinedTable) {
  io::synth::TrialSpec spec;
  spec.nodes = 8;
  spec.event_count = 5;
  const auto data = io::synth::generate_trial(spec);
  struct JoinStats {
    std::uint64_t rows_in = 0;
    std::uint64_t rows_read = 0;
  };
  auto join_stats = [&](int trials) {
    Archive archive(std::make_shared<sqldb::Connection>());
    std::int64_t trial_id = 0;
    for (int t = 0; t < trials; ++t) {
      trial_id = archive.api.upload_trial(data, archive.experiment_id);
    }
    const std::int64_t event_id =
        archive.api.get_interval_events(trial_id)[1].id;
    auto plan = archive.connection->execute(
        "EXPLAIN ANALYZE SELECT COUNT(p.exclusive)"
        " FROM interval_location_profile p JOIN interval_event e"
        " ON e.id = p.interval_event"
        " WHERE p.interval_event = ? AND e.trial = ?",
        {sqldb::Value(event_id), sqldb::Value(trial_id)});
    JoinStats stats;
    while (plan.next()) {
      const std::string line = plan.get_string(1);
      if (line.rfind("analyze join e:", 0) != 0) continue;
      auto field = [&](const std::string& key) -> std::uint64_t {
        const auto at = line.find(" " + key + "=");
        return at == std::string::npos
                   ? 0
                   : std::stoull(line.substr(at + key.size() + 2));
      };
      stats.rows_in = field("rows_in");
      stats.rows_read = field("rows_read");
    }
    return stats;
  };
  const JoinStats one = join_stats(1);
  const JoinStats twenty = join_stats(20);
  EXPECT_GT(one.rows_in, 0u);
  EXPECT_EQ(twenty.rows_in, one.rows_in);
  EXPECT_EQ(one.rows_read, 5u);  // the one trial's events
  EXPECT_EQ(twenty.rows_read, 20 * one.rows_read);
}

// API transactions run the SQL COMMIT path, so each commit joins the
// group-commit queue instead of fsyncing inline under the writer mutex.
TEST(ApiTransactions, EachCommitJoinsGroupCommit) {
  util::ScopedTempDir dir;
  sqldb::Connection connection(dir.path() / "db");
  connection.execute_update("CREATE TABLE t (id INTEGER PRIMARY KEY, x INTEGER)");
  auto& commits = telemetry::MetricsRegistry::instance().counter(
      "wal.group_commit.commits");
  const std::uint64_t before = commits.value();
  constexpr int kCommits = 5;
  for (int i = 0; i < kCommits; ++i) {
    connection.begin();
    connection.execute_update("INSERT INTO t (x) VALUES (?)",
                              {sqldb::Value(std::int64_t{i})});
    connection.commit();
  }
  auto* wal = connection.database().wal();
  EXPECT_EQ(wal->durable_seq(), wal->written_seq());
  if (telemetry::compiled_in()) {
    EXPECT_EQ(commits.value() - before, static_cast<std::uint64_t>(kCommits));
  }
}

// bootstrap_schema's tables pinned to the literal DDL it ran before the
// profile tables' value columns were declared once and derived: every
// table keeps its columns (name, type, NOT NULL, PK, default, order),
// foreign keys and indexes, so archives written under either open
// unchanged.
TEST(SchemaPin, BootstrapMatchesTheLiteralSchema) {
  static const char* kLiteralDdl[] = {
      "CREATE TABLE application (id INTEGER PRIMARY KEY, name TEXT NOT NULL,"
      " version TEXT, description TEXT, language TEXT)",
      "CREATE TABLE experiment (id INTEGER PRIMARY KEY,"
      " application INTEGER NOT NULL, name TEXT NOT NULL, system_info TEXT,"
      " compiler_info TEXT, configuration_info TEXT,"
      " FOREIGN KEY (application) REFERENCES application (id))",
      "CREATE TABLE trial (id INTEGER PRIMARY KEY, experiment INTEGER NOT NULL,"
      " name TEXT NOT NULL, date TEXT, problem_definition TEXT,"
      " node_count INTEGER, contexts_per_node INTEGER,"
      " threads_per_context INTEGER,"
      " FOREIGN KEY (experiment) REFERENCES experiment (id))",
      "CREATE TABLE metric (id INTEGER PRIMARY KEY, trial INTEGER NOT NULL,"
      " name TEXT NOT NULL, derived INTEGER NOT NULL DEFAULT 0,"
      " FOREIGN KEY (trial) REFERENCES trial (id))",
      "CREATE TABLE interval_event (id INTEGER PRIMARY KEY,"
      " trial INTEGER NOT NULL, name TEXT NOT NULL, group_name TEXT,"
      " FOREIGN KEY (trial) REFERENCES trial (id))",
      "CREATE TABLE interval_location_profile ("
      " interval_event INTEGER NOT NULL, node INTEGER NOT NULL,"
      " context INTEGER NOT NULL, thread INTEGER NOT NULL,"
      " metric INTEGER NOT NULL, inclusive_percentage REAL, inclusive REAL,"
      " exclusive_percentage REAL, exclusive REAL, inclusive_per_call REAL,"
      " num_calls REAL, num_subrs REAL,"
      " FOREIGN KEY (interval_event) REFERENCES interval_event (id),"
      " FOREIGN KEY (metric) REFERENCES metric (id))",
      "CREATE TABLE interval_total_summary (interval_event INTEGER NOT NULL,"
      " metric INTEGER NOT NULL, inclusive_percentage REAL, inclusive REAL,"
      " exclusive_percentage REAL, exclusive REAL, inclusive_per_call REAL,"
      " num_calls REAL, num_subrs REAL,"
      " FOREIGN KEY (interval_event) REFERENCES interval_event (id),"
      " FOREIGN KEY (metric) REFERENCES metric (id))",
      "CREATE TABLE interval_mean_summary (interval_event INTEGER NOT NULL,"
      " metric INTEGER NOT NULL, inclusive_percentage REAL, inclusive REAL,"
      " exclusive_percentage REAL, exclusive REAL, inclusive_per_call REAL,"
      " num_calls REAL, num_subrs REAL,"
      " FOREIGN KEY (interval_event) REFERENCES interval_event (id),"
      " FOREIGN KEY (metric) REFERENCES metric (id))",
      "CREATE TABLE atomic_event (id INTEGER PRIMARY KEY,"
      " trial INTEGER NOT NULL, name TEXT NOT NULL, group_name TEXT,"
      " FOREIGN KEY (trial) REFERENCES trial (id))",
      "CREATE TABLE atomic_location_profile (atomic_event INTEGER NOT NULL,"
      " node INTEGER NOT NULL, context INTEGER NOT NULL,"
      " thread INTEGER NOT NULL, sample_count REAL, maximum_value REAL,"
      " minimum_value REAL, mean_value REAL, standard_deviation REAL,"
      " FOREIGN KEY (atomic_event) REFERENCES atomic_event (id))",
      "CREATE TABLE analysis_result (id INTEGER PRIMARY KEY,"
      " trial INTEGER NOT NULL, name TEXT NOT NULL, kind TEXT NOT NULL,"
      " content TEXT, FOREIGN KEY (trial) REFERENCES trial (id))",
      "CREATE INDEX idx_ilp_node ON interval_location_profile (node)",
  };
  sqldb::Connection literal;
  for (const char* sql : kLiteralDdl) literal.execute_update(sql);
  sqldb::Connection derived;
  bootstrap_schema(derived);

  EXPECT_EQ(derived.get_meta_data().get_tables(),
            literal.get_meta_data().get_tables());
  for (const char* name :
       {"application", "experiment", "trial", "metric", "interval_event",
        "interval_location_profile", "interval_total_summary",
        "interval_mean_summary", "atomic_event", "atomic_location_profile",
        "analysis_result"}) {
    SCOPED_TRACE(name);
    const sqldb::Table& want = literal.database().table(name);
    const sqldb::Table& got = derived.database().table(name);
    const auto& want_columns = want.schema().columns();
    const auto& got_columns = got.schema().columns();
    ASSERT_EQ(got_columns.size(), want_columns.size());
    for (std::size_t c = 0; c < want_columns.size(); ++c) {
      SCOPED_TRACE(want_columns[c].name);
      EXPECT_EQ(got_columns[c].name, want_columns[c].name);
      EXPECT_EQ(got_columns[c].type, want_columns[c].type);
      EXPECT_EQ(got_columns[c].not_null, want_columns[c].not_null);
      EXPECT_EQ(got_columns[c].primary_key, want_columns[c].primary_key);
      EXPECT_EQ(got_columns[c].auto_increment, want_columns[c].auto_increment);
      EXPECT_EQ(got_columns[c].default_value.to_string(),
                want_columns[c].default_value.to_string());
      EXPECT_EQ(got.has_index(c), want.has_index(c));
      EXPECT_EQ(got.has_unique_index(c), want.has_unique_index(c));
    }
    const auto& want_fks = want.schema().foreign_keys();
    const auto& got_fks = got.schema().foreign_keys();
    ASSERT_EQ(got_fks.size(), want_fks.size());
    for (std::size_t f = 0; f < want_fks.size(); ++f) {
      EXPECT_EQ(got_fks[f].column, want_fks[f].column);
      EXPECT_EQ(got_fks[f].parent_table, want_fks[f].parent_table);
      EXPECT_EQ(got_fks[f].parent_column, want_fks[f].parent_column);
    }
  }
  // idx_ilp_node: the secondary index on interval_location_profile.node.
  EXPECT_TRUE(derived.database().table("interval_location_profile").has_index(1));
}

}  // namespace
