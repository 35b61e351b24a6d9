// Tests for the DataSession abstraction: file-backed and database-backed
// sessions, filter semantics (paper §4).
#include <gtest/gtest.h>

#include "api/database_session.h"
#include "io/synth.h"
#include "io/tau_format.h"
#include "util/error.h"
#include "util/file.h"

using namespace perfdmf;
using namespace perfdmf::api;

namespace {

profile::TrialData small_trial(std::int32_t nodes, std::uint64_t seed = 42) {
  io::synth::TrialSpec spec;
  spec.nodes = nodes;
  spec.event_count = 4;
  spec.seed = seed;
  return io::synth::generate_trial(spec);
}

}  // namespace

// --------------------------------------------------------- FileDataSession

TEST(FileSession, SynthesizedHierarchy) {
  FileDataSession session;
  session.add_trial(small_trial(2));
  session.add_trial(small_trial(3, 43));
  EXPECT_EQ(session.get_application_list().size(), 1u);
  EXPECT_EQ(session.get_experiment_list().size(), 1u);
  auto trials = session.get_trial_list();
  ASSERT_EQ(trials.size(), 2u);
  EXPECT_EQ(trials[0].id, 1);
  EXPECT_EQ(trials[1].id, 2);
  EXPECT_EQ(trials[1].node_count, 3);
}

TEST(FileSession, QueriesRequireSelectedTrial) {
  FileDataSession session;
  session.add_trial(small_trial(2));
  EXPECT_THROW(session.get_metrics(), InvalidArgument);
  session.set_trial(1);
  EXPECT_EQ(session.get_metrics().size(), 1u);
  EXPECT_EQ(session.get_interval_events().size(), 4u);
}

TEST(FileSession, NodeFilterScopesDataPoints) {
  FileDataSession session;
  session.add_trial(small_trial(4));
  session.set_trial(1);
  EXPECT_EQ(session.get_interval_data().size(), 16u);  // 4 events x 4 nodes
  session.set_node(1);
  auto rows = session.get_interval_data();
  EXPECT_EQ(rows.size(), 4u);
  for (const auto& row : rows) EXPECT_EQ(row.thread.node, 1);
  session.clear_node();
  EXPECT_EQ(session.get_interval_data().size(), 16u);
}

TEST(FileSession, MetricFilter) {
  io::synth::TrialSpec spec;
  spec.nodes = 2;
  spec.event_count = 3;
  spec.extra_metrics = {"PAPI_FP_OPS"};
  FileDataSession session;
  session.add_trial(io::synth::generate_trial(spec));
  session.set_trial(1);
  EXPECT_EQ(session.get_interval_data().size(), 12u);
  session.set_metric(1);
  EXPECT_EQ(session.get_interval_data().size(), 6u);
}

TEST(FileSession, AddTrialFromPathParsesAnyFormat) {
  util::ScopedTempDir dir;
  io::write_tau_profiles(small_trial(2), dir.path() / "tau_trial");
  FileDataSession session;
  const std::int64_t id =
      session.add_trial_from_path((dir.path() / "tau_trial").string());
  session.set_trial(id);
  EXPECT_EQ(session.get_interval_events().size(), 4u);
}

TEST(FileSession, InvalidTrialIdThrows) {
  FileDataSession session;
  EXPECT_THROW(session.trial_data(1), InvalidArgument);
  session.add_trial(small_trial(1));
  EXPECT_THROW(session.trial_data(0), InvalidArgument);
  EXPECT_THROW(session.trial_data(2), InvalidArgument);
}

// --------------------------------------------------------- DatabaseSession

TEST(DbSession, SaveTrialCreatesHierarchyOnDemand) {
  DatabaseSession session;
  const std::int64_t trial_id =
      session.save_trial(small_trial(2), "sweep3d", "blue runs");
  EXPECT_GT(trial_id, 0);
  auto apps = session.get_application_list();
  ASSERT_EQ(apps.size(), 1u);
  EXPECT_EQ(apps[0].name, "sweep3d");
  // Re-saving under the same names reuses the hierarchy.
  session.save_trial(small_trial(4, 7), "sweep3d", "blue runs");
  EXPECT_EQ(session.get_application_list().size(), 1u);
  session.set_application(apps[0].id);
  auto experiments = session.get_experiment_list();
  ASSERT_EQ(experiments.size(), 1u);
  session.set_experiment(experiments[0].id);
  EXPECT_EQ(session.get_trial_list().size(), 2u);
}

TEST(DbSession, SelectionScopesQueries) {
  DatabaseSession session;
  session.save_trial(small_trial(2), "app1", "e1");
  session.save_trial(small_trial(2, 5), "app2", "e2");
  // After the second save, selections point at app2's trial.
  EXPECT_EQ(session.get_trial_list().size(), 1u);
  session.clear_experiment();
  session.clear_application();
  EXPECT_EQ(session.get_trial_list().size(), 2u);  // unscoped
  EXPECT_EQ(session.get_experiment_list().size(), 2u);
}

TEST(DbSession, ScopedDataQueriesMatchFileSession) {
  auto data = small_trial(3);
  DatabaseSession db_session;
  db_session.save_trial(data, "a", "e");

  FileDataSession file_session;
  file_session.add_trial(data);
  file_session.set_trial(1);

  EXPECT_EQ(db_session.get_interval_data().size(),
            file_session.get_interval_data().size());
  db_session.set_node(0);
  file_session.set_node(0);
  EXPECT_EQ(db_session.get_interval_data().size(),
            file_session.get_interval_data().size());
}

TEST(DbSession, LoadSelectedTrialRoundTrips) {
  auto data = small_trial(2);
  DatabaseSession session;
  session.save_trial(data, "a", "e");
  auto loaded = session.load_selected_trial();
  EXPECT_EQ(loaded.interval_point_count(), data.interval_point_count());
  EXPECT_EQ(loaded.events().size(), data.events().size());
}

TEST(DbSession, QueriesWithoutTrialThrow) {
  DatabaseSession session;
  EXPECT_THROW(session.get_metrics(), InvalidArgument);
  EXPECT_THROW(session.get_interval_data(), InvalidArgument);
  EXPECT_THROW(session.load_selected_trial(), InvalidArgument);
}

TEST(DbSession, AtomicDataThroughSession) {
  io::synth::TrialSpec spec;
  spec.nodes = 2;
  spec.event_count = 3;
  spec.atomic_event_count = 2;
  DatabaseSession session;
  session.save_trial(io::synth::generate_trial(spec), "a", "e");
  EXPECT_EQ(session.get_atomic_events().size(), 2u);
  EXPECT_EQ(session.get_atomic_data().size(), 4u);  // 2 events x 2 nodes
  session.set_node(0);
  EXPECT_EQ(session.get_atomic_data().size(), 2u);
}


TEST(GroupFilter, ScopesBothSessionKinds) {
  io::synth::TrialSpec spec;
  spec.nodes = 2;
  spec.event_count = 7;  // includes MPI-group events (7-1)/3 = 2
  auto data = io::synth::generate_trial(spec);

  std::size_t mpi_events = 0;
  for (const auto& event : data.events()) {
    if (event.group == "MPI") ++mpi_events;
  }
  ASSERT_GT(mpi_events, 0u);

  FileDataSession files;
  files.add_trial(data);
  files.set_trial(1);
  files.set_group("MPI");
  EXPECT_EQ(files.get_interval_data().size(), mpi_events * 2);
  files.clear_group();
  EXPECT_EQ(files.get_interval_data().size(), data.interval_point_count());

  DatabaseSession db;
  db.save_trial(data, "a", "e");
  db.set_group("MPI");
  EXPECT_EQ(db.get_interval_data().size(), mpi_events * 2);
  db.set_group("no-such-group");
  EXPECT_TRUE(db.get_interval_data().empty());
  db.clear_group();
  EXPECT_EQ(db.get_interval_data().size(), data.interval_point_count());
}

TEST(GroupFilter, ScopesAtomicDataInBothSessionKinds) {
  io::synth::TrialSpec spec;
  spec.nodes = 2;
  spec.atomic_event_count = 3;
  auto data = io::synth::generate_trial(spec);
  const std::string group = data.atomic_events()[0].group;

  FileDataSession files;
  files.add_trial(data);
  files.set_trial(1);
  DatabaseSession db;
  db.save_trial(data, "a", "e");
  for (DataSession* session : {static_cast<DataSession*>(&files),
                               static_cast<DataSession*>(&db)}) {
    session->set_group(group);
    EXPECT_EQ(session->get_atomic_data().size(), data.atomic_point_count());
    session->set_group("no-such-group");
    EXPECT_TRUE(session->get_atomic_data().empty());
  }
}
