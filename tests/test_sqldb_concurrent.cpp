// Concurrent read scalability tests for sqldb: many reader connections
// over one shared Database, mixed with a writer running transactions.
// Readers must never observe torn rows (a partially applied batch) and
// the final database state must equal a serially computed baseline.
//
// These tests exercise the shared-read lock path specifically: every
// thread opens its own lightweight Connection over the same Database,
// the deployment the paper's shared-repository model implies (§5.1).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/database_api.h"
#include "api/database_session.h"
#include "io/synth.h"
#include "sqldb/connection.h"
#include "sqldb/database.h"
#include "telemetry/metrics.h"
#include "util/file.h"
#include "util/rng.h"

using namespace perfdmf;

namespace {

// One writer inserts `kBatch`-row batches inside transactions, committing
// or rolling back by a deterministic coin flip; returns the per-batch
// commit decisions so callers can compute the expected final state.
constexpr int kBatches = 40;
constexpr int kBatch = 8;

std::vector<bool> run_batched_writer(sqldb::Connection& writer,
                                     std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<bool> committed;
  committed.reserve(kBatches);
  auto insert = writer.prepare(
      "INSERT INTO ledger (batch, slot, amount) VALUES (?, ?, ?)");
  for (int b = 0; b < kBatches; ++b) {
    const bool commit = rng.next_below(3) != 0;  // ~2/3 commit
    writer.begin();
    for (int s = 0; s < kBatch; ++s) {
      insert.set_int(1, b);
      insert.set_int(2, s);
      insert.set_double(3, static_cast<double>(b) + 0.125 * s);
      insert.execute_update();
    }
    if (commit) {
      writer.commit();
    } else {
      writer.rollback();
    }
    committed.push_back(commit);
  }
  return committed;
}

}  // namespace

TEST(SqldbConcurrent, ReadersNeverSeeTornBatches) {
  auto database = std::make_shared<sqldb::Database>();
  sqldb::Connection setup(database);
  setup.execute_update(
      "CREATE TABLE ledger (id INTEGER PRIMARY KEY, batch INTEGER, "
      "slot INTEGER, amount REAL)");
  setup.execute_update("CREATE INDEX idx_ledger_batch ON ledger (batch)");

  std::atomic<int> failures{0};

  // Readers run a fixed number of iterations rather than polling until
  // the writer finishes: pthread reader-writer locks favour readers, so
  // a reader loop keyed on writer progress can starve the writer for
  // minutes on a loaded machine.
  const unsigned reader_count = 4;
  constexpr int kReaderIters = 60;
  std::vector<std::thread> readers;
  for (unsigned r = 0; r < reader_count; ++r) {
    readers.emplace_back([&, r] {
      try {
        sqldb::Connection conn(database);
        auto point = conn.prepare(
            "SELECT COUNT(*) FROM ledger WHERE batch = ?");
        std::int64_t last_total = 0;
        std::uint64_t probe = r;
        for (int iter = 0; iter < kReaderIters; ++iter) {
          // Torn-row check: a batch is either fully absent (uncommitted
          // or rolled back) or fully present — COUNT per batch ∈ {0, K}.
          point.set_int(1, static_cast<std::int64_t>(probe++ % kBatches));
          auto rs = point.execute_query();
          rs.next();
          const std::int64_t per_batch = rs.get_int(1);
          if (per_batch != 0 && per_batch != kBatch) ++failures;

          // Committed state only grows: total row count is monotone.
          auto total_rs = conn.execute("SELECT COUNT(*) FROM ledger");
          total_rs.next();
          const std::int64_t total = total_rs.get_int(1);
          if (total < last_total || total % kBatch != 0) ++failures;
          last_total = total;

          // Aggregate + range read; a later statement may see more
          // commits than `total` did, never fewer, and always whole
          // batches (the two statements are separate lock scopes).
          auto agg = conn.execute(
              "SELECT COUNT(*), MIN(amount), MAX(amount) FROM ledger "
              "WHERE slot >= 0");
          agg.next();
          const std::int64_t agg_count = agg.get_int(1);
          if (agg_count < total || agg_count % kBatch != 0) ++failures;
          last_total = agg_count;
        }
      } catch (...) {
        ++failures;
      }
    });
  }

  sqldb::Connection writer(database);
  const std::vector<bool> committed = run_batched_writer(writer, /*seed=*/7);
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Final state must equal the serially computed baseline.
  std::int64_t expected_rows = 0;
  for (bool c : committed) expected_rows += c ? kBatch : 0;
  auto rs = setup.execute("SELECT COUNT(*) FROM ledger");
  rs.next();
  EXPECT_EQ(rs.get_int(1), expected_rows);

  // Column-wise check against a fresh database replaying only the
  // committed batches (ids differ — rollbacks burn nothing here, but we
  // compare content columns, not the synthetic primary key).
  sqldb::Connection baseline;
  baseline.execute_update(
      "CREATE TABLE ledger (id INTEGER PRIMARY KEY, batch INTEGER, "
      "slot INTEGER, amount REAL)");
  auto insert = baseline.prepare(
      "INSERT INTO ledger (batch, slot, amount) VALUES (?, ?, ?)");
  for (int b = 0; b < kBatches; ++b) {
    if (!committed[static_cast<std::size_t>(b)]) continue;
    for (int s = 0; s < kBatch; ++s) {
      insert.set_int(1, b);
      insert.set_int(2, s);
      insert.set_double(3, static_cast<double>(b) + 0.125 * s);
      insert.execute_update();
    }
  }
  const char* kDump =
      "SELECT batch, slot, amount FROM ledger ORDER BY batch, slot";
  auto got = setup.execute(kDump);
  auto want = baseline.execute(kDump);
  while (want.next()) {
    ASSERT_TRUE(got.next());
    EXPECT_EQ(got.get_int(1), want.get_int(1));
    EXPECT_EQ(got.get_int(2), want.get_int(2));
    EXPECT_DOUBLE_EQ(got.get_double(1 + 2), want.get_double(3));
  }
  EXPECT_FALSE(got.next());
}

TEST(SqldbConcurrent, MixedQueryShapesAgainstProfileArchive) {
  // Readers issue the four query shapes from the issue — point, range,
  // aggregate, join — against a real profile archive while a writer
  // appends analysis results transactionally.
  auto connection = std::make_shared<sqldb::Connection>();
  api::DatabaseAPI api(connection);
  profile::Application app;
  app.name = "conc";
  api.save_application(app);
  profile::Experiment experiment;
  experiment.application_id = app.id;
  experiment.name = "e";
  api.save_experiment(experiment);
  io::synth::TrialSpec spec;
  spec.nodes = 8;
  spec.event_count = 12;
  const std::int64_t trial_id =
      api.upload_trial(io::synth::generate_trial(spec), experiment.id);

  const auto database = connection->database_ptr();
  std::atomic<int> failures{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      try {
        sqldb::Connection conn(database);
        auto point = conn.prepare(
            "SELECT COUNT(*) FROM interval_location_profile WHERE node = ?");
        auto range = conn.prepare(
            "SELECT COUNT(*) FROM interval_location_profile "
            "WHERE node >= ? AND node < ?");
        auto join = conn.prepare(
            "SELECT COUNT(*) FROM interval_location_profile p "
            "JOIN interval_event e ON p.interval_event = e.id "
            "WHERE e.trial = ?");
        // Fixed iteration count: see ReadersNeverSeeTornBatches.
        for (int i = 0; i < 30; ++i) {
          point.set_int(1, (r + i) % 8);
          auto prs = point.execute_query();
          prs.next();
          if (prs.get_int(1) != 12) ++failures;

          range.set_int(1, 0);
          range.set_int(2, 8);
          auto rrs = range.execute_query();
          rrs.next();
          const std::int64_t all = rrs.get_int(1);

          auto ars = conn.execute(
              "SELECT COUNT(*), AVG(exclusive) FROM "
              "interval_location_profile");
          ars.next();
          if (ars.get_int(1) != all) ++failures;

          join.set_int(1, trial_id);
          auto jrs = join.execute_query();
          jrs.next();
          if (jrs.get_int(1) != all) ++failures;
        }
      } catch (...) {
        ++failures;
      }
    });
  }

  // Writer: transactional inserts through the API layer's tables.
  sqldb::Connection writer(database);
  for (int b = 0; b < 25; ++b) {
    writer.begin();
    auto stmt = writer.prepare(
        "INSERT INTO analysis_result (trial, name, kind, content) "
        "VALUES (?, ?, ?, ?)");
    for (int s = 0; s < 4; ++s) {
      stmt.set_int(1, trial_id);
      stmt.set_string(2, "r" + std::to_string(b));
      stmt.set_string(3, "test");
      stmt.set_string(4, "payload");
      stmt.execute_update();
    }
    if (b % 5 == 4) {
      writer.rollback();
    } else {
      writer.commit();
    }
  }
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);

  // 25 batches of 4, every 5th rolled back → 20 * 4 committed.
  auto rs = writer.execute("SELECT COUNT(*) FROM analysis_result");
  rs.next();
  EXPECT_EQ(rs.get_int(1), 20 * 4);
}

TEST(SqldbConcurrent, ConcurrentWritersGetDistinctIds) {
  // Regression (review): save_analysis_result and save_row_with_fields
  // used to run INSERT and SELECT MAX(id) as two separate lock scopes, so
  // writers on sibling connections could interleave between them and one
  // request would receive another's id; the same window let two writers
  // both decide to ALTER the same metadata column in. Both sequences now
  // run inside a transaction.
  auto connection = std::make_shared<sqldb::Connection>();
  api::DatabaseAPI api(connection);
  profile::Application app;
  app.name = "ids";
  api.save_application(app);
  profile::Experiment experiment;
  experiment.application_id = app.id;
  experiment.name = "e";
  api.save_experiment(experiment);
  io::synth::TrialSpec spec;
  spec.nodes = 2;
  spec.event_count = 3;
  const std::int64_t trial_id =
      api.upload_trial(io::synth::generate_trial(spec), experiment.id);

  constexpr int kWriters = 4;
  constexpr int kPerWriter = 25;
  std::vector<std::vector<std::int64_t>> ids(kWriters);
  std::atomic<int> failures{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      try {
        api::DatabaseAPI worker(
            std::make_shared<sqldb::Connection>(connection->database_ptr()));
        // Every writer extends the application schema with the same new
        // column: exactly one ALTER must win, the rest must see it.
        profile::Application extended;
        extended.name = "w" + std::to_string(w);
        extended.fields["shared_note"] = "note" + std::to_string(w);
        worker.save_application(extended, /*extend_schema=*/true);
        for (int i = 0; i < kPerWriter; ++i) {
          ids[static_cast<std::size_t>(w)].push_back(
              worker.save_analysis_result(trial_id, "r", "test",
                                          "w" + std::to_string(w)));
        }
      } catch (...) {
        ++failures;
      }
    });
  }
  for (auto& t : writers) t.join();
  EXPECT_EQ(failures.load(), 0);

  std::set<std::int64_t> unique;
  for (const auto& per_writer : ids) {
    for (std::int64_t id : per_writer) unique.insert(id);
  }
  EXPECT_EQ(unique.size(),
            static_cast<std::size_t>(kWriters) * kPerWriter);

  // Each returned id must address the row its writer stored.
  std::unordered_map<std::int64_t, std::string> content_of;
  for (const auto& result : api.list_analysis_results(trial_id)) {
    content_of[result.id] = result.content;
  }
  for (int w = 0; w < kWriters; ++w) {
    for (std::int64_t id : ids[static_cast<std::size_t>(w)]) {
      ASSERT_TRUE(content_of.count(id));
      EXPECT_EQ(content_of[id], "w" + std::to_string(w));
    }
  }

  // The shared metadata column exists (once) and every writer's note
  // landed on its own application row.
  for (const auto& stored : api.list_applications()) {
    if (stored.name == "ids") continue;
    ASSERT_TRUE(stored.fields.count("shared_note"));
    EXPECT_EQ(stored.fields.at("shared_note"),
              "note" + stored.name.substr(1));
  }
}

TEST(SqldbConcurrent, SharedConnectionPlanCacheUnderDdlChurn) {
  // One Connection (and therefore one plan cache) shared by several
  // threads re-executing the same SQL texts, while DDL on the same
  // connection keeps bumping the schema epoch. Cached plans are leased
  // exclusively — a thread finding its entry in use falls back to a
  // fresh parse — and epoch-stale entries are dropped, so every reader
  // must keep seeing correct results throughout.
  auto database = std::make_shared<sqldb::Database>();
  auto conn = std::make_shared<sqldb::Connection>(database);
  conn->execute_update(
      "CREATE TABLE m (id INTEGER PRIMARY KEY, v INTEGER)");
  for (int i = 0; i < 32; ++i) {
    conn->execute_update("INSERT INTO m (v) VALUES (" +
                         std::to_string(i % 8) + ")");
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      try {
        for (int i = 0; i < 60; ++i) {
          switch (i % 3) {
            case 0: {
              auto rs = conn->execute("SELECT COUNT(*) FROM m");
              rs.next();
              if (rs.get_int(1) != 32) ++failures;
              break;
            }
            case 1: {
              // v is 0..7, four of each: SUM = 4 * 28.
              auto rs = conn->execute("SELECT SUM(v) FROM m");
              rs.next();
              if (rs.get_int(1) != 112) ++failures;
              break;
            }
            default: {
              auto rs = conn->execute(
                  "SELECT v, COUNT(*) FROM m GROUP BY v ORDER BY v");
              int groups = 0;
              while (rs.next()) {
                if (rs.get_int(2) != 4) ++failures;
                ++groups;
              }
              if (groups != 8) ++failures;
              break;
            }
          }
        }
      } catch (...) {
        ++failures;
      }
    });
  }

  // DDL churn on the same shared connection: every statement bumps the
  // schema epoch, so concurrently cached SELECT plans go stale and must
  // be invalidated on their next lease, never executed against the new
  // catalog.
  for (int i = 0; i < 12; ++i) {
    conn->execute_update("CREATE TABLE scratch (id INTEGER PRIMARY KEY)");
    conn->execute_update("DROP TABLE scratch");
  }
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);

  // A cached plan leased after one more epoch bump is deterministically
  // stale: invalidations must be observable, and the repeated texts must
  // have produced cache hits.
  conn->execute_update("CREATE TABLE scratch (id INTEGER PRIMARY KEY)");
  auto rs = conn->execute("SELECT COUNT(*) FROM m");
  rs.next();
  EXPECT_EQ(rs.get_int(1), 32);
  const auto stats = conn->plan_cache_stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.invalidations, 0u);
}

TEST(SqldbConcurrent, ForkedSessionsReadInParallel) {
  api::DatabaseSession session;
  io::synth::TrialSpec spec;
  spec.nodes = 4;
  spec.event_count = 6;
  session.save_trial(io::synth::generate_trial(spec), "app", "exp");

  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    // fork() carries the trial selection onto an independent connection.
    clients.emplace_back([&failures, fork = session.fork()]() mutable {
      try {
        for (int i = 0; i < 20; ++i) {
          if (fork.get_metrics().empty()) ++failures;
          if (fork.get_interval_events().size() != 6) ++failures;
          if (fork.get_interval_data().empty()) ++failures;
        }
      } catch (...) {
        ++failures;
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(SqldbConcurrent, SnapshotReadersSeeNoDirtyReadsAndNeverBlock) {
  // MVCC contract, directed: while a writer transaction holds the writer
  // mutex with uncommitted rows installed, a reader on another thread
  // (1) completes without waiting for the transaction — the reader is
  // joined BEFORE commit, so the old reader-writer lock discipline would
  // hang this test — and (2) never sees the pending rows (no dirty
  // reads), observing the same committed count on every statement.
  auto database = std::make_shared<sqldb::Database>();
  sqldb::Connection writer(database);
  writer.execute_update(
      "CREATE TABLE t (id INTEGER PRIMARY KEY, tag INTEGER)");
  for (int i = 0; i < 8; ++i) {
    writer.execute_update("INSERT INTO t (tag) VALUES (0)");
  }

  writer.begin();
  for (int i = 0; i < 8; ++i) {
    writer.execute_update("INSERT INTO t (tag) VALUES (1)");
  }
  // The writer's own statements see its pending versions.
  {
    auto rs = writer.execute("SELECT COUNT(*) FROM t");
    rs.next();
    EXPECT_EQ(rs.get_int(1), 16);
  }

  std::atomic<int> failures{0};
  std::thread reader([&] {
    try {
      sqldb::Connection conn(database);
      auto count = conn.prepare("SELECT COUNT(*) FROM t");
      auto pending = conn.prepare("SELECT COUNT(*) FROM t WHERE tag = 1");
      for (int i = 0; i < 40; ++i) {
        auto rs = count.execute_query();
        rs.next();
        if (rs.get_int(1) != 8) ++failures;  // repeatable, committed-only
        auto prs = pending.execute_query();
        prs.next();
        if (prs.get_int(1) != 0) ++failures;  // dirty read
      }
    } catch (...) {
      ++failures;
    }
  });
  reader.join();  // completes while the transaction is still open
  EXPECT_EQ(failures.load(), 0);

  writer.commit();
  auto rs = writer.execute("SELECT COUNT(*) FROM t");
  rs.next();
  EXPECT_EQ(rs.get_int(1), 16);

  // And a rolled-back transaction's versions never surface anywhere.
  writer.begin();
  writer.execute_update("INSERT INTO t (tag) VALUES (2)");
  writer.rollback();
  auto rs2 = writer.execute("SELECT COUNT(*) FROM t WHERE tag = 2");
  rs2.next();
  EXPECT_EQ(rs2.get_int(1), 0);
}

TEST(SqldbConcurrent, DeleteInsertChurnKeepsSlotCountBounded) {
  // Regression: tombstoned slots must be reused by INSERT and compacted
  // at checkpoint, coordinated with MVCC version GC — without
  // reclamation this loop would grow the slot array by kRows per round
  // and the final bound below fails by an order of magnitude.
  constexpr int kRows = 64;
  constexpr int kRounds = 24;
  auto database = std::make_shared<sqldb::Database>();
  sqldb::Connection conn(database);
  conn.execute_update("CREATE TABLE churn (id INTEGER PRIMARY KEY, v INTEGER)");
  auto insert = conn.prepare("INSERT INTO churn (v) VALUES (?)");
  for (int i = 0; i < kRows; ++i) {
    insert.set_int(1, i);
    insert.execute_update();
  }

  const auto reused_before = perfdmf::telemetry::MetricsRegistry::instance()
                                 .counter("mvcc.slots_reused")
                                 .value();
  for (int round = 0; round < kRounds; ++round) {
    conn.execute_update("DELETE FROM churn");
    for (int i = 0; i < kRows; ++i) {
      insert.set_int(1, round * kRows + i);
      insert.execute_update();
    }
    // Checkpoint folds version GC in: chains collapse to the newest
    // committed version and trailing dead slots are compacted.
    if (round % 4 == 3) conn.checkpoint();
  }

  auto rs = conn.execute("SELECT COUNT(*) FROM churn");
  rs.next();
  EXPECT_EQ(rs.get_int(1), kRows);
  // Bounded: a small multiple of the live set, not O(rounds * kRows).
  EXPECT_LE(database->table("churn").slot_count(),
            static_cast<std::size_t>(kRows) * 4);
  // Counter deltas only register when telemetry is compiled in; the
  // slot-count bound above is the real assertion either way.
  if (perfdmf::telemetry::compiled_in()) {
    EXPECT_GT(perfdmf::telemetry::MetricsRegistry::instance()
                  .counter("mvcc.slots_reused")
                  .value(),
              reused_before);
  }

  // The MVCC counters surface through the SQL-queryable system table.
  for (const char* name :
       {"mvcc.slots_reused", "mvcc.versions_installed",
        "mvcc.gc_versions_reclaimed"}) {
    auto mrs = conn.execute(
        std::string("SELECT COUNT(*) FROM PERFDMF_METRICS WHERE name = '") +
        name + "'");
    mrs.next();
    EXPECT_EQ(mrs.get_int(1), 1) << name;
  }
}

TEST(SqldbConcurrent, CheckpointDuringConcurrentReads) {
  util::ScopedTempDir dir;
  auto database = std::make_shared<sqldb::Database>(dir.path());
  sqldb::Connection setup(database);
  setup.execute_update(
      "CREATE TABLE t (id INTEGER PRIMARY KEY, x INTEGER)");
  for (int i = 0; i < 64; ++i) {
    setup.execute_update("INSERT INTO t (x) VALUES (" + std::to_string(i) +
                         ")");
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      try {
        sqldb::Connection conn(database);
        for (int i = 0; i < 80; ++i) {
          auto rs = conn.execute("SELECT COUNT(*) FROM t");
          rs.next();
          if (rs.get_int(1) < 64) ++failures;
        }
      } catch (...) {
        ++failures;
      }
    });
  }
  // Checkpoints take the exclusive lock; readers must simply wait, never
  // crash or observe partial state.
  for (int i = 0; i < 10; ++i) {
    setup.execute_update("INSERT INTO t (x) VALUES (1000)");
    setup.checkpoint();
  }
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Reopen: everything committed before the last checkpoint must survive.
  database.reset();
  sqldb::Connection reopened(dir.path());
  auto rs = reopened.execute("SELECT COUNT(*) FROM t");
  rs.next();
  EXPECT_EQ(rs.get_int(1), 74);
}

// ALTER inside a transaction rewrites every row and the schema in place,
// so it must drain in-flight readers even though the transaction already
// holds the writer mutex. A governed wait that times out hands the
// transaction its shared hold back, and the transaction carries on.
TEST(SqldbConcurrent, AlterInsideATransactionDrainsInFlightReaders) {
  auto database = std::make_shared<sqldb::Database>();
  sqldb::Connection conn(database);
  conn.execute_update("CREATE TABLE t (id INTEGER PRIMARY KEY, x INTEGER)");
  conn.execute_update("INSERT INTO t (x) VALUES (1)");
  sqldb::LockManager& locks = database->locks();

  // A reader's drain-shared hold, released on request.
  auto hold_reader = [&](std::future<void> release) {
    std::promise<void> holding;
    auto held = holding.get_future();
    std::thread reader([&locks, &holding, release = std::move(release)] {
      locks.lock_shared();
      holding.set_value();
      release.wait();
      locks.unlock_shared();
    });
    held.wait();
    return reader;
  };

  {
    std::promise<void> release;
    std::thread reader = hold_reader(release.get_future());
    conn.begin();
    conn.set_statement_timeout_ms(30);
    try {
      conn.execute_update("ALTER TABLE t ADD COLUMN note TEXT");
      ADD_FAILURE() << "in-transaction ALTER ran past an in-flight reader";
    } catch (const DbError& e) {
      EXPECT_EQ(e.kind(), DbError::Kind::kTimeout);
    }
    conn.set_statement_timeout_ms(0);
    conn.execute_update("INSERT INTO t (x) VALUES (2)");
    conn.commit();
    release.set_value();
    reader.join();
  }
  EXPECT_EQ(locks.stats().drain_shared_holders, 0);
  EXPECT_EQ(locks.stats().drain_exclusive_holders, 0);

  std::promise<void> release;
  std::thread reader = hold_reader(release.get_future());
  conn.begin();
  std::atomic<bool> released{false};
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    released.store(true);
    release.set_value();
  });
  conn.execute_update("ALTER TABLE t ADD COLUMN tag TEXT");
  EXPECT_TRUE(released.load()) << "ALTER did not wait for the reader";
  conn.execute_update("INSERT INTO t (x, tag) VALUES (3, 'n')");
  conn.commit();
  releaser.join();
  reader.join();
  auto rs = conn.execute("SELECT COUNT(*) FROM t WHERE tag = 'n'");
  rs.next();
  EXPECT_EQ(rs.get_int(1), 1);
}

// Readers against a writer whose transactions ADD and DROP columns (the
// flexible-schema path of DatabaseAPI::save_row_with_fields). Every row a
// reader sees is as wide as its result's column list; under TSan this is
// the race check for the in-place row and schema rewrite.
TEST(SqldbConcurrent, ReadersAgainstInTransactionSchemaChanges) {
  auto database = std::make_shared<sqldb::Database>();
  sqldb::Connection writer(database);
  writer.execute_update("CREATE TABLE t (id INTEGER PRIMARY KEY, x INTEGER)");
  for (int i = 0; i < 32; ++i) {
    writer.execute_update("INSERT INTO t (x) VALUES (?)",
                          {sqldb::Value(std::int64_t{i})});
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      try {
        sqldb::Connection conn(database);
        for (int i = 0; i < 150; ++i) {
          auto rs = conn.execute("SELECT * FROM t");
          if (rs.row_count() < 32) ++failures;
          while (rs.next()) {
            rs.get(rs.column_count());  // throws if the row is narrower
          }
        }
      } catch (...) {
        ++failures;
      }
    });
  }
  for (int i = 0; i < 20; ++i) {
    const std::string column = "c" + std::to_string(i);
    writer.begin();
    writer.execute_update("ALTER TABLE t ADD COLUMN " + column + " TEXT");
    writer.execute_update("INSERT INTO t (x, " + column + ") VALUES (?, 'v')",
                          {sqldb::Value(std::int64_t{100 + i})});
    if (i % 2 == 1) {
      writer.execute_update("ALTER TABLE t DROP COLUMN " + column);
    }
    writer.commit();
  }
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  auto rs = writer.execute("SELECT COUNT(*) FROM t");
  rs.next();
  EXPECT_EQ(rs.get_int(1), 52);
}
