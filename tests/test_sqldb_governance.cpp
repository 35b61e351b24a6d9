// Resource governance: statement deadlines, cooperative cancellation,
// memory budgets with degrade-to-fallback, admission control, and the
// degraded read-only mode entered when the disk fills.
//
// The contract under test (DESIGN.md "Resource governance"):
//
//   - a statement that blows its deadline or is cancelled from another
//     thread unwinds promptly with a *typed* DbError, its effects rolled
//     back, and the connection stays usable;
//   - an operator that crosses the soft memory budget degrades to the
//     PR 4 fallback strategy and produces identical results; crossing
//     the hard cap fails the statement cleanly (kMemBudget), never the
//     process;
//   - admission control sheds work beyond the configured concurrency
//     with kOverloaded instead of queueing without bound;
//   - persistent ENOSPC turns the database read-only: reads keep
//     serving, writes fail fast, and recovery (probe) restores writes
//     with zero committed transactions lost.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "sqldb/connection.h"
#include "telemetry/metrics.h"
#include "util/error.h"
#include "util/failpoint.h"
#include "util/file.h"

using namespace perfdmf::sqldb;
using perfdmf::DbError;
namespace u = perfdmf::util;
namespace fp = perfdmf::util::failpoint;

namespace {

constexpr int kEnospc = 28;  // ENOSPC, spelled out: the injected errno

std::uint64_t counter_value(const char* name) {
  return perfdmf::telemetry::MetricsRegistry::instance().counter(name).value();
}

// With -DPERFDMF_TELEMETRY=OFF counters freeze at zero (the kill switch
// compiles recording to nothing), so delta assertions only hold when
// telemetry is compiled in. The behavior under test still runs either way.
void expect_counter_bumped(const char* name, std::uint64_t before) {
  if (perfdmf::telemetry::compiled_in()) {
    EXPECT_GT(counter_value(name), before) << name;
  }
}

std::int64_t elapsed_ms(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - since)
      .count();
}

/// Two tables whose non-equi join is quadratic: big enough that a
/// 10 ms deadline interrupts it mid-flight on any machine.
void load_join_tables(Connection& conn, int rows) {
  conn.execute_update("CREATE TABLE lhs (id INTEGER PRIMARY KEY, v INTEGER)");
  conn.execute_update("CREATE TABLE rhs (id INTEGER PRIMARY KEY, v INTEGER)");
  for (const char* table : {"lhs", "rhs"}) {
    auto stmt = conn.prepare(std::string("INSERT INTO ") + table +
                             " (v) VALUES (?)");
    conn.begin();
    for (int i = 0; i < rows; ++i) {
      stmt.set_int(1, i);
      stmt.execute_update();
    }
    conn.commit();
  }
}

constexpr const char* kSlowJoin =
    "SELECT COUNT(*) FROM lhs a JOIN rhs b ON a.v < b.v";

/// EXPLAIN output flattened to one newline-joined string.
std::string explain(Connection& conn, const std::string& sql) {
  auto rs = conn.execute("EXPLAIN " + sql);
  std::string out;
  while (rs.next()) out += rs.get_string(1) + "\n";
  return out;
}

std::vector<std::vector<std::string>> dump(Connection& conn,
                                           const std::string& sql) {
  auto rs = conn.execute(sql);
  std::vector<std::vector<std::string>> rows;
  while (rs.next()) {
    std::vector<std::string> row;
    for (std::size_t c = 1; c <= rs.column_count(); ++c) {
      row.push_back(rs.is_null(c) ? "<null>" : rs.get_string(c));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

std::int64_t scalar(Connection& conn, const std::string& sql) {
  auto rs = conn.execute(sql);
  EXPECT_TRUE(rs.next()) << sql;
  return rs.get_int(1);
}

// Failpoints and admission configs are process/database-global state;
// never leak one into the next test.
class Governance : public ::testing::Test {
 protected:
  void TearDown() override { fp::clear_all(); }
};

}  // namespace

// ----------------------------------------------- deadlines and cancel

TEST_F(Governance, StatementTimeoutKillsLongJoinPromptly) {
  Connection conn;
  load_join_tables(conn, 3000);  // 9M nested-loop iterations

  conn.set_statement_timeout_ms(10);
  const auto start = std::chrono::steady_clock::now();
  try {
    conn.execute(kSlowJoin);
    FAIL() << "join finished under a 10 ms deadline";
  } catch (const DbError& e) {
    EXPECT_EQ(e.kind(), DbError::Kind::kTimeout) << e.what();
  }
  // "Promptly": row-batch polling fires within a stride of the deadline,
  // nowhere near the seconds the full join takes.
  EXPECT_LT(elapsed_ms(start), 2000);

  // The connection survives its killed statement.
  conn.set_statement_timeout_ms(0);
  EXPECT_EQ(scalar(conn, "SELECT COUNT(*) FROM lhs"), 3000);
}

TEST_F(Governance, KilledDmlRollsBackCompletely) {
  Connection conn;
  load_join_tables(conn, 3000);

  const std::int64_t sum_before = scalar(conn, "SELECT SUM(v) FROM lhs");
  // A pending cancel is delivered at the UPDATE's row-loop poll — well
  // past the first rows, so a non-transactional engine would leave a
  // partially updated table behind.
  conn.cancel();
  try {
    conn.execute_update("UPDATE lhs SET v = v + 1000000");
    FAIL() << "UPDATE outran a pending cancel over 3000 rows";
  } catch (const DbError& e) {
    EXPECT_EQ(e.kind(), DbError::Kind::kCancelled) << e.what();
  }
  // No partial update survives: the statement rolled back whole.
  EXPECT_EQ(scalar(conn, "SELECT SUM(v) FROM lhs"), sum_before);
}

TEST_F(Governance, CancelFromAnotherThreadUnwindsAndConnectionSurvives) {
  Connection conn;
  load_join_tables(conn, 3000);
  const std::uint64_t cancellations_before = counter_value("gov.cancellations");

  std::thread killer([&conn] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    conn.cancel();
  });
  const auto start = std::chrono::steady_clock::now();
  try {
    conn.execute(kSlowJoin);
    FAIL() << "join outran the cancel";
  } catch (const DbError& e) {
    EXPECT_EQ(e.kind(), DbError::Kind::kCancelled) << e.what();
  }
  killer.join();
  EXPECT_LT(elapsed_ms(start), 2000);
  expect_counter_bumped("gov.cancellations", cancellations_before);

  // Delivery consumed the flag: the next statement runs normally.
  EXPECT_EQ(scalar(conn, "SELECT COUNT(*) FROM rhs"), 3000);
}

TEST_F(Governance, PendingCancelKillsTheNextStatement) {
  Connection conn;
  load_join_tables(conn, 3000);

  conn.cancel();  // no statement in flight: the next one dies
  EXPECT_THROW(conn.execute(kSlowJoin), DbError);
  // ...and only that one; the flag was consumed.
  EXPECT_EQ(scalar(conn, "SELECT COUNT(*) FROM lhs"), 3000);
}

TEST_F(Governance, ClearCancelWithdrawsAnUndeliveredCancel) {
  Connection conn;
  conn.execute_update("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)");
  conn.execute_update("INSERT INTO t (v) VALUES (1)");
  conn.cancel();
  conn.clear_cancel();
  EXPECT_EQ(scalar(conn, "SELECT COUNT(*) FROM t"), 1);
}

TEST_F(Governance, KilledQueryIsTracedWithItsOutcome) {
  Connection conn;
  load_join_tables(conn, 3000);
  conn.set_statement_timeout_ms(10);
  EXPECT_THROW(conn.execute(kSlowJoin), DbError);
  conn.set_statement_timeout_ms(0);

  // Killed statements reach PERFDMF_SLOW_QUERIES regardless of the slow
  // threshold, tagged with how they ended. The ring is empty when the
  // telemetry kill switch compiles recording out.
  if (perfdmf::telemetry::compiled_in()) {
    EXPECT_GE(scalar(conn,
                     "SELECT COUNT(*) FROM PERFDMF_SLOW_QUERIES "
                     "WHERE outcome = 'timed_out'"),
              1);
  }
}

// --------------------------------------------------- memory budgets

TEST_F(Governance, MemBudgetDegradesOperatorsWithIdenticalResults) {
  Connection conn;
  conn.execute_update("CREATE TABLE dept (id INTEGER PRIMARY KEY, name TEXT)");
  conn.execute_update(
      "CREATE TABLE emp (id INTEGER PRIMARY KEY, dept INTEGER, v INTEGER)");
  {
    auto d = conn.prepare("INSERT INTO dept (id, name) VALUES (?, ?)");
    auto e = conn.prepare("INSERT INTO emp (dept, v) VALUES (?, ?)");
    conn.begin();
    for (int i = 0; i < 40; ++i) {
      d.set_int(1, i);
      d.set_string(2, "dept-" + std::to_string(i));
      d.execute_update();
    }
    for (int i = 0; i < 600; ++i) {
      e.set_int(1, i % 40);
      e.set_int(2, i);
      e.execute_update();
    }
    conn.commit();
  }
  const std::string q =
      "SELECT d.name, COUNT(*), SUM(e.v) FROM emp e JOIN dept d "
      "ON e.dept = d.id GROUP BY d.name ORDER BY 1";

  const auto unbudgeted = dump(conn, q);
  ASSERT_EQ(unbudgeted.size(), 40u);

  const std::uint64_t degraded_before = counter_value("gov.mem_degraded");
  conn.set_statement_mem_bytes(512);  // far below the hash-table estimates
  const auto budgeted = dump(conn, q);
  EXPECT_EQ(budgeted, unbudgeted);
  expect_counter_bumped("gov.mem_degraded", degraded_before);

  // The degrade decisions are EXPLAIN-visible.
  const std::string plan = explain(conn, q);
  EXPECT_NE(plan.find("mem-degraded"), std::string::npos) << plan;
  conn.set_statement_mem_bytes(0);
}

TEST_F(Governance, TopKDegradesToFullSortBetweenSoftAndHardBudget) {
  Connection conn;
  conn.execute_update("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)");
  {
    auto stmt = conn.prepare("INSERT INTO t (v) VALUES (?)");
    conn.begin();
    for (int i = 0; i < 500; ++i) {
      stmt.set_int(1, (i * 7919) % 500);
      stmt.execute_update();
    }
    conn.commit();
  }
  const std::string q = "SELECT v FROM t ORDER BY v DESC LIMIT 10";
  const auto unbudgeted = dump(conn, q);

  // Top-K pre-charges its heap: ~10 * 2 slots * 48 bytes = 960, between
  // a 512-byte soft budget and the 2048-byte hard cap, so it degrades
  // to the full sort instead of erroring.
  conn.set_statement_mem_bytes(512);
  EXPECT_EQ(dump(conn, q), unbudgeted);
  const std::string plan = explain(conn, q);
  EXPECT_NE(plan.find("top-k mem-degraded"), std::string::npos) << plan;
  conn.set_statement_mem_bytes(0);
}

TEST_F(Governance, HardMemoryCapFailsTheStatementCleanly) {
  Connection conn;
  conn.execute_update("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)");
  {
    auto stmt = conn.prepare("INSERT INTO t (v) VALUES (?)");
    conn.begin();
    for (int i = 0; i < 3000; ++i) {
      stmt.set_int(1, i);
      stmt.execute_update();
    }
    conn.commit();
  }
  // A 2000-entry Top-K heap estimates ~192 KB, past the 1 KB hard cap
  // (4x the 256-byte soft budget) in one charge: clean typed failure.
  conn.set_statement_mem_bytes(256);
  try {
    conn.execute("SELECT v FROM t ORDER BY v DESC LIMIT 2000");
    FAIL() << "statement ignored its hard memory cap";
  } catch (const DbError& e) {
    EXPECT_EQ(e.kind(), DbError::Kind::kMemBudget) << e.what();
  }
  // The statement died, not the connection or the process.
  conn.set_statement_mem_bytes(0);
  EXPECT_EQ(scalar(conn, "SELECT COUNT(*) FROM t"), 3000);
}

// ------------------------------------------------- admission control

TEST_F(Governance, AdmissionShedsImmediatelyWhenQueueDisabled) {
  auto shared = std::make_shared<Database>();
  Connection writer(shared);
  writer.execute_update("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)");
  writer.execute_update("INSERT INTO t (v) VALUES (1)");
  shared->governor().configure({/*max_concurrent=*/1, /*max_queue=*/0,
                                /*queue_timeout_ms=*/1000});
  const std::uint64_t rejected_before = counter_value("gov.admission_rejected");

  writer.begin();  // the transaction unit holds the only slot
  std::optional<DbError::Kind> seen;
  std::thread reader([&] {
    Connection conn(shared);
    try {
      conn.execute("SELECT COUNT(*) FROM t");
    } catch (const DbError& e) {
      seen = e.kind();
    }
  });
  reader.join();
  writer.commit();

  ASSERT_TRUE(seen.has_value()) << "statement was admitted past the bound";
  EXPECT_EQ(*seen, DbError::Kind::kOverloaded);
  expect_counter_bumped("gov.admission_rejected", rejected_before);

  // With the slot free again, the same work is admitted.
  Connection conn(shared);
  EXPECT_EQ(scalar(conn, "SELECT COUNT(*) FROM t"), 1);
}

TEST_F(Governance, QueuedStatementIsShedAtTheQueueDeadline) {
  auto shared = std::make_shared<Database>();
  Connection writer(shared);
  writer.execute_update("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)");
  shared->governor().configure({1, 8, /*queue_timeout_ms=*/40});

  writer.begin();
  std::optional<DbError::Kind> seen;
  std::int64_t waited = 0;
  std::thread reader([&] {
    Connection conn(shared);
    const auto start = std::chrono::steady_clock::now();
    try {
      conn.execute("SELECT COUNT(*) FROM t");
    } catch (const DbError& e) {
      seen = e.kind();
      waited = elapsed_ms(start);
    }
  });
  reader.join();
  writer.commit();

  ASSERT_TRUE(seen.has_value());
  EXPECT_EQ(*seen, DbError::Kind::kOverloaded);
  EXPECT_GE(waited, 35);  // it genuinely queued before being shed
  EXPECT_LT(waited, 2000);
}

TEST_F(Governance, QueuedStatementStillObservesItsOwnDeadline) {
  auto shared = std::make_shared<Database>();
  Connection writer(shared);
  writer.execute_update("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)");
  shared->governor().configure({1, 8, /*queue_timeout_ms=*/10000});

  writer.begin();
  std::optional<DbError::Kind> seen;
  std::thread reader([&] {
    Connection conn(shared);
    conn.set_statement_timeout_ms(30);
    try {
      conn.execute("SELECT COUNT(*) FROM t");
    } catch (const DbError& e) {
      seen = e.kind();
    }
  });
  reader.join();
  writer.commit();

  ASSERT_TRUE(seen.has_value());
  EXPECT_EQ(*seen, DbError::Kind::kTimeout)
      << "a queued statement's own 30 ms deadline must beat the 10 s "
         "queue timeout";
}

TEST_F(Governance, AdmissionQueueDrainsInFifoOrder) {
  auto shared = std::make_shared<Database>();
  Connection writer(shared);
  writer.execute_update("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)");
  shared->governor().configure({1, 16, /*queue_timeout_ms=*/10000});

  writer.begin();  // everyone below queues behind this transaction
  std::vector<std::thread> threads;
  for (int i = 0; i < 3; ++i) {
    threads.emplace_back([&, i] {
      // The row id records the order the statements ran in while holding
      // the single slot, i.e. the admission order. (Recording order after
      // the statement returns would race the next admitted statement.)
      Connection conn(shared);
      conn.execute_update("INSERT INTO t (v) VALUES (" + std::to_string(i) +
                          ")");
    });
    // Arrival order is the queue order: wait until thread i is queued
    // before launching thread i+1.
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(10);
    while (shared->governor().queued() < i + 1 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(shared->governor().queued(), i + 1) << "thread never queued";
  }
  writer.commit();
  for (auto& t : threads) t.join();

  std::vector<int> admission_order;
  auto rs = writer.execute("SELECT v FROM t ORDER BY id");
  while (rs.next()) admission_order.push_back(static_cast<int>(rs.get_int(1)));
  EXPECT_EQ(admission_order, (std::vector<int>{0, 1, 2}));
}

// ------------------------------------------------ lock-manager guards

TEST_F(Governance, ExpiredDeadlineOnLockWaitDeliversTimeoutPromptly) {
  // Regression: LockManager::wait_slice used to clamp the remaining
  // deadline straight into try_lock_for, so a deadline that expired
  // before (or during) the lock wait produced a zero-length wait that
  // spun without ever delivering kTimeout. The slice is now floored at
  // 1 ms and an already-expired deadline throws via check_now() before
  // sleeping again.
  auto shared = std::make_shared<Database>();
  Connection writer(shared);
  writer.execute_update("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)");

  writer.begin();  // this thread holds the writer mutex across the test
  std::optional<DbError::Kind> seen;
  std::int64_t waited = 0;
  std::thread blocked([&] {
    Connection conn(shared);
    conn.set_statement_timeout_ms(1);  // expired by the time the lock spins
    const auto start = std::chrono::steady_clock::now();
    try {
      conn.execute_update("INSERT INTO t (v) VALUES (1)");
    } catch (const DbError& e) {
      seen = e.kind();
      waited = elapsed_ms(start);
    }
  });
  blocked.join();  // must return without the writer ever committing
  writer.commit();

  ASSERT_TRUE(seen.has_value()) << "DML outran an open writer transaction";
  EXPECT_EQ(*seen, DbError::Kind::kTimeout);
  EXPECT_LT(waited, 2000);
  // The rejected statement left nothing behind.
  EXPECT_EQ(scalar(writer, "SELECT COUNT(*) FROM t"), 0);
}

TEST_F(Governance, ReleasingAForeignTransactionLockIsRejectedTyped) {
  // Regression: release_transaction() used to unlock unconditionally;
  // COMMIT/ROLLBACK issued from a thread that never ran BEGIN unlocked a
  // mutex it did not own — undefined behaviour. The mismatch is now
  // detected up front and surfaces as a typed DbError, leaving the
  // owner's transaction intact.
  auto shared = std::make_shared<Database>();
  Connection conn(shared);
  conn.execute_update("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)");

  // No transaction anywhere: releasing is a caller bug, not UB.
  EXPECT_THROW(shared->locks().release_transaction(), DbError);

  conn.begin();
  conn.execute_update("INSERT INTO t (v) VALUES (1)");
  std::optional<std::string> message;
  std::thread foreign([&] {
    try {
      shared->locks().release_transaction();
    } catch (const DbError& e) {
      message = e.what();
    }
  });
  foreign.join();
  ASSERT_TRUE(message.has_value()) << "foreign release was not rejected";
  EXPECT_NE(message->find("not owned by this thread"), std::string::npos)
      << *message;

  // The guard rejected the release without touching the lock: the owner
  // still holds its transaction and can commit it.
  EXPECT_TRUE(shared->locks().owned_by_this_thread());
  conn.commit();
  EXPECT_EQ(scalar(conn, "SELECT COUNT(*) FROM t"), 1);
}

// -------------------------------------- degraded read-only (ENOSPC)

TEST_F(Governance, StickyEnospcEntersReadOnlyAndManualProbeRecovers) {
  u::ScopedTempDir dir;
  const auto db_dir = dir.path() / "db";
  const std::uint64_t entered_before = counter_value("gov.readonly_entered");
  {
    Connection conn(db_dir);
    conn.execute_update("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)");
    conn.execute_update("INSERT INTO t (v) VALUES (1)");  // pre-fault commit

    // "The disk is full": every WAL append and every recovery probe
    // fails with ENOSPC until cleared.
    fp::enable_every("wal.append", perfdmf::util::FailAction::kError, 1,
                     kEnospc);
    fp::enable_every("wal.probe", perfdmf::util::FailAction::kError, 1,
                     kEnospc);

    try {
      conn.execute_update("INSERT INTO t (v) VALUES (2)");
      FAIL() << "write succeeded on a full disk";
    } catch (const DbError& e) {
      EXPECT_EQ(e.kind(), DbError::Kind::kReadOnly) << e.what();
    }
    EXPECT_TRUE(conn.database().read_only());
    EXPECT_FALSE(conn.database().read_only_reason().empty());
    expect_counter_bumped("gov.readonly_entered", entered_before);

    // Reads keep serving — and the failed insert left no partial state.
    EXPECT_EQ(scalar(conn, "SELECT COUNT(*) FROM t"), 1);

    // Further writes fail fast, typed.
    const auto start = std::chrono::steady_clock::now();
    try {
      conn.execute_update("INSERT INTO t (v) VALUES (3)");
      FAIL() << "write admitted while degraded";
    } catch (const DbError& e) {
      EXPECT_EQ(e.kind(), DbError::Kind::kReadOnly) << e.what();
    }
    EXPECT_LT(elapsed_ms(start), 1000);

    // Space comes back: the probe re-enables writes.
    fp::clear_all();
    EXPECT_TRUE(conn.database().try_exit_read_only());
    EXPECT_FALSE(conn.database().read_only());
    conn.execute_update("INSERT INTO t (v) VALUES (4)");
  }
  // Recovery holds exactly the committed rows: nothing lost, nothing
  // from the rejected writes.
  Connection conn(db_dir);
  const auto rows = dump(conn, "SELECT v FROM t ORDER BY v");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0], "1");
  EXPECT_EQ(rows[1][0], "4");
}

TEST_F(Governance, ConcurrentReadsKeepServingWhileDegraded) {
  u::ScopedTempDir dir;
  auto shared = std::make_shared<Database>(dir.path() / "db");
  Connection writer(shared);
  writer.execute_update("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)");
  writer.execute_update("INSERT INTO t (v) VALUES (1)");

  fp::enable_every("wal.append", perfdmf::util::FailAction::kError, 1, kEnospc);
  fp::enable_every("wal.probe", perfdmf::util::FailAction::kError, 1, kEnospc);
  EXPECT_THROW(writer.execute_update("INSERT INTO t (v) VALUES (2)"), DbError);
  ASSERT_TRUE(shared->read_only());

  std::atomic<int> read_failures{0};
  std::vector<std::thread> readers;
  for (int i = 0; i < 4; ++i) {
    readers.emplace_back([&] {
      Connection conn(shared);
      for (int j = 0; j < 50; ++j) {
        auto rs = conn.execute("SELECT COUNT(*) FROM t");
        if (!rs.next() || rs.get_int(1) != 1) read_failures.fetch_add(1);
      }
    });
  }
  for (auto& t : readers) t.join();
  EXPECT_EQ(read_failures.load(), 0);

  fp::clear_all();
  EXPECT_TRUE(shared->try_exit_read_only());
  writer.execute_update("INSERT INTO t (v) VALUES (5)");
}

TEST_F(Governance, AutomaticProbeExitsReadOnlyOnceSpaceReturns) {
  u::ScopedTempDir dir;
  Connection conn(dir.path() / "db");
  conn.execute_update("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)");

  fp::enable_every("wal.append", perfdmf::util::FailAction::kError, 1, kEnospc);
  fp::enable_every("wal.probe", perfdmf::util::FailAction::kError, 1, kEnospc);
  EXPECT_THROW(conn.execute_update("INSERT INTO t (v) VALUES (1)"), DbError);
  EXPECT_THROW(conn.execute_update("INSERT INTO t (v) VALUES (2)"), DbError);
  ASSERT_TRUE(conn.database().read_only());

  // Space returns; after the probe interval the next rejected write's
  // automatic probe flips the database back — no manual intervention.
  fp::clear_all();
  const std::uint64_t exited_before = counter_value("gov.readonly_exited");
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  conn.execute_update("INSERT INTO t (v) VALUES (3)");
  EXPECT_FALSE(conn.database().read_only());
  expect_counter_bumped("gov.readonly_exited", exited_before);
  EXPECT_EQ(scalar(conn, "SELECT COUNT(*) FROM t"), 1);
}

TEST_F(Governance, EnospcDuringCheckpointDegradesWithoutDataLoss) {
  u::ScopedTempDir dir;
  const auto db_dir = dir.path() / "db";
  {
    Connection conn(db_dir);
    conn.execute_update("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)");
    conn.execute_update("INSERT INTO t (v) VALUES (1)");

    fp::enable_every("snapshot.write", perfdmf::util::FailAction::kError, 1,
                     kEnospc);
    fp::enable_every("wal.probe", perfdmf::util::FailAction::kError, 1,
                     kEnospc);
    try {
      conn.checkpoint();
      FAIL() << "checkpoint succeeded on a full disk";
    } catch (const DbError& e) {
      EXPECT_EQ(e.kind(), DbError::Kind::kReadOnly) << e.what();
    }
    EXPECT_TRUE(conn.database().read_only());
    EXPECT_EQ(scalar(conn, "SELECT COUNT(*) FROM t"), 1);

    fp::clear_all();
    EXPECT_TRUE(conn.database().try_exit_read_only());
    conn.checkpoint();  // and now it goes through
    conn.execute_update("INSERT INTO t (v) VALUES (2)");
  }
  Connection conn(db_dir);
  EXPECT_EQ(scalar(conn, "SELECT COUNT(*) FROM t"), 2);
}

// A transient ENOSPC (a burst that clears while the write retries) is
// ridden out by the bounded backoff without degrading anything.
TEST_F(Governance, TransientEnospcIsRetriedNotDegraded) {
  u::ScopedTempDir dir;
  Connection conn(dir.path() / "db");
  conn.execute_update("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)");

  fp::enable("wal.append", perfdmf::util::FailAction::kError, 1, kEnospc);
  conn.execute_update("INSERT INTO t (v) VALUES (1)");  // retry absorbs it
  EXPECT_FALSE(conn.database().read_only());
  EXPECT_EQ(scalar(conn, "SELECT COUNT(*) FROM t"), 1);
}

// ------------------------------------------------- failpoint modes

using FailpointModes = Governance;

TEST_F(FailpointModes, MalformedSpecWarnsAndReturnsFalse) {
  EXPECT_FALSE(fp::arm_from_spec("no-equals-sign"));
  EXPECT_FALSE(fp::arm_from_spec("=error"));
  EXPECT_FALSE(fp::arm_from_spec("wal.append=frobnicate"));
  EXPECT_FALSE(fp::arm_from_spec("wal.append=error:not-a-number"));
  EXPECT_FALSE(fp::arm_from_spec("wal.append=error:every=0"));
  EXPECT_FALSE(fp::arm_from_spec("wal.append=error:1:2:3"));
  EXPECT_TRUE(fp::list_armed().empty());

  EXPECT_TRUE(fp::arm_from_spec("wal.append=error:every=1:arg=28"));
  EXPECT_TRUE(fp::arm_from_spec("wal.sync=delay:p=0.5:arg=2"));
  EXPECT_TRUE(fp::arm_from_spec("snapshot.install=abort"));
  const auto armed = fp::list_armed();
  ASSERT_EQ(armed.size(), 3u);
  // Sorted by site name; each line round-trips mode and argument.
  EXPECT_EQ(armed[0], "snapshot.install=abort:1:arg=0");
  EXPECT_EQ(armed[1], "wal.append=error:every=1:arg=28");
  EXPECT_EQ(armed[2], "wal.sync=delay:p=0.5:arg=2");
}

TEST_F(FailpointModes, EveryNFiresOnCadenceAndStaysArmed) {
  fp::enable_every("test.site", perfdmf::util::FailAction::kError, 3, 0);
  std::vector<int> fired;
  for (int i = 1; i <= 9; ++i) {
    if (fp::hit("test.site")) fired.push_back(i);
  }
  EXPECT_EQ(fired, (std::vector<int>{3, 6, 9}));
  EXPECT_EQ(fp::list_armed().size(), 1u);  // every-N never disarms itself
}

TEST_F(FailpointModes, OneShotDisarmsAfterFiring) {
  fp::enable("test.site", perfdmf::util::FailAction::kError, 2, 0);
  EXPECT_FALSE(fp::hit("test.site").has_value());
  EXPECT_TRUE(fp::hit("test.site").has_value());
  EXPECT_FALSE(fp::hit("test.site").has_value());
  EXPECT_TRUE(fp::list_armed().empty());
}

TEST_F(FailpointModes, ProbabilityStreamIsDeterministicPerSeed) {
  const auto draw = [](std::uint64_t seed) {
    fp::clear_all();
    fp::set_seed(seed);
    fp::enable_probability("test.site", perfdmf::util::FailAction::kError, 0.5);
    std::vector<bool> pattern;
    for (int i = 0; i < 64; ++i) {
      pattern.push_back(fp::hit("test.site").has_value());
    }
    return pattern;
  };
  const auto a = draw(42);
  const auto b = draw(42);
  const auto c = draw(43);
  EXPECT_EQ(a, b) << "same seed must replay the same schedule";
  EXPECT_NE(a, c) << "different seeds must diverge";
  const int fires = static_cast<int>(std::count(a.begin(), a.end(), true));
  EXPECT_GT(fires, 8) << "p=0.5 over 64 draws";
  EXPECT_LT(fires, 56);

  fp::clear_all();
  fp::enable_probability("test.site", perfdmf::util::FailAction::kError, 0.0);
  for (int i = 0; i < 32; ++i) EXPECT_FALSE(fp::hit("test.site").has_value());
  fp::enable_probability("test.site", perfdmf::util::FailAction::kError, 1.0);
  for (int i = 0; i < 32; ++i) EXPECT_TRUE(fp::hit("test.site").has_value());
}
