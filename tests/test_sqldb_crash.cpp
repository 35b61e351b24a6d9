// Crash-recovery harness: fork a child that runs a transactional
// workload with an armed failpoint, let it die mid-write, then reopen
// the store in the parent and check the durability contract:
//
//   - every transaction whose commit() returned is fully present;
//   - a transaction that never reached commit (rolled back, or killed
//     mid-flight) contributes either nothing or — if the crash landed
//     between the WAL write and the commit acknowledgement — all of its
//     rows, never a partial set;
//   - recovery is idempotent: reopening twice yields identical contents.
//
// The workload, the kill point, and the verification all derive from one
// seed, so a failure reproduces exactly; the failing iteration's seed and
// kill point are printed for shrinking by hand.
//
// fork() is unreliable under TSan (the runtime's internal threads do not
// survive it), so the fork-based tests skip there; the ctest `crash`
// label is likewise excluded from the TSan suite in scripts/check.sh.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "sqldb/connection.h"
#include "sqldb/lock_manager.h"  // PERFDMF_TSAN
#include "util/error.h"
#include "util/failpoint.h"
#include "util/file.h"
#include "util/log.h"
#include "util/rng.h"

using namespace perfdmf::sqldb;
namespace u = perfdmf::util;
namespace fp = perfdmf::util::failpoint;

namespace {

// Failpoints are process-global state; never leak one into the next test.
class CrashRecovery : public ::testing::Test {
 protected:
  void TearDown() override { fp::clear_all(); }
};
using FailpointRollback = CrashRecovery;

// ----------------------------------------------------------------- plan

struct TxnPlan {
  std::int64_t id = 0;        // txn marker stored in every row
  int rows = 0;               // rows this transaction inserts
  bool commit = false;        // else ROLLBACK
  bool autocommit_before = false;  // one out-of-txn INSERT first (id + 500)
  bool checkpoint_after = false;
};

/// The deterministic workload for one iteration; the child executes it
/// and the parent verifies against it, each deriving it independently.
std::vector<TxnPlan> make_plan(std::uint64_t seed, int iter) {
  u::Rng rng(seed * 7919 + static_cast<std::uint64_t>(iter));
  std::vector<TxnPlan> plan(2 + rng.next_below(4));
  for (std::size_t t = 0; t < plan.size(); ++t) {
    plan[t].id = static_cast<std::int64_t>(iter) * 1000 +
                 static_cast<std::int64_t>(t);
    plan[t].rows = 1 + static_cast<int>(rng.next_below(5));
    plan[t].commit = rng.next_below(5) != 0;  // 20% planned rollbacks
    plan[t].autocommit_before = rng.next_below(3) == 0;
    plan[t].checkpoint_after = rng.next_below(4) == 0;
  }
  return plan;
}

struct KillPoint {
  const char* site;
  perfdmf::util::FailAction action;
  int countdown;
  int arg;
  // Sticky ENOSPC: the disk "fills" permanently, so the child degrades
  // to read-only and dies on the first rejected write instead of
  // crashing at a single evaluation.
  bool sticky_enospc = false;
};

/// Pick where and how the child dies. kShortWrite only makes sense at
/// fd-backed sites that apply it (the snapshot.* sites are pure
/// crash/error points).
KillPoint make_kill_point(std::uint64_t seed, int iter) {
  u::Rng rng(seed ^ (0x9e3779b9ULL + static_cast<std::uint64_t>(iter) * 31));
  if (rng.next_below(6) == 0) {
    // Degraded-mode kill point: every write to this site fails ENOSPC,
    // the ENOSPC retry loop exhausts, the database enters read-only,
    // and the child exits on the resulting DbError. Nothing it never
    // acknowledged may survive.
    static constexpr const char* kStickySites[] = {"wal.append", "wal.commit",
                                                   "snapshot.write"};
    return {kStickySites[rng.next_below(std::size(kStickySites))],
            perfdmf::util::FailAction::kError, 1, 28 /* ENOSPC */, true};
  }
  static constexpr struct {
    const char* site;
    bool fd_backed;
  } kSites[] = {
      {"wal.append", true},    {"wal.commit", true},
      {"wal.commit", true},  // weighted: the richest crash window
      {"wal.sync", false},     {"wal.reset", false},
      {"wal.group_sync", false},  // leader dies before the group fsync
      {"snapshot.write", false}, {"snapshot.rotate", false},
      {"snapshot.install", false}, {"util.write_file", true},
  };
  const auto& site = kSites[rng.next_below(std::size(kSites))];
  perfdmf::util::FailAction action;
  switch (rng.next_below(3)) {
    case 0:
      action = perfdmf::util::FailAction::kAbort;
      break;
    case 1:
      action = site.fd_backed ? perfdmf::util::FailAction::kShortWrite
                              : perfdmf::util::FailAction::kAbort;
      break;
    default:
      action = perfdmf::util::FailAction::kError;
      break;
  }
  return {site.site, action, 1 + static_cast<int>(rng.next_below(8)),
          static_cast<int>(rng.next_below(64))};
}

// ---------------------------------------------------------------- child

/// Run the iteration's workload with the kill point armed. Reports
/// "<id> <rows>" to `report_path` after each acknowledged commit. Exits
/// via _exit only (no destructors, no checkpoint-on-close): a run that
/// outlives its failpoint still ends as an unclean shutdown, so the
/// parent always recovers from WAL/snapshot state, never from a tidy
/// close.
[[noreturn]] void run_child(const std::filesystem::path& db_dir,
                            const std::filesystem::path& report_path,
                            std::uint64_t seed, int iter) {
  // The child's recovery chatter (reopening after the previous
  // iteration's crash) would flood the test log 200 times over.
  u::set_log_level(u::LogLevel::kOff);

  const int report_fd =
      ::open(report_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (report_fd < 0) ::_exit(70);
  const auto report = [report_fd](std::int64_t id, int rows) {
    char line[64];
    const int len = std::snprintf(line, sizeof line, "%lld %d\n",
                                  static_cast<long long>(id), rows);
    if (::write(report_fd, line, static_cast<std::size_t>(len)) != len) {
      ::_exit(70);
    }
  };

  const KillPoint kill = make_kill_point(seed, iter);
  if (kill.sticky_enospc) {
    fp::enable_every(kill.site, kill.action, 1, kill.arg);
  } else {
    fp::enable(kill.site, kill.action, kill.countdown, kill.arg);
  }

  try {
    Connection conn(db_dir);
    auto stmt = conn.prepare("INSERT INTO log (txn, v) VALUES (?, ?)");
    for (const TxnPlan& t : make_plan(seed, iter)) {
      if (t.autocommit_before) {
        stmt.set_int(1, t.id + 500);
        stmt.set_int(2, 0);
        stmt.execute_update();
        report(t.id + 500, 1);
      }
      // SQL-level transaction control: COMMIT runs through the governed
      // statement path, which defers the WAL fsync into the group-commit
      // queue — so the wal.group_sync kill point lands in the real
      // leader-fsync window, between lock release and acknowledgement.
      conn.execute("BEGIN");
      for (int i = 0; i < t.rows; ++i) {
        stmt.set_int(1, t.id);
        stmt.set_int(2, i);
        stmt.execute_update();
      }
      if (t.commit) {
        conn.execute("COMMIT");
        report(t.id, t.rows);
      } else {
        conn.execute("ROLLBACK");
      }
      if (t.checkpoint_after) conn.checkpoint();
    }
  } catch (const std::exception&) {
    // An injected kError surfaced as IoError: treat it as the crash it
    // simulates.
    ::_exit(fp::kCrashExitCode);
  }
  ::_exit(0);
}

std::map<std::int64_t, std::set<std::int64_t>> dump_rows(Connection& conn) {
  std::map<std::int64_t, std::set<std::int64_t>> rows;
  auto rs = conn.execute("SELECT txn, v FROM log");
  while (rs.next()) rows[rs.get_int(1)].insert(rs.get_int(2));
  return rows;
}

}  // namespace

// ------------------------------------------------------------- harness

TEST_F(CrashRecovery, RandomKillPointsPreserveCommittedTransactions) {
#if PERFDMF_TSAN
  GTEST_SKIP() << "fork() is unreliable under TSan";
#endif
  // PERFDMF_SEED replays a reported failing seed without recompiling.
  const std::uint64_t kSeed = u::seed_from_env(0xC0FFEE);
  constexpr int kIterations = 220;

  u::ScopedTempDir dir;
  const auto db_dir = dir.path() / "db";
  const auto report_path = dir.path() / "committed.txt";
  {
    Connection conn(db_dir);
    conn.execute_update(
        "CREATE TABLE log (id INTEGER PRIMARY KEY, txn INTEGER, v INTEGER)");
    conn.execute_update("CREATE INDEX idx_txn ON log (txn)");
    conn.checkpoint();
  }

  // id -> row count the store must hold, accumulated across iterations.
  std::map<std::int64_t, int> expected;

  for (int iter = 0; iter < kIterations; ++iter) {
    const KillPoint kill = make_kill_point(kSeed, iter);
    SCOPED_TRACE(::testing::Message()
                 << "iteration " << iter << ", kill point " << kill.site
                 << " action " << static_cast<int>(kill.action)
                 << " countdown " << kill.countdown << " arg " << kill.arg
                 << (kill.sticky_enospc ? " sticky-enospc" : "")
                 << " (seed 0x" << std::hex << kSeed << std::dec
                 << "; replay with PERFDMF_SEED=" << kSeed << ")");

    std::filesystem::remove(report_path);
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0) << "fork failed";
    if (pid == 0) run_child(db_dir, report_path, kSeed, iter);

    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status)) << "child did not exit normally";
    const int code = WEXITSTATUS(status);
    ASSERT_TRUE(code == 0 || code == fp::kCrashExitCode)
        << "child exited with unexpected code " << code;

    // Commits the child acknowledged are non-negotiable.
    if (std::filesystem::exists(report_path)) {
      std::ifstream in(report_path);
      std::int64_t id = 0;
      int rows = 0;
      while (in >> id >> rows) expected[id] = rows;
    }

    const auto plan = make_plan(kSeed, iter);
    std::map<std::int64_t, std::set<std::int64_t>> actual;
    {
      Connection conn(db_dir);
      actual = dump_rows(conn);

      for (const TxnPlan& t : plan) {
        const auto it = actual.find(t.id);
        const int count =
            it == actual.end() ? 0 : static_cast<int>(it->second.size());
        if (!t.commit) {
          ASSERT_EQ(count, 0) << "rolled-back txn " << t.id << " left rows";
        } else if (!expected.count(t.id)) {
          // Commit never acknowledged: the crash decides, but atomically.
          ASSERT_TRUE(count == 0 || count == t.rows)
              << "txn " << t.id << " is partially present: " << count << "/"
              << t.rows << " rows";
          if (count != 0) expected[t.id] = t.rows;
        }
        if (t.autocommit_before && !expected.count(t.id + 500)) {
          const auto ac = actual.find(t.id + 500);
          const int ac_count =
              ac == actual.end() ? 0 : static_cast<int>(ac->second.size());
          ASSERT_LE(ac_count, 1) << "autocommit row " << t.id + 500
                                 << " duplicated";
          if (ac_count != 0) expected[t.id + 500] = 1;
        }
      }

      // The store holds exactly the settled state: every expected txn in
      // full, nothing else — committed data survived, uncommitted data
      // (this iteration's and every earlier one's) stayed invisible.
      ASSERT_EQ(actual.size(), expected.size());
      for (const auto& [id, rows] : expected) {
        const auto it = actual.find(id);
        ASSERT_NE(it, actual.end()) << "committed txn " << id << " lost";
        ASSERT_EQ(it->second.size(), static_cast<std::size_t>(rows))
            << "committed txn " << id << " incomplete";
        for (int v = 0; v < rows; ++v) {
          ASSERT_TRUE(it->second.count(v))
              << "txn " << id << " missing row value " << v;
        }
      }
    }  // close: checkpoint-on-close rewrites the snapshot chain

    // Idempotence: recovering the recovered store changes nothing.
    Connection again(db_dir);
    ASSERT_EQ(dump_rows(again), actual)
        << "second recovery produced different contents";
  }
}

// ------------------------------------------- directed failpoint tests

TEST_F(FailpointRollback, CommitWalFailureRollsBackMemoryAndDisk) {
  u::ScopedTempDir dir;
  const auto db_dir = dir.path() / "db";
  {
    Connection conn(db_dir);
    conn.execute_update("CREATE TABLE t (id INTEGER PRIMARY KEY, x INTEGER)");
    conn.execute_update("INSERT INTO t (x) VALUES (1)");

    fp::enable("wal.commit", perfdmf::util::FailAction::kError);
    conn.begin();
    conn.execute_update("INSERT INTO t (x) VALUES (2)");
    conn.execute_update("INSERT INTO t (x) VALUES (3)");
    EXPECT_THROW(conn.commit(), perfdmf::IoError);

    // The failed commit must leave no trace in memory...
    auto rs = conn.execute("SELECT COUNT(*) FROM t");
    rs.next();
    EXPECT_EQ(rs.get_int(1), 1);
    // ...and the connection stays usable.
    conn.execute_update("INSERT INTO t (x) VALUES (4)");
  }
  // ...nor on disk after recovery.
  Connection conn(db_dir);
  auto rs = conn.execute("SELECT x FROM t ORDER BY x");
  ASSERT_EQ(rs.row_count(), 2u);
  rs.next();
  EXPECT_EQ(rs.get_int(1), 1);
  rs.next();
  EXPECT_EQ(rs.get_int(1), 4);
}

TEST_F(FailpointRollback, AutocommitWalFailureRollsBackStatement) {
  u::ScopedTempDir dir;
  const auto db_dir = dir.path() / "db";
  {
    Connection conn(db_dir);
    conn.execute_update("CREATE TABLE t (id INTEGER PRIMARY KEY, x INTEGER)");

    fp::enable("wal.append", perfdmf::util::FailAction::kError);
    EXPECT_THROW(conn.execute_update("INSERT INTO t (x) VALUES (1), (2)"),
                 perfdmf::IoError);
    auto rs = conn.execute("SELECT COUNT(*) FROM t");
    rs.next();
    EXPECT_EQ(rs.get_int(1), 0);  // multi-row statement fully undone
  }
  Connection conn(db_dir);
  auto rs = conn.execute("SELECT COUNT(*) FROM t");
  rs.next();
  EXPECT_EQ(rs.get_int(1), 0);
}

TEST_F(FailpointRollback, CheckpointFailureKeepsStoreRecoverable) {
  u::ScopedTempDir dir;
  const auto db_dir = dir.path() / "db";
  {
    Connection conn(db_dir);
    conn.execute_update("CREATE TABLE t (id INTEGER PRIMARY KEY, x INTEGER)");
    conn.execute_update("INSERT INTO t (x) VALUES (1)");
    conn.checkpoint();
    conn.execute_update("INSERT INTO t (x) VALUES (2)");

    // Die at each snapshot stage in turn; every one must leave a store
    // that recovers completely.
    for (const char* site : {"snapshot.write", "snapshot.rotate",
                             "snapshot.install", "wal.reset"}) {
      fp::enable(site, perfdmf::util::FailAction::kError);
      EXPECT_THROW(conn.checkpoint(), perfdmf::IoError) << site;
    }
    conn.execute_update("INSERT INTO t (x) VALUES (3)");
    // Leave without a clean close: the final checkpoint fails too.
    fp::enable("snapshot.write", perfdmf::util::FailAction::kError);
  }
  fp::clear_all();
  Connection conn(db_dir);
  auto rs = conn.execute("SELECT COUNT(*) FROM t");
  rs.next();
  EXPECT_EQ(rs.get_int(1), 3);
}

TEST_F(CrashRecovery, TornCommitWriteIsInvisibleAfterRestart) {
#if PERFDMF_TSAN
  GTEST_SKIP() << "fork() is unreliable under TSan";
#endif
  u::ScopedTempDir dir;
  const auto db_dir = dir.path() / "db";
  {
    Connection conn(db_dir);
    conn.execute_update("CREATE TABLE t (id INTEGER PRIMARY KEY, x INTEGER)");
    conn.execute_update("INSERT INTO t (x) VALUES (1)");
    conn.checkpoint();
  }
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    u::set_log_level(u::LogLevel::kOff);
    // Persist 40 bytes of the commit record, then die — a torn write.
    fp::enable("wal.commit", perfdmf::util::FailAction::kShortWrite, 1, 40);
    try {
      Connection conn(db_dir);
      conn.begin();
      conn.execute_update("INSERT INTO t (x) VALUES (2)");
      conn.execute_update("INSERT INTO t (x) VALUES (3)");
      conn.commit();  // dies inside the WAL write
    } catch (const std::exception&) {
    }
    ::_exit(1);  // only the failpoint exit is expected
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), fp::kCrashExitCode);

  Connection conn(db_dir);
  EXPECT_TRUE(conn.recovery_report().clean());  // a torn tail is expected
  auto rs = conn.execute("SELECT COUNT(*) FROM t");
  rs.next();
  EXPECT_EQ(rs.get_int(1), 1);  // the unacknowledged txn vanished whole
}

// Group commit, directed: several threads commit concurrently under
// SyncMode::kAlways, so their WAL fsyncs coalesce behind one leader; the
// child dies at the leader's group-fsync point. Every commit a thread
// acknowledged (its COMMIT statement returned, i.e. wait_durable saw the
// record fsynced) must survive recovery in full, and commits caught
// mid-group may land either way — but never torn.
TEST_F(CrashRecovery, CrashMidGroupFsyncRecoversEveryAcknowledgedCommit) {
#if PERFDMF_TSAN
  GTEST_SKIP() << "fork() is unreliable under TSan";
#endif
  u::ScopedTempDir dir;
  const auto db_dir = dir.path() / "db";
  {
    DurabilityOptions opts;
    opts.sync = SyncMode::kAlways;
    Connection conn(db_dir, opts);
    conn.execute_update(
        "CREATE TABLE log (id INTEGER PRIMARY KEY, txn INTEGER, v INTEGER)");
    conn.checkpoint();
  }
  const auto report_path = dir.path() / "acked.txt";

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    u::set_log_level(u::LogLevel::kOff);
    // Every fsync takes at least 1 ms, so commits queue up behind the
    // leader and its rounds genuinely cover several followers' commits
    // when the crash hits.
    fp::enable_every("wal.sync", perfdmf::util::FailAction::kDelay, 1, 1);
    // The third leader round dies between lock release and fsync.
    fp::enable("wal.group_sync", perfdmf::util::FailAction::kAbort, 3, 0);

    const int report_fd =
        ::open(report_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (report_fd < 0) ::_exit(70);
    try {
      DurabilityOptions opts;
      opts.sync = SyncMode::kAlways;
      Connection root(db_dir, opts);
      const auto database = root.database_ptr();
      constexpr int kThreads = 4;
      constexpr int kTxnsPerThread = 12;
      constexpr int kRowsPerTxn = 3;
      std::vector<std::thread> committers;
      for (int t = 0; t < kThreads; ++t) {
        committers.emplace_back([&database, report_fd, t] {
          try {
            Connection conn(database);
            auto stmt = conn.prepare("INSERT INTO log (txn, v) VALUES (?, ?)");
            for (int i = 0; i < kTxnsPerThread; ++i) {
              const std::int64_t tag = t * 100 + i;
              conn.execute("BEGIN");
              for (int v = 0; v < kRowsPerTxn; ++v) {
                stmt.set_int(1, tag);
                stmt.set_int(2, v);
                stmt.execute_update();
              }
              conn.execute("COMMIT");  // returns only once durable
              char line[64];
              const int len =
                  std::snprintf(line, sizeof line, "%lld %d\n",
                                static_cast<long long>(tag), kRowsPerTxn);
              if (::write(report_fd, line, static_cast<std::size_t>(len)) !=
                  len) {
                ::_exit(70);
              }
            }
          } catch (const std::exception&) {
            ::_exit(9);  // a commit failed for a non-crash reason
          }
        });
      }
      for (auto& c : committers) c.join();
    } catch (const std::exception&) {
      ::_exit(8);
    }
    ::_exit(0);  // countdown 3 should have killed us long before this
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), fp::kCrashExitCode)
      << "child did not die at the group-fsync kill point";

  std::map<std::int64_t, int> acked;
  {
    std::ifstream in(report_path);
    std::int64_t tag = 0;
    int rows = 0;
    while (in >> tag >> rows) acked[tag] = rows;
  }

  for (int reopen = 0; reopen < 2; ++reopen) {  // recovery is idempotent
    Connection conn(db_dir);
    const auto actual = dump_rows(conn);
    for (const auto& [tag, rows] : acked) {
      const auto it = actual.find(tag);
      ASSERT_NE(it, actual.end())
          << "acknowledged commit " << tag << " lost (reopen " << reopen << ")";
      EXPECT_EQ(it->second.size(), static_cast<std::size_t>(rows))
          << "acknowledged commit " << tag << " incomplete";
    }
    // Unacknowledged commits: the crash decides, but atomically.
    for (const auto& [tag, values] : actual) {
      EXPECT_TRUE(values.size() == 3u)
          << "txn " << tag << " is torn: " << values.size() << "/3 rows";
    }
  }
}

// Degraded-mode kill point, directed: the child's disk fills for good,
// it degrades to read-only (still serving reads), then dies uncleanly.
// Recovery must hold exactly the writes acknowledged before the fault.
TEST_F(CrashRecovery, ChildDyingInDegradedModeKeepsCommittedData) {
#if PERFDMF_TSAN
  GTEST_SKIP() << "fork() is unreliable under TSan";
#endif
  u::ScopedTempDir dir;
  const auto db_dir = dir.path() / "db";
  {
    Connection conn(db_dir);
    conn.execute_update("CREATE TABLE t (id INTEGER PRIMARY KEY, x INTEGER)");
    conn.execute_update("INSERT INTO t (x) VALUES (1)");
    conn.checkpoint();
  }
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    u::set_log_level(u::LogLevel::kOff);
    try {
      Connection conn(db_dir);
      conn.execute_update("INSERT INTO t (x) VALUES (2)");  // acked pre-fault
      fp::enable_every("wal.append", perfdmf::util::FailAction::kError, 1,
                       28 /* ENOSPC */);
      try {
        conn.execute_update("INSERT INTO t (x) VALUES (3)");
        ::_exit(3);  // a write went through on a full disk
      } catch (const perfdmf::DbError& e) {
        if (e.kind() != perfdmf::DbError::Kind::kReadOnly) ::_exit(4);
      }
      if (!conn.database().read_only()) ::_exit(5);
      // Degraded means readable: the store still answers, without the
      // rolled-back row.
      auto rs = conn.execute("SELECT COUNT(*) FROM t");
      if (!rs.next() || rs.get_int(1) != 2) ::_exit(6);
    } catch (const std::exception&) {
      ::_exit(7);
    }
    ::_exit(fp::kCrashExitCode);  // die degraded, no clean close
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), fp::kCrashExitCode)
      << "child failed a degraded-mode invariant (see exit code)";

  for (int reopen = 0; reopen < 2; ++reopen) {  // and recovery is idempotent
    Connection conn(db_dir);
    auto rs = conn.execute("SELECT x FROM t ORDER BY x");
    ASSERT_EQ(rs.row_count(), 2u) << "reopen " << reopen;
    rs.next();
    EXPECT_EQ(rs.get_int(1), 1);
    rs.next();
    EXPECT_EQ(rs.get_int(1), 2);
  }
}
