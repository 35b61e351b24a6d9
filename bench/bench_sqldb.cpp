// E7 — database engine micro-benchmarks (substrate validation).
//
// The paper outsources storage to PostgreSQL/MySQL/Oracle/DB2; this repo
// implements the engine. These google-benchmark cases size the primitives
// PerfDMF leans on: bulk prepared inserts, PK point lookups, indexed range
// scans, grouped aggregates, and the event/profile join.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "sqldb/connection.h"
#include "sqldb/database.h"
#include "util/file.h"
#include "util/timer.h"

using namespace perfdmf::sqldb;

namespace {

/// Build a table shaped like interval_location_profile with `rows` rows.
std::unique_ptr<Connection> make_profile_table(std::int64_t rows) {
  auto conn = std::make_unique<Connection>();
  conn->execute_update(
      "CREATE TABLE profile (id INTEGER PRIMARY KEY, event INTEGER,"
      " node INTEGER, metric INTEGER, inclusive REAL, exclusive REAL)");
  conn->execute_update("CREATE INDEX idx_event ON profile (event)");
  conn->execute_update("CREATE INDEX idx_node ON profile (node)");
  auto stmt = conn->prepare(
      "INSERT INTO profile (event, node, metric, inclusive, exclusive)"
      " VALUES (?, ?, ?, ?, ?)");
  conn->begin();
  for (std::int64_t i = 0; i < rows; ++i) {
    stmt.set_int(1, i % 101);
    stmt.set_int(2, i / 101);
    stmt.set_int(3, 0);
    stmt.set_double(4, 100.0 + static_cast<double>(i % 997));
    stmt.set_double(5, 90.0 + static_cast<double>(i % 991));
    stmt.execute_update();
  }
  conn->commit();
  return conn;
}

void BM_PreparedInsert(benchmark::State& state) {
  Connection conn;
  conn.execute_update(
      "CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER, b REAL, c TEXT)");
  auto stmt = conn.prepare("INSERT INTO t (a, b, c) VALUES (?, ?, ?)");
  std::int64_t i = 0;
  for (auto _ : state) {
    stmt.set_int(1, i);
    stmt.set_double(2, static_cast<double>(i) * 0.5);
    stmt.set_string(3, "event name " + std::to_string(i % 64));
    stmt.execute_update();
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PreparedInsert);

void BM_PointLookupByPk(benchmark::State& state) {
  auto conn = make_profile_table(state.range(0));
  auto stmt = conn->prepare("SELECT exclusive FROM profile WHERE id = ?");
  std::int64_t i = 0;
  for (auto _ : state) {
    stmt.set_int(1, 1 + (i++ % state.range(0)));
    auto rs = stmt.execute_query();
    benchmark::DoNotOptimize(rs.row_count());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PointLookupByPk)->Arg(10000)->Arg(100000);

void BM_IndexedEventScan(benchmark::State& state) {
  auto conn = make_profile_table(state.range(0));
  auto stmt = conn->prepare("SELECT exclusive FROM profile WHERE event = ?");
  std::int64_t i = 0;
  for (auto _ : state) {
    stmt.set_int(1, i++ % 101);
    auto rs = stmt.execute_query();
    benchmark::DoNotOptimize(rs.row_count());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IndexedEventScan)->Arg(10000)->Arg(100000);

void BM_RangeScan(benchmark::State& state) {
  auto conn = make_profile_table(state.range(0));
  auto stmt = conn->prepare(
      "SELECT COUNT(*) FROM profile WHERE node BETWEEN ? AND ?");
  std::int64_t i = 0;
  for (auto _ : state) {
    stmt.set_int(1, i % 50);
    stmt.set_int(2, i % 50 + 10);
    auto rs = stmt.execute_query();
    benchmark::DoNotOptimize(rs.row_count());
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RangeScan)->Arg(100000);

void BM_GroupedAggregate(benchmark::State& state) {
  auto conn = make_profile_table(state.range(0));
  for (auto _ : state) {
    auto rs = conn->execute(
        "SELECT event, COUNT(*), AVG(exclusive), STDDEV(exclusive)"
        " FROM profile GROUP BY event");
    benchmark::DoNotOptimize(rs.row_count());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GroupedAggregate)->Arg(10000)->Arg(100000);

void BM_JoinEventProfile(benchmark::State& state) {
  auto conn = make_profile_table(state.range(0));
  conn->execute_update(
      "CREATE TABLE event (id INTEGER PRIMARY KEY, name TEXT)");
  auto stmt = conn->prepare("INSERT INTO event (id, name) VALUES (?, ?)");
  for (int e = 0; e < 101; ++e) {
    stmt.set_int(1, e);
    stmt.set_string(2, "routine_" + std::to_string(e));
    stmt.execute_update();
  }
  for (auto _ : state) {
    auto rs = conn->execute(
        "SELECT e.name, AVG(p.exclusive) FROM event e JOIN profile p"
        " ON p.event = e.id GROUP BY e.name");
    benchmark::DoNotOptimize(rs.row_count());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_JoinEventProfile)->Arg(10000)->Arg(100000);

void BM_TransactionCommit(benchmark::State& state) {
  Connection conn;
  conn.execute_update("CREATE TABLE t (id INTEGER PRIMARY KEY, x INTEGER)");
  auto stmt = conn.prepare("INSERT INTO t (x) VALUES (?)");
  std::int64_t i = 0;
  for (auto _ : state) {
    conn.begin();
    for (int j = 0; j < 100; ++j) {
      stmt.set_int(1, i++);
      stmt.execute_update();
    }
    conn.commit();
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_TransactionCommit);

// ----------------------- concurrent SELECT throughput (shared lock) ----
//
// Measures multi-threaded read throughput against one shared Database at
// 1/2/4/8 threads on the shared-read path (SELECTs take the drain lock
// shared and read their MVCC snapshot). Each thread runs its own
// Connection and PreparedStatement.
double run_read_throughput(const std::shared_ptr<Database>& database,
                           unsigned threads, int ops_per_thread) {
  std::vector<std::thread> workers;
  perfdmf::util::WallTimer timer;
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&database, t, ops_per_thread] {
      Connection conn(database);
      auto stmt = conn.prepare(
          "SELECT COUNT(*), AVG(exclusive) FROM profile WHERE event = ?");
      for (int i = 0; i < ops_per_thread; ++i) {
        stmt.set_int(1, (static_cast<std::int64_t>(t) * 31 + i) % 101);
        auto rs = stmt.execute_query();
        benchmark::DoNotOptimize(rs.row_count());
      }
    });
  }
  for (auto& w : workers) w.join();
  const double elapsed = timer.seconds();
  return static_cast<double>(threads) * ops_per_thread / elapsed;
}

void report_concurrent_read_scaling(perfdmf::bench::BenchJson& json) {
  constexpr std::int64_t kRows = 50000;
  constexpr int kOpsPerThread = 200;
  auto conn = make_profile_table(kRows);
  const auto database = conn->database_ptr();

  std::printf("concurrent SELECT throughput, %lld rows, %d ops/thread\n",
              static_cast<long long>(kRows), kOpsPerThread);
  std::printf("  %-8s %18s\n", "threads", "shared-lock op/s");
  double shared_8 = 0.0;
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    const double shared = run_read_throughput(database, threads, kOpsPerThread);
    std::printf("  %-8u %18.0f\n", threads, shared);
    if (threads == 8u) shared_8 = shared;
  }
  std::printf("  (scales with available cores; %u detected)\n\n",
              std::thread::hardware_concurrency());
  json.set("read_8t_shared_ops_per_s", shared_8);
}

// ------------------------------ durability-mode commit throughput -----
//
// Commit cost of a file-backed database under each SyncMode: kAlways
// fsyncs every WAL write, kOnCommit fsyncs once per transaction commit,
// kNone leaves flushing to the OS. The table shows what the fsync-per-
// commit durability guarantee costs on this machine's storage.
double run_commit_throughput(SyncMode mode, int txns, int rows_per_txn) {
  perfdmf::util::ScopedTempDir dir;
  DurabilityOptions opts;
  opts.sync = mode;
  Connection conn(dir.path() / "db", opts);
  conn.execute_update(
      "CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER, b REAL)");
  conn.checkpoint();
  auto stmt = conn.prepare("INSERT INTO t (a, b) VALUES (?, ?)");
  perfdmf::util::WallTimer timer;
  for (int txn = 0; txn < txns; ++txn) {
    conn.begin();
    for (int i = 0; i < rows_per_txn; ++i) {
      stmt.set_int(1, txn);
      stmt.set_double(2, static_cast<double>(i));
      stmt.execute_update();
    }
    conn.commit();
  }
  return txns / timer.seconds();
}

void report_durability_modes(perfdmf::bench::BenchJson& json) {
  constexpr int kTxns = 100;
  constexpr int kRowsPerTxn = 10;
  std::printf("commit throughput by durability mode, %d txns x %d rows\n",
              kTxns, kRowsPerTxn);
  std::printf("  %-10s %14s\n", "sync", "commits/s");
  const struct {
    const char* name;
    SyncMode mode;
  } kModes[] = {{"always", SyncMode::kAlways},
                {"on_commit", SyncMode::kOnCommit},
                {"none", SyncMode::kNone}};
  for (const auto& m : kModes) {
    const double commits = run_commit_throughput(m.mode, kTxns, kRowsPerTxn);
    std::printf("  %-10s %14.0f\n", m.name, commits);
    json.set(std::string("commit_") + m.name + "_per_s", commits);
  }
  std::printf("\n");
}

// --------------------------------- WAL group-commit throughput --------
//
// Durable (kAlways) commits from N concurrent committer threads against
// one shared file-backed database. COMMIT runs through the SQL statement
// path, so each commit defers its fsync into the group-commit queue: one
// leader fsync covers every committer queued behind it. The 1-thread row
// is the ungrouped baseline (every commit pays its own fsync).
double run_group_commit_throughput(unsigned threads, int txns_per_thread,
                                   int rows_per_txn) {
  perfdmf::util::ScopedTempDir dir;
  DurabilityOptions opts;
  opts.sync = SyncMode::kAlways;
  Connection root(dir.path() / "db", opts);
  root.execute_update(
      "CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER, b REAL)");
  root.checkpoint();
  const auto database = root.database_ptr();

  std::vector<std::thread> committers;
  perfdmf::util::WallTimer timer;
  for (unsigned t = 0; t < threads; ++t) {
    committers.emplace_back([&database, t, txns_per_thread, rows_per_txn] {
      Connection conn(database);
      auto stmt = conn.prepare("INSERT INTO t (a, b) VALUES (?, ?)");
      for (int txn = 0; txn < txns_per_thread; ++txn) {
        conn.execute("BEGIN");
        for (int i = 0; i < rows_per_txn; ++i) {
          stmt.set_int(1, static_cast<std::int64_t>(t) * 1000 + txn);
          stmt.set_double(2, static_cast<double>(i));
          stmt.execute_update();
        }
        conn.execute("COMMIT");
      }
    });
  }
  for (auto& c : committers) c.join();
  return static_cast<double>(threads) * txns_per_thread / timer.seconds();
}

void report_group_commit(perfdmf::bench::BenchJson& json) {
  constexpr int kTxnsPerThread = 50;
  constexpr int kRowsPerTxn = 5;
  std::printf(
      "durable (kAlways) group-commit throughput, %d txns/thread x %d rows\n",
      kTxnsPerThread, kRowsPerTxn);
  std::printf("  %-8s %14s\n", "threads", "commits/s");
  double serial = 0.0;
  double grouped_8 = 0.0;
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    const double commits =
        run_group_commit_throughput(threads, kTxnsPerThread, kRowsPerTxn);
    std::printf("  %-8u %14.0f\n", threads, commits);
    if (threads == 1u) serial = commits;
    if (threads == 8u) grouped_8 = commits;
  }
  std::printf("  8-thread group commit vs 1-thread: %.2fx\n\n",
              grouped_8 / serial);
  json.set("group_commit_1t_per_s", serial);
  json.set("group_commit_8t_per_s", grouped_8);
  json.set("group_commit_8t_speedup", grouped_8 / serial);
}

// ----------------------- snapshot reads under a live writer -----------
//
// MVCC's headline property: readers scan their snapshot lock-free while
// a writer continuously installs versions inside transactions. Reader
// throughput here collapsing against read_8t_shared_ops_per_s would mean
// writers block readers again.
void report_reads_under_writes(perfdmf::bench::BenchJson& json) {
  constexpr std::int64_t kRows = 50000;
  constexpr int kOpsPerThread = 200;
  constexpr unsigned kReaders = 4;
  auto conn = make_profile_table(kRows);
  const auto database = conn->database_ptr();

  std::atomic<bool> stop{false};
  std::thread writer([&database, &stop] {
    Connection w(database);
    w.execute_update("CREATE TABLE results (id INTEGER PRIMARY KEY, x REAL)");
    auto stmt = w.prepare("INSERT INTO results (x) VALUES (?)");
    std::int64_t i = 0;
    while (!stop.load(std::memory_order_acquire)) {
      w.begin();
      for (int j = 0; j < 50; ++j) {
        stmt.set_double(1, static_cast<double>(i++));
        stmt.execute_update();
      }
      w.commit();
    }
  });

  const double ops =
      run_read_throughput(database, kReaders, kOpsPerThread);
  stop.store(true, std::memory_order_release);
  writer.join();
  std::printf(
      "snapshot reads under a live writer: %u readers, %.0f op/s "
      "(writer committing concurrently throughout)\n\n",
      kReaders, ops);
  json.set("read_4t_under_writer_ops_per_s", ops);
}

}  // namespace

int main(int argc, char** argv) {
  perfdmf::bench::BenchJson json("sqldb");
  report_concurrent_read_scaling(json);
  report_reads_under_writes(json);
  report_durability_modes(json);
  report_group_commit(json);
  json.write();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
