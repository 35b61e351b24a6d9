#include "sqldb/system_tables.h"

#include <cctype>
#include <chrono>

#include "sqldb/database.h"
#include "sqldb/lock_manager.h"
#include "sqldb/statement_registry.h"
#include "sqldb/wal.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "util/error.h"

namespace perfdmf::sqldb {

namespace {

std::string upper(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    out += static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  return out;
}

ColumnDef column(std::string name, ValueType type) {
  ColumnDef def;
  def.name = std::move(name);
  def.type = type;
  return def;
}

TableSchema make_metrics_schema() {
  TableSchema schema{std::string(kMetricsTableName)};
  schema.add_column(column("name", ValueType::kText));
  schema.add_column(column("kind", ValueType::kText));
  schema.add_column(column("value", ValueType::kReal));
  // Histogram-only fields; NULL for counters and gauges.
  schema.add_column(column("count", ValueType::kInt));
  schema.add_column(column("sum", ValueType::kReal));
  schema.add_column(column("p50", ValueType::kReal));
  schema.add_column(column("p95", ValueType::kReal));
  schema.add_column(column("p99", ValueType::kReal));
  return schema;
}

TableSchema make_slow_queries_schema() {
  TableSchema schema{std::string(kSlowQueriesTableName)};
  schema.add_column(column("id", ValueType::kInt));
  schema.add_column(column("started_at", ValueType::kText));
  schema.add_column(column("thread", ValueType::kText));
  schema.add_column(column("sql", ValueType::kText));
  schema.add_column(column("plan", ValueType::kText));
  schema.add_column(column("total_ms", ValueType::kReal));
  schema.add_column(column("outcome", ValueType::kText));
  schema.add_column(column("parse_ms", ValueType::kReal));
  schema.add_column(column("plan_ms", ValueType::kReal));
  schema.add_column(column("admission_ms", ValueType::kReal));
  schema.add_column(column("lock_wait_ms", ValueType::kReal));
  schema.add_column(column("execute_ms", ValueType::kReal));
  schema.add_column(column("fsync_ms", ValueType::kReal));
  return schema;
}

TableSchema make_statements_schema() {
  TableSchema schema{std::string(kStatementsTableName)};
  schema.add_column(column("id", ValueType::kInt));
  schema.add_column(column("thread", ValueType::kText));
  schema.add_column(column("sql", ValueType::kText));
  schema.add_column(column("phase", ValueType::kText));
  schema.add_column(column("elapsed_ms", ValueType::kReal));
  // NULL when the statement runs without a deadline.
  schema.add_column(column("deadline_remaining_ms", ValueType::kReal));
  schema.add_column(column("rows", ValueType::kInt));
  schema.add_column(column("cancel_requested", ValueType::kInt));
  return schema;
}

TableSchema make_transactions_schema() {
  TableSchema schema{std::string(kTransactionsTableName)};
  schema.add_column(column("state", ValueType::kText));
  schema.add_column(column("token", ValueType::kInt));
  // The transaction's MVCC snapshot bounds: it reads versions committed
  // at or before read_view_ts; commit_ts is the database-global stamp.
  schema.add_column(column("read_view_ts", ValueType::kInt));
  schema.add_column(column("commit_ts", ValueType::kInt));
  schema.add_column(column("statements", ValueType::kInt));
  schema.add_column(column("versions_installed", ValueType::kInt));
  schema.add_column(column("admission_held", ValueType::kInt));
  schema.add_column(column("elapsed_ms", ValueType::kReal));
  return schema;
}

TableSchema make_locks_schema() {
  TableSchema schema{std::string(kLocksTableName)};
  schema.add_column(column("lock", ValueType::kText));  // writer | drain
  schema.add_column(column("holders", ValueType::kInt));
  schema.add_column(column("exclusive", ValueType::kInt));
  schema.add_column(column("waiters", ValueType::kInt));
  schema.add_column(column("wait_micros", ValueType::kInt));
  return schema;
}

TableSchema make_wal_schema() {
  TableSchema schema{std::string(kWalTableName)};
  schema.add_column(column("written_seq", ValueType::kInt));
  schema.add_column(column("durable_seq", ValueType::kInt));
  schema.add_column(column("commit_queue_depth", ValueType::kInt));
  schema.add_column(column("last_fsync_micros", ValueType::kInt));
  schema.add_column(column("sync_mode", ValueType::kText));
  schema.add_column(column("read_only", ValueType::kInt));
  schema.add_column(column("read_only_reason", ValueType::kText));
  return schema;
}

std::unique_ptr<Table> materialize_metrics() {
  auto table = std::make_unique<Table>(make_metrics_schema());
  for (const auto& s : telemetry::MetricsRegistry::instance().snapshot()) {
    const bool histogram = s.kind == telemetry::MetricSample::Kind::kHistogram;
    Row row;
    row.reserve(8);
    row.emplace_back(s.name);
    row.emplace_back(std::string(telemetry::metric_kind_name(s.kind)));
    row.emplace_back(s.value);
    row.push_back(histogram ? Value(s.count) : Value::null());
    row.push_back(histogram ? Value(s.sum) : Value::null());
    row.push_back(histogram ? Value(s.p50) : Value::null());
    row.push_back(histogram ? Value(s.p95) : Value::null());
    row.push_back(histogram ? Value(s.p99) : Value::null());
    table->insert(std::move(row), nullptr, ReadView::latest());
  }
  return table;
}

std::unique_ptr<Table> materialize_slow_queries() {
  auto table = std::make_unique<Table>(make_slow_queries_schema());
  for (const auto& t : telemetry::TraceRing::instance().snapshot()) {
    Row row;
    row.reserve(13);
    row.emplace_back(static_cast<std::int64_t>(t.id));
    row.emplace_back(t.started_at);
    row.emplace_back(t.thread);
    row.emplace_back(t.sql);
    row.emplace_back(t.plan);
    row.emplace_back(t.total_ms);
    row.emplace_back(t.outcome);
    using telemetry::Phase;
    for (const Phase p : {Phase::kParse, Phase::kPlan, Phase::kAdmission,
                          Phase::kLockWait, Phase::kExecute, Phase::kFsync}) {
      row.emplace_back(t.phase_ms[static_cast<std::size_t>(p)]);
    }
    table->insert(std::move(row), nullptr, ReadView::latest());
  }
  return table;
}

std::unique_ptr<Table> materialize_statements(Database* db) {
  auto table = std::make_unique<Table>(make_statements_schema());
  if (db == nullptr) return table;
  for (const auto& s : db->statements().snapshot()) {
    Row row;
    row.reserve(8);
    row.emplace_back(static_cast<std::int64_t>(s.id));
    row.emplace_back(s.thread);
    row.emplace_back(s.sql);
    row.emplace_back(std::string(s.phase));
    row.emplace_back(s.elapsed_ms);
    row.push_back(s.deadline_remaining_ms < 0
                      ? Value::null()
                      : Value(s.deadline_remaining_ms));
    row.emplace_back(static_cast<std::int64_t>(s.rows));
    row.emplace_back(static_cast<std::int64_t>(s.cancel_requested ? 1 : 0));
    table->insert(std::move(row), nullptr, ReadView::latest());
  }
  return table;
}

std::unique_ptr<Table> materialize_transactions(Database* db) {
  auto table = std::make_unique<Table>(make_transactions_schema());
  if (db == nullptr) return table;
  const Database::TxnIntrospection& txn = db->txn_introspection();
  // `open` is stored with release after the owner fills the other fields,
  // so an acquire load here orders the reads below. The row reflects one
  // point in time only approximately (the owner may be committing
  // concurrently) — fine for introspection.
  if (!txn.open.load(std::memory_order_acquire)) return table;

  const std::uint64_t base = txn.versions_base.load(std::memory_order_relaxed);
  static auto& versions_counter =
      telemetry::MetricsRegistry::instance().counter("mvcc.versions_installed");
  const std::uint64_t current = versions_counter.value();
  // Zero in telemetry-off builds (the counter never moves) and clamped
  // against racing BEGIN/COMMIT rewrites of the mirror.
  const std::uint64_t installed = current > base ? current - base : 0;
  const std::int64_t started =
      txn.started_unix_ms.load(std::memory_order_relaxed);
  const std::int64_t now_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();

  Row row;
  row.reserve(8);
  row.emplace_back(std::string("open"));
  row.emplace_back(
      static_cast<std::int64_t>(txn.token.load(std::memory_order_relaxed)));
  row.emplace_back(
      static_cast<std::int64_t>(txn.read_ts.load(std::memory_order_relaxed)));
  row.emplace_back(static_cast<std::int64_t>(db->commit_ts()));
  row.emplace_back(static_cast<std::int64_t>(
      txn.statements.load(std::memory_order_relaxed)));
  row.emplace_back(static_cast<std::int64_t>(installed));
  row.emplace_back(static_cast<std::int64_t>(
      txn.admission_held.load(std::memory_order_relaxed) ? 1 : 0));
  row.emplace_back(started > 0 && now_ms > started
                       ? static_cast<double>(now_ms - started)
                       : 0.0);
  table->insert(std::move(row), nullptr, ReadView::latest());
  return table;
}

std::unique_ptr<Table> materialize_locks(Database* db) {
  auto table = std::make_unique<Table>(make_locks_schema());
  if (db == nullptr) return table;
  const LockStats stats = db->locks().stats();
  {
    Row row;
    row.reserve(5);
    row.emplace_back(std::string("writer"));
    row.emplace_back(static_cast<std::int64_t>(stats.writer_holders));
    row.emplace_back(static_cast<std::int64_t>(stats.writer_holders));
    row.emplace_back(static_cast<std::int64_t>(stats.writer_waiters));
    row.emplace_back(static_cast<std::int64_t>(stats.writer_wait_micros));
    table->insert(std::move(row), nullptr, ReadView::latest());
  }
  {
    Row row;
    row.reserve(5);
    row.emplace_back(std::string("drain"));
    row.emplace_back(static_cast<std::int64_t>(stats.drain_shared_holders +
                                               stats.drain_exclusive_holders));
    row.emplace_back(static_cast<std::int64_t>(stats.drain_exclusive_holders));
    row.emplace_back(static_cast<std::int64_t>(stats.drain_waiters));
    row.emplace_back(static_cast<std::int64_t>(stats.drain_wait_micros));
    table->insert(std::move(row), nullptr, ReadView::latest());
  }
  return table;
}

const char* sync_mode_name(SyncMode mode) {
  switch (mode) {
    case SyncMode::kAlways: return "always";
    case SyncMode::kOnCommit: return "on_commit";
    case SyncMode::kNone: return "none";
  }
  return "unknown";
}

std::unique_ptr<Table> materialize_wal(Database* db) {
  auto table = std::make_unique<Table>(make_wal_schema());
  if (db == nullptr) return table;
  Wal* wal = db->wal();
  Row row;
  row.reserve(7);
  if (wal != nullptr) {
    row.emplace_back(static_cast<std::int64_t>(wal->written_seq()));
    row.emplace_back(static_cast<std::int64_t>(wal->durable_seq()));
    row.emplace_back(static_cast<std::int64_t>(wal->commit_queue_depth()));
    row.emplace_back(static_cast<std::int64_t>(wal->last_fsync_micros()));
    row.emplace_back(std::string(sync_mode_name(wal->sync_mode())));
  } else {
    // In-memory database: no WAL, one row of zeros so aggregations and
    // health probes keep working against a stable shape.
    for (int i = 0; i < 4; ++i) row.emplace_back(static_cast<std::int64_t>(0));
    row.emplace_back(std::string("none"));
  }
  row.emplace_back(static_cast<std::int64_t>(db->read_only() ? 1 : 0));
  row.emplace_back(db->read_only_reason());
  table->insert(std::move(row), nullptr, ReadView::latest());
  return table;
}

}  // namespace

bool is_system_table_name(std::string_view name) {
  const std::string u = upper(name);
  return u == kMetricsTableName || u == kSlowQueriesTableName ||
         u == kStatementsTableName || u == kTransactionsTableName ||
         u == kLocksTableName || u == kWalTableName;
}

std::vector<std::string> system_table_names() {
  return {std::string(kLocksTableName),        std::string(kMetricsTableName),
          std::string(kSlowQueriesTableName),  std::string(kStatementsTableName),
          std::string(kTransactionsTableName), std::string(kWalTableName)};
}

const TableSchema& system_table_schema(std::string_view name) {
  static const TableSchema metrics = make_metrics_schema();
  static const TableSchema slow = make_slow_queries_schema();
  static const TableSchema statements = make_statements_schema();
  static const TableSchema transactions = make_transactions_schema();
  static const TableSchema locks = make_locks_schema();
  static const TableSchema wal = make_wal_schema();
  const std::string u = upper(name);
  if (u == kMetricsTableName) return metrics;
  if (u == kSlowQueriesTableName) return slow;
  if (u == kStatementsTableName) return statements;
  if (u == kTransactionsTableName) return transactions;
  if (u == kLocksTableName) return locks;
  if (u == kWalTableName) return wal;
  throw DbError("not a system table: " + std::string(name));
}

std::unique_ptr<Table> materialize_system_table(std::string_view name,
                                                Database* db) {
  const std::string u = upper(name);
  if (u == kMetricsTableName) return materialize_metrics();
  if (u == kSlowQueriesTableName) return materialize_slow_queries();
  if (u == kStatementsTableName) return materialize_statements(db);
  if (u == kTransactionsTableName) return materialize_transactions(db);
  if (u == kLocksTableName) return materialize_locks(db);
  if (u == kWalTableName) return materialize_wal(db);
  throw DbError("not a system table: " + std::string(name));
}

}  // namespace perfdmf::sqldb
