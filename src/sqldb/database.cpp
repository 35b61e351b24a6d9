#include "sqldb/database.h"

#include <cerrno>
#include <chrono>
#include <thread>
#include <unordered_set>

#include "sqldb/codec.h"
#include "sqldb/parser.h"
#include "sqldb/statement_context.h"
#include "sqldb/system_tables.h"
#include "sqldb/wal.h"
#include "telemetry/metrics.h"
#include "util/error.h"
#include "util/failpoint.h"
#include "util/file.h"
#include "util/log.h"
#include "util/strings.h"
#include "util/timer.h"

namespace perfdmf::sqldb {

namespace {
constexpr const char* kSnapshotFile = "snapshot.pdb";
constexpr const char* kSnapshotPrev = "snapshot.pdb.prev";
constexpr const char* kSnapshotTmp = "snapshot.pdb.new";
constexpr const char* kWalFile = "wal.log";

ResultSetData count_result(std::size_t n) {
  ResultSetData out;
  out.column_names = {"rows_affected"};
  out.rows.push_back({Value(static_cast<std::int64_t>(n))});
  return out;
}

/// System tables are served from the telemetry registry; no statement may
/// write, shadow, or drop them.
void reject_system_table(const std::string& name, const char* action) {
  if (is_system_table_name(name)) {
    throw DbError(std::string(action) + " not allowed on read-only system table " +
                  name);
  }
}

std::int64_t steady_now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// ENOSPC retry policy for WAL appends and checkpoint steps: a handful
/// of short, exponentially spaced retries rides out transient fsync
/// failures; persistent failure degrades the database instead.
constexpr int kEnospcRetries = 3;
constexpr int kEnospcBackoffBaseMs = 1;
/// Minimum spacing between automatic space-recovery probes.
constexpr std::int64_t kProbeIntervalMs = 200;

/// The view pinned by each in-flight statement on this thread, newest
/// last. A stack (not a single slot) because one thread can interleave
/// statements over several databases (view expansion runs nested
/// executes; tests hold two stores open at once).
struct ViewFrame {
  const Database* db;
  ReadView view;
};
thread_local std::vector<ViewFrame> t_view_stack;

/// Pins `view` as the thread's statement snapshot for `db` until end of
/// scope. Nested execution finds it via Database::read_view().
class ScopedReadView {
 public:
  ScopedReadView(const Database* db, ReadView view) {
    t_view_stack.push_back({db, view});
  }
  ~ScopedReadView() { t_view_stack.pop_back(); }
  ScopedReadView(const ScopedReadView&) = delete;
  ScopedReadView& operator=(const ScopedReadView&) = delete;
};
}  // namespace

// ------------------------------------------------------------ MVCC core

ReadView Database::read_view() const {
  for (auto it = t_view_stack.rbegin(); it != t_view_stack.rend(); ++it) {
    if (it->db == this) return it->view;
  }
  return ReadView{commit_ts_.load(std::memory_order_acquire), self_token()};
}

std::uint64_t Database::self_token() const {
  return writer_thread_.load(std::memory_order_acquire) ==
                 std::this_thread::get_id()
             ? writer_token_
             : 0;
}

void Database::publish_txn_stamps() {
  if (txn_stamps_.empty()) return;
  const std::uint64_t ts = commit_ts_.load(std::memory_order_relaxed) + 1;
  // Stamps first, counter last: a reader that snapshots the new counter
  // value is guaranteed to resolve every stamp as committed-at-ts.
  for (CommitStamp* stamp : txn_stamps_) {
    stamp->ts.store(ts, std::memory_order_release);
  }
  commit_ts_.store(ts, std::memory_order_release);
  txn_stamps_.clear();
}

void Database::abort_stamp(CommitStamp* stamp) {
  stamp->ts.store(kTsAborted, std::memory_order_release);
  if (stamp->table != nullptr && stamp->live_delta != 0) {
    stamp->table->adjust_live(-stamp->live_delta);
  }
}

void Database::abort_txn_stamps() {
  for (CommitStamp* stamp : txn_stamps_) abort_stamp(stamp);
  txn_stamps_.clear();
}

void Database::clear_writer() {
  writer_thread_.store(std::thread::id{}, std::memory_order_release);
  writer_token_ = 0;
}

class Database::WriteUnit {
 public:
  explicit WriteUnit(Database& db) : db_(db) {
    // Autocommit statements form their own one-statement write unit; a
    // statement inside a transaction joins the transaction's unit (same
    // token, so it sees the txn's earlier pending versions) but still
    // gets its own stamp — a failed statement aborts alone, the way the
    // old per-statement undo log rolled back exactly one statement.
    if (!db.in_txn_) {
      db.writer_token_ = db.next_token_.fetch_add(1, std::memory_order_relaxed);
      db.writer_thread_.store(std::this_thread::get_id(),
                              std::memory_order_release);
    }
    auto stamp = std::make_unique<CommitStamp>();
    stamp->token = db.writer_token_;
    stamp_ = stamp.get();
    db.stamp_graveyard_.push_back(std::move(stamp));
    view_ = ReadView{db.commit_ts_.load(std::memory_order_acquire),
                     db.writer_token_};
  }

  ~WriteUnit() {
    if (done_) return;
    db_.abort_stamp(stamp_);
    if (!db_.in_txn_) db_.clear_writer();
  }

  void succeed() {
    done_ = true;
    if (db_.in_txn_) {
      db_.txn_stamps_.push_back(stamp_);
      db_.txn_intro_.statements.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    const std::uint64_t ts = db_.commit_ts_.load(std::memory_order_relaxed) + 1;
    stamp_->ts.store(ts, std::memory_order_release);
    db_.commit_ts_.store(ts, std::memory_order_release);
    db_.clear_writer();
  }

  CommitStamp* stamp() { return stamp_; }
  const ReadView& view() const { return view_; }

  WriteUnit(const WriteUnit&) = delete;
  WriteUnit& operator=(const WriteUnit&) = delete;

 private:
  Database& db_;
  CommitStamp* stamp_ = nullptr;
  ReadView view_;
  bool done_ = false;
};

template <typename Fn>
void Database::governed_durable_write(Fn&& fn, const char* what) {
  for (int attempt = 0;; ++attempt) {
    try {
      fn();
      return;
    } catch (const IoError& e) {
      // Only a full disk is treated as transient-then-degrading; every
      // other IO failure keeps its PR 2 semantics (statement/txn rolls
      // back, the error propagates untouched).
      if (e.sys_errno() != ENOSPC) throw;
      if (attempt < kEnospcRetries) {
        std::this_thread::sleep_for(std::chrono::milliseconds(
            kEnospcBackoffBaseMs << attempt));
        continue;
      }
      enter_read_only(std::string(what) + " failed with ENOSPC: " + e.what());
      throw DbError(std::string(what) +
                        " failed: disk full; database is now read-only",
                    DbError::Kind::kReadOnly);
    }
  }
}

void Database::enter_read_only(const std::string& reason) {
  bool expected = false;
  if (!read_only_.compare_exchange_strong(expected, true,
                                          std::memory_order_acq_rel)) {
    return;  // already degraded
  }
  {
    std::lock_guard<std::mutex> lock(read_only_mutex_);
    read_only_reason_ = reason;
  }
  detail::gov_readonly_entered().add();
  util::log_error() << "entering degraded read-only mode: " << reason;
}

std::string Database::read_only_reason() const {
  std::lock_guard<std::mutex> lock(read_only_mutex_);
  return read_only_reason_;
}

bool Database::try_exit_read_only() {
  if (!read_only_.load(std::memory_order_acquire)) return true;
  try {
    util::failpoint::evaluate("wal.probe");
    if (wal_) {
      // Durably write-and-remove a small block next to the WAL: if this
      // round-trips, the device has space for appends again.
      const std::filesystem::path probe = directory_ / "space.probe";
      util::write_file_durable(probe, std::string(4096, 'p'));
      std::error_code ec;
      std::filesystem::remove(probe, ec);
    }
  } catch (const std::exception&) {
    return false;  // still degraded
  }
  {
    std::lock_guard<std::mutex> lock(read_only_mutex_);
    read_only_reason_.clear();
  }
  read_only_.store(false, std::memory_order_release);
  detail::gov_readonly_exited().add();
  util::log_info() << "leaving degraded read-only mode: space probe succeeded";
  return true;
}

void Database::ensure_writable() {
  if (!read_only_.load(std::memory_order_acquire) || replaying_) return;
  // Give recovery a chance without hammering the disk: at most one
  // probe per kProbeIntervalMs across all rejected writes.
  const std::int64_t now = steady_now_ms();
  std::int64_t last = last_probe_ms_.load(std::memory_order_relaxed);
  if (now - last >= kProbeIntervalMs &&
      last_probe_ms_.compare_exchange_strong(last, now,
                                             std::memory_order_relaxed)) {
    if (try_exit_read_only()) return;
  }
  throw DbError("database is in degraded read-only mode (" +
                    read_only_reason() + ")",
                DbError::Kind::kReadOnly);
}

Database::Database() = default;

Database::Database(const std::filesystem::path& directory)
    : Database(directory, DurabilityOptions::from_env()) {}

Database::Database(const std::filesystem::path& directory,
                   const DurabilityOptions& options)
    : directory_(directory) {
  namespace fs = std::filesystem;
  fs::create_directories(directory);
  // A leftover temp snapshot means a crash mid-checkpoint before the
  // rename; it was never installed, so it is dead weight.
  {
    std::error_code ec;
    fs::remove(directory / kSnapshotTmp, ec);
  }

  // Load the newest snapshot; fall back to the previous one when the
  // newest is unusable, or missing with a previous one present (a crash
  // between the two checkpoint renames).
  std::uint64_t watermark = 0;
  const fs::path snapshot = directory / kSnapshotFile;
  const fs::path previous = directory / kSnapshotPrev;
  if (fs::exists(snapshot)) {
    try {
      watermark = load_snapshot(snapshot);
    } catch (const ParseError& e) {
      report_.snapshot_error = e.what();
      clear_catalog();  // a partial load must not leak into the fallback
      if (!fs::exists(previous)) throw;
    }
  } else if (fs::exists(previous)) {
    report_.snapshot_error = "newest snapshot missing (crash mid-checkpoint)";
  }
  if (!report_.snapshot_error.empty()) {
    watermark = load_snapshot(previous);
    report_.used_previous_snapshot = true;
    util::log_warn() << "snapshot " << snapshot.string() << " unusable ("
                     << report_.snapshot_error << "); recovered from "
                     << previous.string();
  }

  wal_ = std::make_unique<Wal>(directory / kWalFile, options.sync);
  replaying_ = true;
  const Wal::ReplayInfo info = wal_->replay(
      [this](const std::string& sql, const Params& params) {
        try {
          execute(sql, params);
        } catch (const Error& e) {
          // A statement that was durable but no longer executes (schema
          // drift, a bug): count it and keep going so the archive stays
          // usable — the caller sees it in the recovery report.
          ++report_.failed_statements;
          report_.warnings.push_back(std::string("WAL replay: ") + e.what());
          util::log_warn() << "WAL replay: " << e.what();
        }
      },
      watermark);
  replaying_ = false;
  report_.replayed_records = info.applied;
  if (info.corrupt) {
    report_.wal_corrupt = true;
    report_.wal_corruption_offset = info.corruption_offset;
    report_.discarded_records = info.discarded;
    report_.wal_error = info.error;
    util::log_error() << "WAL " << wal_->path().string()
                      << " corrupt at offset " << info.corruption_offset << " ("
                      << info.error << "); " << info.discarded
                      << " later record(s) discarded";
  }
  wal_->set_next_seq(std::max(watermark, info.last_seq) + 1);
}

Database::~Database() {
  if (wal_ && !replaying_) {
    try {
      checkpoint();
    } catch (const std::exception& e) {
      util::log_error() << "checkpoint on close failed: " << e.what();
    }
  }
}

ResultSetData Database::execute(std::string_view sql, const Params& params) {
  Statement stmt = parse_statement(sql);
  return execute_parsed(stmt, params, sql);
}

ResultSetData Database::execute(Statement& stmt, const Params& params,
                                std::string_view original_sql) {
  return execute_parsed(stmt, params, original_sql);
}

ResultSetData Database::execute_parsed(Statement& stmt, const Params& params,
                                       std::string_view sql) {
  if (stmt.placeholder_count > params.size()) {
    throw DbError("statement needs " + std::to_string(stmt.placeholder_count) +
                  " parameters, got " + std::to_string(params.size()));
  }
  // DML runs as a write unit: every version it installs carries the
  // unit's stamp, still pending. If the statement fails part-way (FK
  // violation on the third row of a multi-row INSERT, WAL append
  // failure, a deadline or cancel landing inside the row loop) the
  // stamp is aborted and every version becomes invisible garbage — the
  // statement rolls back whole, with no undo log, inside or outside a
  // transaction.
  switch (stmt.kind) {
    case StatementKind::kInsert:
    case StatementKind::kUpdate:
    case StatementKind::kDelete: {
      ensure_writable();
      WriteUnit unit(*this);
      ScopedReadView scope(this, unit.view());
      std::size_t n = 0;
      if (stmt.kind == StatementKind::kInsert) {
        n = run_insert(stmt.insert, params, unit.stamp(), unit.view());
      } else if (stmt.kind == StatementKind::kUpdate) {
        n = run_update(stmt.update, params, unit.stamp(), unit.view());
      } else {
        n = run_delete(stmt.del, params, unit.stamp(), unit.view());
      }
      // A transaction's statements reach the WAL together at COMMIT; an
      // autocommitted one now (a failed append aborts the unit's stamp).
      if (!in_txn_) {
        log_to_wal({{std::string(sql), params}}, /*commit=*/false);
      } else if (wal_ && !replaying_) {
        txn_wal_buffer_.emplace_back(sql, params);
      }
      unit.succeed();
      return count_result(n);
    }
    default:
      break;
  }
  // Reads and DDL pin the committed snapshot (plus this thread's own
  // pending versions when it owns the open transaction); nested
  // execution inherits the outer statement's view via read_view().
  ScopedReadView scope(this, read_view());
  return dispatch_statement(stmt, params, sql);
}

ResultSetData Database::dispatch_statement(Statement& stmt, const Params& params,
                                           std::string_view sql) {
  // Degraded read-only mode: reads always pass; COMMIT/ROLLBACK must
  // pass so an in-flight transaction can end (its WAL append decides
  // its fate); everything that mutates fails fast.
  if (stmt.kind != StatementKind::kSelect &&
      stmt.kind != StatementKind::kExplain &&
      stmt.kind != StatementKind::kCommit &&
      stmt.kind != StatementKind::kRollback) {
    ensure_writable();
  }
  switch (stmt.kind) {
    case StatementKind::kSelect: {
      // When the slow-query log is armed, collect the plan so a slow
      // statement's trace carries its access path.
      StatementContext* ctx = StatementContext::current();
      if (ctx != nullptr && ctx->slow_armed()) {
        ExplainInfo explain;
        ResultSetData out = execute_select(*this, stmt.select, params, &explain);
        std::string plan;
        for (const auto& line : explain.lines) {
          if (!plan.empty()) plan += '\n';
          plan += line;
        }
        ctx->set_plan(std::move(plan));
        return out;
      }
      return execute_select(*this, stmt.select, params);
    }
    case StatementKind::kExplain:
      return execute_explain(*this, stmt.select, params, stmt.analyze);
    case StatementKind::kInsert:
    case StatementKind::kUpdate:
    case StatementKind::kDelete:
      throw DbError("DML dispatched outside a write unit");  // unreachable
    case StatementKind::kCreateTable:
      run_create_table(stmt.create_table);
      break;
    case StatementKind::kDropTable:
      run_drop_table(stmt.drop_table);
      break;
    case StatementKind::kAlterAddColumn:
      table(stmt.alter.table).add_column(stmt.alter.column);
      break;
    case StatementKind::kAlterDropColumn:
      table(stmt.alter.table).drop_column(stmt.alter.column_name);
      break;
    case StatementKind::kCreateIndex:
      run_create_index(stmt.create_index);
      break;
    case StatementKind::kCreateView:
      run_create_view(stmt.create_view);
      break;
    case StatementKind::kDropView:
      run_drop_view(stmt.drop_view);
      break;
    case StatementKind::kBegin:
      begin();
      return count_result(0);
    case StatementKind::kCommit:
      commit();
      return count_result(0);
    case StatementKind::kRollback:
      rollback();
      return count_result(0);
  }
  // Every kind left is a schema change. Rollback does not undo those, so
  // their record bypasses the transaction buffer: a schema change inside a
  // transaction that later rolls back must still be durable, or the
  // recovered schema would diverge from the live one.
  note_schema_change();
  log_to_wal({{std::string(sql), params}}, /*commit=*/false);
  return count_result(0);
}

// --------------------------------------------------------------- catalog

bool Database::has_table(std::string_view name) const {
  return tables_.count(util::to_lower(name)) > 0;
}

Table& Database::table(std::string_view name) {
  auto it = tables_.find(util::to_lower(name));
  if (it == tables_.end()) {
    throw DbError("no such table: " + std::string(name));
  }
  return *it->second;
}

const Table& Database::table(std::string_view name) const {
  auto it = tables_.find(util::to_lower(name));
  if (it == tables_.end()) {
    throw DbError("no such table: " + std::string(name));
  }
  return *it->second;
}

std::vector<std::string> Database::table_names() const { return table_order_; }

bool Database::has_view(std::string_view name) const {
  return views_.count(util::to_lower(name)) > 0;
}

const std::string& Database::view_sql(std::string_view name) const {
  auto it = views_.find(util::to_lower(name));
  if (it == views_.end()) throw DbError("no such view: " + std::string(name));
  return it->second;
}

std::vector<std::string> Database::view_names() const { return view_order_; }

// ------------------------------------------------------------------- DML

std::size_t Database::run_insert(InsertStatement& stmt, const Params& params,
                                 CommitStamp* stamp, const ReadView& view) {
  reject_system_table(stmt.table, "INSERT");
  Table& t = table(stmt.table);
  const auto& columns = t.schema().columns();

  // Map the statement's column list to schema positions.
  std::vector<std::size_t> positions;
  if (stmt.columns.empty()) {
    for (std::size_t i = 0; i < columns.size(); ++i) positions.push_back(i);
  } else {
    for (const auto& name : stmt.columns) {
      positions.push_back(t.schema().column_index_or_throw(name));
    }
  }

  std::size_t inserted = 0;
  StatementContext* ctx = StatementContext::current();
  auto insert_values = [&](const Row& values) {
    if (ctx != nullptr) ctx->poll();
    if (values.size() != positions.size()) {
      throw DbError("INSERT value count mismatch for table " + stmt.table);
    }
    Row row(columns.size());
    // Unspecified columns receive their DEFAULT (NULL when none declared).
    for (std::size_t i = 0; i < columns.size(); ++i) {
      row[i] = columns[i].default_value;
    }
    for (std::size_t i = 0; i < positions.size(); ++i) {
      row[positions[i]] = values[i];
    }
    check_foreign_keys_insert(t, row, view);
    t.insert(std::move(row), stamp, view);
    ++inserted;
  };

  if (stmt.select) {
    // INSERT INTO ... SELECT: materialize the query, then feed each row.
    // (Materializing first also makes self-referential inserts — reading
    // from the target table — well defined.)
    ResultSetData result = execute_select(*this, *stmt.select, params);
    for (auto& row : result.rows) insert_values(row);
    return inserted;
  }

  static const Row kNoRow;
  for (auto& tuple : stmt.rows) {
    Row values;
    values.reserve(tuple.size());
    for (auto& expr : tuple) values.push_back(eval_expr(*expr, kNoRow, params));
    insert_values(values);
  }
  return inserted;
}

std::size_t Database::run_update(UpdateStatement& stmt, const Params& params,
                                 CommitStamp* stamp, const ReadView& view) {
  reject_system_table(stmt.table, "UPDATE");
  Table& t = table(stmt.table);
  std::vector<BoundColumn> layout;
  const std::string alias = util::to_lower(stmt.table);
  for (const auto& column : t.schema().columns()) {
    layout.push_back({alias, column.name});
  }
  if (stmt.where) bind_expr(*stmt.where, layout);
  for (auto& [column, expr] : stmt.assignments) bind_expr(*expr, layout);

  std::vector<RowId> candidates = collect_candidates(
      t, stmt.where ? stmt.where.get() : nullptr, params, view);
  std::size_t updated = 0;
  StatementContext* ctx = StatementContext::current();
  for (RowId id : candidates) {
    if (ctx != nullptr) ctx->poll();
    const Row* old_row = t.fetch(id, view);
    if (old_row == nullptr) continue;
    if (stmt.where && !is_truthy(eval_expr(*stmt.where, *old_row, params))) continue;
    Row new_row = *old_row;
    for (auto& [column, expr] : stmt.assignments) {
      new_row[t.schema().column_index_or_throw(column)] =
          eval_expr(*expr, *old_row, params);
    }
    check_foreign_keys_insert(t, new_row, view);  // FK columns may have changed
    t.update(id, std::move(new_row), stamp, view);
    ++updated;
  }
  return updated;
}

std::size_t Database::run_delete(DeleteStatement& stmt, const Params& params,
                                 CommitStamp* stamp, const ReadView& view) {
  reject_system_table(stmt.table, "DELETE");
  Table& t = table(stmt.table);
  std::vector<BoundColumn> layout;
  const std::string alias = util::to_lower(stmt.table);
  for (const auto& column : t.schema().columns()) {
    layout.push_back({alias, column.name});
  }
  if (stmt.where) bind_expr(*stmt.where, layout);

  std::vector<RowId> candidates = collect_candidates(
      t, stmt.where ? stmt.where.get() : nullptr, params, view);
  std::size_t deleted = 0;
  StatementContext* ctx = StatementContext::current();
  for (RowId id : candidates) {
    if (ctx != nullptr) ctx->poll();
    const Row* row = t.fetch(id, view);
    if (row == nullptr) continue;
    if (stmt.where && !is_truthy(eval_expr(*stmt.where, *row, params))) continue;
    check_foreign_keys_delete(t, *row, view);
    t.erase(id, stamp, view);
    ++deleted;
  }
  return deleted;
}

// ------------------------------------------------------------------- DDL

void Database::run_create_table(const CreateTableStatement& stmt) {
  reject_system_table(stmt.schema.name(), "CREATE TABLE");
  const std::string key = util::to_lower(stmt.schema.name());
  if (tables_.count(key)) {
    if (stmt.if_not_exists) return;
    throw DbError("table already exists: " + stmt.schema.name());
  }
  if (views_.count(key)) {
    throw DbError("a view named " + stmt.schema.name() + " already exists");
  }
  if (in_txn_) throw DbError("DDL inside a transaction is not supported");
  // Validate foreign keys up front so a broken schema never enters the
  // catalog (self-references are allowed; Table rejects unknown columns).
  for (const auto& fk : stmt.schema.foreign_keys()) {
    if (!util::iequals(fk.parent_table, stmt.schema.name()) &&
        !has_table(fk.parent_table)) {
      throw DbError("foreign key references unknown table " + fk.parent_table);
    }
  }
  auto t = std::make_unique<Table>(stmt.schema);
  tables_.emplace(key, std::move(t));
  table_order_.push_back(stmt.schema.name());
}

void Database::run_drop_table(const DropTableStatement& stmt) {
  const std::string key = util::to_lower(stmt.table);
  auto it = tables_.find(key);
  if (it == tables_.end()) {
    if (stmt.if_exists) return;
    throw DbError("no such table: " + stmt.table);
  }
  if (in_txn_) throw DbError("DDL inside a transaction is not supported");
  // Refuse when another table still references this one.
  for (const auto& [other_key, other] : tables_) {
    if (other_key == key) continue;
    for (const auto& fk : other->schema().foreign_keys()) {
      if (util::iequals(fk.parent_table, stmt.table) && other->live_row_count() > 0) {
        throw DbError("cannot drop " + stmt.table + ": referenced by " +
                      other->schema().name());
      }
    }
  }
  tables_.erase(it);
  for (auto name_it = table_order_.begin(); name_it != table_order_.end(); ++name_it) {
    if (util::iequals(*name_it, stmt.table)) {
      table_order_.erase(name_it);
      break;
    }
  }
}

void Database::run_create_index(const CreateIndexStatement& stmt) {
  Table& t = table(stmt.table);
  const std::size_t column = t.schema().column_index_or_throw(stmt.column);
  if (stmt.unique && !t.has_unique_index(column)) {
    // Refuse before anything changes (no index, no WAL record) when the
    // rows this statement sees already repeat a non-NULL key.
    std::unordered_set<Value, ValueHash> keys;
    t.scan(read_view(), [&](RowId, const Row& row) {
      if (!row[column].is_null() && !keys.insert(row[column]).second) {
        throw DbError("cannot create unique index on " + t.schema().name() +
                      "." + stmt.column + ": duplicate key " +
                      row[column].to_string());
      }
    });
  }
  t.create_index(column, stmt.unique);
}

void Database::run_create_view(const CreateViewStatement& stmt) {
  reject_system_table(stmt.name, "CREATE VIEW");
  const std::string key = util::to_lower(stmt.name);
  if (tables_.count(key)) {
    throw DbError("a table named " + stmt.name + " already exists");
  }
  if (views_.count(key)) {
    throw DbError("view already exists: " + stmt.name);
  }
  if (in_txn_) throw DbError("DDL inside a transaction is not supported");
  views_.emplace(key, stmt.select_sql);
  view_order_.push_back(stmt.name);
}

void Database::run_drop_view(const DropViewStatement& stmt) {
  const std::string key = util::to_lower(stmt.name);
  auto it = views_.find(key);
  if (it == views_.end()) {
    if (stmt.if_exists) return;
    throw DbError("no such view: " + stmt.name);
  }
  if (in_txn_) throw DbError("DDL inside a transaction is not supported");
  views_.erase(it);
  for (auto name_it = view_order_.begin(); name_it != view_order_.end();
       ++name_it) {
    if (util::iequals(*name_it, stmt.name)) {
      view_order_.erase(name_it);
      break;
    }
  }
}

// ---------------------------------------------------------- foreign keys

void Database::check_foreign_keys_insert(const Table& t, const Row& row,
                                         const ReadView& view) {
  for (const auto& fk : t.schema().foreign_keys()) {
    const Value& value = row[t.schema().column_index_or_throw(fk.column)];
    if (value.is_null()) continue;
    const Table& parent = table(fk.parent_table);
    const std::size_t parent_column =
        parent.schema().column_index_or_throw(fk.parent_column);
    bool found = false;
    if (auto hits = parent.index_equal(parent_column, value)) {
      // Index entries are append-only and can outlive the versions that
      // introduced them: resolve each hit against the writer's view and
      // re-check the key before trusting it.
      for (RowId id : *hits) {
        const Row* parent_row = parent.fetch(id, view);
        if (parent_row != nullptr && (*parent_row)[parent_column] == value) {
          found = true;
          break;
        }
      }
    } else {
      parent.scan(view, [&](RowId, const Row& parent_row) {
        if (parent_row[parent_column] == value) found = true;
      });
    }
    if (!found) {
      throw DbError("foreign key violation: " + t.schema().name() + "." +
                    fk.column + " = " + value.to_string() + " has no parent in " +
                    fk.parent_table + "." + fk.parent_column);
    }
  }
}

void Database::check_foreign_keys_delete(const Table& t, const Row& row,
                                         const ReadView& view) {
  // Restrict semantics: refuse to delete a row other tables still reference.
  for (const auto& [key, child] : tables_) {
    for (const auto& fk : child->schema().foreign_keys()) {
      if (!util::iequals(fk.parent_table, t.schema().name())) continue;
      const std::size_t parent_column =
          t.schema().column_index_or_throw(fk.parent_column);
      const Value& value = row[parent_column];
      if (value.is_null()) continue;
      const std::size_t child_column =
          child->schema().column_index_or_throw(fk.column);
      bool referenced = false;
      // Table indexes every FK column. When the child is the same table
      // as the parent, the row being deleted may reference itself; that
      // is fine. Stale index hits are filtered by resolving against the
      // writer's view.
      const auto hits = child->index_equal(child_column, value).value();
      for (RowId id : hits) {
        const Row* child_row = child->fetch(id, view);
        if (child_row == nullptr || (*child_row)[child_column] != value) {
          continue;
        }
        if (child.get() == &t && *child_row == row) continue;
        referenced = true;
        break;
      }
      if (referenced) {
        throw DbError("cannot delete from " + t.schema().name() + ": row " +
                      fk.parent_column + " = " + value.to_string() +
                      " is referenced by " + child->schema().name() + "." +
                      fk.column);
      }
    }
  }
}

// ----------------------------------------------------------- transactions

void Database::begin() {
  if (in_txn_) throw DbError("nested transactions are not supported");
  in_txn_ = true;
  txn_wal_buffer_.clear();
  txn_stamps_.clear();
  // The transaction is one write unit: all of its statements share one
  // token (so each sees the previous ones' pending versions), and its
  // thread holds the writer mutex until COMMIT/ROLLBACK.
  writer_token_ = next_token_.fetch_add(1, std::memory_order_relaxed);
  writer_thread_.store(std::this_thread::get_id(), std::memory_order_release);

  txn_intro_.token.store(writer_token_, std::memory_order_relaxed);
  txn_intro_.read_ts.store(commit_ts_.load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
  txn_intro_.statements.store(0, std::memory_order_relaxed);
  static auto& versions_installed =
      telemetry::MetricsRegistry::instance().counter("mvcc.versions_installed");
  txn_intro_.versions_base.store(versions_installed.value(),
                                 std::memory_order_relaxed);
  txn_intro_.started_unix_ms.store(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count(),
      std::memory_order_relaxed);
  txn_intro_.open.store(true, std::memory_order_release);
}

void Database::commit() {
  if (!in_txn_) throw DbError("COMMIT without BEGIN");
  try {
    log_to_wal(txn_wal_buffer_, /*commit=*/true);
  } catch (...) {
    // The batch never reached the log: abort every stamp so the
    // in-memory state matches what recovery would reconstruct, then
    // surface the IO failure. The transaction is over either way.
    end_transaction(/*committed=*/false);
    throw;
  }
  end_transaction(/*committed=*/true);
}

void Database::rollback() {
  if (!in_txn_) throw DbError("ROLLBACK without BEGIN");
  end_transaction(/*committed=*/false);
}

void Database::end_transaction(bool committed) {
  in_txn_ = false;
  txn_intro_.open.store(false, std::memory_order_release);
  txn_wal_buffer_.clear();
  if (committed) {
    publish_txn_stamps();
  } else {
    abort_txn_stamps();
  }
  clear_writer();
  static auto& commits =
      telemetry::MetricsRegistry::instance().counter("sqldb.txn.commits");
  static auto& rollbacks =
      telemetry::MetricsRegistry::instance().counter("sqldb.txn.rollbacks");
  (committed ? commits : rollbacks).add();
}

void Database::await_durability(StatementContext& ctx) {
  const std::uint64_t seq = ctx.take_pending_durable();
  if (seq == 0 || !wal_) return;
  governed_durable_write([&] { wal_->wait_durable(seq); }, "WAL fsync");
}

void Database::log_to_wal(const std::vector<LoggedStatement>& statements,
                          bool commit) {
  if (!wal_ || replaying_ || statements.empty()) return;
  const char* site = commit ? "wal.commit" : "wal.append";
  std::uint64_t seq = 0;
  governed_durable_write([&] { seq = wal_->append(statements, site); },
                         commit ? "commit (WAL batch append)" : "WAL append");
  const SyncMode sync = wal_->sync_mode();
  if (sync == SyncMode::kNone || (sync == SyncMode::kOnCommit && !commit)) {
    return;
  }
  if (StatementContext* ctx = StatementContext::current()) {
    ctx->set_pending_durable(seq);
    return;
  }
  governed_durable_write([&] { wal_->wait_durable(seq); }, "WAL fsync");
}

// ------------------------------------------------------------ persistence

void Database::checkpoint() {
  if (in_txn_) throw DbError("cannot checkpoint inside a transaction");
  // MVCC garbage collection rides the checkpoint: the caller holds full
  // exclusion (writer mutex + drain lock), so no reader holds a snapshot
  // and no stamp is pending. Every chain collapses to its newest
  // committed version, dead slots are freed, and — with every stamp
  // pointer folded into the version caches by vacuum() — the retired
  // stamps themselves can be released.
  const auto checkpoint_start = std::chrono::steady_clock::now();
  {
    const auto vacuum_start = checkpoint_start;
    for (auto& [name, t] : tables_) t->vacuum();
    stamp_graveyard_.clear();
    telemetry::trace_emit("mvcc.vacuum", "checkpoint", vacuum_start,
                          std::chrono::steady_clock::now(),
                          current_trace_parent());
  }
  if (!wal_) {
    telemetry::trace_emit("checkpoint", "checkpoint", checkpoint_start,
                          std::chrono::steady_clock::now(),
                          current_trace_parent());
    return;
  }
  util::WallTimer timer;
  namespace fs = std::filesystem;
  const fs::path snapshot = directory_ / kSnapshotFile;
  const fs::path previous = directory_ / kSnapshotPrev;
  const fs::path tmp = directory_ / kSnapshotTmp;

  // The whole sequence is governed: a transient ENOSPC retries (each
  // step is safe to re-run — the temp write starts over, the renames
  // are idempotent), a persistent one degrades the database to
  // read-only instead of failing every future checkpoint attempt.
  governed_durable_write(
      [&] {
        // 1. Write the complete new snapshot beside the live one and
        //    fsync it: a crash from here on can at worst leave a dead
        //    temp file.
        util::failpoint::evaluate("snapshot.write");
        util::write_file_durable(tmp, encode_snapshot(*this, wal_->last_seq()));

        // 2. Rotate the live snapshot to .prev (recovery's fallback),
        //    then install the new one. Both renames are atomic; the
        //    directory fsync makes them durable. A crash between the
        //    renames leaves no snapshot.pdb but a .prev plus the full
        //    WAL — fully recoverable.
        std::error_code ec;
        util::failpoint::evaluate("snapshot.rotate");
        if (fs::exists(snapshot)) {
          fs::rename(snapshot, previous, ec);
          if (ec) {
            throw IoError("cannot rotate snapshot to " + previous.string() +
                              ": " + ec.message(),
                          ec.value());
          }
        }
        util::failpoint::evaluate("snapshot.install");
        fs::rename(tmp, snapshot, ec);
        if (ec) {
          throw IoError("cannot install snapshot " + snapshot.string() + ": " +
                            ec.message(),
                        ec.value());
        }
        util::fsync_dir(directory_);

        // 3. Truncate the WAL (durably — see Wal::reset). A crash
        //    before this is covered by the snapshot's watermark: replay
        //    skips records the snapshot already contains.
        wal_->reset();
      },
      "checkpoint");

  static auto& checkpoints =
      telemetry::MetricsRegistry::instance().counter("sqldb.checkpoints");
  static auto& checkpoint_micros =
      telemetry::MetricsRegistry::instance().histogram(
          "sqldb.checkpoint.micros");
  checkpoints.add();
  checkpoint_micros.record(static_cast<std::uint64_t>(timer.seconds() * 1e6));
  telemetry::trace_emit("checkpoint", "checkpoint", checkpoint_start,
                        std::chrono::steady_clock::now(),
                        current_trace_parent());
}

std::uint64_t Database::load_snapshot(const std::filesystem::path& path) {
  util::failpoint::evaluate("snapshot.load");
  const std::string file = util::read_file(path);
  try {
    SnapshotImage image = decode_snapshot(file);
    for (const auto& view : image.views) run_create_view(view);
    for (auto& t : image.tables) {
      const std::string name = t->schema().name();
      if (!tables_.emplace(util::to_lower(name), std::move(t)).second) {
        throw DbError("duplicate table " + name);
      }
      table_order_.push_back(name);
    }
    for (const auto& index : image.indexes) run_create_index(index);
    return image.watermark;
  } catch (const DbError& e) {
    // A body that passed its checksum but does not describe a valid
    // catalog is as unusable as a damaged one: report it the same way,
    // so the caller falls back to the previous snapshot.
    throw ParseError(std::string("invalid snapshot body: ") + e.what());
  }
}

void Database::clear_catalog() {
  tables_.clear();
  table_order_.clear();
  views_.clear();
  view_order_.clear();
}

}  // namespace perfdmf::sqldb

