// JDBC-shaped connectivity layer.
//
// The paper's implementation reaches every supported DBMS through JDBC so
// analysis code never sees vendor SQL. This layer reproduces the shapes
// PerfDMF depends on: Connection, Statement, PreparedStatement with '?'
// binding, ResultSet cursors, and DatabaseMetaData column reflection
// (the getMetaData() mechanism behind the flexible schema, paper §3.2).
//
// Concurrency: a Connection coordinates with every other connection to
// the same Database through the database's LockManager. Statements are
// classified at prepare/parse time; SELECTs take the lock shared so
// read-only queries from different connections (or threads) execute in
// parallel, while DML/DDL/transactions serialize exclusively. Several
// lightweight connections may share one Database (the multi-client
// analysis-server deployment); a single Connection may also still be
// shared by several threads, as before.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "sqldb/ast.h"
#include "sqldb/database.h"

namespace perfdmf::sqldb {

/// Cursor over a materialized query result. Navigation follows JDBC:
/// the cursor starts before the first row; next() advances and reports
/// whether a row is available. Columns are addressed 1-based by position
/// or by (case-insensitive) name.
class ResultSet {
 public:
  explicit ResultSet(ResultSetData data);

  bool next();
  std::size_t row_count() const { return data_.rows.size(); }
  std::size_t column_count() const { return data_.column_names.size(); }
  const std::vector<std::string>& column_names() const { return data_.column_names; }

  /// 1-based positional access (JDBC convention).
  Value get(std::size_t index) const;
  Value get(const std::string& column_name) const;

  std::int64_t get_int(std::size_t index) const { return get(index).as_int(); }
  double get_double(std::size_t index) const { return get(index).as_real(); }
  std::string get_string(std::size_t index) const;
  bool is_null(std::size_t index) const { return get(index).is_null(); }

  std::int64_t get_int(const std::string& name) const { return get(name).as_int(); }
  double get_double(const std::string& name) const { return get(name).as_real(); }
  std::string get_string(const std::string& name) const;
  bool is_null(const std::string& name) const { return get(name).is_null(); }

 private:
  const Row& current() const;

  ResultSetData data_;
  std::ptrdiff_t cursor_ = -1;
};

class Connection;

/// Counters for a Connection's statement/plan cache.
struct PlanCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t invalidations = 0;  // entries dropped on schema-epoch change
  std::uint64_t evictions = 0;      // entries dropped by LRU capacity
};

/// A pre-parsed statement with '?' parameter binding (1-based setters).
/// A PreparedStatement belongs to the thread using it (its AST is bound
/// in place during execution); share the Connection, not the statement.
class PreparedStatement {
 public:
  PreparedStatement(Connection& connection, std::string sql);

  void set_int(std::size_t index, std::int64_t value);
  void set_double(std::size_t index, double value);
  void set_string(std::size_t index, std::string value);
  void set_null(std::size_t index);
  void set_value(std::size_t index, Value value);
  void clear_parameters();

  ResultSet execute_query();
  /// Returns the affected-row count.
  std::size_t execute_update();

  std::size_t parameter_count() const { return statement_.placeholder_count; }

  /// Whether this statement only reads (classified once, at parse time).
  bool is_read_only() const {
    return classify_statement(statement_) == StatementClass::kRead;
  }

 private:
  /// Debug-build enforcement of the thread-affinity rule above: the
  /// first thread to bind or execute becomes the owner; any other thread
  /// trips an assertion (catches cross-thread sharing without TSan).
  void debug_claim_thread();

  Connection& connection_;
  std::string sql_;
  Statement statement_;
  Params params_;
  std::atomic<std::thread::id> owner_thread_{};
};

/// Reflection over the catalog, mirroring java.sql.DatabaseMetaData.
class DatabaseMetaData {
 public:
  explicit DatabaseMetaData(Connection& connection) : connection_(connection) {}

  std::vector<std::string> get_tables();
  std::vector<std::string> get_views();

  struct ColumnInfo {
    std::string name;
    ValueType type;
    bool not_null;
    bool primary_key;
  };
  std::vector<ColumnInfo> get_columns(const std::string& table);

  struct ForeignKeyInfo {
    std::string column;
    std::string parent_table;
    std::string parent_column;
  };
  std::vector<ForeignKeyInfo> get_foreign_keys(const std::string& table);

 private:
  Connection& connection_;
};

class Connection {
 public:
  /// In-memory database.
  Connection();
  /// File-backed database at `directory` (created / recovered). What
  /// recovery found — corrupt WAL records, a rescued snapshot, replay
  /// failures — is in recovery_report().
  explicit Connection(const std::filesystem::path& directory);
  Connection(const std::filesystem::path& directory,
             const DurabilityOptions& options);
  /// Lightweight connection over an existing (shared) database. All
  /// connections to one Database coordinate through its lock manager,
  /// so read-only statements from different connections run in parallel
  /// while writes serialize.
  explicit Connection(std::shared_ptr<Database> database);

  /// Execute SQL directly. Parsed statements are cached on this
  /// connection keyed by the SQL text (LRU), so repeated shapes —
  /// DatabaseAPI's per-trial INSERT/SELECT loops — skip re-parsing. The
  /// cache is invalidated by DDL through the database's schema epoch.
  ResultSet execute(std::string_view sql, const Params& params = {});
  std::size_t execute_update(std::string_view sql, const Params& params = {});

  /// Plan-cache observability and sizing. Capacity 0 disables caching.
  PlanCacheStats plan_cache_stats() const;
  void set_plan_cache_capacity(std::size_t capacity);

  PreparedStatement prepare(std::string sql) {
    return PreparedStatement(*this, std::move(sql));
  }

  DatabaseMetaData get_meta_data() { return DatabaseMetaData(*this); }

  /// Transactions: begin()/commit()/rollback() execute BEGIN/COMMIT/
  /// ROLLBACK exactly as execute("BEGIN") etc. would — one path, so an
  /// API transaction is listed in PERFDMF_STATEMENTS, admitted once for
  /// the whole unit, and its commit joins group commit (the fsync is
  /// awaited after the writer mutex is released). A transaction holds
  /// the writer mutex from BEGIN to COMMIT/ROLLBACK and is thread-affine:
  /// finish it on the thread that began it. COMMIT ends the transaction
  /// even when it throws. Prefer ScopedTransaction below to calling
  /// these by hand.
  void begin();
  void commit();
  void rollback();
  void checkpoint();

  // ----- statement governance ------------------------------------------
  /// Per-statement deadline for everything executed through this
  /// connection: row loops, lock waits, and admission queueing all
  /// observe it; expiry raises DbError{kTimeout} with the statement
  /// rolled back. 0 disables (default; initial value comes from
  /// PERFDMF_STMT_TIMEOUT_MS).
  void set_statement_timeout_ms(std::int64_t ms) { statement_timeout_ms_ = ms; }
  std::int64_t statement_timeout_ms() const { return statement_timeout_ms_; }

  /// Per-statement memory budget in bytes for the executor's hash-join /
  /// group-by / Top-K state. Crossing it degrades to the fallback
  /// operators; crossing 4x errors with DbError{kMemBudget}. 0 disables
  /// (default; initial value comes from PERFDMF_STMT_MEM_BYTES).
  void set_statement_mem_bytes(std::uint64_t bytes) {
    statement_mem_bytes_ = bytes;
  }
  std::uint64_t statement_mem_bytes() const { return statement_mem_bytes_; }

  /// Cancel the statement this connection is currently executing —
  /// callable from any thread. The victim observes the flag at its next
  /// cancellation point and unwinds with DbError{kCancelled}; if no
  /// statement is in flight, the next one is cancelled promptly instead.
  void cancel() { cancel_flag_.store(true, std::memory_order_relaxed); }
  /// Withdraw a cancel() that has not been delivered yet.
  void clear_cancel() { cancel_flag_.store(false, std::memory_order_relaxed); }

  Database& database() { return *database_; }
  /// The shared database handle, for opening sibling connections.
  const std::shared_ptr<Database>& database_ptr() const { return database_; }

  /// What opening the database's files found (clean for in-memory).
  const RecoveryReport& recovery_report() const {
    return database_->recovery_report();
  }

 private:
  friend class PreparedStatement;

  /// Arm `ctx` (the statement's record, already installed), list it in
  /// PERFDMF_STATEMENTS, classify, admit (governor), take the right lock,
  /// and execute.
  ResultSetData run_statement(StatementContext& ctx, Statement& stmt,
                              const Params& params);
  /// Run BEGIN/COMMIT/ROLLBACK (`kind`) through run_statement.
  void run_transaction_control(StatementKind kind, std::string_view sql);
  /// Apply this connection's timeout/budget/cancel state to `ctx`.
  void arm_governance(StatementContext& ctx);
  /// Seed timeout/budget defaults from PERFDMF_STMT_TIMEOUT_MS and
  /// PERFDMF_STMT_MEM_BYTES.
  void init_governance_from_env();

  // ----- statement/plan cache -----------------------------------------
  // A cached AST is bound in place during execution, so an entry is
  // leased exclusively (in_use) while a statement runs; a second thread
  // executing the same SQL text concurrently falls back to a fresh
  // parse. Entries carry the schema epoch they were parsed under and are
  // dropped when DDL has bumped it since.
  struct CacheEntry {
    std::unique_ptr<Statement> statement;
    std::uint64_t schema_epoch = 0;
    bool in_use = false;
    std::list<std::string>::iterator lru;  // position in lru_
  };
  struct PlanLease {
    Statement* statement = nullptr;
    std::unique_ptr<Statement> owned;  // set when not served from cache
    std::string key;
    bool from_cache = false;
    bool cache_on_release = false;
  };

  ResultSetData run_cached(std::string_view sql, const Params& params);
  PlanLease lease_plan(std::string_view sql);
  void release_plan(PlanLease& lease);
  void evict_to_capacity_locked();

  std::shared_ptr<Database> database_;

  std::int64_t statement_timeout_ms_ = 0;
  std::uint64_t statement_mem_bytes_ = 0;
  std::atomic<bool> cancel_flag_{false};

  mutable std::mutex cache_mutex_;
  std::unordered_map<std::string, CacheEntry> cache_;
  std::list<std::string> lru_;  // front = most recently used
  std::size_t cache_capacity_ = 64;
  PlanCacheStats cache_stats_;
};

/// The RAII transaction. Begins one on construction — or, when the
/// calling thread already owns a transaction, joins it and leaves the
/// commit to the outer owner — and rolls back on destruction unless
/// commit() was reached. commit() ends the transaction even when it
/// throws, so the error it raises (an IoError from the WAL, say) is the
/// one the caller sees.
class ScopedTransaction {
 public:
  explicit ScopedTransaction(Connection& connection);
  ~ScopedTransaction();
  void commit();

  ScopedTransaction(const ScopedTransaction&) = delete;
  ScopedTransaction& operator=(const ScopedTransaction&) = delete;

 private:
  Connection& connection_;
  bool owned_;
  bool done_ = false;
};

}  // namespace perfdmf::sqldb
