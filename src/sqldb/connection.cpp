#include "sqldb/connection.h"

#include <cassert>
#include <cstdlib>

#include "sqldb/parser.h"
#include "sqldb/system_tables.h"
#include "telemetry/metrics.h"
#include "util/error.h"
#include "util/strings.h"

namespace perfdmf::sqldb {

namespace {

/// DML results are a one-cell affected-row count; unwrap it.
std::size_t update_count(const ResultSetData& result) {
  if (result.rows.size() == 1 && result.rows[0].size() == 1 &&
      result.rows[0][0].type() == ValueType::kInt) {
    return static_cast<std::size_t>(result.rows[0][0].as_int());
  }
  return result.rows.size();
}

/// Non-negative integer from the environment; unset/invalid/negative -> 0.
std::int64_t env_nonneg(const char* name) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return 0;
  const auto parsed = util::parse_int(raw);
  return (parsed && *parsed > 0) ? *parsed : 0;
}

/// Process-global plan-cache counters, folded from every Connection's
/// per-instance PlanCacheStats (which remain for per-connection queries).
struct PlanCacheMetrics {
  telemetry::Counter& hits;
  telemetry::Counter& misses;
  telemetry::Counter& invalidations;
  telemetry::Counter& evictions;

  static PlanCacheMetrics& instance() {
    auto& registry = telemetry::MetricsRegistry::instance();
    static PlanCacheMetrics m{
        registry.counter("sqldb.plan_cache.hits"),
        registry.counter("sqldb.plan_cache.misses"),
        registry.counter("sqldb.plan_cache.invalidations"),
        registry.counter("sqldb.plan_cache.evictions"),
    };
    return m;
  }
};

}  // namespace

// ------------------------------------------------------------- ResultSet

ResultSet::ResultSet(ResultSetData data) : data_(std::move(data)) {}

bool ResultSet::next() {
  if (cursor_ + 1 >= static_cast<std::ptrdiff_t>(data_.rows.size())) {
    cursor_ = static_cast<std::ptrdiff_t>(data_.rows.size());
    return false;
  }
  ++cursor_;
  return true;
}

const Row& ResultSet::current() const {
  if (cursor_ < 0 || cursor_ >= static_cast<std::ptrdiff_t>(data_.rows.size())) {
    throw DbError("ResultSet cursor is not on a row (call next())");
  }
  return data_.rows[static_cast<std::size_t>(cursor_)];
}

Value ResultSet::get(std::size_t index) const {
  const Row& row = current();
  if (index < 1 || index > row.size()) {
    throw DbError("ResultSet column index " + std::to_string(index) +
                  " out of range 1.." + std::to_string(row.size()));
  }
  return row[index - 1];
}

Value ResultSet::get(const std::string& column_name) const {
  for (std::size_t i = 0; i < data_.column_names.size(); ++i) {
    if (util::iequals(data_.column_names[i], column_name)) return get(i + 1);
  }
  throw DbError("ResultSet has no column named '" + column_name + "'");
}

std::string ResultSet::get_string(std::size_t index) const {
  Value v = get(index);
  return v.is_null() ? std::string() : v.to_string();
}

std::string ResultSet::get_string(const std::string& name) const {
  Value v = get(name);
  return v.is_null() ? std::string() : v.to_string();
}

// ---------------------------------------------------- PreparedStatement

PreparedStatement::PreparedStatement(Connection& connection, std::string sql)
    : connection_(connection),
      sql_(std::move(sql)),
      statement_(parse_statement(sql_)) {
  params_.resize(statement_.placeholder_count);
}

void PreparedStatement::debug_claim_thread() {
#ifndef NDEBUG
  // Statements are thread-affine (the AST is bound in place during
  // execution); the connection mutex no longer serializes them, so a
  // statement shared across threads is a silent data race. Catch it in
  // debug builds: the first thread to bind or execute owns the statement.
  std::thread::id expected{};
  const std::thread::id self = std::this_thread::get_id();
  if (!owner_thread_.compare_exchange_strong(expected, self,
                                             std::memory_order_relaxed) &&
      expected != self) {
    assert(!"PreparedStatement used from multiple threads; "
            "share the Connection, not the statement");
  }
#endif
}

void PreparedStatement::set_value(std::size_t index, Value value) {
  debug_claim_thread();
  if (index < 1 || index > params_.size()) {
    throw DbError("bind index " + std::to_string(index) + " out of range 1.." +
                  std::to_string(params_.size()));
  }
  params_[index - 1] = std::move(value);
}

void PreparedStatement::set_int(std::size_t index, std::int64_t value) {
  set_value(index, Value(value));
}
void PreparedStatement::set_double(std::size_t index, double value) {
  set_value(index, Value(value));
}
void PreparedStatement::set_string(std::size_t index, std::string value) {
  set_value(index, Value(std::move(value)));
}
void PreparedStatement::set_null(std::size_t index) { set_value(index, Value()); }

void PreparedStatement::clear_parameters() {
  params_.assign(params_.size(), Value());
}

ResultSet PreparedStatement::execute_query() {
  debug_claim_thread();
  StatementContext ctx(sql_);
  return ResultSet(connection_.run_statement(ctx, statement_, params_));
}

std::size_t PreparedStatement::execute_update() {
  debug_claim_thread();
  StatementContext ctx(sql_);
  return update_count(connection_.run_statement(ctx, statement_, params_));
}

// ------------------------------------------------------ DatabaseMetaData

std::vector<std::string> DatabaseMetaData::get_tables() {
  std::vector<std::string> names;
  {
    StatementGuard guard(connection_.database().locks(), /*read_only=*/true);
    names = connection_.database().table_names();
  }
  // Virtual system tables are part of the catalog a client sees, even
  // though they live outside the storage layer.
  for (auto& name : system_table_names()) names.push_back(std::move(name));
  return names;
}

std::vector<std::string> DatabaseMetaData::get_views() {
  StatementGuard guard(connection_.database().locks(), /*read_only=*/true);
  return connection_.database().view_names();
}

std::vector<DatabaseMetaData::ColumnInfo> DatabaseMetaData::get_columns(
    const std::string& table) {
  std::vector<ColumnInfo> out;
  if (is_system_table_name(table)) {
    const TableSchema& schema = system_table_schema(table);
    for (const auto& column : schema.columns()) {
      out.push_back(
          {column.name, column.type, column.not_null, column.primary_key});
    }
    return out;
  }
  StatementGuard guard(connection_.database().locks(), /*read_only=*/true);
  const Table& t = connection_.database().table(table);
  out.reserve(t.schema().columns().size());
  for (const auto& column : t.schema().columns()) {
    out.push_back({column.name, column.type, column.not_null, column.primary_key});
  }
  return out;
}

std::vector<DatabaseMetaData::ForeignKeyInfo> DatabaseMetaData::get_foreign_keys(
    const std::string& table) {
  if (is_system_table_name(table)) return {};  // telemetry has no FK edges
  StatementGuard guard(connection_.database().locks(), /*read_only=*/true);
  const Table& t = connection_.database().table(table);
  std::vector<ForeignKeyInfo> out;
  for (const auto& fk : t.schema().foreign_keys()) {
    out.push_back({fk.column, fk.parent_table, fk.parent_column});
  }
  return out;
}

// ------------------------------------------------------------ Connection

Connection::Connection() : database_(std::make_shared<Database>()) {
  init_governance_from_env();
}

Connection::Connection(const std::filesystem::path& directory)
    : database_(std::make_shared<Database>(directory)) {
  init_governance_from_env();
}

Connection::Connection(const std::filesystem::path& directory,
                       const DurabilityOptions& options)
    : database_(std::make_shared<Database>(directory, options)) {
  init_governance_from_env();
}

Connection::Connection(std::shared_ptr<Database> database)
    : database_(std::move(database)) {
  if (!database_) throw InvalidArgument("Connection over a null database");
  init_governance_from_env();
}

void Connection::init_governance_from_env() {
  statement_timeout_ms_ = env_nonneg("PERFDMF_STMT_TIMEOUT_MS");
  statement_mem_bytes_ =
      static_cast<std::uint64_t>(env_nonneg("PERFDMF_STMT_MEM_BYTES"));
}

void Connection::arm_governance(StatementContext& ctx) {
  ctx.deadline = util::Deadline::after_ms(statement_timeout_ms_);
  ctx.cancel = &cancel_flag_;
  ctx.mem_soft_bytes = statement_mem_bytes_;
  // Soft breach degrades to spill-free operators; only a statement whose
  // state still grows 4x past the budget is killed outright.
  ctx.mem_hard_bytes = statement_mem_bytes_ == 0 ? 0 : statement_mem_bytes_ * 4;
}

ResultSetData Connection::run_statement(StatementContext& ctx, Statement& stmt,
                                        const Params& params) {
  arm_governance(ctx);
  if (stmt.kind == StatementKind::kExplain && stmt.analyze) {
    // EXPLAIN ANALYZE: collect operator stats and attribute every phase
    // (admission, lock wait, fsync, ...) even when no slow threshold or
    // tracing is armed.
    ctx.arm_analyze();
  }
  // Listed in PERFDMF_STATEMENTS for the whole governed lifetime
  // (admission wait included). The guard outlives nothing it points to:
  // ctx outlives this frame and the slot is cleared first.
  StatementRegistry::Guard listing(database_->statements(), ctx);
  const std::string_view sql = ctx.sql();
  LockManager& locks = database_->locks();
  const StatementClass cls = classify_statement(stmt);

  if (locks.owned_by_this_thread()) {
    // Inside this thread's transaction: the exclusive lock is already
    // held (and the unit was admitted at BEGIN), so every statement
    // passes straight through. COMMIT/ROLLBACK ends the transaction and
    // releases (even the failure paths inside Database keep the
    // transaction closed, so release unconditionally). The admission
    // slot is released under the lock — after it another transaction
    // could adopt a new slot concurrently.
    if (cls == StatementClass::kTxnEnd) {
      ResultSetData result;
      try {
        result = database_->execute(stmt, params, sql);
      } catch (...) {
        database_->release_txn_admission();
        locks.release_transaction();
        throw;
      }
      database_->release_txn_admission();
      locks.release_transaction();
      // Group commit: await the deferred fsync only after the writer
      // mutex is released, so other committers can queue behind the
      // same leader fsync instead of serializing on the lock.
      database_->await_durability(ctx);
      return result;
    }
    return database_->execute(stmt, params, sql);
  }

  if (cls == StatementClass::kTxnBegin) {
    // Admission strictly precedes the lock (deadlock-freedom ordering);
    // the slot then spans the whole BEGIN..COMMIT unit.
    AdmissionSlot slot = database_->governor().admit(&ctx);
    locks.acquire_transaction(&ctx);
    try {
      ResultSetData result = database_->execute(stmt, params, sql);
      database_->adopt_txn_admission(std::move(slot));
      return result;
    } catch (...) {
      locks.release_transaction();
      throw;  // the slot's RAII releases it
    }
  }

  // kTxnEnd without an owned transaction still locks so the "COMMIT
  // without BEGIN" diagnostic reads transaction state safely (no
  // admission: it only reads state and reports an error).
  AdmissionSlot slot = cls == StatementClass::kTxnEnd
                           ? AdmissionSlot{}
                           : database_->governor().admit(&ctx);
  ResultSetData result;
  {
    StatementGuard guard(locks, cls, &ctx);
    result = database_->execute(stmt, params, sql);
  }
  // An autocommitted DML statement under SyncMode::kAlways defers its
  // fsync; awaiting it after the guard is what lets concurrent
  // single-statement committers share one group fsync.
  database_->await_durability(ctx);
  return result;
}

ResultSet Connection::execute(std::string_view sql, const Params& params) {
  return ResultSet(run_cached(sql, params));
}

std::size_t Connection::execute_update(std::string_view sql, const Params& params) {
  return update_count(run_cached(sql, params));
}

ResultSetData Connection::run_cached(std::string_view sql, const Params& params) {
  StatementContext ctx(sql);
  PlanLease lease = lease_plan(sql);
  ResultSetData result;
  try {
    result = run_statement(ctx, *lease.statement, params);
  } catch (...) {
    release_plan(lease);
    throw;
  }
  const bool is_explain = lease.statement->kind == StatementKind::kExplain;
  const bool hit = lease.from_cache;
  release_plan(lease);
  if (is_explain) {
    // EXPLAIN reports the cache outcome for its own SQL text: the first
    // run misses, a repeat hits, and DDL in between invalidates.
    result.rows.push_back(
        {Value(std::string("plan-cache: ") + (hit ? "hit" : "miss"))});
  }
  return result;
}

Connection::PlanLease Connection::lease_plan(std::string_view sql) {
  PlanLease lease;
  lease.key.assign(sql);
  const std::uint64_t epoch = database_->schema_epoch();
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    auto it = cache_.find(lease.key);
    if (it != cache_.end()) {
      CacheEntry& entry = it->second;
      if (entry.in_use) {
        // The same SQL text is executing on another thread and the AST
        // binds in place; bypass the cache with a private parse.
        ++cache_stats_.misses;
        PlanCacheMetrics::instance().misses.add();
      } else if (entry.schema_epoch != epoch) {
        // DDL since this plan was parsed: drop it and re-parse.
        ++cache_stats_.invalidations;
        ++cache_stats_.misses;
        PlanCacheMetrics::instance().invalidations.add();
        PlanCacheMetrics::instance().misses.add();
        lru_.erase(entry.lru);
        cache_.erase(it);
        lease.cache_on_release = true;
      } else {
        ++cache_stats_.hits;
        PlanCacheMetrics::instance().hits.add();
        entry.in_use = true;
        lru_.splice(lru_.begin(), lru_, entry.lru);  // touch
        lease.statement = entry.statement.get();
        lease.from_cache = true;
        return lease;
      }
    } else {
      ++cache_stats_.misses;
      PlanCacheMetrics::instance().misses.add();
      lease.cache_on_release = cache_capacity_ > 0;
    }
  }
  {
    PhaseTimer parse_phase(telemetry::Phase::kParse);
    lease.owned = std::make_unique<Statement>(parse_statement(sql));  // no lock held
  }
  lease.statement = lease.owned.get();
  return lease;
}

void Connection::release_plan(PlanLease& lease) {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  if (lease.from_cache) {
    auto it = cache_.find(lease.key);
    if (it != cache_.end()) it->second.in_use = false;
    return;
  }
  if (!lease.cache_on_release || cache_capacity_ == 0) return;
  const StatementKind kind = lease.statement->kind;
  if (kind == StatementKind::kBegin || kind == StatementKind::kCommit ||
      kind == StatementKind::kRollback) {
    return;  // transaction control: nothing to gain from caching
  }
  if (cache_.count(lease.key) > 0) return;  // another thread cached it first
  lru_.push_front(lease.key);
  CacheEntry entry;
  entry.statement = std::move(lease.owned);
  // Re-read the epoch so a DDL statement's own plan is stamped with the
  // epoch it produced (it would otherwise self-invalidate immediately).
  entry.schema_epoch = database_->schema_epoch();
  entry.lru = lru_.begin();
  cache_.emplace(std::move(lease.key), std::move(entry));
  evict_to_capacity_locked();
}

void Connection::evict_to_capacity_locked() {
  while (cache_.size() > cache_capacity_) {
    // Evict from the cold end, skipping entries leased by running
    // statements (their ASTs are in use; dropping them would free a
    // statement mid-execution).
    bool evicted = false;
    for (auto it = lru_.end(); it != lru_.begin();) {
      --it;
      auto entry = cache_.find(*it);
      if (entry != cache_.end() && !entry->second.in_use) {
        cache_.erase(entry);
        lru_.erase(it);
        ++cache_stats_.evictions;
        PlanCacheMetrics::instance().evictions.add();
        evicted = true;
        break;
      }
    }
    if (!evicted) break;  // everything leased; temporarily over capacity
  }
}

PlanCacheStats Connection::plan_cache_stats() const {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  return cache_stats_;
}

void Connection::set_plan_cache_capacity(std::size_t capacity) {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  cache_capacity_ = capacity;
  evict_to_capacity_locked();
}

void Connection::begin() {
  LockManager& locks = database_->locks();
  if (locks.owned_by_this_thread()) {
    database_->begin();  // reports "nested transactions are not supported"
    return;
  }
  // Same unit discipline as the SQL BEGIN path: admit, then lock; the
  // slot rides on the database until commit()/rollback() releases it.
  StatementContext ctx;
  arm_governance(ctx);
  AdmissionSlot slot = database_->governor().admit(&ctx);
  locks.acquire_transaction(&ctx);
  try {
    database_->begin();
    database_->adopt_txn_admission(std::move(slot));
  } catch (...) {
    locks.release_transaction();
    throw;
  }
}

void Connection::commit() {
  LockManager& locks = database_->locks();
  if (!locks.owned_by_this_thread()) {
    StatementGuard guard(locks, /*read_only=*/false);
    database_->commit();  // reports "COMMIT without BEGIN"
    return;
  }
  try {
    database_->commit();
  } catch (...) {
    database_->release_txn_admission();
    locks.release_transaction();
    throw;
  }
  database_->release_txn_admission();
  locks.release_transaction();
}

void Connection::rollback() {
  LockManager& locks = database_->locks();
  if (!locks.owned_by_this_thread()) {
    StatementGuard guard(locks, /*read_only=*/false);
    database_->rollback();  // reports "ROLLBACK without BEGIN"
    return;
  }
  try {
    database_->rollback();
  } catch (...) {
    database_->release_txn_admission();
    locks.release_transaction();
    throw;
  }
  database_->release_txn_admission();
  locks.release_transaction();
}

void Connection::checkpoint() {
  // Checkpoint rewrites version chains (vacuum) and frees retired
  // stamps, so it must drain every snapshot reader, not just writers.
  StatementGuard guard(database_->locks(), StatementGuard::Level::kExclusive);
  database_->checkpoint();
}

}  // namespace perfdmf::sqldb
