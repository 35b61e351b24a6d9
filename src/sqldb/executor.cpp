#include "sqldb/executor.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "sqldb/database.h"
#include "sqldb/statement_context.h"
#include "sqldb/system_tables.h"
#include "util/error.h"
#include "util/strings.h"

namespace perfdmf::sqldb {

namespace {

// Flat per-entry estimates for memory-budget accounting. Exact sizes
// don't matter: the budget exists to bound the growth of operator state,
// so a conservative flat cost per retained entry/value is enough.
constexpr std::uint64_t kHashEntryBytes = 64;  // bucket + key + index slot
constexpr std::uint64_t kValueBytes = 48;      // one stored Value, amortized

/// Collects per-operator runtime stats (EXPLAIN ANALYZE) and emits
/// operator events onto the trace timeline. Both flags come from the
/// statement's record. Inactive — zero clock reads — unless the statement
/// runs under EXPLAIN ANALYZE or is traced. Timing uses the steady clock
/// directly so EXPLAIN ANALYZE stays exact in telemetry-off builds.
struct OpRecorder {
  ExplainInfo* explain = nullptr;  // non-null only when collecting op stats
  std::uint64_t trace_id = 0;      // the statement's id when it is traced

  static OpRecorder make(ExplainInfo* explain) {
    OpRecorder rec;
    const StatementContext* ctx = StatementContext::current();
    if (ctx == nullptr) return rec;
    if (ctx->analyze()) rec.explain = explain;
    if (ctx->trace_armed()) rec.trace_id = ctx->id();
    return rec;
  }

  bool active() const { return explain != nullptr || trace_id != 0; }

  std::chrono::steady_clock::time_point begin() const {
    return active() ? std::chrono::steady_clock::now()
                    : std::chrono::steady_clock::time_point{};
  }

  void record(std::string label, std::chrono::steady_clock::time_point start,
              std::uint64_t rows_in, std::uint64_t rows_out,
              std::uint64_t entries = 0, std::uint64_t mem_bytes = 0,
              bool degraded = false, std::uint64_t rows_read = 0) {
    if (!active()) return;
    const auto end = std::chrono::steady_clock::now();
    if (trace_id != 0) {
      telemetry::trace_emit(label, "operator", start, end, trace_id);
    }
    if (explain == nullptr) return;
    OperatorStats op;
    op.label = std::move(label);
    op.rows_in = rows_in;
    op.rows_out = rows_out;
    op.micros = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(end - start)
            .count());
    op.entries = entries;
    op.mem_bytes = mem_bytes;
    op.degraded = degraded;
    op.rows_read = rows_read;
    explain->ops.push_back(std::move(op));
  }
};

// ------------------------------------------------------------ planning

/// A simple index-usable predicate: column (by resolved index) op constant.
struct IndexPredicate {
  std::size_t column = 0;
  std::string op;  // "=", "<", "<=", ">", ">="
  Value value;
};

bool is_constant_expr(const Expr& e) {
  return e.kind == ExprKind::kLiteral || e.kind == ExprKind::kPlaceholder;
}

Value const_value(const Expr& e, const Params& params) {
  if (e.kind == ExprKind::kLiteral) return e.literal;
  if (e.placeholder_index >= params.size()) {
    throw DbError("missing bind parameter " + std::to_string(e.placeholder_index + 1));
  }
  return params[e.placeholder_index];
}

/// Walk the AND-conjunction tree of a bound WHERE clause collecting
/// predicates an index can serve. `max_column` restricts to base-table
/// columns (resolved indexes below it).
void collect_index_predicates(const Expr& e, const Params& params,
                              std::size_t max_column,
                              std::vector<IndexPredicate>& out) {
  if (e.kind == ExprKind::kBinary && e.op == "AND") {
    collect_index_predicates(*e.children[0], params, max_column, out);
    collect_index_predicates(*e.children[1], params, max_column, out);
    return;
  }
  if (e.kind == ExprKind::kBetween && !e.negated &&
      e.children[0]->kind == ExprKind::kColumnRef &&
      e.children[0]->resolved_index < max_column &&
      is_constant_expr(*e.children[1]) && is_constant_expr(*e.children[2])) {
    out.push_back({e.children[0]->resolved_index, ">=",
                   const_value(*e.children[1], params)});
    out.push_back({e.children[0]->resolved_index, "<=",
                   const_value(*e.children[2], params)});
    return;
  }
  if (e.kind != ExprKind::kBinary) return;
  static const char* kOps[] = {"=", "<", "<=", ">", ">="};
  bool usable = false;
  for (const char* op : kOps) {
    if (e.op == op) usable = true;
  }
  if (!usable) return;
  const Expr* lhs = e.children[0].get();
  const Expr* rhs = e.children[1].get();
  std::string op = e.op;
  if (lhs->kind != ExprKind::kColumnRef && rhs->kind == ExprKind::kColumnRef) {
    std::swap(lhs, rhs);  // constant op column -> column (flipped op) constant
    if (op == "<") op = ">";
    else if (op == "<=") op = ">=";
    else if (op == ">") op = "<";
    else if (op == ">=") op = "<=";
  }
  if (lhs->kind == ExprKind::kColumnRef && lhs->resolved_index < max_column &&
      is_constant_expr(*rhs)) {
    out.push_back({lhs->resolved_index, op, const_value(*rhs, params)});
  }
}

/// Split an AND-conjunction tree into its conjuncts (pointers into the
/// tree). A non-AND expression is a single conjunct.
void split_conjuncts(Expr& e, std::vector<Expr*>& out) {
  if (e.kind == ExprKind::kBinary && e.op == "AND") {
    split_conjuncts(*e.children[0], out);
    split_conjuncts(*e.children[1], out);
    return;
  }
  out.push_back(&e);
}

/// The access path chosen for one table: how candidate rows are fetched.
/// Candidates are a superset of the qualifying rows except for
/// kUniqueIndexEq/kIndexEq/kIndexRange over the selecting predicate, and
/// every caller re-evaluates its predicate(s) per candidate regardless.
struct AccessPath {
  enum class Kind { kScan, kIndexEq, kUniqueIndexEq, kIndexRange };
  Kind kind = Kind::kScan;
  std::size_t column = 0;
  Value eq_value;                 // kIndexEq / kUniqueIndexEq
  std::optional<Value> lo, hi;    // kIndexRange
  bool lo_inclusive = true;
  bool hi_inclusive = true;
};

/// Pick the best index-served predicate: unique-index equality (pins at
/// most one row) over non-unique equality over a range. Strict bounds
/// stay strict so the index fetches exactly the qualifying keys.
AccessPath choose_access_path(const Table& table,
                              const std::vector<IndexPredicate>& predicates) {
  AccessPath path;
  for (const auto& p : predicates) {
    if (p.op == "=" && table.has_unique_index(p.column)) {
      path.kind = AccessPath::Kind::kUniqueIndexEq;
      path.column = p.column;
      path.eq_value = p.value;
      return path;
    }
  }
  for (const auto& p : predicates) {
    if (p.op == "=" && table.has_index(p.column)) {
      path.kind = AccessPath::Kind::kIndexEq;
      path.column = p.column;
      path.eq_value = p.value;
      return path;
    }
  }
  for (const auto& p : predicates) {
    if (!table.has_index(p.column)) continue;
    std::optional<Value> lo, hi;
    bool lo_inclusive = true;
    bool hi_inclusive = true;
    for (const auto& q : predicates) {
      if (q.column != p.column) continue;
      if (q.op == ">" || q.op == ">=") {
        const bool inclusive = (q.op == ">=");
        const int c = lo ? q.value.compare(*lo) : 1;
        if (!lo || c > 0 || (c == 0 && lo_inclusive && !inclusive)) {
          lo = q.value;
          lo_inclusive = inclusive;
        }
      } else if (q.op == "<" || q.op == "<=") {
        const bool inclusive = (q.op == "<=");
        const int c = hi ? q.value.compare(*hi) : -1;
        if (!hi || c < 0 || (c == 0 && hi_inclusive && !inclusive)) {
          hi = q.value;
          hi_inclusive = inclusive;
        }
      }
    }
    if (lo || hi) {
      path.kind = AccessPath::Kind::kIndexRange;
      path.column = p.column;
      path.lo = std::move(lo);
      path.hi = std::move(hi);
      path.lo_inclusive = lo_inclusive;
      path.hi_inclusive = hi_inclusive;
      return path;
    }
  }
  return path;  // scan
}

std::vector<RowId> fetch_access_path(const Table& table, const AccessPath& path,
                                     const ReadView& view) {
  switch (path.kind) {
    case AccessPath::Kind::kUniqueIndexEq:
    case AccessPath::Kind::kIndexEq:
      if (auto hits = table.index_equal(path.column, path.eq_value)) return *hits;
      break;
    case AccessPath::Kind::kIndexRange:
      if (auto hits = table.index_range(path.column, path.lo, path.hi,
                                        path.lo_inclusive, path.hi_inclusive)) {
        return *hits;
      }
      break;
    case AccessPath::Kind::kScan:
      break;
  }
  std::vector<RowId> all;
  all.reserve(table.live_row_count());
  table.scan(view, [&](RowId id, const Row&) { all.push_back(id); });
  return all;
}

std::string describe_access_path(const Table& table, const AccessPath& path) {
  auto column_name = [&](std::size_t c) {
    return table.schema().columns()[c].name;
  };
  switch (path.kind) {
    case AccessPath::Kind::kUniqueIndexEq:
      return "unique-index-eq(" + column_name(path.column) + ")";
    case AccessPath::Kind::kIndexEq:
      return "index-eq(" + column_name(path.column) + ")";
    case AccessPath::Kind::kIndexRange:
      return "index-range(" + column_name(path.column) + ")";
    case AccessPath::Kind::kScan:
      break;
  }
  return "scan";
}

}  // namespace

std::vector<RowId> collect_candidates(const Table& table, const Expr* bound_where,
                                      const Params& params, const ReadView& view) {
  std::vector<IndexPredicate> predicates;
  if (bound_where != nullptr) {
    collect_index_predicates(*bound_where, params, table.schema().columns().size(),
                             predicates);
  }
  return fetch_access_path(table, choose_access_path(table, predicates), view);
}

namespace {

// ------------------------------------------------------- aggregation

struct Accumulator {
  const Expr* node = nullptr;  // the aggregate call in the tree
  std::int64_t count = 0;
  double sum = 0.0;
  double sum_squares = 0.0;
  std::int64_t int_sum = 0;
  bool all_int = true;
  bool any = false;
  Value min;
  Value max;
  std::set<Value> distinct;  // for COUNT(DISTINCT x)

  void add(const Value& v) {
    if (v.is_null()) return;
    any = true;
    ++count;
    if (node->distinct) distinct.insert(v);
    if (v.type() == ValueType::kInt) {
      int_sum += v.as_int();
    } else {
      all_int = false;
    }
    if (v.type() == ValueType::kInt || v.type() == ValueType::kReal) {
      const double d = v.as_real();
      sum += d;
      sum_squares += d * d;
    }
    if (min.is_null() || v < min) min = v;
    if (max.is_null() || v > max) max = v;
  }

  Value result() const {
    const std::string& name = node->function_name;
    if (name == "COUNT") {
      return Value(node->distinct ? static_cast<std::int64_t>(distinct.size())
                                  : count);
    }
    if (!any) return Value();  // SUM/AVG/MIN/MAX/STDDEV over no rows is NULL
    if (name == "SUM") return all_int ? Value(int_sum) : Value(sum);
    if (name == "AVG") return Value(sum / static_cast<double>(count));
    if (name == "MIN") return min;
    if (name == "MAX") return max;
    if (name == "STDDEV" || name == "VARIANCE") {
      if (count < 2) return Value();
      const double n = static_cast<double>(count);
      const double variance = (sum_squares - sum * sum / n) / (n - 1.0);
      const double clamped = variance < 0.0 ? 0.0 : variance;  // fp noise
      return Value(name == "VARIANCE" ? clamped : std::sqrt(clamped));
    }
    throw DbError("unknown aggregate " + name);
  }
};

/// RAII: rewrite aggregate nodes to literals for one evaluation, restore.
class AggregateRewrite {
 public:
  AggregateRewrite(const std::vector<Expr*>& nodes, const std::vector<Value>& values) {
    nodes_ = nodes;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      nodes[i]->kind = ExprKind::kLiteral;
      nodes[i]->literal = values[i];
    }
  }
  ~AggregateRewrite() {
    for (Expr* node : nodes_) node->kind = ExprKind::kFunction;
  }

 private:
  std::vector<Expr*> nodes_;
};

std::size_t row_hash(const Row& row) {
  std::size_t h = 1469598103934665603ULL;  // FNV offset basis
  for (const Value& v : row) {
    h ^= v.hash() + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

bool rows_equal(const Row& a, const Row& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].compare(b[i]) != 0) return false;
  }
  return true;
}

struct RowHasher {
  std::size_t operator()(const Row& r) const { return row_hash(r); }
};
struct RowEqual {
  bool operator()(const Row& a, const Row& b) const { return rows_equal(a, b); }
};

/// Open-addressing hash of group keys. Entries (key + representative row
/// + inline accumulators) live in a vector in first-seen order, which is
/// also the output order; the slot array holds entry indexes (+1, 0 means
/// empty) probed linearly, so rehashing only moves 4-byte slots.
struct GroupEntry {
  Row key;
  std::size_t hash = 0;
  const Row* rep = nullptr;  // first member (bare column refs, HAVING)
  std::vector<Accumulator> accumulators;
};

class GroupHashTable {
 public:
  GroupHashTable() : slots_(64, 0), mask_(63) {}

  /// Find the entry for `key`, inserting a new one (with accumulators
  /// from `make_entry`) when absent.
  template <typename MakeEntry>
  GroupEntry& find_or_insert(Row&& key, MakeEntry&& make_entry) {
    if ((entries_.size() + 1) * 4 >= slots_.size() * 3) grow();  // ~0.75 load
    const std::size_t h = row_hash(key);
    std::size_t i = h & mask_;
    for (;;) {
      const std::uint32_t s = slots_[i];
      if (s == 0) {
        entries_.push_back(make_entry(std::move(key), h));
        slots_[i] = static_cast<std::uint32_t>(entries_.size());
        return entries_.back();
      }
      GroupEntry& e = entries_[s - 1];
      if (e.hash == h && rows_equal(e.key, key)) return e;
      i = (i + 1) & mask_;
    }
  }

  std::vector<GroupEntry>& entries() { return entries_; }

 private:
  void grow() {
    slots_.assign(slots_.size() * 2, 0);
    mask_ = slots_.size() - 1;
    for (std::size_t e = 0; e < entries_.size(); ++e) {
      std::size_t i = entries_[e].hash & mask_;
      while (slots_[i] != 0) i = (i + 1) & mask_;
      slots_[i] = static_cast<std::uint32_t>(e + 1);
    }
  }

  std::vector<std::uint32_t> slots_;  // entry index + 1; 0 = empty
  std::size_t mask_;
  std::vector<GroupEntry> entries_;   // insertion (= output) order
};

struct WorkingSet {
  std::vector<BoundColumn> layout;
  std::vector<Row> rows;
  /// Tables materialized from views for the duration of this query.
  std::vector<std::unique_ptr<Table>> owned_tables;
};

/// Resolve a FROM/JOIN name: a system table snapshotted from the telemetry
/// registry, a real table directly, or a view materialized into a temporary
/// untyped table by executing its stored SELECT. A depth guard catches
/// self-referential view chains.
Table& resolve_table(Database& db, const std::string& name, WorkingSet& ws) {
  if (is_system_table_name(name)) {
    ws.owned_tables.push_back(materialize_system_table(name, &db));
    return *ws.owned_tables.back();
  }
  if (!db.has_view(name)) return db.table(name);

  thread_local int view_depth = 0;
  if (view_depth > 16) {
    throw DbError("view expansion too deep (cycle?) at " + name);
  }
  ++view_depth;
  ResultSetData data;
  try {
    // Views were validated placeholder-free at CREATE VIEW time.
    data = db.execute(db.view_sql(name), {});
  } catch (...) {
    --view_depth;
    throw;
  }
  --view_depth;

  TableSchema schema(name);
  for (const auto& column : data.column_names) {
    ColumnDef def;
    def.name = column;  // untyped: values stored as produced
    def.type = ValueType::kNull;
    schema.add_column(std::move(def));
  }
  auto materialized = std::make_unique<Table>(std::move(schema));
  for (auto& row : data.rows) {
    materialized->insert(std::move(row), nullptr, ReadView::latest());
  }
  ws.owned_tables.push_back(std::move(materialized));
  return *ws.owned_tables.back();
}

/// FROM + JOIN + WHERE: produce the working rows and the column layout.
WorkingSet build_working_set(Database& db, SelectStatement& stmt,
                             const Params& params, ExplainInfo* explain,
                             OpRecorder& rec) {
  const ExecutorTuning tuning = db.executor_tuning();
  StatementContext* ctx = StatementContext::current();
  // The statement's MVCC snapshot: pinned once, used for every row
  // resolution below, so the whole SELECT sees one consistent state no
  // matter what commits concurrently.
  const ReadView view = db.read_view();
  WorkingSet ws;
  if (!stmt.from) {
    if (explain) explain->add("from: none");
    ws.rows.emplace_back();  // one empty row: SELECT 1+1
    if (stmt.where) {
      bind_expr(*stmt.where, ws.layout);
      std::vector<Row> kept;
      for (auto& row : ws.rows) {
        if (is_truthy(eval_expr(*stmt.where, row, params))) kept.push_back(row);
      }
      ws.rows = std::move(kept);
    }
    return ws;
  }

  Table& base = resolve_table(db, stmt.from->table, ws);
  const std::string base_alias = util::to_lower(stmt.from->alias);
  for (const auto& column : base.schema().columns()) {
    ws.layout.push_back({base_alias, column.name});
  }
  // Predicate push-down. Without joins the whole WHERE binds against the
  // base layout and drives index selection. With joins, each AND-conjunct
  // that references only base columns is bound, used for index selection,
  // and applied before the join (sound under three-valued logic: a row on
  // which any conjunct is not truthy cannot satisfy the full conjunction).
  const Expr* base_where = nullptr;
  std::vector<Expr*> pushed;
  AccessPath path;
  {
    PhaseTimer plan_phase(telemetry::Phase::kPlan);
    if (stmt.where) {
      if (stmt.joins.empty()) {
        bind_expr(*stmt.where, ws.layout);
        base_where = stmt.where.get();
      } else {
        std::vector<Expr*> conjuncts;
        split_conjuncts(*stmt.where, conjuncts);
        for (Expr* conjunct : conjuncts) {
          try {
            bind_expr(*conjunct, ws.layout);
            pushed.push_back(conjunct);
          } catch (const DbError&) {
            // References a joined table's columns; evaluated post-join.
          }
        }
      }
    }

    // Index selection over everything known about the base table (the whole
    // WHERE, or the pushed conjuncts — all of them are ANDed).
    std::vector<IndexPredicate> predicates;
    if (base_where != nullptr) {
      collect_index_predicates(*base_where, params,
                               base.schema().columns().size(), predicates);
    } else {
      for (const Expr* conjunct : pushed) {
        collect_index_predicates(*conjunct, params,
                                 base.schema().columns().size(), predicates);
      }
    }
    path = choose_access_path(base, predicates);
  }
  if (explain) {
    explain->add("from " + base_alias + ": " + describe_access_path(base, path));
  }
  const auto from_start = rec.begin();
  const std::vector<RowId> candidates = fetch_access_path(base, path, view);

  ws.rows.reserve(candidates.size());
  for (RowId id : candidates) {
    if (ctx != nullptr) ctx->poll();
    const Row* row = base.fetch(id, view);
    if (row == nullptr) continue;
    bool keep = true;
    for (const Expr* conjunct : pushed) {
      if (!is_truthy(eval_expr(*conjunct, *row, params))) {
        keep = false;
        break;
      }
    }
    if (keep) ws.rows.push_back(*row);
  }
  rec.record("from " + base_alias, from_start, candidates.size(),
             ws.rows.size());

  // Joins. An equi-join conjunct (existing_col = right_col) in the ON
  // clause selects a build/probe hash join built on the smaller side;
  // without one (or with hash joins disabled) the join falls back to an
  // index-nested-loop when the right side has an index on its key, and a
  // plain nested loop otherwise. NULL keys never hash-match (SQL '='),
  // and the non-equi remainder of the ON clause is evaluated per pair.
  for (auto& join : stmt.joins) {
    const auto join_start = rec.begin();
    const std::uint64_t join_rows_in = ws.rows.size();
    std::uint64_t join_entries = 0;   // hash-build entries (0 on fallback)
    std::uint64_t join_mem = 0;       // peak bytes charged by the build
    bool join_degraded = false;       // hash build abandoned under pressure
    std::uint64_t join_read = 0;      // rows read from the joined table
    Table& right = resolve_table(db, join.table.table, ws);
    const std::string right_alias = util::to_lower(join.table.alias);
    std::vector<BoundColumn> new_layout = ws.layout;
    for (const auto& column : right.schema().columns()) {
      new_layout.push_back({right_alias, column.name});
    }
    bind_expr(*join.on, new_layout);

    // Find one equi-join conjunct across the boundary; the rest of the ON
    // conjunction becomes a residual filter.
    std::vector<Expr*> on_conjuncts;
    split_conjuncts(*join.on, on_conjuncts);
    std::size_t left_key = static_cast<std::size_t>(-1);
    std::size_t right_key = static_cast<std::size_t>(-1);
    const Expr* equi = nullptr;
    for (const Expr* c : on_conjuncts) {
      if (c->kind != ExprKind::kBinary || c->op != "=" ||
          c->children[0]->kind != ExprKind::kColumnRef ||
          c->children[1]->kind != ExprKind::kColumnRef) {
        continue;
      }
      const std::size_t a = c->children[0]->resolved_index;
      const std::size_t b = c->children[1]->resolved_index;
      if (a < ws.layout.size() && b >= ws.layout.size()) {
        left_key = a;
        right_key = b - ws.layout.size();
        equi = c;
        break;
      }
      if (b < ws.layout.size() && a >= ws.layout.size()) {
        left_key = b;
        right_key = a - ws.layout.size();
        equi = c;
        break;
      }
    }
    std::vector<const Expr*> residual;
    for (const Expr* c : on_conjuncts) {
      if (c != equi) residual.push_back(c);
    }
    auto passes_residual = [&](const Row& combined) {
      for (const Expr* c : residual) {
        if (!is_truthy(eval_expr(*c, combined, params))) return false;
      }
      return true;
    };

    const std::size_t right_width = right.schema().columns().size();
    std::vector<Row> joined;

    bool hash_join = equi != nullptr && tuning.hash_join;
    if (hash_join) {
      // The build table charges the statement's memory budget as it
      // grows; a soft breach abandons the hash strategy (the partially
      // built state is discarded and released) and the join falls
      // through to the nested-loop path below.
      ScopedMemCharge mem(ctx);
      bool degraded = false;
      const bool build_left = ws.rows.size() < right.live_row_count();
      if (explain) {
        explain->add("join " + right_alias + ": hash build=" +
                     (build_left ? std::string("left") : std::string("right")));
      }
      if (build_left) {
        // Build on the (smaller) left side, stream the right side through
        // it once. Matches are buffered per left row so the output keeps
        // the nested-loop's left-major order (and LEFT OUTER padding
        // still sees per-left-row match state).
        std::unordered_map<Value, std::vector<std::size_t>, ValueHash> table;
        table.reserve(ws.rows.size());
        for (std::size_t i = 0; i < ws.rows.size(); ++i) {
          if (ctx != nullptr) ctx->poll();
          const Value& key = ws.rows[i][left_key];
          if (key.is_null()) continue;
          if (!mem.charge(kHashEntryBytes)) {
            degraded = true;
            break;
          }
          table[key].push_back(i);
        }
        join_entries = table.size();
        if (!degraded) {
          std::vector<std::vector<Row>> matches(ws.rows.size());
          right.scan(view, [&](RowId, const Row& right_row) {
            if (ctx != nullptr) ctx->poll();
            ++join_read;
            const Value& key = right_row[right_key];
            if (key.is_null()) return;
            auto it = table.find(key);
            if (it == table.end()) return;
            for (std::size_t i : it->second) {
              Row combined = ws.rows[i];
              combined.insert(combined.end(), right_row.begin(), right_row.end());
              if (passes_residual(combined)) matches[i].push_back(std::move(combined));
            }
          });
          for (std::size_t i = 0; i < ws.rows.size(); ++i) {
            if (ctx != nullptr) ctx->poll();
            if (matches[i].empty()) {
              if (join.left_outer) {
                Row combined = ws.rows[i];
                combined.resize(combined.size() + right_width);  // NULL padding
                joined.push_back(std::move(combined));
              }
              continue;
            }
            for (auto& row : matches[i]) joined.push_back(std::move(row));
          }
        }
      } else {
        // Build on the right side, probe with each left row in order.
        std::unordered_map<Value, std::vector<const Row*>, ValueHash> table;
        table.reserve(right.live_row_count());
        right.scan(view, [&](RowId, const Row& right_row) {
          if (degraded) return;
          if (ctx != nullptr) ctx->poll();
          ++join_read;
          const Value& key = right_row[right_key];
          if (key.is_null()) return;
          if (!mem.charge(kHashEntryBytes)) {
            degraded = true;
            return;
          }
          table[key].push_back(&right_row);
        });
        join_entries = table.size();
        if (!degraded) {
          for (const auto& left_row : ws.rows) {
            if (ctx != nullptr) ctx->poll();
            bool matched = false;
            const Value& key = left_row[left_key];
            if (!key.is_null()) {
              auto it = table.find(key);
              if (it != table.end()) {
                for (const Row* right_row : it->second) {
                  Row combined = left_row;
                  combined.insert(combined.end(), right_row->begin(),
                                  right_row->end());
                  if (passes_residual(combined)) {
                    joined.push_back(std::move(combined));
                    matched = true;
                  }
                }
              }
            }
            if (!matched && join.left_outer) {
              Row combined = left_row;
              combined.resize(combined.size() + right_width);
              joined.push_back(std::move(combined));
            }
          }
        }
      }
      join_mem = mem.charged();
      join_degraded = degraded;
      if (degraded) {
        if (ctx != nullptr) ctx->note_mem_degraded();
        if (explain) explain->add("join " + right_alias + ": mem-degraded");
        joined.clear();
        hash_join = false;
      }
    }
    if (!hash_join) {
      const bool use_index =
          right_key != static_cast<std::size_t>(-1) && right.has_index(right_key);
      if (explain) {
        explain->add("join " + right_alias + ": " +
                     (use_index ? "index-nested-loop" : "nested-loop"));
      }
      const Expr& on = *join.on;
      for (const auto& left_row : ws.rows) {
        if (ctx != nullptr) ctx->poll();
        bool matched = false;
        auto try_pair = [&](const Row& right_row) {
          Row combined = left_row;
          combined.insert(combined.end(), right_row.begin(), right_row.end());
          if (is_truthy(eval_expr(on, combined, params))) {
            joined.push_back(std::move(combined));
            matched = true;
          }
        };
        if (use_index) {
          auto hits = right.index_equal(right_key, left_row[left_key]);
          for (RowId id : *hits) {
            if (const Row* right_row = right.fetch(id, view)) {
              ++join_read;
              try_pair(*right_row);
            }
          }
        } else {
          right.scan(view, [&](RowId, const Row& right_row) {
            if (ctx != nullptr) ctx->poll();
            ++join_read;
            try_pair(right_row);
          });
        }
        if (!matched && join.left_outer) {
          Row combined = left_row;
          combined.resize(combined.size() + right_width);  // NULL padding
          joined.push_back(std::move(combined));
        }
      }
    }
    ws.rows = std::move(joined);
    ws.layout = std::move(new_layout);
    rec.record("join " + right_alias, join_start, join_rows_in, ws.rows.size(),
               join_entries, join_mem, join_degraded, join_read);
  }

  // Full WHERE over the working rows: post-join re-evaluation (pushed
  // conjuncts were partial), or the full predicate over index candidates
  // (a superset) in the single-table case.
  if (stmt.where) {
    const auto filter_start = rec.begin();
    const std::uint64_t filter_rows_in = ws.rows.size();
    if (!stmt.joins.empty()) bind_expr(*stmt.where, ws.layout);
    std::vector<Row> kept;
    kept.reserve(ws.rows.size());
    for (auto& row : ws.rows) {
      if (ctx != nullptr) ctx->poll();
      if (is_truthy(eval_expr(*stmt.where, row, params))) {
        kept.push_back(std::move(row));
      }
    }
    ws.rows = std::move(kept);
    rec.record("filter", filter_start, filter_rows_in, ws.rows.size());
  }
  return ws;
}

std::string default_column_name(const Expr* expr, std::size_t position) {
  if (expr == nullptr) return "col" + std::to_string(position);
  if (expr->kind == ExprKind::kColumnRef) return expr->column_name;
  if (expr->kind == ExprKind::kFunction) {
    return util::to_lower(expr->function_name);
  }
  return "col" + std::to_string(position);
}

/// Evaluate a LIMIT/OFFSET operand (integer literal or placeholder).
std::size_t eval_limit_operand(const Expr& e, const Params& params,
                               const char* clause) {
  static const Row kNoRow;
  const Value v = eval_expr(e, kNoRow, params);
  if (v.type() != ValueType::kInt || v.as_int() < 0) {
    throw DbError(std::string(clause) + " must be a non-negative integer, got " +
                  (v.is_null() ? std::string("NULL") : v.to_string()));
  }
  return static_cast<std::size_t>(v.as_int());
}

}  // namespace

ResultSetData execute_select(Database& db, SelectStatement& stmt,
                             const Params& params, ExplainInfo* explain) {
  const ExecutorTuning tuning = db.executor_tuning();
  StatementContext* ctx = StatementContext::current();

  // Evaluate LIMIT/OFFSET up front: negative (or non-integer) operands are
  // errors, and a known bound enables the Top-K path below.
  std::optional<std::size_t> limit_count;
  std::optional<std::size_t> offset_count;
  if (stmt.limit) limit_count = eval_limit_operand(*stmt.limit, params, "LIMIT");
  if (stmt.offset) offset_count = eval_limit_operand(*stmt.offset, params, "OFFSET");

  OpRecorder rec = OpRecorder::make(explain);
  WorkingSet ws = build_working_set(db, stmt, params, explain, rec);

  // Expand '*' items into one column ref per working column.
  std::vector<const Expr*> output_exprs;  // parallel to output columns
  std::vector<ExprPtr> expanded;          // owns the expansion
  ResultSetData result;
  for (std::size_t i = 0; i < stmt.items.size(); ++i) {
    SelectItem& item = stmt.items[i];
    if (item.expr == nullptr) {
      for (std::size_t c = 0; c < ws.layout.size(); ++c) {
        auto ref = make_column(ws.layout[c].qualifier, ws.layout[c].name);
        ref->resolved_index = c;
        result.column_names.push_back(ws.layout[c].name);
        output_exprs.push_back(ref.get());
        expanded.push_back(std::move(ref));
      }
      continue;
    }
    bind_expr(*item.expr, ws.layout);
    result.column_names.push_back(
        item.alias.empty() ? default_column_name(item.expr.get(), i) : item.alias);
    output_exprs.push_back(item.expr.get());
  }

  // Detect aggregation.
  std::vector<Expr*> aggregate_nodes;
  for (const Expr* e : output_exprs) {
    auto found = find_aggregates(*const_cast<Expr*>(e));
    aggregate_nodes.insert(aggregate_nodes.end(), found.begin(), found.end());
  }
  if (stmt.having) {
    bind_expr(*stmt.having, ws.layout);
    auto found = find_aggregates(*stmt.having);
    aggregate_nodes.insert(aggregate_nodes.end(), found.begin(), found.end());
  }
  const bool aggregated = !aggregate_nodes.empty() || !stmt.group_by.empty();

  // Pre-compute ORDER BY keys alongside each output row so sorting works
  // uniformly for plain and aggregated queries. `seq` is the production
  // order; using it as the final tie-break makes both the full sort and
  // the Top-K heap reproduce std::stable_sort's ordering.
  struct OutputRow {
    Row values;
    Row sort_keys;
    std::size_t seq = 0;
  };
  std::vector<OutputRow> output;

  auto output_less = [&](const OutputRow& a, const OutputRow& b) {
    for (std::size_t k = 0; k < stmt.order_by.size(); ++k) {
      int c = a.sort_keys[k].compare(b.sort_keys[k]);
      if (stmt.order_by[k].descending) c = -c;
      if (c != 0) return c < 0;
    }
    return a.seq < b.seq;
  };

  // ORDER BY + LIMIT runs as a bounded Top-K heap: only the best
  // limit+offset rows are retained, so a top-10 query over 1M rows never
  // materializes the full sort.
  bool use_topk =
      tuning.top_k && !stmt.order_by.empty() && limit_count.has_value();
  const std::size_t keep =
      use_topk ? *limit_count + offset_count.value_or(0) : 0;

  // The heap's footprint is known up front (`keep` entries of values +
  // sort keys), so the budget check happens before any row is emitted;
  // a breach degrades to the plain full sort.
  ScopedMemCharge topk_mem(ctx);
  bool topk_degraded = false;
  if (use_topk && keep > 0) {
    const std::uint64_t estimate =
        static_cast<std::uint64_t>(keep) *
        (output_exprs.size() + stmt.order_by.size()) * kValueBytes;
    if (!topk_mem.charge(estimate)) {
      use_topk = false;
      topk_degraded = true;
      if (ctx != nullptr) ctx->note_mem_degraded();
      if (explain) explain->add("order-by: top-k mem-degraded");
    }
  }

  std::unordered_set<Row, RowHasher, RowEqual> distinct_seen;
  std::size_t next_seq = 0;
  auto emit = [&](OutputRow&& out) {
    if (stmt.distinct && !distinct_seen.insert(out.values).second) return;
    out.seq = next_seq++;
    if (!use_topk) {
      output.push_back(std::move(out));
      return;
    }
    if (keep == 0) return;  // LIMIT 0
    if (output.size() < keep) {
      output.push_back(std::move(out));
      std::push_heap(output.begin(), output.end(), output_less);
      return;
    }
    // Heap front is the worst retained row; replace it when beaten.
    if (output_less(out, output.front())) {
      std::pop_heap(output.begin(), output.end(), output_less);
      output.back() = std::move(out);
      std::push_heap(output.begin(), output.end(), output_less);
    }
  };

  auto order_key_for = [&](const Row& working_row, const Row& produced,
                           const OrderItem& item) -> Value {
    // 1) positional: ORDER BY 2
    if (item.expr->kind == ExprKind::kLiteral &&
        item.expr->literal.type() == ValueType::kInt) {
      const std::int64_t pos = item.expr->literal.as_int();
      if (pos < 1 || pos > static_cast<std::int64_t>(produced.size())) {
        throw DbError("ORDER BY position out of range");
      }
      return produced[static_cast<std::size_t>(pos - 1)];
    }
    // 2) alias of an output column
    if (item.expr->kind == ExprKind::kColumnRef && item.expr->table_qualifier.empty()) {
      for (std::size_t c = 0; c < result.column_names.size(); ++c) {
        if (util::iequals(result.column_names[c], item.expr->column_name)) {
          return produced[c];
        }
      }
    }
    // 3) arbitrary expression over the working row (plain queries only)
    if (aggregated) {
      throw DbError("ORDER BY over aggregated queries must reference output "
                    "columns by alias or position");
    }
    bind_expr(*item.expr, ws.layout);
    return eval_expr(*item.expr, working_row, params);
  };

  const auto produce_start = rec.begin();
  const std::uint64_t produce_rows_in = ws.rows.size();
  std::uint64_t group_entries = 0;  // groups materialized (either strategy)
  std::uint64_t group_mem = 0;      // bytes charged by the hash strategy
  bool group_degraded = false;      // hash grouping fell back to ordered map

  if (!aggregated) {
    if (!use_topk) output.reserve(ws.rows.size());
    for (const auto& row : ws.rows) {
      if (ctx != nullptr) ctx->poll();
      OutputRow out;
      out.values.reserve(output_exprs.size());
      for (const Expr* e : output_exprs) {
        out.values.push_back(eval_expr(*e, row, params));
      }
      out.sort_keys.reserve(stmt.order_by.size());
      for (const auto& item : stmt.order_by) {
        out.sort_keys.push_back(order_key_for(row, out.values, item));
      }
      emit(std::move(out));
    }
  } else {
    for (auto& g : stmt.group_by) bind_expr(*g, ws.layout);

    auto make_accumulators = [&]() {
      std::vector<Accumulator> accumulators(aggregate_nodes.size());
      for (std::size_t a = 0; a < aggregate_nodes.size(); ++a) {
        accumulators[a].node = aggregate_nodes[a];
      }
      return accumulators;
    };
    auto accumulate = [&](std::vector<Accumulator>& accumulators, const Row& row) {
      for (std::size_t a = 0; a < aggregate_nodes.size(); ++a) {
        Expr* node = aggregate_nodes[a];
        if (node->children.size() == 1 &&
            node->children[0]->kind == ExprKind::kStar) {
          ++accumulators[a].count;
          accumulators[a].any = true;
        } else {
          accumulators[a].add(eval_expr(*node->children[0], row, params));
        }
      }
    };
    auto group_key = [&](const Row& row) {
      Row key;
      key.reserve(stmt.group_by.size());
      for (const auto& g : stmt.group_by) {
        key.push_back(eval_expr(*g, row, params));
      }
      return key;
    };
    // HAVING + projection for one finished group; the representative row
    // serves bare column references.
    auto finish_group = [&](const Row* rep, const std::vector<Accumulator>& accumulators) {
      std::vector<Value> aggregate_values;
      aggregate_values.reserve(accumulators.size());
      for (const auto& acc : accumulators) aggregate_values.push_back(acc.result());

      static const Row kEmptyRow;
      const Row& rep_row = rep != nullptr ? *rep : kEmptyRow;

      AggregateRewrite rewrite(aggregate_nodes, aggregate_values);
      if (stmt.having && !is_truthy(eval_expr(*stmt.having, rep_row, params))) {
        return;
      }
      OutputRow out;
      out.values.reserve(output_exprs.size());
      for (const Expr* e : output_exprs) {
        out.values.push_back(eval_expr(*e, rep_row, params));
      }
      out.sort_keys.reserve(stmt.order_by.size());
      for (const auto& item : stmt.order_by) {
        out.sort_keys.push_back(order_key_for(rep_row, out.values, item));
      }
      emit(std::move(out));
    };

    bool hash_group_by = tuning.hash_group_by;
    if (hash_group_by) {
      // Single pass: group keys hash into an open-addressing table whose
      // entries carry the accumulators inline. Groups come out in
      // first-seen order. Each new group charges the statement's memory
      // budget; a soft breach discards the table and degrades to the
      // ordered-map fallback below (which re-reads ws.rows — it is a
      // two-pass strategy anyway).
      ScopedMemCharge mem(ctx);
      bool degraded = false;
      GroupHashTable groups;
      for (const auto& row : ws.rows) {
        if (ctx != nullptr) ctx->poll();
        bool inserted = false;
        GroupEntry& entry = groups.find_or_insert(
            group_key(row), [&](Row&& key, std::size_t hash) {
              inserted = true;
              GroupEntry e;
              e.key = std::move(key);
              e.hash = hash;
              e.rep = &row;
              e.accumulators = make_accumulators();
              return e;
            });
        if (inserted &&
            !mem.charge(kHashEntryBytes +
                        (entry.key.size() + entry.accumulators.size()) *
                            kValueBytes)) {
          degraded = true;
          break;
        }
        accumulate(entry.accumulators, row);
      }
      group_mem = mem.charged();
      group_degraded = degraded;
      if (degraded) {
        if (ctx != nullptr) ctx->note_mem_degraded();
        if (explain) explain->add("group-by: mem-degraded");
        hash_group_by = false;
      } else {
        if (groups.entries().empty() && stmt.group_by.empty()) {
          // Aggregate over zero rows: one output row.
          GroupEntry e;
          e.accumulators = make_accumulators();
          groups.entries().push_back(std::move(e));
        }
        if (explain) {
          explain->add("group-by: hash groups=" +
                       std::to_string(groups.entries().size()));
        }
        group_entries = groups.entries().size();
        for (const auto& entry : groups.entries()) {
          if (ctx != nullptr) ctx->poll();
          finish_group(entry.rep, entry.accumulators);
        }
      }
    }
    if (!hash_group_by) {
      // Fallback: ordered map of group keys (two passes, key-sorted
      // output), kept for parity testing and as the memory-degraded
      // strategy.
      std::map<Row, std::vector<const Row*>> groups;
      for (const auto& row : ws.rows) {
        if (ctx != nullptr) ctx->poll();
        groups[group_key(row)].push_back(&row);
      }
      if (groups.empty() && stmt.group_by.empty()) {
        groups[Row{}] = {};  // aggregate over zero rows: one output row
      }
      if (explain) {
        explain->add("group-by: ordered groups=" + std::to_string(groups.size()));
      }
      group_entries = groups.size();
      for (auto& [key, members] : groups) {
        if (ctx != nullptr) ctx->poll();
        std::vector<Accumulator> accumulators = make_accumulators();
        for (const Row* row : members) accumulate(accumulators, *row);
        finish_group(members.empty() ? nullptr : members.front(), accumulators);
      }
    }
  }

  if (aggregated) {
    rec.record("group-by", produce_start, produce_rows_in, next_seq,
               group_entries, group_mem, group_degraded);
  } else {
    rec.record("project", produce_start, produce_rows_in, next_seq);
  }

  if (!stmt.order_by.empty()) {
    // rows_out < rows_in happens only on the Top-K path, which already
    // dropped beaten rows at emit time; the sort itself is row-preserving.
    const auto sort_start = rec.begin();
    if (use_topk) {
      std::sort_heap(output.begin(), output.end(), output_less);
      if (explain) {
        explain->add("order-by: top-k(" + std::to_string(keep) + ")");
      }
    } else {
      // `seq` tie-break makes the plain sort stable.
      std::sort(output.begin(), output.end(), output_less);
      if (explain) explain->add("order-by: sort");
    }
    rec.record("order-by", sort_start, next_seq, output.size(), 0,
               topk_mem.charged(), topk_degraded);
  }

  const auto limit_start = rec.begin();
  std::size_t begin = 0;
  std::size_t end = output.size();
  if (offset_count) begin = std::min(end, *offset_count);
  if (limit_count) end = std::min(end, begin + *limit_count);

  result.rows.reserve(end - begin);
  for (std::size_t i = begin; i < end; ++i) {
    result.rows.push_back(std::move(output[i].values));
  }
  if (limit_count || offset_count) {
    rec.record("limit", limit_start, output.size(), result.rows.size());
  }
  return result;
}

ResultSetData execute_explain(Database& db, SelectStatement& stmt,
                              const Params& params, bool analyze) {
  ExplainInfo info;
  execute_select(db, stmt, params, &info);
  if (analyze) {
    for (const auto& op : info.ops) {
      std::string line = "analyze " + op.label +
                         ": rows_in=" + std::to_string(op.rows_in) +
                         " rows_out=" + std::to_string(op.rows_out);
      if (op.rows_read != 0) line += " rows_read=" + std::to_string(op.rows_read);
      line += " time_us=" + std::to_string(op.micros);
      if (op.entries != 0) line += " entries=" + std::to_string(op.entries);
      if (op.mem_bytes != 0) {
        line += " mem_bytes=" + std::to_string(op.mem_bytes);
      }
      if (op.degraded) line += " degraded";
      info.add(std::move(line));
    }
    // Pin the annotated plan into the statement's record and force it
    // into the slow-query ring, so PERFDMF_SLOW_QUERIES keeps the operator
    // breakdown of every EXPLAIN ANALYZE run.
    if (StatementContext* ctx = StatementContext::current()) {
      std::string plan;
      for (const auto& line : info.lines) {
        if (!plan.empty()) plan += '\n';
        plan += line;
      }
      ctx->set_plan(std::move(plan));
      ctx->force_trace();
    }
  }
  ResultSetData out;
  out.column_names = {"plan"};
  out.rows.reserve(info.lines.size());
  for (auto& line : info.lines) {
    out.rows.push_back({Value(std::move(line))});
  }
  return out;
}

}  // namespace perfdmf::sqldb
