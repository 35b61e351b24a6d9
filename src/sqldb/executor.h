// Statement execution against a Database catalog.
//
// SELECT pipeline: FROM/JOIN (hash join on equi-join conjuncts, with
// index-nested-loop and nested-loop fallbacks) -> WHERE (index-accelerated
// candidate selection on the base table) -> GROUP BY / aggregates (open-
// addressing hash of group keys with inline accumulators) -> HAVING ->
// projection -> DISTINCT -> ORDER BY (bounded Top-K heap when a LIMIT is
// present, full sort otherwise) -> LIMIT/OFFSET. Results are materialized;
// the profile workloads PerfDMF runs are read-mostly and bounded by row
// construction, not pipelining.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sqldb/ast.h"
#include "sqldb/expr_eval.h"
#include "sqldb/table.h"

namespace perfdmf::sqldb {

class Database;

struct ResultSetData {
  std::vector<std::string> column_names;
  std::vector<Row> rows;
};

/// Runtime switches for the executor's optimized paths. Tests and benches
/// disable them to force the fallback strategies (nested-loop join,
/// ordered-map grouping, full sort) and compare results / timings; normal
/// operation leaves everything on. Not synchronized: toggle only while no
/// query is in flight.
struct ExecutorTuning {
  bool hash_join = true;
  bool hash_group_by = true;
  bool top_k = true;
};

/// Per-operator runtime stats collected under EXPLAIN ANALYZE. Operators
/// form a chain in pipeline order (from -> join* -> filter ->
/// group-by|project -> order-by -> limit); each operator's rows_in is by
/// construction the preceding operator's rows_out, and the operator
/// timing intervals are disjoint, so their micros sum to at most the
/// statement's total.
struct OperatorStats {
  std::string label;            // "from t", "join b", "group-by", ...
  std::uint64_t rows_in = 0;
  std::uint64_t rows_out = 0;
  std::uint64_t micros = 0;
  std::uint64_t entries = 0;    // hash-table entries (join build, group-by)
  std::uint64_t mem_bytes = 0;  // bytes charged against the memory budget
  bool degraded = false;        // operator fell back under memory pressure
  std::uint64_t rows_read = 0;  // joins: rows read from the joined table
};

/// Plan description collected while executing under EXPLAIN: one line per
/// decision (base-table access path, join strategy per join, grouping
/// strategy, ORDER BY strategy). The Connection layer appends a
/// plan-cache line for EXPLAIN statements it serves. Under EXPLAIN
/// ANALYZE (the statement record's analyze flag) the executor
/// additionally fills `ops` with runtime operator stats.
struct ExplainInfo {
  std::vector<std::string> lines;
  std::vector<OperatorStats> ops;
  void add(std::string line) { lines.push_back(std::move(line)); }
};

/// Execute a SELECT. `params` supplies '?' bindings. The statement is
/// mutated in place (column binding, temporary aggregate rewriting) but
/// is restored to a reusable state, so prepared statements can re-execute
/// it with different parameters. When `explain` is non-null the chosen
/// strategies are recorded into it.
ResultSetData execute_select(Database& db, SelectStatement& stmt,
                             const Params& params,
                             ExplainInfo* explain = nullptr);

/// EXPLAIN SELECT: run the select (so group/strategy decisions reflect the
/// actual data) and return the plan lines as a one-column result. With
/// `analyze` (EXPLAIN ANALYZE) each operator's runtime stats are appended
/// as additional "analyze <op>: ..." lines and recorded into the
/// statement's record so the slow-query ring gains operator-level detail.
ResultSetData execute_explain(Database& db, SelectStatement& stmt,
                              const Params& params, bool analyze = false);

/// Candidate RowIds for a WHERE clause over a single table, using an
/// index when the (already bound) predicate pins an indexed column with
/// '=', '<', '<=', '>', '>=' or BETWEEN against a literal/placeholder.
/// Unique-index equality is preferred over non-unique equality, which is
/// preferred over ranges; strict bounds are served exclusively. The
/// caller must still evaluate the full predicate per candidate, and
/// resolve each id against `view` (index hits may be stale).
std::vector<RowId> collect_candidates(const Table& table, const Expr* bound_where,
                                      const Params& params, const ReadView& view);

}  // namespace perfdmf::sqldb
