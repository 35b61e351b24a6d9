// DDL bootstrap for the PerfDMF relational schema (paper §3.2).
//
// Tables: APPLICATION -> EXPERIMENT -> TRIAL -> { METRIC, INTERVAL_EVENT,
// ATOMIC_EVENT }, with INTERVAL_LOCATION_PROFILE / INTERVAL_TOTAL_SUMMARY /
// INTERVAL_MEAN_SUMMARY under INTERVAL_EVENT and ATOMIC_LOCATION_PROFILE
// under ATOMIC_EVENT.
//
// APPLICATION, EXPERIMENT and TRIAL are created with a set of default
// metadata columns, but only `id`, `name` and the foreign key are
// required by the framework — analysts may ALTER the rest freely and the
// API discovers the actual columns via DatabaseMetaData (flexible schema).
#pragma once

#include <span>

#include "profile/data_model.h"
#include "sqldb/connection.h"

namespace perfdmf::api {

/// One REAL value column of a profile row: its name in the stored schema
/// and the data-point member it holds. The profile DDL and every profile
/// INSERT, SELECT list, bind and read derive from the two lists below.
template <typename Point>
struct ValueColumn {
  const char* name;
  double Point::*member;
};

/// Value columns of INTERVAL_LOCATION_PROFILE, INTERVAL_TOTAL_SUMMARY and
/// INTERVAL_MEAN_SUMMARY, in stored order.
extern const std::span<const ValueColumn<profile::IntervalDataPoint>>
    kIntervalValueColumns;
/// Value columns of ATOMIC_LOCATION_PROFILE, in stored order.
extern const std::span<const ValueColumn<profile::AtomicDataPoint>>
    kAtomicValueColumns;

/// `columns`' names joined by ", ", each preceded by `prefix` and
/// followed by `suffix` (a SELECT list with "p.", a DDL block with " REAL").
template <typename Point>
std::string join_columns(std::span<const ValueColumn<Point>> columns,
                         const char* prefix = "", const char* suffix = "") {
  std::string out;
  for (const auto& column : columns) {
    if (!out.empty()) out += ", ";
    out.append(prefix).append(column.name).append(suffix);
  }
  return out;
}

/// Create every PerfDMF table and index (IF NOT EXISTS semantics:
/// idempotent on an existing archive).
void bootstrap_schema(sqldb::Connection& connection);

/// True once bootstrap_schema() (or a compatible archive) is in place.
bool schema_present(sqldb::Connection& connection);

}  // namespace perfdmf::api
