// Process-global trace state: the slow-query ring, the trace timeline,
// their runtime switches, and the JSON / Chrome renderers.
//
// Per-statement recording lives in sqldb::StatementContext, the one
// record each statement keeps (SQL, phase breakdown, plan, outcome, trace
// ids). A finished record retires into the two rings declared here:
//
//  - TraceRing keeps statements slower than the configurable threshold
//    (PERFDMF_SLOW_QUERY_MS or set_slow_query_threshold_ms), statements
//    the governor killed, and every EXPLAIN ANALYZE run. It is served back
//    as the PERFDMF_SLOW_QUERIES virtual table and as traces_to_json().
//  - TraceBuffer is the trace timeline. With PERFDMF_TRACE=1 (or
//    set_trace_enabled(true)) finished statements, their phases, executor
//    operators, WAL group-commit rounds, and checkpoint/GC passes are
//    recorded as complete events. traces_to_chrome_json() renders it in
//    Chrome trace-event format, loadable in chrome://tracing or Perfetto.
//
// Both are instances of one bounded ring, kept apart so that a traced
// bulk load cannot evict the slow-query history.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "telemetry/metrics.h"

namespace perfdmf::telemetry {

enum class Phase { kParse = 0, kPlan, kAdmission, kLockWait, kExecute, kFsync };
inline constexpr std::size_t kPhaseCount = 6;

const char* phase_name(Phase phase);

/// One finished slow statement, as stored in the ring buffer and served
/// by the PERFDMF_SLOW_QUERIES system table.
struct QueryTrace {
  std::uint64_t id = 0;        // monotonic per process
  std::string started_at;      // ISO-8601 UTC
  std::string thread;          // id of the executing thread
  std::string sql;
  std::string plan;            // EXPLAIN access-path lines ('\n'-joined)
  double total_ms = 0.0;
  std::array<double, kPhaseCount> phase_ms{};
  std::string outcome = "completed";  // completed | timed_out | cancelled
};

/// Slow-query threshold in milliseconds; negative means disabled.
/// Initialized once from PERFDMF_SLOW_QUERY_MS (unset/invalid -> -1).
double slow_query_threshold_ms();
void set_slow_query_threshold_ms(double ms);

/// Runtime trace switch. Initialized once from PERFDMF_TRACE (unset, "0",
/// "false", "off" -> disabled); flips at runtime via set_trace_enabled.
bool trace_enabled();
void set_trace_enabled(bool on);

/// One complete ("ph":"X") event on the trace timeline. Timestamps are
/// microseconds relative to the process trace epoch; `tid` is a small
/// per-thread ordinal. `id` is non-zero for statement events; `parent`
/// links phases/operators to their enclosing statement.
struct TraceEvent {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::string name;
  const char* cat = "";   // static string: statement|phase|operator|wal|checkpoint
  std::uint64_t ts_us = 0;
  std::uint64_t dur_us = 0;
  std::uint32_t tid = 0;
};

/// Bounded process-global buffer of the most recent entries. When full,
/// a push overwrites the oldest entry; snapshot() returns oldest first.
/// When `kSeq` names a member, push() stamps it with a per-ring monotonic
/// sequence number.
template <typename T, std::size_t kDefault, std::uint64_t T::*kSeq = nullptr>
class Ring {
 public:
  static constexpr std::size_t kDefaultCapacity = kDefault;

  static Ring& instance() {
    static Ring* ring = new Ring();  // never destroyed
    return *ring;
  }

  void push(T item) {
    std::lock_guard<std::mutex> lock(mutex_);
    if constexpr (kSeq != nullptr) item.*kSeq = next_seq_++;
    if (ring_.size() < capacity_) {
      ring_.push_back(std::move(item));
      return;
    }
    ring_[head_] = std::move(item);
    head_ = (head_ + 1) % ring_.size();
  }

  std::vector<T> snapshot() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<T> out(ring_.begin() + static_cast<std::ptrdiff_t>(head_),
                       ring_.end());
    out.insert(out.end(), ring_.begin(),
               ring_.begin() + static_cast<std::ptrdiff_t>(head_));
    return out;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return ring_.size();
  }

  /// Shrinking drops the oldest entries; capacity 0 is clamped to 1.
  void set_capacity(std::size_t n) {
    std::lock_guard<std::mutex> lock(mutex_);
    std::rotate(ring_.begin(), ring_.begin() + static_cast<std::ptrdiff_t>(head_),
                ring_.end());
    head_ = 0;
    capacity_ = std::max<std::size_t>(1, n);
    if (ring_.size() > capacity_) {
      ring_.erase(ring_.begin(),
                  ring_.end() - static_cast<std::ptrdiff_t>(capacity_));
    }
  }

  void clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    ring_.clear();
    head_ = 0;
  }

  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;

 private:
  Ring() = default;

  mutable std::mutex mutex_;
  std::vector<T> ring_;
  std::size_t head_ = 0;  // oldest entry once the ring is full
  std::size_t capacity_ = kDefault;
  std::uint64_t next_seq_ = 1;
};

/// The slow-query ring (PERFDMF_SLOW_QUERIES); ids are its sequence.
using TraceRing = Ring<QueryTrace, 256, &QueryTrace::id>;
/// The trace timeline (traces_to_chrome_json).
using TraceBuffer = Ring<TraceEvent, 4096>;

/// Record one complete event into the trace buffer. No-op unless tracing
/// is compiled in and enabled.
void trace_emit(std::string name, const char* cat,
                std::chrono::steady_clock::time_point start,
                std::chrono::steady_clock::time_point end,
                std::uint64_t parent, std::uint64_t id = 0);

/// The slow-query ring as a JSON object string:
/// {"traces":[{"id":...,"sql":...,"phases":{...}},...]}.
std::string traces_to_json();

/// The trace buffer in Chrome trace-event format:
/// {"traceEvents":[{"name":...,"ph":"X","ts":...,"dur":...,...},...],
///  "displayTimeUnit":"ms"}. Loadable in chrome://tracing / Perfetto.
std::string traces_to_chrome_json();

}  // namespace perfdmf::telemetry
