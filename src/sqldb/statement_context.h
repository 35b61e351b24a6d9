// The statement record: one StatementContext per executing statement,
// holding everything the engine tracks about it.
//
// A Connection constructs one around each top-level statement, before
// parsing. Construction installs it as the thread's current statement
// (nesting restores the outer one); destruction retires it. It carries:
//
//  - Governance: deadline, cooperative cancellation and the memory
//    budget. The executor's row loops call poll() at row granularity — it
//    counts ticks and only touches the clock every kPollStride rows, so
//    the unarmed cost is one increment. Lock acquisition and admission
//    waits call check_now() between bounded wait slices so a stalled
//    writer cannot hang a cancelled reader; when check_now() throws it
//    records the outcome ("timed_out" / "cancelled") on the record.
//  - Memory accounting: memory-hungry operators (hash-join build tables,
//    group-by hash tables, Top-K heaps) charge() approximate bytes as
//    they grow. Crossing the soft budget returns false — the operator
//    abandons its hash/heap strategy and degrades to the fallback (index
//    nested loop / ordered map / full sort), counted in gov.mem_degraded.
//    Crossing the hard cap (4x the soft budget by default) throws
//    DbError{kMemBudget}: the statement fails cleanly instead of OOM-ing
//    the process.
//  - Lifecycle: start time, the SQL text (borrowed), the live phase
//    label, and a per-phase time breakdown (parse -> plan -> admission ->
//    lock-wait -> execute -> fsync). PhaseTimer sets the label and adds
//    the phase time in one place; execute is derived at the end as the
//    unattributed remainder, so the breakdown is disjoint and sums to
//    the total.
//
// Views over the record: PERFDMF_STATEMENTS reads it live through the
// Database's StatementRegistry; EXPLAIN ANALYZE's operator recorder reads
// its analyze/trace flags. When telemetry is enabled, retiring records
// the sqldb.statement.total_micros histogram and, when armed, pushes the
// record into the slow-query ring (PERFDMF_SLOW_QUERIES) and onto the
// trace timeline (telemetry/trace.h). With the slow log and tracing off
// a record costs two clock reads and a histogram record, and its SQL
// text is never copied.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <thread>

#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "util/deadline.h"

namespace perfdmf::sqldb {

namespace detail {
// Governance counters, shared by the context, the admission governor,
// and the degraded-mode machinery (registry-owned; resolved once).
inline telemetry::Counter& gov_timeouts() {
  static telemetry::Counter& c =
      telemetry::MetricsRegistry::instance().counter("gov.timeouts");
  return c;
}
inline telemetry::Counter& gov_cancellations() {
  static telemetry::Counter& c =
      telemetry::MetricsRegistry::instance().counter("gov.cancellations");
  return c;
}
inline telemetry::Counter& gov_admission_rejected() {
  static telemetry::Counter& c =
      telemetry::MetricsRegistry::instance().counter("gov.admission_rejected");
  return c;
}
inline telemetry::Counter& gov_mem_degraded() {
  static telemetry::Counter& c =
      telemetry::MetricsRegistry::instance().counter("gov.mem_degraded");
  return c;
}
inline telemetry::Counter& gov_readonly_entered() {
  static telemetry::Counter& c =
      telemetry::MetricsRegistry::instance().counter("gov.readonly_entered");
  return c;
}
inline telemetry::Counter& gov_readonly_exited() {
  static telemetry::Counter& c =
      telemetry::MetricsRegistry::instance().counter("gov.readonly_exited");
  return c;
}
}  // namespace detail

class StatementContext {
 public:
  /// Clock reads happen once per this many poll() ticks.
  static constexpr std::uint32_t kPollStride = 256;

  // Governance, set by the Connection before the record is published to
  // the registry and immutable afterwards.
  util::Deadline deadline;
  /// Owned by the Connection; set from any thread. Cleared when the
  /// cancellation is delivered so the connection stays usable.
  std::atomic<bool>* cancel = nullptr;
  std::uint64_t mem_soft_bytes = 0;  // 0 = unlimited
  std::uint64_t mem_hard_bytes = 0;  // 0 = unlimited

  /// The record of one statement. `sql` is borrowed and must outlive it.
  explicit StatementContext(std::string_view sql);
  /// A governance-only record (no SQL, no lifecycle telemetry) for
  /// engine calls that wait like a statement without being one.
  StatementContext() : StatementContext(std::string_view{}, false) {}
  ~StatementContext();
  StatementContext(const StatementContext&) = delete;
  StatementContext& operator=(const StatementContext&) = delete;

  /// The record of the statement this thread is currently executing, or
  /// nullptr outside statement scope (e.g. WAL replay).
  static StatementContext* current();

  // Identity: fixed at construction, readable from any thread once the
  // record is published.
  std::uint64_t id() const { return id_; }
  std::string_view sql() const { return sql_; }
  std::thread::id thread() const { return thread_; }
  std::chrono::steady_clock::time_point start() const { return start_; }

  /// Row-batch cancellation point: cheap tick, full check every
  /// kPollStride calls. The tick count doubles as the "rows so far"
  /// progress figure, published (at stride granularity) for the
  /// PERFDMF_STATEMENTS live table.
  void poll() {
    if (++tick_ % kPollStride == 0) {
      rows_polled_.store(tick_, std::memory_order_relaxed);
      check_now();
    }
  }

  /// Rows processed so far, at kPollStride granularity. Readable from
  /// any thread while the statement runs (introspection).
  std::uint64_t rows_polled() const {
    return rows_polled_.load(std::memory_order_relaxed);
  }

  /// Current phase label: "execute" outside any PhaseTimer, otherwise the
  /// timed phase's name. Values are string literals, so cross-thread
  /// reads are safe.
  const char* phase_label() const {
    return phase_label_.load(std::memory_order_relaxed);
  }

  /// Immediate check: throws DbError{kCancelled} if the cancel flag is
  /// set (consuming it), DbError{kTimeout} if the deadline has expired.
  void check_now();

  /// Account `bytes` against the statement budget. Returns false once
  /// the soft budget is exceeded (caller should degrade to a leaner
  /// strategy); throws DbError{kMemBudget} past the hard cap.
  bool charge(std::uint64_t bytes);
  void release(std::uint64_t bytes) {
    mem_used_ = bytes < mem_used_ ? mem_used_ - bytes : 0;
  }
  std::uint64_t mem_used() const { return mem_used_; }

  /// Record that an operator degraded under memory pressure (counted
  /// once per statement in gov.mem_degraded; EXPLAIN-visible flag).
  void note_mem_degraded();
  bool mem_degraded() const { return mem_degraded_; }

  /// Group-commit hand-off: when a statement's WAL write deferred its
  /// fsync, the Database records the WAL sequence number here and the
  /// Connection awaits durability AFTER releasing the statement's locks —
  /// that is what lets one leader fsync cover many queued commits.
  void set_pending_durable(std::uint64_t seq) { pending_durable_seq_ = seq; }
  std::uint64_t take_pending_durable() {
    const std::uint64_t seq = pending_durable_seq_;
    pending_durable_seq_ = 0;
    return seq;
  }

  /// True when the slow-query log is armed for this statement; the
  /// executor then spends the extra effort of capturing its EXPLAIN
  /// output via set_plan().
  bool slow_armed() const { return slow_armed_; }
  /// True when this statement records onto the trace timeline.
  bool trace_armed() const { return trace_armed_; }
  /// True under EXPLAIN ANALYZE (independent of the telemetry switch:
  /// operator stats use their own clocks).
  bool analyze() const { return analyze_; }
  /// EXPLAIN ANALYZE: collect operator stats and attribute phases even
  /// without a slow threshold.
  void arm_analyze() { analyze_ = true; }
  void set_plan(std::string plan) { plan_ = std::move(plan); }
  /// Push this record into the slow-query ring when it retires even if it
  /// completed under the threshold (EXPLAIN ANALYZE recording).
  void force_trace() { forced_ = timed_; }

 private:
  friend class PhaseTimer;

  StatementContext(std::string_view sql, bool statement);

  /// True when phase attribution has a consumer: the slow-query log, an
  /// EXPLAIN ANALYZE breakdown, or the trace timeline. PhaseTimer skips
  /// its clock reads entirely when this is false.
  bool phases_armed() const {
    return timed_ && (slow_armed_ || analyze_ || trace_armed_);
  }
  /// Histogram, timeline event and slow-query ring, at destruction.
  void retire();

  std::uint32_t tick_ = 0;
  std::uint64_t mem_used_ = 0;
  bool mem_degraded_ = false;
  std::uint64_t pending_durable_seq_ = 0;  // 0 = nothing awaiting fsync
  std::atomic<std::uint64_t> rows_polled_{0};
  std::atomic<const char*> phase_label_{"execute"};

  std::uint64_t id_ = 0;
  std::string_view sql_;
  std::thread::id thread_;
  std::chrono::steady_clock::time_point start_;
  std::chrono::system_clock::time_point wall_start_{};
  StatementContext* prev_;
  // "completed", or "timed_out" / "cancelled" as set by check_now(). A
  // killed statement is pushed to the slow-query ring even when it
  // finished under the threshold — a query the governor killed is exactly
  // the one an operator wants to see.
  const char* outcome_ = "completed";
  std::string plan_;
  std::array<std::uint64_t, telemetry::kPhaseCount> phase_micros_{};
  double threshold_ms_ = -1.0;
  bool timed_;  // telemetry was enabled when the statement started
  bool slow_armed_ = false;
  bool trace_armed_ = false;
  bool analyze_ = false;
  bool forced_ = false;
};

/// Times one phase from construction to destruction. For its duration the
/// calling thread's current statement shows the phase as its live label;
/// the elapsed microseconds go to that statement's phase breakdown (when
/// it has a consumer) and to `histogram` (if given). Traced statements
/// additionally get a phase event on the trace timeline.
class PhaseTimer {
 public:
  explicit PhaseTimer(telemetry::Phase phase,
                      telemetry::Histogram* histogram = nullptr);
  ~PhaseTimer();
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  telemetry::Phase phase_;
  telemetry::Histogram* histogram_;
  StatementContext* ctx_;
  const char* prev_label_ = nullptr;
  bool timed_ = false;
  std::chrono::steady_clock::time_point start_{};
};

/// The calling thread's traced statement id, or 0: the parent for
/// timeline events recorded inside a statement (WAL rounds, checkpoints).
std::uint64_t current_trace_parent();

/// Accounts one operator's approximate footprint against the statement
/// budget for the operator's lifetime; the running total is released on
/// destruction (matching when the operator's state is actually freed).
/// A null context makes every charge succeed.
class ScopedMemCharge {
 public:
  explicit ScopedMemCharge(StatementContext* ctx) : ctx_(ctx) {}
  ~ScopedMemCharge() {
    if (ctx_ != nullptr) ctx_->release(charged_);
  }
  ScopedMemCharge(const ScopedMemCharge&) = delete;
  ScopedMemCharge& operator=(const ScopedMemCharge&) = delete;

  /// False once the statement's soft budget is breached (the operator
  /// should degrade); throws DbError{kMemBudget} past the hard cap.
  bool charge(std::uint64_t bytes) {
    charged_ += bytes;
    return ctx_ == nullptr || ctx_->charge(bytes);
  }

  /// Total bytes charged over this operator's lifetime (EXPLAIN ANALYZE).
  std::uint64_t charged() const { return charged_; }

 private:
  StatementContext* ctx_;
  std::uint64_t charged_ = 0;
};

}  // namespace perfdmf::sqldb
