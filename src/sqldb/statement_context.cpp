#include "sqldb/statement_context.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "util/error.h"
#include "util/log.h"

namespace perfdmf::sqldb {

namespace {

thread_local StatementContext* t_current = nullptr;

std::atomic<std::uint64_t> g_next_id{1};

telemetry::Histogram& statement_histogram() {
  static telemetry::Histogram& h =
      telemetry::MetricsRegistry::instance().histogram(
          "sqldb.statement.total_micros");
  return h;
}

std::uint64_t micros_between(std::chrono::steady_clock::time_point start,
                             std::chrono::steady_clock::time_point end) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(end - start)
          .count());
}

std::string format_ms(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", ms);
  return buf;
}

}  // namespace

StatementContext* StatementContext::current() { return t_current; }

StatementContext::StatementContext(std::string_view sql)
    : StatementContext(sql, true) {}

StatementContext::StatementContext(std::string_view sql, bool statement)
    : sql_(sql), prev_(t_current), timed_(statement && telemetry::enabled()) {
  t_current = this;
  if (!statement) return;
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  thread_ = std::this_thread::get_id();
  start_ = std::chrono::steady_clock::now();
  if (!timed_) return;
  threshold_ms_ = telemetry::slow_query_threshold_ms();
  slow_armed_ = threshold_ms_ >= 0.0;
  trace_armed_ = telemetry::trace_enabled();
  if (slow_armed_) wall_start_ = std::chrono::system_clock::now();
}

StatementContext::~StatementContext() {
  t_current = prev_;
  if (timed_) retire();
}

void StatementContext::check_now() {
  if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
    // Consume the flag: the cancellation applies to this statement; the
    // connection remains usable for the next one.
    cancel->store(false, std::memory_order_relaxed);
    detail::gov_cancellations().add();
    outcome_ = "cancelled";
    throw DbError("statement cancelled", DbError::Kind::kCancelled);
  }
  if (deadline.expired()) {
    detail::gov_timeouts().add();
    outcome_ = "timed_out";
    throw DbError("statement timeout exceeded", DbError::Kind::kTimeout);
  }
}

bool StatementContext::charge(std::uint64_t bytes) {
  mem_used_ += bytes;
  if (mem_hard_bytes != 0 && mem_used_ > mem_hard_bytes) {
    std::ostringstream msg;
    msg << "statement memory hard cap exceeded (" << mem_used_ << " > "
        << mem_hard_bytes << " bytes)";
    throw DbError(msg.str(), DbError::Kind::kMemBudget);
  }
  return mem_soft_bytes == 0 || mem_used_ <= mem_soft_bytes;
}

void StatementContext::note_mem_degraded() {
  if (mem_degraded_) return;  // count once per statement
  mem_degraded_ = true;
  detail::gov_mem_degraded().add();
}

void StatementContext::retire() {
  using telemetry::Phase;
  using telemetry::kPhaseCount;
  const auto end = std::chrono::steady_clock::now();
  const std::uint64_t total_us = micros_between(start_, end);
  statement_histogram().record(total_us);
  // Execute is whatever the explicitly timed phases don't account for.
  std::uint64_t attributed = 0;
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    if (i != static_cast<std::size_t>(Phase::kExecute)) {
      attributed += phase_micros_[i];
    }
  }
  phase_micros_[static_cast<std::size_t>(Phase::kExecute)] =
      total_us > attributed ? total_us - attributed : 0;

  if (trace_armed_) {
    constexpr std::size_t kNameMax = 120;
    std::string name(sql_.substr(0, kNameMax));
    if (sql_.size() > kNameMax) name += "...";
    const std::uint64_t parent =
        prev_ != nullptr && prev_->trace_armed_ ? prev_->id_ : 0;
    telemetry::trace_emit(std::move(name), "statement", start_, end, parent,
                          id_);
  }

  const bool killed = std::string_view(outcome_) != "completed";
  const double total_ms = static_cast<double>(total_us) / 1000.0;
  const bool slow = slow_armed_ && total_ms >= threshold_ms_;
  if (!killed && !slow && !forced_) return;
  if (!slow_armed_) {
    // Killed (or force-traced) with the slow log disarmed: the wall start
    // was never captured eagerly, so reconstruct it from the duration.
    wall_start_ = std::chrono::system_clock::now() -
                  std::chrono::microseconds(total_us);
  }

  telemetry::QueryTrace trace;
  trace.started_at = util::iso8601(wall_start_);
  trace.thread = util::current_thread_id();
  trace.sql = std::string(sql_);
  trace.plan = std::move(plan_);
  trace.total_ms = total_ms;
  trace.outcome = outcome_;
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    trace.phase_ms[i] = static_cast<double>(phase_micros_[i]) / 1000.0;
  }

  // Force-traced statements (EXPLAIN ANALYZE) that completed normally and
  // under the threshold are recorded silently — they are deliberate
  // instrumentation, not incidents worth a warning line.
  if (killed || slow) {
    std::string line;
    if (killed) {
      line = "query ";
      line += outcome_;
      line += " (";
      line += format_ms(total_ms);
      line += " ms): ";
    } else {
      line = "slow query (";
      line += format_ms(total_ms);
      line += " ms >= ";
      line += format_ms(threshold_ms_);
      line += " ms): ";
    }
    line += sql_;
    line += " |";
    for (std::size_t i = 0; i < kPhaseCount; ++i) {
      line += ' ';
      line += telemetry::phase_name(static_cast<Phase>(i));
      line += '=';
      line += format_ms(trace.phase_ms[i]);
      line += "ms";
    }
    if (!trace.plan.empty()) {
      std::string flat = trace.plan;
      std::replace(flat.begin(), flat.end(), '\n', ';');
      line += " | plan: ";
      line += flat;
    }
    util::log_message(util::LogLevel::kWarn, line);
  }

  telemetry::TraceRing::instance().push(std::move(trace));
}

// ------------------------------------------------------------- PhaseTimer

PhaseTimer::PhaseTimer(telemetry::Phase phase, telemetry::Histogram* histogram)
    : phase_(phase),
      histogram_(telemetry::enabled() ? histogram : nullptr),
      ctx_(StatementContext::current()) {
  if (ctx_ != nullptr) {
    prev_label_ = ctx_->phase_label_.exchange(telemetry::phase_name(phase),
                                              std::memory_order_relaxed);
    timed_ = ctx_->phases_armed();
  }
  if (timed_ || histogram_ != nullptr) {
    start_ = std::chrono::steady_clock::now();
  }
}

PhaseTimer::~PhaseTimer() {
  if (ctx_ != nullptr) {
    ctx_->phase_label_.store(prev_label_, std::memory_order_relaxed);
  }
  if (!timed_ && histogram_ == nullptr) return;
  const auto end = std::chrono::steady_clock::now();
  const std::uint64_t micros = micros_between(start_, end);
  if (timed_) {
    ctx_->phase_micros_[static_cast<std::size_t>(phase_)] += micros;
    if (ctx_->trace_armed_) {
      telemetry::trace_emit(telemetry::phase_name(phase_), "phase", start_,
                            end, ctx_->id_);
    }
  }
  if (histogram_ != nullptr) histogram_->record(micros);
}

std::uint64_t current_trace_parent() {
  const StatementContext* ctx = StatementContext::current();
  return ctx != nullptr && ctx->trace_armed() ? ctx->id() : 0;
}

}  // namespace perfdmf::sqldb
