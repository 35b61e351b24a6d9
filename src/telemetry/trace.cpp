#include "telemetry/trace.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace perfdmf::telemetry {

namespace {

std::atomic<std::int64_t>& threshold_micros_storage() {
  static std::atomic<std::int64_t> value{[] {
    const char* env = std::getenv("PERFDMF_SLOW_QUERY_MS");
    if (env == nullptr || *env == '\0') return std::int64_t{-1};
    char* end = nullptr;
    const double ms = std::strtod(env, &end);
    if (end == env || ms < 0.0) return std::int64_t{-1};
    return static_cast<std::int64_t>(ms * 1000.0);
  }()};
  return value;
}

/// Timestamps in the trace are relative to the first moment tracing was
/// looked at, so exported timelines start near zero.
std::chrono::steady_clock::time_point trace_epoch() {
  static const auto epoch = std::chrono::steady_clock::now();
  return epoch;
}

std::atomic<bool>& trace_enabled_storage() {
  static std::atomic<bool> value{[] {
    trace_epoch();  // pin the epoch before any event can be recorded
    const char* env = std::getenv("PERFDMF_TRACE");
    if (env == nullptr || *env == '\0') return false;
    return std::strcmp(env, "0") != 0 && std::strcmp(env, "false") != 0 &&
           std::strcmp(env, "off") != 0;
  }()};
  return value;
}

std::uint64_t micros_after_epoch(std::chrono::steady_clock::time_point t) {
  const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                      t - trace_epoch())
                      .count();
  return us > 0 ? static_cast<std::uint64_t>(us) : 0;
}

/// Small stable per-thread ordinal for the exported `tid` field (raw
/// thread ids are unwieldy 64-bit values in the trace viewer).
std::uint32_t trace_thread_ordinal() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t ordinal =
      next.fetch_add(1, std::memory_order_relaxed);
  return ordinal;
}

}  // namespace

const char* phase_name(Phase phase) {
  switch (phase) {
    case Phase::kParse: return "parse";
    case Phase::kPlan: return "plan";
    case Phase::kAdmission: return "admission";
    case Phase::kLockWait: return "lock_wait";
    case Phase::kExecute: return "execute";
    case Phase::kFsync: return "fsync";
  }
  return "?";
}

double slow_query_threshold_ms() {
  const std::int64_t us =
      threshold_micros_storage().load(std::memory_order_relaxed);
  return us < 0 ? -1.0 : static_cast<double>(us) / 1000.0;
}

void set_slow_query_threshold_ms(double ms) {
  threshold_micros_storage().store(
      ms < 0.0 ? -1 : static_cast<std::int64_t>(ms * 1000.0),
      std::memory_order_relaxed);
}

bool trace_enabled() {
  return trace_enabled_storage().load(std::memory_order_relaxed);
}

void set_trace_enabled(bool on) {
  trace_enabled_storage().store(on, std::memory_order_relaxed);
}

void trace_emit(std::string name, const char* cat,
                std::chrono::steady_clock::time_point start,
                std::chrono::steady_clock::time_point end,
                std::uint64_t parent, std::uint64_t id) {
  if (!enabled() || !trace_enabled()) return;
  TraceEvent event;
  event.id = id;
  event.parent = parent;
  event.name = std::move(name);
  event.cat = cat;
  event.ts_us = micros_after_epoch(start);
  event.dur_us = end > start
                     ? static_cast<std::uint64_t>(
                           std::chrono::duration_cast<std::chrono::microseconds>(
                               end - start)
                               .count())
                     : 0;
  event.tid = trace_thread_ordinal();
  TraceBuffer::instance().push(std::move(event));
}

// ----------------------------------------------------------- JSON export

std::string traces_to_json() {
  const auto traces = TraceRing::instance().snapshot();
  std::string out = "{\"traces\":[";
  bool first = true;
  for (const auto& t : traces) {
    if (!first) out += ',';
    first = false;
    out += "{\"id\":" + std::to_string(t.id);
    out += ",\"started_at\":\"" + json_escape(t.started_at) + '"';
    out += ",\"thread\":\"" + json_escape(t.thread) + '"';
    out += ",\"sql\":\"" + json_escape(t.sql) + '"';
    out += ",\"plan\":\"" + json_escape(t.plan) + '"';
    out += ",\"outcome\":\"" + json_escape(t.outcome) + '"';
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.3f", t.total_ms);
    out += ",\"total_ms\":";
    out += buf;
    out += ",\"phases\":{";
    for (std::size_t i = 0; i < kPhaseCount; ++i) {
      if (i != 0) out += ',';
      out += '"';
      out += phase_name(static_cast<Phase>(i));
      out += "\":";
      std::snprintf(buf, sizeof buf, "%.3f", t.phase_ms[i]);
      out += buf;
    }
    out += "}}";
  }
  out += "]}";
  return out;
}

std::string traces_to_chrome_json() {
  const auto events = TraceBuffer::instance().snapshot();
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const auto& e : events) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"" + json_escape(e.name) + '"';
    out += ",\"cat\":\"" + json_escape(e.cat) + '"';
    out += ",\"ph\":\"X\"";
    out += ",\"ts\":" + std::to_string(e.ts_us);
    out += ",\"dur\":" + std::to_string(e.dur_us);
    out += ",\"pid\":1";
    out += ",\"tid\":" + std::to_string(e.tid);
    out += ",\"args\":{\"span_id\":" + std::to_string(e.id);
    out += ",\"parent_id\":" + std::to_string(e.parent) + "}}";
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

}  // namespace perfdmf::telemetry
