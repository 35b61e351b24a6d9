// Minimal leveled logger. The framework is a library: logging defaults to
// warnings-only on stderr and is globally adjustable by embedding tools,
// or at startup via the PERFDMF_LOG_LEVEL environment variable
// (debug|info|warn|error|off). Each line carries an ISO-8601 UTC
// timestamp, the thread id, and the level.
#pragma once

#include <chrono>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>

namespace perfdmf::util {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

void set_log_level(LogLevel level);
LogLevel log_level();

/// Parse a level name ("debug", "INFO", ...). nullopt on unknown input.
std::optional<LogLevel> parse_log_level(std::string_view name);

/// UTC wall-clock time `t` as "YYYY-MM-DDTHH:MM:SS.mmmZ".
std::string iso8601(std::chrono::system_clock::time_point t);
std::string iso8601_now();

/// Printable form of a thread id.
std::string thread_id_string(std::thread::id id);
/// Printable id of the calling thread (stable for the thread's lifetime).
std::string current_thread_id();

/// Emit one log line if `level` is enabled. Thread-safe (single write call).
void log_message(LogLevel level, const std::string& message);

namespace detail {
class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {}
  ~LogLine() { log_message(level_, stream_.str()); }
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  template <typename T>
  LogLine& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};
}  // namespace detail

inline detail::LogLine log_debug() { return detail::LogLine(LogLevel::kDebug); }
inline detail::LogLine log_info() { return detail::LogLine(LogLevel::kInfo); }
inline detail::LogLine log_warn() { return detail::LogLine(LogLevel::kWarn); }
inline detail::LogLine log_error() { return detail::LogLine(LogLevel::kError); }

}  // namespace perfdmf::util
