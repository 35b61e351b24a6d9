#include "util/log.h"

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <thread>

namespace perfdmf::util {

namespace {

LogLevel initial_level() {
  const char* env = std::getenv("PERFDMF_LOG_LEVEL");
  if (env != nullptr) {
    if (const auto parsed = parse_log_level(env)) return *parsed;
  }
  return LogLevel::kWarn;
}

std::atomic<LogLevel> g_level{initial_level()};

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}
}  // namespace

void set_log_level(LogLevel level) { g_level.store(level, std::memory_order_relaxed); }

LogLevel log_level() { return g_level.load(std::memory_order_relaxed); }

std::optional<LogLevel> parse_log_level(std::string_view name) {
  std::string lowered;
  lowered.reserve(name.size());
  for (const char c : name) {
    lowered += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  if (lowered == "debug") return LogLevel::kDebug;
  if (lowered == "info") return LogLevel::kInfo;
  if (lowered == "warn" || lowered == "warning") return LogLevel::kWarn;
  if (lowered == "error") return LogLevel::kError;
  if (lowered == "off" || lowered == "none") return LogLevel::kOff;
  return std::nullopt;
}

std::string iso8601(std::chrono::system_clock::time_point t) {
  using namespace std::chrono;
  const std::time_t secs = system_clock::to_time_t(t);
  const auto millis =
      duration_cast<milliseconds>(t.time_since_epoch()).count() % 1000;
  std::tm tm{};
  gmtime_r(&secs, &tm);
  char buf[32];
  std::snprintf(buf, sizeof buf, "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ",
                tm.tm_year + 1900, tm.tm_mon + 1, tm.tm_mday, tm.tm_hour,
                tm.tm_min, tm.tm_sec, static_cast<int>(millis));
  return buf;
}

std::string iso8601_now() { return iso8601(std::chrono::system_clock::now()); }

std::string thread_id_string(std::thread::id id) {
  std::ostringstream os;
  os << id;
  return os.str();
}

std::string current_thread_id() {
  thread_local std::string cached = thread_id_string(std::this_thread::get_id());
  return cached;
}

void log_message(LogLevel level, const std::string& message) {
  if (level < g_level.load(std::memory_order_relaxed)) return;
  std::string line = iso8601_now();
  line += " [perfdmf ";
  line += level_name(level);
  line += " tid:";
  line += current_thread_id();
  line += "] ";
  line += message;
  line += '\n';
  // One fwrite call keeps concurrent lines from interleaving mid-line.
  std::fwrite(line.data(), 1, line.size(), stderr);
}

}  // namespace perfdmf::util
