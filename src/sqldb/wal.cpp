#include "sqldb/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "sqldb/statement_context.h"
#include "telemetry/metrics.h"
#include "util/crc32.h"
#include "util/error.h"
#include "util/failpoint.h"
#include "util/file.h"
#include "util/strings.h"

namespace perfdmf::sqldb {

DurabilityOptions DurabilityOptions::from_env() {
  DurabilityOptions opts;
  const char* env = std::getenv("PERFDMF_SYNC");
  if (!env || !*env) return opts;
  const std::string mode = env;
  if (mode == "always") {
    opts.sync = SyncMode::kAlways;
  } else if (mode == "on_commit") {
    opts.sync = SyncMode::kOnCommit;
  } else if (mode == "none") {
    opts.sync = SyncMode::kNone;
  } else {
    throw perfdmf::InvalidArgument("PERFDMF_SYNC must be always|on_commit|none, got " +
                                   mode);
  }
  return opts;
}

std::string encode_value(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return "N\n";
    case ValueType::kInt:
      return "I " + std::to_string(v.as_int()) + "\n";
    case ValueType::kReal: {
      char buffer[64];
      std::snprintf(buffer, sizeof buffer, "R %.17g\n", v.as_real());
      return buffer;
    }
    case ValueType::kText: {
      const std::string& text = v.as_text();
      return "T " + std::to_string(text.size()) + " " + text + "\n";
    }
  }
  throw DbError("unencodable value");
}

namespace {
std::string read_line(const std::string& text, std::size_t& pos) {
  const std::size_t nl = text.find('\n', pos);
  if (nl == std::string::npos) throw perfdmf::ParseError("truncated record");
  std::string line = text.substr(pos, nl - pos);
  pos = nl + 1;
  return line;
}
}  // namespace

Value decode_value(const std::string& text, std::size_t& pos) {
  if (pos >= text.size()) throw perfdmf::ParseError("truncated value record");
  const char tag = text[pos];
  if (tag == 'N') {
    read_line(text, pos);
    return Value();
  }
  if (tag == 'I') {
    std::string line = read_line(text, pos);
    if (line.size() < 2) throw perfdmf::ParseError("short int value record");
    return Value(util::parse_int_or_throw(line.substr(2), "wal int"));
  }
  if (tag == 'R') {
    std::string line = read_line(text, pos);
    if (line.size() < 2) throw perfdmf::ParseError("short real value record");
    return Value(util::parse_double_or_throw(line.substr(2), "wal real"));
  }
  if (tag == 'T') {
    // "T <len> <bytes...>\n" where bytes may contain newlines.
    const std::size_t space1 = text.find(' ', pos);
    const std::size_t space2 = text.find(' ', space1 + 1);
    if (space1 == std::string::npos || space2 == std::string::npos) {
      throw perfdmf::ParseError("malformed text value record");
    }
    const std::int64_t declared =
        util::parse_int_or_throw(text.substr(space1 + 1, space2 - space1 - 1),
                                 "wal text length");
    // Reject negative / absurd lengths before they can wrap the bounds
    // arithmetic below (a corrupted length must not read out of range).
    if (declared < 0 || static_cast<std::size_t>(declared) > text.size()) {
      throw perfdmf::ParseError("implausible text value length");
    }
    const std::size_t length = static_cast<std::size_t>(declared);
    if (space2 + 1 + length + 1 > text.size()) {
      throw perfdmf::ParseError("truncated text value record");
    }
    Value v(text.substr(space2 + 1, length));
    pos = space2 + 1 + length + 1;  // skip trailing newline
    return v;
  }
  throw perfdmf::ParseError("unknown value tag in record");
}

// ------------------------------------------------------- record framing

namespace {

struct RecordHeader {
  std::uint64_t seq = 0;
  std::uint32_t crc = 0;
  std::size_t payload_len = 0;
  std::size_t payload_start = 0;
};

enum class HeaderParse { kOk, kTorn, kBad };

bool parse_hex32(const std::string& s, std::uint32_t& out) {
  if (s.empty() || s.size() > 8) return false;
  std::uint32_t v = 0;
  for (char c : s) {
    int digit;
    if (c >= '0' && c <= '9') digit = c - '0';
    else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
    else if (c >= 'A' && c <= 'F') digit = c - 'A' + 10;
    else return false;
    v = (v << 4) | static_cast<std::uint32_t>(digit);
  }
  out = v;
  return true;
}

/// Parse "R <seq> <crc32-hex8> <payload-len>\n" at `pos`. kTorn means the
/// header never made it to disk (no newline, or payload past EOF) — the
/// expected residue of a crash mid-append. kBad means the bytes are
/// there but wrong — corruption.
HeaderParse parse_header(const std::string& text, std::size_t pos,
                         RecordHeader& out, std::string& error) {
  const std::size_t nl = text.find('\n', pos);
  if (nl == std::string::npos) return HeaderParse::kTorn;
  const auto fields = util::split_ws(text.substr(pos, nl - pos));
  if (fields.size() != 4 || fields[0] != "R") {
    error = "bad record header";
    return HeaderParse::kBad;
  }
  try {
    const std::int64_t seq = util::parse_int_or_throw(fields[1], "wal seq");
    const std::int64_t len = util::parse_int_or_throw(fields[3], "wal length");
    if (seq <= 0 || len < 0) {
      error = "implausible record header fields";
      return HeaderParse::kBad;
    }
    // A length pointing past EOF is NOT kBad: a crash that tore the
    // payload off leaves exactly this shape (the kTorn check below).
    if (!parse_hex32(fields[2], out.crc)) {
      error = "malformed record checksum";
      return HeaderParse::kBad;
    }
    out.seq = static_cast<std::uint64_t>(seq);
    out.payload_len = static_cast<std::size_t>(len);
  } catch (const perfdmf::ParseError& e) {
    error = e.what();
    return HeaderParse::kBad;
  }
  out.payload_start = nl + 1;
  if (out.payload_start + out.payload_len > text.size()) {
    return HeaderParse::kTorn;  // crash cut the payload short
  }
  return HeaderParse::kOk;
}

/// Parse one statement frame "S <len>\n<sql>\nP <n>\n<values>" at `cursor`,
/// advancing it; throws ParseError on any malformation.
void parse_statement_frame(const std::string& payload, std::size_t& cursor,
                           std::string& sql, Params& params) {
  if (cursor >= payload.size() || payload[cursor] != 'S') {
    throw perfdmf::ParseError("bad record head");
  }
  const std::size_t space = payload.find(' ', cursor);
  const std::size_t nl = payload.find('\n', cursor);
  if (space == std::string::npos || nl == std::string::npos || space > nl) {
    throw perfdmf::ParseError("bad statement header");
  }
  const std::int64_t declared = util::parse_int_or_throw(
      payload.substr(space + 1, nl - space - 1), "wal sql length");
  if (declared < 0 || static_cast<std::size_t>(declared) > payload.size()) {
    throw perfdmf::ParseError("implausible sql length");
  }
  const std::size_t sql_length = static_cast<std::size_t>(declared);
  cursor = nl + 1;
  if (cursor + sql_length + 1 > payload.size()) {
    throw perfdmf::ParseError("truncated sql");
  }
  sql = payload.substr(cursor, sql_length);
  cursor += sql_length + 1;  // + newline
  const std::string param_header = read_line(payload, cursor);
  if (!util::starts_with(param_header, "P ")) {
    throw perfdmf::ParseError("bad param header");
  }
  const std::int64_t count =
      util::parse_int_or_throw(param_header.substr(2), "wal param count");
  if (count < 0 || static_cast<std::size_t>(count) > payload.size()) {
    throw perfdmf::ParseError("implausible param count");
  }
  params.clear();
  params.reserve(static_cast<std::size_t>(count));
  for (std::int64_t i = 0; i < count; ++i) {
    params.push_back(decode_value(payload, cursor));
  }
}

/// Parse a record payload: a single statement frame, or a commit batch
/// "B <count>\n" followed by that many frames. Either ends with "E\n" and
/// must consume the payload exactly; throws ParseError otherwise (the
/// caller classifies it as corruption — CRC already passed).
void parse_payload(const std::string& payload,
                   std::vector<LoggedStatement>& statements) {
  statements.clear();
  std::size_t cursor = 0;
  std::size_t count = 1;
  if (!payload.empty() && payload[0] == 'B') {
    const std::string batch_header = read_line(payload, cursor);
    if (!util::starts_with(batch_header, "B ")) {
      throw perfdmf::ParseError("bad batch header");
    }
    const std::int64_t declared = util::parse_int_or_throw(
        batch_header.substr(2), "wal batch count");
    if (declared <= 0 || static_cast<std::size_t>(declared) > payload.size()) {
      throw perfdmf::ParseError("implausible batch count");
    }
    count = static_cast<std::size_t>(declared);
  }
  statements.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::string sql;
    Params params;
    parse_statement_frame(payload, cursor, sql, params);
    statements.emplace_back(std::move(sql), std::move(params));
  }
  if (read_line(payload, cursor) != "E" || cursor != payload.size()) {
    throw perfdmf::ParseError("bad record tail");
  }
}

/// Fill the corruption fields of `info` and count the structurally-whole
/// (header + CRC verified) records after the damage, so the report can
/// say how much committed data was discarded.
void mark_corrupt(Wal::ReplayInfo& info, const std::string& text,
                  std::size_t pos, std::string what) {
  info.corrupt = true;
  info.corruption_offset = pos;
  info.error = std::move(what);
  std::size_t scan = pos;
  while (scan < text.size()) {
    // Candidate record start: the damage point itself (a sequence break
    // leaves a structurally-whole record right there), or "R " on a line
    // boundary further on.
    std::size_t start;
    if (scan == pos && text.compare(scan, 2, "R ") == 0) {
      start = scan;
    } else {
      const std::size_t hit = text.find("\nR ", scan > 0 ? scan - 1 : 0);
      if (hit == std::string::npos) break;
      start = hit + 1;
    }
    RecordHeader header;
    std::string ignored;
    if (parse_header(text, start, header, ignored) == HeaderParse::kOk &&
        util::crc32(std::string_view(text).substr(header.payload_start,
                                                  header.payload_len)) ==
            header.crc) {
      ++info.discarded;
      scan = header.payload_start + header.payload_len;
    } else {
      scan = start + 1;
    }
  }
}

}  // namespace

// ------------------------------------------------------------------ Wal

Wal::Wal(std::filesystem::path path, SyncMode sync)
    : path_(std::move(path)), sync_(sync) {}

Wal::~Wal() {
  if (fd_ >= 0) ::close(fd_);
}

namespace {
std::string encode_statement_frame(std::string_view sql, const Params& params) {
  std::string frame = "S " + std::to_string(sql.size()) + "\n";
  frame.append(sql);
  frame += "\nP " + std::to_string(params.size()) + "\n";
  for (const auto& p : params) frame += encode_value(p);
  return frame;
}
}  // namespace

void Wal::ensure_open() {
  if (fd_ < 0) {
    fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    if (fd_ < 0) {
      throw perfdmf::IoError("cannot open WAL for append: " + path_.string() +
                                 ": " + std::strerror(errno),
                             errno);
    }
  }
  if (!seq_known_) recover_next_seq();
}

void Wal::recover_next_seq() {
  // Structural scan: replay with an impossible min_seq validates every
  // record's frame and CRC without applying anything.
  const ReplayInfo info =
      replay([](const std::string&, const Params&) {}, UINT64_MAX);
  next_seq_ = info.last_seq + 1;
  seq_known_ = true;
}

std::uint64_t Wal::last_seq() {
  if (!seq_known_) recover_next_seq();
  return next_seq_ - 1;
}

void Wal::set_next_seq(std::uint64_t next) {
  next_seq_ = std::max<std::uint64_t>(next, 1);
  seq_known_ = true;
}

void Wal::write_all(const std::string& buffer, const char* site) {
  if (auto fp = util::failpoint::evaluate(site)) {
    // Injected torn write: persist a prefix of the record, then die the
    // way a crash mid-append would.
    const std::size_t keep = std::min(
        buffer.size(), static_cast<std::size_t>(std::max(fp->arg, 0)));
    std::size_t done = 0;
    while (done < keep) {
      const ::ssize_t n = ::write(fd_, buffer.data() + done, keep - done);
      if (n <= 0) break;
      done += static_cast<std::size_t>(n);
    }
    ::_exit(util::failpoint::kCrashExitCode);
  }
  const ::off_t start = ::lseek(fd_, 0, SEEK_END);
  std::size_t done = 0;
  while (done < buffer.size()) {
    const ::ssize_t n = ::write(fd_, buffer.data() + done, buffer.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int saved = errno;
      // Roll the partial record off the log so the store stays appendable
      // (otherwise the next append would land after mid-log garbage).
      if (start >= 0) ::ftruncate(fd_, start);
      throw perfdmf::IoError("WAL append failed: " + path_.string() + ": " +
                                 std::strerror(saved),
                             saved);
    }
    if (n == 0) {
      if (start >= 0) ::ftruncate(fd_, start);
      throw perfdmf::IoError("WAL short write: " + path_.string());
    }
    done += static_cast<std::size_t>(n);
  }
}

void Wal::sync_now() {
  static auto& fsync_micros =
      telemetry::MetricsRegistry::instance().histogram("sqldb.wal.fsync_micros");
  PhaseTimer fsync_phase(telemetry::Phase::kFsync, &fsync_micros);
  util::failpoint::evaluate("wal.sync");
  const auto start = std::chrono::steady_clock::now();
  if (fd_ >= 0 && ::fsync(fd_) != 0) {
    const int saved = errno;
    throw perfdmf::IoError("WAL fsync failed: " + path_.string() + ": " +
                               std::strerror(saved),
                           saved);
  }
  last_fsync_micros_.store(
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - start)
              .count()),
      std::memory_order_relaxed);
}

std::uint64_t Wal::append(const std::vector<LoggedStatement>& statements,
                          const char* site) {
  if (statements.empty()) return written_seq();
  ensure_open();
  // The whole list is ONE record under one CRC, so a crash partway
  // through the write leaves a torn tail that replay discards wholly — a
  // commit is either entirely in the log or entirely absent.
  std::string payload;
  if (statements.size() > 1) {
    payload = "B " + std::to_string(statements.size()) + "\n";
  }
  for (const auto& [sql, params] : statements) {
    payload += encode_statement_frame(sql, params);
  }
  payload += "E\n";
  const std::uint64_t seq = next_seq_;
  char header[64];
  std::snprintf(header, sizeof header, "R %llu %08x %zu\n",
                static_cast<unsigned long long>(seq), util::crc32(payload),
                payload.size());
  const std::string record = header + payload;
  write_all(record, site);
  ++next_seq_;
  written_seq_.store(seq, std::memory_order_release);
  static auto& appends =
      telemetry::MetricsRegistry::instance().counter("sqldb.wal.appends");
  static auto& bytes =
      telemetry::MetricsRegistry::instance().counter("sqldb.wal.bytes");
  appends.add();
  bytes.add(record.size());
  return seq;
}

void Wal::wait_durable(std::uint64_t seq) {
  if (sync_ == SyncMode::kNone) return;
  static auto& commits = telemetry::MetricsRegistry::instance().counter(
      "wal.group_commit.commits");
  static auto& syncs =
      telemetry::MetricsRegistry::instance().counter("wal.group_commit.syncs");
  static auto& batch_size = telemetry::MetricsRegistry::instance().histogram(
      "wal.group_commit.batch_size");
  commits.add();
  if (durable_seq_.load(std::memory_order_acquire) >= seq) return;
  // Everything from here until the covering round lands is durability
  // wait, not execution: count ourselves in the group-commit queue depth
  // (the PhaseTimers below time it and label the live-statement view).
  struct WaiterGuard {
    std::atomic<int>& n;
    explicit WaiterGuard(std::atomic<int>& c) : n(c) {
      n.fetch_add(1, std::memory_order_relaxed);
    }
    ~WaiterGuard() { n.fetch_sub(1, std::memory_order_relaxed); }
  } waiter_guard(commit_waiters_);
  std::unique_lock<std::mutex> lk(commit_mutex_);
  for (;;) {
    if (durable_seq_.load(std::memory_order_acquire) >= seq) return;
    if (!leader_active_) {
      // Lead a round: snapshot the written high-water mark, fsync once
      // outside the queue lock, publish, wake everyone covered.
      leader_active_ = true;
      const auto round_start = std::chrono::steady_clock::now();
      const std::uint64_t target = written_seq_.load(std::memory_order_acquire);
      lk.unlock();
      std::exception_ptr err;
      try {
        util::failpoint::evaluate("wal.group_sync");
        sync_now();
      } catch (...) {
        err = std::current_exception();
      }
      lk.lock();
      leader_active_ = false;
      if (err) {
        ++fail_round_;
        last_fail_ = err;
        commit_cv_.notify_all();
        std::rethrow_exception(err);
      }
      const std::uint64_t prev = durable_seq_.load(std::memory_order_relaxed);
      if (target > prev) {
        durable_seq_.store(target, std::memory_order_release);
        batch_size.record(target - prev);
      }
      syncs.add();
      telemetry::trace_emit("wal.group_commit.round", "wal", round_start,
                            std::chrono::steady_clock::now(),
                            current_trace_parent());
      commit_cv_.notify_all();
      // Loop re-checks: our record was written before we queued, so the
      // round we just led always covers seq.
    } else {
      static auto& follower_wait_micros =
          telemetry::MetricsRegistry::instance().histogram(
              "wal.group_commit.follower_wait_micros");
      const std::uint64_t round = fail_round_;
      {
        // A follower's block time is durability cost; without this it
        // would vanish into the statement's execute remainder.
        PhaseTimer follower_wait(telemetry::Phase::kFsync,
                                 &follower_wait_micros);
        commit_cv_.wait(lk);
      }
      if (durable_seq_.load(std::memory_order_acquire) >= seq) return;
      if (fail_round_ != round) {
        // The round we were queued behind failed; surface its error.
        // A retry re-enters wait_durable and leads a fresh round.
        std::rethrow_exception(last_fail_);
      }
    }
  }
}

Wal::ReplayInfo Wal::replay(
    const std::function<void(const std::string& sql, const Params& params)>&
        apply,
    std::uint64_t min_seq) const {
  ReplayInfo info;
  if (!std::filesystem::exists(path_)) return info;
  const std::string text = util::read_file(path_);
  std::size_t pos = 0;
  std::uint64_t prev_seq = 0;
  while (pos < text.size()) {
    RecordHeader header;
    std::string error;
    switch (parse_header(text, pos, header, error)) {
      case HeaderParse::kTorn:
        info.tail_torn = true;  // crash mid-append: discard silently
        return info;
      case HeaderParse::kBad:
        mark_corrupt(info, text, pos, std::move(error));
        return info;
      case HeaderParse::kOk:
        break;
    }
    const std::string payload =
        text.substr(header.payload_start, header.payload_len);
    if (util::crc32(payload) != header.crc) {
      mark_corrupt(info, text, pos,
                   "CRC mismatch on record seq " + std::to_string(header.seq));
      return info;
    }
    if (prev_seq != 0 && header.seq != prev_seq + 1) {
      mark_corrupt(info, text, pos,
                   "sequence break: expected " + std::to_string(prev_seq + 1) +
                       ", found " + std::to_string(header.seq));
      return info;
    }
    std::vector<LoggedStatement> statements;
    try {
      parse_payload(payload, statements);
    } catch (const perfdmf::ParseError& e) {
      // CRC passed but the frame is wrong: encoder bug or targeted
      // tampering — either way, not a torn tail.
      mark_corrupt(info, text, pos, e.what());
      return info;
    }
    prev_seq = header.seq;
    info.last_seq = header.seq;
    if (header.seq > min_seq) {
      for (const auto& [sql, params] : statements) {
        apply(sql, params);
        ++info.applied;
      }
    } else {
      ++info.skipped;  // already folded into the snapshot
    }
    pos = header.payload_start + header.payload_len;
  }
  return info;
}

void Wal::reset() {
  {
    // Checkpoint supersedes the log: wait out any in-flight group-commit
    // leader (it holds the fd in fsync), then mark everything written as
    // durable — the snapshot the caller just wrote covers it.
    std::unique_lock<std::mutex> lk(commit_mutex_);
    while (leader_active_) commit_cv_.wait(lk);
    durable_seq_.store(written_seq_.load(std::memory_order_acquire),
                       std::memory_order_release);
    commit_cv_.notify_all();
  }
  util::failpoint::evaluate("wal.reset");
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  const int fd =
      ::open(path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    throw perfdmf::IoError("cannot truncate WAL: " + path_.string() + ": " +
                               std::strerror(errno),
                           errno);
  }
  // Durable truncation: a crash right after a checkpoint must not
  // resurrect pre-checkpoint records on top of the new snapshot.
  if (::fsync(fd) != 0) {
    const int saved = errno;
    ::close(fd);
    throw perfdmf::IoError("WAL truncate fsync failed: " + path_.string() +
                               ": " + std::strerror(saved),
                           saved);
  }
  ::close(fd);
  util::fsync_dir(path_.parent_path());
  // Sequence numbering continues across resets; the snapshot's watermark
  // tells recovery which records it already contains.
}

}  // namespace perfdmf::sqldb
