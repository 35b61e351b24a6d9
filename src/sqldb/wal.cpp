#include "sqldb/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "sqldb/statement_context.h"
#include "telemetry/metrics.h"
#include "util/error.h"
#include "util/failpoint.h"
#include "util/file.h"

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

namespace {

/// Fill the corruption fields of `info` and count the structurally-whole
/// (header + CRC verified) records after the damage, so the report can
/// say how much committed data was discarded.
void mark_corrupt(Wal::ReplayInfo& info, std::string_view log, std::size_t pos,
                  std::string what) {
  info.corrupt = true;
  info.corruption_offset = pos;
  info.error = std::move(what);
  std::size_t scan = pos;
  while (scan < log.size()) {
    // Candidate record start: the damage point itself (a sequence break
    // leaves a structurally-whole record right there), or "R " on a line
    // boundary further on.
    std::size_t start;
    if (scan == pos && log.substr(scan).starts_with("R ")) {
      start = scan;
    } else {
      const std::size_t hit = log.find("\nR ", scan > 0 ? scan - 1 : 0);
      if (hit == std::string_view::npos) break;
      start = hit + 1;
    }
    std::optional<WalRecord> record;
    try {
      record = read_wal_record(log, start);
    } catch (const perfdmf::ParseError&) {
    }
    scan = record ? record->end : start + 1;
    if (record) ++info.discarded;
  }
}

}  // namespace

// ------------------------------------------------------------------ Wal

Wal::Wal(std::filesystem::path path, SyncMode sync)
    : path_(std::move(path)), sync_(sync) {}

Wal::~Wal() {
  if (fd_ >= 0) ::close(fd_);
}

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
  const std::uint64_t seq = next_seq_;
  const std::string record = encode_wal_record(seq, statements);
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
  const std::string log = util::read_file(path_);
  std::uint64_t prev_seq = 0;
  std::vector<LoggedStatement> statements;
  for (std::size_t pos = 0; pos < log.size();) {
    std::optional<WalRecord> record;
    try {
      record = read_wal_record(log, pos);
      if (!record) {
        info.tail_torn = true;  // crash mid-append: discard silently
        return info;
      }
      if (prev_seq != 0 && record->seq != prev_seq + 1) {
        throw perfdmf::ParseError("sequence break: expected " +
                                  std::to_string(prev_seq + 1) + ", found " +
                                  std::to_string(record->seq));
      }
      // A wrong frame behind a good CRC is an encoder bug or targeted
      // tampering — corruption either way, not a torn tail.
      decode_wal_payload(record->payload, statements);
    } catch (const perfdmf::ParseError& e) {
      mark_corrupt(info, log, pos, e.what());
      return info;
    }
    prev_seq = record->seq;
    info.last_seq = record->seq;
    if (record->seq > min_seq) {
      for (const auto& [sql, params] : statements) {
        apply(sql, params);
        ++info.applied;
      }
    } else {
      ++info.skipped;  // already folded into the snapshot
    }
    pos = record->end;
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
