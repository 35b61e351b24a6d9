// Write-ahead log and value (de)serialization for the persistence layer.
//
// The WAL is logical: each committed DML/DDL statement is appended with
// its bound parameters, and recovery re-executes them on top of the last
// snapshot. Every record carries a monotonic sequence number and a CRC32
// over its payload:
//
//   R <seq> <crc32-hex8> <payload-len>\n<payload>
//
// where <payload> holds length-prefixed statement frames
// "S <sql-len>\n<sql>\nP <count>\n" + encoded params, terminated by "E\n",
// so SQL text and string parameters may contain any bytes, including
// newlines. A record of one statement is that one frame; a record of
// several (a transaction commit) is a batch "B <count>\n" + frames + "E\n"
// — one record, one CRC, one sequence number, so a torn commit write is
// discarded wholly and a transaction is never half-replayed. Replay reads
// both shapes.
//
// Recovery distinguishes two failure shapes:
//  - torn tail: the final record is incomplete (header has no newline, or
//    the payload extends past EOF). That is the expected residue of a
//    crash mid-append; it is discarded silently.
//  - mid-log corruption: a record is fully present but fails its CRC,
//    sequence, or framing check. Replay stops there and reports the
//    offset plus how many structurally-whole records after it were
//    discarded — committed data was damaged, and the caller must know.
//
// Writes go through a POSIX fd so short writes are detected byte-exactly.
// Failpoint sites: "wal.append" / "wal.commit" (the write of an
// autocommitted statement or schema change / of a commit; the caller
// names the site), "wal.sync", "wal.group_sync" (the group-commit
// leader's fsync), "wal.reset".
//
// Durability: append() only writes. Every fsync goes through
// wait_durable(seq), the group-commit queue: the first waiter becomes
// the leader, snapshots the written high-water mark, fsyncs ONCE outside
// the queue lock, then publishes the durable mark and wakes every
// follower whose sequence number it covered — N concurrent commits pay
// one fsync. Which records need it is the caller's policy (SyncMode, see
// Database). A failed leader fsync is rethrown to the leader and to
// every follower queued behind that round; a later successful round
// supersedes it.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "sqldb/durability.h"
#include "sqldb/expr_eval.h"
#include "sqldb/value.h"

namespace perfdmf::sqldb {

/// Encode a value on one line: "N", "I <int>", "R <%.17g>", "T <len> <bytes>".
std::string encode_value(const Value& v);
/// Decode from `text` starting at `pos`; advances pos past the record.
Value decode_value(const std::string& text, std::size_t& pos);

/// One statement and its bound parameters, as the WAL records it.
using LoggedStatement = std::pair<std::string, Params>;

class Wal {
 public:
  explicit Wal(std::filesystem::path path, SyncMode sync = SyncMode::kOnCommit);
  ~Wal();
  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Append `statements` as ONE record with a single write and return its
  /// sequence number (see header comment for the shapes); an empty list
  /// writes nothing and returns written_seq(). `site` is the failpoint
  /// evaluated before the write ("wal.append" or "wal.commit"). Nothing
  /// is fsynced here: a caller that needs the record durable calls
  /// wait_durable() with the returned number.
  std::uint64_t append(const std::vector<LoggedStatement>& statements,
                       const char* site);

  /// Block until record `seq` is fsynced, joining the group-commit queue
  /// (see header comment). No-op under SyncMode::kNone. Throws the
  /// leader's IoError to every commit the failed fsync covered.
  void wait_durable(std::uint64_t seq);

  /// Highest sequence number known durable (for tests and telemetry).
  std::uint64_t durable_seq() const {
    return durable_seq_.load(std::memory_order_acquire);
  }

  /// Highest sequence number appended so far (written, not necessarily
  /// durable). written_seq() >= durable_seq() always.
  std::uint64_t written_seq() const {
    return written_seq_.load(std::memory_order_acquire);
  }

  /// Commits currently inside wait_durable() (leader + followers) — the
  /// group-commit queue depth, readable lock-free for introspection.
  int commit_queue_depth() const {
    return commit_waiters_.load(std::memory_order_relaxed);
  }

  /// Duration of the most recent fsync in microseconds (0 before any).
  std::uint64_t last_fsync_micros() const {
    return last_fsync_micros_.load(std::memory_order_relaxed);
  }

  /// What replay() found. A clean log has corrupt == false; a torn tail
  /// alone is normal and reported only through tail_torn.
  struct ReplayInfo {
    std::size_t applied = 0;            // statements handed to apply()
    std::size_t skipped = 0;            // records at or below min_seq
    std::uint64_t last_seq = 0;         // highest sequence seen intact
    bool tail_torn = false;             // incomplete final record discarded
    bool corrupt = false;               // mid-log damage (see header comment)
    std::uint64_t corruption_offset = 0;
    std::size_t discarded = 0;          // whole records after the damage
    std::string error;                  // what the damage was
  };

  /// Replay every intact record in order, skipping records with
  /// seq <= min_seq (already folded into the snapshot being replayed
  /// onto). Never throws for file damage — the damage is described in
  /// the returned ReplayInfo; exceptions from apply() propagate.
  ReplayInfo replay(const std::function<void(const std::string& sql,
                                             const Params& params)>& apply,
                    std::uint64_t min_seq = 0) const;

  /// Truncate after a checkpoint — durably: the truncated file and its
  /// directory are fsynced, so a crash immediately afterwards cannot
  /// resurrect pre-checkpoint records on top of the new snapshot.
  /// Sequence numbering continues (it never restarts within a store).
  void reset();

  /// Highest sequence number assigned so far (0 before any append).
  std::uint64_t last_seq();

  /// Recovery learned the true high-water mark (snapshot watermark vs
  /// replayed tail); continue numbering from above it.
  void set_next_seq(std::uint64_t next);

  SyncMode sync_mode() const { return sync_; }

  const std::filesystem::path& path() const { return path_; }

 private:
  void ensure_open();
  /// Scan existing records to find the last assigned sequence number
  /// (standalone Wal use; Database sets it explicitly after replay).
  void recover_next_seq();
  void write_all(const std::string& buffer, const char* site);
  void sync_now();

  std::filesystem::path path_;
  int fd_ = -1;
  SyncMode sync_;
  std::uint64_t next_seq_ = 1;
  bool seq_known_ = false;

  // Group-commit state. written_seq_ advances after each successful
  // append (appends are serialized by the engine's writer mutex);
  // durable_seq_ advances under commit_mutex_ when a leader's fsync lands
  // (or a checkpoint supersedes the log).
  std::atomic<std::uint64_t> written_seq_{0};
  std::atomic<std::uint64_t> durable_seq_{0};
  std::atomic<int> commit_waiters_{0};
  std::atomic<std::uint64_t> last_fsync_micros_{0};
  std::mutex commit_mutex_;
  std::condition_variable commit_cv_;
  bool leader_active_ = false;
  std::uint64_t fail_round_ = 0;       // bumped when a leader fsync fails
  std::exception_ptr last_fail_;       // rethrown to that round's followers
};

}  // namespace perfdmf::sqldb
