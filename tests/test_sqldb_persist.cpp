// Persistence tests: WAL encoding, replay, snapshot, crash recovery.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <limits>

#include "sqldb/connection.h"
#include "sqldb/wal.h"
#include "telemetry/metrics.h"
#include "util/crc32.h"
#include "util/error.h"
#include "util/failpoint.h"
#include "util/file.h"
#include "util/rng.h"

using namespace perfdmf::sqldb;
namespace u = perfdmf::util;

namespace {
std::string encode(const Value& v) {
  std::string out;
  encode_value(out, v);
  return out;
}
}  // namespace

TEST(ValueEncoding, RoundTripsEveryType) {
  for (const Value& v :
       {Value(), Value(std::int64_t{-42}), Value(3.14159),
        Value("text with\nnewline and spaces"), Value(std::string())}) {
    const std::string encoded = encode(v);
    std::size_t pos = 0;
    const Value decoded = decode_value(encoded, pos);
    EXPECT_EQ(decoded, v);
    EXPECT_EQ(pos, encoded.size());
  }
}

TEST(ValueEncoding, RealPrecisionPreserved) {
  const Value v(0.1234567890123456789);
  std::size_t pos = 0;
  EXPECT_DOUBLE_EQ(decode_value(encode(v), pos).as_real(), v.as_real());
}

TEST(ValueEncoding, TruncatedInputThrows) {
  std::size_t pos = 0;
  EXPECT_THROW(decode_value("T 100 short\n", pos), perfdmf::ParseError);
  pos = 0;
  EXPECT_THROW(decode_value("I", pos), perfdmf::ParseError);
  pos = 0;
  EXPECT_THROW(decode_value("Z 1\n", pos), perfdmf::ParseError);
}

TEST(Wal, AppendAndReplay) {
  u::ScopedTempDir dir;
  Wal wal(dir.path() / "wal.log");
  wal.append({{"INSERT INTO t VALUES (?)", {Value(std::int64_t{1})}}},
             "wal.append");
  wal.append({{"INSERT INTO t VALUES (?, ?)", {Value("x"), Value()}}},
             "wal.append");

  std::vector<std::pair<std::string, Params>> seen;
  wal.replay([&](const std::string& sql, const Params& params) {
    seen.emplace_back(sql, params);
  });
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].first, "INSERT INTO t VALUES (?)");
  EXPECT_EQ(seen[0].second[0], Value(std::int64_t{1}));
  EXPECT_EQ(seen[1].second[1], Value());
}

TEST(Wal, BatchIsOneRecordAndTornBatchIsDiscardedWholly) {
  u::ScopedTempDir dir;
  const auto path = dir.path() / "wal.log";
  {
    Wal wal(path);
    wal.append({{"CREATE TABLE t (x INTEGER)", {}}}, "wal.append");
    wal.append({{"INSERT INTO t VALUES (?)", {Value(std::int64_t{1})}},
                {"INSERT INTO t VALUES (?)", {Value(std::int64_t{2})}},
                {"INSERT INTO t VALUES (?)", {Value(std::int64_t{3})}}},
               "wal.commit");
    EXPECT_EQ(wal.last_seq(), 2u);  // the whole commit is one record
  }
  {
    Wal wal(path);
    std::size_t applied = 0;
    auto info = wal.replay([&](const std::string&, const Params&) { ++applied; });
    EXPECT_EQ(applied, 4u);  // but every statement replays
    EXPECT_FALSE(info.corrupt);
  }
  // Cut the commit record partway: even though the first INSERT's frame
  // bytes are fully on disk, the transaction must vanish as a unit.
  const std::string content = u::read_file(path);
  u::write_file(path, content.substr(0, content.size() - 12));
  Wal wal(path);
  std::vector<std::string> seen;
  auto info = wal.replay(
      [&](const std::string& sql, const Params&) { seen.push_back(sql); });
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], "CREATE TABLE t (x INTEGER)");
  EXPECT_TRUE(info.tail_torn);
  EXPECT_FALSE(info.corrupt);
}

TEST(Wal, TornTailIsDiscarded) {
  u::ScopedTempDir dir;
  const auto path = dir.path() / "wal.log";
  {
    Wal wal(path);
    wal.append({{"SELECT 1", {}}}, "wal.append");
    wal.append({{"SELECT 2", {}}}, "wal.append");
  }
  // Simulate a crash mid-append: cut the last record in half.
  const std::string content = u::read_file(path);
  u::write_file(path, content.substr(0, content.size() - 10));

  Wal wal(path);
  std::size_t replayed = 0;
  auto info = wal.replay([&](const std::string&, const Params&) { ++replayed; });
  EXPECT_EQ(replayed, 1u);
  EXPECT_TRUE(info.tail_torn);
  EXPECT_FALSE(info.corrupt);  // a torn tail is expected, not corruption
}

TEST(Wal, MidLogCorruptionIsReportedWithOffsetAndDiscardCount) {
  u::ScopedTempDir dir;
  const auto path = dir.path() / "wal.log";
  {
    Wal wal(path);
    for (int i = 0; i < 5; ++i) {
      wal.append({{"INSERT INTO t VALUES (?)", {Value(std::int64_t{i})}}},
                 "wal.append");
    }
  }
  // Flip a payload byte inside the second record.
  std::string content = u::read_file(path);
  const std::size_t second = content.find("\nR ", 1) + 1;
  const std::size_t third = content.find("\nR ", second) + 1;
  content[second + (third - second) / 2] ^= 0x40;
  u::write_file(path, content);

  Wal wal(path);
  std::size_t replayed = 0;
  auto info = wal.replay([&](const std::string&, const Params&) { ++replayed; });
  EXPECT_EQ(replayed, 1u);  // only the record before the damage
  ASSERT_TRUE(info.corrupt);
  EXPECT_EQ(info.corruption_offset, second);
  EXPECT_EQ(info.discarded, 3u);  // records 3..5 were intact but unreachable
  EXPECT_FALSE(info.error.empty());
}

TEST(Wal, SequenceBreakIsCorruption) {
  u::ScopedTempDir dir;
  const auto path = dir.path() / "wal.log";
  {
    Wal wal(path);
    for (int i = 0; i < 3; ++i) wal.append({{"SELECT 1", {}}}, "wal.append");
  }
  // Delete the middle record wholesale: every byte left is a valid
  // record, but the sequence numbers no longer chain.
  std::string content = u::read_file(path);
  const std::size_t second = content.find("\nR ", 1) + 1;
  const std::size_t third = content.find("\nR ", second) + 1;
  u::write_file(path, content.substr(0, second) + content.substr(third));

  Wal wal(path);
  std::size_t replayed = 0;
  auto info = wal.replay([&](const std::string&, const Params&) { ++replayed; });
  EXPECT_EQ(replayed, 1u);
  EXPECT_TRUE(info.corrupt);
  EXPECT_EQ(info.discarded, 1u);
}

TEST(Wal, SequenceNumbersContinueAcrossReset) {
  u::ScopedTempDir dir;
  Wal wal(dir.path() / "wal.log");
  wal.append({{"SELECT 1", {}}}, "wal.append");
  wal.append({{"SELECT 2", {}}}, "wal.append");
  EXPECT_EQ(wal.last_seq(), 2u);
  wal.reset();
  wal.append({{"SELECT 3", {}}}, "wal.append");
  EXPECT_EQ(wal.last_seq(), 3u);
  auto info = wal.replay([](const std::string&, const Params&) {});
  EXPECT_EQ(info.last_seq, 3u);
}

TEST(Wal, ReplaySkipsRecordsAtOrBelowMinSeq) {
  u::ScopedTempDir dir;
  Wal wal(dir.path() / "wal.log");
  for (int i = 0; i < 4; ++i) wal.append({{"SELECT 1", {}}}, "wal.append");
  std::size_t replayed = 0;
  auto info =
      wal.replay([&](const std::string&, const Params&) { ++replayed; }, 2);
  EXPECT_EQ(replayed, 2u);  // records 3 and 4
  EXPECT_EQ(info.skipped, 2u);
  EXPECT_EQ(info.last_seq, 4u);
}

TEST(Wal, ResetTruncates) {
  u::ScopedTempDir dir;
  Wal wal(dir.path() / "wal.log");
  wal.append({{"SELECT 1", {}}}, "wal.append");
  wal.reset();
  std::size_t replayed = 0;
  wal.replay([&](const std::string&, const Params&) { ++replayed; });
  EXPECT_EQ(replayed, 0u);
}

// Bytes written by the two append functions this log had before they
// were folded into one (autocommit statements as single frames, a commit
// as a batch): every such log must still open unchanged.
TEST(Wal, EarlierSingleAndBatchRecordsReplayUnchanged) {
  static const char kLog[] =
      "R 1 c8e4ab54 70\n"
      "S 58\n"
      "CREATE TABLE t (id INTEGER PRIMARY KEY, x INTEGER, s TEXT)\n"
      "P 0\n"
      "E\n"
      "R 2 6c158d45 58\n"
      "S 34\n"
      "INSERT INTO t (x, s) VALUES (?, ?)\n"
      "P 2\n"
      "I 1\n"
      "T 3 a\n"
      "b\n"
      "E\n"
      "R 3 b4957a1f 108\n"
      "B 2\n"
      "S 34\n"
      "INSERT INTO t (x, s) VALUES (?, ?)\n"
      "P 2\n"
      "I 2\n"
      "N\n"
      "S 30\n"
      "UPDATE t SET s = ? WHERE x = ?\n"
      "P 2\n"
      "T 3 two\n"
      "I 2\n"
      "E\n";
  u::ScopedTempDir dir;
  const auto db_dir = dir.path() / "db";
  std::filesystem::create_directories(db_dir);
  u::write_file(db_dir / "wal.log", kLog);
  {
    Wal wal(db_dir / "wal.log");
    std::size_t applied = 0;
    const auto info =
        wal.replay([&](const std::string&, const Params&) { ++applied; });
    EXPECT_FALSE(info.corrupt);
    EXPECT_FALSE(info.tail_torn);
    EXPECT_EQ(info.last_seq, 3u);
    EXPECT_EQ(applied, 4u);
  }
  Connection conn(db_dir);
  EXPECT_TRUE(conn.recovery_report().clean());
  EXPECT_EQ(conn.recovery_report().replayed_records, 4u);
  auto rs = conn.execute("SELECT x, s FROM t ORDER BY x");
  ASSERT_TRUE(rs.next());
  EXPECT_EQ(rs.get_int(1), 1);
  EXPECT_EQ(rs.get_string(2), "a\nb");
  ASSERT_TRUE(rs.next());
  EXPECT_EQ(rs.get_int(1), 2);
  EXPECT_EQ(rs.get_string(2), "two");
  EXPECT_FALSE(rs.next());
  // Numbering continues above the replayed records.
  conn.execute_update("INSERT INTO t (x) VALUES (3)");
  EXPECT_EQ(conn.database().wal()->written_seq(), 4u);
}

TEST(Persistence, DataSurvivesReopen) {
  u::ScopedTempDir dir;
  const auto db_dir = dir.path() / "db";
  {
    Connection conn(db_dir);
    conn.execute_update(
        "CREATE TABLE kv (id INTEGER PRIMARY KEY, k TEXT, v REAL)");
    conn.execute_update("INSERT INTO kv (k, v) VALUES ('a', 1.5), ('b', 2.5)");
  }  // destructor checkpoints
  {
    Connection conn(db_dir);
    auto rs = conn.execute("SELECT v FROM kv WHERE k = 'b'");
    ASSERT_TRUE(rs.next());
    EXPECT_DOUBLE_EQ(rs.get_double(1), 2.5);
  }
}

TEST(Persistence, WalReplayWithoutCheckpoint) {
  u::ScopedTempDir dir;
  const auto db_dir = dir.path() / "db";
  {
    Connection conn(db_dir);
    conn.execute_update("CREATE TABLE t (id INTEGER PRIMARY KEY, x INTEGER)");
    conn.execute_update("INSERT INTO t (x) VALUES (10)");
    // Simulate a crash: copy WAL aside, reopen from WAL only.
    // (No checkpoint call; the destructor would checkpoint, so instead we
    // verify the WAL alone can rebuild by reading it directly.)
    std::size_t records = 0;
    Wal wal(db_dir / "wal.log");
    wal.replay([&](const std::string&, const Params&) { ++records; });
    EXPECT_EQ(records, 2u);  // CREATE + INSERT
  }
}

TEST(Persistence, UpdatesAndDeletesSurviveReopen) {
  u::ScopedTempDir dir;
  const auto db_dir = dir.path() / "db";
  {
    Connection conn(db_dir);
    conn.execute_update("CREATE TABLE t (id INTEGER PRIMARY KEY, x INTEGER)");
    conn.execute_update("INSERT INTO t (x) VALUES (1), (2), (3)");
    conn.execute_update("UPDATE t SET x = 20 WHERE x = 2");
    conn.execute_update("DELETE FROM t WHERE x = 1");
  }
  {
    Connection conn(db_dir);
    auto rs = conn.execute("SELECT x FROM t ORDER BY x");
    ASSERT_EQ(rs.row_count(), 2u);
    rs.next();
    EXPECT_EQ(rs.get_int(1), 3);
    rs.next();
    EXPECT_EQ(rs.get_int(1), 20);
  }
}

TEST(Persistence, RolledBackTransactionNotReplayed) {
  u::ScopedTempDir dir;
  const auto db_dir = dir.path() / "db";
  {
    Connection conn(db_dir);
    conn.execute_update("CREATE TABLE t (id INTEGER PRIMARY KEY, x INTEGER)");
    conn.begin();
    conn.execute_update("INSERT INTO t (x) VALUES (1)");
    conn.rollback();
    conn.begin();
    conn.execute_update("INSERT INTO t (x) VALUES (2)");
    conn.commit();
  }
  {
    Connection conn(db_dir);
    auto rs = conn.execute("SELECT x FROM t");
    ASSERT_EQ(rs.row_count(), 1u);
    rs.next();
    EXPECT_EQ(rs.get_int(1), 2);
  }
}

TEST(Persistence, CheckpointTruncatesWalAndKeepsData) {
  u::ScopedTempDir dir;
  const auto db_dir = dir.path() / "db";
  Connection conn(db_dir);
  conn.execute_update("CREATE TABLE t (id INTEGER PRIMARY KEY, x INTEGER)");
  conn.execute_update("INSERT INTO t (x) VALUES (7)");
  conn.checkpoint();
  EXPECT_TRUE(u::read_file(db_dir / "wal.log").empty());
  auto rs = conn.execute("SELECT x FROM t");
  ASSERT_TRUE(rs.next());
  EXPECT_EQ(rs.get_int(1), 7);
}

TEST(Persistence, AutoIncrementContinuesAfterReopen) {
  u::ScopedTempDir dir;
  const auto db_dir = dir.path() / "db";
  {
    Connection conn(db_dir);
    conn.execute_update("CREATE TABLE t (id INTEGER PRIMARY KEY, x INTEGER)");
    conn.execute_update("INSERT INTO t (x) VALUES (1), (2)");
    conn.execute_update("DELETE FROM t WHERE id = 2");
    conn.checkpoint();
  }
  {
    Connection conn(db_dir);
    conn.execute_update("INSERT INTO t (x) VALUES (3)");
    auto rs = conn.execute("SELECT MAX(id) FROM t");
    rs.next();
    // Must not reuse id 2's slot number... id continues from the high mark.
    EXPECT_GE(rs.get_int(1), 3);
  }
}

TEST(Persistence, SchemaDetailsSurviveSnapshot) {
  u::ScopedTempDir dir;
  const auto db_dir = dir.path() / "db";
  {
    Connection conn(db_dir);
    conn.execute_update(
        "CREATE TABLE parent (id INTEGER PRIMARY KEY, name TEXT NOT NULL)");
    conn.execute_update(
        "CREATE TABLE child (id INTEGER PRIMARY KEY, p INTEGER,"
        " note TEXT DEFAULT 'none',"
        " FOREIGN KEY (p) REFERENCES parent (id))");
    conn.execute_update("INSERT INTO parent (name) VALUES ('a')");
    conn.checkpoint();
  }
  {
    Connection conn(db_dir);
    // FK still enforced after reload.
    EXPECT_THROW(conn.execute_update("INSERT INTO child (p) VALUES (99)"),
                 perfdmf::DbError);
    // DEFAULT still applied.
    conn.execute_update("INSERT INTO child (p) VALUES (1)");
    auto rs = conn.execute("SELECT note FROM child");
    rs.next();
    EXPECT_EQ(rs.get_string(1), "none");
    // NOT NULL still enforced.
    EXPECT_THROW(conn.execute_update("INSERT INTO parent (name) VALUES (NULL)"),
                 perfdmf::DbError);
  }
}

TEST(Persistence, InMemoryDatabaseHasNoFiles) {
  Connection conn;  // in-memory
  conn.execute_update("CREATE TABLE t (x INTEGER)");
  conn.execute_update("INSERT INTO t VALUES (1)");
  EXPECT_NO_THROW(conn.checkpoint());  // no-op, must not throw
}

TEST(Persistence, AlterTableSurvivesWalReplayAndSnapshot) {
  u::ScopedTempDir dir;
  const auto db_dir = dir.path() / "db";
  {
    Connection conn(db_dir);
    conn.execute_update("CREATE TABLE t (id INTEGER PRIMARY KEY, x INTEGER)");
    conn.execute_update("INSERT INTO t (x) VALUES (1)");
    conn.execute_update("ALTER TABLE t ADD COLUMN note TEXT DEFAULT 'n/a'");
    conn.execute_update("INSERT INTO t (x, note) VALUES (2, 'hello')");
  }
  {
    // First reopen: recovered from WAL replay (destructor checkpointed,
    // but exercise another write + reopen to cover the snapshot path too).
    Connection conn(db_dir);
    auto rs = conn.execute("SELECT note FROM t ORDER BY id");
    ASSERT_EQ(rs.row_count(), 2u);
    rs.next();
    EXPECT_EQ(rs.get_string(1), "n/a");
    rs.next();
    EXPECT_EQ(rs.get_string(1), "hello");
    conn.execute_update("ALTER TABLE t DROP COLUMN note");
  }
  {
    Connection conn(db_dir);
    EXPECT_THROW(conn.execute("SELECT note FROM t"), perfdmf::DbError);
    auto rs = conn.execute("SELECT COUNT(*) FROM t");
    rs.next();
    EXPECT_EQ(rs.get_int(1), 2);
  }
}

TEST(Persistence, CorruptedSnapshotWithoutFallbackIsRejected) {
  u::ScopedTempDir dir;
  const auto db_dir = dir.path() / "db";
  {
    Connection conn(db_dir);
    conn.execute_update("CREATE TABLE t (id INTEGER PRIMARY KEY)");
    conn.checkpoint();
  }
  // Damage the snapshot header and remove the fallback copy the
  // destructor's checkpoint rotated into place.
  const auto snapshot = db_dir / "snapshot.pdb";
  std::string content = u::read_file(snapshot);
  content[0] = 'X';
  u::write_file(snapshot, content);
  std::filesystem::remove(db_dir / "snapshot.pdb.prev");
  EXPECT_THROW(Connection bad(db_dir), perfdmf::ParseError);
}

TEST(Persistence, TruncatedSnapshotWithoutFallbackIsRejected) {
  u::ScopedTempDir dir;
  const auto db_dir = dir.path() / "db";
  {
    Connection conn(db_dir);
    conn.execute_update("CREATE TABLE t (id INTEGER PRIMARY KEY, s TEXT)");
    conn.execute_update("INSERT INTO t (s) VALUES ('abcdefghij')");
    conn.checkpoint();
  }
  const auto snapshot = db_dir / "snapshot.pdb";
  const std::string content = u::read_file(snapshot);
  u::write_file(snapshot, content.substr(0, content.size() / 2));
  std::filesystem::remove(db_dir / "snapshot.pdb.prev");
  EXPECT_THROW(Connection bad(db_dir), perfdmf::ParseError);
}

TEST(Persistence, CorruptSnapshotFallsBackToPreviousPlusWal) {
  u::ScopedTempDir dir;
  const auto db_dir = dir.path() / "db";
  {
    Connection conn(db_dir);
    conn.execute_update("CREATE TABLE t (id INTEGER PRIMARY KEY, x INTEGER)");
    conn.execute_update("INSERT INTO t (x) VALUES (1)");
    conn.checkpoint();  // snapshot A
    conn.execute_update("INSERT INTO t (x) VALUES (2)");
    // Second checkpoint, but the WAL truncation "crashes": the new
    // snapshot is installed (A rotates to .prev) and the WAL keeps
    // every record.
    perfdmf::util::failpoint::enable("wal.reset", perfdmf::util::FailAction::kError);
    EXPECT_THROW(conn.checkpoint(), perfdmf::IoError);
    conn.execute_update("INSERT INTO t (x) VALUES (3)");
    // Re-arm so the destructor's checkpoint also leaves the WAL intact
    // (failpoints are one-shot).
    perfdmf::util::failpoint::enable("wal.reset", perfdmf::util::FailAction::kError);
  }
  // Now corrupt the newest snapshot as if its write had been torn.
  const auto snapshot = db_dir / "snapshot.pdb";
  std::string content = u::read_file(snapshot);
  content[content.size() / 2] ^= 0x40;
  u::write_file(snapshot, content);

  Connection conn(db_dir);
  const auto& report = conn.recovery_report();
  EXPECT_TRUE(report.used_previous_snapshot);
  EXPECT_FALSE(report.clean());
  auto rs = conn.execute("SELECT COUNT(*) FROM t");
  rs.next();
  EXPECT_EQ(rs.get_int(1), 3);  // nothing lost: previous snapshot + full WAL
}

// ---------------------------------------------------------------------------
// Adversarial encoding: values whose bytes mimic the framing itself.

TEST(ValueEncoding, AdversarialTextRoundTrips) {
  const std::vector<std::string> nasty = {
      "line1\nline2\nline3",
      "E\n",                       // looks like a payload terminator
      "S 12\nfake header\n",       // looks like a statement frame
      "R 3 deadbeef 10\n",         // looks like a WAL record header
      std::string("nul\0inside", 10),
      std::string(3, '\0'),
      "trailing newline\n",
      "",
  };
  for (const std::string& s : nasty) {
    const Value v(s);
    const std::string encoded = encode(v);
    std::size_t pos = 0;
    const Value decoded = decode_value(encoded, pos);
    EXPECT_EQ(decoded.as_text(), s);
    EXPECT_EQ(pos, encoded.size());
  }
}

TEST(ValueEncoding, SeventeenDigitDoublesSurviveExactly) {
  for (const double d : {0.12345678901234567, 1e308, -1e-308, 2.2250738585072014e-308,
                         9007199254740993.0, -0.0, 3.141592653589793}) {
    const Value v(d);
    std::size_t pos = 0;
    const Value decoded = decode_value(encode(v), pos);
    // Bit-exact, not just approximately equal: %.17g is lossless.
    const double back = decoded.as_real();
    EXPECT_EQ(std::memcmp(&d, &back, sizeof(double)), 0) << d;
  }
}

TEST(ValueEncoding, HostileLengthFieldsRejected) {
  std::size_t pos = 0;
  EXPECT_THROW(decode_value("T -5 x\n", pos), perfdmf::ParseError);
  pos = 0;
  EXPECT_THROW(decode_value("T 99999999999999999999 x\n", pos), perfdmf::ParseError);
  pos = 0;
  EXPECT_THROW(decode_value("T 4\n", pos), perfdmf::ParseError);  // missing bytes
}

TEST(Wal, AdversarialSqlAndParamsRoundTripThroughLog) {
  u::ScopedTempDir dir;
  const auto path = dir.path() / "wal.log";
  const std::string sql = "INSERT INTO t (a, b) VALUES (?, ?)\n-- E\n-- S 3";
  const Params params = {Value(std::string("x\nE\nR 1 00000000 5\ny", 20)),
                         Value(0.12345678901234567)};
  {
    Wal wal(path);
    wal.append({{sql, params}}, "wal.append");
    wal.append({{"SELECT 1", {}}}, "wal.append");
  }
  Wal wal(path);
  std::vector<std::pair<std::string, Params>> seen;
  auto info = wal.replay([&](const std::string& s, const Params& p) {
    seen.emplace_back(s, p);
  });
  EXPECT_FALSE(info.corrupt);
  EXPECT_FALSE(info.tail_torn);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].first, sql);
  ASSERT_EQ(seen[0].second.size(), 2u);
  EXPECT_EQ(seen[0].second[0], params[0]);
  EXPECT_EQ(seen[0].second[1], params[1]);
}

// Fuzz property: no matter where a WAL is truncated or which byte is
// flipped, replay never throws and the applied records are a strict
// prefix of the original statement stream.
TEST(Wal, RandomDamageNeverCrashesReplayAndAppliesAPrefix) {
  u::ScopedTempDir dir;
  const auto path = dir.path() / "wal.log";
  std::vector<std::string> original;
  {
    Wal wal(path);
    for (int i = 0; i < 10; ++i) {
      std::string sql = "INSERT INTO t VALUES (" + std::to_string(i) + ")";
      wal.append({{sql, {Value(std::string("p\n") + std::to_string(i)),
                         Value(static_cast<std::int64_t>(i))}}},
                 "wal.append");
      original.push_back(std::move(sql));
    }
  }
  const std::string pristine = u::read_file(path);
  ASSERT_FALSE(pristine.empty());

  u::Rng rng(20260807);
  const auto damaged_path = dir.path() / "damaged.log";
  for (int iter = 0; iter < 300; ++iter) {
    std::string content = pristine;
    switch (rng.next_below(3)) {
      case 0:  // truncate at a random byte
        content.resize(rng.next_below(content.size() + 1));
        break;
      case 1:  // flip a random byte
        content[rng.next_below(content.size())] ^=
            static_cast<char>(1 + rng.next_below(255));
        break;
      default:  // splice garbage into the middle
        content.insert(rng.next_below(content.size()),
                       std::string(1 + rng.next_below(8), 'Z'));
        break;
    }
    u::write_file(damaged_path, content);

    Wal wal(damaged_path);
    std::vector<std::string> seen;
    Wal::ReplayInfo info;
    ASSERT_NO_THROW(info = wal.replay([&](const std::string& sql, const Params&) {
      seen.push_back(sql);
    })) << "iteration " << iter;
    ASSERT_LE(seen.size(), original.size()) << "iteration " << iter;
    for (std::size_t i = 0; i < seen.size(); ++i) {
      ASSERT_EQ(seen[i], original[i])
          << "iteration " << iter << ": applied records are not a prefix";
    }
    if (seen.size() < original.size() && !info.tail_torn && !info.corrupt) {
      // The only loss that can go unreported is truncation exactly at a
      // record boundary — indistinguishable from a shorter, complete log.
      // Anything else (byte flips, spliced garbage, mid-record cuts)
      // must surface as a torn tail or corruption.
      EXPECT_EQ(pristine.compare(0, content.size(), content), 0)
          << "iteration " << iter << ": records lost silently";
    }
  }
}

// ---------------------------------------------------------------------------
// Open-time replay failures must be observable, not just logged.

TEST(Persistence, ReplayFailuresAreCountedInRecoveryReport) {
  u::ScopedTempDir dir;
  const auto db_dir = dir.path() / "db";
  std::filesystem::create_directories(db_dir);
  {
    // Hand-build a WAL whose middle statement cannot execute: the table
    // it touches never existed. No snapshot, so replay starts from zero.
    Wal wal(db_dir / "wal.log");
    wal.append({{"CREATE TABLE t (id INTEGER PRIMARY KEY, x INTEGER)", {}}},
               "wal.append");
    wal.append({{"INSERT INTO missing (x) VALUES (1)", {}}}, "wal.append");
    wal.append({{"INSERT INTO t (x) VALUES (7)", {}}}, "wal.append");
  }
  Connection conn(db_dir);
  const auto& report = conn.recovery_report();
  EXPECT_EQ(report.failed_statements, 1u);
  EXPECT_FALSE(report.clean());
  ASSERT_FALSE(report.warnings.empty());
  // The statements around the failure still applied.
  auto rs = conn.execute("SELECT x FROM t");
  ASSERT_TRUE(rs.next());
  EXPECT_EQ(rs.get_int(1), 7);
}

TEST(Persistence, CleanOpenReportsClean) {
  u::ScopedTempDir dir;
  const auto db_dir = dir.path() / "db";
  {
    Connection conn(db_dir);
    conn.execute_update("CREATE TABLE t (id INTEGER PRIMARY KEY)");
  }
  Connection conn(db_dir);
  EXPECT_TRUE(conn.recovery_report().clean());
  EXPECT_EQ(conn.recovery_report().failed_statements, 0u);
  EXPECT_FALSE(conn.recovery_report().wal_corrupt);
}

TEST(Persistence, MidLogCorruptionSurfacesThroughDatabaseOpen) {
  u::ScopedTempDir dir;
  const auto db_dir = dir.path() / "db";
  {
    Connection conn(db_dir);
    conn.execute_update("CREATE TABLE t (id INTEGER PRIMARY KEY, x INTEGER)");
    conn.checkpoint();
    for (int i = 0; i < 4; ++i) {
      conn.execute_update("INSERT INTO t (x) VALUES (" + std::to_string(i) + ")");
    }
    // Keep the WAL: make the destructor's checkpoint fail before truncation.
    u::failpoint::enable("snapshot.write", u::FailAction::kError);
  }
  u::failpoint::clear_all();
  // Corrupt the second INSERT record.
  const auto wal_path = db_dir / "wal.log";
  std::string content = u::read_file(wal_path);
  const std::size_t second = content.find("\nR ", 1) + 1;
  const std::size_t third = content.find("\nR ", second) + 1;
  content[second + (third - second) / 2] ^= 0x01;
  u::write_file(wal_path, content);

  Connection conn(db_dir);
  const auto& report = conn.recovery_report();
  EXPECT_TRUE(report.wal_corrupt);
  EXPECT_EQ(report.wal_corruption_offset, second);
  EXPECT_EQ(report.discarded_records, 2u);
  EXPECT_FALSE(report.clean());
  auto rs = conn.execute("SELECT COUNT(*) FROM t");
  rs.next();
  EXPECT_EQ(rs.get_int(1), 1);  // only the record before the damage
}

TEST(Persistence, IndexesRebuiltAfterReload) {
  u::ScopedTempDir dir;
  const auto db_dir = dir.path() / "db";
  {
    Connection conn(db_dir);
    conn.execute_update(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER, v REAL)");
    conn.execute_update("CREATE INDEX idx_k ON t (k)");
    auto stmt = conn.prepare("INSERT INTO t (k, v) VALUES (?, ?)");
    conn.begin();
    for (int i = 0; i < 500; ++i) {
      stmt.set_int(1, i % 10);
      stmt.set_double(2, i);
      stmt.execute_update();
    }
    conn.commit();
  }
  {
    Connection conn(db_dir);
    // Index-served query must return the same multiset as a full check.
    auto rs = conn.execute("SELECT COUNT(*) FROM t WHERE k = 3");
    rs.next();
    EXPECT_EQ(rs.get_int(1), 50);
    // Uniqueness of the PK is still enforced after recovery.
    EXPECT_THROW(conn.execute_update("INSERT INTO t (id, k, v) VALUES (1, 0, 0)"),
                 perfdmf::DbError);
  }
}

TEST(Persistence, IndexesSurviveReopenViaSnapshotAndWal) {
  u::ScopedTempDir dir;
  const auto db_dir = dir.path() / "db";
  {
    Connection conn(db_dir);
    conn.execute_update(
        "CREATE TABLE files (id INTEGER PRIMARY KEY, code INTEGER,"
        " tag INTEGER, grp INTEGER)");
    conn.execute_update(
        "INSERT INTO files (code, tag, grp) VALUES (1, 10, 0), (2, 20, 0)");
    conn.execute_update("CREATE UNIQUE INDEX files_code ON files (code)");
    conn.execute_update("CREATE INDEX files_grp ON files (grp)");
    conn.checkpoint();  // both indexes now live in the snapshot
    conn.execute_update(
        "CREATE UNIQUE INDEX files_tag ON files (tag)");  // in the WAL
  }
  auto plan = [](Connection& conn, const std::string& where) {
    auto rs = conn.execute("EXPLAIN SELECT id FROM files WHERE " + where);
    std::string out;
    while (rs.next()) out += rs.get_string(1) + "\n";
    return out;
  };
  // The second reopen loads the WAL's index from the snapshot the first
  // session's close wrote.
  for (int reopen = 0; reopen < 2; ++reopen) {
    Connection conn(db_dir);
    EXPECT_THROW(conn.execute_update(
                     "INSERT INTO files (code, tag, grp) VALUES (1, 30, 0)"),
                 perfdmf::DbError);
    EXPECT_THROW(conn.execute_update(
                     "INSERT INTO files (code, tag, grp) VALUES (3, 20, 0)"),
                 perfdmf::DbError);
    EXPECT_NE(plan(conn, "code = 1").find("unique-index-eq(code)"),
              std::string::npos);
    EXPECT_NE(plan(conn, "tag = 10").find("unique-index-eq(tag)"),
              std::string::npos);
    EXPECT_NE(plan(conn, "grp = 0").find("index-eq(grp)"), std::string::npos);
    auto rs = conn.execute("SELECT COUNT(*) FROM files");
    rs.next();
    EXPECT_EQ(rs.get_int(1), 2);
  }
}

TEST(Persistence, ViewsSurviveReopenViaSnapshotAndWal) {
  u::ScopedTempDir dir;
  const auto db_dir = dir.path() / "db";
  {
    Connection conn(db_dir);
    conn.execute_update("CREATE TABLE t (id INTEGER PRIMARY KEY, x INTEGER)");
    conn.execute_update("INSERT INTO t (x) VALUES (1), (2), (3)");
    conn.execute_update("CREATE VIEW big AS SELECT x FROM t WHERE x >= 2");
    conn.checkpoint();  // view now lives in the snapshot
    conn.execute_update(
        "CREATE VIEW small AS SELECT x FROM t WHERE x < 2");  // in the WAL
  }
  {
    Connection conn(db_dir);
    auto rs = conn.execute("SELECT COUNT(*) FROM big");
    rs.next();
    EXPECT_EQ(rs.get_int(1), 2);
    auto rs2 = conn.execute("SELECT COUNT(*) FROM small");
    rs2.next();
    EXPECT_EQ(rs2.get_int(1), 1);
    EXPECT_EQ(conn.get_meta_data().get_views().size(), 2u);
  }
}

// ---------------------------------------------------------------------------
// Format pin: a fixed catalog and the exact bytes it is written as. Files
// written before must open to the same rows, and the same catalog must
// still be written byte for byte.

namespace {

// Builds the pinned catalog: every value type (17-digit reals, negative and
// extreme ints, text with spaces and newlines, NULL), a NULL default and a
// negative default, an FK, a unique index, a view, single-statement records
// and one commit batch.
void build_pin_catalog(Connection& conn) {
  conn.execute_update(
      "CREATE TABLE app (id INTEGER PRIMARY KEY AUTOINCREMENT,"
      " name TEXT NOT NULL, note TEXT DEFAULT NULL, weight REAL DEFAULT 0.25)");
  conn.execute_update(
      "CREATE TABLE trial (id INTEGER PRIMARY KEY AUTOINCREMENT,"
      " app INTEGER NOT NULL, tag TEXT, seconds REAL, delta INTEGER DEFAULT -7,"
      " FOREIGN KEY (app) REFERENCES app (id))");
  conn.execute_update("CREATE UNIQUE INDEX trial_tag ON trial (tag)");
  conn.execute_update(
      "CREATE VIEW slow AS SELECT tag, seconds FROM trial WHERE seconds > 1");
  conn.execute_update("INSERT INTO app (name, note, weight) VALUES (?, ?, ?)",
                      {Value("first app"), Value("two\nlines"),
                       Value(0.12345678901234567)});
  conn.execute_update("INSERT INTO app (name) VALUES ('second')");
  conn.execute_update("INSERT INTO app (name) VALUES ('gone')");
  conn.begin();
  conn.execute_update(
      "INSERT INTO trial (app, tag, seconds, delta) VALUES (?, ?, ?, ?)",
      {Value(std::int64_t{1}), Value("a b"), Value(2.2250738585072014e-308),
       Value(std::numeric_limits<std::int64_t>::min())});
  conn.execute_update(
      "INSERT INTO trial (app, tag, seconds) VALUES (2, NULL, 1e308)");
  conn.execute_update(
      "INSERT INTO trial (app, tag, seconds, delta) VALUES (?, ?, ?, ?)",
      {Value(std::int64_t{2}), Value(""), Value(-0.0),
       Value(std::int64_t{-42})});
  conn.commit();
  conn.execute_update("UPDATE trial SET seconds = ? WHERE tag = ''",
                      {Value(3.141592653589793)});
  conn.execute_update("DELETE FROM app WHERE name = 'gone'");
}

const char kPinWal[] =
    "R 1 6eff001b 138\n"
    "S 125\n"
    "CREATE TABLE app (id INTEGER PRIMARY KEY AUTOINCREMENT, name TEXT NOT NULL, note TEXT DEFAULT NULL, weight REAL DEFAULT 0.25)\n"
    "P 0\n"
    "E\n"
    "R 2 ab0f1b6d 181\n"
    "S 168\n"
    "CREATE TABLE trial (id INTEGER PRIMARY KEY AUTOINCREMENT, app INTEGER NOT NULL, tag TEXT, seconds REAL, delta INTEGER DEFAULT -7, FOREIGN KEY (app) REFERENCES app (id))\n"
    "P 0\n"
    "E\n"
    "R 3 4f2a8efb 56\n"
    "S 44\n"
    "CREATE UNIQUE INDEX trial_tag ON trial (tag)\n"
    "P 0\n"
    "E\n"
    "R 4 f25c3798 80\n"
    "S 68\n"
    "CREATE VIEW slow AS SELECT tag, seconds FROM trial WHERE seconds > 1\n"
    "P 0\n"
    "E\n"
    "R 5 ffd238a1 115\n"
    "S 53\n"
    "INSERT INTO app (name, note, weight) VALUES (?, ?, ?)\n"
    "P 3\n"
    "T 9 first app\n"
    "T 9 two\n"
    "lines\n"
    "R 0.12345678901234566\n"
    "E\n"
    "R 6 a16a737b 52\n"
    "S 40\n"
    "INSERT INTO app (name) VALUES ('second')\n"
    "P 0\n"
    "E\n"
    "R 7 148a0ad4 50\n"
    "S 38\n"
    "INSERT INTO app (name) VALUES ('gone')\n"
    "P 0\n"
    "E\n"
    "R 8 5437b2f2 306\n"
    "B 3\n"
    "S 64\n"
    "INSERT INTO trial (app, tag, seconds, delta) VALUES (?, ?, ?, ?)\n"
    "P 4\n"
    "I 1\n"
    "T 3 a b\n"
    "R 2.2250738585072014e-308\n"
    "I -9223372036854775808\n"
    "S 61\n"
    "INSERT INTO trial (app, tag, seconds) VALUES (2, NULL, 1e308)\n"
    "P 0\n"
    "S 64\n"
    "INSERT INTO trial (app, tag, seconds, delta) VALUES (?, ?, ?, ?)\n"
    "P 4\n"
    "I 2\n"
    "T 0 \n"
    "R -0\n"
    "I -42\n"
    "E\n"
    "R 9 ee2fa1db 76\n"
    "S 43\n"
    "UPDATE trial SET seconds = ? WHERE tag = ''\n"
    "P 1\n"
    "R 3.1415926535897931\n"
    "E\n"
    "R 10 902e2cac 47\n"
    "S 35\n"
    "DELETE FROM app WHERE name = 'gone'\n"
    "P 0\n"
    "E\n";
const char kPinSnapshot[] =
    "PERFDB SNAPSHOT 2\n"
    "WALSEQ 10\n"
    "VIEW slow 48\n"
    "SELECT tag, seconds FROM trial WHERE seconds > 1\n"
    "TABLE app\n"
    "AUTO 4\n"
    "COLS 4\n"
    "COL id INTEGER 1 1 1\n"
    "N\n"
    "COL name TEXT 1 0 0\n"
    "N\n"
    "COL note TEXT 0 0 0\n"
    "N\n"
    "COL weight REAL 0 0 0\n"
    "R 0.25\n"
    "FKS 0\n"
    "ROWS 2\n"
    "I 1\n"
    "T 9 first app\n"
    "T 9 two\n"
    "lines\n"
    "R 0.12345678901234566\n"
    "I 2\n"
    "T 6 second\n"
    "N\n"
    "R 0.25\n"
    "TABLE trial\n"
    "AUTO 4\n"
    "COLS 5\n"
    "COL id INTEGER 1 1 1\n"
    "N\n"
    "COL app INTEGER 1 0 0\n"
    "N\n"
    "COL tag TEXT 0 0 0\n"
    "N\n"
    "COL seconds REAL 0 0 0\n"
    "N\n"
    "COL delta INTEGER 0 0 0\n"
    "I -7\n"
    "FKS 1\n"
    "FK app app id\n"
    "ROWS 3\n"
    "I 1\n"
    "I 1\n"
    "T 3 a b\n"
    "R 2.2250738585072014e-308\n"
    "I -9223372036854775808\n"
    "I 2\n"
    "I 2\n"
    "N\n"
    "R 1e+308\n"
    "I -7\n"
    "I 3\n"
    "I 2\n"
    "T 0 \n"
    "R 3.1415926535897931\n"
    "I -42\n"
    "INDEX app id 1\n"
    "INDEX trial id 1\n"
    "INDEX trial app 0\n"
    "INDEX trial tag 1\n"
    "SUM fe4edfed\n";

// The same catalog as version 3 writes it: every name framed as a text
// value record.
const char kPinSnapshotV3[] =
    "PERFDB SNAPSHOT 3\n"
    "WALSEQ 10\n"
    "VIEW 48\n"
    "T 4 slow\n"
    "SELECT tag, seconds FROM trial WHERE seconds > 1\n"
    "TABLE\n"
    "T 3 app\n"
    "AUTO 4\n"
    "COLS 4\n"
    "COL INTEGER 1 1 1\n"
    "T 2 id\n"
    "N\n"
    "COL TEXT 1 0 0\n"
    "T 4 name\n"
    "N\n"
    "COL TEXT 0 0 0\n"
    "T 4 note\n"
    "N\n"
    "COL REAL 0 0 0\n"
    "T 6 weight\n"
    "R 0.25\n"
    "FKS 0\n"
    "ROWS 2\n"
    "I 1\n"
    "T 9 first app\n"
    "T 9 two\n"
    "lines\n"
    "R 0.12345678901234566\n"
    "I 2\n"
    "T 6 second\n"
    "N\n"
    "R 0.25\n"
    "TABLE\n"
    "T 5 trial\n"
    "AUTO 4\n"
    "COLS 5\n"
    "COL INTEGER 1 1 1\n"
    "T 2 id\n"
    "N\n"
    "COL INTEGER 1 0 0\n"
    "T 3 app\n"
    "N\n"
    "COL TEXT 0 0 0\n"
    "T 3 tag\n"
    "N\n"
    "COL REAL 0 0 0\n"
    "T 7 seconds\n"
    "N\n"
    "COL INTEGER 0 0 0\n"
    "T 5 delta\n"
    "I -7\n"
    "FKS 1\n"
    "FK\n"
    "T 3 app\n"
    "T 3 app\n"
    "T 2 id\n"
    "ROWS 3\n"
    "I 1\n"
    "I 1\n"
    "T 3 a b\n"
    "R 2.2250738585072014e-308\n"
    "I -9223372036854775808\n"
    "I 2\n"
    "I 2\n"
    "N\n"
    "R 1e+308\n"
    "I -7\n"
    "I 3\n"
    "I 2\n"
    "T 0 \n"
    "R 3.1415926535897931\n"
    "I -42\n"
    "INDEX 1\n"
    "T 3 app\n"
    "T 2 id\n"
    "INDEX 1\n"
    "T 5 trial\n"
    "T 2 id\n"
    "INDEX 0\n"
    "T 5 trial\n"
    "T 3 app\n"
    "INDEX 1\n"
    "T 5 trial\n"
    "T 3 tag\n"
    "SUM 51647ab7\n";

/// Every row of `sql`, one line per row, each value as TYPE=text with
/// reals to all 17 significant digits.
std::string dump_rows(Connection& conn, const std::string& sql) {
  auto rs = conn.execute(sql);
  std::string out;
  while (rs.next()) {
    const char* sep = "";
    for (std::size_t i = 1; i <= rs.column_count(); ++i) {
      const Value v = rs.get(i);
      out += sep;
      out += value_type_name(v.type());
      out += '=';
      if (v.type() == ValueType::kReal) {
        char digits[32];
        std::snprintf(digits, sizeof digits, "%.17g", v.as_real());
        out += digits;
      } else if (!v.is_null()) {
        out += v.to_string();
      }
      sep = "|";
    }
    out += '\n';
  }
  return out;
}

void expect_pin_rows(Connection& conn) {
  EXPECT_EQ(dump_rows(conn, "SELECT * FROM app ORDER BY id"),
            "INTEGER=1|TEXT=first app|TEXT=two\nlines|REAL=0.12345678901234566\n"
            "INTEGER=2|TEXT=second|NULL=|REAL=0.25\n");
  EXPECT_EQ(dump_rows(conn, "SELECT * FROM trial ORDER BY id"),
            "INTEGER=1|INTEGER=1|TEXT=a b|REAL=2.2250738585072014e-308|"
            "INTEGER=-9223372036854775808\n"
            "INTEGER=2|INTEGER=2|NULL=|REAL=1e+308|INTEGER=-7\n"
            "INTEGER=3|INTEGER=2|TEXT=|REAL=3.1415926535897931|INTEGER=-42\n");
  EXPECT_EQ(dump_rows(conn, "SELECT * FROM slow ORDER BY seconds"),
            "TEXT=|REAL=3.1415926535897931\nNULL=|REAL=1e+308\n");
  // The schema came back too: the auto-increment high-water marks, both
  // defaults, the unique index, the FK and NOT NULL.
  conn.execute_update("INSERT INTO app (name) VALUES ('next')");
  conn.execute_update("INSERT INTO trial (app) VALUES (4)");
  EXPECT_EQ(dump_rows(conn,
                      "SELECT a.id, a.note, a.weight, t.id, t.delta FROM app a"
                      " JOIN trial t ON t.app = a.id WHERE a.name = 'next'"),
            "INTEGER=4|NULL=|REAL=0.25|INTEGER=4|INTEGER=-7\n");
  EXPECT_THROW(
      conn.execute_update("INSERT INTO trial (app, tag) VALUES (1, 'a b')"),
      perfdmf::DbError);
  EXPECT_THROW(conn.execute_update("INSERT INTO trial (app) VALUES (9)"),
               perfdmf::DbError);
  EXPECT_THROW(conn.execute_update("INSERT INTO app (note) VALUES ('x')"),
               perfdmf::DbError);
}

}  // namespace

TEST(FormatPin, EarlierSnapshotAndWalBytesOpenToTheSameRows) {
  // Version 1 is version 2 without the watermark and the checksum.
  std::string v1 = kPinSnapshot;
  v1.replace(0, std::strlen("PERFDB SNAPSHOT 2\nWALSEQ 10\n"), "PERFDB SNAPSHOT 1\n");
  v1.resize(v1.size() - std::strlen("SUM fe4edfed\n"));
  const std::pair<const char*, std::string> files[] = {
      {"snapshot.pdb", kPinSnapshotV3},
      {"snapshot.pdb", kPinSnapshot},
      {"snapshot.pdb", v1},
      {"wal.log", kPinWal}};
  for (const auto& [name, bytes] : files) {
    SCOPED_TRACE(bytes.substr(0, bytes.find('\n')));
    u::ScopedTempDir dir;
    const auto db_dir = dir.path() / "db";
    std::filesystem::create_directories(db_dir);
    u::write_file(db_dir / name, bytes);
    Connection conn(db_dir);
    EXPECT_TRUE(conn.recovery_report().clean());
    expect_pin_rows(conn);
  }
}

TEST(FormatPin, SameCatalogWritesTheSameBytes) {
  u::ScopedTempDir dir;
  const auto db_dir = dir.path() / "db";
  Connection conn(db_dir);
  build_pin_catalog(conn);
  EXPECT_EQ(u::read_file(db_dir / "wal.log"), kPinWal);
  conn.checkpoint();
  EXPECT_EQ(u::read_file(db_dir / "snapshot.pdb"), kPinSnapshotV3);
}

// Names are framed like text values, so any identifier the engine
// accepts (a space, a newline, a quote) survives both the WAL and a
// snapshot.
TEST(Persistence, QuotedNamesWithSpacesSurviveSnapshotAndWal) {
  u::ScopedTempDir dir;
  const auto db_dir = dir.path() / "db";
  const auto build = [](Connection& conn) {
    conn.execute_update("CREATE TABLE \"my t\" (id INTEGER PRIMARY KEY, x INTEGER)");
    conn.execute_update(
        "CREATE TABLE \"child\nrow\" (id INTEGER PRIMARY KEY, \"parent id\" INTEGER,"
        " \"say 'hi'\" TEXT, FOREIGN KEY (\"parent id\") REFERENCES \"my t\" (id))");
    conn.execute_update("CREATE UNIQUE INDEX \"x idx\" ON \"my t\" (x)");
    conn.execute_update("CREATE VIEW \"big x\" AS SELECT x FROM \"my t\" WHERE x > 1");
    conn.execute_update("INSERT INTO \"my t\" (x) VALUES (1), (2)");
    conn.execute_update(
        "INSERT INTO \"child\nrow\" (\"parent id\", \"say 'hi'\") VALUES (2, 'yo')");
  };
  const auto expect_catalog = [](Connection& conn) {
    EXPECT_TRUE(conn.recovery_report().clean());
    auto rs = conn.execute(
        "SELECT t.x, c.\"say 'hi'\" FROM \"my t\" t"
        " JOIN \"child\nrow\" c ON c.\"parent id\" = t.id");
    ASSERT_TRUE(rs.next());
    EXPECT_EQ(rs.get_int(1), 2);
    EXPECT_EQ(rs.get_string(2), "yo");
    auto view = conn.execute("SELECT COUNT(*) FROM \"big x\"");
    view.next();
    EXPECT_EQ(view.get_int(1), 1);
    EXPECT_THROW(conn.execute_update("INSERT INTO \"my t\" (x) VALUES (1)"),
                 perfdmf::DbError);
    EXPECT_THROW(
        conn.execute_update("INSERT INTO \"child\nrow\" (\"parent id\") VALUES (9)"),
        perfdmf::DbError);
  };
  {
    Connection conn(db_dir);
    build(conn);
    // Leave the catalog in the WAL only: the next open replays it.
    u::failpoint::enable("snapshot.write", u::FailAction::kError);
  }
  u::failpoint::clear_all();
  {
    Connection conn(db_dir);
    EXPECT_GT(conn.recovery_report().replayed_records, 0u);
    expect_catalog(conn);
  }
  Connection conn(db_dir);  // from the snapshot the last close wrote
  EXPECT_EQ(conn.recovery_report().replayed_records, 0u);
  expect_catalog(conn);
}

// Close costs what changed: a session that only read rewrites nothing,
// and every session that changed something, on disk or in recovery,
// still checkpoints.
TEST(Persistence, ReadOnlySessionCloseRewritesNothing) {
  u::ScopedTempDir dir;
  const auto db_dir = dir.path() / "db";
  const auto snapshot = db_dir / "snapshot.pdb";
  const auto prev = db_dir / "snapshot.pdb.prev";
  const auto count_rows = [&] {
    Connection conn(db_dir);
    auto rs = conn.execute("SELECT COUNT(*) FROM t");
    rs.next();
    return rs.get_int(1);
  };
  {
    Connection conn(db_dir);
    conn.execute_update("CREATE TABLE t (id INTEGER PRIMARY KEY, x INTEGER)");
  }
  {
    Connection conn(db_dir);
    conn.execute_update("INSERT INTO t (x) VALUES (1)");
  }
  const std::string snapshot_bytes = u::read_file(snapshot);
  const std::string prev_bytes = u::read_file(prev);
  auto& checkpoints =
      perfdmf::telemetry::MetricsRegistry::instance().counter("sqldb.checkpoints");
  const std::uint64_t before = checkpoints.value();
  EXPECT_EQ(count_rows(), 1);
  EXPECT_EQ(checkpoints.value(), before);
  EXPECT_EQ(u::read_file(snapshot), snapshot_bytes);
  EXPECT_EQ(u::read_file(prev), prev_bytes);

  // A one-row writer still checkpoints.
  {
    Connection conn(db_dir);
    conn.execute_update("INSERT INTO t (x) VALUES (2)");
  }
  EXPECT_NE(u::read_file(snapshot), snapshot_bytes);
  EXPECT_EQ(u::read_file(prev), snapshot_bytes);

  // An open that replayed the WAL checkpoints even if it only reads.
  {
    Connection conn(db_dir);
    conn.execute_update("INSERT INTO t (x) VALUES (3)");
    u::failpoint::enable("snapshot.write", u::FailAction::kError);
  }
  u::failpoint::clear_all();
  const std::string before_replay = u::read_file(snapshot);
  EXPECT_EQ(count_rows(), 3);
  EXPECT_NE(u::read_file(snapshot), before_replay);
  EXPECT_EQ(u::read_file(db_dir / "wal.log"), "");

  // So does one that fell back to snapshot.pdb.prev.
  u::write_file(snapshot, "damaged");
  EXPECT_EQ(count_rows(), 2);
  EXPECT_EQ(u::read_file(snapshot).rfind("PERFDB SNAPSHOT 3\n", 0), 0u);
}

TEST(Persistence, DroppingTheLastColumnIsRefused) {
  Connection conn;
  conn.execute_update("CREATE TABLE z (a INTEGER)");
  conn.execute_update("INSERT INTO z (a) VALUES (1)");
  EXPECT_THROW(conn.execute_update("ALTER TABLE z DROP COLUMN a"), perfdmf::DbError);
  conn.execute_update("ALTER TABLE z ADD COLUMN b TEXT");
  conn.execute_update("ALTER TABLE z DROP COLUMN a");
  auto rs = conn.execute("SELECT COUNT(*) FROM z");
  rs.next();
  EXPECT_EQ(rs.get_int(1), 1);
}

// ---------------------------------------------------------------------------
// A snapshot whose checksum holds but whose body is damaged or does not
// describe a valid catalog.

namespace {

/// `body` sealed with a valid "SUM <crc32>" trailer, so a loader sees the
/// body's damage rather than a checksum failure.
std::string reseal(const std::string& body) {
  char sum[16];
  std::snprintf(sum, sizeof sum, "SUM %08x\n", u::crc32(body));
  return body + sum;
}

std::string snapshot_body(const std::string& snapshot) {
  return snapshot.substr(0, snapshot.size() - std::strlen("SUM 00000000\n"));
}

/// "ok", "parse error", or the message of any other exception the open
/// threw.
std::string open_outcome(const std::filesystem::path& db_dir) {
  try {
    Connection conn(db_dir);
    return "ok";
  } catch (const perfdmf::ParseError&) {
    return "parse error";
  } catch (const std::exception& e) {
    return e.what();
  }
}

}  // namespace

TEST(Persistence, InvalidSnapshotBodyFallsBackToPrevious) {
  u::ScopedTempDir dir;
  const auto db_dir = dir.path() / "db";
  {
    Connection conn(db_dir);
    conn.execute_update(
        "CREATE TABLE p (id INTEGER PRIMARY KEY, name TEXT NOT NULL, n INTEGER)");
    conn.execute_update(
        "CREATE TABLE c (id INTEGER PRIMARY KEY, pid INTEGER,"
        " FOREIGN KEY (pid) REFERENCES p (id))");
    conn.execute_update("CREATE UNIQUE INDEX p_n ON p (n)");
    conn.execute_update("INSERT INTO p (name, n) VALUES ('a', 10), ('b', 20)");
  }
  const std::string good = u::read_file(db_dir / "snapshot.pdb");
  const std::pair<std::string, std::string> edits[] = {
      {"\nT 1 n\n", "\nT 4 name\n"},        // duplicate column
      {"FK\nT 3 pid\n", "FK\nT 4 nope\n"},   // FK on an unknown column
      {"\nT 1 a\n", "\nN\n"},                 // NULL in a NOT NULL column
      {"\nI 10\n", "\nT 1 x\n"},              // text in an INTEGER column
      {"\nI 2\nT 1 b", "\nI 1\nT 1 b"},       // repeated primary key
      {"\nI 20\n", "\nI 10\n"},               // repeated unique-index key
      {"TABLE\nT 1 c\n", "TABLE\nT 1 p\n"}, // repeated table
  };
  for (const auto& [from, to] : edits) {
    SCOPED_TRACE(to);
    std::string body = snapshot_body(good);
    const std::size_t at = body.find(from);
    ASSERT_NE(at, std::string::npos);
    body.replace(at, from.size(), to);
    u::write_file(db_dir / "snapshot.pdb", reseal(body));
    u::write_file(db_dir / "snapshot.pdb.prev", good);
    try {
      Connection conn(db_dir);
      EXPECT_TRUE(conn.recovery_report().used_previous_snapshot);
      EXPECT_EQ(conn.recovery_report().snapshot_error.rfind("parse error", 0), 0u);
      auto rs = conn.execute("SELECT COUNT(*) FROM p");
      rs.next();
      EXPECT_EQ(rs.get_int(1), 2);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "open with an intact .prev threw: " << e.what();
    }
    std::filesystem::remove(db_dir / "snapshot.pdb.prev");
    u::write_file(db_dir / "snapshot.pdb", reseal(body));
    EXPECT_EQ(open_outcome(db_dir), "parse error");
  }
}

// Fuzz property: however a checkpointed snapshot is damaged behind a
// valid checksum, opening it yields an archive or a ParseError — never
// another exception, a crash or a hang — and with an intact .prev beside
// it the open always succeeds.
TEST(Persistence, RandomSnapshotDamageFailsCleanlyOrFallsBack) {
  u::ScopedTempDir dir;
  const auto db_dir = dir.path() / "db";
  {
    Connection conn(db_dir);
    conn.execute_update(
        "CREATE TABLE app (id INTEGER PRIMARY KEY, name TEXT NOT NULL, score REAL)");
    conn.execute_update(
        "CREATE TABLE run (id INTEGER PRIMARY KEY, app INTEGER, tag TEXT,"
        " note TEXT, FOREIGN KEY (app) REFERENCES app (id))");
    conn.execute_update("CREATE UNIQUE INDEX run_tag ON run (tag)");
    conn.execute_update(
        "CREATE VIEW named AS SELECT a.name, r.tag FROM app a"
        " JOIN run r ON r.app = a.id");
    conn.execute_update(
        "INSERT INTO app (name, score) VALUES ('one app', 0.5), ('two', 1e-300)");
    conn.execute_update("INSERT INTO run (app, tag, note) VALUES (?, ?, ?)",
                        {Value(std::int64_t{1}), Value("t 1"),
                         Value("multi\nline note")});
    conn.execute_update("INSERT INTO run (app, tag, note) VALUES (2, 't2', NULL)");
    conn.execute_update("INSERT INTO run (app, tag, note) VALUES (2, NULL, 'x')");
  }
  const std::string good = u::read_file(db_dir / "snapshot.pdb");
  const std::string pristine = snapshot_body(good);
  const std::uint64_t seed = u::seed_from_env(20261019);
  u::Rng rng(seed);
  auto install = [&](const std::string& snapshot, const std::string* prev) {
    std::filesystem::remove_all(db_dir);
    std::filesystem::create_directories(db_dir);
    u::write_file(db_dir / "snapshot.pdb", snapshot);
    if (prev != nullptr) u::write_file(db_dir / "snapshot.pdb.prev", *prev);
  };
  for (int iter = 0; iter < 300; ++iter) {
    std::string body = pristine;
    if (rng.next_below(3) == 0) {
      body.resize(rng.next_below(body.size()));
    } else {
      for (std::uint64_t flips = 1 + rng.next_below(3); flips > 0; --flips) {
        body[rng.next_below(body.size())] ^= static_cast<char>(1 + rng.next_below(255));
      }
    }
    const std::string damaged = reseal(body);
    install(damaged, nullptr);
    const std::string alone = open_outcome(db_dir);
    EXPECT_TRUE(alone == "ok" || alone == "parse error")
        << "iteration " << iter << ": " << alone
        << " (replay with PERFDMF_SEED=" << seed << ")";
    install(damaged, &good);
    EXPECT_EQ(open_outcome(db_dir), "ok")
        << "iteration " << iter << " (replay with PERFDMF_SEED=" << seed << ")";
  }
}
