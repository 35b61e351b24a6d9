// Persistence tests: WAL encoding, replay, snapshot, crash recovery.
#include <gtest/gtest.h>

#include <cstring>

#include "sqldb/connection.h"
#include "sqldb/wal.h"
#include "util/error.h"
#include "util/failpoint.h"
#include "util/file.h"
#include "util/rng.h"

using namespace perfdmf::sqldb;
namespace u = perfdmf::util;

TEST(ValueEncoding, RoundTripsEveryType) {
  for (const Value& v :
       {Value(), Value(std::int64_t{-42}), Value(3.14159),
        Value("text with\nnewline and spaces"), Value(std::string())}) {
    const std::string encoded = encode_value(v);
    std::size_t pos = 0;
    const Value decoded = decode_value(encoded, pos);
    EXPECT_EQ(decoded, v);
    EXPECT_EQ(pos, encoded.size());
  }
}

TEST(ValueEncoding, RealPrecisionPreserved) {
  const Value v(0.1234567890123456789);
  std::size_t pos = 0;
  EXPECT_DOUBLE_EQ(decode_value(encode_value(v), pos).as_real(), v.as_real());
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
    const std::string encoded = encode_value(v);
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
    const Value decoded = decode_value(encode_value(v), pos);
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
