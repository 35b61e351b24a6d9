// The on-disk codec: the one module that decides the bytes of the WAL and
// of the snapshot. Both are line-oriented text built from the same pieces:
//
//   value     "N" | "I <int>" | "R <%.17g>" | "T <len> <bytes>", then "\n"
//             (text may hold newlines: its length decides where it ends).
//   WAL       "R <seq> <crc32-hex8> <len>\n" + a payload: one statement
//             frame, or a commit batch "B <count>\n" + frames; then "E\n".
//             A frame is "S <sql-len>\n<sql>\nP <count>\n" + the values.
//   snapshot  "PERFDB SNAPSHOT 3", "WALSEQ <n>"; per view "VIEW <len>" +
//             its name + its SELECT; per table "TABLE" + its name,
//             "AUTO <n>", "COLS <n>" + per column "COL <type> <not-null>
//             <pk> <auto>" + its name + its default value, "FKS <n>" + per
//             foreign key "FK" + its column, parent and parent column
//             names, "ROWS <n>" + the values; then per index "INDEX
//             <unique>" + its table and column names; then a "SUM
//             <crc32-hex8>" line over everything above. Every name is a
//             text value record, so a name may hold any byte.
//             Version 2 (still read) puts the names on the keyword's line,
//             before the other fields ("COL <name> <type> ...", "VIEW
//             <name> <len>", "INDEX <table> <column> <unique>"), where a
//             space or a newline breaks them; version 1 is version 2
//             without WALSEQ and SUM.
//
// Reading goes through one bounds-checked cursor over a string_view:
// every count and length is checked against the bytes left before
// anything is allocated or looped over, and every malformation throws
// ParseError.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sqldb/ast.h"
#include "sqldb/expr_eval.h"
#include "sqldb/table.h"

namespace perfdmf::sqldb {

class Database;

/// Append `v` as one value record.
void encode_value(std::string& out, const Value& v);
/// Decode the value record at `pos` in `text`, advancing pos past it.
Value decode_value(std::string_view text, std::size_t& pos);

/// One statement and its bound parameters, as the WAL records it.
using LoggedStatement = std::pair<std::string, Params>;

/// The whole record, header and payload, for `statements` under `seq`.
std::string encode_wal_record(std::uint64_t seq,
                              const std::vector<LoggedStatement>& statements);

/// A whole record read from a log.
struct WalRecord {
  std::uint64_t seq = 0;
  std::string_view payload;  // points into the log
  std::size_t end = 0;       // offset just past the payload
};
/// The record at `pos`, its payload checked against its CRC. nullopt when
/// it is torn — the header has no newline or the payload runs past the
/// end, the residue of a crash mid-append; ParseError when the bytes are
/// there but wrong.
std::optional<WalRecord> read_wal_record(std::string_view log, std::size_t pos);

/// Decode a payload into `statements`; throws ParseError unless it is one
/// frame or one batch, consumed exactly.
void decode_wal_payload(std::string_view payload,
                        std::vector<LoggedStatement>& statements);

/// The catalog of `db`, read through its public accessors, as a version 3
/// snapshot whose watermark is `watermark`.
std::string encode_snapshot(const Database& db, std::uint64_t watermark);

/// What a snapshot holds, in file order; installing it is the caller's.
/// Views and indexes come back as the statements that create them.
struct SnapshotImage {
  std::uint64_t watermark = 0;
  std::vector<CreateViewStatement> views;
  std::vector<std::unique_ptr<Table>> tables;  // rows loaded
  std::vector<CreateIndexStatement> indexes;
};

/// Decode a version 1, 2 or 3 snapshot. Throws ParseError on a bad
/// checksum, header or frame, and DbError when well-framed bytes describe
/// an invalid table (a repeated column, an FK on an unknown column, a row
/// its schema or a unique index rejects). Database::load_snapshot reports
/// both as ParseError, so either falls back to snapshot.pdb.prev.
SnapshotImage decode_snapshot(std::string_view file);

}  // namespace perfdmf::sqldb
