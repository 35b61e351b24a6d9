#include "sqldb/codec.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdio>
#include <iterator>
#include <type_traits>

#include "sqldb/database.h"
#include "util/crc32.h"
#include "util/error.h"
#include "util/strings.h"

namespace perfdmf::sqldb {

namespace {

std::string hex8(std::uint32_t crc) {
  char digits[9];
  std::snprintf(digits, sizeof digits, "%08x", crc);
  return digits;
}

/// Appends records to a string. A line is its fields joined by single
/// spaces (integers in decimal, bools as 1/0, strings verbatim), then "\n".
class RecordWriter {
 public:
  explicit RecordWriter(std::string& out) : out_(out) {}

  template <typename... Fields>
  void line(const Fields&... fields) {
    const char* sep = "";
    ((out_ += sep, put(fields), sep = " "), ...);
    out_ += '\n';
  }

  void value(const Value& v) {
    switch (v.type()) {
      case ValueType::kNull:
        return line("N");
      case ValueType::kInt:
        return line("I", v.as_int());
      case ValueType::kReal: {
        char digits[32];
        std::snprintf(digits, sizeof digits, "%.17g", v.as_real());
        return line("R", digits);
      }
      case ValueType::kText:
        return line("T", v.as_text().size(), v.as_text());
    }
  }

 private:
  template <typename T>
  void put(const T& field) {
    if constexpr (std::is_same_v<T, bool>) {
      out_ += field ? '1' : '0';
    } else if constexpr (std::is_integral_v<T>) {
      char digits[24];
      out_.append(digits, std::to_chars(digits, std::end(digits), field).ptr);
    } else {
      out_ += std::string_view(field);
    }
  }

  std::string& out_;
};

/// The one cursor every read goes through (see the header comment).
class RecordReader {
 public:
  explicit RecordReader(std::string_view text, std::size_t pos = 0)
      : text_(text), pos_(pos) {}

  bool at_end() const { return pos_ >= text_.size(); }
  std::size_t offset() const { return pos_; }
  bool peek(std::string_view prefix) const {
    return text_.substr(pos_).starts_with(prefix);
  }

  /// The next line, without its "\n".
  std::string_view line() {
    const std::size_t nl = text_.find('\n', pos_);
    if (nl == std::string_view::npos) throw ParseError("truncated record");
    const std::string_view out = text_.substr(pos_, nl - pos_);
    pos_ = nl + 1;
    return out;
  }

  /// A "<keyword> <rest>" line; returns rest.
  std::string_view keyed(std::string_view keyword) {
    const std::string_view l = line();
    if (!l.starts_with(keyword) || l.substr(keyword.size(), 1) != " ") {
      throw ParseError("expected " + std::string(keyword) + " line");
    }
    return l.substr(keyword.size() + 1);
  }

  /// A "<keyword> <n>" line; returns n, bounded as length() bounds it.
  std::size_t count(std::string_view keyword) {
    return length(keyed(keyword), keyword);
  }

  /// A line of exactly N whitespace-separated fields, the first of which
  /// is `keyword`.
  template <std::size_t N>
  std::array<std::string_view, N> fields(std::string_view keyword) {
    constexpr std::string_view kSpace = " \t\n\r\f\v";
    std::string_view rest = line();
    std::array<std::string_view, N> out;
    for (auto& field : out) {
      rest.remove_prefix(std::min(rest.size(), rest.find_first_not_of(kSpace)));
      field = rest.substr(0, rest.find_first_of(kSpace));
      rest.remove_prefix(field.size());
    }
    if (out[0] != keyword || out[N - 1].empty() ||
        rest.find_first_not_of(kSpace) != std::string_view::npos) {
      throw ParseError("bad " + std::string(keyword) + " line");
    }
    return out;
  }

  /// `digits` as a number no larger than the bytes left.
  std::size_t length(std::string_view digits, std::string_view what) const {
    const std::int64_t n = util::parse_int_or_throw(digits, what);
    if (n < 0 || static_cast<std::uint64_t>(n) > text_.size() - pos_) {
      throw ParseError("implausible " + std::string(what) + " " + std::to_string(n));
    }
    return static_cast<std::size_t>(n);
  }

  /// `n` bytes, then "\n".
  std::string_view block(std::size_t n) {
    if (n >= text_.size() - pos_ || text_[pos_ + n] != '\n') {
      throw ParseError("truncated record body");
    }
    const std::string_view out = text_.substr(pos_, n);
    pos_ += n + 1;
    return out;
  }

  Value value() {
    if (at_end()) throw ParseError("truncated value record");
    auto number = [this] {
      const std::string_view l = line();
      if (l.size() < 2) throw ParseError("short value record");
      return l.substr(2);
    };
    switch (text_[pos_]) {
      case 'N':
        line();
        return Value();
      case 'I':
        return Value(util::parse_int_or_throw(number(), "int value"));
      case 'R':
        return Value(util::parse_double_or_throw(number(), "real value"));
      case 'T': {
        const std::size_t space = text_.find(' ', pos_ + 2);
        if (!peek("T ") || space == std::string_view::npos) {
          throw ParseError("malformed text value record");
        }
        const std::string_view digits = text_.substr(pos_ + 2, space - pos_ - 2);
        pos_ = space + 1;
        return Value(std::string(block(length(digits, "text length"))));
      }
    }
    throw ParseError("unknown value tag in record");
  }

 private:
  std::string_view text_;
  std::size_t pos_;
};

}  // namespace

void encode_value(std::string& out, const Value& v) { RecordWriter(out).value(v); }

Value decode_value(std::string_view text, std::size_t& pos) {
  RecordReader in(text, pos);
  Value v = in.value();
  pos = in.offset();
  return v;
}

// ------------------------------------------------------------------ WAL

std::string encode_wal_record(std::uint64_t seq,
                              const std::vector<LoggedStatement>& statements) {
  std::string payload;
  RecordWriter w(payload);
  if (statements.size() > 1) w.line("B", statements.size());
  for (const auto& [sql, params] : statements) {
    w.line("S", sql.size());
    w.line(sql);
    w.line("P", params.size());
    for (const auto& p : params) w.value(p);
  }
  w.line("E");
  std::string record;
  RecordWriter(record).line("R", seq, hex8(util::crc32(payload)), payload.size());
  record += payload;
  return record;
}

std::optional<WalRecord> read_wal_record(std::string_view log, std::size_t pos) {
  if (log.find('\n', pos) == std::string_view::npos) return std::nullopt;
  RecordReader in(log, pos);
  const auto f = in.fields<4>("R");
  const std::int64_t seq = util::parse_int_or_throw(f[1], "wal seq");
  const std::int64_t len = util::parse_int_or_throw(f[3], "wal length");
  if (seq <= 0 || len < 0) throw ParseError("implausible record header fields");
  std::uint32_t crc = 0;
  const char* const crc_end = f[2].data() + f[2].size();
  const auto [end, ec] = std::from_chars(f[2].data(), crc_end, crc, 16);
  if (f[2].size() > 8 || ec != std::errc{} || end != crc_end) {
    throw ParseError("malformed record checksum");
  }
  // A length past the end is not damage: a crash that tore the payload
  // off leaves exactly this shape.
  const std::size_t start = in.offset();
  if (static_cast<std::uint64_t>(len) > log.size() - start) return std::nullopt;
  const WalRecord record{static_cast<std::uint64_t>(seq),
                         log.substr(start, static_cast<std::size_t>(len)),
                         start + static_cast<std::size_t>(len)};
  if (util::crc32(record.payload) != crc) {
    throw ParseError("CRC mismatch on record seq " + std::to_string(record.seq));
  }
  return record;
}

void decode_wal_payload(std::string_view payload,
                        std::vector<LoggedStatement>& statements) {
  statements.clear();
  RecordReader in(payload);
  const std::size_t frames = in.peek("B") ? in.count("B") : 1;
  if (frames == 0) throw ParseError("empty batch record");
  for (std::size_t i = 0; i < frames; ++i) {
    std::string sql(in.block(in.count("S")));
    Params params(in.count("P"));
    for (auto& p : params) p = in.value();
    statements.emplace_back(std::move(sql), std::move(params));
  }
  if (in.line() != "E" || !in.at_end()) throw ParseError("bad record tail");
}

// ------------------------------------------------------------- snapshot

std::string encode_snapshot(const Database& db, std::uint64_t watermark) {
  std::string out;
  RecordWriter w(out);
  w.line("PERFDB SNAPSHOT 2");
  w.line("WALSEQ", watermark);
  for (const auto& name : db.view_names()) {
    const std::string& sql = db.view_sql(name);
    w.line("VIEW", name, sql.size());
    w.line(sql);
  }
  const std::vector<std::string> tables = db.table_names();
  for (const auto& name : tables) {
    const Table& t = db.table(name);
    const TableSchema& schema = t.schema();
    w.line("TABLE", schema.name());
    w.line("AUTO", t.next_auto_increment());
    w.line("COLS", schema.columns().size());
    for (const auto& c : schema.columns()) {
      w.line("COL", c.name, value_type_name(c.type), c.not_null, c.primary_key,
             c.auto_increment);
      w.value(c.default_value);
    }
    w.line("FKS", schema.foreign_keys().size());
    for (const auto& fk : schema.foreign_keys()) {
      w.line("FK", fk.column, fk.parent_table, fk.parent_column);
    }
    w.line("ROWS", t.live_row_count());
    t.scan(ReadView::latest(), [&](RowId, const Row& row) {
      for (const auto& value : row) w.value(value);
    });
  }
  // Indexes follow every table, so the loader builds each once over rows
  // in place. Table's own PK/FK indexes are listed too (re-creating is a
  // no-op).
  for (const auto& name : tables) {
    const Table& t = db.table(name);
    const auto& columns = t.schema().columns();
    for (std::size_t c = 0; c < columns.size(); ++c) {
      if (t.has_index(c)) w.line("INDEX", name, columns[c].name, t.has_unique_index(c));
    }
  }
  w.line("SUM", hex8(util::crc32(out)));
  return out;
}

namespace {

std::unique_ptr<Table> decode_table(RecordReader& in, std::string_view name) {
  if (name.empty()) throw ParseError("bad TABLE line");
  TableSchema schema{std::string(name)};
  const std::int64_t next_auto = util::parse_int_or_throw(in.keyed("AUTO"), "AUTO");
  for (std::size_t i = 0, n = in.count("COLS"); i < n; ++i) {
    const auto f = in.fields<6>("COL");
    ColumnDef column;
    column.name = f[1];
    column.type = f[2] == "INTEGER" ? ValueType::kInt
                  : f[2] == "REAL"  ? ValueType::kReal
                  : f[2] == "TEXT"  ? ValueType::kText
                                    : ValueType::kNull;
    column.not_null = f[3] == "1";
    column.primary_key = f[4] == "1";
    column.auto_increment = f[5] == "1";
    column.default_value = in.value();
    schema.add_column(std::move(column));
  }
  for (std::size_t i = 0, n = in.count("FKS"); i < n; ++i) {
    const auto f = in.fields<4>("FK");
    schema.add_foreign_key({std::string(f[1]), std::string(f[2]), std::string(f[3])});
  }
  auto table = std::make_unique<Table>(std::move(schema));
  const std::size_t width = table->schema().columns().size();
  // Rows of a table whose columns were all dropped take no bytes, so only
  // a wider table's row count is bounded by the bytes left.
  const std::string_view digits = in.keyed("ROWS");
  std::size_t rows = 0;
  if (width > 0) {
    rows = in.length(digits, "ROWS");
  } else if (const std::int64_t n = util::parse_int_or_throw(digits, "ROWS"); n > 0) {
    rows = static_cast<std::size_t>(n);
  }
  for (std::size_t r = 0; r < rows; ++r) {
    Row row(width);
    for (auto& value : row) value = in.value();
    table->insert(std::move(row), nullptr, ReadView::latest());
  }
  table->bump_auto_increment(next_auto);
  return table;
}

}  // namespace

SnapshotImage decode_snapshot(std::string_view file) {
  std::string_view body = file;
  if (!file.starts_with("PERFDB SNAPSHOT 1\n")) {
    // Check the trailer first, so damage anywhere in the body reads as a
    // checksum failure rather than a confusing parse error.
    constexpr std::size_t kTrailer = 13;  // "SUM " + 8 hex digits + "\n"
    if (file.size() < kTrailer) throw ParseError("snapshot missing checksum trailer");
    body.remove_suffix(kTrailer);
    if (file.substr(body.size()) != "SUM " + hex8(util::crc32(body)) + "\n") {
      throw ParseError("snapshot checksum mismatch");
    }
  }
  SnapshotImage image;
  RecordReader in(body);
  const std::string_view header = in.line();
  if (header == "PERFDB SNAPSHOT 2") {
    image.watermark = static_cast<std::uint64_t>(
        util::parse_int_or_throw(in.keyed("WALSEQ"), "WALSEQ"));
  } else if (header != "PERFDB SNAPSHOT 1") {
    throw ParseError("unrecognized snapshot header");
  }
  while (!in.at_end()) {
    if (in.peek("VIEW ")) {
      const auto f = in.fields<3>("VIEW");
      image.views.push_back({std::string(f[1]),
                             std::string(in.block(in.length(f[2], "view length")))});
    } else if (in.peek("INDEX ")) {
      const auto f = in.fields<4>("INDEX");
      image.indexes.push_back({f[3] == "1", {}, std::string(f[1]), std::string(f[2])});
    } else {
      image.tables.push_back(decode_table(in, util::trim(in.keyed("TABLE"))));
    }
  }
  return image;
}

}  // namespace perfdmf::sqldb
