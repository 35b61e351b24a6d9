#include "sqldb/table.h"

#include <algorithm>

#include "telemetry/metrics.h"
#include "util/error.h"

namespace perfdmf::sqldb {

namespace {

// Resolve a version's begin mark. Returns the commit timestamp, kTsAborted,
// or kTsPending (in which case `token_out` names the owning write unit).
// Committed outcomes are cached so settled versions stop touching the stamp.
std::uint64_t begin_ts_of(const RowVersion* v, std::uint64_t& token_out) {
  const std::uint64_t cached = v->begin_cache.load(std::memory_order_acquire);
  if (cached != kTsPending) return cached;
  const std::uint64_t ts = v->begin_stamp->ts.load(std::memory_order_acquire);
  if (ts == kTsPending) {
    token_out = v->begin_stamp->token;
    return kTsPending;
  }
  const_cast<RowVersion*>(v)->begin_cache.store(ts, std::memory_order_relaxed);
  return ts;
}

// Resolve a version's end mark. Returns 0 (never deleted), kTsAborted
// (delete rolled back — alive), kTsPending (delete in flight; `token_out`
// names the deleter), or the delete's commit timestamp.
std::uint64_t end_ts_of(const RowVersion* v, std::uint64_t& token_out) {
  CommitStamp* s = v->end_stamp.load(std::memory_order_acquire);
  if (!s) return v->end_cache.load(std::memory_order_acquire);
  const std::uint64_t ts = s->ts.load(std::memory_order_acquire);
  if (ts == kTsPending) {
    token_out = s->token;
    return kTsPending;
  }
  if (ts != kTsAborted) {
    const_cast<RowVersion*>(v)->end_cache.store(ts, std::memory_order_relaxed);
  }
  return ts;
}

}  // namespace

const RowVersion* Table::resolve_visible(const RowVersion* head,
                                         const ReadView& view) {
  for (const RowVersion* v = head; v; v = v->older) {
    std::uint64_t begin_token = 0;
    const std::uint64_t b = begin_ts_of(v, begin_token);
    if (b == kTsAborted) continue;
    if (b == kTsPending) {
      // A foreign pending version: skip to the committed one below it.
      if (view.token == 0 || begin_token != view.token) continue;
    } else if (b > view.ts) {
      continue;  // committed after this snapshot
    }
    std::uint64_t end_token = 0;
    const std::uint64_t e = end_ts_of(v, end_token);
    if (e == 0 || e == kTsAborted) return v;
    if (e == kTsPending) {
      // A foreign in-flight delete hasn't committed, so the row is still
      // visible; our own pending delete hides the row from ourselves.
      return (view.token != 0 && end_token == view.token) ? nullptr : v;
    }
    // Committed delete: visible only to snapshots older than the delete.
    return e > view.ts ? v : nullptr;
  }
  return nullptr;
}

Table::Table(TableSchema schema) : schema_(std::move(schema)) {
  // The primary key always gets a unique index: PerfDMF point lookups
  // (trial by id, event by id) must not scan.
  if (auto pk = schema_.primary_key_index()) {
    create_index(*pk, /*unique=*/true);
  }
}

Table::~Table() {
  for (auto& slot : slots_) {
    free_chain(slot.head.load(std::memory_order_relaxed));
  }
}

void Table::free_chain(RowVersion* head) {
  while (head) {
    RowVersion* older = head->older;
    delete head;
    head = older;
  }
}

Row Table::normalize(Row row) const {
  const auto& columns = schema_.columns();
  if (row.size() != columns.size()) {
    throw DbError("table " + schema_.name() + " expects " +
                  std::to_string(columns.size()) + " values, got " +
                  std::to_string(row.size()));
  }
  for (std::size_t i = 0; i < columns.size(); ++i) {
    row[i] = coerce_for_column(columns[i], row[i], schema_.name());
  }
  return row;
}

Row Table::prepare_insert(Row row) {
  // Auto-increment: fill a NULL primary key before validation (normalize
  // would reject the NULL), and track the high-water mark.
  if (auto pk = schema_.primary_key_index()) {
    const ColumnDef& pk_col = schema_.columns()[*pk];
    if (row.size() == schema_.columns().size() && pk_col.auto_increment &&
        row[*pk].is_null()) {
      row[*pk] = Value(next_auto_.load(std::memory_order_relaxed));
    }
  }
  row = normalize(std::move(row));
  if (auto pk = schema_.primary_key_index()) {
    if (row[*pk].is_null()) {
      throw DbError("NULL primary key in table " + schema_.name());
    }
    if (schema_.columns()[*pk].type == ValueType::kInt) {
      bump_auto_increment(row[*pk].as_int() + 1);
    }
  }
  return row;
}

void Table::check_unique_locked(const Row& row, std::optional<RowId> self,
                                const ReadView& view) const {
  for (const auto& [column, index] : indexes_) {
    if (!index.unique) continue;
    const Value& key = row[column];
    if (key.is_null()) continue;
    auto [lo, hi] = index.entries.equal_range(key);
    for (auto it = lo; it != hi; ++it) {
      if (self && it->second == *self) continue;
      if (it->second >= slots_.size()) continue;
      const RowVersion* v = resolve_visible(
          slots_[it->second].head.load(std::memory_order_relaxed), view);
      if (v && v->data[column].compare(key) == 0) {
        throw DbError("unique constraint violated on " + schema_.name() + "." +
                      schema_.columns()[column].name + " = " + key.to_string());
      }
    }
  }
}

RowId Table::allocate_slot_locked() {
  // Reuse a committed-deleted slot when one is available: the old chain is
  // kept underneath the new version so snapshots that predate the delete
  // still resolve the old row. Candidates whose delete is still in flight
  // go back on the list; candidates whose delete rolled back are dropped
  // (a later delete re-queues them).
  RowId keep[8];
  std::size_t kept = 0;
  std::optional<RowId> chosen;
  for (int tries = 0; tries < 8 && !free_slots_.empty(); ++tries) {
    const RowId id = free_slots_.back();
    free_slots_.pop_back();
    if (id >= slots_.size()) continue;  // compacted away by vacuum
    const RowVersion* head = slots_[id].head.load(std::memory_order_relaxed);
    const RowVersion* visible = resolve_visible(head, ReadView::latest());
    if (!visible) {
      chosen = id;
      break;
    }
    std::uint64_t end_token = 0;
    if (end_ts_of(visible, end_token) == kTsPending && kept < 8) {
      keep[kept++] = id;
    }
  }
  for (std::size_t i = 0; i < kept; ++i) free_slots_.push_back(keep[i]);
  if (chosen) {
    static auto& reused =
        telemetry::MetricsRegistry::instance().counter("mvcc.slots_reused");
    reused.add();
    return *chosen;
  }
  slots_.emplace_back();
  slot_high_.store(slots_.size(), std::memory_order_release);
  return slots_.size() - 1;
}

RowId Table::insert(Row row, CommitStamp* stamp, const ReadView& view) {
  row = prepare_insert(std::move(row));
  std::unique_lock lk(latch_);
  check_unique_locked(row, std::nullopt, view);
  const RowId id = allocate_slot_locked();
  RowVersion* old_head = slots_[id].head.load(std::memory_order_relaxed);
  auto* v = new RowVersion(std::move(row), stamp, old_head);
  index_add(id, v->data);
  slots_[id].head.store(v, std::memory_order_release);
  live_rows_.fetch_add(1, std::memory_order_relaxed);
  if (stamp) {
    stamp->table = this;
    ++stamp->live_delta;
  }
  static auto& installed =
      telemetry::MetricsRegistry::instance().counter("mvcc.versions_installed");
  installed.add();
  return id;
}

void Table::update(RowId id, Row row, CommitStamp* stamp,
                   const ReadView& view) {
  row = normalize(std::move(row));
  std::unique_lock lk(latch_);
  RowVersion* head = id < slots_.size()
                         ? slots_[id].head.load(std::memory_order_relaxed)
                         : nullptr;
  auto* cur = const_cast<RowVersion*>(resolve_visible(head, view));
  if (!cur) throw DbError("update of dead row in " + schema_.name());
  check_unique_locked(row, id, view);
  auto* v = new RowVersion(std::move(row), stamp, head);
  index_add(id, v->data);
  cur->end_stamp.store(stamp, std::memory_order_release);
  slots_[id].head.store(v, std::memory_order_release);
  if (stamp) stamp->table = this;  // live delta unchanged
  static auto& installed =
      telemetry::MetricsRegistry::instance().counter("mvcc.versions_installed");
  installed.add();
}

void Table::erase(RowId id, CommitStamp* stamp, const ReadView& view) {
  std::unique_lock lk(latch_);
  RowVersion* head = id < slots_.size()
                         ? slots_[id].head.load(std::memory_order_relaxed)
                         : nullptr;
  auto* cur = const_cast<RowVersion*>(resolve_visible(head, view));
  if (!cur) throw DbError("delete of dead row in " + schema_.name());
  cur->end_stamp.store(stamp, std::memory_order_release);
  live_rows_.fetch_add(-1, std::memory_order_relaxed);
  if (stamp) {
    stamp->table = this;
    --stamp->live_delta;
  }
  free_slots_.push_back(id);
}

const Row* Table::fetch(RowId id, const ReadView& view) const {
  const RowVersion* head = nullptr;
  {
    std::shared_lock lk(latch_);
    if (id >= slots_.size()) return nullptr;
    head = slots_[id].head.load(std::memory_order_acquire);
  }
  const RowVersion* v = resolve_visible(head, view);
  return v ? &v->data : nullptr;
}

const Row& Table::row(RowId id, const ReadView& view) const {
  const Row* r = fetch(id, view);
  if (!r) throw DbError("access to dead row in " + schema_.name());
  return *r;
}

bool Table::collect_batch(
    RowId& next, std::vector<std::pair<RowId, const RowVersion*>>& out) const {
  constexpr std::size_t kBatch = 1024;
  out.clear();
  std::shared_lock lk(latch_);
  const std::size_t n = slots_.size();
  while (next < n && out.size() < kBatch) {
    const RowVersion* head = slots_[next].head.load(std::memory_order_acquire);
    if (head) out.emplace_back(next, head);
    ++next;
  }
  return !out.empty();
}

// --- Indexes --------------------------------------------------------------

void Table::create_index(std::size_t column_index, bool unique) {
  if (column_index >= schema_.columns().size()) {
    throw DbError("index column out of range in " + schema_.name());
  }
  std::unique_lock lk(latch_);
  auto [it, inserted] = indexes_.try_emplace(column_index);
  if (!inserted) {
    it->second.unique = it->second.unique || unique;
    return;
  }
  it->second.unique = unique;
  // Index every non-aborted version so a writer creating an index
  // mid-transaction can look up its own pending rows.
  for (RowId id = 0; id < slots_.size(); ++id) {
    for (const RowVersion* v = slots_[id].head.load(std::memory_order_relaxed);
         v; v = v->older) {
      std::uint64_t token = 0;
      if (begin_ts_of(v, token) == kTsAborted) continue;
      index_add_one(it->second, v->data[column_index], id);
    }
  }
}

bool Table::has_index(std::size_t column_index) const {
  std::shared_lock lk(latch_);
  return indexes_.count(column_index) > 0;
}

bool Table::has_unique_index(std::size_t column_index) const {
  std::shared_lock lk(latch_);
  auto it = indexes_.find(column_index);
  return it != indexes_.end() && it->second.unique;
}

std::optional<std::vector<RowId>> Table::index_equal(std::size_t column_index,
                                                     const Value& key) const {
  std::shared_lock lk(latch_);
  auto it = indexes_.find(column_index);
  if (it == indexes_.end()) return std::nullopt;
  std::vector<RowId> out;
  auto [lo, hi] = it->second.entries.equal_range(key);
  for (auto e = lo; e != hi; ++e) out.push_back(e->second);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::optional<std::vector<RowId>> Table::index_range(
    std::size_t column_index, const std::optional<Value>& lo,
    const std::optional<Value>& hi, bool lo_inclusive,
    bool hi_inclusive) const {
  std::shared_lock lk(latch_);
  auto it = indexes_.find(column_index);
  if (it == indexes_.end()) return std::nullopt;
  const auto& entries = it->second.entries;
  // Exclusive bounds flip lower_bound/upper_bound so a strict inequality
  // fetches exactly the qualifying keys instead of over-fetching the
  // boundary key's rows.
  auto begin = lo ? (lo_inclusive ? entries.lower_bound(*lo)
                                  : entries.upper_bound(*lo))
                  : entries.begin();
  auto end = hi ? (hi_inclusive ? entries.upper_bound(*hi)
                                : entries.lower_bound(*hi))
                : entries.end();
  if (lo && hi) {
    // Contradictory bounds (lo above hi) would put `begin` past `end`;
    // the iteration below must not run in that case.
    const int c = lo->compare(*hi);
    if (c > 0 || (c == 0 && !(lo_inclusive && hi_inclusive))) {
      return std::vector<RowId>{};
    }
  }
  std::vector<RowId> out;
  for (auto e = begin; e != end; ++e) {
    if (e->first.is_null()) continue;  // NULLs never match range predicates
    out.push_back(e->second);
  }
  // A slot can appear under several keys in the range (one per version);
  // deduplicate so callers never see the same row twice.
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void Table::bump_auto_increment(std::int64_t at_least) {
  std::int64_t cur = next_auto_.load(std::memory_order_relaxed);
  while (at_least > cur && !next_auto_.compare_exchange_weak(
                               cur, at_least, std::memory_order_relaxed)) {
  }
}

// --- Schema evolution (full exclusion) ------------------------------------

void Table::add_column(ColumnDef column) {
  if (column.primary_key) {
    throw DbError("cannot add a primary key column to existing table " +
                  schema_.name());
  }
  if (column.not_null && column.default_value.is_null()) {
    throw DbError("added NOT NULL column '" + column.name +
                  "' requires a DEFAULT value");
  }
  const Value fill = column.default_value;
  std::unique_lock lk(latch_);
  schema_.add_column(std::move(column));
  for (auto& slot : slots_) {
    for (RowVersion* v = slot.head.load(std::memory_order_relaxed); v;
         v = v->older) {
      v->data.push_back(fill);
    }
  }
}

void Table::drop_column(const std::string& name) {
  const std::size_t index = schema_.column_index_or_throw(name);
  std::unique_lock lk(latch_);
  if (indexes_.count(index)) {
    throw DbError("cannot drop indexed column '" + name + "'");
  }
  schema_.drop_column(name);
  // Shift index keys above the removed column down by one.
  std::map<std::size_t, Index> remapped;
  for (auto& [col, idx] : indexes_) {
    remapped.emplace(col > index ? col - 1 : col, std::move(idx));
  }
  indexes_ = std::move(remapped);
  for (auto& slot : slots_) {
    for (RowVersion* v = slot.head.load(std::memory_order_relaxed); v;
         v = v->older) {
      v->data.erase(v->data.begin() + static_cast<std::ptrdiff_t>(index));
    }
  }
}

void Table::index_add(RowId id, const Row& row) {
  for (auto& [column, index] : indexes_) {
    index_add_one(index, row[column], id);
  }
}

void Table::index_add_one(Index& index, const Value& key, RowId id) {
  // One entry per (key, slot) pair: a second version with the same key
  // would only produce duplicate candidates.
  auto [lo, hi] = index.entries.equal_range(key);
  for (auto it = lo; it != hi; ++it) {
    if (it->second == id) return;
  }
  index.entries.emplace(key, id);
}

// --- Vacuum ---------------------------------------------------------------

std::size_t Table::vacuum() {
  std::unique_lock lk(latch_);
  std::size_t reclaimed = 0;
  std::int64_t live = 0;
  free_slots_.clear();
  for (auto& [column, index] : indexes_) index.entries.clear();
  for (RowId id = 0; id < slots_.size(); ++id) {
    RowVersion* head = slots_[id].head.load(std::memory_order_relaxed);
    // The newest committed version decides the slot's fate: alive rows keep
    // exactly that version, committed-deleted rows free the whole slot.
    RowVersion* survivor = nullptr;
    for (RowVersion* v = head; v; v = v->older) {
      std::uint64_t token = 0;
      const std::uint64_t b = begin_ts_of(v, token);
      if (b == kTsAborted || b == kTsPending) continue;
      std::uint64_t end_token = 0;
      const std::uint64_t e = end_ts_of(v, end_token);
      if (e == 0 || e == kTsAborted) survivor = v;
      break;
    }
    for (RowVersion* v = head; v;) {
      RowVersion* older = v->older;
      if (v != survivor) {
        delete v;
        ++reclaimed;
      }
      v = older;
    }
    if (survivor) {
      // Fold the resolved outcome into the caches and drop the stamps
      // (the database frees them after every table has been vacuumed).
      survivor->begin_stamp = nullptr;
      survivor->end_stamp.store(nullptr, std::memory_order_relaxed);
      survivor->end_cache.store(0, std::memory_order_relaxed);
      survivor->older = nullptr;
      slots_[id].head.store(survivor, std::memory_order_relaxed);
      index_add(id, survivor->data);
      ++live;
    } else {
      slots_[id].head.store(nullptr, std::memory_order_relaxed);
      free_slots_.push_back(id);
    }
  }
  while (!slots_.empty() &&
         slots_.back().head.load(std::memory_order_relaxed) == nullptr) {
    slots_.pop_back();
  }
  slot_high_.store(slots_.size(), std::memory_order_release);
  free_slots_.erase(std::remove_if(free_slots_.begin(), free_slots_.end(),
                                   [&](RowId id) { return id >= slots_.size(); }),
                    free_slots_.end());
  live_rows_.store(live, std::memory_order_relaxed);
  static auto& reclaimed_counter = telemetry::MetricsRegistry::instance()
                                       .counter("mvcc.gc_versions_reclaimed");
  reclaimed_counter.add(reclaimed);
  return reclaimed;
}

}  // namespace perfdmf::sqldb
