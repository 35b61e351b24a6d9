// In-memory table storage with multi-version row slots and ordered indexes.
//
// Row identifiers are stable slot numbers. Each slot holds a newest-first
// chain of RowVersions; DML installs a new version at the head stamped with
// the writer's CommitStamp, and readers resolve the chain against their
// ReadView without blocking — see mvcc.h for the visibility rules. Slots
// whose newest committed version is a delete are reused by later INSERTs
// (the old chain is kept so older snapshots keep reading it), and vacuum()
// — run from checkpoint under full exclusion — collapses chains, frees
// dead slots, and rebuilds the indexes.
//
// Index entries are append-mostly: a (key, RowId) pair is added when a
// version introduces the key and never removed by DML, so lookups can
// return slots whose visible version no longer matches. Every caller
// re-checks the predicate against the resolved version; vacuum rebuilds
// the sets exactly.
//
// Thread contract: concurrent calls are safe between any number of readers
// (fetch/scan/index_* with a ReadView) and ONE writer (insert/update/erase)
// — the engine's writer mutex provides the single-writer guarantee.
// create_index/add_column/drop_column/vacuum require full external
// exclusion. A table no other thread can reach yet (snapshot load,
// system-table and view materialisation) is filled through the same
// insert with a null stamp, which commits the row at timestamp 0, visible
// to every view; ReadView::latest() reads the latest committed versions.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <shared_mutex>
#include <vector>

#include "sqldb/mvcc.h"
#include "sqldb/schema.h"

namespace perfdmf::sqldb {

using RowId = std::uint64_t;
using Row = std::vector<Value>;

/// One version of one row. `data`, `older` and `begin_stamp` are immutable
/// once the version is published into a slot chain; the deleting writer
/// races readers on `end_stamp`, and the *_cache fields memoize resolved
/// commit timestamps so settled chains stop chasing their stamps.
struct RowVersion {
  Row data;
  RowVersion* older = nullptr;
  CommitStamp* begin_stamp = nullptr;
  std::atomic<std::uint64_t> begin_cache;
  std::atomic<CommitStamp*> end_stamp{nullptr};
  std::atomic<std::uint64_t> end_cache{0};  // 0 = never deleted

  RowVersion(Row d, CommitStamp* s, RowVersion* o)
      : data(std::move(d)),
        older(o),
        begin_stamp(s),
        begin_cache(s ? kTsPending : 0) {}
};

class Table {
 public:
  explicit Table(TableSchema schema);
  ~Table();
  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  const TableSchema& schema() const { return schema_; }
  std::size_t live_row_count() const {
    const auto n = live_rows_.load(std::memory_order_relaxed);
    return n > 0 ? static_cast<std::size_t>(n) : 0;
  }
  std::size_t slot_count() const {
    return slot_high_.load(std::memory_order_acquire);
  }

  // --- Versioned access -----------------------------------------------

  /// Validate, coerce, fill defaults/auto-increment, maintain indexes.
  /// Installs a version stamped with `stamp` (pending until the write unit
  /// commits). Reuses a committed-deleted slot when one is available.
  RowId insert(Row row, CommitStamp* stamp, const ReadView& view);

  /// Install a replacement version for the row `view` sees at `id`.
  void update(RowId id, Row row, CommitStamp* stamp, const ReadView& view);

  /// Mark the version `view` sees at `id` as deleted by `stamp`.
  void erase(RowId id, CommitStamp* stamp, const ReadView& view);

  /// The row `view` sees at `id`, or nullptr. The reference stays valid for
  /// the duration of the reader's statement: versions are only freed by
  /// vacuum(), which requires full exclusion.
  const Row* fetch(RowId id, const ReadView& view) const;

  /// Visit every row `view` sees, in slot order. Slot heads are copied out
  /// in batches under a short shared latch so a long scan never starves
  /// the writer.
  template <typename Fn>
  void scan(const ReadView& view, Fn&& fn) const {
    std::vector<std::pair<RowId, const RowVersion*>> batch;
    RowId next = 0;
    while (collect_batch(next, batch)) {
      for (const auto& [id, head] : batch) {
        if (const RowVersion* v = resolve_visible(head, view)) fn(id, v->data);
      }
    }
  }

  // --- Indexes ----------------------------------------------------------

  /// Create an ordered secondary index over one column. Idempotent.
  /// Requires full exclusion (autocommit CREATE INDEX runs under the DDL
  /// guard); entries for every non-aborted version are added so a writer
  /// indexing mid-transaction can use the index for its own pending rows.
  void create_index(std::size_t column_index, bool unique);
  bool has_index(std::size_t column_index) const;
  bool has_unique_index(std::size_t column_index) const;

  /// RowIds whose column equals `key`, in slot order (nullopt without an
  /// index, so the caller falls back to a scan). May include slots whose
  /// visible version no longer carries the key — callers re-check.
  std::optional<std::vector<RowId>> index_equal(std::size_t column_index,
                                                const Value& key) const;

  /// RowIds inside [lo, hi] (either bound may be absent; a bound is
  /// excluded from the range when its *_inclusive flag is false, so strict
  /// inequalities fetch exactly the qualifying keys).
  std::optional<std::vector<RowId>> index_range(std::size_t column_index,
                                                const std::optional<Value>& lo,
                                                const std::optional<Value>& hi,
                                                bool lo_inclusive = true,
                                                bool hi_inclusive = true) const;

  /// Next value the auto-increment primary key would take (for reflection).
  std::int64_t next_auto_increment() const {
    return next_auto_.load(std::memory_order_relaxed);
  }
  void bump_auto_increment(std::int64_t at_least);

  /// Schema evolution (flexible-schema support, paper §3.2). Existing rows
  /// are padded with the default value / have the column removed. Requires
  /// full exclusion: every version in every chain is rewritten in place.
  void add_column(ColumnDef column);
  void drop_column(const std::string& name);

  // --- MVCC maintenance -------------------------------------------------

  /// Revert an optimistic live-row-count adjustment (write-unit rollback).
  void adjust_live(std::int64_t delta) {
    live_rows_.fetch_add(delta, std::memory_order_relaxed);
  }

  /// Collapse every chain to its newest committed version, free slots whose
  /// row is deleted, fold resolved stamps into the timestamp caches, rebuild
  /// the indexes exactly, and compact trailing free slots. Requires full
  /// exclusion and no pending stamps (checkpoint guarantees both).
  /// Returns the number of versions reclaimed.
  std::size_t vacuum();

  /// Resolve `head` against `view` per the mvcc.h visibility rules.
  static const RowVersion* resolve_visible(const RowVersion* head,
                                           const ReadView& view);

 private:
  struct Slot {
    std::atomic<RowVersion*> head{nullptr};
  };
  using IndexEntry = std::pair<Value, RowId>;
  /// Entries sort by key, then slot; a bare key compares against the key
  /// alone, so equal_range/lower_bound/upper_bound take a Value.
  struct EntryOrder {
    using is_transparent = void;
    bool operator()(const IndexEntry& a, const IndexEntry& b) const {
      const int c = a.first.compare(b.first);
      return c < 0 || (c == 0 && a.second < b.second);
    }
    bool operator()(const IndexEntry& a, const Value& k) const { return a.first < k; }
    bool operator()(const Value& k, const IndexEntry& b) const { return k < b.first; }
  };
  struct Index {
    bool unique = false;
    std::set<IndexEntry, EntryOrder> entries;
  };

  Row normalize(Row row) const;
  Row prepare_insert(Row row);
  /// Add (row[column], id) to every index (a repeated pair is a no-op).
  void index_add(RowId id, const Row& row);
  /// Refill `index` from every non-aborted version of every slot. Caller
  /// holds the exclusive latch.
  void build_index_locked(std::size_t column_index, Index& index);
  void check_unique_locked(const Row& row, std::optional<RowId> self,
                           const ReadView& view) const;
  /// Pop a reusable committed-deleted slot, or allocate a fresh one.
  /// Caller holds the exclusive latch.
  RowId allocate_slot_locked();
  void free_chain(RowVersion* head);
  bool collect_batch(RowId& next,
                     std::vector<std::pair<RowId, const RowVersion*>>& out) const;

  TableSchema schema_;
  mutable std::shared_mutex latch_;
  std::deque<Slot> slots_;
  std::vector<RowId> free_slots_;  // candidates; re-validated before reuse
  std::atomic<std::size_t> slot_high_{0};
  std::atomic<std::int64_t> live_rows_{0};
  std::map<std::size_t, Index> indexes_;  // column index -> index
  std::atomic<std::int64_t> next_auto_{1};
};

}  // namespace perfdmf::sqldb
