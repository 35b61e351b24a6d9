// Live registry of the statements currently executing against one
// Database, backing the PERFDMF_STATEMENTS system table.
//
// A slot holds only a pointer to the live statement record
// (StatementContext); every column is read from the record itself.
//
// Design constraint: introspection must never block or deadlock the
// statements it observes. Each of the kSlots slots has its own tiny
// mutex whose critical sections are strictly bounded (set or clear the
// pointer; copy at most kSqlMax bytes of SQL and a few fields out — no
// waits, no locks taken inside). Statements registering and
// unregistering lock only their own slot; the snapshot reader uses
// try_lock per slot and simply skips a slot whose owner is mid-update,
// so a reader can never stall a statement and a statement can never
// stall a reader for more than one bounded copy.
//
// The registry is always active — independent of the telemetry kill
// switch — because it reports facts (what is running now), not samples.
// Its fixed cost per statement is one slot claim; nothing is copied.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "sqldb/statement_context.h"

namespace perfdmf::sqldb {

/// One row of PERFDMF_STATEMENTS, copied out under the slot lock.
struct StatementInfo {
  std::uint64_t id = 0;
  std::string thread;
  std::string sql;                      // truncated to kSqlMax
  const char* phase = "execute";        // coarse label (string literal)
  double elapsed_ms = 0.0;
  double deadline_remaining_ms = -1.0;  // < 0: no deadline armed
  std::uint64_t rows = 0;               // rows polled so far (stride granularity)
  bool cancel_requested = false;
};

class StatementRegistry {
  struct Slot {
    mutable std::mutex mu;
    // The live record, or nullptr when free. The owning Guard clears it
    // (under mu) before the record dies.
    const StatementContext* ctx = nullptr;
  };

 public:
  static constexpr std::size_t kSlots = 64;
  static constexpr std::size_t kSqlMax = 200;

  StatementRegistry() = default;
  StatementRegistry(const StatementRegistry&) = delete;
  StatementRegistry& operator=(const StatementRegistry&) = delete;

  /// RAII slot occupancy for one executing statement. When every slot is
  /// taken (> kSlots concurrent statements) the statement simply goes
  /// unlisted — registration never waits.
  class Guard {
   public:
    Guard(StatementRegistry& registry, const StatementContext& ctx);
    ~Guard();
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    Slot* slot_ = nullptr;
  };

  /// Rows for PERFDMF_STATEMENTS. Slots whose owner is mid-register/
  /// unregister are skipped (try_lock), so this never blocks.
  std::vector<StatementInfo> snapshot() const;

 private:
  std::array<Slot, kSlots> slots_;
  std::atomic<std::size_t> cursor_{0};  // round-robin claim hint
};

}  // namespace perfdmf::sqldb
