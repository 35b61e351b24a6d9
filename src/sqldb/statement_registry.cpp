#include "sqldb/statement_registry.h"

#include "util/log.h"

namespace perfdmf::sqldb {

StatementRegistry::Guard::Guard(StatementRegistry& registry,
                                const StatementContext& ctx) {
  const std::size_t hint =
      registry.cursor_.fetch_add(1, std::memory_order_relaxed);
  for (std::size_t i = 0; i < kSlots; ++i) {
    Slot& slot = registry.slots_[(hint + i) % kSlots];
    std::unique_lock<std::mutex> lock(slot.mu, std::try_to_lock);
    if (!lock.owns_lock() || slot.ctx != nullptr) continue;
    slot.ctx = &ctx;
    slot_ = &slot;
    return;
  }
}

StatementRegistry::Guard::~Guard() {
  if (slot_ == nullptr) return;
  // Unconditional lock (not try_lock): a snapshot reader holds a slot
  // lock only for a bounded field copy, so this cannot stall — and the
  // slot MUST be cleared before the record it points at dies.
  std::lock_guard<std::mutex> lock(slot_->mu);
  slot_->ctx = nullptr;
}

std::vector<StatementInfo> StatementRegistry::snapshot() const {
  std::vector<StatementInfo> out;
  for (const Slot& slot : slots_) {
    std::unique_lock<std::mutex> lock(slot.mu, std::try_to_lock);
    if (!lock.owns_lock() || slot.ctx == nullptr) continue;
    // Identity and governance fields were set before the record was
    // published (the slot mutex ordered those writes before this read);
    // phase and row progress are atomics.
    const StatementContext& ctx = *slot.ctx;
    StatementInfo info;
    info.id = ctx.id();
    info.sql.assign(ctx.sql().substr(0, kSqlMax));
    const std::thread::id thread = ctx.thread();
    info.elapsed_ms =
        static_cast<double>(std::chrono::duration_cast<std::chrono::microseconds>(
                                std::chrono::steady_clock::now() - ctx.start())
                                .count()) /
        1000.0;
    info.phase = ctx.phase_label();
    info.rows = ctx.rows_polled();
    if (ctx.deadline.armed()) {
      info.deadline_remaining_ms = static_cast<double>(
          ctx.deadline.remaining_or(std::chrono::milliseconds(0)).count());
    }
    info.cancel_requested =
        ctx.cancel != nullptr && ctx.cancel->load(std::memory_order_relaxed);
    lock.unlock();
    info.thread = util::thread_id_string(thread);
    out.push_back(std::move(info));
  }
  return out;
}

}  // namespace perfdmf::sqldb
