// Concurrency control for the sqldb engine.
//
// One LockManager guards one Database with two locks:
//
//  - The writer mutex serializes mutation: DML statements, transactions
//    (held from BEGIN to COMMIT/ROLLBACK), DDL, and checkpoint. One write
//    unit runs at a time, which is what lets MVCC stamp commits with a
//    single global timestamp counter.
//  - The drain lock is held SHARED by both readers and DML — they coexist,
//    readers resolving version chains against their snapshot while the
//    writer installs new versions — and EXCLUSIVE by DDL and checkpoint,
//    which rewrite rows in place or free versions and therefore must
//    drain every in-flight reader first.
//
// SELECTs take only the drain lock shared: with MVCC they never wait for
// DML, and DML never waits for them. Lock order is writer mutex before
// drain lock, always.
//
// Transactions are thread-affine: the thread that issues BEGIN owns the
// writer mutex and must issue the matching COMMIT/ROLLBACK. While a
// thread owns a transaction, all of its statements (on any connection
// to the same database) pass through without re-locking.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <shared_mutex>
#include <thread>

#include "sqldb/ast.h"
#include "sqldb/statement_context.h"
#include "telemetry/metrics.h"
#include "util/error.h"

// ThreadSanitizer detection: gcc defines __SANITIZE_THREAD__, clang
// exposes __has_feature(thread_sanitizer).
#if defined(__SANITIZE_THREAD__)
#define PERFDMF_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PERFDMF_TSAN 1
#endif
#endif
#ifndef PERFDMF_TSAN
#define PERFDMF_TSAN 0
#endif

namespace perfdmf::sqldb {

namespace detail {
/// Shared lock-wait histogram for every LockManager in the process
/// (the registry owns it; the reference is resolved once).
inline telemetry::Histogram& lock_wait_histogram() {
  static telemetry::Histogram& h =
      telemetry::MetricsRegistry::instance().histogram("sqldb.lock.wait_micros");
  return h;
}
}  // namespace detail

/// How a statement interacts with the database locks.
enum class StatementClass {
  kRead,      // SELECT: drain lock shared, snapshot reads
  kWrite,     // DML: writer mutex + drain lock shared
  kDdl,       // DDL / checkpoint: writer mutex + drain lock exclusive
  kTxnBegin,  // BEGIN: writer mutex, held across statements
  kTxnEnd,    // COMMIT / ROLLBACK: release the transaction's lock
};

StatementClass classify_statement(const Statement& stmt);

/// Point-in-time view of one LockManager for the PERFDMF_LOCKS system
/// table. Read from relaxed atomics — each field is individually exact,
/// the set is only approximately simultaneous (fine for introspection).
struct LockStats {
  int writer_holders = 0;          // 0 or 1
  int writer_waiters = 0;
  std::uint64_t writer_wait_micros = 0;   // cumulative, contended waits only
  int drain_shared_holders = 0;
  int drain_exclusive_holders = 0;  // 0 or 1
  int drain_waiters = 0;
  std::uint64_t drain_wait_micros = 0;
};

class LockManager {
 public:
  LockManager() = default;
  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  /// Reader access: drain lock shared. With a governed context the wait is
  /// bounded: the acquisition loop re-checks the statement's deadline and
  /// cancel flag every kWaitSlice, so a stalled DDL drain cannot hang a
  /// reader past its deadline (throws DbError{kTimeout|kCancelled}).
  void lock_shared(StatementContext* ctx = nullptr) {
    if (drain_.try_lock_shared()) {  // uncontended: skip wait timing
      drain_shared_holders_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    PhaseTimer wait_phase(telemetry::Phase::kLockWait,
                          &detail::lock_wait_histogram());
    WaitTracker tracker(drain_waiters_, drain_wait_micros_);
    if (!governed(ctx)) {
      drain_.lock_shared();
    } else {
      while (!drain_shared_try_slice(wait_slice(ctx))) ctx->check_now();
    }
    drain_shared_holders_.fetch_add(1, std::memory_order_relaxed);
  }
  void unlock_shared() {
    drain_shared_holders_.fetch_sub(1, std::memory_order_relaxed);
    drain_.unlock_shared();
  }

  /// DML / transaction access: writer mutex, then drain lock shared.
  void lock_writer(StatementContext* ctx = nullptr) {
    lock_writer_mutex(ctx);
    // Cannot block: drain-exclusive holders acquire the writer mutex first,
    // so while we hold it only other shared holders touch the drain lock.
    drain_.lock_shared();
    drain_shared_holders_.fetch_add(1, std::memory_order_relaxed);
  }
  void unlock_writer() {
    drain_shared_holders_.fetch_sub(1, std::memory_order_relaxed);
    drain_.unlock_shared();
    writer_holders_.fetch_sub(1, std::memory_order_relaxed);
    writer_.unlock();
  }

  /// DDL / checkpoint access: writer mutex, then drain every reader.
  void lock_exclusive(StatementContext* ctx = nullptr) {
    lock_writer_mutex(ctx);
    try {
      if (drain_.try_lock()) {
        drain_exclusive_holders_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      PhaseTimer wait_phase(telemetry::Phase::kLockWait,
                            &detail::lock_wait_histogram());
      WaitTracker tracker(drain_waiters_, drain_wait_micros_);
      if (!governed(ctx)) {
        drain_.lock();
      } else {
        while (!drain_try_slice(wait_slice(ctx))) ctx->check_now();
      }
      drain_exclusive_holders_.fetch_add(1, std::memory_order_relaxed);
    } catch (...) {
      writer_holders_.fetch_sub(1, std::memory_order_relaxed);
      writer_.unlock();
      throw;
    }
  }
  void unlock_exclusive() {
    drain_exclusive_holders_.fetch_sub(1, std::memory_order_relaxed);
    drain_.unlock();
    writer_holders_.fetch_sub(1, std::memory_order_relaxed);
    writer_.unlock();
  }

  /// BEGIN: take the writer lock and record the owning thread so the
  /// transaction's own statements pass through without re-locking.
  void acquire_transaction(StatementContext* ctx = nullptr) {
    lock_writer(ctx);
    txn_owner_.store(std::this_thread::get_id(), std::memory_order_release);
  }

  /// COMMIT / ROLLBACK: drop ownership and release. Must run on the thread
  /// that acquired the transaction — unlocking a mutex another thread owns
  /// is undefined behaviour, so a mismatch is rejected up front.
  void release_transaction() {
    if (txn_owner_.load(std::memory_order_acquire) !=
        std::this_thread::get_id()) {
      throw DbError(
          "transaction lock is not owned by this thread: COMMIT/ROLLBACK "
          "must run on the thread that issued BEGIN");
    }
    txn_owner_.store(std::thread::id{}, std::memory_order_release);
    unlock_writer();
  }

  bool owned_by_this_thread() const {
    return txn_owner_.load(std::memory_order_acquire) ==
           std::this_thread::get_id();
  }

  /// Lock-free snapshot for the PERFDMF_LOCKS system table — never
  /// touches the locks themselves, so introspection cannot block or
  /// deadlock the paths it observes.
  LockStats stats() const {
    LockStats s;
    s.writer_holders = writer_holders_.load(std::memory_order_relaxed);
    s.writer_waiters = writer_waiters_.load(std::memory_order_relaxed);
    s.writer_wait_micros = writer_wait_micros_.load(std::memory_order_relaxed);
    s.drain_shared_holders =
        drain_shared_holders_.load(std::memory_order_relaxed);
    s.drain_exclusive_holders =
        drain_exclusive_holders_.load(std::memory_order_relaxed);
    s.drain_waiters = drain_waiters_.load(std::memory_order_relaxed);
    s.drain_wait_micros = drain_wait_micros_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  /// Bounded-wait slice: short enough that cancellation and timeout are
  /// observed promptly, long enough that the retry loop is cheap.
  static constexpr std::chrono::milliseconds kWaitSlice{10};

  static bool governed(const StatementContext* ctx) {
    return ctx != nullptr && (ctx->deadline.armed() || ctx->cancel != nullptr);
  }

#if PERFDMF_TSAN
  /// libtsan (through at least GCC 12) does not intercept the
  /// pthread *_clocklock calls behind try_lock_for and its shared/rwlock
  /// siblings, so a timed acquisition succeeds without the sanitizer
  /// learning the lock is held — erasing the happens-before edge and
  /// fabricating data races on everything the writer mutex protects.
  /// Under TSan, spend each wait slice polling the plain (intercepted)
  /// try_lock instead: same bounded-wait semantics, visible to the tool.
  template <typename TryFn>
  static bool poll_slice(TryFn&& try_fn, std::chrono::milliseconds slice) {
    const auto give_up = std::chrono::steady_clock::now() + slice;
    for (;;) {
      if (try_fn()) return true;
      if (std::chrono::steady_clock::now() >= give_up) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
#endif

  /// One bounded wait slice per lock flavor; non-TSan builds block on
  /// the real timed acquisition.
  bool writer_try_slice(std::chrono::milliseconds slice) {
#if PERFDMF_TSAN
    return poll_slice([this] { return writer_.try_lock(); }, slice);
#else
    return writer_.try_lock_for(slice);
#endif
  }
  bool drain_try_slice(std::chrono::milliseconds slice) {
#if PERFDMF_TSAN
    return poll_slice([this] { return drain_.try_lock(); }, slice);
#else
    return drain_.try_lock_for(slice);
#endif
  }
  bool drain_shared_try_slice(std::chrono::milliseconds slice) {
#if PERFDMF_TSAN
    return poll_slice([this] { return drain_.try_lock_shared(); }, slice);
#else
    return drain_.try_lock_shared_for(slice);
#endif
  }
  static std::chrono::milliseconds wait_slice(StatementContext* ctx) {
    const auto slice = ctx->deadline.remaining_or(kWaitSlice);
    // An already-expired deadline must deliver kTimeout immediately, not
    // after one more minimum-length sleep.
    if (slice.count() <= 0) ctx->check_now();
    return std::chrono::milliseconds(
        std::min<std::int64_t>(std::max<std::int64_t>(slice.count(), 1),
                               kWaitSlice.count()));
  }

  /// Counts a contended wait for stats(): registered as a waiter for the
  /// wait's duration, elapsed micros accumulated on exit (throw included,
  /// so a timed-out waiter doesn't leak a waiter count).
  class WaitTracker {
   public:
    WaitTracker(std::atomic<int>& waiters,
                std::atomic<std::uint64_t>& wait_micros)
        : waiters_(waiters),
          wait_micros_(wait_micros),
          start_(std::chrono::steady_clock::now()) {
      waiters_.fetch_add(1, std::memory_order_relaxed);
    }
    ~WaitTracker() {
      waiters_.fetch_sub(1, std::memory_order_relaxed);
      wait_micros_.fetch_add(
          static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::microseconds>(
                  std::chrono::steady_clock::now() - start_)
                  .count()),
          std::memory_order_relaxed);
    }
    WaitTracker(const WaitTracker&) = delete;
    WaitTracker& operator=(const WaitTracker&) = delete;

   private:
    std::atomic<int>& waiters_;
    std::atomic<std::uint64_t>& wait_micros_;
    std::chrono::steady_clock::time_point start_;
  };

  void lock_writer_mutex(StatementContext* ctx) {
    if (writer_.try_lock()) {  // uncontended: skip wait timing
      writer_holders_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    PhaseTimer wait_phase(telemetry::Phase::kLockWait,
                          &detail::lock_wait_histogram());
    WaitTracker tracker(writer_waiters_, writer_wait_micros_);
    if (!governed(ctx)) {
      writer_.lock();
    } else {
      while (!writer_try_slice(wait_slice(ctx))) ctx->check_now();
    }
    writer_holders_.fetch_add(1, std::memory_order_relaxed);
  }

  std::timed_mutex writer_;
  std::shared_timed_mutex drain_;
  std::atomic<std::thread::id> txn_owner_{};

  // Introspection counters (see stats()).
  std::atomic<int> writer_holders_{0};
  std::atomic<int> writer_waiters_{0};
  std::atomic<std::uint64_t> writer_wait_micros_{0};
  std::atomic<int> drain_shared_holders_{0};
  std::atomic<int> drain_exclusive_holders_{0};
  std::atomic<int> drain_waiters_{0};
  std::atomic<std::uint64_t> drain_wait_micros_{0};
};

/// RAII statement-scope guard. Maps the statement class to a lock level —
/// SELECT: drain-shared, DML: writer,
/// DDL: exclusive — and takes nothing at all when the calling thread
/// already owns the database's transaction lock.
class StatementGuard {
 public:
  enum class Level { kNone, kShared, kWriter, kExclusive };

  StatementGuard(LockManager& locks, StatementClass cls,
                 StatementContext* ctx = nullptr)
      : locks_(locks) {
    if (locks_.owned_by_this_thread()) return;
    switch (cls) {
      case StatementClass::kRead:
        acquire(Level::kShared, ctx);
        break;
      case StatementClass::kDdl:
        acquire(Level::kExclusive, ctx);
        break;
      case StatementClass::kWrite:
      case StatementClass::kTxnBegin:
      case StatementClass::kTxnEnd:
        acquire(Level::kWriter, ctx);
        break;
    }
  }

  /// Explicit level (checkpoint wants kExclusive without being a DDL AST).
  StatementGuard(LockManager& locks, Level level,
                 StatementContext* ctx = nullptr)
      : locks_(locks) {
    if (locks_.owned_by_this_thread()) return;
    acquire(level, ctx);
  }

  /// Legacy read-only/mutating split (metadata reflection paths).
  StatementGuard(LockManager& locks, bool read_only,
                 StatementContext* ctx = nullptr)
      : StatementGuard(locks,
                       read_only ? StatementClass::kRead
                                 : StatementClass::kWrite,
                       ctx) {}

  ~StatementGuard() {
    switch (held_) {
      case Level::kNone: break;
      case Level::kShared: locks_.unlock_shared(); break;
      case Level::kWriter: locks_.unlock_writer(); break;
      case Level::kExclusive: locks_.unlock_exclusive(); break;
    }
  }

  StatementGuard(const StatementGuard&) = delete;
  StatementGuard& operator=(const StatementGuard&) = delete;

 private:
  void acquire(Level level, StatementContext* ctx) {
    switch (level) {
      case Level::kNone: break;
      case Level::kShared: locks_.lock_shared(ctx); break;
      case Level::kWriter: locks_.lock_writer(ctx); break;
      case Level::kExclusive: locks_.lock_exclusive(ctx); break;
    }
    held_ = level;
  }

  LockManager& locks_;
  Level held_ = Level::kNone;
};

}  // namespace perfdmf::sqldb
