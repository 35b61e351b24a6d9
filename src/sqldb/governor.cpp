#include "sqldb/governor.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <sstream>

#include "util/error.h"
#include "util/strings.h"

namespace perfdmf::sqldb {

namespace {

int env_int(const char* name, int fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  const auto parsed = util::parse_int(raw);
  return parsed ? static_cast<int>(*parsed) : fallback;
}

telemetry::Histogram& admission_wait_histogram() {
  static telemetry::Histogram& h =
      telemetry::MetricsRegistry::instance().histogram(
          "gov.admission.wait_micros");
  return h;
}

}  // namespace

void AdmissionSlot::release() {
  if (gov_ == nullptr) return;
  gov_->release();
  gov_ = nullptr;
}

AdmissionGovernor::Config AdmissionGovernor::config_from_env() {
  Config cfg;
  cfg.max_concurrent = std::max(0, env_int("PERFDMF_MAX_CONCURRENT_STMTS", 0));
  cfg.max_queue = std::max(0, env_int("PERFDMF_ADMISSION_QUEUE", cfg.max_queue));
  cfg.queue_timeout_ms =
      std::max(0, env_int("PERFDMF_ADMISSION_QUEUE_MS", cfg.queue_timeout_ms));
  return cfg;
}

void AdmissionGovernor::configure(const Config& cfg) {
  std::lock_guard<std::mutex> lock(mu_);
  cfg_ = cfg;
  limited_.store(cfg_.max_concurrent > 0, std::memory_order_relaxed);
  cv_.notify_all();
}

AdmissionGovernor::Config AdmissionGovernor::config() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cfg_;
}

int AdmissionGovernor::running() const {
  std::lock_guard<std::mutex> lock(mu_);
  return running_;
}

int AdmissionGovernor::queued() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(queue_.size());
}

AdmissionSlot AdmissionGovernor::admit(StatementContext* ctx) {
  if (!limited_.load(std::memory_order_relaxed)) return AdmissionSlot{};

  using Clock = std::chrono::steady_clock;
  // Slots free up and queue heads advance in bounded time, so waiting
  // in short slices keeps cancellation latency low without thundering.
  constexpr auto kSlice = std::chrono::milliseconds(5);

  std::unique_lock<std::mutex> lock(mu_);
  if (cfg_.max_concurrent <= 0) return AdmissionSlot{};  // raced a disable
  if (running_ < cfg_.max_concurrent && queue_.empty()) {
    ++running_;
    return AdmissionSlot{this};
  }
  if (static_cast<int>(queue_.size()) >= cfg_.max_queue) {
    detail::gov_admission_rejected().add();
    std::ostringstream msg;
    msg << "overloaded: " << running_ << " statements executing, "
        << queue_.size() << " queued (admission queue full)";
    throw DbError(msg.str(), DbError::Kind::kOverloaded);
  }

  const std::uint64_t ticket = next_ticket_++;
  queue_.push_back(ticket);
  // Queued: the time from here until admission is governance overhead,
  // not execution — attribute it to the statement's admission phase (and
  // label the live-statement view) instead of letting it hide in the
  // execute remainder.
  PhaseTimer admission_timer(telemetry::Phase::kAdmission,
                             &admission_wait_histogram());
  const auto shed_at = Clock::now() + std::chrono::milliseconds(cfg_.queue_timeout_ms);
  auto abandon = [&] {
    queue_.erase(std::find(queue_.begin(), queue_.end(), ticket));
    // The head may have changed; wake the queue so the new head can go.
    cv_.notify_all();
  };
  while (!(queue_.front() == ticket && running_ < cfg_.max_concurrent)) {
    cv_.wait_for(lock, kSlice);
    if (cfg_.max_concurrent <= 0) {  // disabled while we waited
      abandon();
      return AdmissionSlot{};
    }
    if (ctx != nullptr) {
      try {
        ctx->check_now();
      } catch (...) {
        abandon();
        throw;
      }
    }
    if (Clock::now() >= shed_at &&
        !(queue_.front() == ticket && running_ < cfg_.max_concurrent)) {
      abandon();
      detail::gov_admission_rejected().add();
      std::ostringstream msg;
      msg << "overloaded: no execution slot within " << cfg_.queue_timeout_ms
          << " ms (queue-deadline shed)";
      throw DbError(msg.str(), DbError::Kind::kOverloaded);
    }
  }
  queue_.pop_front();
  ++running_;
  // Another waiter may be admissible too (slots can outnumber the
  // statements ahead of it in the queue).
  cv_.notify_all();
  return AdmissionSlot{this};
}

void AdmissionGovernor::release() {
  std::lock_guard<std::mutex> lock(mu_);
  --running_;
  cv_.notify_all();
}

}  // namespace perfdmf::sqldb
