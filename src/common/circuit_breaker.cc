#include "common/circuit_breaker.h"

#include <utility>

#include "common/logging.h"

namespace tenet {

std::string_view BreakerStateToString(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half_open";
  }
  return "unknown";
}

CircuitBreaker::CircuitBreaker(std::string name, CircuitBreakerOptions options)
    : name_(std::move(name)), options_(options) {
  TENET_CHECK_GT(options_.window_size, 0);
  TENET_CHECK_GT(options_.min_samples, 0);
  TENET_CHECK_GT(options_.failure_threshold, 0.0);
  TENET_CHECK_GT(options_.half_open_probes, 0);
  TENET_CHECK_GT(options_.half_open_successes, 0);
  window_.assign(static_cast<size_t>(options_.window_size), 0);

  obs::MetricsRegistry* registry = options_.metrics != nullptr
                                       ? options_.metrics
                                       : obs::MetricsRegistry::Default();
  const std::string dependency = obs::LabelPair("dependency", name_);
  constexpr const char* kTransitionsHelp =
      "Circuit breaker state transitions, by dependency and target state.";
  for (BreakerState to : {BreakerState::kClosed, BreakerState::kOpen,
                          BreakerState::kHalfOpen}) {
    transitions_to_[static_cast<int>(to)] = registry->GetCounter(
        "tenet_breaker_transitions_total", kTransitionsHelp,
        dependency + "," +
            obs::LabelPair("to", BreakerStateToString(to)));
  }
  state_gauge_ = registry->GetGauge(
      "tenet_breaker_state",
      "Current breaker state per dependency (0 closed, 1 open, 2 half_open).",
      dependency);
  state_gauge_->Set(static_cast<double>(state_));
  constexpr const char* kOperationsHelp =
      "Dependency operations of the requests that fed the breaker, by "
      "outcome (error = the operation failed, e.g. an injected fault "
      "fired).";
  operations_ok_ = registry->GetCounter(
      "tenet_dependency_operations_total", kOperationsHelp,
      dependency + "," + obs::LabelPair("outcome", "ok"));
  operations_error_ = registry->GetCounter(
      "tenet_dependency_operations_total", kOperationsHelp,
      dependency + "," + obs::LabelPair("outcome", "error"));
}

void CircuitBreaker::RecordTransitionLocked(BreakerState to) {
  transitions_to_[static_cast<int>(to)]->Increment();
  state_gauge_->Set(static_cast<double>(to));
}

double CircuitBreaker::WindowFailureRateLocked() const {
  return window_count_ == 0
             ? 0.0
             : static_cast<double>(window_failures_) / window_count_;
}

void CircuitBreaker::TripLocked() {
  state_ = BreakerState::kOpen;
  opened_at_ = Clock::now();
  ++stats_.trips;
  RecordTransitionLocked(BreakerState::kOpen);
  // A fresh window for the next closed period: stale outage-era outcomes
  // must not instantly re-trip a breaker that just recovered.
  window_.assign(window_.size(), 0);
  window_next_ = 0;
  window_count_ = 0;
  window_failures_ = 0;
  probes_left_ = 0;
  success_streak_ = 0;
}

void CircuitBreaker::CloseLocked() {
  state_ = BreakerState::kClosed;
  ++stats_.closes;
  RecordTransitionLocked(BreakerState::kClosed);
  probes_left_ = 0;
  success_streak_ = 0;
}

bool CircuitBreaker::Allow() {
  std::lock_guard<std::mutex> lock(mu_);
  switch (state_) {
    case BreakerState::kClosed:
      return true;
    case BreakerState::kOpen: {
      double elapsed_ms =
          std::chrono::duration<double, std::milli>(Clock::now() - opened_at_)
              .count();
      if (elapsed_ms < options_.open_cooldown_ms) {
        ++stats_.rejected;
        return false;
      }
      state_ = BreakerState::kHalfOpen;
      RecordTransitionLocked(BreakerState::kHalfOpen);
      probes_left_ = options_.half_open_probes;
      success_streak_ = 0;
      [[fallthrough]];
    }
    case BreakerState::kHalfOpen:
      if (probes_left_ > 0) {
        --probes_left_;
        return true;
      }
      ++stats_.rejected;
      return false;
  }
  return true;
}

void CircuitBreaker::RecordOutcomes(int64_t ok, int64_t failed) {
  TENET_CHECK_GE(ok, 0);
  TENET_CHECK_GE(failed, 0);
  if (ok == 0 && failed == 0) return;
  operations_ok_->Increment(ok);
  operations_error_->Increment(failed);
  std::lock_guard<std::mutex> lock(mu_);
  for (int64_t i = 0; i < failed; ++i) RecordOutcomeLocked(false);
  for (int64_t i = 0; i < ok; ++i) RecordOutcomeLocked(true);
}

void CircuitBreaker::RecordOutcome(bool ok) {
  RecordOutcomes(ok ? 1 : 0, ok ? 0 : 1);
}

void CircuitBreaker::RecordOutcomeLocked(bool ok) {
  ++stats_.outcomes;
  if (!ok) ++stats_.failures;
  switch (state_) {
    case BreakerState::kOpen:
      // No requests of ours are flowing (observations here come from the
      // degraded tier touching the same dependency); recovery is probed
      // via half-open, not inferred passively.
      break;
    case BreakerState::kClosed: {
      uint8_t& slot = window_[static_cast<size_t>(window_next_)];
      if (window_count_ == options_.window_size) {
        window_failures_ -= slot;
      } else {
        ++window_count_;
      }
      slot = ok ? 0 : 1;
      window_failures_ += slot;
      window_next_ = (window_next_ + 1) % options_.window_size;
      if (window_count_ >= options_.min_samples &&
          WindowFailureRateLocked() >= options_.failure_threshold) {
        TripLocked();
      }
      break;
    }
    case BreakerState::kHalfOpen:
      if (!ok) {
        TripLocked();
        break;
      }
      ++success_streak_;
      if (success_streak_ >= options_.half_open_successes) {
        CloseLocked();
      } else if (probes_left_ < options_.half_open_probes) {
        // A healthy probe outcome replenishes the probe allowance so that
        // low-volume dependencies (one observation per request) can still
        // accumulate the streak needed to close.
        ++probes_left_;
      }
      break;
  }
}

void CircuitBreaker::ReturnProbe() {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ == BreakerState::kHalfOpen &&
      probes_left_ < options_.half_open_probes) {
    ++probes_left_;
  }
}

BreakerState CircuitBreaker::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

CircuitBreaker::Stats CircuitBreaker::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

RetryBudget::RetryBudget() : RetryBudget(Options{}) {}

RetryBudget::RetryBudget(Options options)
    : options_(options), tokens_(options.max_tokens) {
  TENET_CHECK_GT(options_.max_tokens, 0.0);
  TENET_CHECK_GT(options_.cost_per_retry, 0.0);
  TENET_CHECK_GE(options_.deposit_per_success, 0.0);
  obs::MetricsRegistry* registry = options_.metrics != nullptr
                                       ? options_.metrics
                                       : obs::MetricsRegistry::Default();
  tokens_gauge_ = registry->GetGauge(
      "tenet_retry_budget_tokens",
      "Tokens left in the shared retry budget; zero means the fleet has "
      "collectively stopped retrying.");
  tokens_gauge_->Set(tokens_);
}

bool RetryBudget::TryAcquireRetry() {
  std::lock_guard<std::mutex> lock(mu_);
  if (tokens_ < options_.cost_per_retry) return false;
  tokens_ -= options_.cost_per_retry;
  tokens_gauge_->Set(tokens_);
  return true;
}

void RetryBudget::RecordSuccess() {
  std::lock_guard<std::mutex> lock(mu_);
  tokens_ += options_.deposit_per_success;
  if (tokens_ > options_.max_tokens) tokens_ = options_.max_tokens;
  tokens_gauge_->Set(tokens_);
}

double RetryBudget::tokens() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tokens_;
}

}  // namespace tenet
