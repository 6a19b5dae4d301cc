#ifndef TENET_COMMON_CIRCUIT_BREAKER_H_
#define TENET_COMMON_CIRCUIT_BREAKER_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"

namespace tenet {

// State of a CircuitBreaker, with the classic closed -> open -> half-open
// transitions:
//
//   kClosed    traffic flows; a sliding window of outcomes is watched.
//   kOpen      the dependency is considered down; Allow() refuses until the
//              cooldown elapses (callers route to a degraded tier).
//   kHalfOpen  after the cooldown a few probe requests are let through;
//              consecutive successes close the breaker, any failure
//              re-opens it.
enum class BreakerState { kClosed = 0, kOpen = 1, kHalfOpen = 2 };

/// Canonical lower_snake_case name of a breaker state ("closed", "open",
/// "half_open") for logs and stats tables.
std::string_view BreakerStateToString(BreakerState state);

struct CircuitBreakerOptions {
  /// Number of most-recent outcomes considered by the failure-rate window.
  int window_size = 64;
  /// The breaker never trips before the window holds this many outcomes,
  /// so a single early failure cannot open it.
  int min_samples = 16;
  /// Failure rate (failures / outcomes in window) at or above which the
  /// breaker trips open.
  double failure_threshold = 0.5;
  /// How long an open breaker refuses before letting probes through.
  double open_cooldown_ms = 50.0;
  /// Requests admitted as probes while half-open; the allowance is
  /// replenished by successful probe outcomes so a slow trickle of
  /// observations can still close the breaker.
  int half_open_probes = 4;
  /// Consecutive successful outcomes, observed while half-open, required
  /// to close the breaker again.
  int half_open_successes = 4;
  /// Registry receiving the breaker's transition counters, state gauge and
  /// operation counters (tenet_breaker_transitions_total{dependency=,to=},
  /// tenet_breaker_state{dependency=},
  /// tenet_dependency_operations_total{dependency=,outcome=}).  Null
  /// publishes to the process-wide default registry; tests inject their own
  /// for isolated windows.
  obs::MetricsRegistry* metrics = nullptr;
};

// A per-dependency circuit breaker driven by a sliding failure-rate
// window, in the style of the resilience layers of large serving systems
// (Hystrix, Envoy outlier detection).  Two call paths feed it:
//
//   Allow()           the routing decision, taken once per request before
//                     touching the dependency; false means "serve degraded".
//   RecordOutcomes()  the observation stream, one call per request with the
//                     ok and failed operation counts of its record
//                     (DependencyOutcomes), after linking.
//
// The window counts operations, not requests: one document may touch a
// dependency dozens of times (alias lookups) or once (the cover solve),
// and the breaker cares about the aggregate health signal.  Feeding a
// request's counts in one call is the same as feeding its failures one by
// one and then its successes, so a half-open probe request that saw any
// failure trips the breaker again.  All methods are thread-safe; each
// takes the mutex once.
class CircuitBreaker {
 public:
  struct Stats {
    int64_t outcomes = 0;   // observations recorded
    int64_t failures = 0;   // failed observations
    int64_t rejected = 0;   // Allow() calls refused
    int trips = 0;          // closed/half-open -> open transitions
    int closes = 0;         // half-open -> closed transitions
  };

  explicit CircuitBreaker(std::string name, CircuitBreakerOptions options = {});

  CircuitBreaker(const CircuitBreaker&) = delete;
  CircuitBreaker& operator=(const CircuitBreaker&) = delete;

  /// Routing decision: true when the request may use the dependency.
  bool Allow();

  /// Feeds one request's operation counts into the window under one lock:
  /// the `failed` outcomes first, then the `ok` ones, each through the
  /// per-outcome transitions of RecordOutcome.  Also counts them into
  /// tenet_dependency_operations_total.
  void RecordOutcomes(int64_t ok, int64_t failed);

  /// Feeds one dependency operation outcome: RecordOutcomes(1, 0) or
  /// RecordOutcomes(0, 1).
  void RecordOutcome(bool ok);

  /// Hands back a half-open probe granted by Allow() that the caller ended
  /// up not using (e.g. a sibling breaker forced the request onto the
  /// degraded tier, so this dependency was never touched).  Without the
  /// return, unused probes would drain the allowance with no outcome ever
  /// arriving and the breaker would be stuck half-open.  No-op outside the
  /// half-open state.
  void ReturnProbe();

  BreakerState state() const;
  Stats stats() const;
  const std::string& name() const { return name_; }
  const CircuitBreakerOptions& options() const { return options_; }

 private:
  using Clock = std::chrono::steady_clock;

  // All private transitions run under mu_.
  void RecordOutcomeLocked(bool ok);
  void TripLocked();
  void CloseLocked();
  double WindowFailureRateLocked() const;

  /// Publishes a state change: the transition counter for `to` and the
  /// state gauge.  Called under mu_.
  void RecordTransitionLocked(BreakerState to);

  const std::string name_;
  const CircuitBreakerOptions options_;

  // Registry-backed observability (resolved once at construction; the
  // pointers are stable for the registry's lifetime).
  obs::Counter* transitions_to_[3] = {nullptr, nullptr, nullptr};
  obs::Gauge* state_gauge_ = nullptr;
  obs::Counter* operations_ok_ = nullptr;
  obs::Counter* operations_error_ = nullptr;

  mutable std::mutex mu_;
  BreakerState state_ = BreakerState::kClosed;
  Clock::time_point opened_at_{};
  // Ring buffer of the last window_size outcomes (1 = failure).
  std::vector<uint8_t> window_;
  int window_next_ = 0;
  int window_count_ = 0;
  int window_failures_ = 0;
  // Half-open bookkeeping.
  int probes_left_ = 0;
  int success_streak_ = 0;
  Stats stats_;
};

// A token bucket shared between every retry site of the serving layer, so
// retries cannot amplify an outage (the "retry budget" of Finagle/Envoy):
// each retry spends one token, each successful first attempt deposits a
// fraction of one.  When a dependency is down, failures stop the deposits,
// the bucket drains, and the whole fleet of workers collectively stops
// retrying instead of multiplying the load on the struggling dependency.
class RetryBudget {
 public:
  struct Options {
    /// Tokens in the bucket at start (and its cap).
    double max_tokens = 10.0;
    /// Deposit per successful first attempt.
    double deposit_per_success = 0.1;
    /// Cost of one retry.
    double cost_per_retry = 1.0;
    /// Registry receiving the tenet_retry_budget_tokens gauge.  Null
    /// publishes to the process-wide default registry.
    obs::MetricsRegistry* metrics = nullptr;
  };

  RetryBudget();
  explicit RetryBudget(Options options);

  /// Spends one retry's worth of tokens; false (and no spend) when the
  /// bucket cannot cover it — the caller must skip the retry.
  bool TryAcquireRetry();

  /// Deposits for a successful first attempt.
  void RecordSuccess();

  double tokens() const;

 private:
  const Options options_;
  obs::Gauge* tokens_gauge_ = nullptr;
  mutable std::mutex mu_;
  double tokens_;
};

}  // namespace tenet

#endif  // TENET_COMMON_CIRCUIT_BREAKER_H_
