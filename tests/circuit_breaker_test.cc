// CircuitBreaker state machine (closed -> open -> half-open -> closed /
// re-open) and the shared RetryBudget token bucket.
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/circuit_breaker.h"
#include "common/rng.h"
#include "obs/metrics.h"

namespace tenet {
namespace {

CircuitBreakerOptions FastOptions() {
  CircuitBreakerOptions options;
  options.window_size = 8;
  options.min_samples = 4;
  options.failure_threshold = 0.5;
  options.open_cooldown_ms = 5.0;
  options.half_open_probes = 2;
  options.half_open_successes = 2;
  return options;
}

void WaitForCooldown(const CircuitBreakerOptions& options) {
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
      options.open_cooldown_ms + 2.0));
}

TEST(CircuitBreakerTest, StaysClosedBelowThreshold) {
  CircuitBreaker breaker("dep", FastOptions());
  for (int i = 0; i < 50; ++i) {
    breaker.RecordOutcome(/*ok=*/i % 4 != 0);  // 25% failure rate
    EXPECT_TRUE(breaker.Allow());
  }
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_EQ(breaker.stats().trips, 0);
}

TEST(CircuitBreakerTest, DoesNotTripBeforeMinSamples) {
  CircuitBreaker breaker("dep", FastOptions());
  breaker.RecordOutcome(false);
  breaker.RecordOutcome(false);
  breaker.RecordOutcome(false);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  breaker.RecordOutcome(false);  // 4th sample reaches min_samples
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
}

TEST(CircuitBreakerTest, OpenRefusesUntilCooldown) {
  CircuitBreakerOptions options = FastOptions();
  options.open_cooldown_ms = 60000.0;  // effectively forever for this test
  CircuitBreaker breaker("dep", options);
  for (int i = 0; i < 4; ++i) breaker.RecordOutcome(false);
  ASSERT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_FALSE(breaker.Allow());
  EXPECT_FALSE(breaker.Allow());
  EXPECT_EQ(breaker.stats().rejected, 2);
}

TEST(CircuitBreakerTest, HalfOpenClosesAfterSuccessStreak) {
  CircuitBreakerOptions options = FastOptions();
  CircuitBreaker breaker("dep", options);
  for (int i = 0; i < 4; ++i) breaker.RecordOutcome(false);
  ASSERT_EQ(breaker.state(), BreakerState::kOpen);
  WaitForCooldown(options);
  EXPECT_TRUE(breaker.Allow());  // first probe flips open -> half-open
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  breaker.RecordOutcome(true);
  breaker.RecordOutcome(true);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_EQ(breaker.stats().closes, 1);
}

TEST(CircuitBreakerTest, HalfOpenFailureReopens) {
  CircuitBreakerOptions options = FastOptions();
  CircuitBreaker breaker("dep", options);
  for (int i = 0; i < 4; ++i) breaker.RecordOutcome(false);
  WaitForCooldown(options);
  EXPECT_TRUE(breaker.Allow());
  ASSERT_EQ(breaker.state(), BreakerState::kHalfOpen);
  breaker.RecordOutcome(false);
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.stats().trips, 2);
  EXPECT_FALSE(breaker.Allow());  // cooldown restarted
}

TEST(CircuitBreakerTest, HalfOpenLimitsProbesAndReplenishesOnSuccess) {
  CircuitBreakerOptions options = FastOptions();
  options.half_open_probes = 1;
  options.half_open_successes = 3;
  CircuitBreaker breaker("dep", options);
  for (int i = 0; i < 4; ++i) breaker.RecordOutcome(false);
  WaitForCooldown(options);
  EXPECT_TRUE(breaker.Allow());   // the single probe
  EXPECT_FALSE(breaker.Allow());  // allowance spent
  breaker.RecordOutcome(true);    // probe came back healthy
  EXPECT_TRUE(breaker.Allow());   // allowance replenished
  breaker.RecordOutcome(true);
  breaker.RecordOutcome(true);    // streak of 3 closes
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
}

TEST(CircuitBreakerTest, ReturnProbeRestoresUnusedAllowance) {
  CircuitBreakerOptions options = FastOptions();
  options.half_open_probes = 1;
  CircuitBreaker breaker("dep", options);
  for (int i = 0; i < 4; ++i) breaker.RecordOutcome(false);
  WaitForCooldown(options);
  EXPECT_TRUE(breaker.Allow());   // the single probe
  EXPECT_FALSE(breaker.Allow());  // allowance spent
  breaker.ReturnProbe();          // caller never touched the dependency
  EXPECT_TRUE(breaker.Allow());   // allowance restored
  breaker.ReturnProbe();
  breaker.ReturnProbe();  // cannot exceed the configured allowance
  EXPECT_TRUE(breaker.Allow());
  EXPECT_FALSE(breaker.Allow());
}

TEST(CircuitBreakerTest, ReturnProbeIsANoOpOutsideHalfOpen) {
  CircuitBreaker breaker("dep", FastOptions());
  breaker.ReturnProbe();  // closed: nothing to restore
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_TRUE(breaker.Allow());
}

TEST(CircuitBreakerTest, TripClearsTheWindow) {
  CircuitBreakerOptions options = FastOptions();
  CircuitBreaker breaker("dep", options);
  for (int i = 0; i < 4; ++i) breaker.RecordOutcome(false);
  ASSERT_EQ(breaker.state(), BreakerState::kOpen);
  WaitForCooldown(options);
  ASSERT_TRUE(breaker.Allow());
  breaker.RecordOutcome(true);
  breaker.RecordOutcome(true);
  ASSERT_EQ(breaker.state(), BreakerState::kClosed);
  // The outage-era failures are gone: it takes min_samples fresh outcomes
  // (not one) to trip again.
  breaker.RecordOutcome(false);
  breaker.RecordOutcome(false);
  breaker.RecordOutcome(false);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  breaker.RecordOutcome(false);
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
}

TEST(CircuitBreakerTest, StateNamesAreStable) {
  EXPECT_EQ(BreakerStateToString(BreakerState::kClosed), "closed");
  EXPECT_EQ(BreakerStateToString(BreakerState::kOpen), "open");
  EXPECT_EQ(BreakerStateToString(BreakerState::kHalfOpen), "half_open");
}

// The transition and operation counters a breaker named "dep" publishes.
std::vector<int64_t> PublishedCounters(obs::MetricsRegistry& registry) {
  const std::string dep = obs::LabelPair("dependency", "dep");
  std::vector<int64_t> values;
  for (const char* to : {"closed", "open", "half_open"}) {
    values.push_back(registry
                         .GetCounter("tenet_breaker_transitions_total", "",
                                     dep + "," + obs::LabelPair("to", to))
                         ->Value());
  }
  for (const char* outcome : {"ok", "error"}) {
    values.push_back(
        registry
            .GetCounter("tenet_dependency_operations_total", "",
                        dep + "," + obs::LabelPair("outcome", outcome))
            ->Value());
  }
  return values;
}

void ExpectSameBreaker(const CircuitBreaker& a, const CircuitBreaker& b) {
  EXPECT_EQ(a.state(), b.state());
  const CircuitBreaker::Stats sa = a.stats();
  const CircuitBreaker::Stats sb = b.stats();
  EXPECT_EQ(sa.outcomes, sb.outcomes);
  EXPECT_EQ(sa.failures, sb.failures);
  EXPECT_EQ(sa.rejected, sb.rejected);
  EXPECT_EQ(sa.trips, sb.trips);
  EXPECT_EQ(sa.closes, sb.closes);
}

// One request's counts fed in one call equal its failures fed one by one,
// then its successes: from each starting state, random batches leave twin
// breakers with the same state, stats and published counters.  A zero
// cooldown makes Allow() deterministic (an open breaker always turns
// half-open), so both twins can take the same routing calls in between.
TEST(CircuitBreakerTest, BatchedFeedEqualsPerOutcomeFeed) {
  CircuitBreakerOptions options = FastOptions();
  options.open_cooldown_ms = 0.0;
  int trips = 0;
  int closes = 0;
  for (BreakerState start : {BreakerState::kClosed, BreakerState::kOpen,
                             BreakerState::kHalfOpen}) {
    SCOPED_TRACE(std::string(BreakerStateToString(start)));
    for (uint64_t seed = 1; seed <= 20; ++seed) {
      SCOPED_TRACE(seed);
      obs::MetricsRegistry batched_registry;
      obs::MetricsRegistry single_registry;
      options.metrics = &batched_registry;
      CircuitBreaker batched("dep", options);
      options.metrics = &single_registry;
      CircuitBreaker single("dep", options);
      for (CircuitBreaker* breaker : {&batched, &single}) {
        if (start == BreakerState::kClosed) continue;
        for (int i = 0; i < options.min_samples; ++i) {
          breaker->RecordOutcome(false);
        }
        if (start == BreakerState::kHalfOpen) breaker->Allow();
      }
      ASSERT_EQ(batched.state(), start);
      ASSERT_EQ(single.state(), start);

      Rng rng(seed);
      for (int step = 0; step < 40; ++step) {
        const int64_t ok = rng.NextInt(0, 12);
        const int64_t failed = rng.NextBool(0.5) ? 0 : rng.NextInt(1, 3);
        batched.RecordOutcomes(ok, failed);
        for (int64_t i = 0; i < failed; ++i) single.RecordOutcome(false);
        for (int64_t i = 0; i < ok; ++i) single.RecordOutcome(true);
        ExpectSameBreaker(batched, single);
        if (rng.NextBool(0.4)) {
          EXPECT_EQ(batched.Allow(), single.Allow());
        }
      }
      ExpectSameBreaker(batched, single);
      EXPECT_EQ(PublishedCounters(batched_registry),
                PublishedCounters(single_registry));
      trips += batched.stats().trips;
      closes += batched.stats().closes;
    }
  }
  // The random batches drove the breakers through both transitions.
  EXPECT_GT(trips, 0);
  EXPECT_GT(closes, 0);
}

TEST(RetryBudgetTest, DrainsAndStopsRetries) {
  RetryBudget::Options options;
  options.max_tokens = 2.0;
  options.cost_per_retry = 1.0;
  options.deposit_per_success = 0.0;
  RetryBudget budget(options);
  EXPECT_TRUE(budget.TryAcquireRetry());
  EXPECT_TRUE(budget.TryAcquireRetry());
  EXPECT_FALSE(budget.TryAcquireRetry());  // bankrupt: retries stop
}

TEST(RetryBudgetTest, SuccessesReplenishUpToTheCap) {
  RetryBudget::Options options;
  options.max_tokens = 1.0;
  options.cost_per_retry = 1.0;
  options.deposit_per_success = 0.5;
  RetryBudget budget(options);
  EXPECT_TRUE(budget.TryAcquireRetry());
  EXPECT_FALSE(budget.TryAcquireRetry());
  budget.RecordSuccess();
  EXPECT_FALSE(budget.TryAcquireRetry());  // 0.5 < cost
  budget.RecordSuccess();
  EXPECT_TRUE(budget.TryAcquireRetry());  // two deposits cover one retry
  for (int i = 0; i < 10; ++i) budget.RecordSuccess();
  EXPECT_DOUBLE_EQ(budget.tokens(), 1.0);  // capped at max_tokens
}

}  // namespace
}  // namespace tenet
