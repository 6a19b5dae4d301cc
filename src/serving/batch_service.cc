#include "serving/batch_service.h"

#include <condition_variable>
#include <mutex>
#include <utility>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/timer.h"
#include "serving/kb_generation.h"

namespace tenet {
namespace serving {
namespace {

// Request-level retry eligibility: transient producer-side errors only.
// Deadline expiry can only get worse, invalid input can only repeat.
bool IsRetryable(const Status& status) {
  return status.code() == StatusCode::kInternal ||
         status.code() == StatusCode::kBoundTooSmall;
}

obs::MetricsRegistry* ResolveRegistry(const ServingOptions& options) {
  return options.metrics != nullptr ? options.metrics
                                    : obs::MetricsRegistry::Default();
}

AdmissionOptions ResolveAdmission(const ServingOptions& options) {
  AdmissionOptions admission = options.admission;
  if (admission.max_pending == 0) {
    admission.max_pending =
        static_cast<int>(options.queue_capacity) + options.num_threads;
  }
  if (admission.metrics == nullptr) admission.metrics = options.metrics;
  return admission;
}

CircuitBreakerOptions ResolveBreaker(const ServingOptions& options) {
  CircuitBreakerOptions breaker = options.breaker;
  if (breaker.metrics == nullptr) breaker.metrics = options.metrics;
  return breaker;
}

RetryBudget::Options ResolveRetryBudget(const ServingOptions& options) {
  RetryBudget::Options budget = options.retry_budget;
  if (budget.metrics == nullptr) budget.metrics = options.metrics;
  return budget;
}

ThreadPool::Options PoolOptions(const ServingOptions& options) {
  ThreadPool::Options pool;
  pool.num_threads = options.num_threads;
  pool.queue_capacity = options.queue_capacity;
  pool.overflow = options.overflow;
  return pool;
}

constexpr int Index(Dependency dependency) {
  return static_cast<int>(dependency);
}

constexpr const char* kCompletedHelp =
    "Requests that reached a worker and resolved, by outcome.";
constexpr const char* kSwapHelp =
    "KB generation swap attempts: ok = published, rolled_back = failed "
    "(injected fault, id regression, or all RCU slots pinned) with the old "
    "generation kept serving.";

std::shared_ptr<const ServingTarget> LegacyTarget(
    const baselines::Linker* linker) {
  TENET_CHECK(linker != nullptr);
  return std::make_shared<const ServingTarget>(
      ServingTarget{linker, nullptr});
}

std::shared_ptr<const ServingTarget> GenerationTarget(
    std::shared_ptr<const KbGeneration> generation) {
  TENET_CHECK(generation != nullptr);
  const baselines::Linker* linker = &generation->linker();
  return std::make_shared<const ServingTarget>(
      ServingTarget{linker, std::move(generation)});
}

}  // namespace

BatchLinkingService::Instruments BatchLinkingService::MakeInstruments(
    obs::MetricsRegistry* registry) {
  BatchLinkingService::Instruments m;
  m.submitted = registry->GetCounter(
      "tenet_serving_submitted_total",
      "Requests submitted to the serving layer (admitted or shed).");
  m.shed = registry->GetCounter(
      "tenet_serving_shed_total",
      "Requests refused before reaching a worker (admission or full "
      "queue); see tenet_admission_rejected_total for the reason split.");
  m.rejected_queue_full = registry->GetCounter(
      "tenet_admission_rejected_total",
      "Requests shed at the serving front door, by reason (capacity = "
      "pending budget, deadline = too little slack, queue_full = the worker "
      "queue refused).",
      obs::LabelPair("reason", "queue_full"));
  m.completed_full = registry->GetCounter("tenet_serving_completed_total",
                                          kCompletedHelp,
                                          obs::LabelPair("outcome", "full"));
  m.completed_degraded = registry->GetCounter(
      "tenet_serving_completed_total", kCompletedHelp,
      obs::LabelPair("outcome", "degraded"));
  m.completed_failed = registry->GetCounter(
      "tenet_serving_completed_total", kCompletedHelp,
      obs::LabelPair("outcome", "failed"));
  m.breaker_degraded = registry->GetCounter(
      "tenet_serving_breaker_degraded_total",
      "Degraded answers routed down the ladder by an open circuit breaker "
      "(a subset of outcome=\"degraded\").");
  m.retries = registry->GetCounter(
      "tenet_serving_retries_total",
      "Request-level retry attempts granted by the shared retry budget.");
  m.queue_depth = registry->GetGauge(
      "tenet_serving_queue_depth",
      "Requests enqueued for the worker pool and not yet picked up.");
  m.inflight = registry->GetGauge(
      "tenet_serving_inflight", "Requests currently linking on a worker.");
  m.request_latency = registry->GetHistogram(
      "tenet_request_latency_ms",
      "Worker-side processing latency per completed request in "
      "milliseconds, degraded answers included.");
  m.generation = registry->GetGauge(
      "tenet_kb_generation",
      "Id of the KB generation currently serving new requests (0 = legacy "
      "fixed substrate).");
  m.swaps_ok = registry->GetCounter(
      "tenet_kb_swaps_total", kSwapHelp, obs::LabelPair("outcome", "ok"));
  m.swaps_rolled_back =
      registry->GetCounter("tenet_kb_swaps_total", kSwapHelp,
                           obs::LabelPair("outcome", "rolled_back"));
  m.swap_latency = registry->GetHistogram(
      "tenet_kb_swap_latency_ms",
      "Wall time of a successful SwapGeneration, from the call to the "
      "epoch publish, in milliseconds.");
  return m;
}

BatchLinkingService::BatchLinkingService(const baselines::Linker* linker,
                                         ServingOptions options)
    : BatchLinkingService(LegacyTarget(linker), std::move(options)) {}

BatchLinkingService::BatchLinkingService(
    std::shared_ptr<const KbGeneration> generation, ServingOptions options)
    : BatchLinkingService(GenerationTarget(std::move(generation)),
                          std::move(options)) {}

BatchLinkingService::BatchLinkingService(
    std::shared_ptr<const ServingTarget> target, ServingOptions options)
    : options_(options),
      registry_(ResolveRegistry(options)),
      m_(MakeInstruments(registry_)),
      breakers_{
          CircuitBreaker(kKbAliasDependency, ResolveBreaker(options)),
          CircuitBreaker(kEmbeddingDependency, ResolveBreaker(options)),
          CircuitBreaker(kCoverSolveDependency, ResolveBreaker(options))},
      retry_budget_(ResolveRetryBudget(options)),
      admission_(ResolveAdmission(options)),
      target_(target),
      pool_(PoolOptions(options)) {
  m_.generation->Set(static_cast<double>(target->generation_id()));
}

BatchLinkingService::~BatchLinkingService() { pool_.Shutdown(); }

const CircuitBreaker* BatchLinkingService::breaker(
    const char* dependency) const {
  for (const CircuitBreaker& breaker : breakers_) {
    if (breaker.name() == dependency) return &breaker;
  }
  return nullptr;
}

Deadline BatchLinkingService::DefaultDeadline() const {
  return Deadline::AfterMillis(options_.default_deadline_ms);
}

Status BatchLinkingService::Submit(std::string text, Callback done) {
  return Submit(std::move(text), core::LinkContext{}, std::move(done));
}

Status BatchLinkingService::Submit(std::string text, core::LinkContext context,
                                   Callback done) {
  TENET_CHECK(done != nullptr) << "Submit needs a completion callback";
  m_.submitted->Increment();
  const Deadline deadline = context.deadline_or(DefaultDeadline());
  Status admitted = admission_.Admit(deadline);
  if (!admitted.ok()) {
    m_.shed->Increment();
    return admitted;
  }
  // Pin the serving target at the door: whatever generation swaps land
  // while this request waits in the queue, it links against the substrate
  // that admitted it, and that substrate cannot be freed under it.
  Request request{std::move(text), deadline, context.trace, target_.Acquire(),
                  std::move(done)};
  Status queued = pool_.Submit(
      [this, request = std::move(request)]() mutable {
        Process(std::move(request));
      });
  if (!queued.ok()) {
    admission_.Complete();
    m_.shed->Increment();
    m_.rejected_queue_full->Increment();
    // Normalize "queue full" to the admission-shed contract.
    return Status::ResourceExhausted("shed: " + queued.message());
  }
  m_.queue_depth->Add(1.0);
  return Status::Ok();
}

Result<core::LinkingResult> BatchLinkingService::LinkOnce(
    const Request& request, DependencyOutcomes* outcomes) const {
  core::LinkContext context;
  // An infinite request deadline leaves the linker's own per-document
  // policy in charge (and keeps the call bit-identical to a plain
  // LinkDocument, which the offline evaluation relies on).
  if (!request.deadline.infinite()) context.deadline = request.deadline;
  context.trace = request.trace;
  context.outcomes = outcomes;
  return request.target->linker->LinkDocument(request.text, context);
}

void BatchLinkingService::Process(Request request) {
  m_.queue_depth->Add(-1.0);
  m_.inflight->Add(1.0);
  WallTimer timer;
  // Routing: a request that meets any open breaker bypasses the full
  // pipeline instead of hammering the sick dependency with a doomed
  // attempt.  How far down the ladder it lands depends on which
  // dependency is sick: with only the cover-solve breaker open the KB and
  // embeddings are still healthy, so the request keeps its real budget
  // and is capped at the pair-link rung; a KB or embedding outage leaves
  // nothing better than the prior-only rung (expired deadline).
  CircuitBreaker& kb_breaker = breakers_[Index(Dependency::kKbAliasLookup)];
  CircuitBreaker& embedding_breaker =
      breakers_[Index(Dependency::kEmbeddingFetch)];
  CircuitBreaker& cover_breaker = breakers_[Index(Dependency::kCoverSolve)];
  const bool kb_allowed = kb_breaker.Allow();
  const bool embedding_allowed = embedding_breaker.Allow();
  const bool cover_allowed = cover_breaker.Allow();
  const bool breaker_bypass =
      !(kb_allowed && embedding_allowed && cover_allowed);
  const bool pair_link_route = kb_allowed && embedding_allowed &&
                               !cover_allowed;

  // The request's one outcome record, shared by every call below and fed
  // to the breakers once, after the last.
  DependencyOutcomes outcomes;
  Result<core::LinkingResult> result = Status::Internal("not linked");
  if (breaker_bypass) {
    core::LinkContext degraded_context;
    if (pair_link_route) {
      // The pair-link rung still consumes KB candidate lookups and
      // embedding similarities, so those probes stay legitimately spent.
      if (!request.deadline.infinite()) {
        degraded_context.deadline = request.deadline;
      }
      degraded_context.cap_to_pair_link = true;
    } else {
      // The prior-only route will not touch the dependencies, so any
      // half-open probes the other breakers just granted must be handed
      // back — otherwise staggered recoveries starve each other's probes
      // and breakers wedge in half-open.
      if (kb_allowed) kb_breaker.ReturnProbe();
      if (embedding_allowed) embedding_breaker.ReturnProbe();
      if (cover_allowed) cover_breaker.ReturnProbe();
      degraded_context.deadline = Deadline::Expired();
    }
    degraded_context.trace = request.trace;
    degraded_context.outcomes = &outcomes;
    result = request.target->linker->LinkDocument(request.text,
                                                  degraded_context);
  } else {
    RetrySchedule schedule(options_.retry, /*initial_value=*/0.0);
    for (;;) {
      result = LinkOnce(request, &outcomes);
      if (result.ok() || !IsRetryable(result.status())) break;
      if (request.deadline.expired()) break;
      if (schedule.exhausted()) break;
      // The shared budget has the last word: no tokens, no retry —
      // whatever the per-request policy would still allow.
      if (!retry_budget_.TryAcquireRetry()) break;
      schedule.Next();
      m_.retries->Increment();
    }
    if (result.ok()) retry_budget_.RecordSuccess();
  }
  for (int d = 0; d < 3; ++d) {
    breakers_[d].RecordOutcomes(outcomes.ok[d], outcomes.failed[d]);
  }

  if (!result.ok()) {
    m_.completed_failed->Increment();
  } else if (result->degradation.degraded()) {
    m_.completed_degraded->Increment();
    if (breaker_bypass) m_.breaker_degraded->Increment();
  } else {
    m_.completed_full->Increment();
  }
  admission_.Complete();

  ServedResult served;
  served.result = std::move(result);
  served.latency_ms = timer.ElapsedMillis();
  served.shed = false;
  // Degraded and failed requests land in the same latency histogram as
  // full answers: a degraded answer is still a served request, and hiding
  // it would make the tail look better exactly when the ladder engages.
  m_.request_latency->Observe(served.latency_ms);
  m_.inflight->Add(-1.0);
  // Unpin before the callback: the callback may be the last thing keeping
  // a swap waiting (e.g. a test draining requests to free RCU slots), and
  // this request is done with the substrate.
  request.target.Release();
  request.done(std::move(served));
}

Status BatchLinkingService::SwapGeneration(
    std::shared_ptr<const KbGeneration> next) {
  if (next == nullptr) {
    return Status::InvalidArgument("SwapGeneration: null generation");
  }
  WallTimer timer;
  std::lock_guard<std::mutex> lock(swap_mu_);
  const uint64_t current_id = target_.Current()->generation_id();
  if (next->id() <= current_id) {
    m_.swaps_rolled_back->Increment();
    return Status::FailedPrecondition(
        "SwapGeneration: generation ids must advance (serving " +
        std::to_string(current_id) + ", offered " +
        std::to_string(next->id()) + ")");
  }
  const uint64_t next_id = next->id();
  if (TENET_FAULT_POINT("serving/kb_swap")) {
    m_.swaps_rolled_back->Increment();
    return Status::DataLoss(
        "injected fault: kb swap failed; still serving generation " +
        std::to_string(current_id));
  }
  Result<uint64_t> published = target_.Publish(
      GenerationTarget(std::move(next)));
  if (!published.ok()) {
    m_.swaps_rolled_back->Increment();
    return published.status();
  }
  m_.generation->Set(static_cast<double>(next_id));
  m_.swaps_ok->Increment();
  m_.swap_latency->Observe(timer.ElapsedMillis());
  return Status::Ok();
}

std::shared_ptr<const KbGeneration> BatchLinkingService::generation() const {
  return target_.Current()->generation;
}

uint64_t BatchLinkingService::generation_id() const {
  return target_.Current()->generation_id();
}

std::vector<ServedResult> BatchLinkingService::LinkBatch(
    const std::vector<std::string>& texts) {
  std::vector<ServedResult> results(texts.size());
  std::mutex mu;
  std::condition_variable all_done;
  size_t remaining = texts.size();

  for (size_t i = 0; i < texts.size(); ++i) {
    Status submitted = Submit(
        texts[i], [&, i](ServedResult served) {
          std::lock_guard<std::mutex> lock(mu);
          results[i] = std::move(served);
          if (--remaining == 0) all_done.notify_one();
        });
    if (!submitted.ok()) {
      std::lock_guard<std::mutex> lock(mu);
      results[i].result = submitted;
      results[i].shed = true;
      if (--remaining == 0) all_done.notify_one();
    }
  }

  std::unique_lock<std::mutex> lock(mu);
  all_done.wait(lock, [&] { return remaining == 0; });
  return results;
}

ServiceStats BatchLinkingService::Stats() const {
  ServiceStats stats;
  stats.submitted = m_.submitted->Value();
  stats.admitted = admission_.stats().admitted;
  stats.shed = m_.shed->Value();
  stats.full = m_.completed_full->Value();
  stats.degraded = m_.completed_degraded->Value();
  stats.failed = m_.completed_failed->Value();
  stats.completed = stats.full + stats.degraded + stats.failed;
  stats.breaker_degraded = m_.breaker_degraded->Value();
  stats.retries = m_.retries->Value();
  stats.generation = static_cast<int64_t>(m_.generation->Value());
  stats.swaps_ok = m_.swaps_ok->Value();
  stats.swaps_rolled_back = m_.swaps_rolled_back->Value();
  stats.kb_alias_breaker =
      breakers_[Index(Dependency::kKbAliasLookup)].state();
  stats.embedding_breaker =
      breakers_[Index(Dependency::kEmbeddingFetch)].state();
  stats.cover_breaker = breakers_[Index(Dependency::kCoverSolve)].state();
  stats.latency_p50_ms = m_.request_latency->P50();
  stats.latency_p95_ms = m_.request_latency->P95();
  stats.latency_p99_ms = m_.request_latency->P99();
  return stats;
}

}  // namespace serving
}  // namespace tenet
