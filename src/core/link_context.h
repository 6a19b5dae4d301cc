#ifndef TENET_CORE_LINK_CONTEXT_H_
#define TENET_CORE_LINK_CONTEXT_H_

#include <optional>

#include "common/deadline.h"
#include "common/dependency_health.h"
#include "obs/trace.h"

namespace tenet {
namespace core {

// The per-request envelope of every Link* call — the one place a request's
// cross-cutting knobs live, so adding one (a priority, a cache hint, a
// sampling decision) never again multiplies the Link* overload set the way
// the raw Deadline argument did.
//
// A default-constructed LinkContext means "the callee's configured
// policy": no deadline override, no tracing.  LinkContext is a cheap value
// type; pass it by const reference down the pipeline.
struct LinkContext {
  /// Compute budget for this request.  Unset leaves the callee's own
  /// deadline policy in charge (TenetOptions::deadline_ms for the
  /// pipeline, ServingOptions::default_deadline_ms for the service);
  /// an explicitly set deadline — including Deadline::Expired(), the
  /// serving layer's route-to-degraded signal — overrides it.
  std::optional<Deadline> deadline;

  /// Optional per-request trace.  When non-null, the pipeline records its
  /// stage spans, cover retries and degradation rungs into it.  The trace
  /// must outlive the call and is written from the serving thread of this
  /// request only (Trace is deliberately not thread-safe).
  obs::Trace* trace = nullptr;

  /// Caps this request at the pair-link rung of the degradation ladder:
  /// the pipeline skips the coherence-graph and tree-cover stages and
  /// serves the document by greedy pair-linking under the remaining
  /// budget (DegradationInfo::Mode::kPairLink).  The serving layer sets
  /// it when only the cover-solve circuit breaker is open — candidate
  /// lookups and embeddings are healthy, so an answer better than
  /// prior-only is still affordable.
  bool cap_to_pair_link = false;

  /// Optional per-request record of dependency outcomes.  When non-null,
  /// every alias lookup, embedding fetch and cover solve the call makes is
  /// counted into it, ok or failed.  Like the trace, it must outlive the
  /// call and is written from the serving thread only.  The serving layer
  /// sets its own record on every call it makes and feeds its circuit
  /// breakers from it after linking.
  DependencyOutcomes* outcomes = nullptr;

  /// The deadline this request should run under, given the callee's
  /// default policy.
  Deadline deadline_or(const Deadline& fallback) const {
    return deadline.has_value() ? *deadline : fallback;
  }

  static LinkContext WithDeadline(Deadline deadline) {
    LinkContext context;
    context.deadline = deadline;
    return context;
  }

  static LinkContext WithTrace(obs::Trace* trace) {
    LinkContext context;
    context.trace = trace;
    return context;
  }
};

}  // namespace core
}  // namespace tenet

#endif  // TENET_CORE_LINK_CONTEXT_H_
