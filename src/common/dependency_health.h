#ifndef TENET_COMMON_DEPENDENCY_HEALTH_H_
#define TENET_COMMON_DEPENDENCY_HEALTH_H_

#include <cstdint>

namespace tenet {

// The pipeline's failure-prone dependencies, the signal that drives the
// serving layer's circuit breakers.  Each is named by the TENET_FAULT_POINT
// string at its call site, so a chaos schedule armed on a fault point and
// the breaker watching that dependency agree on what they are talking
// about:
//
//   kKbAliasLookup   "kb/alias_lookup"    AliasIndex::Lookup*
//   kEmbeddingFetch  "embedding/fetch"    EmbeddingStore::Cosine/GatherUnit
//   kCoverSolve      "core/cover_solve"   TreeCoverSolver::Solve
enum class Dependency {
  kKbAliasLookup = 0,
  kEmbeddingFetch = 1,
  kCoverSolve = 2,
};

// One request's dependency outcomes: ok and failed operation counts per
// Dependency, as plain integers.  The request owns the record and hands
// it down through core::LinkContext::outcomes; the call sites above bump
// it next to their fault point (a null record costs one branch), and the
// serving layer feeds each breaker once from it after linking.  Not
// thread-safe: one request, one thread.
struct DependencyOutcomes {
  int64_t ok[3] = {};
  int64_t failed[3] = {};

  void Record(Dependency dependency, bool ok_outcome) {
    ++(ok_outcome ? ok : failed)[static_cast<int>(dependency)];
  }
};

}  // namespace tenet

#endif  // TENET_COMMON_DEPENDENCY_HEALTH_H_
