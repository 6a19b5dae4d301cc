// The traced per-layer pass of the serving benchmark.
//
// A seeded sample of the workload's quality set is replayed serially
// through the public entry point of every layer, in the order
// TenetPipeline::LinkDocument calls them, using the serving generation's
// own view, gazetteer and TenetOptions:
//
//   text        Extractor::ExtractFromText under TextLimits
//   core.canopy BuildMentionSet
//   kb          KbView::CandidateEntities / CandidatePredicates, the calls
//               CoherenceGraphBuilder::Build makes on the same mentions
//   embedding   KbView::GatherUnit over the same candidate rows
//   core.graph  CoherenceGraphBuilder::Build (self time = Build minus the
//               replayed kb and embedding spans, which Build repeats)
//   core.cover  TreeCoverSolver::Solve under the pipeline's RetrySchedule
//   core.disambiguate  Disambiguator::Run
//   serving.session    SessionContext::ApplySessionCoherence + ObserveTurn
//
// Spans (name, start, end, parent, request id) stay in memory and are
// written out at the end.  The replayed links of every document must equal
// the service's answer for it.  The same sample is then linked untraced
// through TenetPipeline::LinkDocument to measure the tracing overhead.
#ifndef TENET_PERFBENCH_REPLAY_H_
#define TENET_PERFBENCH_REPLAY_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "kb/types.h"
#include "serving/kb_generation.h"
#include "serving/session.h"
#include "workloads.h"

namespace perfbench {

// The comparable part of an answer: (mention id, linked concept) pairs.
using Links = std::vector<std::pair<int, tenet::kb::ConceptRef>>;

Links LinksOf(const tenet::core::LinkingResult& result);

/// Options of a conversation's SessionContext with a cache of
/// `cache_bytes`.
tenet::serving::SessionOptions SessionOptionsFor(size_t cache_bytes);

// One replay unit: a conversation's turns in order (a single document for
// the document workloads), each with the service's answer.
struct ReplayUnit {
  std::vector<const Input*> turns;
  std::vector<const Links*> answers;
};

struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int parent;   // index into the span list, -1 for a request's root
  int request;  // replayed document number
};

struct ReplayReport {
  /// Per-layer metrics owned by the replay, by BENCHMARK.json name.
  std::map<std::string, double> metrics;
  /// Mean Build + cover time per replayed document, in milliseconds.
  double graph_cover_ms = 0.0;
  /// Documents whose replayed links differ from the service's answer.
  int mismatches = 0;
  int documents = 0;
  std::vector<Span> spans;
};

/// Replays `units` through the layers of `generation` (see file comment).
/// `session_cache_bytes` sizes each conversation's SessionContext cache
/// when `sessions` is true.
ReplayReport Replay(const tenet::serving::KbGeneration& generation,
                    const std::vector<ReplayUnit>& units, bool sessions,
                    size_t session_cache_bytes);

/// Writes `spans` as one JSON object per line; false on I/O failure.
bool WriteSpans(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // TENET_PERFBENCH_REPLAY_H_
