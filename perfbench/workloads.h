// Workload definitions and seeded input generation of the serving
// benchmark.  Every input a run sends — document texts with their gold,
// conversation turns — is generated here from the workload seed before
// anything is timed; the service under test only ever receives texts (and,
// on hostile_live, KB deltas built by the generator thread).
#ifndef TENET_PERFBENCH_WORKLOADS_H_
#define TENET_PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "datasets/document.h"
#include "datasets/session_generator.h"
#include "kb/synthetic_kb.h"

namespace perfbench {

// The fixed parameters of one traffic shape.  BENCHMARK.json repeats the
// rate, latency limit, update interval and cache budget in each workload's
// "why" line; keep the two in step.
struct WorkloadConfig {
  const char* name;
  /// KB tier: SyntheticKbOptions::Huge() (~58k entities) or the default
  /// evaluation world (~560 entities).
  bool huge_world;
  /// True: inputs are multi-turn conversations whose turns are chained.
  bool sessions;
  /// Open-loop arrival rate: documents/s, or session starts/s.
  double rate_per_s;
  /// Latency limit of slo_attainment, in milliseconds.
  double latency_limit_ms;
  /// Mean client think time between a reply and the next turn (sessions).
  double think_ms;
  /// Submissions between live KB updates; 0 = no updates.
  int update_every;
  /// Byte budget of the service-owned similarity cache.
  size_t service_cache_bytes;
  /// Byte budget of each conversation's own similarity cache (sessions).
  size_t session_cache_bytes;
  /// Requests (or conversations) kept outstanding in the closed loop.
  int closed_outstanding;
};

/// The workload named `name`, or null.
const WorkloadConfig* FindWorkload(std::string_view name);

// One request input: a text plus the gold it is scored against.
struct Input {
  tenet::datasets::Document doc;
  bool has_relation_gold = false;
};

// A conversation: its turns, sent one after another.
struct Conversation {
  std::vector<Input> turns;
};

// The seeded inputs of one run.  The first `quality` entries form the
// quality set: sent once before anything is timed (the warm-up), scored
// for entity/relation F1, and replayed by the traced pass.  Everything
// after them feeds the timed phases, so no text of the quality set is sent
// twice.
struct Inputs {
  std::vector<Input> docs;                 // document workloads
  std::vector<Conversation> conversations;  // session workloads
  size_t quality = 0;

  size_t size() const {
    return docs.empty() ? conversations.size() : docs.size();
  }
  /// Turns of unit `u` (1 for a document) and turn `t` of it.
  size_t turns(size_t u) const {
    return docs.empty() ? conversations[u].turns.size() : 1;
  }
  const Input& turn(size_t u, size_t t) const {
    return docs.empty() ? conversations[u].turns[t] : docs[u];
  }
};

/// Generates `pool` inputs (documents or conversations) of `workload` over
/// `world` from `seed`; the quality set comes first.
Inputs GenerateInputs(const WorkloadConfig& workload,
                      const tenet::kb::SyntheticKb& world, uint64_t seed,
                      size_t pool);

/// The default pool size of `workload`: enough fresh inputs for the timed
/// phases of a run of `seconds` with headroom for a several-fold faster
/// service (the timed phases wrap around past it and say so).
size_t DefaultPoolSize(const WorkloadConfig& workload, double seconds);

}  // namespace perfbench

#endif  // TENET_PERFBENCH_WORKLOADS_H_
