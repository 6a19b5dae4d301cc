#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>
#include <utility>

#include "common/rng.h"
#include "datasets/adversarial.h"
#include "datasets/corpus_generator.h"
#include "datasets/spec.h"

namespace perfbench {
namespace {

using tenet::Rng;
namespace datasets = tenet::datasets;

// Why each workload exists is written up in perfbench/README.md.  The
// document rates sit at about half the closed-loop capacity measured on a
// 4-vCPU virtual machine: busy enough that the workers stay awake between
// requests, idle enough that the open-loop queue builds no backlog.
const std::vector<WorkloadConfig> kWorkloads = {
    {"huge_docs", /*huge_world=*/true, /*sessions=*/false,
     /*rate_per_s=*/350.0, /*latency_limit_ms=*/50.0, /*think_ms=*/0.0,
     /*update_every=*/0, /*service_cache_bytes=*/16u << 20,
     /*session_cache_bytes=*/0, /*closed_outstanding=*/6},
    {"chat_sessions", /*huge_world=*/false, /*sessions=*/true,
     /*rate_per_s=*/1500.0, /*latency_limit_ms=*/5.0, /*think_ms=*/2.0,
     /*update_every=*/0, /*service_cache_bytes=*/0,
     /*session_cache_bytes=*/1u << 20, /*closed_outstanding=*/48},
    {"hostile_live", /*huge_world=*/false, /*sessions=*/false,
     /*rate_per_s=*/500.0, /*latency_limit_ms=*/50.0, /*think_ms=*/0.0,
     /*update_every=*/250, /*service_cache_bytes=*/8u << 20,
     /*session_cache_bytes=*/0, /*closed_outstanding=*/12},
};

// Quality-set sizes, large enough that F1 moves little from seed to seed:
// huge_docs 120 MSNBC19-profile documents, hostile_live three draws of the
// four standard corpora (News 16, T-REx42 42, KORE50 50, MSNBC19 19 each),
// chat_sessions 400 conversations.  Each set is generated from its own
// fork of the seed, so it is the same whatever the pool size.
constexpr size_t kHugeQualityDocs = 120;
constexpr int kHostileQualityDraws = 3;
constexpr size_t kSessionQuality = 400;

std::vector<Input> ToInputs(datasets::Dataset dataset) {
  std::vector<Input> out;
  out.reserve(dataset.documents.size());
  for (datasets::Document& doc : dataset.documents) {
    out.push_back(Input{std::move(doc), dataset.has_relation_gold});
  }
  return out;
}

// Appends the inputs of `extra` whose text has not been seen yet.
void AppendFresh(std::vector<Input> extra, std::vector<Input>* docs,
                 std::unordered_set<std::string>* seen) {
  for (Input& input : extra) {
    if (seen->insert(input.doc.text).second) {
      docs->push_back(std::move(input));
    }
  }
}

Inputs HugeDocs(const tenet::kb::SyntheticKb& world, uint64_t seed,
                size_t pool) {
  datasets::CorpusGenerator generator(&world);
  Rng rng(seed);
  Rng quality_rng = rng.Fork(1);
  Rng pool_rng = rng.Fork(2);
  datasets::DatasetSpec spec = datasets::Msnbc19Spec();
  spec.name = "MSNBC19-huge";
  spec.num_docs = static_cast<int>(kHugeQualityDocs);
  Inputs inputs;
  inputs.docs = ToInputs(generator.Generate(spec, quality_rng));
  inputs.quality = inputs.docs.size();
  std::unordered_set<std::string> seen;
  for (const Input& input : inputs.docs) seen.insert(input.doc.text);
  spec.num_docs = static_cast<int>(pool > inputs.quality ? pool - inputs.quality
                                                         : 0);
  AppendFresh(ToInputs(generator.Generate(spec, pool_rng)), &inputs.docs,
              &seen);
  return inputs;
}

Inputs HostileLive(const tenet::kb::SyntheticKb& world, uint64_t seed,
                   size_t pool) {
  datasets::CorpusGenerator generator(&world);
  Rng rng(seed);
  Rng quality_rng = rng.Fork(1);
  Rng pool_rng = rng.Fork(2);
  const std::vector<datasets::DatasetSpec> specs = {
      datasets::NewsSpec(), datasets::TRex42Spec(), datasets::Kore50Spec(),
      datasets::Msnbc19Spec()};

  // Quality set: the four standard corpora at their published sizes,
  // drawn kHostileQualityDraws times.
  Inputs inputs;
  std::unordered_set<std::string> seen;
  for (int draw = 0; draw < kHostileQualityDraws; ++draw) {
    for (const datasets::DatasetSpec& spec : specs) {
      for (Input& input : ToInputs(generator.Generate(spec, quality_rng))) {
        seen.insert(input.doc.text);
        inputs.docs.push_back(std::move(input));
      }
    }
  }
  inputs.quality = inputs.docs.size();
  size_t standard = 0;
  for (const datasets::DatasetSpec& spec : specs) {
    standard += static_cast<size_t>(spec.num_docs);
  }

  // Timed pool: the same four profiles in the same proportions, shuffled
  // together so every stretch of traffic mixes short and long documents.
  std::vector<Input> extra;
  const size_t wanted = pool > inputs.quality ? pool - inputs.quality : 0;
  for (datasets::DatasetSpec spec : specs) {
    spec.num_docs = static_cast<int>(std::ceil(
        static_cast<double>(wanted) * spec.num_docs / standard));
    for (Input& input : ToInputs(generator.Generate(spec, pool_rng))) {
      extra.push_back(std::move(input));
    }
  }
  pool_rng.Shuffle(extra);
  AppendFresh(std::move(extra), &inputs.docs, &seen);

  // The adversarial tier over everything; each document's mutation stream
  // is keyed by its pool index, so the quality set mutates identically
  // whatever the pool size.
  datasets::AdversarialSpec adversarial;
  adversarial.seed = seed * 0x9E3779B97F4A7C15ull + 1337;
  datasets::AdversarialMutator mutator(adversarial);
  for (size_t i = 0; i < inputs.docs.size(); ++i) {
    inputs.docs[i].doc = mutator.Mutate(inputs.docs[i].doc, i);
  }
  return inputs;
}

std::vector<Conversation> Conversations(const tenet::kb::SyntheticKb& world,
                                       size_t count, uint64_t seed, Rng& rng) {
  datasets::SessionGenerator generator(&world);
  datasets::SessionSpec spec;
  spec.num_sessions = static_cast<int>(count);
  spec.seed = seed;
  std::vector<Conversation> out;
  for (datasets::Session& session : generator.Generate(spec, rng).sessions) {
    Conversation conversation;
    for (datasets::Document& turn : session.turns) {
      conversation.turns.push_back(Input{std::move(turn), false});
    }
    out.push_back(std::move(conversation));
  }
  return out;
}

Inputs ChatSessions(const tenet::kb::SyntheticKb& world, uint64_t seed,
                    size_t pool) {
  Rng rng(seed);
  Rng quality_rng = rng.Fork(1);
  Rng pool_rng = rng.Fork(2);
  Inputs inputs;
  inputs.conversations =
      Conversations(world, kSessionQuality, seed * 2 + 1, quality_rng);
  inputs.quality = inputs.conversations.size();
  if (pool > inputs.quality) {
    for (Conversation& c : Conversations(world, pool - inputs.quality,
                                         seed * 2 + 2, pool_rng)) {
      inputs.conversations.push_back(std::move(c));
    }
  }
  return inputs;
}

}  // namespace

const WorkloadConfig* FindWorkload(std::string_view name) {
  for (const WorkloadConfig& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

Inputs GenerateInputs(const WorkloadConfig& workload,
                      const tenet::kb::SyntheticKb& world, uint64_t seed,
                      size_t pool) {
  if (workload.sessions) return ChatSessions(world, seed, pool);
  if (workload.huge_world) return HugeDocs(world, seed, pool);
  return HostileLive(world, seed, pool);
}

size_t DefaultPoolSize(const WorkloadConfig& workload, double seconds) {
  // Units (documents or conversations) per second of run the pool is sized
  // for, above what a run consumed when the benchmark was written (1.8x on
  // huge_docs, 1.4x on hostile_live).  chat_sessions is capped to keep its
  // memory small and reuses conversations in the closed loop; its caches
  // are per conversation, so reuse gains nothing.
  const double peak_per_s = workload.sessions     ? 1300.0
                            : workload.huge_world ? 800.0
                                                  : 900.0;
  return static_cast<size_t>(peak_per_s * seconds) + 64;
}

}  // namespace perfbench
