#include "eval/harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <latch>
#include <limits>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "serving/batch_service.h"

namespace tenet {
namespace eval {
namespace {

// A deliberate guardrail refusal, as opposed to a malfunction.  The text
// guardrails reject with kInvalidArgument (oversized / un-sanitizable
// input) and admission control sheds with kResourceExhausted; anything
// else that fails a document counts as a crash.
bool IsRejection(const Status& status) {
  return status.code() == StatusCode::kInvalidArgument ||
         status.code() == StatusCode::kResourceExhausted;
}

// Linear-interpolated percentile over an unsorted sample (sorts in place).
// An empty sample has no percentiles: NaN, not 0.0 — an all-rejected run
// must not report itself as infinitely fast (render with FormatLatencyMs).
double Percentile(std::vector<double>& sample, double p) {
  if (sample.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(sample.begin(), sample.end());
  const double rank = p * static_cast<double>(sample.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  if (lo + 1 >= sample.size()) return sample.back();
  const double frac = rank - static_cast<double>(lo);
  return sample[lo] + frac * (sample[lo + 1] - sample[lo]);
}

// Folds the per-document latency sample into the score percentiles.
void FinishLatencies(std::vector<double>& latencies, SystemScores* scores) {
  scores->latency_p50_ms = Percentile(latencies, 0.50);
  scores->latency_p99_ms = Percentile(latencies, 0.99);
}

// Counts one document's outcome — failed (and whether deliberately
// rejected), full, or degraded by rung — into the running scores.
// Returns whether the document was answered and can be scored.
bool CountOutcome(const datasets::Document& doc,
                  const Result<core::LinkingResult>& result,
                  SystemScores* scores) {
  if (!result.ok()) {
    ++scores->failed_documents;
    if (IsRejection(result.status())) ++scores->rejected_documents;
    scores->failures.push_back(DocumentFailure{doc.id, result.status()});
    return false;
  }
  if (result->degradation.degraded()) {
    ++scores->degraded_documents;
    if (result->degradation.mode == core::DegradationInfo::Mode::kPairLink) {
      ++scores->pairlink_documents;
    } else {
      ++scores->prior_only_documents;
    }
  } else {
    ++scores->full_documents;
  }
  return true;
}

// Merges one document's outcome into the running scores.  Shared by the
// serial and parallel paths so the two merge byte-identically; callers
// iterate documents in dataset order.
void ScoreDocument(const baselines::Linker& linker, bool has_relation_gold,
                   const datasets::Document& doc,
                   const Result<core::LinkingResult>& result,
                   SystemScores* scores) {
  if (!CountOutcome(doc, result, scores)) return;
  SystemPrediction prediction = FromLinkingResult(*result);
  scores->entity_linking.Add(ScoreEntityLinking(doc, prediction));
  if (has_relation_gold && linker.links_relations()) {
    scores->relation_linking.Add(ScoreRelationLinking(doc, prediction));
  }
  scores->mention_detection.Add(ScoreMentionDetection(doc, prediction));
  scores->isolated_detection.Add(ScoreIsolatedDetection(doc, prediction));
}

SystemScores EvaluateEndToEndSerial(const baselines::Linker& linker,
                                    const datasets::Dataset& dataset) {
  SystemScores scores;
  scores.system = std::string(linker.name());
  scores.dataset = dataset.name;
  WallTimer wall;
  std::vector<double> latencies;
  latencies.reserve(dataset.documents.size());
  for (const datasets::Document& doc : dataset.documents) {
    WallTimer doc_timer;
    Result<core::LinkingResult> result = linker.LinkDocument(doc.text);
    double doc_ms = doc_timer.ElapsedMillis();
    scores.total_ms += doc_ms;
    if (doc_ms > scores.max_doc_ms) scores.max_doc_ms = doc_ms;
    latencies.push_back(doc_ms);
    ScoreDocument(linker, dataset.has_relation_gold, doc, result, &scores);
  }
  scores.wall_ms = wall.ElapsedMillis();
  FinishLatencies(latencies, &scores);
  scores.metrics = obs::MetricsRegistry::Default()->Snapshot();
  return scores;
}

SystemScores EvaluateEndToEndParallel(const baselines::Linker& linker,
                                      const datasets::Dataset& dataset,
                                      int num_threads) {
  SystemScores scores;
  scores.system = std::string(linker.name());
  scores.dataset = dataset.name;
  WallTimer wall;

  // Offline evaluation wants every document answered exactly as the serial
  // loop would: backpressure instead of shedding, no service-imposed
  // deadline, and an admission budget no batch can exhaust.
  serving::ServingOptions sopts;
  sopts.num_threads = num_threads;
  sopts.queue_capacity =
      dataset.documents.size() + 1;  // whole batch fits; +1 for empty sets
  sopts.overflow = QueueOverflowPolicy::kBlock;
  sopts.admission.max_pending = std::numeric_limits<int>::max();
  serving::BatchLinkingService service(&linker, sopts);

  std::vector<std::string> texts;
  texts.reserve(dataset.documents.size());
  for (const datasets::Document& doc : dataset.documents) {
    texts.push_back(doc.text);
  }
  std::vector<serving::ServedResult> served = service.LinkBatch(texts);

  // Deterministic merge: dataset order, independent of completion order.
  std::vector<double> latencies;
  latencies.reserve(dataset.documents.size());
  for (size_t i = 0; i < dataset.documents.size(); ++i) {
    scores.total_ms += served[i].latency_ms;
    if (served[i].latency_ms > scores.max_doc_ms) {
      scores.max_doc_ms = served[i].latency_ms;
    }
    latencies.push_back(served[i].latency_ms);
    ScoreDocument(linker, dataset.has_relation_gold, dataset.documents[i],
                  served[i].result, &scores);
  }
  scores.wall_ms = wall.ElapsedMillis();
  FinishLatencies(latencies, &scores);
  scores.metrics = service.metrics()->Snapshot();
  return scores;
}

}  // namespace

SystemScores EvaluateEndToEnd(const baselines::Linker& linker,
                              const datasets::Dataset& dataset) {
  return EvaluateEndToEnd(linker, dataset, EvalOptions{});
}

SystemScores EvaluateEndToEndLive(const baselines::Linker& linker,
                                  serving::BatchLinkingService& service,
                                  const datasets::Dataset& dataset,
                                  const KbUpdatePlan& plan) {
  SystemScores scores;
  scores.system = std::string(linker.name());
  scores.dataset = dataset.name;
  WallTimer wall;

  // Documents are submitted one at a time (not LinkBatch) so updates can
  // land between submissions: every document before an update pins the old
  // generation, every one after pins the new.
  const size_t n = dataset.documents.size();
  std::vector<serving::ServedResult> served(n);
  std::latch drained(static_cast<ptrdiff_t>(n));
  int updates = 0;
  for (size_t i = 0; i < n; ++i) {
    if (plan.every > 0 && plan.apply && i > 0 &&
        i % static_cast<size_t>(plan.every) == 0) {
      plan.apply(service, updates++);
    }
    Status submitted = service.Submit(
        dataset.documents[i].text, [&served, &drained, i](
                                       serving::ServedResult result) {
          served[i] = std::move(result);
          drained.count_down();
        });
    if (!submitted.ok()) {
      // Shed at the door: the callback never runs, account for it here.
      served[i].result = submitted;
      served[i].shed = true;
      drained.count_down();
    }
  }
  drained.wait();

  // Deterministic merge: dataset order, independent of completion order.
  std::vector<double> latencies;
  latencies.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    scores.total_ms += served[i].latency_ms;
    if (served[i].latency_ms > scores.max_doc_ms) {
      scores.max_doc_ms = served[i].latency_ms;
    }
    latencies.push_back(served[i].latency_ms);
    ScoreDocument(linker, dataset.has_relation_gold, dataset.documents[i],
                  served[i].result, &scores);
  }
  scores.wall_ms = wall.ElapsedMillis();
  FinishLatencies(latencies, &scores);
  scores.metrics = service.metrics()->Snapshot();
  return scores;
}

SystemScores EvaluateEndToEnd(const baselines::Linker& linker,
                              const datasets::Dataset& dataset,
                              const EvalOptions& options) {
  if (options.num_threads <= 1) {
    return EvaluateEndToEndSerial(linker, dataset);
  }
  return EvaluateEndToEndParallel(linker, dataset, options.num_threads);
}

SystemScores EvaluateSessions(const baselines::Linker& linker,
                              const kb::KnowledgeBase& kb,
                              const datasets::SessionDataset& sessions,
                              const SessionEvalOptions& options) {
  SystemScores scores;
  scores.system = std::string(linker.name());
  scores.dataset = sessions.name;
  WallTimer wall;
  std::vector<double> latencies;
  latencies.reserve(static_cast<size_t>(sessions.TotalTurns()));
  for (const datasets::Session& session : sessions.sessions) {
    // One context per conversation; turns replay strictly in order.
    serving::SessionContext context(options.session);
    for (const datasets::Document& turn : session.turns) {
      WallTimer doc_timer;
      Result<core::LinkingResult> result =
          options.use_session_context
              ? linker.LinkDocument(turn.text, context.MakeLinkContext())
              : linker.LinkDocument(turn.text);
      if (result.ok() && options.use_session_context) {
        serving::SessionTurnStats stats =
            context.ApplySessionCoherence(kb, &result.value());
        scores.session_relinked += stats.relinked_to_memory;
        scores.session_isolated_resolved += stats.isolated_resolved;
        context.ObserveTurn(result.value());
      }
      double doc_ms = doc_timer.ElapsedMillis();
      scores.total_ms += doc_ms;
      if (doc_ms > scores.max_doc_ms) scores.max_doc_ms = doc_ms;
      latencies.push_back(doc_ms);
      ScoreDocument(linker, /*has_relation_gold=*/false, turn, result,
                    &scores);
    }
  }
  scores.wall_ms = wall.ElapsedMillis();
  FinishLatencies(latencies, &scores);
  scores.metrics = obs::MetricsRegistry::Default()->Snapshot();
  return scores;
}

SystemScores EvaluateDisambiguation(const baselines::Linker& linker,
                                    const datasets::Dataset& dataset,
                                    const text::Gazetteer& gazetteer) {
  SystemScores scores;
  scores.system = std::string(linker.name());
  scores.dataset = dataset.name;
  WallTimer wall;
  std::vector<double> latencies;
  latencies.reserve(dataset.documents.size());
  for (const datasets::Document& doc : dataset.documents) {
    core::MentionSet mentions = MentionSetFromGold(doc, gazetteer);
    WallTimer doc_timer;
    Result<core::LinkingResult> result =
        linker.LinkMentionSet(std::move(mentions));
    double doc_ms = doc_timer.ElapsedMillis();
    scores.total_ms += doc_ms;
    if (doc_ms > scores.max_doc_ms) scores.max_doc_ms = doc_ms;
    latencies.push_back(doc_ms);
    if (!CountOutcome(doc, result, &scores)) continue;
    SystemPrediction prediction = FromLinkingResult(*result);
    scores.entity_linking.Add(ScoreEntityLinking(doc, prediction));
  }
  scores.wall_ms = wall.ElapsedMillis();
  FinishLatencies(latencies, &scores);
  scores.metrics = obs::MetricsRegistry::Default()->Snapshot();
  return scores;
}

std::string FormatPRF(const PRF& prf) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.3f %.3f %.3f", prf.Precision(),
                prf.Recall(), prf.F1());
  return std::string(buffer);
}

std::string FormatDegradation(const SystemScores& scores) {
  char buffer[160];
  if (scores.degraded_documents > 0) {
    std::snprintf(buffer, sizeof(buffer),
                  "full %d | degraded %d (pair_link %d, prior_only %d) | "
                  "failed %d",
                  scores.full_documents, scores.degraded_documents,
                  scores.pairlink_documents, scores.prior_only_documents,
                  scores.failed_documents);
  } else {
    std::snprintf(buffer, sizeof(buffer),
                  "full %d | degraded %d | failed %d",
                  scores.full_documents, scores.degraded_documents,
                  scores.failed_documents);
  }
  return std::string(buffer);
}

std::string FormatLatencyMs(double ms) {
  if (std::isnan(ms)) return "n/a";
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.2f", ms);
  return std::string(buffer);
}

}  // namespace eval
}  // namespace tenet
