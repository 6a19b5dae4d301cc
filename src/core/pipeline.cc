#include "core/pipeline.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/timer.h"
#include "core/pair_link.h"
#include "obs/metrics.h"

namespace tenet {
namespace core {
namespace {

using Mode = DegradationInfo::Mode;

// The pipeline's metric families, resolved once against the default
// registry and cached (Get* takes a lock; the cached pointers do not).
// Label values are closed sets — stage names, degradation modes, rung
// numbers — per the cardinality rules of DESIGN.md §9.
struct PipelineMetrics {
  obs::Histogram* stage_extract;
  obs::Histogram* stage_graph;
  obs::Histogram* stage_cover;
  obs::Histogram* stage_disambiguate;
  obs::Histogram* stage_pairlink;
  obs::Histogram* latency_full;
  obs::Histogram* latency_prior_only;
  obs::Histogram* latency_pair_link;
  obs::Counter* documents_full;
  obs::Counter* documents_prior_only;
  obs::Counter* documents_pair_link;
  obs::Counter* degraded_by_rung[4];  // indexed by stages_degraded, 1..3
  obs::Counter* cover_retries;
};

const PipelineMetrics& Metrics() {
  static const PipelineMetrics* metrics = [] {
    obs::MetricsRegistry* registry = obs::MetricsRegistry::Default();
    constexpr const char* kStageHelp =
        "Per-stage TENET pipeline latency in milliseconds (the Figure 7 "
        "stage columns); the sum per stage equals the summed "
        "PipelineTimings fields.";
    constexpr const char* kLatencyHelp =
        "End-to-end per-document linking latency in milliseconds, by "
        "degradation mode.";
    constexpr const char* kDocumentsHelp =
        "Documents served, by degradation mode.";
    constexpr const char* kDegradedHelp =
        "Documents served degraded, by ladder rung (rung = pipeline stages "
        "skipped or replaced).";
    auto* m = new PipelineMetrics;
    auto stage = [&](const char* name) {
      return registry->GetHistogram("tenet_stage_latency_ms", kStageHelp,
                                    obs::LabelPair("stage", name));
    };
    m->stage_extract = stage("extract");
    m->stage_graph = stage("graph");
    m->stage_cover = stage("cover");
    m->stage_disambiguate = stage("disambiguate");
    m->stage_pairlink = stage("pairlink");
    m->latency_full =
        registry->GetHistogram("tenet_document_latency_ms", kLatencyHelp,
                               obs::LabelPair("mode", "full"));
    m->latency_prior_only =
        registry->GetHistogram("tenet_document_latency_ms", kLatencyHelp,
                               obs::LabelPair("mode", "prior_only"));
    m->latency_pair_link =
        registry->GetHistogram("tenet_document_latency_ms", kLatencyHelp,
                               obs::LabelPair("mode", "pair_link"));
    m->documents_full =
        registry->GetCounter("tenet_documents_total", kDocumentsHelp,
                             obs::LabelPair("mode", "full"));
    m->documents_prior_only =
        registry->GetCounter("tenet_documents_total", kDocumentsHelp,
                             obs::LabelPair("mode", "prior_only"));
    m->documents_pair_link =
        registry->GetCounter("tenet_documents_total", kDocumentsHelp,
                             obs::LabelPair("mode", "pair_link"));
    m->degraded_by_rung[0] = nullptr;
    for (int rung = 1; rung <= 3; ++rung) {
      m->degraded_by_rung[rung] = registry->GetCounter(
          "tenet_degraded_documents_total", kDegradedHelp,
          obs::LabelPair("rung", std::string(1, static_cast<char>('0' + rung))));
    }
    m->cover_retries = registry->GetCounter(
        "tenet_cover_retries_total",
        "Tree-cover bound-doubling retry attempts (the paper's failure "
        "warning B < B*).");
    return m;
  }();
  return *metrics;
}

// Measures one pipeline stage and records it everywhere at once: the same
// number lands in the PipelineTimings field (Figure 7 compatibility), the
// per-stage latency histogram, and — when the request carries a trace —
// the stage's span.  One measurement, three sinks, no drift.
class StageScope {
 public:
  StageScope(const LinkContext& context, const char* name,
             obs::Histogram* histogram)
      : trace_(context.trace),
        histogram_(histogram),
        span_(trace_ != nullptr ? trace_->StartSpan(name) : -1) {}

  /// Span id for parenting retry spans; -1 when untraced.
  int span_id() const { return span_; }

  /// Stops the stage and returns the elapsed milliseconds.  Call once.
  double Finish() {
    double ms = timer_.ElapsedMillis();
    histogram_->Observe(ms);
    if (trace_ != nullptr) trace_->EndSpan(span_, ms);
    return ms;
  }

 private:
  obs::Trace* trace_;
  obs::Histogram* histogram_;
  int span_;
  WallTimer timer_;
};

// Records a completed full-pipeline document against the registry.
void RecordFullDocument(const PipelineTimings& timings) {
  const PipelineMetrics& m = Metrics();
  m.documents_full->Increment();
  m.latency_full->Observe(timings.TotalMs());
}

// The one finisher of both fallback rungs: records a degraded document
// against the registry and, when the request is traced, the rung's span
// and annotations.
void RecordDegradedDocument(const DegradationInfo& info,
                            const PipelineTimings& timings,
                            const LinkContext& context) {
  const PipelineMetrics& m = Metrics();
  const bool pair_link = info.mode == Mode::kPairLink;

  // The fallback is the document's (degraded) disambiguation stage: its
  // latency feeds the per-stage family, under the pairlink label for the
  // sweep, so stage sums stay equal to summed PipelineTimings either way.
  (pair_link ? m.stage_pairlink : m.stage_disambiguate)
      ->Observe(timings.disambiguate_ms);
  (pair_link ? m.documents_pair_link : m.documents_prior_only)->Increment();
  (pair_link ? m.latency_pair_link : m.latency_prior_only)
      ->Observe(timings.TotalMs());
  if (info.stages_degraded >= 1 && info.stages_degraded <= 3) {
    m.degraded_by_rung[info.stages_degraded]->Increment();
  }

  if (context.trace == nullptr) return;
  const std::string name(DegradationModeToString(info.mode));
  int span = context.trace->StartSpan(name);
  context.trace->EndSpan(span, timings.disambiguate_ms);
  context.trace->Annotate("degraded_mode", name);
  context.trace->Annotate("degraded_reason", info.reason);
  context.trace->Annotate(
      "stages_degraded",
      std::string(1, static_cast<char>('0' + info.stages_degraded)));
  if (pair_link) {
    context.trace->Annotate("pairs_confirmed",
                            std::to_string(info.pairs_confirmed));
  }
}

// Per mention group, the reading (canopy) whose mentions are collectively
// most confident under the priors — the degraded stand-in for
// coherence-driven canopy resolution, so the prior-only and pair-link
// rungs differ only in disambiguation, never in segmentation.  `pick[m]`
// indexes mention m's top-prior candidate, or is -1 when it has none.
// Returned pointers alias `universe` and stay valid while it lives.
std::vector<const std::vector<int>*> SelectPriorReadings(
    const MentionSet& universe,
    const std::vector<std::vector<PairLinkCandidate>>& candidates,
    const std::vector<int>& pick) {
  std::vector<const std::vector<int>*> readings;
  readings.reserve(universe.num_groups());
  for (int g = 0; g < universe.num_groups(); ++g) {
    const MentionGroup& group = universe.groups[g];
    int winning = 0;
    double best_score = -1.0;
    size_t best_size = 0;
    for (size_t k = 0; k < group.canopies.size(); ++k) {
      double score = 0.0;
      for (int m : group.canopies[k].mentions) {
        if (pick[m] >= 0) score += candidates[m][pick[m]].prior;
      }
      // Mean confidence, not mass: summing lets two mediocre fragments
      // outscore the composite reading they chop up ("Keystone Foundation"
      // + "Heritage Institute" vs the single KB entity spanning both).
      // Conjunction groups are safe under the mean — their merged surface
      // is no KB alias, so the merged reading averages ~0 and the
      // two-mention reading still wins.
      size_t size = group.canopies[k].mentions.size();
      if (size > 0) score /= static_cast<double>(size);
      // On equal confidence fewer mentions means longer spans — prefer
      // them, mirroring the extractor's maximal-span readings.
      if (score > best_score ||
          (score == best_score && size < best_size)) {
        best_score = score;
        best_size = size;
        winning = static_cast<int>(k);
      }
    }
    readings.push_back(group.canopies.empty()
                           ? &group.short_mentions
                           : &group.canopies[winning].mentions);
  }
  return readings;
}

}  // namespace

std::string_view DegradationModeToString(DegradationInfo::Mode mode) {
  switch (mode) {
    case DegradationInfo::Mode::kFull:
      return "full";
    case DegradationInfo::Mode::kPriorOnly:
      return "prior_only";
    case DegradationInfo::Mode::kPairLink:
      return "pair_link";
  }
  return "unknown";
}

namespace {

// The guardrail candidate ceiling clamps the graph's per-mention top-k;
// with the default (generous) limit the graph option wins unchanged.
TenetOptions ClampToLimits(TenetOptions options) {
  if (options.limits.max_candidates_per_mention > 0) {
    options.graph.max_candidates_per_mention =
        std::min(options.graph.max_candidates_per_mention,
                 options.limits.max_candidates_per_mention);
  }
  return options;
}

// Every mention's candidates straight from the KB, one lookup each, under
// the coherence graph's top-k: the rungs see the renormalized prior
// distribution the graph would, and overflow past the cap is counted as
// the graph builder counts it.
std::vector<std::vector<PairLinkCandidate>> FetchCandidates(
    const kb::KbView& view, const MentionSet& mentions, int top_k,
    DependencyOutcomes* outcomes) {
  std::vector<std::vector<PairLinkCandidate>> candidates(
      mentions.num_mentions());
  int64_t candidate_overflow = 0;
  for (int m = 0; m < mentions.num_mentions(); ++m) {
    const Mention& mention = mentions.mention(m);
    int overflow = 0;
    if (mention.is_noun()) {
      for (const kb::EntityCandidate& c : view.CandidateEntities(
               mention.surface, mention.type, top_k, &overflow, outcomes)) {
        candidates[m].push_back(
            PairLinkCandidate{kb::ConceptRef::Entity(c.entity), c.prior});
      }
    } else {
      for (const kb::PredicateCandidate& c : view.CandidatePredicates(
               mention.surface, top_k, &overflow, outcomes)) {
        candidates[m].push_back(PairLinkCandidate{
            kb::ConceptRef::Predicate(c.predicate), c.prior});
      }
    }
    candidate_overflow += overflow;
  }
  text::RecordInputTruncated(text::InputTruncateReason::kCandidates,
                             candidate_overflow);
  return candidates;
}

}  // namespace

TenetPipeline::TenetPipeline(std::shared_ptr<const kb::KbView> view,
                             const text::Gazetteer* gazetteer,
                             TenetOptions options)
    : view_(std::move(view)),
      gazetteer_(gazetteer),
      options_(ClampToLimits(std::move(options))),
      graph_builder_(view_, options_.graph),
      disambiguator_(options_.disambiguator) {
  TENET_CHECK(view_ != nullptr);
  TENET_CHECK(gazetteer != nullptr);
  TENET_CHECK_GT(options_.bound_factor, 0.0);
  TENET_CHECK_GE(options_.bound_retry.max_retries, 0);
  TENET_CHECK_GE(options_.bound_retry.multiplier, 1.0);
}

TenetPipeline::TenetPipeline(const kb::KnowledgeBase* kb,
                             const embedding::EmbeddingStore* embeddings,
                             const text::Gazetteer* gazetteer,
                             TenetOptions options)
    : TenetPipeline(std::make_shared<kb::KbView>(kb, embeddings),
                    gazetteer, std::move(options)) {}

Deadline TenetPipeline::DefaultDeadline() const {
  return Deadline::AfterMillis(options_.deadline_ms);
}

Result<LinkingResult> TenetPipeline::LinkDocument(
    std::string_view document_text, const LinkContext& context) const {
  // Extraction always runs: even a fully degraded answer needs the mention
  // universe, and the stage is cheap relative to the coherence machinery.
  // The guarded front door enforces TenetOptions::limits — an oversized or
  // (with sanitization disabled) invalid-UTF-8 document is rejected here
  // with kInvalidArgument before any linking work.
  StageScope extract_scope(context, "extract", Metrics().stage_extract);
  text::Extractor extractor(gazetteer_);
  text::TextGuardReport guard_report;
  Result<text::ExtractionResult> extraction =
      extractor.ExtractFromText(document_text, options_.limits,
                                &guard_report);
  PipelineTimings timings;
  timings.extract_ms = extract_scope.Finish();
  if (!extraction.ok()) return extraction.status();
  if (guard_report.truncated() && context.trace != nullptr) {
    std::string what;
    auto add = [&what](const char* name, int64_t n) {
      if (n <= 0) return;
      if (!what.empty()) what += ',';
      what += name;
      what += '=';
      what += std::to_string(n);
    };
    add("invalid_utf8_bytes",
        static_cast<int64_t>(guard_report.invalid_utf8_bytes));
    add("truncated_tokens", guard_report.truncated_tokens);
    add("token_cap_hit", guard_report.token_cap_hit ? 1 : 0);
    add("dropped_mentions", guard_report.dropped_mentions);
    add("dropped_relations", guard_report.dropped_relations);
    context.trace->Annotate("input_truncated", what);
  }

  MentionSet mentions =
      BuildMentionSet(extraction.value(), gazetteer_, options_.canopy);
  return LinkMentionSetWithTimings(std::move(mentions), context, timings);
}

Result<LinkingResult> TenetPipeline::LinkMentionSet(
    MentionSet mentions, const LinkContext& context) const {
  return LinkMentionSetWithTimings(std::move(mentions), context, {});
}

Result<LinkingResult> TenetPipeline::LinkMentionSetWithTimings(
    MentionSet mentions, const LinkContext& context,
    PipelineTimings timings) const {
  Deadline deadline = context.deadline_or(DefaultDeadline());
  LinkingResult result;
  if (mentions.num_mentions() == 0) {
    result.mentions = std::move(mentions);
    result.timings = timings;
    RecordFullDocument(timings);
    return result;
  }

  // ---- Rung 0: budget gone before the coherence stage --------------------
  if (deadline.expired()) {
    if (!options_.degrade_to_prior) {
      return Status::DeadlineExceeded(
          "deadline expired before the coherence stage");
    }
    return Degrade(Mode::kPriorOnly,
                   "deadline expired before the coherence stage",
                   /*stages_degraded=*/3, std::move(mentions), nullptr,
                   timings, context, deadline);
  }

  // ---- Pair-link rung at entry: forced or breaker-capped -> skip the
  // coherence graph and tree cover and spend the budget on the greedy
  // pair sweep -------------------------------------------------------------
  if (options_.pair_link.serve_always || context.cap_to_pair_link) {
    return Degrade(
        Mode::kPairLink,
        options_.pair_link.serve_always
            ? "pair-link rung forced by configuration"
            : "cover-solve dependency unavailable (circuit breaker open)",
        /*stages_degraded=*/3, std::move(mentions), nullptr, timings, context,
        deadline);
  }

  StageScope graph_scope(context, "graph", Metrics().stage_graph);
  CoherenceGraph cg = graph_builder_.Build(std::move(mentions),
                                           context.outcomes);
  timings.graph_ms = graph_scope.Finish();

  // ---- Tree cover: B = bound_factor * |M| (Sec. 6.1), growing on the
  // failure warning per the retry policy, under the deadline ---------------
  StageScope cover_scope(context, "cover", Metrics().stage_cover);
  RetrySchedule schedule(options_.bound_retry,
                         options_.bound_factor * cg.num_mentions());
  Result<TreeCover> cover = Status::Internal("unsolved");
  TreeCoverStats cover_stats;
  Status interrupted;  // non-OK when the deadline cut the search short
  int attempt = 0;
  do {
    if (deadline.expired()) {
      interrupted = Status::DeadlineExceeded(
          "deadline expired during the tree-cover search");
      break;
    }
    // Every attempt after the first is a bound-doubling retry: counted,
    // and traced as a child span of the cover stage.
    int retry_span = -1;
    if (attempt > 0) {
      Metrics().cover_retries->Increment();
      if (context.trace != nullptr) {
        retry_span =
            context.trace->StartSpan("cover_retry", cover_scope.span_id());
      }
    }
    cover = solver_.Solve(cg, schedule.value(), &cover_stats,
                          context.outcomes);
    if (retry_span >= 0) context.trace->EndSpan(retry_span);
    ++attempt;
    if (cover.ok() || !cover.status().IsBoundTooSmall()) break;
  } while (schedule.Next());
  timings.cover_ms = cover_scope.Finish();

  // ---- Rung 1: cover unavailable.  A solver fault or retry exhaustion
  // with budget remaining is worth the pair-link sweep over the graph's
  // edge weights; deadline expiry falls straight to priors ----------------
  if (!interrupted.ok() || !cover.ok()) {
    Status cause = !interrupted.ok() ? interrupted : cover.status();
    if (!options_.degrade_to_prior) return cause;
    return Degrade(deadline.expired() ? Mode::kPriorOnly : Mode::kPairLink,
                   cause.ToString(), /*stages_degraded=*/2,
                   std::move(cg).TakeMentions(), &cg, timings, context,
                   deadline);
  }

  // ---- Rung 2: cover done but budget gone -> degrade the last stage ------
  if (deadline.expired()) {
    if (!options_.degrade_to_prior) {
      return Status::DeadlineExceeded(
          "deadline expired before disambiguation");
    }
    return Degrade(Mode::kPriorOnly, "deadline expired before disambiguation",
                   /*stages_degraded=*/1, std::move(cg).TakeMentions(), &cg,
                   timings, context, deadline);
  }

  result.used_bound = schedule.value();
  result.cover_stats = cover_stats;

  StageScope disambiguate_scope(context, "disambiguate",
                                Metrics().stage_disambiguate);
  DisambiguationResult gamma = disambiguator_.Run(cg, cover.value());
  timings.disambiguate_ms = disambiguate_scope.Finish();

  // ---- Assemble the output -------------------------------------------------
  // Gamma lists the links in mention order already.
  const MentionSet& universe = cg.mentions();
  for (const auto& [mention_id, node] : gamma.selected_node) {
    const CoherenceGraph::ConceptNode& cn = cg.concept_node(node);
    LinkedConcept link;
    link.mention_id = mention_id;
    link.surface = universe.mention(mention_id).surface;
    link.kind = universe.mention(mention_id).kind;
    link.concept_ref = cn.ref;
    link.prior = cn.prior;
    result.links.push_back(std::move(link));
    result.selected_mentions.push_back(mention_id);
  }

  // Isolated / emerging concepts: unlinked members of a resolved group's
  // winning canopy (e.g. the non-linkable "April" next to "Brooklyn"), and
  // the default all-short segmentation of groups that never resolved.
  for (int g = 0; g < universe.num_groups(); ++g) {
    const std::vector<int>& selected_reading =
        gamma.group_resolved[g]
            ? universe.groups[g].canopies[gamma.winning_canopy[g]].mentions
            : universe.groups[g].short_mentions;
    for (int mention_id : selected_reading) {
      if (!gamma.IsLinked(mention_id)) {
        result.isolated_mentions.push_back(mention_id);
        result.selected_mentions.push_back(mention_id);
      }
    }
  }
  std::sort(result.selected_mentions.begin(),
            result.selected_mentions.end());
  std::sort(result.isolated_mentions.begin(),
            result.isolated_mentions.end());

  result.mentions = std::move(cg).TakeMentions();
  result.timings = timings;
  RecordFullDocument(timings);
  return result;
}

Result<LinkingResult> TenetPipeline::Degrade(
    Mode mode, std::string reason, int stages_degraded, MentionSet mentions,
    const CoherenceGraph* cg, PipelineTimings timings,
    const LinkContext& context, const Deadline& deadline) const {
  WallTimer timer;
  std::vector<std::vector<PairLinkCandidate>> candidates =
      cg != nullptr
          ? GraphCandidates(*cg)
          : FetchCandidates(*view_, mentions,
                            options_.graph.max_candidates_per_mention,
                            context.outcomes);
  std::vector<int> pick(mentions.num_mentions());
  for (int m = 0; m < mentions.num_mentions(); ++m) {
    pick[m] = TopPriorCandidate(candidates[m]);
  }
  std::vector<const std::vector<int>*> readings =
      SelectPriorReadings(mentions, candidates, pick);

  LinkingResult result;
  result.degradation.mode = mode;
  result.degradation.stages_degraded = stages_degraded;
  if (mode == Mode::kPairLink) {
    // Pair-linking disambiguates entities: the sweep runs over the
    // selected noun mentions, and relational ones keep their priors.
    std::vector<int> nouns;
    for (const std::vector<int>* reading : readings) {
      for (int m : *reading) {
        if (mentions.mention(m).is_noun()) nouns.push_back(m);
      }
    }
    PairSimilarity similarity;
    if (cg != nullptr) {
      // Graph edge weights are 1 - cos; a missing edge (unconnected
      // phrases or same-mention) reads as zero similarity.
      similarity = [cg](const PairLinkCandidate& u,
                        const PairLinkCandidate& v) {
        return 1.0 - cg->EdgeWeight(u.node, v.node, /*missing=*/1.0);
      };
    } else {
      similarity = [this, outcomes = context.outcomes](
                       const PairLinkCandidate& u, const PairLinkCandidate& v) {
        return view_->Cosine(u.ref, v.ref, outcomes);
      };
    }
    PairSweepStats stats =
        SweepPairs(nouns, candidates, similarity, deadline, &pick);
    result.degradation.pairs_confirmed = stats.pairs_confirmed;
    if (stats.deadline_hit) {
      reason += "; deadline expired mid-sweep, remainder served from priors";
    }
  }
  result.degradation.reason = std::move(reason);

  // Mentions without candidates are reported isolated, exactly like the
  // full path.
  for (const std::vector<int>* reading : readings) {
    for (int m : *reading) {
      result.selected_mentions.push_back(m);
      if (pick[m] < 0) {
        result.isolated_mentions.push_back(m);
        continue;
      }
      const PairLinkCandidate& chosen = candidates[m][pick[m]];
      LinkedConcept link;
      link.mention_id = m;
      link.surface = mentions.mention(m).surface;
      link.kind = mentions.mention(m).kind;
      link.concept_ref = chosen.ref;
      link.prior = chosen.prior;
      result.links.push_back(std::move(link));
    }
  }
  std::sort(result.links.begin(), result.links.end(),
            [](const LinkedConcept& a, const LinkedConcept& b) {
              return a.mention_id < b.mention_id;
            });
  std::sort(result.selected_mentions.begin(), result.selected_mentions.end());
  std::sort(result.isolated_mentions.begin(), result.isolated_mentions.end());

  result.mentions = std::move(mentions);
  timings.disambiguate_ms = timer.ElapsedMillis();
  result.timings = timings;
  RecordDegradedDocument(result.degradation, timings, context);
  return result;
}

}  // namespace core
}  // namespace tenet
