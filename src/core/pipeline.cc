#include "core/pipeline.h"

#include <algorithm>
#include <optional>
#include <queue>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/timer.h"
#include "obs/metrics.h"

namespace tenet {
namespace core {
namespace {

using TopCandidate = std::optional<std::pair<kb::ConceptRef, double>>;

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

// Per mention group, the reading (canopy) whose mentions are collectively
// most confident under the priors — the degraded stand-in for
// coherence-driven canopy resolution, shared by the prior-only and
// pair-link rungs so the two differ only in disambiguation, never in
// segmentation.  `top(mention_id)` yields the best candidate or nullopt.
// Returned pointers alias `universe` and stay valid while it lives.
template <typename TopFn>
std::vector<const std::vector<int>*> SelectPriorReadings(
    const MentionSet& universe, TopFn&& top) {
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
        if (TopCandidate c = top(m)) score += c->second;
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

// Shared assembly of the prior-only fallback: every mention of the winning
// canopy links to its top-prior candidate.  Mentions without candidates
// are reported isolated, exactly like the full path.
template <typename TopFn>
LinkingResult AssemblePriorOnly(const MentionSet& universe, TopFn&& top) {
  LinkingResult result;
  for (const std::vector<int>* reading :
       SelectPriorReadings(universe, top)) {
    for (int m : *reading) {
      result.selected_mentions.push_back(m);
      TopCandidate c = top(m);
      if (!c.has_value()) {
        result.isolated_mentions.push_back(m);
        continue;
      }
      LinkedConcept link;
      link.mention_id = m;
      link.surface = universe.mention(m).surface;
      link.kind = universe.mention(m).kind;
      link.concept_ref = c->first;
      link.prior = c->second;
      result.links.push_back(std::move(link));
    }
  }
  std::sort(result.links.begin(), result.links.end(),
            [](const LinkedConcept& a, const LinkedConcept& b) {
              return a.mention_id < b.mention_id;
            });
  std::sort(result.selected_mentions.begin(), result.selected_mentions.end());
  std::sort(result.isolated_mentions.begin(), result.isolated_mentions.end());
  return result;
}

// One pair-link candidate of a mention: the concept, its prior and — for
// the from-graph variant — its node id in the coherence graph.
struct PairLinkCandidate {
  kb::ConceptRef ref;
  double prior = 0.0;
  int node = -1;
};

struct PairLinkSweepStats {
  int pairs_confirmed = 0;
  bool deadline_hit = false;
};

// The pair-link rung (DESIGN.md §16).  Segmentation is the prior-only
// rung's (winning canopy by mean prior); disambiguation is Phan et al.'s
// greedy pair-linking over the selected noun mentions: a priority queue of
// candidate pairs scored by
//   similarity_weight * cos + prior_weight * mean prior,
// confirmed best-pair-first.  Entries start with the optimistic bound
// cos = 1, so the (expensive) similarity is only computed for pairs that
// actually reach the top of the queue — a popped exact entry dominates
// every bound below it and is safe to confirm.  A mention already
// committed only vouches for pairs agreeing with its committed candidate.
// Deadline expiry mid-sweep stops confirming; whatever is still unassigned
// (and every relational mention — pair-linking is an entity
// disambiguation algorithm) is topped up from priors.  Deterministic:
// ties break on the (mention, candidate) ids, exact entries first.
template <typename SimFn>
LinkingResult AssemblePairLink(
    const MentionSet& universe,
    const std::vector<std::vector<PairLinkCandidate>>& cands,
    const PairLinkOptions& opts, const Deadline& deadline, SimFn&& sim,
    PairLinkSweepStats* stats) {
  auto top_of = [&cands](int m) -> const PairLinkCandidate* {
    const PairLinkCandidate* best = nullptr;
    for (const PairLinkCandidate& c : cands[m]) {
      if (best == nullptr || c.prior > best->prior) best = &c;
    }
    return best;
  };
  auto top = [&top_of](int m) -> TopCandidate {
    const PairLinkCandidate* best = top_of(m);
    if (best == nullptr) return std::nullopt;
    return std::make_pair(best->ref, best->prior);
  };
  std::vector<const std::vector<int>*> readings =
      SelectPriorReadings(universe, top);

  // The sweep participants: selected noun mentions with candidates.
  std::vector<int> nouns;
  for (const std::vector<int>* reading : readings) {
    for (int m : *reading) {
      if (universe.mention(m).is_noun() && !cands[m].empty()) {
        nouns.push_back(m);
      }
    }
  }
  std::sort(nouns.begin(), nouns.end());

  struct Entry {
    double score;
    bool exact;
    int i, a, j, b;  // indices into `nouns` / their candidate lists
  };
  auto worse = [](const Entry& x, const Entry& y) {
    if (x.score != y.score) return x.score < y.score;
    if (x.exact != y.exact) return y.exact;
    return std::tie(x.i, x.a, x.j, x.b) > std::tie(y.i, y.a, y.j, y.b);
  };
  std::priority_queue<Entry, std::vector<Entry>, decltype(worse)> queue(
      worse);
  for (size_t i = 0; i < nouns.size(); ++i) {
    for (size_t j = i + 1; j < nouns.size(); ++j) {
      const auto& ci = cands[nouns[i]];
      const auto& cj = cands[nouns[j]];
      for (size_t a = 0; a < ci.size(); ++a) {
        for (size_t b = 0; b < cj.size(); ++b) {
          const double bound = opts.similarity_weight +
                               opts.prior_weight * 0.5 *
                                   (ci[a].prior + cj[b].prior);
          queue.push(Entry{bound, /*exact=*/false, static_cast<int>(i),
                           static_cast<int>(a), static_cast<int>(j),
                           static_cast<int>(b)});
        }
      }
    }
  }

  std::vector<int> assigned(nouns.size(), -1);
  size_t num_assigned = 0;
  while (!queue.empty() && num_assigned < nouns.size()) {
    if (deadline.expired()) {
      stats->deadline_hit = true;
      break;
    }
    Entry e = queue.top();
    queue.pop();
    const bool i_done = assigned[e.i] >= 0;
    const bool j_done = assigned[e.j] >= 0;
    if (i_done && j_done) continue;
    if (i_done && assigned[e.i] != e.a) continue;
    if (j_done && assigned[e.j] != e.b) continue;
    if (!e.exact) {
      const PairLinkCandidate& u = cands[nouns[e.i]][e.a];
      const PairLinkCandidate& v = cands[nouns[e.j]][e.b];
      e.score = opts.similarity_weight * sim(u, v) +
                opts.prior_weight * 0.5 * (u.prior + v.prior);
      e.exact = true;
      queue.push(e);
      continue;
    }
    if (!i_done) {
      assigned[e.i] = e.a;
      ++num_assigned;
    }
    if (!j_done) {
      assigned[e.j] = e.b;
      ++num_assigned;
    }
    ++stats->pairs_confirmed;
  }

  std::unordered_map<int, const PairLinkCandidate*> chosen;
  chosen.reserve(nouns.size());
  for (size_t idx = 0; idx < nouns.size(); ++idx) {
    chosen.emplace(nouns[idx], assigned[idx] >= 0
                                   ? &cands[nouns[idx]][assigned[idx]]
                                   : top_of(nouns[idx]));
  }

  LinkingResult result;
  for (const std::vector<int>* reading : readings) {
    for (int m : *reading) {
      result.selected_mentions.push_back(m);
      auto it = chosen.find(m);
      const PairLinkCandidate* pick =
          it != chosen.end() ? it->second : top_of(m);
      if (pick == nullptr) {
        result.isolated_mentions.push_back(m);
        continue;
      }
      LinkedConcept link;
      link.mention_id = m;
      link.surface = universe.mention(m).surface;
      link.kind = universe.mention(m).kind;
      link.concept_ref = pick->ref;
      link.prior = pick->prior;
      result.links.push_back(std::move(link));
    }
  }
  std::sort(result.links.begin(), result.links.end(),
            [](const LinkedConcept& a, const LinkedConcept& b) {
              return a.mention_id < b.mention_id;
            });
  std::sort(result.selected_mentions.begin(), result.selected_mentions.end());
  std::sort(result.isolated_mentions.begin(), result.isolated_mentions.end());
  return result;
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

Result<LinkingResult> TenetPipeline::LinkExtraction(
    const text::ExtractionResult& extraction,
    const LinkContext& context) const {
  MentionSet mentions =
      BuildMentionSet(extraction, gazetteer_, options_.canopy);
  return LinkMentionSetWithTimings(std::move(mentions), context, {});
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
    return PriorOnlyFromMentions(std::move(mentions),
                                 "deadline expired before the coherence stage",
                                 /*stages_degraded=*/3, timings, context);
  }

  // ---- Pair-link rung at entry: forced, breaker-capped, or the budget is
  // finite but below the full-pipeline floor -> skip the coherence graph
  // and tree cover and spend what remains on the greedy pair sweep --------
  const PairLinkOptions& pair_link = options_.pair_link;
  if (pair_link.enabled) {
    std::string reason;
    if (pair_link.serve_always) {
      reason = "pair-link rung forced by configuration";
    } else if (context.cap_to_pair_link) {
      reason = "cover-solve dependency unavailable (circuit breaker open)";
    } else if (options_.degrade_to_prior && pair_link.min_full_budget_ms > 0.0 &&
               !deadline.infinite() &&
               deadline.RemainingMillis() < pair_link.min_full_budget_ms) {
      reason = "budget below the full-pipeline floor";
    }
    if (!reason.empty()) {
      return PairLinkFromMentions(std::move(mentions), std::move(reason),
                                  /*stages_degraded=*/3, timings, context,
                                  deadline);
    }
  }

  StageScope graph_scope(context, "graph", Metrics().stage_graph);
  CoherenceGraph cg = graph_builder_.Build(std::move(mentions));
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
    cover = solver_.Solve(cg, schedule.value(), &cover_stats);
    if (retry_span >= 0) context.trace->EndSpan(retry_span);
    ++attempt;
    if (cover.ok() || !cover.status().IsBoundTooSmall()) break;
  } while (schedule.Next());
  timings.cover_ms = cover_scope.Finish();

  // ---- Rung 1: cover unavailable.  A solver fault or retry exhaustion
  // with budget remaining is worth the pair-link sweep over the graph's
  // edge weights; deadline expiry (or pair-link disabled) falls straight
  // to priors ------------------------------------------------------------
  if (!interrupted.ok() || !cover.ok()) {
    Status cause = !interrupted.ok() ? interrupted : cover.status();
    if (!options_.degrade_to_prior) return cause;
    if (pair_link.enabled && !deadline.expired()) {
      return PairLinkFromGraph(cg, cause.ToString(), /*stages_degraded=*/2,
                               timings, context, deadline);
    }
    return PriorOnlyFromGraph(cg, cause.ToString(), /*stages_degraded=*/2,
                              timings, context);
  }

  // ---- Rung 2: cover done but budget gone -> degrade the last stage ------
  if (deadline.expired()) {
    if (!options_.degrade_to_prior) {
      return Status::DeadlineExceeded(
          "deadline expired before disambiguation");
    }
    return PriorOnlyFromGraph(cg, "deadline expired before disambiguation",
                              /*stages_degraded=*/1, timings, context);
  }

  result.used_bound = schedule.value();
  result.cover_stats = cover_stats;

  StageScope disambiguate_scope(context, "disambiguate",
                                Metrics().stage_disambiguate);
  DisambiguationResult gamma = disambiguator_.Run(cg, cover.value());
  timings.disambiguate_ms = disambiguate_scope.Finish();

  // ---- Assemble the output -------------------------------------------------
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
  std::sort(result.links.begin(), result.links.end(),
            [](const LinkedConcept& a, const LinkedConcept& b) {
              return a.mention_id < b.mention_id;
            });

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

  result.mentions = cg.mentions();  // copy out the universe
  result.timings = timings;
  RecordFullDocument(timings);
  return result;
}

void TenetPipeline::FinishPriorOnly(std::string reason, int stages_degraded,
                                    PipelineTimings timings,
                                    const LinkContext& context,
                                    LinkingResult* result) const {
  result->timings = timings;
  result->degradation.mode = DegradationInfo::Mode::kPriorOnly;
  result->degradation.stages_degraded = stages_degraded;

  const PipelineMetrics& m = Metrics();
  // The fallback assembly is the document's (degraded) disambiguation
  // stage: its latency belongs to the same per-stage family the full path
  // feeds, so stage sums stay equal to summed PipelineTimings either way.
  m.stage_disambiguate->Observe(timings.disambiguate_ms);
  m.documents_prior_only->Increment();
  m.latency_prior_only->Observe(timings.TotalMs());
  if (stages_degraded >= 1 && stages_degraded <= 3) {
    m.degraded_by_rung[stages_degraded]->Increment();
  }

  if (context.trace != nullptr) {
    int span = context.trace->StartSpan("prior_only");
    context.trace->EndSpan(span, timings.disambiguate_ms);
    context.trace->Annotate("degraded_mode", "prior_only");
    context.trace->Annotate("degraded_reason", reason);
    context.trace->Annotate("stages_degraded",
                            std::string(1, static_cast<char>(
                                               '0' + stages_degraded)));
  }
  result->degradation.reason = std::move(reason);
}

Result<LinkingResult> TenetPipeline::PriorOnlyFromMentions(
    MentionSet mentions, std::string reason, int stages_degraded,
    PipelineTimings timings, const LinkContext& context) const {
  WallTimer timer;
  const MentionSet& universe = mentions;
  // Same candidate budget as the coherence graph, so the degraded path sees
  // the identical renormalized top-k prior distribution per mention.
  const int top_k = options_.graph.max_candidates_per_mention;
  int64_t candidate_overflow = 0;
  auto top = [this, &universe, top_k,
              &candidate_overflow](int m) -> TopCandidate {
    const Mention& mention = universe.mention(m);
    int overflow = 0;
    if (mention.is_noun()) {
      std::vector<kb::EntityCandidate> candidates = view_->CandidateEntities(
          mention.surface, mention.type, top_k, &overflow);
      candidate_overflow += overflow;
      if (candidates.empty()) return std::nullopt;
      return std::make_pair(kb::ConceptRef::Entity(candidates.front().entity),
                            candidates.front().prior);
    }
    std::vector<kb::PredicateCandidate> candidates =
        view_->CandidatePredicates(mention.surface, top_k, &overflow);
    candidate_overflow += overflow;
    if (candidates.empty()) return std::nullopt;
    return std::make_pair(
        kb::ConceptRef::Predicate(candidates.front().predicate),
        candidates.front().prior);
  };
  LinkingResult result = AssemblePriorOnly(universe, top);
  text::RecordInputTruncated(text::InputTruncateReason::kCandidates,
                             candidate_overflow);
  result.mentions = std::move(mentions);
  timings.disambiguate_ms = timer.ElapsedMillis();
  FinishPriorOnly(std::move(reason), stages_degraded, timings, context,
                  &result);
  return result;
}

Result<LinkingResult> TenetPipeline::PriorOnlyFromGraph(
    const CoherenceGraph& cg, std::string reason, int stages_degraded,
    PipelineTimings timings, const LinkContext& context) const {
  WallTimer timer;
  auto top = [&cg](int m) -> TopCandidate {
    const std::vector<int>& nodes = cg.ConceptNodesOfMention(m);
    const CoherenceGraph::ConceptNode* best = nullptr;
    for (int node : nodes) {
      const CoherenceGraph::ConceptNode& cn = cg.concept_node(node);
      if (best == nullptr || cn.prior > best->prior) best = &cn;
    }
    if (best == nullptr) return std::nullopt;
    return std::make_pair(best->ref, best->prior);
  };
  LinkingResult result = AssemblePriorOnly(cg.mentions(), top);
  result.mentions = cg.mentions();  // copy out the universe
  timings.disambiguate_ms = timer.ElapsedMillis();
  FinishPriorOnly(std::move(reason), stages_degraded, timings, context,
                  &result);
  return result;
}

void TenetPipeline::FinishPairLink(std::string reason, int stages_degraded,
                                   int pairs_confirmed,
                                   PipelineTimings timings,
                                   const LinkContext& context,
                                   LinkingResult* result) const {
  result->timings = timings;
  result->degradation.mode = DegradationInfo::Mode::kPairLink;
  result->degradation.stages_degraded = stages_degraded;
  result->degradation.pairs_confirmed = pairs_confirmed;

  const PipelineMetrics& m = Metrics();
  // The greedy sweep is the document's (approximate) disambiguation stage:
  // it feeds the per-stage family under its own label, so stage sums stay
  // equal to summed PipelineTimings with the pairlink label standing in
  // for disambiguate on these documents.
  m.stage_pairlink->Observe(timings.disambiguate_ms);
  m.documents_pair_link->Increment();
  m.latency_pair_link->Observe(timings.TotalMs());
  if (stages_degraded >= 1 && stages_degraded <= 3) {
    m.degraded_by_rung[stages_degraded]->Increment();
  }

  if (context.trace != nullptr) {
    int span = context.trace->StartSpan("pair_link");
    context.trace->EndSpan(span, timings.disambiguate_ms);
    context.trace->Annotate("degraded_mode", "pair_link");
    context.trace->Annotate("degraded_reason", reason);
    context.trace->Annotate("stages_degraded",
                            std::string(1, static_cast<char>(
                                               '0' + stages_degraded)));
    context.trace->Annotate("pairs_confirmed",
                            std::to_string(pairs_confirmed));
  }
  result->degradation.reason = std::move(reason);
}

Result<LinkingResult> TenetPipeline::PairLinkFromMentions(
    MentionSet mentions, std::string reason, int stages_degraded,
    PipelineTimings timings, const LinkContext& context,
    const Deadline& deadline) const {
  WallTimer timer;
  const MentionSet& universe = mentions;
  // Same candidate budget as the coherence graph, so the rung sweeps the
  // identical renormalized top-k prior distribution per mention.
  const int top_k = options_.graph.max_candidates_per_mention;
  int64_t candidate_overflow = 0;
  std::vector<std::vector<PairLinkCandidate>> cands(universe.num_mentions());
  for (int m = 0; m < universe.num_mentions(); ++m) {
    const Mention& mention = universe.mention(m);
    int overflow = 0;
    if (mention.is_noun()) {
      for (const kb::EntityCandidate& c : view_->CandidateEntities(
               mention.surface, mention.type, top_k, &overflow)) {
        cands[m].push_back(
            PairLinkCandidate{kb::ConceptRef::Entity(c.entity), c.prior});
      }
    } else {
      for (const kb::PredicateCandidate& c : view_->CandidatePredicates(
               mention.surface, top_k, &overflow)) {
        cands[m].push_back(PairLinkCandidate{
            kb::ConceptRef::Predicate(c.predicate), c.prior});
      }
    }
    candidate_overflow += overflow;
  }
  auto sim = [this](const PairLinkCandidate& u, const PairLinkCandidate& v) {
    return view_->Cosine(u.ref, v.ref);
  };
  PairLinkSweepStats stats;
  LinkingResult result = AssemblePairLink(universe, cands, options_.pair_link,
                                          deadline, sim, &stats);
  text::RecordInputTruncated(text::InputTruncateReason::kCandidates,
                             candidate_overflow);
  result.mentions = std::move(mentions);
  timings.disambiguate_ms = timer.ElapsedMillis();
  if (stats.deadline_hit) {
    reason += "; deadline expired mid-sweep, remainder served from priors";
  }
  FinishPairLink(std::move(reason), stages_degraded, stats.pairs_confirmed,
                 timings, context, &result);
  return result;
}

Result<LinkingResult> TenetPipeline::PairLinkFromGraph(
    const CoherenceGraph& cg, std::string reason, int stages_degraded,
    PipelineTimings timings, const LinkContext& context,
    const Deadline& deadline) const {
  WallTimer timer;
  const MentionSet& universe = cg.mentions();
  std::vector<std::vector<PairLinkCandidate>> cands(universe.num_mentions());
  for (int m = 0; m < universe.num_mentions(); ++m) {
    for (int node : cg.ConceptNodesOfMention(m)) {
      const CoherenceGraph::ConceptNode& cn = cg.concept_node(node);
      cands[m].push_back(PairLinkCandidate{cn.ref, cn.prior, node});
    }
  }
  // Graph edge weights are 1 - cos; a missing edge (pruned or same-mention)
  // reads as zero similarity, which the optimistic bound then corrects.
  auto sim = [&cg](const PairLinkCandidate& u, const PairLinkCandidate& v) {
    return 1.0 - cg.graph().EdgeWeight(u.node, v.node, /*missing=*/1.0);
  };
  PairLinkSweepStats stats;
  LinkingResult result = AssemblePairLink(universe, cands, options_.pair_link,
                                          deadline, sim, &stats);
  result.mentions = cg.mentions();  // copy out the universe
  timings.disambiguate_ms = timer.ElapsedMillis();
  if (stats.deadline_hit) {
    reason += "; deadline expired mid-sweep, remainder served from priors";
  }
  FinishPairLink(std::move(reason), stages_degraded, stats.pairs_confirmed,
                 timings, context, &result);
  return result;
}

}  // namespace core
}  // namespace tenet
