#include "replay.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>

#include "common/deadline.h"
#include "core/canopy.h"
#include "core/coherence_graph.h"
#include "core/disambiguator.h"
#include "core/pipeline.h"
#include "core/tree_cover.h"
#include "serving/session.h"
#include "stats.h"
#include "text/extraction.h"
#include "text/tokenizer.h"

namespace perfbench {
namespace {

namespace core = tenet::core;
namespace kb = tenet::kb;
namespace serving = tenet::serving;
namespace text = tenet::text;

class SpanRecorder {
 public:
  explicit SpanRecorder(std::vector<Span>* spans) : spans_(spans) {}

  int Begin(const char* name, int parent, int request) {
    spans_->push_back(Span{name, NowNs(), 0, parent, request});
    return static_cast<int>(spans_->size()) - 1;
  }

  /// Closes span `id`; returns its duration in milliseconds.
  double End(int id) {
    Span& span = (*spans_)[id];
    span.end_ns = NowNs();
    return static_cast<double>(span.end_ns - span.start_ns) / 1e6;
  }

 private:
  std::vector<Span>* spans_;
};

// Everything the replay accumulates across documents.
struct Totals {
  std::vector<double> extract_ms, graph_self_ms, cover_ms;
  std::vector<double> lookup_ns;
  double canopy_ms = 0, kb_ms = 0, gather_ms = 0, graph_ms = 0;
  double cover_total_ms = 0, disambiguate_ms = 0, session_ms = 0;
  double degraded_ms = 0, request_ms = 0;
  double tokens = 0, rejected = 0, truncated = 0, invalid_utf8_bytes = 0;
  double mentions = 0, canopies = 0;
  double lookups = 0, lookup_hits = 0, candidates = 0, overflow = 0;
  double rows = 0, bytes = 0;
  double concept_nodes = 0, edges = 0, pairs = 0;
  double attempts = 0, solves = 0, tree_edges = 0;
  double links = 0, relinked = 0, resolved = 0;
};

// The pipeline's output assembly after a successful cover + disambiguation
// (TenetPipeline::LinkMentionSetWithTimings), so the session layer sees
// exactly the LinkingResult the service produced.
core::LinkingResult Assemble(const core::CoherenceGraph& cg,
                             const core::DisambiguationResult& gamma) {
  core::LinkingResult result;
  const core::MentionSet& universe = cg.mentions();
  for (const auto& [mention_id, node] : gamma.selected_node) {
    const core::CoherenceGraph::ConceptNode& cn = cg.concept_node(node);
    core::LinkedConcept link;
    link.mention_id = mention_id;
    link.surface = universe.mention(mention_id).surface;
    link.kind = universe.mention(mention_id).kind;
    link.concept_ref = cn.ref;
    link.prior = cn.prior;
    result.links.push_back(std::move(link));
    result.selected_mentions.push_back(mention_id);
  }
  std::sort(result.links.begin(), result.links.end(),
            [](const core::LinkedConcept& a, const core::LinkedConcept& b) {
              return a.mention_id < b.mention_id;
            });
  for (int g = 0; g < universe.num_groups(); ++g) {
    const std::vector<int>& reading =
        gamma.group_resolved[g]
            ? universe.groups[g].canopies[gamma.winning_canopy[g]].mentions
            : universe.groups[g].short_mentions;
    for (int mention_id : reading) {
      if (!gamma.IsLinked(mention_id)) {
        result.isolated_mentions.push_back(mention_id);
        result.selected_mentions.push_back(mention_id);
      }
    }
  }
  std::sort(result.selected_mentions.begin(), result.selected_mentions.end());
  std::sort(result.isolated_mentions.begin(), result.isolated_mentions.end());
  result.mentions = universe;
  return result;
}

class Replayer {
 public:
  Replayer(const serving::KbGeneration& generation, std::vector<Span>* spans,
           Totals* totals)
      : generation_(generation),
        pipeline_(generation.linker().pipeline()),
        options_(pipeline_.options()),
        view_(generation.view()),
        extractor_(&generation.gazetteer()),
        // Non-owning handle: the generation outlives the replay.
        builder_(std::shared_ptr<const kb::KbView>(
                     std::shared_ptr<const kb::KbView>(), &view_),
                 options_.graph),
        disambiguator_(options_.disambiguator),
        recorder_(spans),
        totals_(totals) {}

  /// Replays one document; nullopt when the text layer rejected it.
  std::optional<core::LinkingResult> Document(
      const std::string& doc_text, serving::SessionContext* session,
      int request) {
    const core::TenetOptions& o = options_;
    Totals& t = *totals_;
    // Token count, outside every span: the guarded extractor does not
    // report it.
    t.tokens += static_cast<double>(
        text::Tokenize(doc_text, o.limits, nullptr).tokens.size());

    const int root = recorder_.Begin("request", -1, request);
    int span = recorder_.Begin("text", root, request);
    text::TextGuardReport guard;
    tenet::Result<text::ExtractionResult> extraction =
        extractor_.ExtractFromText(doc_text, o.limits, &guard);
    const double extract_ms = recorder_.End(span);
    t.extract_ms.push_back(extract_ms);
    t.truncated += guard.truncated() ? 1 : 0;
    t.invalid_utf8_bytes += static_cast<double>(guard.invalid_utf8_bytes);
    if (!extraction.ok()) {
      t.rejected += 1;
      t.request_ms += recorder_.End(root);
      return std::nullopt;
    }

    span = recorder_.Begin("core.canopy", root, request);
    core::MentionSet mentions = core::BuildMentionSet(
        extraction.value(), &generation_.gazetteer(), o.canopy);
    t.canopy_ms += recorder_.End(span);
    t.mentions += mentions.num_mentions();
    for (const core::MentionGroup& group : mentions.groups) {
      t.canopies += static_cast<double>(group.canopies.size());
    }

    core::LinkingResult result;
    double kb_ms = 0.0, gather_ms = 0.0;
    if (mentions.num_mentions() == 0) {
      result.mentions = std::move(mentions);
    } else {
      // kb: the candidate lookups Build is about to make.
      std::vector<kb::ConceptRef> refs;
      span = recorder_.Begin("kb", root, request);
      const int k = o.graph.max_candidates_per_mention;
      for (const core::Mention& mention : mentions.mentions) {
        int overflow = 0;
        size_t found = 0;
        const int64_t start = NowNs();
        if (mention.is_noun()) {
          for (const kb::EntityCandidate& c : view_.CandidateEntities(
                   mention.surface, mention.type, k, &overflow)) {
            refs.push_back(kb::ConceptRef::Entity(c.entity));
            ++found;
          }
        } else {
          for (const kb::PredicateCandidate& c :
               view_.CandidatePredicates(mention.surface, k, &overflow)) {
            refs.push_back(kb::ConceptRef::Predicate(c.predicate));
            ++found;
          }
        }
        t.lookup_ns.push_back(static_cast<double>(NowNs() - start));
        t.lookups += 1;
        t.lookup_hits += found > 0 ? 1 : 0;
        t.candidates += static_cast<double>(found);
        t.overflow += overflow;
      }
      kb_ms = recorder_.End(span);
      t.kb_ms += kb_ms;

      // embedding: the one unit-row gather Build makes.
      span = recorder_.Begin("embedding", root, request);
      std::vector<double> rows(refs.size() *
                               static_cast<size_t>(view_.dimension()));
      view_.GatherUnit(refs, rows.data());
      gather_ms = recorder_.End(span);
      t.gather_ms += gather_ms;
      t.rows += static_cast<double>(refs.size());
      t.bytes += static_cast<double>(rows.size() * sizeof(double));

      span = recorder_.Begin("core.graph", root, request);
      core::CoherenceGraph cg =
          builder_.Build(std::move(mentions), /*cache=*/nullptr);
      const double graph_ms = recorder_.End(span);
      t.graph_ms += graph_ms;
      t.graph_self_ms.push_back(graph_ms - kb_ms - gather_ms);
      const double c = cg.num_concept_nodes();
      t.concept_nodes += c;
      t.edges += cg.graph().num_edges();
      t.pairs += c * (c - 1) / 2;

      span = recorder_.Begin("core.cover", root, request);
      tenet::RetrySchedule schedule(o.bound_retry,
                                    o.bound_factor * cg.num_mentions());
      tenet::Result<core::TreeCover> cover =
          tenet::Status::Internal("unsolved");
      do {
        const int attempt = recorder_.Begin("core.cover.attempt", span,
                                            request);
        cover = solver_.Solve(cg, schedule.value());
        recorder_.End(attempt);
        t.attempts += 1;
        if (cover.ok() || !cover.status().IsBoundTooSmall()) break;
      } while (schedule.Next());
      const double cover_ms = recorder_.End(span);
      t.cover_ms.push_back(cover_ms);
      t.cover_total_ms += cover_ms;

      if (cover.ok()) {
        t.solves += 1;
        t.tree_edges += cover->TotalEdges();
        span = recorder_.Begin("core.disambiguate", root, request);
        core::DisambiguationResult gamma = disambiguator_.Run(cg, *cover);
        t.disambiguate_ms += recorder_.End(span);
        result = Assemble(cg, gamma);
      } else {
        // The pipeline serves a failed cover from its (private) pair-link
        // rung; ask the pipeline itself for that answer.
        span = recorder_.Begin("core.degraded", root, request);
        tenet::Result<core::LinkingResult> degraded =
            pipeline_.LinkMentionSet(cg.mentions());
        t.degraded_ms += recorder_.End(span);
        if (!degraded.ok()) {
          t.request_ms += recorder_.End(root) - kb_ms - gather_ms;
          return std::nullopt;
        }
        result = std::move(degraded.value());
      }
    }
    t.links += static_cast<double>(result.links.size());

    if (session != nullptr) {
      span = recorder_.Begin("serving.session", root, request);
      serving::SessionTurnStats stats =
          session->ApplySessionCoherence(view_, &result);
      session->ObserveTurn(result);
      t.session_ms += recorder_.End(span);
      t.relinked += stats.relinked_to_memory;
      t.resolved += stats.isolated_resolved;
    }
    // The replayed kb and embedding spans are repeats of work Build does;
    // the document's own time excludes them.
    t.request_ms += recorder_.End(root) - kb_ms - gather_ms;
    return result;
  }

 private:
  const serving::KbGeneration& generation_;
  const core::TenetPipeline& pipeline_;
  const core::TenetOptions& options_;
  const kb::KbView& view_;
  text::Extractor extractor_;
  core::CoherenceGraphBuilder builder_;
  core::TreeCoverSolver solver_;
  core::Disambiguator disambiguator_;
  SpanRecorder recorder_;
  Totals* totals_;
};

}  // namespace

serving::SessionOptions SessionOptionsFor(size_t cache_bytes) {
  serving::SessionOptions options;
  options.similarity_cache_bytes = cache_bytes;
  return options;
}

Links LinksOf(const core::LinkingResult& result) {
  Links links;
  links.reserve(result.links.size());
  for (const core::LinkedConcept& link : result.links) {
    links.emplace_back(link.mention_id, link.concept_ref);
  }
  return links;
}

ReplayReport Replay(const serving::KbGeneration& generation,
                    const std::vector<ReplayUnit>& units, bool sessions,
                    size_t session_cache_bytes) {
  ReplayReport report;
  const core::TenetPipeline& pipeline = generation.linker().pipeline();

  // Untraced: the same documents through the pipeline's own entry point
  // (plus the session layer), for trace.overhead_ratio.
  double untraced_ms = 0.0;
  for (const ReplayUnit& unit : units) {
    std::optional<serving::SessionContext> session;
    if (sessions) session.emplace(SessionOptionsFor(session_cache_bytes));
    for (const Input* input : unit.turns) {
      const int64_t start = NowNs();
      tenet::Result<core::LinkingResult> result =
          pipeline.LinkDocument(input->doc.text);
      if (result.ok() && session.has_value()) {
        session->ApplySessionCoherence(generation.view(), &result.value());
        session->ObserveTurn(result.value());
      }
      untraced_ms += static_cast<double>(NowNs() - start) / 1e6;
    }
  }

  Totals t;
  report.spans.reserve(units.size() * 16);
  Replayer replayer(generation, &report.spans, &t);
  for (const ReplayUnit& unit : units) {
    std::optional<serving::SessionContext> session;
    if (sessions) session.emplace(SessionOptionsFor(session_cache_bytes));
    for (size_t i = 0; i < unit.turns.size(); ++i) {
      std::optional<core::LinkingResult> result = replayer.Document(
          unit.turns[i]->doc.text, session.has_value() ? &*session : nullptr,
          report.documents);
      const Links* answer = unit.answers[i];
      const bool same = result.has_value()
                            ? answer != nullptr && *answer == LinksOf(*result)
                            : answer == nullptr;
      if (!same) ++report.mismatches;
      ++report.documents;
    }
  }

  const double n = std::max(1, report.documents);
  const double graph_self_ms = t.graph_ms - t.kb_ms - t.gather_ms;
  double extract_total = 0.0;
  for (double ms : t.extract_ms) extract_total += ms;
  const double layer_ms = extract_total + t.canopy_ms + t.kb_ms +
                          t.gather_ms + graph_self_ms + t.cover_total_ms +
                          t.disambiguate_ms + t.session_ms + t.degraded_ms;
  std::map<std::string, double>& m = report.metrics;
  m["text.extract_ms.p50"] = Quantile(t.extract_ms, 0.50);
  m["text.extract_ms.p99"] = Quantile(t.extract_ms, 0.99);
  m["text.tokens"] = t.tokens / n;
  m["text.rejected"] = t.rejected;
  m["text.truncated"] = t.truncated;
  m["text.invalid_utf8_bytes"] = t.invalid_utf8_bytes / n;
  m["core.canopy.ms"] = t.canopy_ms / n;
  m["core.canopy.mentions"] = t.mentions / n;
  m["core.canopy.canopies"] = t.canopies / n;
  m["kb.lookups"] = t.lookups / n;
  m["kb.lookup_ns.p50"] = Quantile(t.lookup_ns, 0.50);
  m["kb.hit_ratio"] = Ratio(t.lookup_hits, t.lookups);
  m["kb.candidates_per_lookup"] = Ratio(t.candidates, t.lookups);
  m["kb.overflow"] = t.overflow / n;
  m["embedding.gather_ms"] = t.gather_ms / n;
  m["embedding.rows"] = t.rows / n;
  m["embedding.bytes"] = t.bytes / n;
  m["core.graph.ms.p50"] = Quantile(t.graph_self_ms, 0.50);
  m["core.graph.ms.p99"] = Quantile(t.graph_self_ms, 0.99);
  m["core.graph.concept_nodes"] = t.concept_nodes / n;
  m["core.graph.edges"] = t.edges / n;
  m["core.graph.pairs"] = t.pairs / n;
  m["core.cover.ms.p50"] = Quantile(t.cover_ms, 0.50);
  m["core.cover.ms.p99"] = Quantile(t.cover_ms, 0.99);
  m["core.cover.attempts"] = t.attempts / n;
  m["core.cover.success_ratio"] = Ratio(t.solves, t.attempts);
  m["core.cover.tree_edges"] = t.tree_edges / n;
  m["core.disambiguate.ms"] = t.disambiguate_ms / n;
  m["core.disambiguate.links"] = t.links / n;
  m["serving.session.ms"] = t.session_ms / n;
  m["serving.session.relinked"] = t.relinked;
  m["serving.session.resolved"] = t.resolved;
  m["trace.docs"] = report.documents;
  m["trace.coverage"] = Ratio(layer_ms, t.request_ms);
  m["trace.overhead_ratio"] = Ratio(t.request_ms, untraced_ms);
  m["trace.graph_cover_share"] =
      Ratio(t.graph_ms + t.cover_total_ms, t.request_ms);
  report.graph_cover_ms = (t.graph_ms + t.cover_total_ms) / n;
  return report;
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                 "\"parent\": %d, \"request\": %d}\n",
                 s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent, s.request);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
