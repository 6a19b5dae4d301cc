// google-benchmark micro-suite over the algorithmic kernels of TENET:
// Kruskal MST, Hopcroft-Karp matching, tree splitting, pairwise
// similarity (scalar baseline vs the vectorized DotUnit kernel), coherence
// graph construction, tree-cover solving and greedy disambiguation.
//
// Besides the interactive google-benchmark suite, `--json <path>` runs a
// hand-rolled deterministic measurement pass over the pairwise-similarity
// kernels and writes {bench, ns_per_op, pairs_per_sec} records (the
// BENCH_coherence.json trajectory CI archives); `--smoke` shortens the
// repetitions for the tier-1 CI job.
#include <benchmark/benchmark.h>

#include <cmath>

#include "bench_common.h"
#include "common/dependency_health.h"
#include "common/fault_injection.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/canopy.h"
#include "core/disambiguator.h"
#include "core/tree_cover.h"
#include "core/tree_split.h"
#include "embedding/dot_kernel.h"
#include "embedding/embedding_store.h"
#include "graph/hopcroft_karp.h"
#include "graph/mst.h"
#include "json_out.h"
#include "text/extraction.h"

namespace {

using namespace tenet;

graph::WeightedGraph RandomGraph(int n, double edge_prob, uint64_t seed) {
  Rng rng(seed);
  std::vector<graph::Edge> edges;
  for (int i = 1; i < n; ++i) {
    edges.push_back(graph::Edge{i - 1, i, rng.NextDouble(0.01, 1.0)});
  }
  for (int u = 0; u < n; ++u) {
    for (int v = u + 2; v < n; ++v) {
      if (rng.NextBool(edge_prob)) {
        edges.push_back(graph::Edge{u, v, rng.NextDouble(0.01, 1.0)});
      }
    }
  }
  return graph::WeightedGraph(n, std::move(edges));
}

void BM_KruskalMst(benchmark::State& state) {
  graph::WeightedGraph g =
      RandomGraph(static_cast<int>(state.range(0)), 0.1, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::KruskalMst(g));
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_KruskalMst)->Arg(64)->Arg(256)->Arg(1024);

void BM_HopcroftKarp(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(44);
  std::vector<std::pair<int, int>> edges;
  for (int l = 0; l < n; ++l) {
    for (int r = 0; r < n; ++r) {
      if (rng.NextBool(4.0 / n)) edges.emplace_back(l, r);
    }
  }
  for (auto _ : state) {
    graph::HopcroftKarp hk(n, n);
    for (auto [l, r] : edges) hk.AddEdge(l, r);
    benchmark::DoNotOptimize(hk.MaxMatching());
  }
}
BENCHMARK(BM_HopcroftKarp)->Arg(64)->Arg(256)->Arg(1024);

void BM_TreeSplit(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(45);
  std::vector<graph::TreeEdge> edges;
  for (int i = 1; i < n; ++i) {
    edges.push_back(graph::TreeEdge{
        static_cast<int>(rng.NextUint64(i)), i, rng.NextDouble(0.05, 1.0)});
  }
  graph::RootedTree tree =
      graph::RootedTree::FromOrientedEdges(0, edges).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::SplitTree(tree, 1.0));
  }
}
BENCHMARK(BM_TreeSplit)->Arg(64)->Arg(256)->Arg(1024);

// ---------------------------------------------------------------------------
// Pairwise similarity: the coherence stage's dominant cost.  The scalar
// baseline reproduces the pre-kernel per-pair Cosine arithmetic byte for
// byte — one fault probe, one count into a local outcome record and a
// serial double-precision dot per pair — so the recorded speedup is the
// real before/after of the batched path, not a strawman.  It no longer
// models the process-wide dependency observer call the pre-kernel Cosine
// made per pair; that observer is gone.

struct PairwiseFixture {
  int dim;
  int num_concepts;
  embedding::EmbeddingStore store;
  std::vector<kb::ConceptRef> refs;
  std::vector<double> norms;  // seed-style per-row norms over the raw data
  mutable DependencyOutcomes outcomes;

  PairwiseFixture(int dim_in, int num_concepts_in)
      : dim(dim_in),
        num_concepts(num_concepts_in),
        store(dim_in, num_concepts_in, 0) {
    Rng rng(99);
    for (int i = 0; i < num_concepts; ++i) {
      std::span<float> row = store.MutableVector(kb::ConceptRef::Entity(i));
      for (int d = 0; d < dim; ++d) {
        row[d] = static_cast<float>(rng.NextDouble(-1.0, 1.0));
      }
    }
    store.Finalize();
    refs.reserve(num_concepts);
    norms.reserve(num_concepts);
    for (int i = 0; i < num_concepts; ++i) {
      refs.push_back(kb::ConceptRef::Entity(i));
      std::span<const float> v = store.Vector(refs.back());
      double sum = 0.0;
      for (int d = 0; d < dim; ++d) sum += double{v[d]} * v[d];
      norms.push_back(std::sqrt(sum));
    }
  }

  int64_t num_pairs() const {
    return static_cast<int64_t>(num_concepts) * (num_concepts - 1) / 2;
  }
};

// The pre-kernel per-pair arithmetic, verbatim.
double ScalarBaselineCosine(const PairwiseFixture& fx, int i, int j) {
  const bool faulted = TENET_FAULT_POINT("embedding/fetch");
  fx.outcomes.Record(Dependency::kEmbeddingFetch, !faulted);
  if (faulted) return 0.0;
  if (fx.norms[i] <= 0.0 || fx.norms[j] <= 0.0) return 0.0;
  const float* va = fx.store.Vector(fx.refs[i]).data();
  const float* vb = fx.store.Vector(fx.refs[j]).data();
  double dot = 0.0;
  for (int d = 0; d < fx.dim; ++d) dot += double{va[d]} * vb[d];
  double cosine = dot / (fx.norms[i] * fx.norms[j]);
  if (cosine > 1.0) cosine = 1.0;
  if (cosine < -1.0) cosine = -1.0;
  return cosine;
}

double ScalarBaselineSweep(const PairwiseFixture& fx) {
  double sum = 0.0;
  for (int i = 0; i < fx.num_concepts; ++i) {
    for (int j = i + 1; j < fx.num_concepts; ++j) {
      sum += ScalarBaselineCosine(fx, i, j);
    }
  }
  return sum;
}

// The batched path: one gather, then DotUnit over contiguous unit rows.
double KernelSweep(const PairwiseFixture& fx, std::vector<double>& rows) {
  fx.store.GatherUnit(fx.refs, rows.data());
  double sum = 0.0;
  for (int i = 0; i < fx.num_concepts; ++i) {
    const double* ri = rows.data() + static_cast<size_t>(i) * fx.dim;
    for (int j = i + 1; j < fx.num_concepts; ++j) {
      const double* rj = rows.data() + static_cast<size_t>(j) * fx.dim;
      sum += embedding::ClampCosine(embedding::DotUnit(ri, rj, fx.dim));
    }
  }
  return sum;
}

void BM_PairwiseCosineScalarBaseline(benchmark::State& state) {
  PairwiseFixture fx(/*dim=*/128, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ScalarBaselineSweep(fx));
  }
  state.SetItemsProcessed(state.iterations() * fx.num_pairs());
}
BENCHMARK(BM_PairwiseCosineScalarBaseline)->Arg(128)->Arg(256);

void BM_PairwiseCosineKernel(benchmark::State& state) {
  PairwiseFixture fx(/*dim=*/128, static_cast<int>(state.range(0)));
  std::vector<double> rows(static_cast<size_t>(fx.num_concepts) * fx.dim);
  for (auto _ : state) {
    benchmark::DoNotOptimize(KernelSweep(fx, rows));
  }
  state.SetItemsProcessed(state.iterations() * fx.num_pairs());
}
BENCHMARK(BM_PairwiseCosineKernel)->Arg(128)->Arg(256);

// Document-scale kernels over the shared synthetic world.
const datasets::Document& BenchDocument() {
  static const datasets::Document* doc = [] {
    const bench::Environment& env = bench::GetEnvironment();
    return new datasets::Document(env.dataset("MSNBC19").documents[0]);
  }();
  return *doc;
}

core::CoherenceGraph BuildBenchGraph() {
  const bench::Environment& env = bench::GetEnvironment();
  text::Extractor extractor(&env.world.gazetteer());
  core::MentionSet mentions = core::BuildMentionSet(
      extractor.ExtractFromText(BenchDocument().text),
      &env.world.gazetteer());
  core::CoherenceGraphBuilder builder(&env.world.kb(),
                                      &env.world.embeddings);
  return builder.Build(std::move(mentions));
}

void BM_CoherenceGraphBuild(benchmark::State& state) {
  const bench::Environment& env = bench::GetEnvironment();
  text::Extractor extractor(&env.world.gazetteer());
  text::ExtractionResult extraction =
      extractor.ExtractFromText(BenchDocument().text);
  core::CoherenceGraphBuilder builder(&env.world.kb(),
                                      &env.world.embeddings);
  for (auto _ : state) {
    core::MentionSet mentions = core::BuildMentionSet(
        extraction, &env.world.gazetteer());
    benchmark::DoNotOptimize(builder.Build(std::move(mentions)));
  }
}
BENCHMARK(BM_CoherenceGraphBuild);

void BM_TreeCoverSolve(benchmark::State& state) {
  core::CoherenceGraph cg = BuildBenchGraph();
  core::TreeCoverSolver solver;
  const double bound = cg.num_mentions();
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.Solve(cg, bound));
  }
}
BENCHMARK(BM_TreeCoverSolve);

void BM_Disambiguate(benchmark::State& state) {
  core::CoherenceGraph cg = BuildBenchGraph();
  core::TreeCoverSolver solver;
  core::TreeCover cover = solver.Solve(cg, cg.num_mentions()).value();
  core::Disambiguator disambiguator;
  for (auto _ : state) {
    benchmark::DoNotOptimize(disambiguator.Run(cg, cover));
  }
}
BENCHMARK(BM_Disambiguate);

void BM_EndToEndTenet(benchmark::State& state) {
  const bench::Environment& env = bench::GetEnvironment();
  baselines::TenetLinker tenet_linker(bench::MakeSubstrate(env));
  for (auto _ : state) {
    benchmark::DoNotOptimize(tenet_linker.LinkDocument(BenchDocument().text));
  }
}
BENCHMARK(BM_EndToEndTenet);

// ---------------------------------------------------------------------------
// --json mode: hand-rolled measurements of the pairwise kernels, written
// as the BENCH_coherence.json trajectory.  Deliberately independent of the
// google-benchmark reporter so the record schema is ours to keep stable.

volatile double g_sink = 0.0;

template <typename Fn>
double MeasureNsPerOp(Fn&& fn, int64_t ops_per_call, double min_ms) {
  g_sink = g_sink + fn();  // warm-up, and defeat dead-code elimination
  WallTimer timer;
  int64_t calls = 0;
  double elapsed_ms = 0.0;
  do {
    g_sink = g_sink + fn();
    ++calls;
    elapsed_ms = timer.ElapsedMillis();
  } while (elapsed_ms < min_ms);
  return elapsed_ms * 1e6 /
         (static_cast<double>(calls) * static_cast<double>(ops_per_call));
}

bench::JsonRecord MakeRecord(const std::string& name, double ns_per_op,
                             double baseline_ns = 0.0) {
  bench::JsonRecord r;
  r.bench = name;
  r.ns_per_op = ns_per_op;
  r.pairs_per_sec = ns_per_op > 0.0 ? 1e9 / ns_per_op : 0.0;
  if (baseline_ns > 0.0) r.speedup = baseline_ns / ns_per_op;
  return r;
}

int RunJsonMode(const bench::JsonArgs& args) {
  const double min_ms = args.smoke ? 20.0 : 300.0;
  std::vector<bench::JsonRecord> records;

  // The headline pair: full pairwise sweep at a News-scale candidate count.
  {
    PairwiseFixture fx(/*dim=*/128, /*num_concepts=*/256);
    std::vector<double> rows(static_cast<size_t>(fx.num_concepts) * fx.dim);
    const int64_t pairs = fx.num_pairs();
    double scalar_ns =
        MeasureNsPerOp([&] { return ScalarBaselineSweep(fx); }, pairs, min_ms);
    double kernel_ns =
        MeasureNsPerOp([&] { return KernelSweep(fx, rows); }, pairs, min_ms);
    records.push_back(MakeRecord(
        "pairwise_cosine_scalar_baseline/C=256/dim=128", scalar_ns));
    records.push_back(MakeRecord("pairwise_cosine_kernel/C=256/dim=128",
                                 kernel_ns, scalar_ns));
    std::printf("pairwise C=256 dim=128: scalar %.1f ns/pair, kernel %.1f "
                "ns/pair (%.2fx)\n", scalar_ns, kernel_ns,
                scalar_ns / kernel_ns);
  }

  // The raw reduction at several dimensions, without per-pair bookkeeping:
  // serial double-precision dot (the seed arithmetic) vs DotUnit.
  for (int dim : {64, 128, 256}) {
    PairwiseFixture fx(dim, /*num_concepts=*/128);
    std::vector<double> rows(static_cast<size_t>(fx.num_concepts) * dim);
    fx.store.GatherUnit(fx.refs, rows.data());
    const int64_t pairs = fx.num_pairs();
    auto scalar_dot = [&] {
      double sum = 0.0;
      for (int i = 0; i < fx.num_concepts; ++i) {
        const double* ri = rows.data() + static_cast<size_t>(i) * dim;
        for (int j = i + 1; j < fx.num_concepts; ++j) {
          const double* rj = rows.data() + static_cast<size_t>(j) * dim;
          double dot = 0.0;
          for (int d = 0; d < dim; ++d) dot += ri[d] * rj[d];
          sum += dot;
        }
      }
      return sum;
    };
    auto unit_dot = [&] {
      double sum = 0.0;
      for (int i = 0; i < fx.num_concepts; ++i) {
        const double* ri = rows.data() + static_cast<size_t>(i) * dim;
        for (int j = i + 1; j < fx.num_concepts; ++j) {
          const double* rj = rows.data() + static_cast<size_t>(j) * dim;
          sum += embedding::DotUnit(ri, rj, dim);
        }
      }
      return sum;
    };
    double scalar_ns = MeasureNsPerOp(scalar_dot, pairs, min_ms);
    double unit_ns = MeasureNsPerOp(unit_dot, pairs, min_ms);
    char name[64];
    std::snprintf(name, sizeof(name), "dot_scalar_double/dim=%d", dim);
    records.push_back(MakeRecord(name, scalar_ns));
    std::snprintf(name, sizeof(name), "dot_unit/dim=%d", dim);
    records.push_back(MakeRecord(name, unit_ns, scalar_ns));
    std::printf("dot dim=%d: scalar %.1f ns, DotUnit %.1f ns (%.2fx)\n", dim,
                scalar_ns, unit_ns, scalar_ns / unit_ns);
  }

  return bench::WriteJsonRecords(args.json_path, records) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  tenet::bench::JsonArgs json_args = tenet::bench::StripJsonArgs(&argc, argv);
  if (!json_args.json_path.empty()) return RunJsonMode(json_args);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
