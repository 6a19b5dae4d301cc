// Machine-readable output of the bench harness: a tiny JSON emitter and
// the `--json <path>` / `--smoke` flag convention shared by the binaries
// that publish throughput trajectories (micro_kernels,
// figure7a_runtime_words).  Records land as a JSON array of
//   {"bench": ..., "ns_per_op": ..., "pairs_per_sec": ...}
// objects — the BENCH_coherence.json schema CI archives per commit.
#ifndef TENET_BENCH_JSON_OUT_H_
#define TENET_BENCH_JSON_OUT_H_

#include <cstdio>
#include <string>
#include <vector>

namespace tenet {
namespace bench {

// One published measurement.  `pairs_per_sec` is the bench's natural
// throughput unit: concept pairs for the similarity kernels, documents for
// the end-to-end scaling benches.  `speedup` > 0 adds a
// "speedup_vs_scalar" key (the kernel-vs-baseline ratio CI tracks).
struct JsonRecord {
  std::string bench;
  double ns_per_op = 0.0;
  double pairs_per_sec = 0.0;
  double speedup = 0.0;
};

inline bool WriteJsonRecords(const std::string& path,
                             const std::vector<JsonRecord>& records) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write bench records to %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < records.size(); ++i) {
    const JsonRecord& r = records[i];
    std::fprintf(f, "  {\"bench\": \"%s\", \"ns_per_op\": %.3f, "
                 "\"pairs_per_sec\": %.1f",
                 r.bench.c_str(), r.ns_per_op, r.pairs_per_sec);
    if (r.speedup > 0.0) {
      std::fprintf(f, ", \"speedup_vs_scalar\": %.2f", r.speedup);
    }
    std::fprintf(f, "}%s\n", i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::printf("wrote %zu bench records to %s\n", records.size(),
              path.c_str());
  return true;
}

// The flags this harness owns, stripped out of argc/argv before anything
// else (google-benchmark's own parser rejects flags it does not know).
struct JsonArgs {
  std::string json_path;  // empty: no JSON output requested
  bool smoke = false;     // short repetitions (CI tier-1 smoke)
};

inline JsonArgs StripJsonArgs(int* argc, char** argv) {
  JsonArgs args;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--json" && i + 1 < *argc) {
      args.json_path = argv[++i];
    } else if (flag == "--smoke") {
      args.smoke = true;
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  return args;
}

}  // namespace bench
}  // namespace tenet

#endif  // TENET_BENCH_JSON_OUT_H_
