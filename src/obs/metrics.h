#ifndef TENET_OBS_METRICS_H_
#define TENET_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace tenet {
namespace obs {

// Lock-cheap runtime metrics for the serving stack, in the Prometheus data
// model: counters, gauges and latency histograms, owned by a
// MetricsRegistry and rendered as Prometheus text or JSON.
//
// Hot-path cost model: an increment/observation is one or two relaxed
// atomic adds on a cache-line-padded per-thread shard — no mutex, no
// contention between ThreadPool workers hammering the same metric.  Reads
// (Value(), rendering) sum the shards; they are O(shards) and intended for
// scrape/snapshot frequency, not per-request frequency.
//
// Identity: a metric is (family name, label string).  The label string is
// pre-rendered Prometheus label syntax without braces, e.g.
// `stage="extract"` — see LabelPair().  Cardinality rules (DESIGN.md §9):
// label values must come from small closed sets (stage names, dependency
// names, degradation rungs), never from request data.

/// Number of independent shards per metric.  A power of two; sized for the
/// serving layer's worker counts (more threads than shards just share).
inline constexpr int kMetricShards = 16;

/// The shard owned by the calling thread (assigned round-robin on first
/// use, so up to kMetricShards threads never collide).
int ThisThreadShard();

/// Renders one Prometheus label pair, `key="value"`, escaping `\`, `"` and
/// newlines in the value.  Join multiple pairs with ",".
std::string LabelPair(std::string_view key, std::string_view value);

// A monotonically increasing count (events: requests, rejects, retries,
// transitions).
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Increment(int64_t n = 1) {
    shards_[ThisThreadShard()].value.fetch_add(n, std::memory_order_relaxed);
  }

  /// Sum over all shards.
  int64_t Value() const;

  /// Back to zero (bench/test convenience; Prometheus counters never reset
  /// in production).
  void Reset();

 private:
  struct alignas(64) Shard {
    std::atomic<int64_t> value{0};
  };
  std::array<Shard, kMetricShards> shards_;
};

// A value that goes up and down (queue depth, in-flight requests, breaker
// state, retry-budget tokens).  Set/Add race benignly under concurrent
// writers — a gauge reports "a recent value", not a ledger.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  void Add(double delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  double Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

// A latency histogram over fixed exponential buckets: bucket i counts
// observations <= kFirstBucketMs * 2^i, doubling from 1 microsecond up to
// ~2 minutes, plus an overflow bucket.  Fixed bounds keep Observe() a
// branch-light index computation and make every histogram of a family
// mergeable.
class Histogram {
 public:
  /// Upper bound of the first bucket, in milliseconds (1 microsecond).
  static constexpr double kFirstBucketMs = 0.001;
  /// Finite buckets; the last finite bound is kFirstBucketMs * 2^26 ≈ 67s.
  static constexpr int kNumFiniteBuckets = 27;

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  /// Records one observation (a latency in milliseconds).  Two relaxed
  /// atomic adds on this thread's shard.
  void Observe(double value_ms);

  /// Upper bound of finite bucket `i` in milliseconds.
  static double BucketUpperBoundMs(int i);

  /// Index of the finite bucket covering `value_ms`, or kNumFiniteBuckets
  /// for the overflow bucket.
  static int BucketIndex(double value_ms);

  int64_t Count() const;
  double Sum() const;

  /// Per-bucket (non-cumulative) counts, overflow last; merged over shards.
  std::array<int64_t, kNumFiniteBuckets + 1> BucketCounts() const;

  /// Quantile estimate in [0, 1] by linear interpolation inside the
  /// covering bucket (the overflow bucket reports its lower bound).
  /// Returns 0 when empty.
  double Quantile(double q) const;
  double P50() const { return Quantile(0.50); }
  double P95() const { return Quantile(0.95); }
  double P99() const { return Quantile(0.99); }

  void Reset();

 private:
  struct alignas(64) Shard {
    std::array<std::atomic<int64_t>, kNumFiniteBuckets + 1> buckets{};
    std::atomic<double> sum{0.0};
  };
  std::array<Shard, kMetricShards> shards_;
};

// One rendered sample of a snapshot: counters and gauges yield one point
// each; a histogram expands into `<family>_count`, `<family>_sum`,
// `<family>_p50`, `<family>_p95` and `<family>_p99`.
struct MetricPoint {
  std::string name;    // family name, possibly with an expansion suffix
  std::string labels;  // pre-rendered label pairs, "" when unlabeled
  double value = 0.0;
};

// Owns metrics by (family, labels) and renders them.  Get* calls are
// find-or-create under a mutex and return stable pointers — callers resolve
// the pointer once, into a member at construction against the registry
// they were given (CircuitBreaker, BatchLinkingService), and take the lock
// never again on the hot path.  A family's type and help text are
// fixed by its first Get*; a type mismatch on the same family is a
// programming error and check-fails.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide default registry.  Library instrumentation points
  /// without an injected registry (pipeline stages, text guards, KB I/O)
  /// publish here; components with injectable registries (the serving
  /// layer) default here too, so the CLI/eval/bench read one source of
  /// truth.
  static MetricsRegistry* Default();

  Counter* GetCounter(std::string_view family, std::string_view help,
                      std::string_view labels = "");
  Gauge* GetGauge(std::string_view family, std::string_view help,
                  std::string_view labels = "");
  Histogram* GetHistogram(std::string_view family, std::string_view help,
                          std::string_view labels = "");

  /// Prometheus text exposition format, one `# HELP` / `# TYPE` block per
  /// family (sorted by name), histograms expanded into cumulative
  /// `_bucket{le=...}` series plus `_sum` and `_count`.
  std::string RenderPrometheusText() const;

  /// JSON array of sample objects: {"name","labels","value"} for counters
  /// and gauges, {"name","labels","count","sum","p50","p95","p99"} for
  /// histograms.
  std::string RenderJson() const;

  /// Flat numeric snapshot (same expansion as RenderJson), for embedding
  /// in result structs.
  std::vector<MetricPoint> Snapshot() const;

  /// Zeroes every registered metric in place.  Pointers handed out by Get*
  /// stay valid — this resets values, it does not unregister.  Meant for
  /// benches and tests that want per-run windows over the default registry.
  void Reset();

 private:
  enum class Type { kCounter, kGauge, kHistogram };

  struct Instrument {
    Type type;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  struct Family {
    std::string help;
    Type type;
    // labels -> instrument; std::map for deterministic render order.
    std::map<std::string, Instrument> instruments;
  };

  Instrument* GetLocked(std::string_view family, std::string_view help,
                        std::string_view labels, Type type);

  mutable std::mutex mu_;
  std::map<std::string, Family> families_;
};

}  // namespace obs
}  // namespace tenet

#endif  // TENET_OBS_METRICS_H_
