#include "obs/metrics.h"

#include <algorithm>
#include <cassert>
#include <cinttypes>
#include <cmath>
#include <cstdio>

namespace tenet {
namespace obs {
namespace {

// Values are rendered with enough digits to round-trip a double; integral
// values drop the fraction so counters read naturally.
std::string FormatValue(double value) {
  char buffer[64];
  if (value == static_cast<double>(static_cast<int64_t>(value)) &&
      std::abs(value) < 1e15) {
    std::snprintf(buffer, sizeof(buffer), "%" PRId64,
                  static_cast<int64_t>(value));
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  }
  return std::string(buffer);
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

const char* TypeName(int type) {
  switch (type) {
    case 0:
      return "counter";
    case 1:
      return "gauge";
    default:
      return "histogram";
  }
}

}  // namespace

int ThisThreadShard() {
  static std::atomic<int> next{0};
  thread_local const int shard =
      next.fetch_add(1, std::memory_order_relaxed) & (kMetricShards - 1);
  return shard;
}

std::string LabelPair(std::string_view key, std::string_view value) {
  std::string out(key);
  out += "=\"";
  for (char c : value) {
    if (c == '\\' || c == '"') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  out += '"';
  return out;
}

// ---------------------------------------------------------------- Counter

int64_t Counter::Value() const {
  int64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.value.load(std::memory_order_relaxed);
  }
  return total;
}

void Counter::Reset() {
  for (Shard& shard : shards_) {
    shard.value.store(0, std::memory_order_relaxed);
  }
}

// -------------------------------------------------------------- Histogram

double Histogram::BucketUpperBoundMs(int i) {
  return kFirstBucketMs * static_cast<double>(int64_t{1} << i);
}

int Histogram::BucketIndex(double value_ms) {
  if (!(value_ms > kFirstBucketMs)) return 0;  // also catches NaN
  // Index of the first bound >= value: bound_i = kFirstBucketMs * 2^i.
  int exponent = static_cast<int>(
      std::ceil(std::log2(value_ms / kFirstBucketMs) - 1e-9));
  if (exponent >= kNumFiniteBuckets) return kNumFiniteBuckets;
  // log2 rounding can land one bucket low on exact powers; nudge up.
  if (value_ms > BucketUpperBoundMs(exponent)) ++exponent;
  return std::min(exponent, kNumFiniteBuckets);
}

void Histogram::Observe(double value_ms) {
  Shard& shard = shards_[ThisThreadShard()];
  shard.buckets[BucketIndex(value_ms)].fetch_add(1,
                                                 std::memory_order_relaxed);
  shard.sum.fetch_add(value_ms, std::memory_order_relaxed);
}

std::array<int64_t, Histogram::kNumFiniteBuckets + 1>
Histogram::BucketCounts() const {
  std::array<int64_t, kNumFiniteBuckets + 1> totals{};
  for (const Shard& shard : shards_) {
    for (int i = 0; i <= kNumFiniteBuckets; ++i) {
      totals[i] += shard.buckets[i].load(std::memory_order_relaxed);
    }
  }
  return totals;
}

int64_t Histogram::Count() const {
  std::array<int64_t, kNumFiniteBuckets + 1> totals = BucketCounts();
  int64_t count = 0;
  for (int64_t c : totals) count += c;
  return count;
}

double Histogram::Sum() const {
  double sum = 0.0;
  for (const Shard& shard : shards_) {
    sum += shard.sum.load(std::memory_order_relaxed);
  }
  return sum;
}

double Histogram::Quantile(double q) const {
  q = std::clamp(q, 0.0, 1.0);
  std::array<int64_t, kNumFiniteBuckets + 1> totals = BucketCounts();
  int64_t count = 0;
  for (int64_t c : totals) count += c;
  if (count == 0) return 0.0;
  // Rank of the q-th observation (1-based), then walk the buckets.
  int64_t rank = static_cast<int64_t>(std::ceil(q * count));
  if (rank < 1) rank = 1;
  int64_t seen = 0;
  for (int i = 0; i <= kNumFiniteBuckets; ++i) {
    if (totals[i] == 0) continue;
    if (seen + totals[i] < rank) {
      seen += totals[i];
      continue;
    }
    double lower = i == 0 ? 0.0 : BucketUpperBoundMs(i - 1);
    if (i == kNumFiniteBuckets) return lower;  // overflow: report the floor
    double upper = BucketUpperBoundMs(i);
    double fraction =
        static_cast<double>(rank - seen) / static_cast<double>(totals[i]);
    return lower + (upper - lower) * fraction;
  }
  return BucketUpperBoundMs(kNumFiniteBuckets - 1);
}

void Histogram::Reset() {
  for (Shard& shard : shards_) {
    for (auto& bucket : shard.buckets) {
      bucket.store(0, std::memory_order_relaxed);
    }
    shard.sum.store(0.0, std::memory_order_relaxed);
  }
}

// -------------------------------------------------------- MetricsRegistry

MetricsRegistry* MetricsRegistry::Default() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return registry;
}

MetricsRegistry::Instrument* MetricsRegistry::GetLocked(
    std::string_view family, std::string_view help, std::string_view labels,
    Type type) {
  auto [family_it, family_inserted] =
      families_.try_emplace(std::string(family));
  Family& entry = family_it->second;
  if (family_inserted) {
    entry.help = std::string(help);
    entry.type = type;
  }
  assert(entry.type == type && "metric family re-registered as another type");
  auto [it, inserted] = entry.instruments.try_emplace(std::string(labels));
  if (inserted) {
    it->second.type = type;
    switch (type) {
      case Type::kCounter:
        it->second.counter = std::make_unique<Counter>();
        break;
      case Type::kGauge:
        it->second.gauge = std::make_unique<Gauge>();
        break;
      case Type::kHistogram:
        it->second.histogram = std::make_unique<Histogram>();
        break;
    }
  }
  return &it->second;
}

Counter* MetricsRegistry::GetCounter(std::string_view family,
                                     std::string_view help,
                                     std::string_view labels) {
  std::lock_guard<std::mutex> lock(mu_);
  return GetLocked(family, help, labels, Type::kCounter)->counter.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view family,
                                 std::string_view help,
                                 std::string_view labels) {
  std::lock_guard<std::mutex> lock(mu_);
  return GetLocked(family, help, labels, Type::kGauge)->gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view family,
                                         std::string_view help,
                                         std::string_view labels) {
  std::lock_guard<std::mutex> lock(mu_);
  return GetLocked(family, help, labels, Type::kHistogram)->histogram.get();
}

std::string MetricsRegistry::RenderPrometheusText() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  auto sample = [&out](const std::string& name, const std::string& labels,
                       const std::string& extra_label, double value) {
    out += name;
    if (!labels.empty() || !extra_label.empty()) {
      out += '{';
      out += labels;
      if (!labels.empty() && !extra_label.empty()) out += ',';
      out += extra_label;
      out += '}';
    }
    out += ' ';
    out += FormatValue(value);
    out += '\n';
  };
  for (const auto& [name, family] : families_) {
    out += "# HELP " + name + " " + family.help + "\n";
    out += "# TYPE " + name + " " +
           TypeName(static_cast<int>(family.type)) + "\n";
    for (const auto& [labels, instrument] : family.instruments) {
      switch (family.type) {
        case Type::kCounter:
          sample(name, labels, "",
                 static_cast<double>(instrument.counter->Value()));
          break;
        case Type::kGauge:
          sample(name, labels, "", instrument.gauge->Value());
          break;
        case Type::kHistogram: {
          const Histogram& h = *instrument.histogram;
          auto buckets = h.BucketCounts();
          int64_t cumulative = 0;
          for (int i = 0; i < Histogram::kNumFiniteBuckets; ++i) {
            cumulative += buckets[i];
            sample(name + "_bucket", labels,
                   LabelPair("le",
                             FormatValue(Histogram::BucketUpperBoundMs(i))),
                   static_cast<double>(cumulative));
          }
          cumulative += buckets[Histogram::kNumFiniteBuckets];
          sample(name + "_bucket", labels, LabelPair("le", "+Inf"),
                 static_cast<double>(cumulative));
          sample(name + "_sum", labels, "", h.Sum());
          sample(name + "_count", labels, "",
                 static_cast<double>(cumulative));
          break;
        }
      }
    }
  }
  return out;
}

std::vector<MetricPoint> MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricPoint> points;
  for (const auto& [name, family] : families_) {
    for (const auto& [labels, instrument] : family.instruments) {
      switch (family.type) {
        case Type::kCounter:
          points.push_back(
              {name, labels,
               static_cast<double>(instrument.counter->Value())});
          break;
        case Type::kGauge:
          points.push_back({name, labels, instrument.gauge->Value()});
          break;
        case Type::kHistogram: {
          const Histogram& h = *instrument.histogram;
          points.push_back(
              {name + "_count", labels, static_cast<double>(h.Count())});
          points.push_back({name + "_sum", labels, h.Sum()});
          points.push_back({name + "_p50", labels, h.P50()});
          points.push_back({name + "_p95", labels, h.P95()});
          points.push_back({name + "_p99", labels, h.P99()});
          break;
        }
      }
    }
  }
  return points;
}

std::string MetricsRegistry::RenderJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "[";
  bool first = true;
  for (const auto& [name, family] : families_) {
    for (const auto& [labels, instrument] : family.instruments) {
      if (!first) out += ",";
      first = false;
      out += "\n  {\"name\":\"" + JsonEscape(name) + "\",\"labels\":\"" +
             JsonEscape(labels) + "\",";
      switch (family.type) {
        case Type::kCounter:
          out += "\"type\":\"counter\",\"value\":" +
                 FormatValue(
                     static_cast<double>(instrument.counter->Value()));
          break;
        case Type::kGauge:
          out += "\"type\":\"gauge\",\"value\":" +
                 FormatValue(instrument.gauge->Value());
          break;
        case Type::kHistogram: {
          const Histogram& h = *instrument.histogram;
          out += "\"type\":\"histogram\",\"count\":" +
                 FormatValue(static_cast<double>(h.Count())) +
                 ",\"sum\":" + FormatValue(h.Sum()) +
                 ",\"p50\":" + FormatValue(h.P50()) +
                 ",\"p95\":" + FormatValue(h.P95()) +
                 ",\"p99\":" + FormatValue(h.P99());
          break;
        }
      }
      out += "}";
    }
  }
  out += "\n]\n";
  return out;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, family] : families_) {
    for (auto& [labels, instrument] : family.instruments) {
      switch (family.type) {
        case Type::kCounter:
          instrument.counter->Reset();
          break;
        case Type::kGauge:
          instrument.gauge->Reset();
          break;
        case Type::kHistogram:
          instrument.histogram->Reset();
          break;
      }
    }
  }
}

}  // namespace obs
}  // namespace tenet
