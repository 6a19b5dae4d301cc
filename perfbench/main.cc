// The serving benchmark: one command that drives serving::BatchLinkingService
// from a single generator thread against a KbGeneration loaded from a
// TENETKB2 snapshot, checks the answers, and prints one JSON result line.
//
//   perfbench --workload huge_docs|chat_sessions|hostile_live --seed N
//             --seconds S --trace 0|1 --work-dir DIR
//             [--expect-f1 ENTITY,RELATION] [--spans PATH]
//   perfbench --workload W --record-seeds FIRST-LAST --work-dir DIR
//
// A run (see perfbench/README.md for the why):
//   1. builds the synthetic world, generates the seeded inputs and writes
//      the snapshot pair (untimed);
//   2. set-up, repeated and reported as the median: KbGeneration::Load on
//      the snapshot pair until the service accepts requests (setup_s);
//   3. warm-up = quality pass: the quality set once through the service,
//      scored for entity/relation F1 and checked link-for-link against a
//      serial TenetPipeline run (and against the F1 recorded for the seed);
//   4. --trace 0: a closed-loop phase (docs_per_s) and an open-loop phase
//      at the workload's fixed Poisson rate (SLO attainment; the latency
//      percentiles are printed);
//      --trace 1: the open-loop phase for the serving-layer numbers, then
//      the traced per-layer replay (replay.h).
// Three service workers plus this thread: at most four busy threads.
#include <malloc.h>
#include <sys/prctl.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <string>
#include <vector>

#include "common/rng.h"
#include "datasets/world.h"
#include "eval/metrics.h"
#include "kb/delta.h"
#include "kb/io.h"
#include "obs/metrics.h"
#include "replay.h"
#include "serving/batch_service.h"
#include "serving/kb_generation.h"
#include "serving/session.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace datasets = tenet::datasets;
namespace eval = tenet::eval;
namespace kb = tenet::kb;
namespace serving = tenet::serving;
using tenet::Rng;

constexpr int kServiceWorkers = 3;
// Share of --seconds given to the closed-loop phase; the open-loop phase
// gets the rest (its latency tail needs the larger sample).
constexpr double kClosedShare = 0.3;
// Closed-loop throughput is a median over slices of this many seconds.
constexpr double kSliceS = 0.25;
// Open-loop percentiles are medians over windows of at least this many
// consecutive requests, so a host stall inside one window does not move
// them.
constexpr size_t kMinWindow = 500;
// Set-up repetitions: at least kMinSetups, more while the total stays
// under kSetupBudgetS, at most kMaxSetups.
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 25;
constexpr double kSetupBudgetS = 1.5;
// Replay sample: conversations (chat_sessions) or documents.
constexpr size_t kReplayUnits = 400;

std::chrono::steady_clock::time_point TimePoint(int64_t ns) {
  return std::chrono::steady_clock::time_point(std::chrono::nanoseconds(ns));
}

// A /proc/self/status memory field ("VmRSS:", "VmHWM:") in MiB.
double RssMb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field, 0) == 0) {
      return std::strtod(line.c_str() + field.size(), nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// Restarts the VmHWM high-water mark, so peak_rss_mb measures serving and
// not the world generation that precedes it.
void ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
  std::string spans_path;
  std::optional<std::pair<double, double>> expect_f1;
  std::optional<std::pair<uint64_t, uint64_t>> record_seeds;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    const char* text = value.c_str();
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      continue;
    } else if (flag == "--work-dir") {
      args->work_dir = value;
      continue;
    } else if (flag == "--spans") {
      args->spans_path = value;
      continue;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
      continue;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(text, &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(text, &end);
    } else if (flag == "--expect-f1") {
      const double entity = std::strtod(text, &end);
      if (*end != ',') return false;
      const double relation = std::strtod(end + 1, &end);
      args->expect_f1.emplace(entity, relation);
    } else if (flag == "--record-seeds") {
      const uint64_t first = std::strtoull(text, &end, 10);
      if (*end != '-') return false;
      const uint64_t last = std::strtoull(end + 1, &end, 10);
      args->record_seeds.emplace(first, last);
    } else {
      return false;
    }
    if (end == text || *end != '\0') return false;
  }
  return argc % 2 == 1 && !args->workload.empty() &&
         !args->work_dir.empty() && args->seconds > 0.0;
}

// ---- answers and scoring ---------------------------------------------------

struct TurnAnswer {
  bool answered = false;
  bool ok = false;
  Links links;
  eval::PRF entity;
  eval::PRF relation;
};

void ScoreInto(const Input& input, const tenet::core::LinkingResult& result,
               TurnAnswer* answer) {
  eval::SystemPrediction prediction = eval::FromLinkingResult(result);
  answer->entity = eval::ScoreEntityLinking(input.doc, prediction);
  if (input.has_relation_gold) {
    answer->relation = eval::ScoreRelationLinking(input.doc, prediction);
  }
}

struct Quality {
  eval::PRF entity;
  eval::PRF relation;
  double joint_f1() const {
    eval::PRF joint = entity;
    joint.Add(relation);
    return joint.F1();
  }
};

// ---- the generator ---------------------------------------------------------

enum class Loop {
  kQuality,  // every quality unit once, `closed_outstanding` at a time
  kClosed,   // fixed number outstanding until the phase ends
  kOpen,     // Poisson arrivals at the workload rate until the phase ends
};

struct SendRecord {
  enum Outcome : uint8_t { kPending, kFull, kDegraded, kFailed, kShed };
  int64_t due_ns = 0;
  int64_t sent_ns = 0;
  int64_t done_ns = 0;
  double service_ms = 0.0;
  Outcome outcome = kPending;
};

// Send records live in chunks allocated (and touched) before serving memory
// is measured, so the benchmark's own bookkeeping never reads as service
// memory; records never move once handed out.
class RecordArena {
 public:
  explicit RecordArena(size_t reserve) {
    while (chunks_.size() * kChunk < reserve) Grow();
  }
  size_t size() const { return size_; }
  const SendRecord& at(size_t i) const {
    return chunks_[i / kChunk][i % kChunk];
  }
  SendRecord* Append() {
    if (size_ == chunks_.size() * kChunk) Grow();
    const size_t i = size_++;
    return &chunks_[i / kChunk][i % kChunk];
  }

 private:
  static constexpr size_t kChunk = 1 << 16;
  void Grow() { chunks_.push_back(std::make_unique<SendRecord[]>(kChunk)); }
  std::vector<std::unique_ptr<SendRecord[]>> chunks_;
  size_t size_ = 0;
};

// The records one phase appended, in send order.
struct RecordRange {
  struct Iterator {
    const RecordArena* arena;
    size_t i;
    const SendRecord& operator*() const { return arena->at(i); }
    Iterator& operator++() {
      ++i;
      return *this;
    }
    bool operator!=(const Iterator& o) const { return i != o.i; }
  };
  const RecordArena* arena = nullptr;
  size_t first = 0;
  size_t last = 0;
  Iterator begin() const { return {arena, first}; }
  Iterator end() const { return {arena, last}; }
};

struct PhaseReport {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;  // planned end (0 for the quality pass)
  RecordRange records;  // empty for the closed loop
  // Closed loop: answers completed per kSliceS slice of the phase.
  std::vector<double> slice_counts;
  int64_t sent = 0, full = 0, degraded = 0, failed = 0, shed = 0;
  int64_t wrapped = 0;  // inputs sent a second time (pool exhausted)
  serving::ServiceStats before, after;
  tenet::embedding::SimilarityCache::Stats cache_before, cache_after;
  tenet::embedding::SimilarityCache::Stats session_cache;
  std::vector<double> build_ms, swap_ms;
  int update_failures = 0;

  void Count(SendRecord::Outcome outcome) {
    switch (outcome) {
      case SendRecord::kFull: ++full; break;
      case SendRecord::kDegraded: ++degraded; break;
      case SendRecord::kFailed: ++failed; break;
      case SendRecord::kShed: ++shed; break;
      case SendRecord::kPending: break;
    }
  }

  /// The phase's ledger balances and the service's own counters agree.
  bool LedgerBalances() const {
    return sent == full + degraded + failed + shed &&
           after.submitted - before.submitted == sent &&
           after.full - before.full == full &&
           after.degraded - before.degraded == degraded &&
           after.failed - before.failed == failed &&
           after.shed - before.shed == shed;
  }
};

class Generator {
 public:
  Generator(const WorkloadConfig& config, const Inputs& inputs,
            serving::BatchLinkingService* service,
            const serving::KbGenerationOptions& generation_options,
            uint64_t seed, RecordArena* records,
            std::vector<std::vector<TurnAnswer>>* answers)
      : config_(config),
        inputs_(inputs),
        service_(service),
        generation_options_(generation_options),
        seed_(seed),
        records_(*records),
        answers_(answers),
        used_(inputs.size(), 0),
        next_timed_(inputs.quality) {}

  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  /// Runs one phase.  `keep` stores each first-time answer (links, and
  /// the F1 counts when `score`) into the answers table.
  PhaseReport Run(const char* name, Loop loop, double seconds, bool keep,
                  bool score);

 private:
  struct Pending {
    int64_t due_ns;
    size_t activation;
    size_t turn;
    bool operator>(const Pending& o) const { return due_ns > o.due_ns; }
  };
  struct Completion {
    size_t activation;
    size_t turn;
    int64_t done_ns;
    SendRecord::Outcome outcome;  // kShed abandons the conversation
  };
  struct Activation {
    size_t unit;
    bool keep;
    std::unique_ptr<serving::SessionContext> session;
  };

  size_t Start(size_t unit, bool keep, PhaseReport* report);
  void Send(const Pending& p, bool score, PhaseReport* report);
  void ApplyUpdate(PhaseReport* report);

  const WorkloadConfig& config_;
  const Inputs& inputs_;
  serving::BatchLinkingService* service_;
  const serving::KbGenerationOptions& generation_options_;
  const uint64_t seed_;
  RecordArena& records_;
  std::vector<std::vector<TurnAnswer>>* answers_;
  std::vector<uint8_t> used_;
  size_t next_timed_;
  int64_t submissions_ = 0;
  uint64_t updates_ = 0;
  uint64_t phases_ = 0;
  // Slots of the units in flight; an ended unit's slot is reused, so the
  // generator's memory does not grow with throughput.
  std::vector<Activation> activations_;
  std::vector<size_t> free_activations_;
  // Off in the closed loop, which keeps counts only (see Run).
  bool record_sends_ = true;

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Completion> mailbox_;  // guarded by mu_
};

size_t Generator::Start(size_t unit, bool keep, PhaseReport* report) {
  Activation activation{unit, keep && used_[unit] == 0, nullptr};
  if (used_[unit] != 0) ++report->wrapped;
  used_[unit] = 1;
  if (config_.sessions) {
    activation.session = std::make_unique<serving::SessionContext>(
        SessionOptionsFor(config_.session_cache_bytes));
  }
  if (free_activations_.empty()) {
    activations_.push_back(std::move(activation));
    return activations_.size() - 1;
  }
  const size_t slot = free_activations_.back();
  free_activations_.pop_back();
  activations_[slot] = std::move(activation);
  return slot;
}

void Generator::ApplyUpdate(PhaseReport* report) {
  // The `tenet_cli eval --kb-update-every` drill's delta: one fresh,
  // unmentioned entity per update, so no answer (and no F1) changes while
  // the delta apply, RCU swap and cache-epoch turnover all run.
  std::shared_ptr<const serving::KbGeneration> current =
      service_->generation();
  kb::DeltaBuilder builder(current->kb());
  Rng rng(seed_ * 1000003ull + updates_);
  const std::string label = "zz live update " + std::to_string(updates_);
  kb::EntityId id = builder.AddEntity(label, kb::EntityType::kPerson,
                                      /*domain=*/0, /*popularity=*/1.0);
  builder.AddEntityAlias(id, label + " (alias)", 1.0);
  std::vector<float> row(current->embeddings().dimension());
  for (float& v : row) v = static_cast<float>(rng.NextGaussian());
  builder.SetEmbedding(kb::ConceptRef::Entity(id), row);
  std::vector<kb::DeltaSegment> segments;
  segments.push_back(builder.Build());
  ++updates_;

  const int64_t t0 = NowNs();
  tenet::Result<std::shared_ptr<const serving::KbGeneration>> next =
      current->WithDeltas(segments, current->id() + 1, generation_options_);
  const int64_t t1 = NowNs();
  report->build_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
  if (!next.ok()) {
    ++report->update_failures;
    std::fprintf(stderr, "update %llu: %s\n",
                 static_cast<unsigned long long>(updates_),
                 next.status().ToString().c_str());
    return;
  }
  tenet::Status swapped = service_->SwapGeneration(*next);
  report->swap_ms.push_back(static_cast<double>(NowNs() - t1) / 1e6);
  if (!swapped.ok()) {
    ++report->update_failures;
    std::fprintf(stderr, "swap %llu: %s\n",
                 static_cast<unsigned long long>(updates_),
                 swapped.ToString().c_str());
  }
}

void Generator::Send(const Pending& p, bool score, PhaseReport* report) {
  if (config_.update_every > 0 && submissions_ > 0 &&
      submissions_ % config_.update_every == 0) {
    ApplyUpdate(report);
  }
  ++submissions_;
  ++report->sent;
  Activation& activation = activations_[p.activation];
  const Input& input = inputs_.turn(activation.unit, p.turn);
  SendRecord* record = record_sends_ ? records_.Append() : nullptr;
  const int64_t sent_ns = NowNs();
  TurnAnswer* answer =
      activation.keep ? &(*answers_)[activation.unit][p.turn] : nullptr;
  serving::SessionContext* session = activation.session.get();
  tenet::core::LinkContext context =
      session != nullptr ? session->MakeLinkContext()
                         : tenet::core::LinkContext{};
  const kb::KbView* view =
      session != nullptr ? &service_->generation()->view() : nullptr;
  const size_t activation_id = p.activation;
  const size_t turn = p.turn;
  if (record != nullptr) {
    record->due_ns = p.due_ns;
    record->sent_ns = sent_ns;
  }
  tenet::Status submitted = service_->Submit(
      input.doc.text, context,
      [this, record, answer, session, view, &input, score, activation_id,
       turn](serving::ServedResult served) {
        SendRecord::Outcome outcome = SendRecord::kFailed;
        if (served.result.ok()) {
          tenet::core::LinkingResult& result = served.result.value();
          if (session != nullptr) {
            session->ApplySessionCoherence(*view, &result);
            session->ObserveTurn(result);
          }
          outcome = result.degradation.degraded() ? SendRecord::kDegraded
                                                  : SendRecord::kFull;
          if (answer != nullptr) {
            answer->ok = true;
            answer->links = LinksOf(result);
            if (score) ScoreInto(input, result, answer);
          }
        }
        if (answer != nullptr) answer->answered = true;
        const int64_t done_ns = NowNs();
        if (record != nullptr) {
          record->service_ms = served.latency_ms;
          record->outcome = outcome;
          record->done_ns = done_ns;
        }
        std::lock_guard<std::mutex> lock(mu_);
        mailbox_.push_back(Completion{activation_id, turn, done_ns, outcome});
        cv_.notify_one();
      });
  if (!submitted.ok()) {
    if (record != nullptr) {
      record->outcome = SendRecord::kShed;
      record->done_ns = sent_ns;
    }
    std::lock_guard<std::mutex> lock(mu_);
    mailbox_.push_back(
        Completion{activation_id, turn, sent_ns, SendRecord::kShed});
  }
}

PhaseReport Generator::Run(const char* name, Loop loop, double seconds,
                           bool keep, bool score) {
  PhaseReport report;
  report.name = name;
  report.before = service_->Stats();
  tenet::embedding::SimilarityCache* cache = service_->similarity_cache();
  if (cache != nullptr) report.cache_before = cache->GetStats();

  // Arrival gaps and think times come from the seed, per phase.
  Rng rng(seed_ * 7919 + ++phases_);
  auto exponential_ns = [&rng](double mean_s) {
    return static_cast<int64_t>(-std::log(1.0 - rng.NextDouble()) * mean_s *
                                1e9);
  };
  const int64_t start = NowNs();
  const int64_t end = loop == Loop::kQuality
                          ? std::numeric_limits<int64_t>::max()
                          : start + static_cast<int64_t>(seconds * 1e9);
  report.start_ns = start;
  report.end_ns = loop == Loop::kQuality ? 0 : end;
  report.records = RecordRange{&records_, records_.size(), records_.size()};
  // The closed loop only counts (its sends scale with throughput, and
  // per-send records would read as serving memory).
  record_sends_ = loop != Loop::kClosed;
  const double slice_ns = kSliceS * 1e9;
  if (loop == Loop::kClosed) {
    report.slice_counts.assign(
        std::max(1, static_cast<int>(seconds / kSliceS)), 0.0);
  }
  const double think_s = loop == Loop::kOpen ? config_.think_ms / 1e3 : 0.0;

  std::priority_queue<Pending, std::vector<Pending>, std::greater<Pending>>
      pending;
  int active = 0;
  size_t next_quality = 0;
  bool arrivals_done = false;
  int64_t next_arrival = start + exponential_ns(1.0 / config_.rate_per_s);
  std::vector<Completion> inbox;

  auto next_unit = [this]() {
    size_t unit = next_timed_++;
    if (next_timed_ >= inputs_.size()) next_timed_ = inputs_.quality;
    return unit;
  };
  auto start_unit = [&](size_t unit, int64_t due) {
    pending.push(Pending{due, Start(unit, keep, &report), 0});
    ++active;
  };

  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      inbox.swap(mailbox_);
    }
    for (const Completion& c : inbox) {
      report.Count(c.outcome);
      const size_t slice =
          static_cast<size_t>(static_cast<double>(c.done_ns - start) / slice_ns);
      if (c.outcome != SendRecord::kShed && c.outcome != SendRecord::kFailed &&
          slice < report.slice_counts.size()) {
        report.slice_counts[slice] += 1.0;
      }
      Activation& activation = activations_[c.activation];
      if (c.outcome != SendRecord::kShed &&
          c.turn + 1 < inputs_.turns(activation.unit)) {
        const int64_t due = c.done_ns + exponential_ns(think_s);
        if (due < end) {
          pending.push(Pending{due, c.activation, c.turn + 1});
          continue;
        }
      }
      if (activation.session != nullptr) {
        const auto stats = activation.session->similarity_cache()->GetStats();
        report.session_cache.hits += stats.hits;
        report.session_cache.misses += stats.misses;
        activation.session.reset();
      }
      free_activations_.push_back(c.activation);
      --active;
    }
    inbox.clear();

    const int64_t now = NowNs();
    switch (loop) {
      case Loop::kQuality:
        while (active < config_.closed_outstanding &&
               next_quality < inputs_.quality) {
          start_unit(next_quality++, now);
        }
        arrivals_done = next_quality >= inputs_.quality;
        break;
      case Loop::kClosed:
        while (now < end && active < config_.closed_outstanding) {
          start_unit(next_unit(), now);
        }
        arrivals_done = now >= end;
        break;
      case Loop::kOpen:
        if (next_arrival >= end) arrivals_done = true;
        while (!arrivals_done && next_arrival <= now) {
          if (next_arrival >= end) {
            arrivals_done = true;
            break;
          }
          start_unit(next_unit(), next_arrival);
          next_arrival += exponential_ns(1.0 / config_.rate_per_s);
        }
        break;
    }

    if (!pending.empty() && pending.top().due_ns <= now) {
      Pending p = pending.top();
      pending.pop();
      Send(p, score, &report);
      continue;
    }
    if (arrivals_done && pending.empty() && active == 0) break;

    int64_t wake = std::numeric_limits<int64_t>::max();
    if (!pending.empty()) wake = pending.top().due_ns;
    if (!arrivals_done && loop == Loop::kOpen) {
      wake = std::min(wake, next_arrival);
    }
    if (!arrivals_done && loop == Loop::kClosed) wake = std::min(wake, end);
    auto posted = [this] { return !mailbox_.empty(); };
    std::unique_lock<std::mutex> lock(mu_);
    if (wake == std::numeric_limits<int64_t>::max()) {
      cv_.wait(lock, posted);
    } else {
      cv_.wait_until(lock, TimePoint(wake), posted);
    }
  }

  activations_.clear();
  free_activations_.clear();
  report.records.last = records_.size();
  report.after = service_->Stats();
  if (cache != nullptr) report.cache_after = cache->GetStats();
  return report;
}

// ---- metrics ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

bool Answered(const SendRecord& r) {
  return r.outcome == SendRecord::kFull || r.outcome == SendRecord::kDegraded;
}

double LatencyMs(const SendRecord& r) {
  return static_cast<double>(r.done_ns - r.due_ns) / 1e6;
}

// Closed loop: answers completed per second, the median over slices of
// kSliceS seconds, so a host stall inside one slice does not move it.
double ThroughputPerS(const PhaseReport& phase) {
  return Quantile(phase.slice_counts, 0.5) / kSliceS;
}

// Open loop: latency percentile `q`, the median over equal runs of
// consecutive requests of at least kMinWindow samples each.
double WindowedLatencyMs(const std::vector<double>& latency, double q) {
  const size_t windows = std::max<size_t>(latency.size() / kMinWindow, 1);
  std::vector<double> per_window;
  for (size_t w = 0; w < windows; ++w) {
    const size_t begin = latency.size() * w / windows;
    const size_t end = latency.size() * (w + 1) / windows;
    per_window.push_back(Quantile(
        std::vector<double>(latency.begin() + begin, latency.begin() + end),
        q));
  }
  return Quantile(per_window, 0.5);
}

void PrintLedger(const PhaseReport& p) {
  std::vector<double> lag;
  for (const SendRecord& r : p.records) {
    lag.push_back(static_cast<double>(r.sent_ns - r.due_ns) / 1e6);
  }
  std::string extra;
  if (!lag.empty()) {
    extra = "  generator_lag_ms.p99 " + std::to_string(Quantile(lag, 0.99));
  }
  if (p.wrapped > 0) {
    extra += "  (inputs reused: " + std::to_string(p.wrapped) + ")";
  }
  std::printf(
      "# phase %-8s sent %lld  succeeded %lld (full %lld, degraded %lld)  "
      "failed %lld  shed %lld%s\n",
      p.name, static_cast<long long>(p.sent),
      static_cast<long long>(p.full + p.degraded),
      static_cast<long long>(p.full), static_cast<long long>(p.degraded),
      static_cast<long long>(p.failed), static_cast<long long>(p.shed),
      extra.c_str());
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i > 0 ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

// ---- set-up and the serial reference ---------------------------------------

struct Snapshot {
  std::string kb_path;
  std::string embeddings_path;
  double bytes = 0.0;
};

tenet::Result<Snapshot> WriteSnapshot(const datasets::SyntheticWorld& world,
                                      const std::string& dir) {
  Snapshot s;
  s.kb_path = dir + "/world.tenetkb";
  s.embeddings_path = dir + "/world.tenetemb";
  tenet::Status st = kb::SaveKnowledgeBase(world.kb(), s.kb_path);
  if (!st.ok()) return st;
  st = kb::SaveEmbeddings(world.embeddings, s.embeddings_path);
  if (!st.ok()) return st;
  s.bytes = static_cast<double>(std::filesystem::file_size(s.kb_path) +
                                std::filesystem::file_size(s.embeddings_path));
  return s;
}

// Links the quality set serially through the generation's own pipeline
// (plus the session layer), the reference the service must match.
std::vector<std::vector<TurnAnswer>> SerialReference(
    const serving::KbGeneration& generation, const WorkloadConfig& config,
    const Inputs& inputs) {
  std::vector<std::vector<TurnAnswer>> out(inputs.quality);
  for (size_t u = 0; u < inputs.quality; ++u) {
    std::optional<serving::SessionContext> session;
    if (config.sessions) {
      session.emplace(SessionOptionsFor(config.session_cache_bytes));
    }
    out[u].resize(inputs.turns(u));
    for (size_t t = 0; t < out[u].size(); ++t) {
      const Input& input = inputs.turn(u, t);
      tenet::Result<tenet::core::LinkingResult> result =
          generation.linker().LinkDocument(input.doc.text);
      TurnAnswer& answer = out[u][t];
      answer.answered = true;
      if (!result.ok()) continue;
      if (session.has_value()) {
        session->ApplySessionCoherence(generation.view(), &result.value());
        session->ObserveTurn(result.value());
      }
      answer.ok = true;
      answer.links = LinksOf(*result);
      ScoreInto(input, *result, &answer);
    }
  }
  return out;
}

Quality Score(const std::vector<std::vector<TurnAnswer>>& answers,
              size_t units) {
  Quality q;
  for (size_t u = 0; u < units; ++u) {
    for (const TurnAnswer& a : answers[u]) {
      q.entity.Add(a.entity);
      q.relation.Add(a.relation);
    }
  }
  return q;
}

int RecordSeeds(const Args& args, const WorkloadConfig& config,
                const datasets::SyntheticWorld& world,
                const serving::KbGeneration& generation) {
  std::printf("{");
  for (uint64_t seed = args.record_seeds->first;
       seed <= args.record_seeds->second; ++seed) {
    Inputs inputs = GenerateInputs(config, world.kb_world, seed, 0);
    Quality q = Score(SerialReference(generation, config, inputs),
                      inputs.quality);
    std::printf("%s\"%llu\": [%.17g, %.17g]",
                seed == args.record_seeds->first ? "" : ", ",
                static_cast<unsigned long long>(seed), q.entity.F1(),
                q.relation.F1());
    std::fflush(stdout);
  }
  std::printf("}\n");
  return 0;
}

// The per-layer metrics of a traced run, in BENCHMARK.json order.
const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"serving.latency_ms.p50", "ms"},
    {"serving.latency_ms.p99", "ms"},
    {"serving.queue_wait_ms.p50", "ms"},
    {"serving.queue_wait_ms.p99", "ms"},
    {"serving.service_ms.p50", "ms"},
    {"serving.service_ms.p99", "ms"},
    {"serving.shed", "count"},
    {"serving.retries", "count"},
    {"serving.breaker_degraded", "count"},
    {"serving.generator_lag_ms.p99", "ms"},
    {"text.extract_ms.p50", "ms"},
    {"text.extract_ms.p99", "ms"},
    {"text.tokens", "count/doc"},
    {"text.rejected", "count"},
    {"text.truncated", "count"},
    {"text.invalid_utf8_bytes", "bytes/doc"},
    {"core.canopy.ms", "ms/doc"},
    {"core.canopy.mentions", "count/doc"},
    {"core.canopy.canopies", "count/doc"},
    {"kb.lookups", "count/doc"},
    {"kb.lookup_ns.p50", "ns"},
    {"kb.hit_ratio", "ratio"},
    {"kb.candidates_per_lookup", "count"},
    {"kb.overflow", "count/doc"},
    {"embedding.gather_ms", "ms/doc"},
    {"embedding.rows", "count/doc"},
    {"embedding.bytes", "bytes/doc"},
    {"embedding.sim_cache_hit_ratio", "ratio"},
    {"core.graph.ms.p50", "ms"},
    {"core.graph.ms.p99", "ms"},
    {"core.graph.concept_nodes", "count/doc"},
    {"core.graph.edges", "count/doc"},
    {"core.graph.pairs", "count/doc"},
    {"core.cover.ms.p50", "ms"},
    {"core.cover.ms.p99", "ms"},
    {"core.cover.attempts", "count/doc"},
    {"core.cover.success_ratio", "ratio"},
    {"core.cover.tree_edges", "count/doc"},
    {"core.disambiguate.ms", "ms/doc"},
    {"core.disambiguate.links", "count/doc"},
    {"serving.session.ms", "ms/doc"},
    {"serving.session.relinked", "count"},
    {"serving.session.resolved", "count"},
    {"serving.generation.build_ms", "ms"},
    {"serving.generation.swap_ms", "ms"},
    {"serving.generation.swaps_ok", "count"},
    {"serving.generation.swaps_rolled_back", "count"},
    {"kb.io.load_ms", "ms"},
    {"kb.io.snapshot_bytes", "bytes"},
    {"trace.docs", "count"},
    {"trace.coverage", "ratio"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.graph_cover_share", "ratio"},
    {"trace.graph_cover_share_served", "ratio"},
};

double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

// The traced pass: serving-layer numbers from the open-loop phase, then the
// per-layer replay of a seeded sample of the answered units.
bool TracedMetrics(const Args& args, const WorkloadConfig& config,
                   const Inputs& inputs, const PhaseReport& open,
                   const std::vector<std::vector<TurnAnswer>>& answers,
                   const serving::KbGeneration& generation,
                   std::map<std::string, double>* m) {
  std::vector<double> latency, queue_wait, service, lag;
  double latency_sum = 0.0;
  for (const SendRecord& r : open.records) {
    lag.push_back(static_cast<double>(r.sent_ns - r.due_ns) / 1e6);
    if (r.outcome == SendRecord::kShed) continue;
    latency.push_back(LatencyMs(r));
    service.push_back(r.service_ms);
    queue_wait.push_back(LatencyMs(r) - r.service_ms);
    latency_sum += LatencyMs(r);
  }
  (*m)["serving.latency_ms.p50"] = WindowedLatencyMs(latency, 0.50);
  (*m)["serving.latency_ms.p99"] = WindowedLatencyMs(latency, 0.99);
  (*m)["serving.queue_wait_ms.p50"] = Quantile(queue_wait, 0.50);
  (*m)["serving.queue_wait_ms.p99"] = Quantile(queue_wait, 0.99);
  (*m)["serving.service_ms.p50"] = Quantile(service, 0.50);
  (*m)["serving.service_ms.p99"] = Quantile(service, 0.99);
  (*m)["serving.shed"] = open.after.shed - open.before.shed;
  (*m)["serving.retries"] = open.after.retries - open.before.retries;
  (*m)["serving.breaker_degraded"] =
      open.after.breaker_degraded - open.before.breaker_degraded;
  (*m)["serving.generator_lag_ms.p99"] = Quantile(lag, 0.99);
  if (config.sessions) {
    (*m)["embedding.sim_cache_hit_ratio"] = open.session_cache.HitRate();
  } else {
    (*m)["embedding.sim_cache_hit_ratio"] =
        Ratio(open.cache_after.hits - open.cache_before.hits,
              (open.cache_after.hits + open.cache_after.misses) -
                  (open.cache_before.hits + open.cache_before.misses));
  }
  (*m)["serving.generation.build_ms"] = Mean(open.build_ms);
  (*m)["serving.generation.swap_ms"] = Mean(open.swap_ms);
  (*m)["serving.generation.swaps_ok"] =
      open.after.swaps_ok - open.before.swaps_ok;
  (*m)["serving.generation.swaps_rolled_back"] =
      open.after.swaps_rolled_back - open.before.swaps_rolled_back;

  // A seeded sample of the units answered in full, quality set included.
  std::vector<size_t> candidates;
  for (size_t u = 0; u < inputs.size(); ++u) {
    bool complete = true;
    for (const TurnAnswer& a : answers[u]) complete &= a.answered;
    if (complete) candidates.push_back(u);
  }
  Rng rng(args.seed * 104729 + 7);
  rng.Shuffle(candidates);
  candidates.resize(std::min(candidates.size(), kReplayUnits));
  std::sort(candidates.begin(), candidates.end());
  std::vector<ReplayUnit> units;
  for (size_t u : candidates) {
    ReplayUnit unit;
    for (size_t t = 0; t < inputs.turns(u); ++t) {
      unit.turns.push_back(&inputs.turn(u, t));
      unit.answers.push_back(answers[u][t].ok ? &answers[u][t].links
                                              : nullptr);
    }
    units.push_back(std::move(unit));
  }
  ReplayReport replay =
      Replay(generation, units, config.sessions, config.session_cache_bytes);
  for (const auto& [name, value] : replay.metrics) (*m)[name] = value;
  (*m)["trace.graph_cover_share_served"] = Ratio(
      replay.graph_cover_ms,
      Ratio(latency_sum, static_cast<double>(service.size())));
  std::printf("# replay: %d documents, %d differ from the service's answer\n",
              replay.documents, replay.mismatches);
  bool ok = replay.mismatches == 0;
  if (!args.spans_path.empty()) {
    if (WriteSpans(args.spans_path, replay.spans)) {
      std::printf("# spans: %zu written to %s\n", replay.spans.size(),
                  args.spans_path.c_str());
    } else {
      std::fprintf(stderr, "cannot write spans to %s\n",
                   args.spans_path.c_str());
      ok = false;
    }
  }
  return ok;
}

int Run(const Args& args) {
  const WorkloadConfig* found = FindWorkload(args.workload);
  if (found == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const WorkloadConfig& config = *found;
  // Sleep precision of the open-loop schedule: the default 50us timer
  // slack would show up as generator lag.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);

  // 1. World, inputs and snapshot (untimed).
  const int64_t prepare_begin = NowNs();
  std::filesystem::create_directories(args.work_dir);
  datasets::WorldOptions world_options;
  if (config.huge_world) world_options.kb = kb::SyntheticKbOptions::Huge();
  auto world = std::make_unique<datasets::SyntheticWorld>(
      datasets::BuildWorld(world_options));
  tenet::Result<Snapshot> snapshot = WriteSnapshot(*world, args.work_dir);
  if (!snapshot.ok()) {
    std::fprintf(stderr, "snapshot: %s\n",
                 snapshot.status().ToString().c_str());
    return 1;
  }
  serving::KbGenerationOptions generation_options;
  auto load = [&] {
    return serving::KbGeneration::Load(snapshot->kb_path,
                                       snapshot->embeddings_path, {},
                                       /*id=*/1, generation_options);
  };
  if (args.record_seeds.has_value()) {
    auto generation = load();
    if (!generation.ok()) {
      std::fprintf(stderr, "load: %s\n",
                   generation.status().ToString().c_str());
      return 1;
    }
    return RecordSeeds(args, config, *world, **generation);
  }
  Inputs inputs = GenerateInputs(config, world->kb_world, args.seed,
                                 DefaultPoolSize(config, args.seconds));
  world.reset();
  // The benchmark's own bookkeeping, allocated up front: one answer slot
  // per turn, and send records for the warm-up and twice the expected
  // open-loop sends.
  std::vector<std::vector<TurnAnswer>> answers(inputs.size());
  size_t turns = 0, quality_turns = 0;
  for (size_t u = 0; u < inputs.size(); ++u) {
    answers[u].resize(inputs.turns(u));
    turns += answers[u].size();
    if (u < inputs.quality) quality_turns += answers[u].size();
  }
  const double open_s = args.seconds * (1.0 - kClosedShare);
  RecordArena records(
      quality_turns +
      static_cast<size_t>(2.0 * config.rate_per_s * open_s *
                          static_cast<double>(turns) /
                          static_cast<double>(inputs.size())));
  std::printf("# prepare: %zu inputs (%zu in the quality set, %zu turns) in "
              "%.2f s, %.0f MB resident\n",
              inputs.size(), inputs.quality, turns,
              static_cast<double>(NowNs() - prepare_begin) / 1e9,
              RssMb("VmHWM:"));
  // Serving memory is measured above this baseline (the inputs stay
  // resident; the world's freed pages go back to the system first).
  malloc_trim(0);
  const double baseline_rss_mb = RssMb("VmRSS:");
  ResetPeakRss();

  // 2. Set-up, repeated: snapshot load until the service accepts requests.
  tenet::obs::MetricsRegistry registry;
  serving::ServingOptions serving_options;
  serving_options.num_threads = kServiceWorkers;
  serving_options.queue_capacity = 512;
  serving_options.overflow = tenet::QueueOverflowPolicy::kBlock;
  serving_options.similarity_cache_bytes = config.service_cache_bytes;
  serving_options.metrics = &registry;
  std::unique_ptr<serving::BatchLinkingService> service;
  std::vector<double> setup_s, load_ms;
  const int64_t setup_begin = NowNs();
  for (int rep = 0; rep < kMaxSetups; ++rep) {
    if (rep >= kMinSetups &&
        static_cast<double>(NowNs() - setup_begin) / 1e9 >= kSetupBudgetS) {
      break;
    }
    service.reset();
    const int64_t t0 = NowNs();
    auto generation = load();
    const int64_t t1 = NowNs();
    if (!generation.ok()) {
      std::fprintf(stderr, "load: %s\n",
                   generation.status().ToString().c_str());
      return 1;
    }
    service = std::make_unique<serving::BatchLinkingService>(
        *generation, serving_options);
    const int64_t t2 = NowNs();
    setup_s.push_back(static_cast<double>(t2 - t0) / 1e9);
    load_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
  }

  // 3. Warm-up = quality pass, checked against the serial reference.
  bool correct = true;
  Generator generator(config, inputs, service.get(), generation_options,
                      args.seed, &records, &answers);
  PhaseReport warmup = generator.Run("warm-up", Loop::kQuality, 0.0,
                                     /*keep=*/true, /*score=*/true);
  PrintLedger(warmup);
  const Quality quality = Score(answers, inputs.quality);
  int differing = 0;
  {
    const std::vector<std::vector<TurnAnswer>> reference =
        SerialReference(*service->generation(), config, inputs);
    for (size_t u = 0; u < inputs.quality; ++u) {
      for (size_t t = 0; t < answers[u].size(); ++t) {
        if (answers[u][t].ok != reference[u][t].ok ||
            answers[u][t].links != reference[u][t].links) {
          ++differing;
        }
      }
    }
  }
  if (differing > 0) {
    std::fprintf(stderr,
                 "check failed: %d quality-set answers differ from the "
                 "serial pipeline\n",
                 differing);
    correct = false;
  }
  if (!warmup.LedgerBalances()) {
    std::fprintf(stderr, "check failed: warm-up ledger does not balance\n");
    correct = false;
  }
  if (args.expect_f1.has_value()) {
    if (quality.entity.F1() != args.expect_f1->first ||
        quality.relation.F1() != args.expect_f1->second) {
      std::fprintf(stderr,
                   "check failed: F1 %.17g/%.17g differs from the values "
                   "recorded for seed %llu (%.17g/%.17g)\n",
                   quality.entity.F1(), quality.relation.F1(),
                   static_cast<unsigned long long>(args.seed),
                   args.expect_f1->first, args.expect_f1->second);
      correct = false;
    }
  } else {
    std::printf("# no F1 recorded for seed %llu: checked against the serial "
                "pipeline only\n",
                static_cast<unsigned long long>(args.seed));
  }

  // 4. Timed phases.
  const double closed_s = args.seconds * kClosedShare;
  std::vector<Metric> metrics;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<const PhaseReport*> phases;
  PhaseReport closed, open;
  if (!args.trace) {
    closed = generator.Run("closed", Loop::kClosed, closed_s, false, false);
    open = generator.Run("open", Loop::kOpen, open_s, false, false);
    phases = {&closed, &open};
  } else {
    open = generator.Run("open", Loop::kOpen, open_s, /*keep=*/true, false);
    phases = {&open};
  }
  int64_t full = 0, degraded = 0;
  for (const PhaseReport* p : phases) {
    PrintLedger(*p);
    attempted += p->sent;
    failed += p->failed + p->shed;
    full += p->full;
    degraded += p->degraded;
    if (!p->LedgerBalances()) {
      std::fprintf(stderr, "check failed: %s ledger does not balance\n",
                   p->name);
      correct = false;
    }
    if (p->update_failures > 0) {
      std::fprintf(stderr, "check failed: %d live updates failed in %s\n",
                   p->update_failures, p->name);
      correct = false;
    }
  }

  if (!args.trace) {
    std::vector<double> latency;
    int64_t within = 0;
    for (const SendRecord& r : open.records) {
      if (r.outcome == SendRecord::kShed) continue;
      latency.push_back(LatencyMs(r));
      if (Answered(r) && LatencyMs(r) <= config.latency_limit_ms) ++within;
    }
    const double answered = static_cast<double>(full + degraded);
    metrics = {
        {"docs_per_s", ThroughputPerS(closed), "1/s"},
        {"slo_attainment",
         Ratio(static_cast<double>(within), static_cast<double>(open.sent)),
         "ratio"},
        {"entity_f1", quality.entity.F1(), "ratio"},
        {"joint_f1", quality.joint_f1(), "ratio"},
        {"answered_ratio", Ratio(answered, static_cast<double>(attempted)),
         "ratio"},
        {"full_answer_ratio", Ratio(static_cast<double>(full), answered),
         "ratio"},
        {"peak_rss_mb", RssMb("VmHWM:") - baseline_rss_mb, "MB"},
        {"setup_s", Quantile(setup_s, 0.5), "s"},
    };
    std::printf(
        "# %s seed %llu: rate %.0f/s, latency limit %.0f ms, %zu open-loop "
        "latency samples, %zu set-ups\n",
        config.name, static_cast<unsigned long long>(args.seed),
        config.rate_per_s, config.latency_limit_ms, latency.size(),
        setup_s.size());
    std::printf(
        "# latency_p50_ms %.6f  latency_p99_ms %.6f  relation_f1 %.6f  "
        "degraded_ratio %.6f  failed_ratio %.6f\n",
        WindowedLatencyMs(latency, 0.50), WindowedLatencyMs(latency, 0.99),
        quality.relation.F1(), Ratio(degraded, answered),
        Ratio(static_cast<double>(failed), static_cast<double>(attempted)));
    for (const Metric& metric : metrics) {
      std::printf("# %-18s %14.6f %s\n", metric.name.c_str(), metric.value,
                  metric.unit);
    }
  } else {
    std::map<std::string, double> m;
    m["kb.io.load_ms"] = Quantile(load_ms, 0.5);
    m["kb.io.snapshot_bytes"] = snapshot->bytes;
    if (!TracedMetrics(args, config, inputs, open, answers,
                       *service->generation(), &m)) {
      correct = false;
    }
    for (const auto& [name, unit] : kPerLayer) {
      metrics.push_back(Metric{name, m.at(name), unit});
      std::printf("# %-36s %16.6f %s\n", name, m.at(name), unit);
    }
  }
  service.reset();
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR [--spans PATH] "
                 "[--expect-f1 E,R] | --record-seeds A-B\n");
    return 2;
  }
  return perfbench::Run(args);
}
