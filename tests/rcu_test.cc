// RcuCell suite: single-threaded protocol semantics plus the TSan-targeted
// hammer (N reader threads pin/validate/unpin while writers publish) that
// backs the live-KB-swap acceptance criteria — no value freed while
// pinned, no torn reads, publishes refuse (never block) when every slot
// is pinned.  Registered under the `kbupdate` ctest label, which CI runs
// under both ASan and TSan.
#include "common/rcu.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/result.h"

namespace tenet {
namespace {

constexpr uint64_t kCanarySeed = 0xfeedfacedeadbeefull;

// A payload whose liveness is observable (the `live` counter) and whose
// integrity is checkable (the canary is a pure function of the value, so
// a reader that sees value and canary disagree caught a torn or reused
// object).
struct Tracked {
  static std::atomic<int64_t> live;

  explicit Tracked(int64_t v) : value(v), canary(kCanarySeed ^ static_cast<uint64_t>(v)) {
    live.fetch_add(1, std::memory_order_relaxed);
  }
  ~Tracked() {
    live.fetch_sub(1, std::memory_order_relaxed);
    canary = 0;  // poison: a pinned reader must never observe this
  }

  bool Intact() const {
    return canary == (kCanarySeed ^ static_cast<uint64_t>(value));
  }

  int64_t value;
  uint64_t canary;
};

std::atomic<int64_t> Tracked::live{0};

TEST(RcuCellTest, BornHoldingTheInitialValueAtEpochZero) {
  RcuCell<Tracked> cell(std::make_shared<const Tracked>(7));
  EXPECT_EQ(cell.epoch(), 0u);
  RcuCell<Tracked>::Pin pin = cell.Acquire();
  ASSERT_TRUE(pin);
  EXPECT_EQ(pin->value, 7);
  EXPECT_EQ(pin.epoch(), 0u);
  EXPECT_EQ(cell.Current()->value, 7);
}

TEST(RcuCellTest, PublishAdvancesTheEpochMonotonically) {
  RcuCell<Tracked> cell(std::make_shared<const Tracked>(0));
  uint64_t last = 0;
  for (int64_t v = 1; v <= 32; ++v) {
    Result<uint64_t> epoch = cell.Publish(std::make_shared<const Tracked>(v));
    ASSERT_TRUE(epoch.ok()) << epoch.status();
    EXPECT_GT(*epoch, last);
    last = *epoch;
    EXPECT_EQ(cell.Current()->value, v);
  }
  // Displaced values were destroyed as their slots were reclaimed: only
  // the ring itself can keep values alive.
  EXPECT_LE(Tracked::live.load(), static_cast<int64_t>(cell.num_slots()));
}

TEST(RcuCellTest, APinKeepsItsValueAliveThroughManyPublishes) {
  std::optional<RcuCell<Tracked>> cell;
  cell.emplace(std::make_shared<const Tracked>(100));
  RcuCell<Tracked>::Pin pin = cell->Acquire();
  // 4x around the ring: the pinned slot must be skipped every lap.
  for (int64_t v = 0; v < static_cast<int64_t>(4 * cell->num_slots()); ++v) {
    Result<uint64_t> epoch =
        cell->Publish(std::make_shared<const Tracked>(200 + v));
    ASSERT_TRUE(epoch.ok()) << epoch.status();
    ASSERT_TRUE(pin->Intact());
    EXPECT_EQ(pin->value, 100);
  }
  pin.Release();
  EXPECT_FALSE(pin);
  cell.reset();
  EXPECT_EQ(Tracked::live.load(), 0);
}

TEST(RcuCellTest, PublishFreesAValueRetiredWhileUnpinned) {
  auto initial = std::make_shared<const Tracked>(1);
  std::weak_ptr<const Tracked> watch = initial;
  RcuCell<Tracked> cell(std::move(initial));
  ASSERT_TRUE(cell.Publish(std::make_shared<const Tracked>(2)).ok());
  // Retired with no reader: gone now, not when the ring next reuses its
  // slot num_slots publishes later.
  EXPECT_TRUE(watch.expired());
  EXPECT_EQ(cell.Current()->value, 2);
}

TEST(RcuCellTest, APinnedRetiredValueDiesAtThePublishAfterItsPinDrops) {
  auto initial = std::make_shared<const Tracked>(1);
  std::weak_ptr<const Tracked> watch = initial;
  RcuCell<Tracked> cell(std::move(initial));
  RcuCell<Tracked>::Pin pin = cell.Acquire();
  ASSERT_TRUE(cell.Publish(std::make_shared<const Tracked>(2)).ok());
  EXPECT_FALSE(watch.expired());  // retired while pinned
  ASSERT_TRUE(pin->Intact());
  pin.Release();
  // Released, but freed only by a publish, on the publishing thread.
  EXPECT_FALSE(watch.expired());
  ASSERT_TRUE(cell.Publish(std::make_shared<const Tracked>(3)).ok());
  EXPECT_TRUE(watch.expired());
  EXPECT_EQ(Tracked::live.load(), 1);  // only the current value is left
}

TEST(RcuCellTest, PinCopiesEachHoldTheirOwnPin) {
  RcuCell<Tracked> cell(std::make_shared<const Tracked>(5));
  RcuCell<Tracked>::Pin a = cell.Acquire();
  RcuCell<Tracked>::Pin b = a;  // copy: its own pin on the same slot
  a.Release();
  ASSERT_TRUE(b);
  EXPECT_TRUE(b->Intact());
  EXPECT_EQ(b->value, 5);
  // With b still pinned, publishing around the whole ring skips b's slot.
  for (size_t i = 0; i < 2 * cell.num_slots(); ++i) {
    ASSERT_TRUE(
        cell.Publish(std::make_shared<const Tracked>(1000 + i)).ok());
    ASSERT_TRUE(b->Intact());
  }
  b.Release();
}

TEST(RcuCellTest, PublishRefusesInsteadOfBlockingWhenEverySlotIsPinned) {
  RcuCell<Tracked> cell(std::make_shared<const Tracked>(0), /*num_slots=*/4);
  ASSERT_EQ(cell.num_slots(), 4u);
  // Pin one distinct generation per slot.
  std::vector<RcuCell<Tracked>::Pin> pins;
  pins.push_back(cell.Acquire());
  for (int64_t v = 1; v < 4; ++v) {
    ASSERT_TRUE(cell.Publish(std::make_shared<const Tracked>(v)).ok());
    pins.push_back(cell.Acquire());
  }
  Result<uint64_t> refused =
      cell.Publish(std::make_shared<const Tracked>(99));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  // The old value keeps serving, every pinned value is untouched.
  EXPECT_EQ(cell.Current()->value, 3);
  for (size_t i = 0; i < pins.size(); ++i) {
    ASSERT_TRUE(pins[i]->Intact());
    EXPECT_EQ(pins[i]->value, static_cast<int64_t>(i));
  }
  // Releasing any one pin frees a slot and publishes succeed again.
  pins[1].Release();
  Result<uint64_t> accepted =
      cell.Publish(std::make_shared<const Tracked>(99));
  ASSERT_TRUE(accepted.ok()) << accepted.status();
  EXPECT_EQ(cell.Current()->value, 99);
}

// The TSan target: readers continuously acquire/validate/release (with
// copied pins in the mix) while writers publish new generations as fast
// as the ring allows.  Every reader asserts its pinned value is intact on
// every dereference — a use-after-free, torn pointer, or slot reuse under
// an active pin fails here (and trips TSan/ASan in the sanitizer jobs).
TEST(RcuCellTest, HammerReadersNeverObserveAFreedOrTornValue) {
  constexpr int kReaders = 4;
  constexpr int kWriters = 2;
  constexpr int kReadsPerReader = 40000;
  constexpr int kPublishesPerWriter = 4000;

  std::optional<RcuCell<Tracked>> cell;
  cell.emplace(std::make_shared<const Tracked>(0), /*num_slots=*/8);
  std::atomic<int64_t> next_value{1};
  std::atomic<int64_t> publishes_ok{0};
  std::atomic<int64_t> publishes_refused{0};
  std::atomic<bool> torn{false};

  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&cell, &torn] {
      uint64_t last_epoch = 0;
      for (int i = 0; i < kReadsPerReader; ++i) {
        RcuCell<Tracked>::Pin pin = cell->Acquire();
        if (!pin || !pin->Intact() || pin.epoch() < last_epoch) {
          torn.store(true);
          return;
        }
        last_epoch = pin.epoch();
        if ((i & 15) == 0) {
          // Copies must keep the value alive on their own.
          RcuCell<Tracked>::Pin copy = pin;
          pin.Release();
          if (!copy->Intact()) {
            torn.store(true);
            return;
          }
        }
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&cell, &next_value, &publishes_ok,
                          &publishes_refused] {
      for (int i = 0; i < kPublishesPerWriter; ++i) {
        int64_t v = next_value.fetch_add(1, std::memory_order_relaxed);
        Result<uint64_t> epoch =
            cell->Publish(std::make_shared<const Tracked>(v));
        if (epoch.ok()) {
          publishes_ok.fetch_add(1, std::memory_order_relaxed);
        } else {
          // The only legal refusal is every-slot-pinned.
          ASSERT_EQ(epoch.status().code(), StatusCode::kResourceExhausted);
          publishes_refused.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_FALSE(torn.load()) << "a reader observed a freed or torn value";
  EXPECT_GT(publishes_ok.load(), 0);
  // Liveness is bounded by the ring: nothing leaked past its grace period.
  EXPECT_LE(Tracked::live.load(), static_cast<int64_t>(cell->num_slots()));
  RcuCell<Tracked>::Pin last = cell->Acquire();
  EXPECT_TRUE(last->Intact());
  last.Release();
  cell.reset();
  EXPECT_EQ(Tracked::live.load(), 0);
}

}  // namespace
}  // namespace tenet
