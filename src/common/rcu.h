#ifndef TENET_COMMON_RCU_H_
#define TENET_COMMON_RCU_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>

#include "common/logging.h"
#include "common/result.h"

namespace tenet {

// An epoch/refcount RCU cell: one mutable pointer-to-immutable-value,
// swapped by a (serialized) writer under concurrent lock-free readers.
// This is the primitive under the serving layer's live KB swap: readers
// are request threads pinning the KB generation they will link against,
// the writer is whoever publishes a new generation.
//
// Shape: a fixed ring of slots, each holding a value (shared_ptr) and a
// pin count.  The cell's state is one monotonically increasing u64 epoch;
// epoch E lives in slot E % num_slots.  Using the epoch itself as the
// published word (rather than a slot index or a raw pointer) makes
// validation ABA-proof: a slot can be reused, an epoch can never recur.
//
// Reader protocol (Acquire): load the current epoch, increment that
// slot's pin count, then re-check the epoch.  Unchanged means the pin
// landed before any writer could have considered the slot free, so the
// slot's value is stable for as long as the pin is held.  Changed means
// the writer moved on mid-handshake: undo the pin and retry (the retry
// loop runs at most once per concurrent publish — publishes are rare
// control-plane events).  No locks, no waiting: two atomic RMWs and two
// loads on the hot path.
//
// Writer protocol (Publish): under the writer mutex, find a slot whose
// pin count is zero among the num_slots - 1 slots that are not current —
// only the current slot can gain validated pins, so a non-current slot
// observed unpinned can gain at most transient (immediately-retracted)
// pins and never a reader of its value.  Install the value there and
// advance the epoch.  Then, by the same argument, drop the value of every
// other non-current slot that reads unpinned, the one just retired
// included: a retired generation dies at the first publish after its
// last pin drops, on the publishing thread.  The pins==0 check is the
// "grace period": no generation is freed while any reader still pins it.
// The epoch store, the writer's pin loads and the reader's
// pin-then-validate pair are sequentially consistent, so a writer cannot
// read a slot unpinned while a reader's validation still reads the epoch
// before the store.  If every non-current slot is pinned (num_slots - 1
// distinct older generations all still referenced) the publish FAILS
// rather than blocks — a blocking writer holding the swap path while
// queued readers wait behind the very swap it waits on is how hot-swap
// systems deadlock.  Callers
// treat a failed publish like any other failed swap: keep the old
// generation, report, retry later.
//
// Epochs may skip values (a publish claims cur + k for the first free
// slot k); they are tickets, not sequence numbers.
//
// Destruction requires quiescence: all pins released, no readers in
// flight.  The serving layer guarantees this by joining its worker pool
// before the cell dies.
template <typename T>
class RcuCell {
 private:
  struct Slot {
    std::shared_ptr<const T> value;
    std::atomic<uint64_t> pins{0};
  };

 public:
  // A pinned reference: dereferences to the pinned value and releases the
  // pin on destruction.  Copyable (each copy holds its own pin) so it can
  // travel inside std::function-backed work items; cheap either way.
  class Pin {
   public:
    Pin() = default;
    ~Pin() { Release(); }

    Pin(const Pin& other)
        : slot_(other.slot_), value_(other.value_), epoch_(other.epoch_) {
      if (slot_ != nullptr) {
        slot_->pins.fetch_add(1, std::memory_order_acq_rel);
      }
    }
    Pin& operator=(const Pin& other) {
      if (this == &other) return *this;
      Pin copy(other);
      *this = std::move(copy);
      return *this;
    }
    Pin(Pin&& other) noexcept
        : slot_(other.slot_), value_(other.value_), epoch_(other.epoch_) {
      other.slot_ = nullptr;
      other.value_ = nullptr;
    }
    Pin& operator=(Pin&& other) noexcept {
      if (this == &other) return *this;
      Release();
      slot_ = other.slot_;
      value_ = other.value_;
      epoch_ = other.epoch_;
      other.slot_ = nullptr;
      other.value_ = nullptr;
      return *this;
    }

    const T* get() const { return value_; }
    const T& operator*() const { return *value_; }
    const T* operator->() const { return value_; }
    explicit operator bool() const { return value_ != nullptr; }

    /// The epoch this pin captured — monotone across successive Acquires
    /// on one thread.
    uint64_t epoch() const { return epoch_; }

    void Release() {
      if (slot_ != nullptr) {
        slot_->pins.fetch_sub(1, std::memory_order_acq_rel);
        slot_ = nullptr;
        value_ = nullptr;
      }
    }

   private:
    friend class RcuCell;

    Pin(Slot* slot, const T* value, uint64_t epoch)
        : slot_(slot), value_(value), epoch_(epoch) {}

    Slot* slot_ = nullptr;
    const T* value_ = nullptr;
    uint64_t epoch_ = 0;
  };

  /// The cell is born holding `initial` at epoch 0.
  explicit RcuCell(std::shared_ptr<const T> initial, size_t num_slots = 8)
      : mask_(RoundUpPowerOfTwo(num_slots) - 1),
        slots_(new Slot[mask_ + 1]) {
    TENET_CHECK(initial != nullptr);
    slots_[0].value = std::move(initial);
  }

  ~RcuCell() {
    for (uint64_t s = 0; s <= mask_; ++s) {
      TENET_CHECK_EQ(slots_[s].pins.load(std::memory_order_acquire),
                     uint64_t{0})
          << "RcuCell destroyed while a reader still pins a slot";
    }
  }

  RcuCell(const RcuCell&) = delete;
  RcuCell& operator=(const RcuCell&) = delete;

  /// Pins the current value.  Lock-free; the value stays alive (and its
  /// slot is never repurposed) until the returned Pin — and all its
  /// copies — are released.
  Pin Acquire() const {
    for (;;) {
      const uint64_t epoch = current_.load(std::memory_order_acquire);
      Slot& slot = slots_[epoch & mask_];
      slot.pins.fetch_add(1, std::memory_order_seq_cst);
      if (current_.load(std::memory_order_seq_cst) == epoch) {
        // The pin landed while `epoch` was still current, so no writer
        // has considered (or will consider) this slot free: the value
        // read below is the one published with `epoch`.
        return Pin(&slot, slot.value.get(), epoch);
      }
      // A publish raced the handshake; this slot may be getting reused.
      slot.pins.fetch_sub(1, std::memory_order_acq_rel);
    }
  }

  /// An owning reference to the current value (pin, copy, unpin).
  std::shared_ptr<const T> Current() const {
    Pin pin = Acquire();
    return pin.slot_->value;  // stable while pinned
  }

  /// Publishes `value` as the new current.  Returns the new epoch, or
  /// ResourceExhausted when every non-current slot is still pinned by
  /// readers of older generations (the caller keeps serving the old
  /// value).  Serialized internally; safe from any thread.
  Result<uint64_t> Publish(std::shared_ptr<const T> value) {
    TENET_CHECK(value != nullptr);
    std::lock_guard<std::mutex> lock(writer_mu_);
    const uint64_t current = current_.load(std::memory_order_relaxed);
    for (uint64_t k = 1; k <= mask_; ++k) {
      const uint64_t epoch = current + k;
      Slot& slot = slots_[epoch & mask_];
      if (slot.pins.load(std::memory_order_seq_cst) != 0) continue;
      // Unpinned and not current: no reader can validate a pin on this
      // slot (validation requires current_ to equal the slot's past
      // epoch, which is gone for good), so the swap below is unobserved.
      // The displaced value is destroyed here — after its grace period.
      slot.value = std::move(value);
      current_.store(epoch, std::memory_order_seq_cst);
      for (uint64_t other = 0; other <= mask_; ++other) {
        Slot& retired = slots_[other];
        if (&retired == &slot || retired.value == nullptr) continue;
        if (retired.pins.load(std::memory_order_seq_cst) == 0) {
          retired.value.reset();
        }
      }
      return epoch;
    }
    return Status::ResourceExhausted(
        "rcu: all slots pinned by in-flight readers; publish refused");
  }

  /// The epoch of the most recent publish (0 = the initial value).
  uint64_t epoch() const { return current_.load(std::memory_order_acquire); }

  size_t num_slots() const { return static_cast<size_t>(mask_) + 1; }

 private:
  static uint64_t RoundUpPowerOfTwo(size_t n) {
    uint64_t p = 2;
    while (p < n) p <<= 1;
    return p;
  }

  const uint64_t mask_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<uint64_t> current_{0};
  std::mutex writer_mu_;
};

}  // namespace tenet

#endif  // TENET_COMMON_RCU_H_
