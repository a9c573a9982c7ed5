// Discrete-event simulation driver.
//
// The EventLoop is a min-heap of (when, seq, slot) entries over a slab of
// move-only callbacks. Equal-time events fire in scheduling order (seq is a
// per-loop counter), which keeps runs deterministic.
//
// A TimerId encodes (generation << 32 | slot). A slot's generation bumps
// every time its callback fires or is cancelled, so Cancel() or Rearm() of a
// timer that already fired — or of a stale id whose slot now holds a newer
// timer — is an exact O(1) no-op. A cancelled timer's heap entry stays
// behind until it reaches the top, where a seq mismatch against its slot
// identifies it.
//
// A slot records its timer's live (when, seq) and the seq of the one heap
// entry filed for it. Rearm() draws a fresh seq, as Cancel() plus
// ScheduleAt() would. A later deadline keeps the filed entry; when that
// entry reaches the top, SkipCancelled() re-files it under the live key. An
// earlier deadline files a new entry and orphans the old one. So every
// timer's filed key is <= its live key, and events fire in exactly the
// (when, seq) order a cancel-and-reschedule would give them.
#ifndef SRC_SIM_EVENT_LOOP_H_
#define SRC_SIM_EVENT_LOOP_H_

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/sim/time.h"

namespace rose {

using TimerId = uint64_t;
inline constexpr TimerId kInvalidTimer = 0;

// A move-only `void()` callable. Closures up to kInlineBytes that are
// nothrow-movable live inline; larger ones are heap-allocated once.
class EventCallback {
 public:
  static constexpr size_t kInlineBytes = 96;

  EventCallback() = default;

  template <typename F, typename Fn = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<Fn, EventCallback> &&
                                        std::is_invocable_r_v<void, Fn&>>>
  EventCallback(F&& fn) {  // NOLINT(google-explicit-constructor): lambdas convert.
    if constexpr (sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(fn)));
      ops_ = &kHeapOps<Fn>;
    }
  }

  EventCallback(EventCallback&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  EventCallback& operator=(EventCallback&& other) noexcept {
    if (this != &other) {
      Reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(storage_, other.storage_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  EventCallback(const EventCallback&) = delete;
  EventCallback& operator=(const EventCallback&) = delete;

  ~EventCallback() { Reset(); }

  void operator()() { ops_->invoke(storage_); }

  // Destroys the held callable (and whatever it captured).
  void Reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    // Move-constructs into `dst` from `src` and destroys the source.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void* storage);
  };

  template <typename Fn>
  static constexpr Ops kInlineOps = {
      [](void* s) { (*static_cast<Fn*>(s))(); },
      [](void* dst, void* src) {
        ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
        static_cast<Fn*>(src)->~Fn();
      },
      [](void* s) { static_cast<Fn*>(s)->~Fn(); },
  };

  template <typename Fn>
  static constexpr Ops kHeapOps = {
      [](void* s) { (**static_cast<Fn**>(s))(); },
      [](void* dst, void* src) { ::new (dst) Fn*(*static_cast<Fn**>(src)); },
      [](void* s) { delete *static_cast<Fn**>(s); },
  };

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

class EventLoop {
 public:
  EventLoop() = default;
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  SimTime now() const { return now_; }

  // Schedules `fn` to run at absolute virtual time `when` (clamped to now).
  TimerId ScheduleAt(SimTime when, EventCallback fn);

  // Schedules `fn` to run `delay` after the current virtual time.
  TimerId ScheduleAfter(SimTime delay, EventCallback fn) {
    return ScheduleAt(now_ + delay, std::move(fn));
  }

  // Cancels a pending timer. Cancelling an already-fired, already-cancelled
  // or invalid timer is a no-op.
  void Cancel(TimerId id);

  // Moves a pending timer to absolute time `when` (clamped to now), keeping
  // its id and callback; it then fires exactly where Cancel() followed by
  // ScheduleAt() of the same callback would. Returns false, doing nothing,
  // for an already-fired, cancelled or invalid timer.
  bool Rearm(TimerId id, SimTime when);

  // Runs a single event. Returns false if the queue is empty or the loop halted.
  bool Step();

  // Runs until the queue drains, `until` is passed, or Halt() is called.
  // Returns the number of events executed.
  uint64_t RunUntil(SimTime until);

  // Runs until the queue drains or Halt() is called.
  uint64_t RunToCompletion() { return RunUntil(kSimTimeMax); }

  // Advances the clock from within a running handler (used by the kernel to
  // charge virtual syscall cost). Events already queued at earlier times run
  // "late" but never move the clock backwards.
  void AdvanceBy(SimTime delta) { now_ += delta; }

  // Stops the loop at the next event boundary.
  void Halt() { halted_ = true; }
  bool halted() const { return halted_; }

  // Timers scheduled and neither fired nor cancelled.
  size_t pending_events() const { return live_; }

 private:
  struct Slot {
    EventCallback fn;
    SimTime when = 0;         // Deadline of the live timer.
    uint64_t seq = 0;         // Seq of the live timer; 0 when the slot is free.
    // Key of the one heap entry that stands for the live timer.
    SimTime filed_when = 0;
    uint64_t filed_seq = 0;
    uint32_t generation = 1;  // Bumped on every fire/cancel; never 0.
  };
  struct HeapEntry {
    SimTime when;
    uint64_t seq;
    uint32_t slot;
  };
  // std::push_heap/pop_heap build a max-heap; "greater" puts the earliest
  // (when, seq) on top.
  static bool Later(const HeapEntry& a, const HeapEntry& b) {
    return a.when != b.when ? a.when > b.when : a.seq > b.seq;
  }

  // The slot `id` names while its timer is pending, else nullptr.
  Slot* LiveSlot(TimerId id);
  void File(SimTime when, uint64_t seq, uint32_t slot);
  // Brings a live entry to the top of the heap: drops orphaned and cancelled
  // entries, and re-files a re-armed timer's entry under its live key.
  void SkipCancelled();
  // Runs the event on top of the heap, which must be live.
  void FireTop();
  void FreeSlot(uint32_t slot);

  SimTime now_ = 0;
  uint64_t next_seq_ = 1;
  bool halted_ = false;
  size_t live_ = 0;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  std::vector<HeapEntry> heap_;
};

}  // namespace rose

#endif  // SRC_SIM_EVENT_LOOP_H_
