#include <gtest/gtest.h>

#include <array>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/sim/event_loop.h"

namespace rose {
namespace {

TEST(EventLoopTest, RunsEventsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.ScheduleAt(Millis(30), [&] { order.push_back(3); });
  loop.ScheduleAt(Millis(10), [&] { order.push_back(1); });
  loop.ScheduleAt(Millis(20), [&] { order.push_back(2); });
  loop.RunToCompletion();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventLoopTest, EqualTimesRunInScheduleOrder) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; i++) {
    loop.ScheduleAt(Millis(5), [&order, i] { order.push_back(i); });
  }
  loop.RunToCompletion();
  for (int i = 0; i < 10; i++) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(EventLoopTest, NowAdvancesToEventTime) {
  EventLoop loop;
  SimTime seen = -1;
  loop.ScheduleAt(Seconds(3), [&] { seen = loop.now(); });
  loop.RunToCompletion();
  EXPECT_EQ(seen, Seconds(3));
}

TEST(EventLoopTest, RunUntilStopsAtBoundaryAndAdvancesClock) {
  EventLoop loop;
  int ran = 0;
  loop.ScheduleAt(Seconds(1), [&] { ran++; });
  loop.ScheduleAt(Seconds(10), [&] { ran++; });
  loop.RunUntil(Seconds(5));
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(loop.now(), Seconds(5));  // Clock advances to the horizon.
  loop.RunUntil(Seconds(20));
  EXPECT_EQ(ran, 2);
}

TEST(EventLoopTest, CancelPreventsExecution) {
  EventLoop loop;
  bool ran = false;
  const TimerId id = loop.ScheduleAt(Millis(1), [&] { ran = true; });
  loop.Cancel(id);
  loop.RunToCompletion();
  EXPECT_FALSE(ran);
}

TEST(EventLoopTest, CancelUnknownIdIsNoOp) {
  EventLoop loop;
  loop.Cancel(kInvalidTimer);
  loop.Cancel(9999);
  EXPECT_EQ(loop.RunToCompletion(), 0u);
}

TEST(EventLoopTest, HaltStopsProcessingAndFreezesClock) {
  EventLoop loop;
  int ran = 0;
  loop.ScheduleAt(Millis(1), [&] {
    ran++;
    loop.Halt();
  });
  loop.ScheduleAt(Millis(2), [&] { ran++; });
  loop.RunUntil(Seconds(1));
  EXPECT_EQ(ran, 1);
  EXPECT_TRUE(loop.halted());
  // A halted run must not jump the clock to the horizon (the tracer dump
  // depends on now() being the halt instant).
  EXPECT_EQ(loop.now(), Millis(1));
}

TEST(EventLoopTest, EventsScheduledDuringRunExecute) {
  EventLoop loop;
  int depth = 0;
  loop.ScheduleAt(Millis(1), [&] {
    depth = 1;
    loop.ScheduleAfter(Millis(1), [&] { depth = 2; });
  });
  loop.RunToCompletion();
  EXPECT_EQ(depth, 2);
}

TEST(EventLoopTest, ScheduleInPastClampsToNow) {
  EventLoop loop;
  SimTime ran_at = -1;
  loop.ScheduleAt(Millis(10), [&] {
    loop.ScheduleAt(Millis(1), [&] { ran_at = loop.now(); });  // In the past.
  });
  loop.RunToCompletion();
  EXPECT_EQ(ran_at, Millis(10));
}

TEST(EventLoopTest, AdvanceByMovesClockForward) {
  EventLoop loop;
  loop.ScheduleAt(Millis(1), [&] { loop.AdvanceBy(Micros(500)); });
  loop.RunToCompletion();
  EXPECT_EQ(loop.now(), Millis(1) + Micros(500));
}

TEST(EventLoopTest, LateEventsAfterAdvanceStillRunWithoutClockRegression) {
  EventLoop loop;
  std::vector<SimTime> times;
  loop.ScheduleAt(Millis(1), [&] {
    loop.AdvanceBy(Millis(10));  // Jump past the next event's timestamp.
  });
  loop.ScheduleAt(Millis(2), [&] { times.push_back(loop.now()); });
  loop.RunToCompletion();
  ASSERT_EQ(times.size(), 1u);
  EXPECT_EQ(times[0], Millis(11));  // Ran "late", clock never moved backwards.
}

TEST(EventLoopTest, PendingEventsCountExcludesCancelled) {
  EventLoop loop;
  loop.ScheduleAt(Millis(1), [] {});
  const TimerId id = loop.ScheduleAt(Millis(2), [] {});
  EXPECT_EQ(loop.pending_events(), 2u);
  loop.Cancel(id);
  EXPECT_EQ(loop.pending_events(), 1u);
}

TEST(EventLoopTest, CancelAfterFireIsNoOpAndPendingDrainsToZero) {
  EventLoop loop;
  int ran = 0;
  const TimerId id = loop.ScheduleAt(Millis(1), [&] { ran++; });
  loop.RunToCompletion();
  loop.Cancel(id);  // Already fired.
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(loop.pending_events(), 0u);
  loop.ScheduleAt(Millis(2), [&] { ran++; });
  EXPECT_EQ(loop.pending_events(), 1u);
  loop.RunToCompletion();
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(loop.pending_events(), 0u);
}

TEST(EventLoopTest, StaleIdDoesNotCancelALaterTimer) {
  EventLoop loop;
  int cancelled_ran = 0;
  int fired_ran = 0;
  int later_ran = 0;
  const TimerId cancelled = loop.ScheduleAt(Millis(1), [&] { cancelled_ran++; });
  loop.Cancel(cancelled);
  const TimerId fired = loop.ScheduleAt(Millis(1), [&] { fired_ran++; });
  loop.RunUntil(Millis(1));
  // Both earlier timers are gone; new timers may take over their storage.
  std::vector<TimerId> later;
  for (int i = 0; i < 4; i++) {
    later.push_back(loop.ScheduleAt(Millis(5), [&] { later_ran++; }));
  }
  for (TimerId id : later) {
    EXPECT_NE(id, cancelled);
    EXPECT_NE(id, fired);
  }
  loop.Cancel(cancelled);
  loop.Cancel(fired);
  EXPECT_EQ(loop.pending_events(), 4u);
  loop.RunToCompletion();
  EXPECT_EQ(cancelled_ran, 0);
  EXPECT_EQ(fired_ran, 1);
  EXPECT_EQ(later_ran, 4);
}

TEST(EventLoopTest, CancellingOwnTimerInsideItsCallbackIsNoOp) {
  EventLoop loop;
  TimerId self = kInvalidTimer;
  int next_ran = 0;
  self = loop.ScheduleAt(Millis(1), [&] {
    loop.ScheduleAfter(Millis(1), [&] { next_ran++; });
    loop.Cancel(self);  // Fired already: must not touch the timer just scheduled.
  });
  loop.RunToCompletion();
  EXPECT_EQ(next_ran, 1);
  EXPECT_EQ(loop.pending_events(), 0u);
}

TEST(EventLoopTest, EqualTimesStayFifoAcrossCancellationAndReuse) {
  EventLoop loop;
  std::vector<int> order;
  std::vector<TimerId> ids;
  for (int i = 0; i < 6; i++) {
    ids.push_back(loop.ScheduleAt(Millis(5), [&order, i] { order.push_back(i); }));
  }
  loop.Cancel(ids[1]);
  loop.Cancel(ids[3]);
  for (int i = 6; i < 9; i++) {
    loop.ScheduleAt(Millis(5), [&order, i] { order.push_back(i); });
  }
  loop.RunToCompletion();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 4, 5, 6, 7, 8}));
}

TEST(EventLoopTest, CallbacksLargerThanInlineStorageRun) {
  EventLoop loop;
  std::array<int64_t, 32> payload{};  // Larger than the inline buffer.
  payload[31] = 7;
  int64_t seen = 0;
  loop.ScheduleAt(Millis(1), [&seen, payload] { seen = payload[31]; });
  const TimerId cancelled = loop.ScheduleAt(Millis(1), [&seen, payload] { seen = -1; });
  loop.Cancel(cancelled);
  loop.RunToCompletion();
  EXPECT_EQ(seen, 7);
}

TEST(EventLoopTest, RearmOfFiredCancelledOrStaleIdReturnsFalse) {
  EventLoop loop;
  std::vector<int> order;
  const TimerId fired = loop.ScheduleAt(Millis(1), [&] { order.push_back(1); });
  loop.RunToCompletion();
  EXPECT_FALSE(loop.Rearm(fired, Millis(5)));
  EXPECT_FALSE(loop.Rearm(kInvalidTimer, Millis(5)));

  const TimerId cancelled = loop.ScheduleAt(Millis(8), [&] { order.push_back(2); });
  loop.Cancel(cancelled);
  EXPECT_FALSE(loop.Rearm(cancelled, Millis(3)));
  EXPECT_EQ(loop.pending_events(), 0u);

  // The cancelled timer's slot now holds a newer timer; the stale id must
  // not move it.
  const TimerId newer = loop.ScheduleAt(Millis(6), [&] { order.push_back(3); });
  EXPECT_NE(newer, cancelled);
  EXPECT_FALSE(loop.Rearm(cancelled, Millis(2)));
  EXPECT_FALSE(loop.Rearm(fired, Millis(2)));
  EXPECT_EQ(loop.pending_events(), 1u);
  loop.RunToCompletion();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
  EXPECT_EQ(loop.now(), Millis(6));
  EXPECT_EQ(loop.pending_events(), 0u);
}

TEST(EventLoopTest, RearmInsideOwnCallbackIsNoOp) {
  EventLoop loop;
  int ran = 0;
  TimerId self = kInvalidTimer;
  self = loop.ScheduleAt(Millis(1), [&] {
    ran++;
    EXPECT_FALSE(loop.Rearm(self, Millis(4)));  // Fired already.
  });
  loop.RunToCompletion();
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(loop.pending_events(), 0u);
}

// One side of the re-arm differential: a scripted sequence of schedules,
// cancels, re-arms and steps, where a re-arm either calls Rearm() or
// cancels the timer and schedules its callback again.
struct ScriptOp {
  enum class Kind { kSchedule, kCancel, kRearm, kStep };
  Kind kind = Kind::kStep;
  // kCancel/kRearm: the timer to act on. kSchedule: the timer the new
  // timer's callback re-arms when it fires (kNoTarget for none).
  size_t timer = 0;
  // kSchedule/kRearm: deadline relative to now. kSchedule: also the delay
  // the callback re-arms its target by.
  SimTime delay = 0;
};
constexpr size_t kNoTarget = SIZE_MAX;

class TimerModel {
 public:
  explicit TimerModel(bool use_rearm) : use_rearm_(use_rearm) {}

  void Apply(const ScriptOp& op) {
    switch (op.kind) {
      case ScriptOp::Kind::kSchedule: {
        const size_t k = ids_.size();
        nested_.emplace_back(op.timer, op.delay);
        live_.push_back(true);
        deadlines_.push_back(loop_.now() + op.delay);
        ids_.push_back(loop_.ScheduleAt(deadlines_[k], Callback(k)));
        break;
      }
      case ScriptOp::Kind::kCancel:
        loop_.Cancel(ids_[op.timer]);
        live_[op.timer] = false;
        break;
      case ScriptOp::Kind::kRearm:
        Rearm(op.timer, loop_.now() + op.delay);
        break;
      case ScriptOp::Kind::kStep:
        loop_.Step();
        break;
    }
  }

  EventLoop& loop() { return loop_; }
  size_t timers() const { return ids_.size(); }
  const std::vector<std::pair<size_t, SimTime>>& fired() const { return fired_; }
  // Live re-arms by how the new deadline compares with the old one.
  const std::array<int, 3>& rearms() const { return rearms_; }

 private:
  void Rearm(size_t k, SimTime when) {
    if (live_[k]) {
      rearms_[when < deadlines_[k] ? 0 : when == deadlines_[k] ? 1 : 2]++;
      deadlines_[k] = when;
    }
    if (use_rearm_) {
      EXPECT_EQ(loop_.Rearm(ids_[k], when), live_[k]) << "timer " << k;
      return;
    }
    if (live_[k]) {
      loop_.Cancel(ids_[k]);
      ids_[k] = loop_.ScheduleAt(when, Callback(k));
    }
  }

  EventCallback Callback(size_t k) {
    return [this, k] {
      live_[k] = false;
      fired_.emplace_back(k, loop_.now());
      const auto [target, delay] = nested_[k];
      if (target != kNoTarget) {
        Rearm(target, loop_.now() + delay);
      }
    };
  }

  bool use_rearm_;
  EventLoop loop_;
  std::vector<TimerId> ids_;
  std::vector<bool> live_;
  std::vector<SimTime> deadlines_;
  std::vector<std::pair<size_t, SimTime>> nested_;
  std::vector<std::pair<size_t, SimTime>> fired_;
  std::array<int, 3> rearms_{};
};

TEST(EventLoopTest, RearmMatchesCancelAndReschedule) {
  std::array<int, 3> rearms{};
  for (uint64_t seed = 1; seed <= 20; seed++) {
    Rng rng(seed);
    TimerModel rearm(true);
    TimerModel reschedule(false);
    for (int i = 0; i < 1500; i++) {
      ScriptOp op;
      const uint64_t roll = rng.NextBelow(100);
      const size_t timers = rearm.timers();
      // Few distinct delays, so equal deadlines (and seq tie-breaks) are common.
      const SimTime delay = Millis(static_cast<int64_t>(rng.NextBelow(6)));
      if (roll < 30 || timers == 0) {
        op.kind = ScriptOp::Kind::kSchedule;
        op.delay = delay;
        // A third of the callbacks re-arm an earlier timer (or themselves,
        // which have fired by then).
        op.timer = rng.NextBelow(3) == 0 ? static_cast<size_t>(rng.NextBelow(timers + 1))
                                          : kNoTarget;
      } else if (roll < 40) {
        op.kind = ScriptOp::Kind::kCancel;
        op.timer = static_cast<size_t>(rng.NextBelow(timers));
      } else if (roll < 75) {
        op.kind = ScriptOp::Kind::kRearm;
        op.timer = static_cast<size_t>(rng.NextBelow(timers));
        op.delay = delay;
      }
      rearm.Apply(op);
      reschedule.Apply(op);
      ASSERT_EQ(rearm.fired(), reschedule.fired()) << "seed " << seed << " op " << i;
      ASSERT_EQ(rearm.loop().pending_events(), reschedule.loop().pending_events())
          << "seed " << seed << " op " << i;
      ASSERT_EQ(rearm.loop().now(), reschedule.loop().now());
    }
    rearm.loop().RunToCompletion();
    reschedule.loop().RunToCompletion();
    EXPECT_EQ(rearm.fired(), reschedule.fired()) << "seed " << seed;
    EXPECT_EQ(rearm.loop().pending_events(), 0u);
    EXPECT_EQ(reschedule.loop().pending_events(), 0u);
    for (size_t i = 0; i < rearms.size(); i++) {
      rearms[i] += rearm.rearms()[i];
    }
  }
  // The script exercised earlier, equal and later deadlines.
  EXPECT_GT(rearms[0], 100);
  EXPECT_GT(rearms[1], 100);
  EXPECT_GT(rearms[2], 100);
}

TEST(TimeTest, ConversionHelpers) {
  EXPECT_EQ(Micros(1), Nanos(1000));
  EXPECT_EQ(Millis(1), Micros(1000));
  EXPECT_EQ(Seconds(1), Millis(1000));
  EXPECT_DOUBLE_EQ(ToSeconds(Seconds(2)), 2.0);
  EXPECT_DOUBLE_EQ(ToMillis(Millis(7)), 7.0);
}

}  // namespace
}  // namespace rose
