// Unit tests for the discrete-event simulator.
#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <set>
#include <vector>

#include "sim/random.h"
#include "sim/sim_time.h"

namespace blockplane::sim {
namespace {

TEST(SimTimeTest, Conversions) {
  EXPECT_EQ(Milliseconds(3), 3'000'000);
  EXPECT_EQ(Microseconds(5), 5'000);
  EXPECT_EQ(Seconds(1), 1'000'000'000);
  EXPECT_EQ(MillisecondsD(0.5), 500'000);
  EXPECT_DOUBLE_EQ(ToMillis(Milliseconds(42)), 42.0);
  EXPECT_DOUBLE_EQ(ToSeconds(Seconds(2)), 2.0);
}

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  Simulator simulator;
  std::vector<int> order;
  simulator.Schedule(Milliseconds(30), [&] { order.push_back(3); });
  simulator.Schedule(Milliseconds(10), [&] { order.push_back(1); });
  simulator.Schedule(Milliseconds(20), [&] { order.push_back(2); });
  simulator.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(simulator.Now(), Milliseconds(30));
}

TEST(SimulatorTest, EqualTimestampsAreFifo) {
  Simulator simulator;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    simulator.Schedule(Milliseconds(5), [&order, i] { order.push_back(i); });
  }
  simulator.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(SimulatorTest, NestedScheduling) {
  Simulator simulator;
  int fired = 0;
  simulator.Schedule(Milliseconds(1), [&] {
    ++fired;
    simulator.Schedule(Milliseconds(1), [&] { ++fired; });
  });
  simulator.Run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(simulator.Now(), Milliseconds(2));
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator simulator;
  bool fired = false;
  EventId id = simulator.Schedule(Milliseconds(1), [&] { fired = true; });
  simulator.Cancel(id);
  simulator.Run();
  EXPECT_FALSE(fired);
  // Cancelling again (or a bogus id) is a no-op.
  simulator.Cancel(id);
  simulator.Cancel(kInvalidEventId);
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator simulator;
  int fired = 0;
  simulator.Schedule(Milliseconds(10), [&] { ++fired; });
  simulator.Schedule(Milliseconds(30), [&] { ++fired; });
  EXPECT_FALSE(simulator.RunUntil(Milliseconds(20)));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(simulator.Now(), Milliseconds(20));
  EXPECT_TRUE(simulator.RunUntil(Milliseconds(100)));
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, RunUntilAdvancesClockWhenQueueDrains) {
  Simulator simulator;
  EXPECT_TRUE(simulator.RunUntil(Milliseconds(50)));
  EXPECT_EQ(simulator.Now(), Milliseconds(50));
}

/// Events at 1 ms, 2 ms (cancelled) and 10 s; each callback checks that the
/// clock never went backwards and logs its firing time.
struct CancelledTopFixture {
  Simulator simulator;
  std::vector<SimTime> fired;

  CancelledTopFixture() {
    for (SimTime when : {Milliseconds(1), Milliseconds(2), Seconds(10)}) {
      EventId id = simulator.Schedule(when, [this] {
        if (!fired.empty()) {
          EXPECT_GE(simulator.Now(), fired.back());
        }
        fired.push_back(simulator.Now());
      });
      if (when == Milliseconds(2)) simulator.Cancel(id);
    }
  }
};

TEST(SimulatorTest, RunUntilStopsAtDeadlineBehindCancelledTop) {
  CancelledTopFixture f;
  EXPECT_FALSE(f.simulator.RunUntil(Seconds(1)));
  EXPECT_EQ(f.fired, (std::vector<SimTime>{Milliseconds(1)}));
  EXPECT_EQ(f.simulator.Now(), Seconds(1));
  EXPECT_TRUE(f.simulator.RunUntil(Seconds(20)));
  EXPECT_EQ(f.fired, (std::vector<SimTime>{Milliseconds(1), Seconds(10)}));
  EXPECT_EQ(f.simulator.Now(), Seconds(20));
  // An earlier deadline never moves the clock back.
  EXPECT_TRUE(f.simulator.RunUntil(Seconds(5)));
  EXPECT_EQ(f.simulator.Now(), Seconds(20));
}

TEST(SimulatorTest, RunUntilConditionStopsAtDeadlineBehindCancelledTop) {
  CancelledTopFixture f;
  EXPECT_FALSE(f.simulator.RunUntilCondition(
      [&f] { return f.fired.size() >= 2; }, Seconds(1)));
  EXPECT_EQ(f.fired, (std::vector<SimTime>{Milliseconds(1)}));
  EXPECT_EQ(f.simulator.Now(), Milliseconds(1));
  EXPECT_TRUE(f.simulator.RunUntilCondition(
      [&f] { return f.fired.size() >= 2; }, Seconds(20)));
  EXPECT_EQ(f.simulator.Now(), Seconds(10));
}

TEST(SimulatorTest, RunUntilIsDrainedWhenOnlyCancelledEventsRemain) {
  Simulator simulator;
  EventId id = simulator.Schedule(Seconds(5), [] { FAIL(); });
  simulator.Cancel(id);
  EXPECT_TRUE(simulator.RunUntil(Seconds(1)));
  EXPECT_EQ(simulator.Now(), Seconds(1));
  EXPECT_EQ(simulator.pending_events(), 0u);
}

TEST(SimulatorTest, RunUntilCondition) {
  Simulator simulator;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    simulator.Schedule(Milliseconds(i), [&] { ++count; });
  }
  EXPECT_TRUE(simulator.RunUntilCondition([&] { return count >= 4; },
                                          Seconds(1)));
  EXPECT_EQ(count, 4);
  EXPECT_EQ(simulator.Now(), Milliseconds(4));
}

TEST(SimulatorTest, RunUntilConditionTimesOut) {
  Simulator simulator;
  bool never = false;
  simulator.Schedule(Seconds(10), [&] { never = true; });
  EXPECT_FALSE(
      simulator.RunUntilCondition([&] { return never; }, Seconds(1)));
}

TEST(SimulatorTest, NegativeDelayClampsToNow) {
  Simulator simulator;
  simulator.Schedule(Milliseconds(5), [&] {
    // Scheduling "in the past" runs immediately after the current event.
    simulator.Schedule(-Milliseconds(3), [] {});
  });
  simulator.Run();
  EXPECT_EQ(simulator.Now(), Milliseconds(5));
}

TEST(SimulatorTest, ProcessedEventCount) {
  Simulator simulator;
  for (int i = 0; i < 7; ++i) simulator.Schedule(i, [] {});
  simulator.Run();
  EXPECT_EQ(simulator.processed_events(), 7u);
}

TEST(SimulatorTest, PendingEventsTracksScheduleFireCancel) {
  Simulator simulator;
  EXPECT_EQ(simulator.pending_events(), 0u);
  EventId a = simulator.Schedule(Milliseconds(1), [] {});
  simulator.Schedule(Milliseconds(2), [] {});
  EXPECT_EQ(simulator.pending_events(), 2u);
  simulator.Cancel(a);
  EXPECT_EQ(simulator.pending_events(), 1u);
  simulator.Run();
  EXPECT_EQ(simulator.pending_events(), 0u);
}

TEST(SimulatorTest, CancelChurnDoesNotLeakOrSkewPendingCount) {
  // Regression: Cancel() used to insert ids into the tombstone set
  // unconditionally. Cancelling ids that had already fired left tombstones
  // that nothing would ever pop, growing memory without bound and making
  // pending_events() (then queue size minus tombstones) wildly wrong —
  // even underflowing below zero.
  Simulator simulator;
  std::vector<EventId> fired_ids;
  constexpr int kRounds = 1000;
  for (int i = 0; i < kRounds; ++i) {
    fired_ids.push_back(simulator.Schedule(Milliseconds(i + 1), [] {}));
  }
  simulator.Run();
  ASSERT_EQ(simulator.pending_events(), 0u);

  // Heavy churn: cancel every fired id (twice), plus ids never issued.
  for (EventId id : fired_ids) {
    simulator.Cancel(id);
    simulator.Cancel(id);
  }
  for (EventId id = 1'000'000; id < 1'001'000; ++id) simulator.Cancel(id);
  EXPECT_EQ(simulator.pending_events(), 0u);

  // New events still schedule, cancel, and fire with an exact count: no
  // stale tombstone swallows a live event or skews the arithmetic.
  int fired = 0;
  std::vector<EventId> keep, drop;
  for (int i = 0; i < 100; ++i) {
    keep.push_back(simulator.Schedule(Milliseconds(i + 1), [&] { ++fired; }));
    drop.push_back(simulator.Schedule(Milliseconds(i + 1), [&] { ++fired; }));
  }
  EXPECT_EQ(simulator.pending_events(), 200u);
  for (EventId id : drop) simulator.Cancel(id);
  EXPECT_EQ(simulator.pending_events(), 100u);
  simulator.Run();
  EXPECT_EQ(fired, 100);
  EXPECT_EQ(simulator.pending_events(), 0u);
}

TEST(SimulatorTest, CancelInsideCallbackOfSameTimestamp) {
  // An event may cancel a later event that shares its timestamp; the
  // cancelled event must not run and the pending count must stay exact.
  Simulator simulator;
  bool second_ran = false;
  EventId second = kInvalidEventId;
  simulator.Schedule(Milliseconds(1),
                     [&] { simulator.Cancel(second); });
  second = simulator.Schedule(Milliseconds(1), [&] { second_ran = true; });
  simulator.Run();
  EXPECT_FALSE(second_ran);
  EXPECT_EQ(simulator.pending_events(), 0u);
}

TEST(SimulatorTest, StaleHandleCannotCancelTheSlotsNewOccupant) {
  // A cancelled or fired event frees its slot, and the next event reuses
  // it. The old handle names the same slot but an older issue number, so
  // cancelling it again must leave the new occupant alone.
  Simulator simulator;
  int fired = 0;
  EventId cancelled = simulator.Schedule(Milliseconds(1), [&] { fired += 100; });
  simulator.Cancel(cancelled);
  EventId reuser = simulator.Schedule(Milliseconds(1), [&] { ++fired; });
  EXPECT_NE(reuser, cancelled);
  simulator.Cancel(cancelled);
  EXPECT_EQ(simulator.pending_events(), 1u);
  simulator.Run();
  EXPECT_EQ(fired, 1);

  EventId done = simulator.Schedule(Milliseconds(1), [&] { ++fired; });
  simulator.Run();
  EXPECT_EQ(fired, 2);
  EventId next = simulator.Schedule(Milliseconds(1), [&] { ++fired; });
  EXPECT_NE(next, done);
  simulator.Cancel(done);
  EXPECT_EQ(simulator.pending_events(), 1u);
  simulator.Run();
  EXPECT_EQ(fired, 3);
}

TEST(SimulatorTest, MoveOnlyCapturesRun) {
  Simulator simulator;
  int seen = 0;
  auto owned = std::make_unique<int>(42);
  simulator.Schedule(Milliseconds(1),
                     [&seen, p = std::move(owned)] { seen = *p; });
  simulator.Run();
  EXPECT_EQ(seen, 42);
}

/// A capture too large for EventFn's inline buffer that counts its runs and
/// destructions (moved-from husks do not count).
struct LargeCapture {
  LargeCapture(int* runs, int* destroyed) : runs_(runs), destroyed_(destroyed) {}
  LargeCapture(LargeCapture&& other) noexcept
      : pad_(other.pad_), runs_(other.runs_), destroyed_(other.destroyed_) {
    other.destroyed_ = nullptr;
  }
  LargeCapture(const LargeCapture&) = delete;
  ~LargeCapture() {
    if (destroyed_ != nullptr) ++*destroyed_;
  }
  void operator()() { ++*runs_; }

 private:
  std::array<char, 4 * EventFn::kInlineSize> pad_{};
  int* runs_;
  int* destroyed_;
};
static_assert(!EventFn::kFitsInline<LargeCapture>);

TEST(SimulatorTest, LargeCaptureRunsOnceAndIsDestroyedOnce) {
  int runs = 0;
  int fired_destroyed = 0;
  int cancelled_destroyed = 0;
  int pending_destroyed = 0;
  {
    Simulator simulator;
    simulator.Schedule(Milliseconds(1), LargeCapture(&runs, &fired_destroyed));
    EventId cancelled = simulator.Schedule(
        Milliseconds(2), LargeCapture(&runs, &cancelled_destroyed));
    simulator.Schedule(Seconds(10), LargeCapture(&runs, &pending_destroyed));
    simulator.RunUntil(Milliseconds(1));
    EXPECT_EQ(runs, 1);
    EXPECT_EQ(fired_destroyed, 1);
    simulator.Cancel(cancelled);
    EXPECT_EQ(cancelled_destroyed, 1);  // at once, not when its key pops
    EXPECT_EQ(pending_destroyed, 0);
    // The simulator dies with the cancelled key and the pending event both
    // still queued.
  }
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(fired_destroyed, 1);
  EXPECT_EQ(cancelled_destroyed, 1);
  EXPECT_EQ(pending_destroyed, 1);  // still queued when the simulator died
}

TEST(SimulatorTest, EqualTimestampsStayFifoAcrossCancelsAndSlotReuse) {
  // Cancelled events free low slots that later events reuse; order among
  // equal timestamps must follow scheduling order, not slot order.
  Simulator simulator;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 12; ++i) {
    ids.push_back(simulator.Schedule(Milliseconds(5),
                                     [&order, i] { order.push_back(i); }));
  }
  for (int i = 0; i < 12; i += 3) simulator.Cancel(ids[i]);
  for (int i = 12; i < 18; ++i) {
    simulator.Schedule(Milliseconds(5), [&order, i] { order.push_back(i); });
  }
  simulator.Cancel(ids[4]);
  simulator.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 5, 7, 8, 10, 11, 12, 13, 14, 15,
                                     16, 17}));
}

TEST(SimulatorTest, PendingEventsExactUnderChurn) {
  // Random schedule / fire / cancel churn against a model of the live set,
  // with heavy slot reuse. Cancels pick any handle ever issued: live, fired,
  // or already cancelled.
  Simulator simulator;
  Rng rng(5);
  std::set<EventId> live;
  std::vector<EventId> issued;
  for (int round = 0; round < 2000; ++round) {
    const uint64_t action = rng.NextBelow(4);
    if (action <= 1) {
      const size_t index = issued.size();
      issued.push_back(kInvalidEventId);
      issued[index] = simulator.Schedule(
          static_cast<SimTime>(rng.NextBelow(50)), [&live, &issued, index] {
            EXPECT_EQ(live.erase(issued[index]), 1u) << "fired while dead";
          });
      live.insert(issued[index]);
    } else if (action == 2 && !issued.empty()) {
      EventId victim = issued[rng.NextBelow(issued.size())];
      simulator.Cancel(victim);
      live.erase(victim);
    } else {
      simulator.RunFor(static_cast<SimTime>(rng.NextBelow(20)));
    }
    ASSERT_EQ(simulator.pending_events(), live.size()) << "round " << round;
  }
  simulator.Run();
  EXPECT_TRUE(live.empty());
  EXPECT_EQ(simulator.pending_events(), 0u);
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, NextBelowRespectsBound) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
  EXPECT_EQ(rng.NextBelow(1), 0u);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(42);
  Rng child = parent.Fork();
  // The child stream should not mirror the parent stream.
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.NextU64() == child.NextU64()) ++same;
  }
  EXPECT_LT(same, 2);
}

}  // namespace
}  // namespace blockplane::sim
