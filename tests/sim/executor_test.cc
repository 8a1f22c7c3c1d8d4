#include "src/sim/executor.h"

#include <gtest/gtest.h>

#include <vector>

namespace hcm::sim {
namespace {

TEST(ExecutorTest, RunsCallbacksInTimeOrder) {
  Executor ex;
  std::vector<int> order;
  ex.ScheduleAt(TimePoint::FromMillis(30), [&] { order.push_back(3); });
  ex.ScheduleAt(TimePoint::FromMillis(10), [&] { order.push_back(1); });
  ex.ScheduleAt(TimePoint::FromMillis(20), [&] { order.push_back(2); });
  EXPECT_EQ(ex.RunUntilIdle(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(ex.now(), TimePoint::FromMillis(30));
}

TEST(ExecutorTest, TiesBreakInScheduleOrder) {
  Executor ex;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    ex.ScheduleAt(TimePoint::FromMillis(10), [&order, i] { order.push_back(i); });
  }
  ex.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ExecutorTest, ScheduleAfterUsesCurrentTime) {
  Executor ex;
  TimePoint fired;
  ex.ScheduleAt(TimePoint::FromMillis(100), [&] {
    ex.ScheduleAfter(Duration::Millis(50), [&] { fired = ex.now(); });
  });
  ex.RunUntilIdle();
  EXPECT_EQ(fired, TimePoint::FromMillis(150));
}

TEST(ExecutorTest, PastSchedulingClampsToNow) {
  Executor ex;
  ex.ScheduleAt(TimePoint::FromMillis(100), [] {});
  ex.RunUntilIdle();
  bool ran = false;
  ex.ScheduleAt(TimePoint::FromMillis(10), [&] {
    ran = true;
  });
  ex.RunUntilIdle();
  EXPECT_TRUE(ran);
  EXPECT_EQ(ex.now(), TimePoint::FromMillis(100));  // clock never goes back
}

TEST(ExecutorTest, CancelledTimerDoesNotRun) {
  Executor ex;
  bool ran = false;
  Timer t = ex.ScheduleAfter(Duration::Millis(5), [&] { ran = true; });
  t.Cancel();
  ex.RunUntilIdle();
  EXPECT_FALSE(ran);
  EXPECT_TRUE(t.cancelled());
}

TEST(ExecutorTest, PostedCallbacksInterleaveWithScheduledOnes) {
  Executor ex;
  std::vector<int> order;
  ex.ScheduleAt(TimePoint::FromMillis(20), [&] { order.push_back(2); });
  ex.PostAt(TimePoint::FromMillis(10), [&] { order.push_back(1); });
  ex.PostAfter(Duration::Millis(30), [&] { order.push_back(3); });
  EXPECT_EQ(ex.RunUntilIdle(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(ExecutorTest, CancelledEntriesAreSweptByRunUntil) {
  Executor ex;
  bool ran = false;
  Timer t = ex.ScheduleAt(TimePoint::FromMillis(5), [&] { ran = true; });
  ex.ScheduleAt(TimePoint::FromMillis(50), [] {});
  t.Cancel();
  // The cancelled entry sits at the head of the queue; RunUntil must drain
  // it without running it even though the deadline precedes the live entry.
  ex.RunUntil(TimePoint::FromMillis(10));
  EXPECT_FALSE(ran);
  EXPECT_EQ(ex.pending_count(), 1u);  // only the live entry remains
}

TEST(ExecutorTest, RunUntilStopsAtDeadlineAndAdvancesClock) {
  Executor ex;
  int count = 0;
  // Self-rescheduling periodic task, every 10ms.
  std::function<void()> tick = [&] {
    ++count;
    ex.ScheduleAfter(Duration::Millis(10), tick);
  };
  ex.ScheduleAfter(Duration::Millis(10), tick);
  ex.RunUntil(TimePoint::FromMillis(100));
  EXPECT_EQ(count, 10);  // fires at 10,20,...,100
  EXPECT_EQ(ex.now(), TimePoint::FromMillis(100));
  EXPECT_GT(ex.pending_count(), 0u);  // next tick still queued
}

TEST(ExecutorTest, RunUntilIdleRespectsMaxSteps) {
  Executor ex;
  std::function<void()> loop = [&] { ex.ScheduleAfter(Duration::Millis(1), loop); };
  ex.ScheduleAfter(Duration::Millis(1), loop);
  EXPECT_EQ(ex.RunUntilIdle(25), 25u);
}

TEST(ExecutorTest, StepReturnsFalseWhenEmpty) {
  Executor ex;
  EXPECT_FALSE(ex.Step());
}

TEST(ExecutorTest, NestedSchedulingDuringRunUntil) {
  Executor ex;
  std::vector<int> order;
  ex.ScheduleAt(TimePoint::FromMillis(10), [&] {
    order.push_back(1);
    // Scheduled inside a callback, still before the deadline: must run.
    ex.ScheduleAfter(Duration::Millis(5), [&] { order.push_back(2); });
  });
  ex.RunUntil(TimePoint::FromMillis(20));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(DurationTest, ArithmeticAndFormatting) {
  EXPECT_EQ(Duration::Seconds(2) + Duration::Millis(500),
            Duration::Millis(2500));
  EXPECT_EQ(Duration::Minutes(1) * 3, Duration::Seconds(180));
  EXPECT_EQ(Duration::Hours(1) / 2, Duration::Minutes(30));
  EXPECT_EQ(Duration::Millis(1500).ToString(), "1500ms");
  EXPECT_EQ(Duration::Seconds(5).ToString(), "5s");
  EXPECT_EQ(Duration::Minutes(2).ToString(), "2m");
  EXPECT_EQ(Duration::Hours(24).ToString(), "24h");
  EXPECT_EQ(Duration::Zero().ToString(), "0s");
}

TEST(TimePointTest, ArithmeticAndComparison) {
  TimePoint t = TimePoint::Origin() + Duration::Seconds(3);
  EXPECT_EQ(t.millis(), 3000);
  EXPECT_EQ(t - TimePoint::Origin(), Duration::Seconds(3));
  EXPECT_LT(TimePoint::Origin(), t);
  EXPECT_EQ(t.ToString(), "t=3.000s");
}

}  // namespace
}  // namespace hcm::sim
