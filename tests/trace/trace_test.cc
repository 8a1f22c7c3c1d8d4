#include "src/trace/trace.h"

#include <gtest/gtest.h>

namespace hcm::trace {
namespace {

using rule::Event;
using rule::EventKind;
using rule::ItemId;

Event Write(TimePoint t, const std::string& site, const ItemId& item,
            Value v, bool spontaneous = true) {
  Event e;
  e.time = t;
  e.site = site;
  e.kind = spontaneous ? EventKind::kWriteSpont : EventKind::kWrite;
  e.item = item;
  if (spontaneous) {
    e.values = {Value::Null(), std::move(v)};
  } else {
    e.values = {std::move(v)};
  }
  return e;
}

Event Existence(TimePoint t, const ItemId& item, bool insert) {
  Event e;
  e.time = t;
  e.site = "S";
  e.kind = insert ? EventKind::kInsert : EventKind::kDelete;
  e.item = item;
  return e;
}

TEST(TraceRecorderTest, AssignsSequentialIds) {
  TraceRecorder rec;
  ItemId x{"X", {}};
  EXPECT_EQ(rec.Record(Write(TimePoint::FromMillis(10), "A", x,
                             Value::Int(1))),
            0);
  EXPECT_EQ(rec.Record(Write(TimePoint::FromMillis(20), "A", x,
                             Value::Int(2))),
            1);
  Trace t = rec.Finish(TimePoint::FromMillis(100));
  EXPECT_EQ(t.events.size(), 2u);
  EXPECT_EQ(t.horizon, TimePoint::FromMillis(100));
}

class TimelineTest : public ::testing::Test {
 protected:
  TimelineTest() {
    rec_.SetInitialValue(x_, Value::Int(0));
    rec_.Record(Write(TimePoint::FromMillis(100), "A", x_, Value::Int(1)));
    rec_.Record(Write(TimePoint::FromMillis(200), "A", x_, Value::Int(2)));
    // Observation events do not change state.
    rule::Event n;
    n.time = TimePoint::FromMillis(250);
    n.site = "B";
    n.kind = rule::EventKind::kNotify;
    n.item = x_;
    n.values = {Value::Int(2)};
    rec_.Record(n);
    trace_ = rec_.Finish(TimePoint::FromMillis(1000));
    tl_ = StateTimeline::Build(trace_);
  }

  ItemId x_{"X", {}};
  TraceRecorder rec_;
  Trace trace_;
  StateTimeline tl_ = StateTimeline::Build(Trace{});
};

TEST_F(TimelineTest, ValueAtReturnsPiecewiseState) {
  EXPECT_EQ(*tl_.ValueAt(x_, TimePoint::FromMillis(0)), Value::Int(0));
  EXPECT_EQ(*tl_.ValueAt(x_, TimePoint::FromMillis(99)), Value::Int(0));
  EXPECT_EQ(*tl_.ValueAt(x_, TimePoint::FromMillis(100)), Value::Int(1));
  EXPECT_EQ(*tl_.ValueAt(x_, TimePoint::FromMillis(150)), Value::Int(1));
  EXPECT_EQ(*tl_.ValueAt(x_, TimePoint::FromMillis(500)), Value::Int(2));
}

TEST_F(TimelineTest, ValueBeforeIsStrict) {
  EXPECT_EQ(*tl_.ValueBefore(x_, TimePoint::FromMillis(100)), Value::Int(0));
  EXPECT_EQ(*tl_.ValueBefore(x_, TimePoint::FromMillis(101)), Value::Int(1));
  // Initial values hold from just before the origin, so the state strictly
  // before t=0 is the initial value; before that, nothing is known.
  EXPECT_EQ(*tl_.ValueBefore(x_, TimePoint::FromMillis(0)), Value::Int(0));
  EXPECT_FALSE(tl_.ValueBefore(x_, TimePoint::FromMillis(-1000)).has_value());
}

TEST_F(TimelineTest, UnknownItemHasNoValue) {
  ItemId z{"Z", {}};
  EXPECT_FALSE(tl_.ValueAt(z, TimePoint::FromMillis(500)).has_value());
  EXPECT_FALSE(tl_.ExistsAt(z, TimePoint::FromMillis(500)));
  EXPECT_TRUE(tl_.SegmentsOf(z).empty());
}

TEST_F(TimelineTest, NotifyDoesNotChangeState) {
  // After the notify at 250, the value is still what the write set.
  EXPECT_EQ(*tl_.ValueAt(x_, TimePoint::FromMillis(300)), Value::Int(2));
  EXPECT_EQ(tl_.SegmentsOf(x_).size(), 3u);  // initial + 2 writes
}

TEST(TimelineExistenceTest, InsertAndDeleteToggleExistence) {
  TraceRecorder rec;
  ItemId p{"project", {Value::Int(7)}};
  rec.Record(Existence(TimePoint::FromMillis(100), p, true));
  rec.Record(Write(TimePoint::FromMillis(150), "S", p, Value::Str("alpha")));
  rec.Record(Existence(TimePoint::FromMillis(300), p, false));
  Trace t = rec.Finish(TimePoint::FromMillis(1000));
  StateTimeline tl = StateTimeline::Build(t);
  EXPECT_FALSE(tl.ExistsAt(p, TimePoint::FromMillis(50)));
  EXPECT_TRUE(tl.ExistsAt(p, TimePoint::FromMillis(100)));
  EXPECT_TRUE(tl.ValueAt(p, TimePoint::FromMillis(100))->is_null());
  EXPECT_EQ(*tl.ValueAt(p, TimePoint::FromMillis(200)), Value::Str("alpha"));
  EXPECT_FALSE(tl.ExistsAt(p, TimePoint::FromMillis(300)));
  EXPECT_FALSE(tl.ExistsAt(p, TimePoint::FromMillis(999)));
}

TEST(TimelineExistenceTest, ReinsertKeepsLastValue) {
  TraceRecorder rec;
  ItemId p{"rec", {}};
  rec.Record(Write(TimePoint::FromMillis(10), "S", p, Value::Int(5)));
  rec.Record(Existence(TimePoint::FromMillis(20), p, true));  // re-insert
  Trace t = rec.Finish(TimePoint::FromMillis(100));
  StateTimeline tl = StateTimeline::Build(t);
  EXPECT_EQ(*tl.ValueAt(p, TimePoint::FromMillis(30)), Value::Int(5));
}

TEST(TimelineBaseQueryTest, ItemsWithBase) {
  TraceRecorder rec;
  rec.Record(Write(TimePoint::FromMillis(1), "S",
                   ItemId{"salary1", {Value::Int(1)}}, Value::Int(10)));
  rec.Record(Write(TimePoint::FromMillis(2), "S",
                   ItemId{"salary1", {Value::Int(2)}}, Value::Int(20)));
  rec.Record(Write(TimePoint::FromMillis(3), "S", ItemId{"other", {}},
                   Value::Int(0)));
  StateTimeline tl = StateTimeline::Build(rec.Finish(TimePoint::FromMillis(9)));
  const std::vector<uint32_t>& salaries = tl.ItemIdsWithBase("salary1");
  ASSERT_EQ(salaries.size(), 2u);
  EXPECT_EQ(tl.items().item(salaries[0]),
            (ItemId{"salary1", {Value::Int(1)}}));
  EXPECT_EQ(tl.items().item(salaries[1]),
            (ItemId{"salary1", {Value::Int(2)}}));
  EXPECT_TRUE(tl.ItemIdsWithBase("nothing").empty());
  EXPECT_EQ(tl.AllItems().size(), 3u);
}

TEST(TraceToStringTest, TruncatesLongTraces) {
  TraceRecorder rec;
  ItemId x{"X", {}};
  for (int i = 0; i < 10; ++i) {
    rec.Record(Write(TimePoint::FromMillis(i), "A", x, Value::Int(i)));
  }
  Trace t = rec.Finish(TimePoint::FromMillis(100));
  std::string s = t.ToString(3);
  EXPECT_NE(s.find("10 events"), std::string::npos);
  EXPECT_NE(s.find("(7 more)"), std::string::npos);
}

// Finish moves the trace out; calling it again would silently hand back an
// empty trace that sails through every check, so the recorder aborts
// instead.
TEST(TraceRecorderDeathTest, DoubleFinishAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  TraceRecorder rec;
  rec.SetInitialValue(ItemId{"x", {}}, Value::Int(0));
  (void)rec.Finish(TimePoint::FromMillis(1000));
  EXPECT_DEATH((void)rec.Finish(TimePoint::FromMillis(2000)),
               "Finish called twice");
}

}  // namespace
}  // namespace hcm::trace
