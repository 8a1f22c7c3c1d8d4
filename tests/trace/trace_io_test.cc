#include "src/trace/trace_io.h"

#include <gtest/gtest.h>

namespace hcm::trace {
namespace {

using rule::Event;
using rule::EventKind;
using rule::ItemId;

Trace SampleTrace() {
  TraceRecorder rec;
  rec.SetInitialValue(ItemId{"salary1", {Value::Int(1)}}, Value::Int(50000));
  rec.SetInitialValue(ItemId{"Flag", {}}, Value::Bool(false));
  rec.SetInitialValue(ItemId{"Name", {}}, Value::Str("o'brien #1"));

  Event ws;
  ws.time = TimePoint::FromMillis(10000);
  ws.site = "A";
  ws.kind = EventKind::kWriteSpont;
  ws.item = ItemId{"salary1", {Value::Int(1)}};
  ws.values = {Value::Int(50000), Value::Int(52000)};
  rec.Record(ws);

  Event n;
  n.time = TimePoint::FromMillis(11000);
  n.site = "A";
  n.kind = EventKind::kNotify;
  n.item = ItemId{"salary1", {Value::Int(1)}};
  n.values = {Value::Int(52000)};
  rec.Record(n);

  Event wr;
  wr.time = TimePoint::FromMillis(11200);
  wr.site = "B#tr";  // translator endpoint names survive quoting
  wr.kind = EventKind::kWriteRequest;
  wr.item = ItemId{"salary2", {Value::Int(1)}};
  wr.values = {Value::Int(52000)};
  wr.rule_id = 1;
  wr.trigger_event_id = 1;
  wr.rhs_step = 0;
  rec.Record(wr);

  Event p;
  p.time = TimePoint::FromMillis(60000);
  p.site = "A";
  p.kind = EventKind::kPeriodic;
  p.values = {Value::Int(60000)};
  rec.Record(p);

  Event ins;
  ins.time = TimePoint::FromMillis(70000);
  ins.site = "P";
  ins.kind = EventKind::kInsert;
  ins.item = ItemId{"project", {Value::Int(9)}};
  rec.Record(ins);

  return rec.Finish(TimePoint::FromMillis(120000));
}

TEST(TraceIoTest, RoundTripsAllFields) {
  Trace original = SampleTrace();
  std::string text = SerializeTrace(original);
  auto parsed = ParseTrace(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << text;
  EXPECT_EQ(parsed->horizon, original.horizon);
  EXPECT_EQ(parsed->initial_values, original.initial_values);
  ASSERT_EQ(parsed->events.size(), original.events.size());
  for (size_t i = 0; i < original.events.size(); ++i) {
    const Event& a = original.events[i];
    const Event& b = parsed->events[i];
    EXPECT_EQ(a.id, b.id) << i;
    EXPECT_EQ(a.time, b.time) << i;
    EXPECT_EQ(a.site, b.site) << i;
    EXPECT_EQ(a.kind, b.kind) << i;
    EXPECT_EQ(a.item, b.item) << i;
    EXPECT_EQ(a.values, b.values) << i;
    EXPECT_EQ(a.rule_id, b.rule_id) << i;
    EXPECT_EQ(a.trigger_event_id, b.trigger_event_id) << i;
    EXPECT_EQ(a.rhs_step, b.rhs_step) << i;
  }
}

TEST(TraceIoTest, ParsedTraceSupportsTimelines) {
  auto parsed = ParseTrace(SerializeTrace(SampleTrace()));
  ASSERT_TRUE(parsed.ok());
  StateTimeline tl = StateTimeline::Build(*parsed);
  EXPECT_EQ(*tl.ValueAt(ItemId{"salary1", {Value::Int(1)}},
                        TimePoint::FromMillis(20000)),
            Value::Int(52000));
  EXPECT_TRUE(tl.ExistsAt(ItemId{"project", {Value::Int(9)}},
                          TimePoint::FromMillis(80000)));
}

TEST(TraceIoTest, FileRoundTrip) {
  Trace original = SampleTrace();
  std::string path = ::testing::TempDir() + "/hcm_trace_io_test.trace";
  ASSERT_TRUE(SaveTraceFile(original, path).ok());
  auto loaded = LoadTraceFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->events.size(), original.events.size());
  EXPECT_FALSE(LoadTraceFile(path + ".missing").ok());
}

TEST(TraceIoTest, ParseErrors) {
  EXPECT_FALSE(ParseTrace("").ok());
  EXPECT_FALSE(ParseTrace("not a trace\n").ok());
  EXPECT_FALSE(ParseTrace("hcm-trace v2 horizon=1s\n").ok());
  EXPECT_FALSE(
      ParseTrace("hcm-trace v1 horizon=1s\nevent oops\n").ok());
  EXPECT_FALSE(
      ParseTrace("hcm-trace v1 horizon=1s\ninit X 5\n").ok());  // no '='
  EXPECT_FALSE(ParseTrace("hcm-trace v1 horizon=1s\n"
                          "event 0 @ 10ms site \"A\" Ws(X, 1, 2) extra\n")
                   .ok());
  // A step outside int range is rejected, not truncated (2^32 would
  // otherwise load as step 0).
  auto wide_step =
      ParseTrace("hcm-trace v1 horizon=1s\n"
                 "event 0 @ 10ms site \"A\" N(X, 1)\n"
                 "event 1 @ 20ms site \"B\" WR(Y, 1) rule 1 trigger 0 "
                 "step 4294967296\n");
  ASSERT_FALSE(wide_step.ok());
  EXPECT_EQ(wide_step.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(wide_step.status().message().find("trace line 3"),
            std::string::npos)
      << wide_step.status().ToString();
  EXPECT_FALSE(ParseTrace("hcm-trace v1 horizon=1s\n"
                          "event 0 @ 10ms site \"A\" N(X, 1)\n"
                          "event 1 @ 20ms site \"B\" WR(Y, 1) rule 1 "
                          "trigger 0 step -2147483649\n")
                   .ok());
  // The int extremes themselves still load.
  auto max_step =
      ParseTrace("hcm-trace v1 horizon=1s\n"
                 "event 0 @ 10ms site \"A\" N(X, 1)\n"
                 "event 1 @ 20ms site \"B\" WR(Y, 1) rule 1 trigger 0 "
                 "step 2147483647\n");
  ASSERT_TRUE(max_step.ok()) << max_step.status().ToString();
  EXPECT_EQ(max_step->events[1].rhs_step, 2147483647);
}

TEST(TraceIoTest, CommentsAndBlankLinesIgnored) {
  auto parsed = ParseTrace(
      "hcm-trace v1 horizon=5s\n\n# a comment\ninit X = 1\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->initial_values.size(), 1u);
  EXPECT_TRUE(parsed->events.empty());
}

}  // namespace
}  // namespace hcm::trace
