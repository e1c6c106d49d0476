// Tests for the trace_diff comparator (src/tools/trace_diff_lib.h): identical traces
// produce no divergence, a single perturbed event is localised as the *first* divergence
// with its track name and virtual timestamp, and malformed input is an error rather than a
// verdict. Exercised both on hand-written JSON and on real exporter output (TraceRecorder →
// WriteChromeTraceJson), so the comparator tracks the exporter's actual schema.
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "src/obs/perfetto_export.h"
#include "src/obs/trace_recorder.h"
#include "src/tools/trace_diff_lib.h"

namespace fmoe {
namespace {

std::string ExportTrace(const TraceRecorder& recorder, const std::string& process_name) {
  std::ostringstream out;
  WriteChromeTraceJson(recorder, process_name, out);
  return out.str();
}

TraceRecorder MakeRecorder(double prefetch_end_s) {
  TraceRecorder recorder;
  const int engine = recorder.RegisterTrack("engine");
  const int link = recorder.RegisterTrack("gpu0/link");
  recorder.Span(engine, "attention", "compute", 0.0, 0.002);
  recorder.Span(link, "prefetch", "transfer", 0.001, prefetch_end_s,
                {TraceArg::Uint("key", 7)});
  recorder.Instant(engine, "evict", "cache", 0.003, {TraceArg::Uint("key", 3)});
  recorder.Counter(link, "inflight", 0.004, 2.0);
  StallStateMachine machine;
  machine.AttributeStall(StallClass::kNeverPrefetched, 0.0005);
  recorder.set_stall(machine.stall());
  return recorder;
}

TEST(TraceDiffTest, IdenticalTracesHaveNoDivergence) {
  const std::string a = ExportTrace(MakeRecorder(0.0025), "run A");
  const TraceDiffResult result = DiffTraceJson(a, a);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.identical);
  EXPECT_NE(RenderTraceDiff(result, "a.json", "b.json").find("identical"), std::string::npos);
}

TEST(TraceDiffTest, ProcessNameMetadataIsNotCompared) {
  // Same events, different process names (two programs / task indices): still identical —
  // metadata rows are only consumed to resolve track names.
  const std::string a = ExportTrace(MakeRecorder(0.0025), "bench_fig9 [0] fMoE");
  const std::string b = ExportTrace(MakeRecorder(0.0025), "fmoe_sim [2] fMoE");
  const TraceDiffResult result = DiffTraceJson(a, b);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.identical);
}

TEST(TraceDiffTest, PerturbedEventIsReportedAsFirstDivergence)  {
  const std::string a = ExportTrace(MakeRecorder(0.0025), "run");
  const std::string b = ExportTrace(MakeRecorder(0.0030), "run");  // Longer prefetch span.
  const TraceDiffResult result = DiffTraceJson(a, b);
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_FALSE(result.identical);
  EXPECT_EQ(result.kind, "event-field");
  EXPECT_EQ(result.event_index, 1u);  // attention is event 0; the prefetch span diverges.
  EXPECT_EQ(result.field, "dur");
  EXPECT_EQ(result.track_a, "gpu0/link");
  EXPECT_EQ(result.name_a, "prefetch");
  EXPECT_DOUBLE_EQ(result.ts_us_a, 1000.0);  // 0.001 s in trace microseconds.
  const std::string rendered = RenderTraceDiff(result, "good.json", "bad.json");
  EXPECT_NE(rendered.find("gpu0/link"), std::string::npos);
  EXPECT_NE(rendered.find("prefetch"), std::string::npos);
  EXPECT_NE(rendered.find("dur"), std::string::npos);
}

TEST(TraceDiffTest, MissingEventIsAnEventCountDivergence) {
  TraceRecorder longer = MakeRecorder(0.0025);
  longer.Instant(1, "extra", "cache", 0.006);
  const std::string a = ExportTrace(MakeRecorder(0.0025), "run");
  const std::string b = ExportTrace(longer, "run");
  const TraceDiffResult result = DiffTraceJson(a, b);
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_FALSE(result.identical);
  EXPECT_EQ(result.kind, "event-count");
  EXPECT_EQ(result.event_index, 4u);  // The shorter trace has 4 comparable events.
  EXPECT_EQ(result.name_b, "extra");
}

TEST(TraceDiffTest, StallAttributionDivergenceIsCaughtAfterEvents) {
  TraceRecorder other = MakeRecorder(0.0025);
  StallStateMachine machine;
  machine.AttributeStall(StallClass::kNeverPrefetched, 0.0005);
  machine.AttributeStall(StallClass::kEvictedBeforeUse, 0.0001);
  other.set_stall(machine.stall());  // Events unchanged.
  const std::string a = ExportTrace(MakeRecorder(0.0025), "run");
  const std::string b = ExportTrace(other, "run");
  const TraceDiffResult result = DiffTraceJson(a, b);
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_FALSE(result.identical);
  EXPECT_EQ(result.kind, "stall-attribution");
}

TEST(TraceDiffTest, UnknownTidFallsBackToNumericTrack) {
  // Hand-written trace without thread_name metadata: comparable, track rendered as "tid N".
  const std::string a =
      R"({"traceEvents":[{"ph":"i","s":"t","pid":1,"tid":9,"ts":5.000,"name":"x","cat":"c","args":{}}]})";
  const std::string b =
      R"({"traceEvents":[{"ph":"i","s":"t","pid":1,"tid":9,"ts":6.000,"name":"x","cat":"c","args":{}}]})";
  const TraceDiffResult result = DiffTraceJson(a, b);
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_FALSE(result.identical);
  EXPECT_EQ(result.field, "ts");
  EXPECT_EQ(result.track_a, "tid 9");
}

TEST(TraceDiffTest, MalformedJsonIsAnErrorNotAVerdict) {
  const std::string good = ExportTrace(MakeRecorder(0.0025), "run");
  for (const std::string& bad :
       {std::string(""), std::string("{"), std::string("[1,2]"),
        std::string("{\"traceEvents\":42}")}) {
    const TraceDiffResult result = DiffTraceJson(good, bad);
    EXPECT_FALSE(result.ok);
    EXPECT_FALSE(result.error.empty());
    EXPECT_FALSE(result.identical);
  }
}

TEST(TraceDiffTest, MissingFileIsAnError) {
  const TraceDiffResult result =
      DiffTraceFiles("/nonexistent/a.json", "/nonexistent/b.json");
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("cannot read"), std::string::npos);
}

}  // namespace
}  // namespace fmoe
