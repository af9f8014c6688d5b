#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/admission_decision.h"
#include "metrics/export.h"
#include "metrics/histogram.h"
#include "obs/clock.h"
#include "obs/observer.h"
#include "obs/prometheus.h"
#include "sim/simulator.h"

namespace frap::metrics {
namespace {

TEST(CsvEscapeTest, PlainFieldsPassThrough) {
  EXPECT_EQ(csv_escape("hello"), "hello");
  EXPECT_EQ(csv_escape("1.25"), "1.25");
  EXPECT_EQ(csv_escape(""), "");
}

TEST(CsvEscapeTest, CommasAndQuotesAreQuoted) {
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(CsvExportTest, TableWithHeaderAndRows) {
  util::Table t({"load", "util"});
  t.add_row({"100", "0.88"});
  t.add_row({"150", "0.92"});
  std::ostringstream os;
  write_csv(t, os);
  EXPECT_EQ(os.str(), "load,util\n100,0.88\n150,0.92\n");
}

TEST(CsvExportTest, TableQuotesAwkwardCells) {
  util::Table t({"name", "value"});
  t.add_row({"a,b", "1"});
  std::ostringstream os;
  write_csv(t, os);
  EXPECT_EQ(os.str(), "name,value\n\"a,b\",1\n");
}

TEST(HistogramEdgeTest, BucketHiMatchesNextLo) {
  Histogram h(0.0, 10.0, 5);
  for (std::size_t i = 0; i + 1 < h.bucket_count(); ++i) {
    EXPECT_DOUBLE_EQ(h.bucket_hi(i), h.bucket_lo(i + 1));
  }
  EXPECT_DOUBLE_EQ(h.bucket_hi(4), 10.0);
}

}  // namespace
}  // namespace frap::metrics

namespace frap::obs {
namespace {

std::string render_page(const MetricsSnapshot& snap) {
  std::ostringstream os;
  render_prometheus(snap, os);
  return os.str();
}

TEST(PrometheusEscapeTest, PlainValuesPassThrough) {
  EXPECT_EQ(escape_label_value("admitted"), "admitted");
  EXPECT_EQ(escape_label_value(""), "");
  EXPECT_EQ(escape_label_value("region-full"), "region-full");
}

TEST(PrometheusEscapeTest, BackslashQuoteAndNewlineAreEscaped) {
  EXPECT_EQ(escape_label_value("a\\b"), "a\\\\b");
  EXPECT_EQ(escape_label_value("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(escape_label_value("line\nbreak"), "line\\nbreak");
  // Escaping composes: a backslash before a quote escapes both.
  EXPECT_EQ(escape_label_value("\\\"\n"), "\\\\\\\"\\n");
}

TEST(PrometheusEscapeTest, SampleValueFormatting) {
  EXPECT_EQ(format_sample_value(0.5), "0.5");
  EXPECT_EQ(format_sample_value(0.0), "0");
  EXPECT_EQ(format_sample_value(std::numeric_limits<double>::infinity()),
            "+Inf");
  EXPECT_EQ(format_sample_value(-std::numeric_limits<double>::infinity()),
            "-Inf");
  EXPECT_EQ(format_sample_value(std::numeric_limits<double>::quiet_NaN()),
            "NaN");
}

TEST(PrometheusRenderTest, HistogramBucketsAreCumulativeWithInfEnd) {
  // A hand-built snapshot isolates the renderer from the sink machinery.
  MetricsSnapshot snap;
  SinkSnapshot s{.latency_nanos = metrics::Histogram(0.0, 100.0, 2),
                 .headroom = metrics::Histogram(0.0, 3.0, 3)};
  s.headroom.add(0.5);   // bucket [0,1)
  s.headroom.add(1.5);   // bucket [1,2)
  s.headroom.add(1.6);   // bucket [1,2)
  s.headroom.add(10.0);  // clamped into [2,3)
  snap.sinks.push_back(s);

  const std::string page = render_page(snap);
  EXPECT_NE(page.find("frap_lhs_headroom_bucket{shard=\"0\",le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(page.find("frap_lhs_headroom_bucket{shard=\"0\",le=\"2\"} 3\n"),
            std::string::npos);
  EXPECT_NE(page.find("frap_lhs_headroom_bucket{shard=\"0\",le=\"3\"} 4\n"),
            std::string::npos);
  EXPECT_NE(
      page.find("frap_lhs_headroom_bucket{shard=\"0\",le=\"+Inf\"} 4\n"),
      std::string::npos);
  EXPECT_NE(page.find("frap_lhs_headroom_count{shard=\"0\"} 4\n"),
            std::string::npos);
  // _sum includes the clamped sample's true value.
  EXPECT_NE(page.find("frap_lhs_headroom_sum{shard=\"0\"} 13.6\n"),
            std::string::npos);
}

// The full scrape page for a tiny two-decision run is pinned verbatim: any
// change to metric names, label sets, HELP text, or histogram semantics is
// a breaking change for scrapers and must show up in review.
TEST(PrometheusRenderTest, GoldenPageForTwoDecisionRun) {
  ManualClock clock(100);
  SinkConfig cfg;
  cfg.ring_capacity = 4;
  cfg.latency_sample_period = 1;
  cfg.latency_lo_nanos = 0;
  cfg.latency_hi_nanos = 100;
  cfg.latency_buckets = 2;
  cfg.headroom_lo = 0;
  cfg.headroom_hi = 1;
  cfg.headroom_buckets = 2;
  Observer obs(1, cfg, &clock);

  core::AdmissionDecision d;
  d.admitted = true;
  d.reason = core::AdmissionDecision::Reason::kAdmitted;
  d.lhs_before = 0.2;
  d.lhs_with_task = 0.3;
  d.bound = 0.5;
  d.arrival = 1.0;
  d.decided_at = 1.0;
  std::uint64_t t0 = obs.sink(0).begin_decision();
  clock.advance(10);
  obs.sink(0).record(d, 7, 2, t0);

  core::AdmissionDecision r;
  r.admitted = false;
  r.reason = core::AdmissionDecision::Reason::kRegionFull;
  r.lhs_before = 0.3;
  r.lhs_with_task = 0.6;
  r.bound = 0.5;
  r.arrival = 2.0;
  r.decided_at = 2.0;
  t0 = obs.sink(0).begin_decision();
  clock.advance(20);
  obs.sink(0).record(r, 8, 1, t0);

  const char* expected =
      "# HELP frap_decisions_total Admission decisions by shard and reason\n"
      "# TYPE frap_decisions_total counter\n"
      "frap_decisions_total{shard=\"0\",reason=\"admitted\"} 1\n"
      "frap_decisions_total{shard=\"0\",reason=\"region-full\"} 1\n"
      "# HELP frap_span_events_total Service-level span events (fallback, "
      "rebalance)\n"
      "# TYPE frap_span_events_total counter\n"
      "frap_span_events_total{shard=\"0\"} 0\n"
      "frap_span_events_total{shard=\"service\"} 0\n"
      "# HELP frap_trace_pushed_total Events offered to the trace ring\n"
      "# TYPE frap_trace_pushed_total counter\n"
      "frap_trace_pushed_total{shard=\"0\"} 2\n"
      "frap_trace_pushed_total{shard=\"service\"} 0\n"
      "# HELP frap_trace_dropped_total Events dropped because the claimed "
      "slot was mid-write\n"
      "# TYPE frap_trace_dropped_total counter\n"
      "frap_trace_dropped_total{shard=\"0\"} 0\n"
      "frap_trace_dropped_total{shard=\"service\"} 0\n"
      "# HELP frap_trace_overwritten_total Published events destroyed by "
      "ring wrap-around\n"
      "# TYPE frap_trace_overwritten_total counter\n"
      "frap_trace_overwritten_total{shard=\"0\"} 0\n"
      "frap_trace_overwritten_total{shard=\"service\"} 0\n"
      "# HELP frap_decision_latency_nanos Sampled wall-clock decision "
      "latency in nanoseconds\n"
      "# TYPE frap_decision_latency_nanos histogram\n"
      "frap_decision_latency_nanos_bucket{shard=\"0\",le=\"50\"} 2\n"
      "frap_decision_latency_nanos_bucket{shard=\"0\",le=\"100\"} 2\n"
      "frap_decision_latency_nanos_bucket{shard=\"0\",le=\"+Inf\"} 2\n"
      "frap_decision_latency_nanos_sum{shard=\"0\"} 30\n"
      "frap_decision_latency_nanos_count{shard=\"0\"} 2\n"
      "frap_decision_latency_nanos_bucket{shard=\"service\",le=\"50\"} 0\n"
      "frap_decision_latency_nanos_bucket{shard=\"service\",le=\"100\"} 0\n"
      "frap_decision_latency_nanos_bucket{shard=\"service\",le=\"+Inf\"} 0\n"
      "frap_decision_latency_nanos_sum{shard=\"service\"} 0\n"
      "frap_decision_latency_nanos_count{shard=\"service\"} 0\n"
      "# HELP frap_lhs_headroom Region bound minus post-decision LHS\n"
      "# TYPE frap_lhs_headroom histogram\n"
      "frap_lhs_headroom_bucket{shard=\"0\",le=\"0.5\"} 2\n"
      "frap_lhs_headroom_bucket{shard=\"0\",le=\"1\"} 2\n"
      "frap_lhs_headroom_bucket{shard=\"0\",le=\"+Inf\"} 2\n"
      "frap_lhs_headroom_sum{shard=\"0\"} 0.4\n"
      "frap_lhs_headroom_count{shard=\"0\"} 2\n"
      "frap_lhs_headroom_bucket{shard=\"service\",le=\"0.5\"} 0\n"
      "frap_lhs_headroom_bucket{shard=\"service\",le=\"1\"} 0\n"
      "frap_lhs_headroom_bucket{shard=\"service\",le=\"+Inf\"} 0\n"
      "frap_lhs_headroom_sum{shard=\"service\"} 0\n"
      "frap_lhs_headroom_count{shard=\"service\"} 0\n"
      "# HELP frap_histogram_nan_rejected_total NaN samples rejected by "
      "metric histograms\n"
      "# TYPE frap_histogram_nan_rejected_total counter\n"
      "frap_histogram_nan_rejected_total{shard=\"0\","
      "metric=\"decision_latency_nanos\"} 0\n"
      "frap_histogram_nan_rejected_total{shard=\"0\","
      "metric=\"lhs_headroom\"} 0\n"
      "frap_histogram_nan_rejected_total{shard=\"service\","
      "metric=\"decision_latency_nanos\"} 0\n"
      "frap_histogram_nan_rejected_total{shard=\"service\","
      "metric=\"lhs_headroom\"} 0\n";
  EXPECT_EQ(render_page(obs.snapshot()), expected);

  // The JSONL trace of the same run is pinned too (%.17g doubles, tickets
  // in push order).
  std::ostringstream jsonl;
  render_jsonl(obs.trace(), jsonl);
  EXPECT_EQ(jsonl.str(),
            "{\"ticket\":0,\"kind\":\"decision\",\"shard\":0,\"task_id\":7,"
            "\"arrival\":1,\"decided_at\":1,\"admitted\":true,"
            "\"reason\":\"admitted\",\"lhs_before\":0.20000000000000001,"
            "\"lhs_with_task\":0.29999999999999999,\"bound\":0.5,"
            "\"touched\":2,\"latency_nanos\":10}\n"
            "{\"ticket\":1,\"kind\":\"decision\",\"shard\":0,\"task_id\":8,"
            "\"arrival\":2,\"decided_at\":2,\"admitted\":false,"
            "\"reason\":\"region-full\",\"lhs_before\":0.29999999999999999,"
            "\"lhs_with_task\":0.59999999999999998,\"bound\":0.5,"
            "\"touched\":1,\"latency_nanos\":20}\n");
}

TEST(PrometheusRenderTest, JsonlRendersNonFiniteAsStrings) {
  DecisionEvent ev;
  ev.ticket = 3;
  ev.task_id = 11;
  ev.lhs_before = 0.25;
  ev.lhs_with_task = std::numeric_limits<double>::infinity();
  ev.bound = 0.5;
  ev.reason = core::AdmissionDecision::Reason::kStageSaturated;
  ev.kind = SpanKind::kDecision;
  std::ostringstream os;
  render_jsonl({ev}, os);
  const std::string line = os.str();
  EXPECT_NE(line.find("\"lhs_with_task\":\"+Inf\""), std::string::npos);
  EXPECT_NE(line.find("\"reason\":\"stage-saturated\""), std::string::npos);
  EXPECT_NE(line.find("\"admitted\":false"), std::string::npos);
}

}  // namespace
}  // namespace frap::obs
