#include "obs/export.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <string>

#include "common/threadpool.hpp"
#include "json_check.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace xg::obs {
namespace {

using xg::testing::JsonChecker;

TEST(JsonEscapeTest, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(JsonEscape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(JsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST(PrometheusText, CountersGaugesAndLabels) {
  MetricsRegistry reg;
  reg.GetCounter("xg_cspot_retries_total", {{"path", "unl-ucsb"}},
                 "Append retries")
      .Inc(3);
  reg.GetGauge("xg_hpc_free_nodes", {}, "Idle nodes").Set(12);

  const std::string text = ToPrometheusText(reg.Snapshot());
  EXPECT_NE(text.find("# HELP xg_cspot_retries_total Append retries\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE xg_cspot_retries_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("xg_cspot_retries_total{path=\"unl-ucsb\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE xg_hpc_free_nodes gauge\n"), std::string::npos);
  EXPECT_NE(text.find("xg_hpc_free_nodes 12\n"), std::string::npos);
}

TEST(PrometheusText, HistogramBucketsAreCumulativeWithInf) {
  MetricsRegistry reg;
  LatencyHistogram& h =
      reg.GetHistogram("xg_lat_ms", {}, "latency", {1.0, 10.0});
  h.Observe(0.5);
  h.Observe(5.0);
  h.Observe(5.0);
  h.Observe(99.0);

  const std::string text = ToPrometheusText(reg.Snapshot());
  EXPECT_NE(text.find("xg_lat_ms_bucket{le=\"1\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("xg_lat_ms_bucket{le=\"10\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("xg_lat_ms_bucket{le=\"+Inf\"} 4\n"), std::string::npos);
  EXPECT_NE(text.find("xg_lat_ms_count 4\n"), std::string::npos);
  EXPECT_NE(text.find("xg_lat_ms_sum 109.5\n"), std::string::npos);
}

TEST(PrometheusText, TypeHeaderEmittedOncePerFamily) {
  MetricsRegistry reg;
  reg.GetCounter("xg_fam_total", {{"path", "a"}}).Inc();
  reg.GetCounter("xg_fam_total", {{"path", "b"}}).Inc();
  const std::string text = ToPrometheusText(reg.Snapshot());
  size_t first = text.find("# TYPE xg_fam_total");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(text.find("# TYPE xg_fam_total", first + 1), std::string::npos);
}

TEST(MetricsJson, IsValidJsonWithAllInstrumentKinds) {
  MetricsRegistry reg;
  reg.GetCounter("xg_c_total", {{"k", "v\"quoted\""}}).Inc(2);
  reg.GetGauge("xg_g").Set(0.25);
  reg.GetHistogram("xg_h_ms", {}, "", {5.0}).Observe(1.0);
  const std::string json = MetricsToJson(reg.Snapshot());
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"name\":\"xg_c_total\""), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"histogram\""), std::string::npos);
  EXPECT_NE(json.find("\"le\":\"+Inf\""), std::string::npos);
}

TEST(MetricsJson, EmptySnapshotIsEmptyArray) {
  EXPECT_EQ(MetricsToJson({}), "[]");
}

TEST(ChromeTrace, ValidJsonWithThreadNamesAndCompleteEvents) {
  int64_t now = 0;
  Tracer tracer;
  tracer.set_clock([&now] { return now; });

  TraceContext root = tracer.StartTrace("telemetry", "fabric");
  now = 40;
  TraceContext hop = tracer.RecordSpan("net5g.access", "net5g", root, 0, 21000,
                                       {{"from", "unl"}});
  ASSERT_TRUE(hop.valid());
  now = 50000;
  tracer.EndSpan(root);
  TraceContext open_span = tracer.StartTrace("still-open", "fabric");
  ASSERT_TRUE(open_span.valid());

  const std::string json = ToChromeTraceJson(tracer.Snapshot());
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  // Container shape + metadata events naming the component lanes.
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("{\"name\":\"net5g\"}"), std::string::npos);
  // Complete events with explicit duration; hop kept its recorded times.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":21000"), std::string::npos);
  EXPECT_NE(json.find("\"from\":\"unl\""), std::string::npos);
  // The unfinished span is flagged rather than dropped.
  EXPECT_NE(json.find("\"open\":\"true\""), std::string::npos);
}

TEST(ChromeTrace, EmptySnapshot) {
  const std::string json = ToChromeTraceJson({});
  EXPECT_TRUE(JsonChecker(json).Valid());
  EXPECT_EQ(json, "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}");
}

TEST(Exporters, SnapshotWhileWritersMutate) {
  // Snapshot-vs-mutation: exporters consume value snapshots, so running
  // them while workers hammer the instruments must never tear output.
  MetricsRegistry reg;
  Counter& c = reg.GetCounter("xg_race_total");
  LatencyHistogram& h = reg.GetHistogram("xg_race_ms", {}, "", {1.0, 10.0});
  Tracer tracer;
  // Keep the span store small so each Chrome export stays cheap while the
  // writers hammer it.
  tracer.set_capacity(1024);
  int64_t fake_now = 0;
  tracer.set_clock([&fake_now] { return fake_now; });

  std::atomic<bool> stop{false};
  ThreadPool pool(4);
  pool.ParallelRegion([&](const Region& region) {
    const size_t worker = region.worker();
    if (worker == 0) {
      for (int i = 0; i < 50; ++i) {
        const std::string prom = ToPrometheusText(reg.Snapshot());
        EXPECT_NE(prom.find("xg_race_total"), std::string::npos);
        EXPECT_TRUE(JsonChecker(MetricsToJson(reg.Snapshot())).Valid());
        EXPECT_TRUE(JsonChecker(ToChromeTraceJson(tracer.Snapshot())).Valid());
      }
      stop.store(true);
    } else {
      // At least one round even if the exporting worker finishes first.
      do {
        c.Inc();
        h.Observe(static_cast<double>(worker));
        TraceContext t = tracer.StartTrace("w", "bench");
        tracer.EndSpan(t);
      } while (!stop.load(std::memory_order_relaxed));
    }
  });
  EXPECT_GT(c.value(), 0u);
}

}  // namespace
}  // namespace xg::obs
