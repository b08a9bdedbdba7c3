// Observability layer tests: registry aggregation under concurrent
// multi-threaded increments (exercised under TSan via the sanitize
// label), histogram bucket boundaries, span-buffer flush ordering, and a
// golden-schema check that the --json-out run report round-trips through
// the JSON parser with every required key present.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/frontier_engine.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace_span.h"

namespace graphbig {
namespace {

using obs::JsonValue;
using obs::MetricsRegistry;
using obs::MetricsSnapshot;

// Series are process-global and other tests in this binary drive the
// instrumented code paths, so every test uses its own uniquely-named
// series and asserts on deltas from a baseline snapshot.
std::uint64_t counter_or_zero(const MetricsSnapshot& s,
                              const std::string& name) {
  const std::uint64_t* v = s.counter_value(name);
  return v != nullptr ? *v : 0;
}

TEST(MetricsRegistry, ConcurrentIncrementsAggregateExactly) {
  obs::set_enabled(true);
  auto& registry = MetricsRegistry::instance();
  obs::Counter c = registry.counter("test.concurrent_counter");
  obs::Histogram h =
      registry.histogram("test.concurrent_histogram", {10, 100, 1000});

  const MetricsSnapshot before = registry.snapshot();
  const std::uint64_t before_c =
      counter_or_zero(before, "test.concurrent_counter");
  const obs::HistogramSnapshot* hb =
      before.histogram("test.concurrent_histogram");
  const std::uint64_t before_h = hb != nullptr ? hb->count : 0;

  constexpr int kThreads = 16;
  constexpr std::uint64_t kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        c.inc();
        c.add(2);
        h.observe(static_cast<std::uint64_t>(t));
      }
    });
  }
  for (auto& t : threads) t.join();

  // Writers have quiesced (joined), so the aggregate must be exact — this
  // is the property a mod-N shard scheme with plain stores would lose.
  const MetricsSnapshot after = registry.snapshot();
  EXPECT_EQ(counter_or_zero(after, "test.concurrent_counter") - before_c,
            kThreads * kPerThread * 3);
  const obs::HistogramSnapshot* ha =
      after.histogram("test.concurrent_histogram");
  ASSERT_NE(ha, nullptr);
  EXPECT_EQ(ha->count - before_h, kThreads * kPerThread);
}

TEST(MetricsRegistry, HistogramBucketBoundaries) {
  obs::set_enabled(true);
  auto& registry = MetricsRegistry::instance();
  obs::Histogram h = registry.histogram("test.bucket_bounds", {10, 100});

  // Bucket i counts v <= bounds[i]; the last bucket is overflow.
  h.observe(1);
  h.observe(10);   // at the boundary: first bucket
  h.observe(11);   // just past: second bucket
  h.observe(100);  // at the boundary: second bucket
  h.observe(101);  // overflow

  const MetricsSnapshot snap = registry.snapshot();
  const obs::HistogramSnapshot* s = snap.histogram("test.bucket_bounds");
  ASSERT_NE(s, nullptr);
  ASSERT_EQ(s->bounds, (std::vector<std::uint64_t>{10, 100}));
  ASSERT_EQ(s->counts.size(), 3u);
  EXPECT_EQ(s->counts[0], 2u);
  EXPECT_EQ(s->counts[1], 2u);
  EXPECT_EQ(s->counts[2], 1u);
  EXPECT_EQ(s->count, 5u);
  EXPECT_EQ(s->sum, 1u + 10 + 11 + 100 + 101);
}

TEST(MetricsRegistry, ValueAtQuantileExactBucketBoundaries) {
  obs::set_enabled(true);
  auto& registry = MetricsRegistry::instance();
  obs::Histogram h = registry.histogram("test.quantile_bounds", {10, 100, 1000});

  // Ten observations: 4 in bucket <=10, 3 in (10,100], 2 in (100,1000],
  // 1 overflow. Quantiles return the bucket's upper bound (conservative).
  for (const std::uint64_t v : {1, 2, 3, 10, 11, 50, 100, 101, 1000, 5000}) {
    h.observe(v);
  }
  const MetricsSnapshot snap = registry.snapshot();
  const obs::HistogramSnapshot* s = snap.histogram("test.quantile_bounds");
  ASSERT_NE(s, nullptr);
  ASSERT_EQ(s->count, 10u);

  // rank = ceil(q * 10), clamped to [1, 10]; cumulative counts 4, 7, 9, 10.
  EXPECT_EQ(s->value_at_quantile(0.0), 10u);    // rank 1 -> bucket 0
  EXPECT_EQ(s->value_at_quantile(0.40), 10u);   // rank 4: last of bucket 0
  EXPECT_EQ(s->value_at_quantile(0.41), 100u);  // rank 5: first of bucket 1
  EXPECT_EQ(s->value_at_quantile(0.70), 100u);  // rank 7: last of bucket 1
  EXPECT_EQ(s->value_at_quantile(0.90), 1000u);  // rank 9: last of bucket 2
  // Ranks that land in the overflow bucket saturate to the largest finite
  // bound — "at or past the histogram's range".
  EXPECT_EQ(s->value_at_quantile(0.91), 1000u);  // rank 10: overflow
  EXPECT_EQ(s->value_at_quantile(1.0), 1000u);
  // Out-of-range q is clamped.
  EXPECT_EQ(s->value_at_quantile(-1.0), 10u);
  EXPECT_EQ(s->value_at_quantile(2.0), 1000u);
}

TEST(MetricsRegistry, ValueAtQuantileSingleObservationAndEmpty) {
  obs::set_enabled(true);
  auto& registry = MetricsRegistry::instance();
  obs::Histogram h = registry.histogram("test.quantile_single", {10, 100});
  {
    const MetricsSnapshot empty = registry.snapshot();
    const obs::HistogramSnapshot* s = empty.histogram("test.quantile_single");
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->value_at_quantile(0.5), 0u);  // empty -> 0
  }
  h.observe(42);
  const MetricsSnapshot snap = registry.snapshot();
  const obs::HistogramSnapshot* s = snap.histogram("test.quantile_single");
  ASSERT_NE(s, nullptr);
  // Every quantile of a one-observation histogram is that observation's
  // bucket bound.
  EXPECT_EQ(s->value_at_quantile(0.0), 100u);
  EXPECT_EQ(s->value_at_quantile(0.5), 100u);
  EXPECT_EQ(s->value_at_quantile(1.0), 100u);
}

TEST(MetricsRegistry, InternedHandlesShareCells) {
  obs::set_enabled(true);
  auto& registry = MetricsRegistry::instance();
  obs::Counter a = registry.counter("test.interned");
  obs::Counter b = registry.counter("test.interned");
  const std::uint64_t before =
      counter_or_zero(registry.snapshot(), "test.interned");
  a.inc();
  b.inc();
  EXPECT_EQ(counter_or_zero(registry.snapshot(), "test.interned") - before,
            2u);
}

TEST(MetricsRegistry, DisabledRecordingIsANoOp) {
  auto& registry = MetricsRegistry::instance();
  obs::Counter c = registry.counter("test.disabled_noop");
  const std::uint64_t before =
      counter_or_zero(registry.snapshot(), "test.disabled_noop");
  obs::set_enabled(false);
  c.add(100);
  obs::set_enabled(true);
  EXPECT_EQ(counter_or_zero(registry.snapshot(), "test.disabled_noop"),
            before);
  c.inc();
  EXPECT_EQ(counter_or_zero(registry.snapshot(), "test.disabled_noop"),
            before + 1);
}

TEST(SpanTracer, FlushOrderingAndNesting) {
  obs::clear_spans();
  obs::set_tracing(true);
  {
    obs::ObsSpan outer("outer");
    {
      obs::ObsSpan inner("inner");
    }
    {
      obs::ObsSpan inner2("inner2", 42);
    }
  }
  std::thread worker([] {
    obs::ObsSpan span("worker_span");
  });
  worker.join();
  obs::set_tracing(false);

  // Quiescent point: the worker joined, so its retired buffer and the
  // main thread's live buffer must both be visible, sorted by start time
  // with parents before children.
  const std::vector<obs::SpanEvent> spans = obs::collect_spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_STREQ(spans[0].name, "outer");
  EXPECT_STREQ(spans[1].name, "inner");
  EXPECT_STREQ(spans[2].name, "inner2");
  EXPECT_EQ(spans[2].arg, 42u);
  EXPECT_TRUE(spans[2].has_arg);
  EXPECT_STREQ(spans[3].name, "worker_span");
  // Parent encloses children.
  EXPECT_LE(spans[0].start_ns, spans[1].start_ns);
  EXPECT_GE(spans[0].end_ns, spans[2].end_ns);
  // The worker thread gets its own tid.
  EXPECT_NE(spans[3].tid, spans[0].tid);
  for (const auto& s : spans) EXPECT_LE(s.start_ns, s.end_ns);

  // Disabled tracing records nothing.
  obs::clear_spans();
  {
    obs::ObsSpan span("not_recorded");
  }
  EXPECT_TRUE(obs::collect_spans().empty());
}

TEST(SpanTracer, ChromeTraceIsValidJson) {
  obs::clear_spans();
  obs::set_tracing(true);
  {
    obs::ObsSpan span("trace_doc_span", 7);
  }
  obs::set_tracing(false);

  std::ostringstream os;
  const std::size_t n = obs::write_chrome_trace(os);
  EXPECT_EQ(n, 1u);

  JsonValue doc;
  std::string error;
  ASSERT_TRUE(obs::json_parse(os.str(), &doc, &error)) << error;
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, JsonValue::Kind::kArray);
  ASSERT_EQ(events->items.size(), 1u);
  const JsonValue& e = events->items[0];
  ASSERT_NE(e.find("name"), nullptr);
  EXPECT_EQ(e.find("name")->str, "trace_doc_span");
  ASSERT_NE(e.find("ph"), nullptr);
  EXPECT_EQ(e.find("ph")->str, "X");
  EXPECT_NE(e.find("ts"), nullptr);
  EXPECT_NE(e.find("dur"), nullptr);
  EXPECT_NE(e.find("tid"), nullptr);
  ASSERT_NE(e.find_path("args.v"), nullptr);
  EXPECT_EQ(e.find_path("args.v")->number, 7.0);
  obs::clear_spans();
}

TEST(TraceContext, ScopedTraceTagsSpansAndNestsAndRestores) {
  obs::clear_spans();
  obs::set_tracing(true);
  EXPECT_EQ(obs::current_trace(), 0u);
  {
    obs::ScopedTrace outer(7);
    EXPECT_EQ(obs::current_trace(), 7u);
    {
      obs::ObsSpan span("ctx_tagged");
    }
    {
      obs::ScopedTrace inner(9);
      EXPECT_EQ(obs::current_trace(), 9u);
      obs::ObsSpan span("ctx_inner");
    }
    EXPECT_EQ(obs::current_trace(), 7u);
  }
  EXPECT_EQ(obs::current_trace(), 0u);
  {
    obs::ObsSpan span("ctx_untagged");
  }
  obs::set_tracing(false);

  const std::vector<obs::SpanEvent> spans = obs::collect_spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_STREQ(spans[0].name, "ctx_tagged");
  EXPECT_EQ(spans[0].trace, 7u);
  EXPECT_STREQ(spans[1].name, "ctx_inner");
  EXPECT_EQ(spans[1].trace, 9u);
  EXPECT_STREQ(spans[2].name, "ctx_untagged");
  EXPECT_EQ(spans[2].trace, 0u);
  obs::clear_spans();
}

TEST(TraceContext, FlowEventsSerializeAsConnectedArc) {
  obs::clear_spans();
  // Flows are gated on tracing just like spans.
  obs::flow_start("request", 5);
  EXPECT_TRUE(obs::collect_flows().empty());

  obs::set_tracing(true);
  {
    obs::ObsSpan submit("submit_side");
    obs::flow_start("request", 5);
  }
  std::thread worker([] {
    obs::ScopedTrace trace(5);
    obs::ObsSpan exec("exec_side");
    obs::flow_step("request", 5);
    obs::flow_end("request", 5);
  });
  worker.join();
  obs::set_tracing(false);

  // Worker flows survived the thread join (retired-buffer fold).
  const std::vector<obs::FlowEvent> flows = obs::collect_flows();
  ASSERT_EQ(flows.size(), 3u);
  EXPECT_EQ(flows[0].phase, obs::FlowEvent::Phase::kStart);
  EXPECT_EQ(flows[1].phase, obs::FlowEvent::Phase::kStep);
  EXPECT_EQ(flows[2].phase, obs::FlowEvent::Phase::kEnd);
  for (const auto& f : flows) EXPECT_EQ(f.id, 5u);
  EXPECT_NE(flows[0].tid, flows[2].tid);  // crossed threads

  std::ostringstream os;
  // 2 spans + 3 flow events.
  EXPECT_EQ(obs::write_chrome_trace(os), 5u);
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(obs::json_parse(os.str(), &doc, &error)) << error;
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  int starts = 0;
  int steps = 0;
  int ends = 0;
  for (const JsonValue& e : events->items) {
    const std::string ph = e.find("ph")->str;
    if (ph == "s" || ph == "t" || ph == "f") {
      EXPECT_EQ(e.find("cat")->str, "request");
      EXPECT_EQ(e.find("id")->number, 5.0);
      if (ph == "s") ++starts;
      if (ph == "t") ++steps;
      if (ph == "f") {
        ++ends;
        // f binds to the enclosing slice.
        ASSERT_NE(e.find("bp"), nullptr);
        EXPECT_EQ(e.find("bp")->str, "e");
      }
    } else if (e.find("name")->str == "exec_side") {
      // The worker span carries its ambient trace id into args.
      ASSERT_NE(e.find_path("args.trace"), nullptr);
      EXPECT_EQ(e.find_path("args.trace")->number, 5.0);
    }
  }
  EXPECT_EQ(starts, 1);
  EXPECT_EQ(steps, 1);
  EXPECT_EQ(ends, 1);
  obs::clear_spans();
}

TEST(RunReport, GoldenSchemaRoundTrip) {
  obs::set_enabled(true);
  obs::RunReport report;
  report.workload = "BFS";
  report.dataset = "ldbc";
  report.scale = "tiny";
  report.threads = 4;
  report.backend = "disk";
  report.direction = "auto";
  report.layout = "degree";
  report.compress = true;
  report.pool_pages = 8;
  report.snapshot_path = "graph.snap";
  report.snapshot_format = "graphbig.snap.v1";
  report.snapshot_version = 1;
  // Above 2^53, like result.checksum: only the string form round-trips.
  report.snapshot_checksum = 0x8000000000000007ull;
  report.refresh_mode = "incremental";
  report.churn_batches = 4;
  report.churn_ops = 512;
  report.churn_seed = 42;
  report.seconds = 0.125;
  // Above 2^53: must survive the double-based parser via the string form.
  report.checksum = 0x8000000000000003ull;
  report.vertices_processed = 100;
  report.edges_processed = 500;
  engine::StepTelemetry step;
  step.step = 0;
  step.frontier = 1;
  step.edges = 5;
  record_step(&report.telemetry, step);
  report.refresh.kind = graph::RefreshStats::Kind::kFullRebuild;
  report.refresh.fallback_reason = "indirection threshold exceeded";
  report.refresh.rows_total = 100;
  report.refresh.rows_rewritten = 7;
  report.refresh_seconds = 0.01;

  JsonValue doc;
  std::string error;
  ASSERT_TRUE(obs::json_parse(report.to_json(), &doc, &error)) << error;

  for (const char* path :
       {"schema", "workload", "dataset", "scale", "config.threads",
        "config.backend", "config.direction",
        "config.layout", "config.compress",
        "config.refresh_mode", "config.churn.batches", "config.churn.ops",
        "config.churn.seed", "config.pool_pages", "snapshot.path",
        "snapshot.format", "snapshot.version", "snapshot.checksum",
        "result.seconds", "result.checksum",
        "result.vertices_processed", "result.edges_processed",
        "traversal.supersteps", "traversal.push_steps",
        "traversal.pull_steps", "traversal.dense_steps",
        "traversal.stolen_chunks", "traversal.max_frontier",
        "traversal.tail.steps", "traversal.steps", "refresh.kind",
        "refresh.fallback_reason", "refresh.rows_total",
        "refresh.rows_rewritten", "refresh.total_seconds",
        "metrics.counters", "metrics.gauges", "metrics.histograms"}) {
    EXPECT_NE(doc.find_path(path), nullptr) << "missing key: " << path;
  }
  EXPECT_EQ(doc.find_path("schema")->str, "graphbig.run.v1");
  EXPECT_EQ(doc.find_path("result.checksum")->str, "9223372036854775811");
  EXPECT_EQ(doc.find_path("config.backend")->str, "disk");
  // Only one execution engine exists, so the config carries no engine axis.
  EXPECT_EQ(doc.find_path("config")->find("engine"), nullptr);
  // Every parallel loop steals work, so the config carries no steal axis.
  EXPECT_EQ(doc.find_path("config")->find("steal"), nullptr);
  // The backend is the only representation axis.
  EXPECT_EQ(doc.find_path("config")->find("representation"), nullptr);
  EXPECT_EQ(doc.find_path("snapshot.format")->str, "graphbig.snap.v1");
  EXPECT_EQ(doc.find_path("snapshot.checksum")->str, "9223372036854775815");
  EXPECT_EQ(doc.find_path("config.threads")->number, 4.0);
  EXPECT_EQ(doc.find_path("config.layout")->str, "degree");
  EXPECT_EQ(doc.find_path("config.compress")->kind,
            JsonValue::Kind::kBool);
  EXPECT_EQ(doc.find_path("traversal.supersteps")->number, 1.0);
  // A full-rebuild refresh must say WHY it fell back — the footer and the
  // JSON carry the same reason string.
  EXPECT_EQ(doc.find_path("refresh.kind")->str, "full-rebuild");
  EXPECT_EQ(doc.find_path("refresh.fallback_reason")->str,
            "indirection threshold exceeded");
  const JsonValue* steps = doc.find_path("traversal.steps");
  ASSERT_EQ(steps->kind, JsonValue::Kind::kArray);
  ASSERT_EQ(steps->items.size(), 1u);
  EXPECT_EQ(steps->items[0].find("frontier")->number, 1.0);
}

TEST(TraversalTelemetry, TailAggregatesStepsPastCap) {
  engine::TraversalTelemetry t;
  constexpr std::uint64_t kSteps = 70;  // kMaxSteps = 64, so 6 overflow
  for (std::uint64_t i = 0; i < kSteps; ++i) {
    engine::StepTelemetry s;
    s.step = static_cast<std::uint32_t>(i);
    s.frontier = i + 1;
    s.edges = 2 * (i + 1);
    record_step(&t, s);
  }
  EXPECT_EQ(t.supersteps, kSteps);
  EXPECT_EQ(t.steps.size(), engine::TraversalTelemetry::kMaxSteps);
  EXPECT_EQ(t.tail_steps, kSteps - engine::TraversalTelemetry::kMaxSteps);
  // Tail mass: steps 65..70 have frontier 65..70, edges 130..140.
  std::uint64_t want_frontier = 0, want_edges = 0;
  for (std::uint64_t i = engine::TraversalTelemetry::kMaxSteps; i < kSteps;
       ++i) {
    want_frontier += i + 1;
    want_edges += 2 * (i + 1);
  }
  EXPECT_EQ(t.tail_frontier, want_frontier);
  EXPECT_EQ(t.tail_edges, want_edges);
  const std::string summary = t.summary();
  EXPECT_NE(summary.find("+6 more steps"), std::string::npos) << summary;
}

}  // namespace
}  // namespace graphbig
