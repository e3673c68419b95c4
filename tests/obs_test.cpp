// Exporter round-trip tests for the observability layer (src/obs/).
//
// These run in BOTH build flavours: with QS_ENABLE_TRACING=OFF (the
// default) the span layer is compiled out and the tests pin down the
// degraded-but-valid contract — empty-but-parseable trace, metrics with
// values/residuals but no phases; with the `trace` preset they additionally
// verify that recorded spans, instants, and counters survive the trip into
// the Chrome trace JSON and the metrics snapshot.  Registered under the
// ctest label `obs` (ctest -L obs) next to being part of qs_tests.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/span_wire.hpp"
#include "obs/trace.hpp"
#include "support/timer.hpp"

namespace qs::obs {
namespace {

/// Minimal structural JSON check: braces/brackets balance outside string
/// literals and the text is non-trivial.  Not a full parser — enough to
/// catch the classic exporter bugs (trailing comma never hits this, but a
/// missing quote, an unclosed array, or raw NaN/Inf all do).
bool json_balanced(const std::string& text) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (const char c : text) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': case '[': ++depth; break;
      case '}': case ']':
        if (--depth < 0) return false;
        break;
      default: break;
    }
  }
  return depth == 0 && !in_string && !text.empty();
}

std::string trace_json() {
  std::ostringstream out;
  write_chrome_trace(out);
  return out.str();
}

std::string metrics_json() {
  std::ostringstream out;
  write_metrics_json(out, metrics().snapshot());
  return out.str();
}

std::filesystem::path temp_file(const std::string& suffix) {
  return std::filesystem::temp_directory_path() /
         ("qs_obs_test_" + std::to_string(::getpid()) + suffix);
}

/// Per-test scrub: the recorder and rings are process-wide singletons, so
/// every test starts them from zero and leaves tracing disabled.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_enabled(false);
    reset();
    metrics().reset();
  }
  void TearDown() override {
    set_enabled(false);
    reset();
    metrics().reset();
  }
};

TEST_F(ObsTest, TraceJsonIsStructurallyValidInEveryBuild) {
  const std::string json = trace_json();
  EXPECT_TRUE(json_balanced(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  // The metadata note is what makes an empty trace self-explaining.
  const std::string flag = compiled_in() ? "\"tracing_compiled_in\":true"
                                         : "\"tracing_compiled_in\":false";
  EXPECT_NE(json.find(flag), std::string::npos) << json;
}

TEST_F(ObsTest, DisabledRuntimeSwitchRecordsNothing) {
  // set_enabled(false) is the SetUp state; macro sites must stay silent.
  { QS_TRACE_SPAN("obs_test.silent", app); }
  QS_TRACE_INSTANT("obs_test.silent_instant", app, 1.0);
  QS_TRACE_COUNTER("obs_test.silent_counter", 1);
  EXPECT_TRUE(snapshot_spans().empty());
  EXPECT_TRUE(snapshot_counters().empty());
}

TEST_F(ObsTest, SpansInstantsAndCountersRoundTripIntoTheTrace) {
  if (!compiled_in()) GTEST_SKIP() << "needs a QS_ENABLE_TRACING build";
  set_enabled(true);
  { QS_TRACE_SPAN_ARG("obs_test.span", kernel, 7); }
  QS_TRACE_INSTANT_ARG("obs_test.instant", solver, 0.125, 3);
  QS_TRACE_COUNTER("obs_test.counter", 5);
  QS_TRACE_COUNTER("obs_test.counter", 2);

  const auto spans = snapshot_spans();
  ASSERT_EQ(spans.size(), 2u);  // one span + one instant, start-sorted
  const auto counters = snapshot_counters();
  ASSERT_EQ(counters.size(), 1u);
  EXPECT_EQ(counters.front().value, 7u);

  const std::string json = trace_json();
  EXPECT_TRUE(json_balanced(json)) << json;
  EXPECT_NE(json.find("\"obs_test.span\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"kernel\""), std::string::npos);
  EXPECT_NE(json.find("\"obs_test.instant\""), std::string::npos);
  EXPECT_NE(json.find("\"obs_test.counter\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
}

TEST_F(ObsTest, ResetClearsRingsAndCounters) {
  if (!compiled_in()) GTEST_SKIP() << "needs a QS_ENABLE_TRACING build";
  set_enabled(true);
  { QS_TRACE_SPAN("obs_test.span", app); }
  QS_TRACE_COUNTER("obs_test.counter", 1);
  ASSERT_FALSE(snapshot_spans().empty());
  reset();
  EXPECT_TRUE(snapshot_spans().empty());
  EXPECT_TRUE(snapshot_counters().empty());
  EXPECT_EQ(dropped_spans(), 0u);
}

TEST_F(ObsTest, MetricsSnapshotCarriesInfoValuesAndResiduals) {
  auto& m = metrics();
  m.set_info("solver", "power");
  m.set_info("solver", "arnoldi");  // overwrite, not append
  m.set_value("nu", 18.0);
  m.record_residual(0.5);
  m.record_residual(0.25);

  const MetricsSnapshot snap = m.snapshot();
  ASSERT_EQ(snap.info.size(), 1u);
  EXPECT_EQ(snap.info.front().first, "solver");
  EXPECT_EQ(snap.info.front().second, "arnoldi");
  ASSERT_EQ(snap.values.size(), 1u);
  EXPECT_EQ(snap.values.front().second, 18.0);
  EXPECT_EQ(snap.residual_count, 2u);
  ASSERT_EQ(snap.residual_tail.size(), 2u);
  EXPECT_EQ(snap.residual_tail[0], 0.5);   // oldest first
  EXPECT_EQ(snap.residual_tail[1], 0.25);
  EXPECT_EQ(snap.tracing_compiled_in, compiled_in());
}

TEST_F(ObsTest, ResidualRingKeepsTheMostRecentTailOldestFirst) {
  auto& m = metrics();
  const std::size_t total = MetricsRecorder::kResidualTail + 10;
  for (std::size_t i = 0; i < total; ++i)
    m.record_residual(static_cast<double>(i));

  const MetricsSnapshot snap = m.snapshot();
  EXPECT_EQ(snap.residual_count, total);
  ASSERT_EQ(snap.residual_tail.size(), MetricsRecorder::kResidualTail);
  EXPECT_EQ(snap.residual_tail.front(), 10.0);  // entries 0..9 were evicted
  EXPECT_EQ(snap.residual_tail.back(), static_cast<double>(total - 1));
}

TEST_F(ObsTest, MetricsJsonHasTheStableSchema) {
  auto& m = metrics();
  m.set_info("simd_tier", "scalar");
  m.set_value("plan.tile_log2", 14.0);
  m.record_residual(1e-9);

  const std::string json = metrics_json();
  EXPECT_TRUE(json_balanced(json)) << json;
  for (const char* key :
       {"\"schema_version\": 2", "\"tracing_compiled_in\"", "\"dropped_spans\"",
        "\"info\"", "\"values\"", "\"residuals\"", "\"histograms\"",
        "\"phases\"", "\"counters\"", "\"simd_tier\"", "\"plan.tile_log2\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
}

TEST_F(ObsTest, NonFiniteValuesExportAsNullNotAsBrokenJson) {
  metrics().set_value("bad", std::numeric_limits<double>::quiet_NaN());
  const std::string json = metrics_json();
  EXPECT_TRUE(json_balanced(json)) << json;
  EXPECT_NE(json.find("\"bad\": null"), std::string::npos) << json;
  EXPECT_EQ(json.find("nan"), std::string::npos) << json;
}

TEST_F(ObsTest, MetricsCsvEmitsRaggedKindRows) {
  auto& m = metrics();
  m.set_info("tool", "obs_test");
  m.set_value("nu", 12.0);
  m.record_residual(0.75);

  std::ostringstream out;
  write_metrics_csv(out, m.snapshot());
  const std::string csv = out.str();
  EXPECT_NE(csv.find("kind,name,value\n"), std::string::npos);
  EXPECT_NE(csv.find("info,tool,obs_test\n"), std::string::npos);
  EXPECT_NE(csv.find("value,nu,12\n"), std::string::npos);
  EXPECT_NE(csv.find("residual,0,0.75\n"), std::string::npos);
}

TEST_F(ObsTest, FileWritersPickFormatByExtensionAndFailSoftly) {
  metrics().set_value("nu", 10.0);

  const auto json_path = temp_file(".json");
  const auto csv_path = temp_file(".csv");
  ASSERT_TRUE(write_metrics_file(json_path.string()));
  ASSERT_TRUE(write_metrics_file(csv_path.string()));
  ASSERT_TRUE(write_chrome_trace_file(temp_file(".trace.json").string()));

  std::stringstream json_text, csv_text;
  json_text << std::ifstream(json_path).rdbuf();
  csv_text << std::ifstream(csv_path).rdbuf();
  std::filesystem::remove(json_path);
  std::filesystem::remove(csv_path);
  std::filesystem::remove(temp_file(".trace.json"));

  EXPECT_EQ(json_text.str().front(), '{');
  EXPECT_NE(csv_text.str().find("kind,name,value"), std::string::npos);

  // Unwritable paths report false instead of throwing (the CLIs warn and
  // keep the solve's result).
  EXPECT_FALSE(write_metrics_file("/nonexistent-dir/qs-obs/m.json"));
  EXPECT_FALSE(write_chrome_trace_file("/nonexistent-dir/qs-obs/t.json"));
}

TEST_F(ObsTest, MintedTraceIdsAreNonZeroAndDistinct) {
  // Always compiled: span-less builds still mint ids for the wire.
  const std::uint64_t a = mint_trace_id();
  const std::uint64_t b = mint_trace_id();
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(a, b);
}

TEST_F(ObsTest, SpansInheritTheThreadTraceContextAndScopesRestore) {
  if (!compiled_in()) GTEST_SKIP() << "needs a QS_ENABLE_TRACING build";
  set_enabled(true);
  {
    const TraceScope outer(TraceContext{0xAAAAu});
    { QS_TRACE_SPAN("obs_test.outer", app); }
    {
      const TraceScope inner(TraceContext{0xBBBBu});
      { QS_TRACE_SPAN("obs_test.inner", app); }
    }
    // inner destroyed: the outer context must be back in force.
    QS_TRACE_INSTANT("obs_test.restored", app, 1.0);
  }
  { QS_TRACE_SPAN("obs_test.no_context", app); }

  const auto spans = snapshot_spans();
  ASSERT_EQ(spans.size(), 4u);
  for (const SpanRecord& s : spans) {
    const std::string name = s.name;
    if (name == "obs_test.outer" || name == "obs_test.restored") {
      EXPECT_EQ(s.trace_id, 0xAAAAu) << name;
    } else if (name == "obs_test.inner") {
      EXPECT_EQ(s.trace_id, 0xBBBBu);
    } else {
      EXPECT_EQ(s.trace_id, 0u) << name;
    }
  }
}

TEST_F(ObsTest, ProcessTraceIsTheFallbackWhenTheThreadHasNone) {
  if (!compiled_in()) GTEST_SKIP() << "needs a QS_ENABLE_TRACING build";
  set_enabled(true);
  set_process_trace(TraceContext{0xCCCCu});
  EXPECT_EQ(current_trace().trace_id, 0xCCCCu);
  {
    const TraceScope scope(TraceContext{0xDDDDu});
    EXPECT_EQ(current_trace().trace_id, 0xDDDDu);  // thread wins
  }
  EXPECT_EQ(current_trace().trace_id, 0xCCCCu);
  set_process_trace(TraceContext{});
}

TEST_F(ObsTest, SpanEventRecordsExplicitTimingAndTraceId) {
  if (!compiled_in()) GTEST_SKIP() << "needs a QS_ENABLE_TRACING build";
  set_enabled(true);
  const std::uint64_t start = monotonic_ns() - 5000;
  span_event("obs_test.event", Category::app, start, 5000, 0x5151u, 9);
  const auto spans = snapshot_spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans.front().name, "obs_test.event");
  EXPECT_EQ(spans.front().start_ns, start);
  EXPECT_EQ(spans.front().dur_ns, 5000u);
  EXPECT_EQ(spans.front().trace_id, 0x5151u);
  EXPECT_EQ(spans.front().arg, 9);

  const std::string json = trace_json();
  EXPECT_NE(json.find("\"trace_id\":\"0x0000000000005151\""), std::string::npos)
      << json;
}

TEST_F(ObsTest, ImportedSpansGetRankTidsAndClearOnReset) {
  if (!compiled_in()) GTEST_SKIP() << "needs a QS_ENABLE_TRACING build";
  set_enabled(true);
  SpanRecord remote{};
  remote.name = intern_span_name("obs_test.remote");
  remote.category = Category::distributed;
  remote.tid = 2;
  remote.start_ns = 100;
  remote.dur_ns = 50;
  remote.trace_id = 0x7777u;
  import_spans({remote}, kRankTidBase + 3 * kRankTidStride);

  const auto spans = snapshot_spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans.front().tid, kRankTidBase + 3 * kRankTidStride + 2);
  // Rank tids render as rank-R tracks in the Chrome export.
  const std::string json = trace_json();
  EXPECT_NE(json.find("rank-3"), std::string::npos) << json;

  reset();
  EXPECT_TRUE(snapshot_spans().empty());
}

TEST_F(ObsTest, SpanWireRoundTripsRecordsAndNames) {
  // Always compiled: the packer works on explicit records in every build.
  SpanRecord a{};
  a.name = intern_span_name("wire.a");
  a.category = Category::solver;
  a.tid = 1;
  a.start_ns = 1000;
  a.dur_ns = 250;
  a.cpu_ns = 200;
  a.trace_id = 0xABCDEF0123456789ull;
  a.arg = -1;
  a.value = 0.5;
  SpanRecord b = a;
  b.name = intern_span_name("wire.b");
  b.instant = true;
  b.arg = 42;

  const std::vector<double> packed = pack_spans({a, b});
  std::vector<SpanRecord> out;
  ASSERT_TRUE(unpack_spans(packed, out));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_STREQ(out[0].name, "wire.a");
  EXPECT_STREQ(out[1].name, "wire.b");
  EXPECT_EQ(out[0].trace_id, 0xABCDEF0123456789ull);
  EXPECT_EQ(out[0].start_ns, 1000u);
  EXPECT_EQ(out[0].dur_ns, 250u);
  EXPECT_FALSE(out[0].instant);
  EXPECT_TRUE(out[1].instant);
  EXPECT_EQ(out[1].arg, 42);
  EXPECT_EQ(out[1].category, Category::solver);

  // Malformed buffers append nothing and report failure.
  std::vector<SpanRecord> none;
  EXPECT_FALSE(unpack_spans(std::vector<double>{99999.0}, none));
  EXPECT_TRUE(none.empty());
  std::vector<double> truncated = packed;
  truncated.resize(truncated.size() / 2);
  EXPECT_FALSE(unpack_spans(truncated, none));
  EXPECT_TRUE(none.empty());
}

TEST_F(ObsTest, SpanRingOverflowCountsEveryDroppedSpanExactly) {
  if (!compiled_in()) GTEST_SKIP() << "needs a QS_ENABLE_TRACING build";
  set_enabled(true);
  // The per-thread ring holds 1 << 15 spans; everything beyond that on one
  // thread is overwritten and must be accounted, not silently lost.
  constexpr std::uint64_t kRing = std::uint64_t{1} << 15;
  constexpr std::uint64_t kRecorded = 40000;
  for (std::uint64_t i = 0; i < kRecorded; ++i) {
    QS_TRACE_INSTANT("obs_test.flood", app, 0.0);
  }
  EXPECT_EQ(dropped_spans(), kRecorded - kRing);
  EXPECT_EQ(snapshot_spans().size(), kRing);

  // The exact count ships in the Chrome trace metadata so a truncated
  // timeline is self-explaining.
  const std::string json = trace_json();
  const std::string expected =
      "\"dropped_spans\":" + std::to_string(kRecorded - kRing);
  EXPECT_NE(json.find(expected), std::string::npos);
}

TEST_F(ObsTest, PhasesAggregateFromTheSpanRings) {
  if (!compiled_in()) {
    // Compiled-out contract: the phase table is empty but present.
    EXPECT_TRUE(metrics().snapshot().phases.empty());
    GTEST_SKIP() << "span-backed phases need a QS_ENABLE_TRACING build";
  }
  set_enabled(true);
  for (int i = 0; i < 3; ++i) {
    QS_TRACE_SPAN("obs_test.phase", kernel);
  }
  const MetricsSnapshot snap = metrics().snapshot();
  ASSERT_EQ(snap.phases.size(), 1u);
  EXPECT_EQ(snap.phases.front().name, "obs_test.phase");
  EXPECT_EQ(snap.phases.front().category, "kernel");
  EXPECT_EQ(snap.phases.front().count, 3u);
  EXPECT_GE(snap.phases.front().wall_seconds, 0.0);
}

}  // namespace
}  // namespace qs::obs
