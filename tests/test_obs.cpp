// Flight-recorder tests: trace JSON well-formedness (checked with the tiny
// JSON parser in mini_json.hpp, no external dependency), histogram bucket
// edges, the run-report schema round-trip, watchdog verdicts on synthetic
// round streams, the log-sink hook, and the determinism contract — tracing
// on vs off must be bit-identical even under a seeded fault plan. The
// recorder's wall-clock overhead bound runs serially in test_obs_overhead.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/dist_infomap.hpp"
#include "graph/builder.hpp"
#include "graph/gen/generators.hpp"
#include "mini_json.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"
#include "util/logging.hpp"

namespace dc = dinfomap::core;
namespace dg = dinfomap::graph;
namespace du = dinfomap::util;
namespace obs = dinfomap::obs;
namespace gen = dinfomap::graph::gen;

namespace {

using mini_json::JsonValue;
using mini_json::parse_json;

dg::Csr small_graph(std::uint64_t seed) {
  const auto gg = gen::sbm(300, 10, 0.2, 0.01, seed);
  return dg::build_csr(gg.edges, gg.num_vertices);
}

}  // namespace

// --- JSON parser sanity -----------------------------------------------------

TEST(MiniJson, AcceptsValidRejectsBroken) {
  auto v = parse_json(R"({"a": [1, 2.5, "x\"y", true, null], "b": {}})");
  ASSERT_TRUE(v.has_value());
  ASSERT_TRUE(v->is(JsonValue::Type::kObject));
  const JsonValue* a = v->get("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array.size(), 5u);
  EXPECT_DOUBLE_EQ(a->array[1].number, 2.5);
  EXPECT_EQ(a->array[2].str, "x\"y");
  EXPECT_FALSE(parse_json("{\"a\": }").has_value());
  EXPECT_FALSE(parse_json("[1, 2").has_value());
  EXPECT_FALSE(parse_json("{} trailing").has_value());
}

// --- histogram --------------------------------------------------------------

TEST(Histogram, BucketEdges) {
  using H = obs::Histogram;
  EXPECT_EQ(H::bucket_of(0), 0);
  EXPECT_EQ(H::bucket_of(1), 1);
  EXPECT_EQ(H::bucket_of(2), 2);
  EXPECT_EQ(H::bucket_of(3), 2);
  EXPECT_EQ(H::bucket_of(4), 3);
  EXPECT_EQ(H::bucket_of(255), 8);
  EXPECT_EQ(H::bucket_of(256), 9);
  EXPECT_EQ(H::bucket_of(~std::uint64_t{0}), 64);
  // Edges are consistent: both edges of every bucket map back into it, and
  // consecutive buckets tile the range without gap or overlap.
  for (int b = 0; b < H::kNumBuckets; ++b) {
    EXPECT_EQ(H::bucket_of(H::bucket_low(b)), b) << "b=" << b;
    EXPECT_EQ(H::bucket_of(H::bucket_high(b)), b) << "b=" << b;
    if (b >= 2) {
      EXPECT_EQ(H::bucket_low(b), H::bucket_high(b - 1) + 1) << "b=" << b;
    }
  }
}

TEST(Histogram, ObserveAccumulates) {
  obs::Histogram h;
  h.observe(0);
  h.observe(1);
  h.observe(7);
  h.observe(7);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 15u);
  EXPECT_EQ(h.max(), 7u);
  EXPECT_DOUBLE_EQ(h.mean(), 3.75);
  EXPECT_EQ(h.buckets()[0], 1u);
  EXPECT_EQ(h.buckets()[1], 1u);
  EXPECT_EQ(h.buckets()[3], 2u);  // 7 has bit width 3
}

TEST(Histogram, QuantilesInterpolateWithinBuckets) {
  obs::Histogram h;
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);  // empty
  // 100 zeros: every quantile is exactly 0 (bucket 0 holds one value).
  for (int i = 0; i < 100; ++i) h.observe(0);
  EXPECT_DOUBLE_EQ(h.p50(), 0.0);
  EXPECT_DOUBLE_EQ(h.p99(), 0.0);
  // Add 100 samples of value 1000 (bucket [512, 1023]): the median sits at
  // the zeros/thousands boundary, p90 and p99 inside the upper bucket.
  for (int i = 0; i < 100; ++i) h.observe(1000);
  EXPECT_DOUBLE_EQ(h.p50(), 0.0);  // 100th of 200 samples is still a zero
  EXPECT_GE(h.p90(), 512.0);
  EXPECT_LE(h.p90(), 1000.0);  // clamped to the observed max, not bucket_high
  EXPECT_GE(h.p99(), h.p90());
  EXPECT_LE(h.p99(), 1000.0);
  // Quantiles are monotone in q and clamp out-of-range q.
  EXPECT_LE(h.quantile(0.25), h.quantile(0.75));
  EXPECT_DOUBLE_EQ(h.quantile(-1.0), h.quantile(0.0));
  EXPECT_DOUBLE_EQ(h.quantile(2.0), h.quantile(1.0));
  // Single-sample histogram: every quantile is that sample.
  obs::Histogram one;
  one.observe(42);
  EXPECT_DOUBLE_EQ(one.p50(), 42.0);
  EXPECT_DOUBLE_EQ(one.p99(), 42.0);
}

// --- metrics registry -------------------------------------------------------

TEST(Metrics, RegistryAbsorbsAndSerializes) {
  obs::MetricsRegistry reg;
  reg.counter("z.last").inc(3);
  reg.counter("a.first").inc();
  reg.gauge("table.size").set(42.0);
  reg.histogram("msg").observe(100);

  dinfomap::comm::CommCounters cc;
  cc.p2p_messages = 7;
  cc.p2p_bytes = 512;
  reg.absorb(cc, "comm");
  dinfomap::perf::WorkCounters wc;
  wc.arcs_scanned = 99;
  reg.absorb(wc, "work");

  const auto doc = parse_json(reg.to_json());
  ASSERT_TRUE(doc.has_value()) << reg.to_json();
  const JsonValue* counters = doc->get("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_DOUBLE_EQ(counters->get("comm.p2p_messages")->number, 7);
  EXPECT_DOUBLE_EQ(counters->get("comm.p2p_bytes")->number, 512);
  EXPECT_DOUBLE_EQ(counters->get("work.arcs_scanned")->number, 99);
  EXPECT_DOUBLE_EQ(counters->get("a.first")->number, 1);
  EXPECT_DOUBLE_EQ(doc->get("gauges")->get("table.size")->number, 42.0);
  const JsonValue* hist = doc->get("histograms")->get("msg");
  ASSERT_NE(hist, nullptr);
  EXPECT_DOUBLE_EQ(hist->get("count")->number, 1);
  EXPECT_DOUBLE_EQ(hist->get("sum")->number, 100);
  // Sorted emission: "a.first" precedes "z.last" in the raw text.
  const std::string raw = reg.to_json();
  EXPECT_LT(raw.find("a.first"), raw.find("z.last"));
  // Histograms carry the percentile accessors into the dump.
  const JsonValue* msg = doc->get("histograms")->get("msg");
  EXPECT_DOUBLE_EQ(msg->get("p50")->number, 100.0);
  EXPECT_DOUBLE_EQ(msg->get("p99")->number, 100.0);
}

TEST(Metrics, JsonExportIsByteStableAcrossInsertionOrder) {
  // Same metrics registered in opposite orders must serialize to the same
  // bytes — the artifact diffs in CI depend on it.
  obs::MetricsRegistry a;
  a.counter("alpha").inc(1);
  a.counter("beta").inc(2);
  a.gauge("g1").set(1.5);
  a.histogram("h").observe(9);
  obs::MetricsRegistry b;
  b.histogram("h").observe(9);
  b.gauge("g1").set(1.5);
  b.counter("beta").inc(2);
  b.counter("alpha").inc(1);
  EXPECT_EQ(a.to_json(), b.to_json());
  // And repeated serialization of the same registry is identical.
  EXPECT_EQ(a.to_json(), a.to_json());
}

// --- watchdog ---------------------------------------------------------------

namespace {
obs::RoundSample sample(int level, int round, double L, std::uint64_t work) {
  obs::RoundSample s;
  s.level = level;
  s.round = round;
  s.codelength = L;
  s.moves = 1;
  s.rank_work = work;
  return s;
}
}  // namespace

TEST(Watchdog, CleanStreamsProduceNoAnomalies) {
  std::vector<std::vector<obs::RoundSample>> streams(2);
  for (int r = 0; r < 2; ++r)
    for (int i = 0; i < 4; ++i)
      streams[static_cast<std::size_t>(r)].push_back(
          sample(0, i, 5.0 - i * 0.1, 2000));
  EXPECT_TRUE(obs::analyze_rounds(streams, {}).empty());
}

TEST(Watchdog, FlagsMdlRegression) {
  std::vector<std::vector<obs::RoundSample>> streams(1);
  streams[0] = {sample(0, 0, 5.0, 0), sample(0, 1, 4.0, 0),
                sample(1, 2, 4.5, 0)};
  const auto anomalies = obs::analyze_rounds(streams, {});
  ASSERT_EQ(anomalies.size(), 1u);
  EXPECT_EQ(anomalies[0].kind, "mdl_regression");
  EXPECT_EQ(anomalies[0].rank, -1);
  EXPECT_EQ(anomalies[0].level, 1);
  EXPECT_EQ(anomalies[0].round, 2);
}

TEST(Watchdog, ToleratesRegressionWithinTolerance) {
  std::vector<std::vector<obs::RoundSample>> streams(1);
  streams[0] = {sample(0, 0, 5.0, 0), sample(0, 1, 5.0 + 1e-9, 0)};
  EXPECT_TRUE(obs::analyze_rounds(streams, {}).empty());
}

TEST(Watchdog, FlagsWorkSkewAboveThreshold) {
  std::vector<std::vector<obs::RoundSample>> streams(4);
  const std::uint64_t works[4] = {10000, 0, 0, 0};
  for (int r = 0; r < 4; ++r)
    streams[static_cast<std::size_t>(r)].push_back(sample(0, 0, 3.0, works[r]));
  obs::WatchdogOptions opt;
  opt.skew_threshold = 2.0;
  const auto anomalies = obs::analyze_rounds(streams, opt);
  ASSERT_EQ(anomalies.size(), 1u);
  EXPECT_EQ(anomalies[0].kind, "work_skew");
  EXPECT_EQ(anomalies[0].rank, 0);
}

TEST(Watchdog, SkipsSkewOnTinyRounds) {
  std::vector<std::vector<obs::RoundSample>> streams(4);
  const std::uint64_t works[4] = {100, 0, 0, 0};  // mean far below min_skew_work
  for (int r = 0; r < 4; ++r)
    streams[static_cast<std::size_t>(r)].push_back(sample(0, 0, 3.0, works[r]));
  obs::WatchdogOptions opt;
  opt.skew_threshold = 2.0;
  EXPECT_TRUE(obs::analyze_rounds(streams, opt).empty());
}

TEST(Watchdog, FlagsRaggedStreams) {
  std::vector<std::vector<obs::RoundSample>> streams(2);
  streams[0] = {sample(0, 0, 5.0, 0), sample(0, 1, 4.9, 0)};
  streams[1] = {sample(0, 0, 5.0, 0)};
  const auto anomalies = obs::analyze_rounds(streams, {});
  ASSERT_EQ(anomalies.size(), 1u);
  EXPECT_EQ(anomalies[0].kind, "ragged_round_stream");
  EXPECT_EQ(anomalies[0].rank, 1);
}

// --- recorder ---------------------------------------------------------------

TEST(Recorder, DisabledRecorderIsInert) {
  obs::ObsOptions opt;  // enabled = false
  obs::Recorder rec(4, opt);
  EXPECT_EQ(rec.track(0), nullptr);
  EXPECT_EQ(rec.metrics(0), nullptr);
  rec.record_round(0, sample(0, 0, 1.0, 0));  // no-op
  EXPECT_TRUE(rec.round_streams()[0].empty());
  rec.finish_watchdog();
  EXPECT_TRUE(rec.anomalies().empty());
  // SpanScope on a null buffer is a no-op, not a crash.
  { obs::SpanScope span(rec.track(0), "nothing"); }
}

TEST(Recorder, EnabledWithoutTraceStillHasMetrics) {
  obs::ObsOptions opt;
  opt.enabled = true;
  opt.trace = false;
  obs::Recorder rec(2, opt);
  EXPECT_EQ(rec.track(0), nullptr);
  ASSERT_NE(rec.metrics(1), nullptr);
  rec.metrics(1)->counter("x").inc();
  EXPECT_EQ(rec.all_metrics()[1].counters().at("x").value, 1u);
}

TEST(Recorder, InlineAnomaliesPrecedeWatchdogFindings) {
  obs::ObsOptions opt;
  opt.enabled = true;
  obs::Recorder rec(2, opt);
  obs::Anomaly inline_a;
  inline_a.rank = 1;
  inline_a.kind = "cache_thrash";
  rec.report_anomaly(1, inline_a);
  rec.record_round(0, sample(0, 0, 5.0, 0));
  rec.record_round(0, sample(0, 1, 6.0, 0));  // regression
  rec.record_round(1, sample(0, 0, 5.0, 0));
  rec.record_round(1, sample(0, 1, 6.0, 0));
  rec.finish_watchdog();
  const auto all = rec.anomalies();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].kind, "cache_thrash");
  EXPECT_EQ(all[1].kind, "mdl_regression");
}

// --- trace export -----------------------------------------------------------

TEST(Trace, SpanScopeRecordsBalancedPairsAndDisabledRecordsNothing) {
  obs::Trace on(1, /*enabled=*/true);
  {
    obs::SpanScope outer(&on.track(0), "outer");
    obs::SpanScope inner(&on.track(0), "inner");
    on.track(0).instant("marker");
    on.track(0).counter("value", 3.5);
  }
  const auto& ev = on.track(0).events();
  ASSERT_EQ(ev.size(), 6u);
  EXPECT_EQ(ev[0].kind, obs::TraceEvent::Kind::kBegin);
  EXPECT_STREQ(ev[5].name, "outer");
  EXPECT_EQ(ev[5].kind, obs::TraceEvent::Kind::kEnd);

  obs::Trace off(1, /*enabled=*/false);
  { obs::SpanScope span(&off.track(0), "dead"); }
  EXPECT_TRUE(off.track(0).events().empty());
}

TEST(Trace, PipelineTraceIsWellFormedChromeJson) {
  const auto g = small_graph(7);
  const int p = 4;
  dc::DistInfomapConfig cfg;
  cfg.num_ranks = p;
  cfg.obs.enabled = true;
  const auto result = dc::distributed_infomap(g, cfg);
  (void)result;

  // Re-run through the public path with a trace file to exercise write().
  const std::string path = testing::TempDir() + "/dinfomap_trace.json";
  cfg.obs.trace_path = path;
  (void)dc::distributed_infomap(g, cfg);

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "trace file not written: " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const auto doc = parse_json(buffer.str());
  ASSERT_TRUE(doc.has_value()) << "trace is not valid JSON";
  const JsonValue* events = doc->get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is(JsonValue::Type::kArray));

  // One thread_name metadata record per rank; spans balance per track; all
  // four paper phases appear.
  std::map<int, int> named_tracks;
  std::map<int, std::vector<std::string>> open_spans;
  std::map<std::string, int> begin_names;
  for (const JsonValue& e : events->array) {
    ASSERT_TRUE(e.is(JsonValue::Type::kObject));
    const std::string ph = e.get("ph")->str;
    const int tid = static_cast<int>(e.get("tid")->number);
    const std::string name = e.get("name")->str;
    if (ph == "M") {
      EXPECT_EQ(name, "thread_name");
      ++named_tracks[tid];
    } else if (ph == "B") {
      open_spans[tid].push_back(name);
      ++begin_names[name];
    } else if (ph == "E") {
      ASSERT_FALSE(open_spans[tid].empty())
          << "E without matching B on tid " << tid;
      EXPECT_EQ(open_spans[tid].back(), name);
      open_spans[tid].pop_back();
    } else if (ph == "s" || ph == "f") {
      // Flow events (message arrows): both ends carry the shared id and the
      // "msg" category; the finish half binds to its enclosing slice.
      EXPECT_EQ(name, "msg");
      ASSERT_NE(e.get("id"), nullptr);
      ASSERT_NE(e.get("cat"), nullptr);
      EXPECT_EQ(e.get("cat")->str, "msg");
      if (ph == "f") {
        EXPECT_EQ(e.get("bp")->str, "e");
      }
    } else {
      EXPECT_TRUE(ph == "i" || ph == "C") << "unexpected ph " << ph;
    }
  }
  EXPECT_EQ(named_tracks.size(), static_cast<std::size_t>(p));
  for (const auto& [tid, stack] : open_spans)
    EXPECT_TRUE(stack.empty()) << "unclosed span on tid " << tid;
  for (const char* phase : dc::kPhaseNames)
    EXPECT_GT(begin_names[phase], 0) << "phase " << phase << " never traced";
  EXPECT_GT(begin_names["MergeLevel"], 0);
  EXPECT_GT(begin_names["Setup"], 0);
}

// --- run report -------------------------------------------------------------

TEST(RunReport, SchemaRoundTripIsExact) {
  obs::RunReport rep;
  rep.add_config("num_ranks", 4);
  rep.add_config("theta", 1e-10);
  rep.add_config("min_label", true);
  rep.add_config("note", "quote\"and\\slash");
  rep.graph_vertices = 300;
  rep.graph_edges = 1234;
  rep.num_ranks = 4;
  rep.codelength = 0.1 + 0.2;  // awkward double: round-trip must be bitwise
  rep.singleton_codelength = 8.25;
  rep.num_modules = 11;
  obs::RunReport::LevelRow lr;
  lr.level = 0;
  lr.vertices = 300;
  lr.rounds = 5;
  lr.moves = 250;
  lr.codelength_before = 8.25;
  lr.codelength_after = rep.codelength;
  lr.num_modules = 11;
  rep.levels.push_back(lr);
  rep.round_codelengths = {8.0, 7.5, rep.codelength};
  rep.stage1_rounds = 5;
  rep.phases.push_back({"FindBestModule",
                        std::vector<dinfomap::perf::WorkCounters>(4),
                        std::vector<double>(4, 0.125)});
  rep.stage_work[0].resize(4);
  rep.stage_work[1].resize(4);
  rep.comm.resize(4);
  rep.metrics_json.push_back("{\"counters\": {}}");
  obs::Anomaly a;
  a.rank = 2;
  a.level = 1;
  a.round = 3;
  a.kind = "work_skew";
  a.detail = "rank 2 did \"everything\"";
  rep.anomalies.push_back(a);

  const auto doc = parse_json(rep.to_json());
  ASSERT_TRUE(doc.has_value()) << rep.to_json();
  EXPECT_EQ(doc->get("schema")->str, obs::kRunReportSchema);
  EXPECT_EQ(doc->get("algorithm")->str, "distributed_infomap");
  EXPECT_DOUBLE_EQ(doc->get("config")->get("num_ranks")->number, 4);
  EXPECT_EQ(doc->get("config")->get("min_label")->boolean, true);
  EXPECT_EQ(doc->get("config")->get("note")->str, "quote\"and\\slash");
  // precision-17 serialization: the parsed double is bit-identical.
  EXPECT_EQ(doc->get("codelength")->number, rep.codelength);
  EXPECT_EQ(doc->get("round_codelengths")->array[2].number, rep.codelength);
  EXPECT_DOUBLE_EQ(doc->get("graph")->get("edges")->number, 1234);
  ASSERT_EQ(doc->get("levels")->array.size(), 1u);
  EXPECT_DOUBLE_EQ(doc->get("levels")->array[0].get("moves")->number, 250);
  ASSERT_EQ(doc->get("phases")->array.size(), 1u);
  EXPECT_EQ(doc->get("phases")->array[0].get("name")->str, "FindBestModule");
  EXPECT_EQ(doc->get("phases")->array[0].get("work")->array.size(), 4u);
  ASSERT_EQ(doc->get("anomalies")->array.size(), 1u);
  EXPECT_EQ(doc->get("anomalies")->array[0].get("kind")->str, "work_skew");
  EXPECT_EQ(doc->get("anomalies")->array[0].get("detail")->str,
            "rank 2 did \"everything\"");
}

TEST(RunReport, FilledByDistributedRun) {
  const auto g = small_graph(3);
  const int p = 4;
  dc::DistInfomapConfig cfg;
  cfg.num_ranks = p;
  cfg.obs.enabled = true;
  const auto result = dc::distributed_infomap(g, cfg);
  const obs::RunReport& rep = result.report;
  EXPECT_EQ(rep.schema, obs::kRunReportSchema);
  EXPECT_EQ(rep.num_ranks, p);
  EXPECT_EQ(rep.graph_vertices, g.num_vertices());
  EXPECT_EQ(rep.codelength, result.codelength);
  ASSERT_EQ(rep.phases.size(), static_cast<std::size_t>(dc::kNumPhases));
  for (const auto& ph : rep.phases) {
    EXPECT_EQ(ph.work.size(), static_cast<std::size_t>(p));
    EXPECT_EQ(ph.seconds.size(), static_cast<std::size_t>(p));
  }
  EXPECT_EQ(rep.comm.size(), static_cast<std::size_t>(p));
  EXPECT_EQ(rep.metrics_json.size(), static_cast<std::size_t>(p));
  EXPECT_FALSE(rep.levels.empty());
  EXPECT_EQ(rep.round_codelengths.size(),
            static_cast<std::size_t>(rep.stage1_rounds));
  // Each rank's metrics dump is itself valid JSON with the comm histogram.
  for (const auto& mj : rep.metrics_json) {
    const auto doc = parse_json(mj);
    ASSERT_TRUE(doc.has_value()) << mj;
    EXPECT_NE(doc->get("histograms")->get("comm.msg_bytes"), nullptr);
    EXPECT_NE(doc->get("counters")->get("comm.p2p_messages"), nullptr);
    EXPECT_NE(doc->get("counters")->get("comm.packed_exchanges"), nullptr);
  }
  // The stop rules are constants now; the config echo keeps their keys and
  // values, so the report schema is unchanged.
  const auto config_value = [&](const std::string& key) {
    for (const auto& [k, v] : rep.config)
      if (k == key) return std::stod(v);
    ADD_FAILURE() << "config key missing: " << key;
    return -1.0;
  };
  EXPECT_EQ(config_value("theta"), dc::kTheta);
  EXPECT_EQ(config_value("max_levels"), dc::kMaxLevels);
  EXPECT_EQ(config_value("max_rounds"), dc::kMaxRounds);
  EXPECT_EQ(config_value("round_theta"), dc::kRoundTheta);
  EXPECT_EQ(config_value("min_rounds"), dc::kMinRounds);
  EXPECT_EQ(config_value("move_epsilon"), dc::kMoveEpsilon);
  EXPECT_EQ(config_value("sub_rounds"), dc::kSubRounds);
  // Every level row names the rule that stopped its rounds, and the stage-2
  // summary the rule that ended stage 2; both reach the JSON document.
  const auto is_one_of = [](const std::string& v, const auto& names) {
    return std::find(names.begin(), names.end(), v) != names.end();
  };
  ASSERT_EQ(result.level_stops.size(), rep.levels.size());
  for (const auto& row : rep.levels)
    EXPECT_TRUE(is_one_of(row.stop, dc::kLevelStopNames)) << row.stop;
  EXPECT_TRUE(is_one_of(rep.stage2_ended_by, dc::kStage2EndNames))
      << rep.stage2_ended_by;
  if (rep.stage2_ended_by == "merged_nothing") {
    EXPECT_EQ(rep.levels.back().num_modules, rep.levels.back().vertices);
  }
  if (rep.stage2_ended_by == "max_levels") {
    EXPECT_EQ(rep.stage2_levels, dc::kMaxLevels);
  }
  {
    const auto doc = parse_json(rep.to_json());
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->get("stage2")->get("ended_by")->str, rep.stage2_ended_by);
    const auto& rows = doc->get("levels")->array;
    ASSERT_EQ(rows.size(), rep.levels.size());
    for (std::size_t i = 0; i < rows.size(); ++i)
      EXPECT_EQ(rows[i].get("stop")->str, rep.levels[i].stop) << "level " << i;
  }
  // Rank 0 counts the result gather: at least one 4-byte map entry per
  // vertex of every level.
  {
    const auto doc = parse_json(rep.metrics_json.at(0));
    ASSERT_TRUE(doc.has_value());
    const JsonValue* gathered = doc->get("counters")->get("result.gather_bytes");
    ASSERT_NE(gathered, nullptr);
    std::uint64_t level_vertices = 0;
    for (const auto& row : rep.levels) level_vertices += row.vertices;
    EXPECT_GE(gathered->number, 4.0 * static_cast<double>(level_vertices));
  }
  // Conflicting synchronous moves can overshoot L by a hair, so a real run
  // may legitimately trip the MDL watchdog — and a test-scale run is all
  // startup collectives, so the profile rules (wait_dominated,
  // straggler_skew) can fire too; anything else would be a bug.
  for (const auto& a : rep.anomalies)
    EXPECT_TRUE(a.kind == "mdl_regression" || a.kind == "wait_dominated" ||
                a.kind == "straggler_skew")
        << a.kind;

  // Disabled recorder still yields the structural sections (no metrics).
  cfg.obs.enabled = false;
  const auto off = dc::distributed_infomap(g, cfg);
  EXPECT_EQ(off.report.schema, obs::kRunReportSchema);
  ASSERT_EQ(off.report.phases.size(), static_cast<std::size_t>(dc::kNumPhases));
  EXPECT_TRUE(off.report.metrics_json.empty());
}

// --- log sink ----------------------------------------------------------------

TEST(Logging, SinkCapturesLevelAndThreadRank) {
  struct Line {
    du::LogLevel level;
    std::string message;
    int rank;
  };
  std::vector<Line> captured;
  du::set_log_sink([&](du::LogLevel level, const std::string& message) {
    captured.push_back({level, message, du::thread_rank()});
  });
  {
    du::ScopedThreadRank tag(3);
    LOG_WARN << "boundary swap fell behind";
  }
  LOG_ERROR << "driver failed";
  du::set_log_sink(nullptr);
  LOG_WARN << "back on stderr";  // must not reach the removed sink

  ASSERT_EQ(captured.size(), 2u);
  EXPECT_EQ(captured[0].level, du::LogLevel::kWarn);
  EXPECT_EQ(captured[0].message, "boundary swap fell behind");
  EXPECT_EQ(captured[0].rank, 3);
  EXPECT_EQ(captured[1].level, du::LogLevel::kError);
  EXPECT_EQ(captured[1].rank, -1);
}

TEST(Logging, WatchdogWarningsReachTheSink) {
  std::vector<std::string> warnings;
  du::set_log_sink([&](du::LogLevel level, const std::string& message) {
    if (level == du::LogLevel::kWarn) warnings.push_back(message);
  });
  obs::ObsOptions opt;
  opt.enabled = true;
  obs::Recorder rec(1, opt);
  rec.record_round(0, sample(0, 0, 5.0, 0));
  rec.record_round(0, sample(0, 1, 6.0, 0));
  rec.finish_watchdog();
  du::set_log_sink(nullptr);
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings[0].find("mdl_regression"), std::string::npos);
}

// --- determinism: observability must not perturb results --------------------

TEST(ObsDeterminism, TracingOnOffBitIdenticalUnderChaos) {
  const auto gg = gen::lfr_lite({}, 29);
  const auto g = dg::build_csr(gg.edges, gg.num_vertices);
  for (int p : {4, 5}) {
    dc::DistInfomapConfig cfg;
    cfg.num_ranks = p;
    cfg.faults.reorder = 0.05;
    cfg.faults.duplicate = 0.02;
    cfg.faults.seed = 40;
    cfg.obs.enabled = false;
    const auto off = dc::distributed_infomap(g, cfg);
    cfg.obs.enabled = true;
    cfg.faults.seed = 90;  // different delivery AND tracing: same answer
    const auto on = dc::distributed_infomap(g, cfg);
    EXPECT_EQ(off.assignment, on.assignment) << "p=" << p;
    EXPECT_DOUBLE_EQ(off.codelength, on.codelength) << "p=" << p;
    EXPECT_EQ(off.stage1_rounds, on.stage1_rounds) << "p=" << p;
    for (const auto* run : {&off, &on}) {
      dinfomap::comm::FaultCounters injected;
      for (const auto& f : run->report.faults_injected) injected += f;
      EXPECT_GT(injected.total(), 0u) << "p=" << p;
    }
  }
}
