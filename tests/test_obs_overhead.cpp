// Flight-recorder pipeline smoke: the trace and report files are valid JSON,
// and recording costs at most 5% (+50 ms) of the wall time of an unrecorded
// run. The bound is wall-clock, so this executable runs serially (RUN_SERIAL
// in tests/CMakeLists.txt): tests running beside it would skew the timings.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>

#include "core/dist_infomap.hpp"
#include "graph/builder.hpp"
#include "graph/gen/generators.hpp"
#include "mini_json.hpp"
#include "util/timer.hpp"

namespace dc = dinfomap::core;
namespace dg = dinfomap::graph;
namespace du = dinfomap::util;
namespace gen = dinfomap::graph::gen;

using mini_json::parse_json;

TEST(ObsPipeline, TraceAndReportFilesValidAndOverheadBounded) {
  const auto gg = gen::lfr_lite({}, 17);
  const auto g = dg::build_csr(gg.edges, gg.num_vertices);
  dc::DistInfomapConfig cfg;
  cfg.num_ranks = 4;

  // Timing is noisy at test scale: take the min of repeated runs and allow an
  // absolute epsilon on top of the 5% ratio. The structural claim — disabled
  // sites are a null-pointer test, enabled recording is a vector append —
  // is what keeps the real overhead low; this guards against regressions
  // that would make tracing grossly expensive.
  constexpr int kRepeats = 3;
  double off_min = 1e100;
  for (int i = 0; i < kRepeats; ++i) {
    du::Timer t;
    (void)dc::distributed_infomap(g, cfg);
    off_min = std::min(off_min, t.seconds());
  }

  const std::string trace_path = testing::TempDir() + "/obs_pipeline_trace.json";
  const std::string report_path =
      testing::TempDir() + "/obs_pipeline_report.json";
  cfg.obs.enabled = true;
  cfg.obs.trace_path = trace_path;
  cfg.obs.report_path = report_path;
  double on_min = 1e100;
  for (int i = 0; i < kRepeats; ++i) {
    du::Timer t;
    (void)dc::distributed_infomap(g, cfg);
    on_min = std::min(on_min, t.seconds());
  }
  EXPECT_LT(on_min, off_min * 1.05 + 0.05)
      << "tracing overhead too high: off=" << off_min << "s on=" << on_min
      << "s";

  for (const std::string& path : {trace_path, report_path}) {
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << path << " not written";
    std::stringstream buffer;
    buffer << in.rdbuf();
    const auto doc = parse_json(buffer.str());
    ASSERT_TRUE(doc.has_value()) << path << " is not valid JSON";
  }
}
