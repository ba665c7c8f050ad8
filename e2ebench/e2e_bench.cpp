// End-to-end benchmark program: edge list on disk → partition on disk.
//
//   e2e_bench gen <rmat|lfr> <full|toy> <seed> <dir>
//       Generate a graph from <seed>; write <dir>/edges.txt and the reference
//       partition <dir>/truth.clu.
//
//   e2e_bench run <input-dir> <work-dir> <ranks> <sync|async>
//                 <resident|blocks> <seconds> <trace 0|1> [--perturb]
//       One untimed warm-up, then the full pipeline in a closed loop (one job
//       at a time) for <seconds>: read → build → (pack + open) → delegate
//       partition → distributed_infomap → write clustering. With trace 1, one
//       more run follows with the flight recorder on, writing
//       <work-dir>/trace.json and <work-dir>/profile.json. Prints one JSON
//       document on stdout.
//
// Every layer is timed from outside, around this file's calls into each
// module's public functions; the solver's own phase timers and counters come
// from the DistInfomapResult it returns. --perturb changes one vertex's module
// after the solve, which the output check must report as a failure (the
// self-test of the check).
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/dist_infomap.hpp"
#include "core/flowgraph.hpp"
#include "core/seq_infomap.hpp"
#include "graph/blockgraph/blockgraph.hpp"
#include "graph/blockgraph/writer.hpp"
#include "graph/builder.hpp"
#include "graph/edgelist_io.hpp"
#include "graph/gen/generators.hpp"
#include "graph/graph_view.hpp"
#include "io/clustering_io.hpp"
#include "partition/arc_partition.hpp"
#include "partition/metrics.hpp"
#include "perf/cost_model.hpp"
#include "quality/metrics.hpp"

namespace {

using namespace dinfomap;
namespace bgx = graph::blockgraph;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

// ---- JSON output ----------------------------------------------------------

/// Minimal JSON object writer; numbers keep all 17 significant digits.
class Json {
 public:
  Json& num(const std::string& key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return raw(key, buf);
  }
  Json& num(const std::string& key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  Json& str(const std::string& key, const std::string& v) {
    std::string q = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') q += '\\';
      q += (c == '\n' ? ' ' : c);
    }
    return raw(key, q + "\"");
  }
  Json& obj(const std::string& key, const Json& v) { return raw(key, v.text()); }
  Json& arr(const std::string& key, const std::vector<Json>& items) {
    std::string s = "[";
    for (std::size_t i = 0; i < items.size(); ++i)
      s += (i ? ", " : "") + items[i].text();
    return raw(key, s + "]");
  }
  [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }

 private:
  Json& raw(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + key + "\": " + value;
    return *this;
  }
  std::string body_;
};

// ---- generation -----------------------------------------------------------

int cmd_gen(const std::string& family, const std::string& size,
            std::uint64_t seed, const std::string& dir) {
  const bool toy = size == "toy";
  if (!toy && size != "full") throw std::invalid_argument("size: full|toy");
  graph::gen::GeneratedGraph g;
  if (family == "rmat") {
    // Web-crawl stand-in with the uk2005 R-MAT corners.
    g = graph::gen::rmat(toy ? 10 : 17, toy ? 8 : 12, 0.57, 0.19, 0.19, seed);
  } else if (family == "lfr") {
    graph::gen::LfrLiteParams p;
    p.n = toy ? 2000 : 100000;
    p.mixing = 0.3;
    p.min_degree = 4;
    p.max_degree = toy ? 50 : 400;
    p.min_community = 16;
    p.max_community = toy ? 100 : 400;
    g = graph::gen::lfr_lite(p, seed);
  } else {
    throw std::invalid_argument("graph family: rmat|lfr");
  }
  std::filesystem::create_directories(dir);
  graph::write_edge_list(dir + "/edges.txt", g.edges);
  // R-MAT plants no communities; its reference is sequential Infomap's
  // partition of the same graph as the pipeline builds it, the quality
  // baseline the paper compares the distributed algorithm against.
  const char* truth = "planted";
  if (!g.ground_truth) {
    g.ground_truth = core::sequential_infomap(graph::build_csr(g.edges)).assignment;
    truth = "sequential_infomap";
  }
  io::write_clustering(dir + "/truth.clu", *g.ground_truth);
  std::printf("%s\n", Json()
                          .num("vertices", std::uint64_t{g.num_vertices})
                          .num("edge_records", std::uint64_t{g.edges.size()})
                          .str("truth", truth)
                          .text()
                          .c_str());
  return 0;
}

// ---- one pipeline run -----------------------------------------------------

struct Setting {
  std::string input_dir;
  std::string work_dir;
  int ranks = 4;
  bool async = false;
  bool blocks = false;
  bool perturb = false;
};

/// Resident-set high-water mark of one run: the kernel's VmHWM counter is
/// reset before the run (after returning freed heap to the system) and read
/// after it. Falls back to the process-wide ru_maxrss where the reset is not
/// permitted.
class PeakRss {
 public:
  void reset() {
    ::malloc_trim(0);
    std::ofstream f("/proc/self/clear_refs");
    f << "5";
    f.flush();
    resettable_ = static_cast<bool>(f);
  }
  [[nodiscard]] double mb() const {
    if (resettable_) {
      std::ifstream s("/proc/self/status");
      std::string line;
      while (std::getline(s, line))
        if (line.rfind("VmHWM:", 0) == 0)
          return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
  }
  [[nodiscard]] bool resettable() const { return resettable_; }

 private:
  bool resettable_ = false;
};

struct Run {
  // The benchmark's own spans; they tile `wall` back to back.
  double read = 0, build = 0, pack = 0, delegate = 0, solve = 0, write = 0;
  double wall = 0;
  double peak_rss_mb = 0;
  std::uint64_t vertices = 0, edges = 0;
  std::vector<std::uint64_t> arcs_per_rank, ghosts_per_rank;
  bgx::BlockGraphStats block_stats;
  core::DistInfomapResult result;
};

Run run_pipeline(const Setting& s, bool traced, PeakRss& rss) {
  rss.reset();
  Run run;
  const auto t0 = Clock::now();
  graph::EdgeList edges = graph::read_edge_list(s.input_dir + "/edges.txt");
  run.read = since(t0);

  auto t = Clock::now();
  graph::Csr csr = graph::build_csr(edges);
  graph::EdgeList().swap(edges);
  run.build = since(t);

  t = Clock::now();
  std::optional<bgx::BlockGraph> blocks;
  if (s.blocks) {
    const std::string path = s.work_dir + "/graph.blockgraph";
    const bgx::WriteSummary sum = bgx::write_block_file(path, csr);
    bgx::BlockGraph::Options opts;
    opts.cache_bytes = std::max<std::size_t>(sum.payload_bytes / 4, 1);
    blocks.emplace(bgx::BlockGraph::open(path, opts));
    csr = graph::Csr{};  // out of core from here on, as in a blocks-mode run
  }
  run.pack = since(t);

  const graph::GraphView gv =
      blocks ? graph::GraphView(*blocks) : graph::GraphView(csr);
  run.vertices = gv.num_vertices();
  run.edges = gv.num_edges();
  core::DistInfomapConfig cfg;
  cfg.num_ranks = s.ranks;
  cfg.threads_per_rank = 1;
  cfg.async = s.async;
  if (traced) {
    cfg.obs.enabled = true;
    cfg.obs.trace_path = s.work_dir + "/trace.json";
    cfg.obs.profile_path = s.work_dir + "/profile.json";
  }

  t = Clock::now();
  const partition::ArcPartition part = partition::make_delegate(
      gv, s.ranks, core::resolve_degree_threshold(gv, cfg));
  run.delegate = since(t);

  t = Clock::now();
  run.result = core::distributed_infomap(gv, part, cfg);
  run.solve = since(t);
  if (s.perturb) {
    graph::Partition& a = run.result.assignment;
    const graph::VertexId k = run.result.num_modules();
    a[0] = k > 1 ? (a[0] + 1) % k : 1;
  }

  t = Clock::now();
  io::write_clustering(s.work_dir + "/out.clu", run.result.assignment);
  run.write = since(t);
  run.wall = since(t0);
  run.peak_rss_mb = rss.mb();

  // Untimed: layer facts read after the clock stops.
  run.arcs_per_rank = partition::arcs_per_rank(part);
  run.ghosts_per_rank = partition::ghosts_per_rank(part);
  if (blocks) run.block_stats = blocks->stats();
  return run;
}

// ---- output check ---------------------------------------------------------

/// The first run that passes the from-scratch check; every later run must
/// reproduce its bits exactly.
struct Reference {
  graph::Partition assignment;
  double codelength = 0;
  double recomputed = 0;
  double nmi_truth = 0;  ///< against the input's truth.clu
};

/// Returns an empty string when `run` is correct, else the reason.
std::string check(const Setting& s, const Run& run,
                  std::optional<Reference>& ref) {
  const graph::Partition& a = run.result.assignment;
  const graph::Partition reread =
      io::read_clustering(s.work_dir + "/out.clu", run.vertices);
  if (reread != a) return "written clustering differs from the assignment";
  if (ref) {
    if (a != ref->assignment) return "assignment bits differ from first run";
    if (run.result.codelength != ref->codelength)
      return "codelength bits differ from first run";
    return "";
  }
  // From scratch: rebuild the graph from the input file and score the
  // assignment with the reference map-equation evaluator.
  const graph::Csr csr =
      graph::build_csr(graph::read_edge_list(s.input_dir + "/edges.txt"));
  if (a.size() != csr.num_vertices()) return "assignment size mismatch";
  const double recomputed =
      core::codelength_of_partition(core::make_flow_graph(csr), a);
  const double rel = std::abs(recomputed - run.result.codelength) /
                     std::max(std::abs(recomputed), 1e-300);
  if (!(rel <= 1e-9)) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "reported codelength %.17g, recomputed %.17g (rel %.3g)",
                  run.result.codelength, recomputed, rel);
    return buf;
  }
  const graph::Partition truth =
      io::read_clustering(s.input_dir + "/truth.clu", run.vertices);
  if (truth.size() != a.size()) return "reference partition size mismatch";
  ref = Reference{a, run.result.codelength, recomputed, quality::nmi(a, truth)};
  return "";
}

// ---- reporting ------------------------------------------------------------

template <typename T>
T max_of(const std::vector<T>& v) {
  return v.empty() ? T{} : *std::max_element(v.begin(), v.end());
}

Json timings(const Run& r) {
  const double spans =
      r.read + r.build + r.pack + r.delegate + r.solve + r.write;
  return Json()
      .num("wall_s", r.wall)
      .num("setup_s", r.read + r.build + r.pack + r.delegate)
      .num("solve_s", r.solve)
      .num("graph.read_s", r.read)
      .num("graph.build_s", r.build)
      .num("graph.pack_s", r.pack)
      .num("partition.delegate_s", r.delegate)
      .num("io.write_s", r.write)
      .num("bench.unattributed_s", r.wall - spans)
      .num("core.stage1_s", r.result.stage1_wall_seconds)
      .num("core.stage2_s", r.result.stage2_wall_seconds)
      .num("core.outside_stages_s", r.solve - r.result.stage1_wall_seconds -
                                        r.result.stage2_wall_seconds)
      .num("core.find_s", max_of(r.result.phase_seconds[0]))
      .num("core.hub_s", max_of(r.result.phase_seconds[1]))
      .num("core.swap_s", max_of(r.result.phase_seconds[2]))
      .num("core.other_s", max_of(r.result.phase_seconds[3]))
      .num("graph.block_decode_s",
           static_cast<double>(r.block_stats.decode_ns) * 1e-9)
      .num("peak_rss_mb", r.peak_rss_mb);
}

/// Exact counts: identical on every run of one input.
Json counters(const Run& r) {
  const core::DistInfomapResult& res = r.result;
  std::uint64_t moves = 0, deltas = 0, updates = 0;
  for (const auto& lvl : res.report.levels) moves += lvl.moves;
  for (const auto& phase : res.work)
    for (const auto& w : phase) {
      deltas += w.delta_evals;
      updates += w.module_updates;
    }
  auto arcs_in = [&](int phase) {
    std::uint64_t n = 0;
    for (const auto& w : res.work[static_cast<std::size_t>(phase)])
      n += w.arcs_scanned;
    return n;
  };
  std::uint64_t collectives = 0, packed = 0, messages = 0, bytes = 0;
  for (const auto& c : res.comm_counters) {
    collectives += c.collective_calls;
    packed += c.packed_streams;
    messages += c.total_messages();
    bytes += c.total_bytes();
  }
  double arcs_total = 0;
  for (const auto a : r.arcs_per_rank) arcs_total += static_cast<double>(a);
  const double arcs_mean =
      arcs_total / static_cast<double>(std::max<std::size_t>(r.arcs_per_rank.size(), 1));

  // Largest gap between the α-β model's phase shares (default CostModel over
  // the exact work counters) and the measured slowest-rank phase shares.
  double modeled[core::kNumPhases], measured[core::kNumPhases];
  double modeled_sum = 0, measured_sum = 0;
  for (int ph = 0; ph < core::kNumPhases; ++ph) {
    modeled[ph] = perf::bsp_seconds(res.work[static_cast<std::size_t>(ph)]);
    measured[ph] = max_of(res.phase_seconds[static_cast<std::size_t>(ph)]);
    modeled_sum += modeled[ph];
    measured_sum += measured[ph];
  }
  double gap = 0;
  for (int ph = 0; ph < core::kNumPhases; ++ph)
    gap = std::max(gap, 100.0 * std::abs(modeled[ph] / std::max(modeled_sum, 1e-300) -
                                         measured[ph] / std::max(measured_sum, 1e-300)));

  return Json()
      .num("graph.vertices", r.vertices)
      .num("graph.edges", r.edges)
      .num("graph.block_misses", r.block_stats.misses)
      .num("partition.arc_imbalance",
           arcs_mean > 0 ? static_cast<double>(max_of(r.arcs_per_rank)) / arcs_mean : 0.0)
      .num("partition.ghosts_max", max_of(r.ghosts_per_rank))
      .num("core.stage1_rounds", static_cast<std::uint64_t>(res.stage1_rounds))
      .num("core.stage2_levels", static_cast<std::uint64_t>(res.stage2_levels))
      .num("core.moves", moves)
      .num("core.arcs_scanned.find", arcs_in(0))
      .num("core.arcs_scanned.swap", arcs_in(2))
      .num("core.delta_evals", deltas)
      .num("core.module_updates", updates)
      .num("comm.collectives", collectives)
      .num("comm.messages", messages)
      .num("comm.bytes", bytes)
      .num("comm.packed_streams", packed)
      .num("perf.model_gap_pts", gap);
}

int cmd_run(const Setting& s, double seconds, bool trace) {
  std::filesystem::create_directories(s.work_dir);
  PeakRss rss;
  std::optional<Reference> ref;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> failures;
  std::optional<Json> counts;  // from the first timed run that passed

  // Runs one pipeline and checks it; returns the run when it passed.
  auto attempt = [&](bool traced) -> std::optional<Run> {
    ++attempted;
    std::string why;
    std::optional<Run> run;
    try {
      run = run_pipeline(s, traced, rss);
      why = check(s, *run, ref);
    } catch (const std::exception& e) {
      why = std::string("threw: ") + e.what();
    }
    if (why.empty()) return run;
    ++failed;
    if (failures.size() < 8)
      failures.push_back("run " + std::to_string(attempted) + ": " + why);
    return std::nullopt;
  };

  // Warm-up: the first run in a process pays page faults and lazy set-up.
  (void)attempt(false);

  std::vector<Json> runs;
  const auto start = Clock::now();
  do {
    if (auto run = attempt(false)) {
      runs.push_back(timings(*run));
      if (!counts) counts = counters(*run);
    }
  } while (since(start) < seconds);

  Json traced_json;
  if (trace) {
    if (auto run = attempt(true))
      traced_json = timings(*run).num(
          "obs.anomalies", std::uint64_t{run->result.report.anomalies.size()});
  }

  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  const int affinity =
      sched_getaffinity(0, sizeof cpus, &cpus) == 0 ? CPU_COUNT(&cpus) : 0;
  Json env;
  env.num("hardware_concurrency",
          std::uint64_t{std::thread::hardware_concurrency()})
      .num("affinity_cpus", static_cast<std::uint64_t>(affinity))
      .str("build_type", E2E_BUILD_TYPE)
      .str("compiler", E2E_COMPILER)
      .num("peak_rss_per_run", std::uint64_t{rss.resettable()});

  Json out;
  out.obj("env", env)
      .num("attempted", attempted)
      .num("failed", failed)
      .arr("runs", runs);
  std::vector<Json> why;
  for (const auto& f : failures) why.push_back(Json().str("reason", f));
  out.arr("failures", why);
  if (counts) out.obj("counters", *counts);
  if (ref) {
    out.obj("check", Json()
                         .num("codelength_bits", ref->codelength)
                         .num("recomputed_bits", ref->recomputed)
                         .num("nmi_truth", ref->nmi_truth));
  }
  if (trace) out.obj("traced", traced_json);
  std::printf("%s\n", out.text().c_str());
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: e2e_bench gen <rmat|lfr> <full|toy> <seed> <dir>\n"
               "       e2e_bench run <input-dir> <work-dir> <ranks> <sync|async> "
               "<resident|blocks> <seconds> <trace 0|1> [--perturb]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::vector<std::string> a(argv + 1, argv + argc);
    if (a.size() == 5 && a[0] == "gen")
      return cmd_gen(a[1], a[2], std::stoull(a[3]), a[4]);
    if ((a.size() == 8 || a.size() == 9) && a[0] == "run") {
      Setting s;
      s.input_dir = a[1];
      s.work_dir = a[2];
      s.ranks = std::stoi(a[3]);
      if (a[4] != "sync" && a[4] != "async") return usage();
      s.async = a[4] == "async";
      if (a[5] != "resident" && a[5] != "blocks") return usage();
      s.blocks = a[5] == "blocks";
      s.perturb = a.size() == 9 && a[8] == "--perturb";
      if (a.size() == 9 && !s.perturb) return usage();
      return cmd_run(s, std::stod(a[6]), a[7] == "1");
    }
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %s\n", e.what());
    return 1;
  }
}
