// Microbenchmarks (google-benchmark) of the hot kernels: plogp, ΔL
// evaluation, the sequential move pass, the distributed move search,
// coarsening, and the comm collectives —
// plus before/after kernels for the hot-path data structures
// (SparseAccumulator vs unordered_map gather, memoized vs plain plogp in
// evaluate_move), and the threaded ingest (read_edge_list, build_csr) of the
// e2e R-MAT input on 1 thread against every core.
//
// main() first hand-times the before/after kernels and writes the
// machine-readable perf-trajectory artifact bench_results/BENCH_hotpath.json
// (see bench_common.hpp JsonSink), then runs the registered google
// benchmarks. `--benchmark_filter=NONE` skips the latter for a quick
// artifact-only run.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <string>
#include <unordered_map>

#include "bench_common.hpp"
#include "comm/runtime.hpp"
#include "core/coarsen.hpp"
#include "core/dist_infomap.hpp"
#include "core/flowgraph.hpp"
#include "core/mapequation.hpp"
#include "core/module_info.hpp"
#include "core/seq_infomap.hpp"
#include "graph/builder.hpp"
#include "graph/edgelist_io.hpp"
#include "graph/gen/generators.hpp"
#include "util/random.hpp"
#include "util/sparse_accumulator.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace {

using namespace dinfomap;

void BM_Plogp(benchmark::State& state) {
  double x = 1e-6;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::plogp(x));
    x += 1e-9;
  }
}
BENCHMARK(BM_Plogp);

void BM_EvaluateMove(benchmark::State& state) {
  core::MoveDelta d;
  d.p_u = 0.01;
  d.f_u = 0.008;
  d.f_to_old = 0.001;
  d.f_to_new = 0.004;
  d.old_stats = {0.2, 0.05, 40};
  d.new_stats = {0.3, 0.07, 55};
  d.q_total = 0.4;
  for (auto _ : state) benchmark::DoNotOptimize(core::evaluate_move(d));
}
BENCHMARK(BM_EvaluateMove);

void BM_EvaluateMoveMemo(benchmark::State& state) {
  core::MoveDelta d;
  d.p_u = 0.01;
  d.f_u = 0.008;
  d.f_to_old = 0.001;
  d.f_to_new = 0.004;
  d.old_stats = {0.2, 0.05, 40};
  d.new_stats = {0.3, 0.07, 55};
  d.q_total = 0.4;
  core::PlogpMemo memo;
  for (auto _ : state) benchmark::DoNotOptimize(core::evaluate_move(d, memo));
}
BENCHMARK(BM_EvaluateMoveMemo);

const core::FlowGraph& lfr_flow_graph() {
  static const core::FlowGraph fg = [] {
    const auto gg = graph::gen::lfr_lite({}, 7);
    return core::make_flow_graph(graph::build_csr(gg.edges, gg.num_vertices));
  }();
  return fg;
}

/// Module assignment exercising the gather kernels: ~20 vertices per module.
std::vector<graph::VertexId> gather_modules(const core::FlowGraph& fg) {
  std::vector<graph::VertexId> mods(fg.num_vertices());
  util::Xoshiro256 rng(7);
  for (graph::VertexId v = 0; v < fg.num_vertices(); ++v)
    mods[v] = static_cast<graph::VertexId>(rng.bounded(fg.num_vertices() / 20));
  return mods;
}

// --- before/after kernel A: per-vertex neighbor-flow gather -----------------
// The DistRank::best_move_for inner loop before this PR: two fresh
// unordered_maps per vertex per round.

double gather_unordered_fresh(const core::FlowGraph& fg,
                              const std::vector<graph::VertexId>& mods) {
  double checksum = 0;
  for (graph::VertexId u = 0; u < fg.num_vertices(); ++u) {
    std::unordered_map<graph::VertexId, double> flow_to;
    std::unordered_map<graph::VertexId, bool> boundary;
    for (const auto& nb : fg.csr.neighbors(u)) {
      flow_to[mods[nb.target]] += nb.weight;
      if ((nb.target & 3) == 0) boundary[mods[nb.target]] = true;
    }
    // dlint:allow(float-accum-order): anti-DCE checksum replicating the
    // pre-flat-accumulator kernel; its value is never compared bitwise.
    for (const auto& [m, f] : flow_to) checksum += f + (boundary.count(m) ? 1 : 0);
  }
  return checksum;
}

double gather_unordered_reused(const core::FlowGraph& fg,
                               const std::vector<graph::VertexId>& mods) {
  double checksum = 0;
  std::unordered_map<graph::VertexId, double> flow_to;
  std::unordered_map<graph::VertexId, bool> boundary;
  for (graph::VertexId u = 0; u < fg.num_vertices(); ++u) {
    flow_to.clear();
    boundary.clear();
    for (const auto& nb : fg.csr.neighbors(u)) {
      flow_to[mods[nb.target]] += nb.weight;
      if ((nb.target & 3) == 0) boundary[mods[nb.target]] = true;
    }
    // dlint:allow(float-accum-order): anti-DCE checksum replicating the
    // pre-flat-accumulator kernel; its value is never compared bitwise.
    for (const auto& [m, f] : flow_to) checksum += f + (boundary.count(m) ? 1 : 0);
  }
  return checksum;
}

double gather_accumulator(const core::FlowGraph& fg,
                          const std::vector<graph::VertexId>& mods,
                          util::SparseAccumulator<graph::VertexId,
                                                  std::pair<double, std::uint8_t>>& acc) {
  double checksum = 0;
  if (acc.capacity() < fg.num_vertices()) acc.reset(fg.num_vertices());
  for (graph::VertexId u = 0; u < fg.num_vertices(); ++u) {
    acc.clear();
    for (const auto& nb : fg.csr.neighbors(u)) {
      auto& e = acc[mods[nb.target]];
      e.first += nb.weight;
      if ((nb.target & 3) == 0) e.second = 1;
    }
    for (const graph::VertexId m : acc.keys()) {
      const auto& e = *acc.find(m);
      checksum += e.first + (e.second ? 1 : 0);
    }
  }
  return checksum;
}

void BM_GatherUnorderedFresh(benchmark::State& state) {
  const auto& fg = lfr_flow_graph();
  const auto mods = gather_modules(fg);
  for (auto _ : state)
    benchmark::DoNotOptimize(gather_unordered_fresh(fg, mods));
}
BENCHMARK(BM_GatherUnorderedFresh)->Unit(benchmark::kMicrosecond);

void BM_GatherAccumulator(benchmark::State& state) {
  const auto& fg = lfr_flow_graph();
  const auto mods = gather_modules(fg);
  util::SparseAccumulator<graph::VertexId, std::pair<double, std::uint8_t>> acc;
  for (auto _ : state)
    benchmark::DoNotOptimize(gather_accumulator(fg, mods, acc));
}
BENCHMARK(BM_GatherAccumulator)->Unit(benchmark::kMicrosecond);

void BM_SequentialInfomapLfr1k(benchmark::State& state) {
  const auto gg = graph::gen::lfr_lite({}, 7);
  const auto g = graph::build_csr(gg.edges, gg.num_vertices);
  for (auto _ : state)
    benchmark::DoNotOptimize(core::sequential_infomap(g));
}
BENCHMARK(BM_SequentialInfomapLfr1k)->Unit(benchmark::kMillisecond);

// The distributed move search (FindBestModule) at p = 1 on the R-MAT graph
// of the e2e web workloads (scale 17, edge factor 12, seed 1): the whole
// solve runs, and the `find_ns_per_arc` counter is the FindBestModule
// phase's wall time per arc it scanned — the per-kernel number behind the
// e2e `core.find_s`. The rank runs on its own thread, so iterations are
// timed in real time.
void BM_DistFindRoundRmat(benchmark::State& state) {
  const auto gg = graph::gen::rmat(17, 12, 0.57, 0.19, 0.19, 1);
  const auto g = graph::build_csr(gg.edges, gg.num_vertices);
  core::DistInfomapConfig cfg;
  cfg.num_ranks = 1;
  constexpr auto kFind = static_cast<std::size_t>(core::Phase::kFindBestModule);
  double find_s = 0;
  double arcs = 0;
  for (auto _ : state) {
    const auto result = core::distributed_infomap(g, cfg);
    find_s += result.phase_seconds[kFind].at(0);
    arcs += static_cast<double>(result.work[kFind].at(0).arcs_scanned);
    benchmark::DoNotOptimize(result.codelength);
  }
  state.counters["find_ns_per_arc"] = arcs > 0 ? find_s * 1e9 / arcs : 0.0;
  state.counters["arcs_scanned"] =
      arcs / static_cast<double>(std::max<benchmark::IterationCount>(
                 state.iterations(), 1));
}
BENCHMARK(BM_DistFindRoundRmat)->UseRealTime()->Unit(benchmark::kMillisecond);

void BM_CoarsenLfr1k(benchmark::State& state) {
  const auto& fg = lfr_flow_graph();
  std::vector<graph::VertexId> mods(fg.num_vertices());
  for (graph::VertexId v = 0; v < fg.num_vertices(); ++v) mods[v] = v / 20;
  for (auto _ : state) benchmark::DoNotOptimize(core::coarsen(fg, mods));
}
BENCHMARK(BM_CoarsenLfr1k)->Unit(benchmark::kMicrosecond);

void BM_CodelengthOfPartition(benchmark::State& state) {
  const auto& fg = lfr_flow_graph();
  std::vector<graph::VertexId> mods(fg.num_vertices());
  for (graph::VertexId v = 0; v < fg.num_vertices(); ++v) mods[v] = v / 20;
  for (auto _ : state)
    benchmark::DoNotOptimize(core::codelength_of_partition(fg, mods));
}
BENCHMARK(BM_CodelengthOfPartition)->Unit(benchmark::kMicrosecond);

void BM_AllreduceDouble(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  for (auto _ : state) {
    comm::Runtime::run(p, [](comm::Comm& comm) {
      for (int i = 0; i < 50; ++i)
        benchmark::DoNotOptimize(comm.allreduce(1.0, comm::ReduceOp::kSum));
    });
  }
  state.SetItemsProcessed(state.iterations() * 50);
}
BENCHMARK(BM_AllreduceDouble)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_AlltoallvInts(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  for (auto _ : state) {
    comm::Runtime::run(p, [p](comm::Comm& comm) {
      std::vector<std::vector<int>> out(p, std::vector<int>(256, comm.rank()));
      for (int i = 0; i < 20; ++i)
        benchmark::DoNotOptimize(comm.alltoallv(out));
    });
  }
}
BENCHMARK(BM_AlltoallvInts)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_SbmGenerate(benchmark::State& state) {
  for (auto _ : state)
    benchmark::DoNotOptimize(graph::gen::sbm(2000, 20, 0.05, 0.001, 3));
}
BENCHMARK(BM_SbmGenerate)->Unit(benchmark::kMillisecond);

void BM_BuildCsr(benchmark::State& state) {
  const auto gg = graph::gen::lfr_lite({}, 7);
  for (auto _ : state)
    benchmark::DoNotOptimize(graph::build_csr(gg.edges, gg.num_vertices));
}
BENCHMARK(BM_BuildCsr)->Unit(benchmark::kMicrosecond);

/// An R-MAT text edge list (the e2e benchmark's corner probabilities),
/// written once to a temp file that is removed at exit.
struct RmatTextFile {
  std::string path;
  RmatTextFile(int scale, int edge_factor, std::uint64_t seed)
      : path((std::filesystem::temp_directory_path() /
              ("dinfomap_bench_rmat" + std::to_string(scale) + "_" +
               std::to_string(::getpid()) + ".txt"))
                 .string()) {
    graph::write_edge_list(
        path, graph::gen::rmat(scale, edge_factor, 0.57, 0.19, 0.19, seed).edges);
  }
  ~RmatTextFile() { std::filesystem::remove(path); }
  RmatTextFile(const RmatTextFile&) = delete;
  RmatTextFile& operator=(const RmatTextFile&) = delete;
};

/// A 2^15-vertex R-MAT (~262k lines).
const RmatTextFile& small_rmat_file() {
  static const RmatTextFile file(15, 8, 5);
  return file;
}

/// The e2e benchmark's R-MAT input: scale 17, edge factor 12, seed 1
/// (~1.57M lines, 20 MB).
const RmatTextFile& e2e_rmat_file() {
  static const RmatTextFile file(17, 12, 1);
  return file;
}

void BM_ReadEdgeList(benchmark::State& state) {
  const RmatTextFile& file = small_rmat_file();
  std::size_t edges = 0;
  for (auto _ : state) {
    const graph::EdgeList list = graph::read_edge_list(file.path);
    edges = list.size();
    benchmark::DoNotOptimize(list.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * edges));
}
BENCHMARK(BM_ReadEdgeList)->Unit(benchmark::kMillisecond);

// Threaded ingest of the e2e R-MAT input on 1 thread and on every core; the
// thread count is the chunk count of the detail:: seam.
void BM_ReadEdgeListRmat(benchmark::State& state) {
  const RmatTextFile& file = e2e_rmat_file();
  const auto threads = static_cast<int>(state.range(0));
  std::size_t edges = 0;
  for (auto _ : state) {
    const graph::EdgeList list = graph::detail::read_edge_list(file.path, threads);
    edges = list.size();
    benchmark::DoNotOptimize(list.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * edges));
}
BENCHMARK(BM_ReadEdgeListRmat)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(util::available_cores())
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_BuildCsrRmat(benchmark::State& state) {
  static const graph::EdgeList edges = graph::read_edge_list(e2e_rmat_file().path);
  const auto threads = static_cast<int>(state.range(0));
  for (auto _ : state)
    benchmark::DoNotOptimize(graph::detail::build_csr(edges, 0, {}, threads));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * edges.size()));
}
BENCHMARK(BM_BuildCsrRmat)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(util::available_cores())
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// --- BENCH_hotpath.json: hand-timed before/after comparison -----------------

/// Best-of-`reps` seconds of `fn()` (minimum filters scheduler noise).
template <typename Fn>
double best_seconds(int reps, Fn&& fn) {
  double best = 1e300;
  for (int i = 0; i < reps; ++i) {
    util::Timer t;
    benchmark::DoNotOptimize(fn());
    best = std::min(best, t.seconds());
  }
  return best;
}

void emit_hotpath_json() {
  const auto& fg = lfr_flow_graph();
  const auto mods = gather_modules(fg);
  constexpr int kReps = 15;

  bench::JsonSink json("hotpath");
  const int cores = util::available_cores();

  {
    util::SparseAccumulator<graph::VertexId, std::pair<double, std::uint8_t>> acc;
    const double fresh =
        best_seconds(kReps, [&] { return gather_unordered_fresh(fg, mods); });
    const double reused =
        best_seconds(kReps, [&] { return gather_unordered_reused(fg, mods); });
    const double flat =
        best_seconds(kReps, [&] { return gather_accumulator(fg, mods, acc); });
    json.begin_row()
        .field("host_cores", cores)
        .field("kernel", "neighbor_flow_gather")
        .field("graph", "lfr_lite_default")
        .field("unordered_fresh_us", fresh * 1e6)
        .field("unordered_reused_us", reused * 1e6)
        .field("sparse_accumulator_us", flat * 1e6)
        .field("speedup_vs_fresh", fresh / flat)
        .field("speedup_vs_reused", reused / flat);
    std::printf("gather: fresh %.1fus reused %.1fus accumulator %.1fus "
                "(%.2fx vs fresh, %.2fx vs reused)\n",
                fresh * 1e6, reused * 1e6, flat * 1e6, fresh / flat,
                reused / flat);
  }

  {
    core::MoveDelta d;
    d.p_u = 0.01;
    d.f_u = 0.008;
    d.f_to_old = 0.001;
    d.f_to_new = 0.004;
    d.old_stats = {0.2, 0.05, 40};
    d.new_stats = {0.3, 0.07, 55};
    d.q_total = 0.4;
    constexpr int kEvals = 200000;
    const double plain = best_seconds(kReps, [&] {
      double s = 0;
      for (int i = 0; i < kEvals; ++i) s += core::evaluate_move(d).delta_codelength;
      return s;
    });
    core::PlogpMemo memo;
    const double memoized = best_seconds(kReps, [&] {
      double s = 0;
      for (int i = 0; i < kEvals; ++i)
        s += core::evaluate_move(d, memo).delta_codelength;
      return s;
    });
    json.begin_row()
        .field("host_cores", cores)
        .field("kernel", "evaluate_move_repeated")
        .field("graph", "single_delta")
        .field("plain_us", plain * 1e6)
        .field("memo_us", memoized * 1e6)
        .field("speedup", plain / memoized);
    std::printf("evaluate_move x%d: plain %.1fus memo %.1fus (%.2fx)\n",
                kEvals, plain * 1e6, memoized * 1e6, plain / memoized);
  }

  {
    // Ingest of the e2e R-MAT input on 1 thread and on every core.
    constexpr int kIngestReps = 5;
    const std::string& path = e2e_rmat_file().path;
    const graph::EdgeList edges = graph::read_edge_list(path);
    double one[2], all[2];
    for (const int threads : {1, cores}) {
      double* const out = threads == 1 ? one : all;
      out[0] = best_seconds(kIngestReps, [&] {
        return graph::detail::read_edge_list(path, threads).size();
      });
      out[1] = best_seconds(kIngestReps, [&] {
        return graph::detail::build_csr(edges, 0, {}, threads).num_arcs();
      });
    }
    const char* const kernels[] = {"read_edge_list", "build_csr"};
    for (int k = 0; k < 2; ++k) {
      json.begin_row()
          .field("host_cores", cores)
          .field("kernel", kernels[k])
          .field("graph", "rmat_s17_ef12_seed1")
          .field("threads", cores)
          .field("one_thread_ms", one[k] * 1e3)
          .field("all_threads_ms", all[k] * 1e3)
          .field("speedup", one[k] / all[k]);
      std::printf("%s: 1 thread %.1fms, %d threads %.1fms (%.2fx)\n", kernels[k],
                  one[k] * 1e3, cores, all[k] * 1e3, one[k] / all[k]);
    }
    const double one_sum = one[0] + one[1], all_sum = all[0] + all[1];
    json.begin_row()
        .field("host_cores", cores)
        .field("kernel", "read_plus_build")
        .field("graph", "rmat_s17_ef12_seed1")
        .field("threads", cores)
        .field("one_thread_ms", one_sum * 1e3)
        .field("all_threads_ms", all_sum * 1e3)
        .field("speedup", one_sum / all_sum);
    std::printf("read+build: 1 thread %.1fms, %d threads %.1fms (%.2fx)\n",
                one_sum * 1e3, cores, all_sum * 1e3, one_sum / all_sum);
  }

  json.write();
  std::printf("wrote bench_results/BENCH_hotpath.json\n");
}

}  // namespace

int main(int argc, char** argv) {
  emit_hotpath_json();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
