// dinfomap_cli — command-line front end to the library.
//
//   dinfomap_cli generate <family> <out.txt> [seed]
//       family: lfr | ba | rmat | sbm | ring | er
//   dinfomap_cli cluster <edges.txt> <out.clu>
//                 [--algo seq|dist|louvain|lpa|relaxmap|hier]
//                 [--ranks N] [--seed S] [--tree out.tree]
//   dinfomap_cli eval <edges.txt> <a.clu> <b.clu>
//   dinfomap_cli inspect <edges.txt> <a.clu>
//   dinfomap_cli partition-stats <edges.txt> <ranks>
#include <limits.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/process_group.hpp"
#include "comm/socket_transport.hpp"
#include "core/dist_infomap.hpp"
#include "core/hierarchy.hpp"
#include "core/labelflow.hpp"
#include "core/louvain.hpp"
#include "core/relaxmap.hpp"
#include "core/seq_infomap.hpp"
#include "graph/blockgraph/blockgraph.hpp"
#include "graph/blockgraph/writer.hpp"
#include "graph/builder.hpp"
#include "graph/edgelist_io.hpp"
#include "graph/gen/generators.hpp"
#include "graph/stats.hpp"
#include "io/clustering_io.hpp"
#include "obs/profile.hpp"
#include "obs/trace_merge.hpp"
#include "io/tree_io.hpp"
#include "partition/metrics.hpp"
#include "quality/community_stats.hpp"
#include "quality/metrics.hpp"
#include "util/stats.hpp"

namespace {

using namespace dinfomap;

/// A rejected command-line token or flag combination; main() reports it and
/// exits 2 (distinct from runtime failures, which exit 1).
class CliParseError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Whole-token checked integer parse for `what` (a flag name, used in the
/// error): rejects empty tokens, trailing garbage, and out-of-range values.
long long parse_ll(const std::string& what, const std::string& text,
                   long long min_v, long long max_v) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || end == text.c_str() || *end != '\0')
    throw CliParseError(what + ": expected an integer, got '" + text + "'");
  if (errno == ERANGE || v < min_v || v > max_v)
    throw CliParseError(what + ": value " + text + " out of range [" +
                        std::to_string(min_v) + ", " + std::to_string(max_v) +
                        "]");
  return v;
}

int parse_int(const std::string& what, const std::string& text, int min_v,
              int max_v) {
  return static_cast<int>(parse_ll(what, text, min_v, max_v));
}

std::uint64_t parse_u64(const std::string& what, const std::string& text) {
  // strtoull silently wraps an explicit minus sign; reject it up front.
  if (!text.empty() && text[0] == '-')
    throw CliParseError(what + ": expected a non-negative integer, got '" +
                        text + "'");
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || end == text.c_str() || *end != '\0')
    throw CliParseError(what + ": expected a non-negative integer, got '" +
                        text + "'");
  if (errno == ERANGE)
    throw CliParseError(what + ": value " + text + " is too large");
  return v;
}

/// Checked parse of a fault-plan probability; the [0, 1] range itself is
/// enforced later by comm::validate_fault_plan, which sees the whole plan.
double parse_number(const std::string& what, const std::string& text) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (text.empty() || end == text.c_str() || *end != '\0')
    throw CliParseError(what + ": expected a number, got '" + text + "'");
  return v;
}

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  dinfomap_cli generate <lfr|ba|rmat|sbm|ring|er> <out.txt> [seed]\n"
               "  dinfomap_cli cluster <edges.txt> <out.clu> [--algo seq|dist|louvain|lpa|relaxmap|hier]\n"
               "                [--ranks N] [--seed S] [--tree out.tree]\n"
               "                [--threads T]  (relaxmap only; the other engines run one thread,\n"
               "                 dist scales by --ranks)\n"
               "                [--transport inproc|socket]  (dist only; socket = one worker\n"
               "                 process per rank over Unix-domain sockets)\n"
               "                [--trace out.trace.json] [--report out.report.json]  (dist only)\n"
               "                [--profile out.profile.json] [--profile-summary]  (dist, inproc only)\n"
               "                [--faults drop=P,dup=P,reorder=P,corrupt=P[,stall=R][,exit=R][,seed=S]]\n"
               "                [--watchdog-ms N]  (dist only; e.g. --faults drop=0.01,dup=0.01)\n"
               "                [--async]  (dist only: priority-worklist engine)\n"
               "                [--graph-backend resident|blocks] [--block-cache-mb N]\n"
               "                 (dist only; blocks streams an mmap-ed .blockgraph file\n"
               "                  through a bounded decode cache — see tools/graphpack)\n"
               "  dinfomap_cli eval <edges.txt> <a.clu> <b.clu>\n"
               "  dinfomap_cli partition-stats <edges.txt> <ranks>\n");
  return 2;
}

int cmd_generate(int argc, char** argv) {
  if (argc < 4) return usage();
  const std::string family = argv[2];
  const std::string out = argv[3];
  const std::uint64_t seed = argc > 4 ? parse_u64("seed", argv[4]) : 42;

  graph::gen::GeneratedGraph g;
  if (family == "lfr") {
    graph::gen::LfrLiteParams p;
    p.n = 5000;
    g = graph::gen::lfr_lite(p, seed);
  } else if (family == "ba") {
    g = graph::gen::barabasi_albert(5000, 3, seed);
  } else if (family == "rmat") {
    g = graph::gen::rmat(13, 8, 0.57, 0.19, 0.19, seed);
  } else if (family == "sbm") {
    g = graph::gen::sbm(5000, 25, 0.05, 0.001, seed);
  } else if (family == "ring") {
    g = graph::gen::ring_of_cliques(100, 8, seed);
  } else if (family == "er") {
    g = graph::gen::erdos_renyi(5000, 25000, seed);
  } else {
    return usage();
  }
  graph::write_edge_list(out, g.edges);
  std::printf("wrote %zu edges (%u vertices) to %s\n", g.edges.size(),
              g.num_vertices, out.c_str());
  if (g.ground_truth) {
    io::write_clustering(out + ".truth", *g.ground_truth);
    std::printf("wrote planted communities to %s.truth\n", out.c_str());
  }
  return 0;
}

// Parse "drop=0.01,dup=0.01,reorder=0.005,corrupt=0.01,stall=2,seed=7" into a
// FaultPlan. `exit=R` is stall=R plus stall_exits: the stalled worker dies
// instead of freezing (socket transport only — it models a crash). Throws
// CliParseError on an unknown key or malformed value; the assembled plan is
// range-checked afterwards by comm::validate_fault_plan.
void parse_fault_spec(const std::string& spec, comm::FaultPlan* plan) {
  std::size_t pos = 0;
  while (pos < spec.size()) {
    const auto comma = spec.find(',', pos);
    const auto item = spec.substr(pos, comma == std::string::npos ? std::string::npos
                                                                  : comma - pos);
    pos = comma == std::string::npos ? spec.size() : comma + 1;
    const auto eq = item.find('=');
    if (eq == std::string::npos)
      throw CliParseError("--faults: expected key=value, got '" + item + "'");
    const auto key = item.substr(0, eq);
    const auto value = item.substr(eq + 1);
    const std::string what = "--faults " + key;
    if (key == "drop") plan->drop = parse_number(what, value);
    else if (key == "dup") plan->duplicate = parse_number(what, value);
    else if (key == "reorder") plan->reorder = parse_number(what, value);
    else if (key == "corrupt") plan->corrupt = parse_number(what, value);
    else if (key == "stall") plan->stall_rank = parse_int(what, value, 0, INT_MAX);
    else if (key == "exit") {
      plan->stall_rank = parse_int(what, value, 0, INT_MAX);
      plan->stall_exits = true;
    } else if (key == "seed") plan->seed = parse_u64(what, value);
    else
      throw CliParseError("--faults: unknown key '" + key +
                          "' (want drop|dup|reorder|corrupt|stall|exit|seed)");
  }
}

// One-page causal-profile table: critical path, per-rank wall decomposition,
// and the phases where collective wait concentrates (--profile-summary).
void print_profile_summary(const obs::ProfileDigest& d) {
  std::printf("\n-- causal profile (%s) --\n", d.schema.c_str());
  std::printf("wall %.2f ms, critical path %.2f ms (%.0f%% of wall), "
              "%llu messages",
              d.wall_us / 1000.0, d.critical_path_us / 1000.0,
              d.wall_us > 0 ? 100.0 * d.critical_path_us / d.wall_us : 0.0,
              static_cast<unsigned long long>(d.messages));
  if (d.unmatched_sends + d.unmatched_recvs > 0)
    std::printf(" (%llu unmatched)",
                static_cast<unsigned long long>(d.unmatched_sends +
                                                d.unmatched_recvs));
  std::printf("\n%-5s %10s %8s %8s %8s %7s\n", "rank", "wall ms", "wait%",
              "comm%", "comp%", "coll ms");
  for (const auto& rp : d.ranks) {
    const double w = rp.wall_us > 0 ? rp.wall_us : 1.0;
    std::printf("%-5d %10.2f %7.1f%% %7.1f%% %7.1f%% %7.2f\n", rp.rank,
                rp.wall_us / 1000.0, 100.0 * rp.wait_us / w,
                100.0 * rp.comm_us / w, 100.0 * rp.compute_us / w,
                rp.collective_wait_us / 1000.0);
  }
  if (!d.phases.empty()) {
    std::printf("top straggler phases (by collective wait):\n");
    std::printf("%-18s %6s %10s %10s %9s %6s\n", "phase", "colls", "wait ms",
                "skew ms", "straggler", "share");
    const std::size_t top = std::min<std::size_t>(5, d.phases.size());
    for (std::size_t i = 0; i < top; ++i) {
      const auto& ph = d.phases[i];
      double caused = 0;
      int culprit = -1;
      for (std::size_t rr = 0; rr < ph.caused_wait_us.size(); ++rr) {
        if (ph.caused_wait_us[rr] > caused) {
          caused = ph.caused_wait_us[rr];
          culprit = static_cast<int>(rr);
        }
      }
      std::printf("%-18s %6llu %10.2f %10.2f %9d %5.0f%%\n", ph.name.c_str(),
                  static_cast<unsigned long long>(ph.instances),
                  ph.wait_us / 1000.0, ph.max_skew_us / 1000.0, culprit,
                  ph.wait_us > 0 ? 100.0 * caused / ph.wait_us : 0.0);
    }
  }
}

/// Result summary shared by the dist paths (in-process driver and socket
/// worker rank 0 — the cross-backend bit-identity check diffs these lines).
void print_dist_summary(const core::DistInfomapResult& r, int ranks,
                        bool faults_active) {
  std::printf("distributed Infomap (p=%d): L = %.6f, %u modules\n", ranks,
              r.codelength, r.num_modules());
  if (faults_active) {
    comm::FaultCounters injected;
    for (const auto& f : r.report.faults_injected) injected += f;
    comm::CommCounters recovered;
    for (const auto& c : r.comm_counters) recovered += c;
    std::printf(
        "faults injected: %llu drops, %llu dups, %llu reorders, %llu "
        "corruptions; recovery: %llu retransmits, %llu dup frames dropped, "
        "%llu checksum failures\n",
        static_cast<unsigned long long>(injected.drops),
        static_cast<unsigned long long>(injected.duplicates),
        static_cast<unsigned long long>(injected.reorders),
        static_cast<unsigned long long>(injected.corruptions),
        static_cast<unsigned long long>(recovered.retransmits),
        static_cast<unsigned long long>(recovered.dup_frames_dropped),
        static_cast<unsigned long long>(recovered.checksum_failures));
  }
}

/// Launcher side of --transport socket: fork one worker process per rank
/// (each a re-exec of this binary; ProcessGroup appends --rank-role), wait
/// for the job, print the crash-vs-hang diagnosis on failure, and merge the
/// per-worker traces onto the shared epoch.
int run_socket_launcher(int argc, char** argv, int ranks,
                        const std::string& trace_out, unsigned hang_grace_ms) {
  std::string dir = "/tmp/dinfomap_mesh_XXXXXX";
  if (mkdtemp(dir.data()) == nullptr)
    throw std::runtime_error("cannot create transport rendezvous directory");

  comm::ProcessGroup::Spec spec;
  spec.nranks = ranks;
  spec.dir = dir;
  if (hang_grace_ms > 0) spec.hang_grace_ms = hang_grace_ms;
  char exe[PATH_MAX];
  const ssize_t n = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  spec.exe = n > 0 ? std::string(exe, static_cast<std::size_t>(n))
                   : std::string(argv[0]);
  for (int i = 1; i < argc; ++i) spec.worker_args.push_back(argv[i]);
  spec.worker_args.push_back("--transport-dir");
  spec.worker_args.push_back(dir);
  if (!trace_out.empty()) {
    // All workers pin their trace epoch to this steady-clock reading, so the
    // merged per-process traces share one timeline.
    const auto epoch_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count();
    spec.worker_args.push_back("--trace-epoch");
    spec.worker_args.push_back(std::to_string(epoch_ns));
  }
  const auto result = comm::ProcessGroup::launch(spec);

  if (!trace_out.empty()) {
    std::vector<std::string> inputs;
    for (int r = 0; r < ranks; ++r)
      inputs.push_back(dir + "/trace.rank" + std::to_string(r) + ".json");
    if (obs::merge_trace_files(inputs, trace_out))
      std::printf("merged %d worker traces into %s (load at ui.perfetto.dev)\n",
                  ranks, trace_out.c_str());
    for (const auto& path : inputs) ::unlink(path.c_str());
  }
  for (int r = 0; r < ranks; ++r) {
    ::unlink(comm::ProcessGroup::fault_file(dir, r).c_str());
    ::unlink(comm::SocketTransport::socket_path(dir, r).c_str());
  }
  ::rmdir(dir.c_str());

  if (!result.ok) {
    std::fprintf(stderr, "socket transport job failed: %s\n",
                 result.diagnosis.c_str());
    return 1;
  }
  std::printf("socket transport: %d worker processes exited cleanly\n", ranks);
  return 0;
}

/// Worker side of --transport socket (--rank-role R): open this rank's
/// endpoint, run the SPMD entry, and on a comm fault file the typed verdict
/// the launcher's diagnosis reads (stalled vs peer_exited vs transport).
int run_socket_worker(const graph::GraphView& g, core::DistInfomapConfig cfg,
                      int rank, const std::string& dir,
                      std::uint64_t trace_epoch_ns, bool want_trace,
                      const std::string& out) {
  if (want_trace) {
    cfg.obs.trace_path = dir + "/trace.rank" + std::to_string(rank) + ".json";
    cfg.obs.trace_epoch_steady_ns = trace_epoch_ns;
  }
  comm::TransportTuning tuning;
  tuning.faults = cfg.faults;
  tuning.watchdog_timeout_ms = cfg.comm_watchdog_ms;
  comm::SocketTransportOptions sopts;
  sopts.dir = dir;
  std::optional<comm::SocketTransport> transport;
  try {
    transport.emplace(rank, cfg.num_ranks, sopts, tuning);
    const auto r = core::distributed_infomap_rank(g, cfg, *transport);
    if (rank == 0) {
      print_dist_summary(r, cfg.num_ranks, cfg.faults.any());
      if (!cfg.obs.report_path.empty())
        std::printf("run report written to %s\n", cfg.obs.report_path.c_str());
      io::write_clustering(out, r.assignment);
      std::printf("clustering written to %s\n", out.c_str());
    }
    return 0;
  } catch (const comm::CommFault& f) {
    if (transport) transport->abandon_linger();
    const char* kind =
        f.kind() == comm::CommFault::Kind::kStalled      ? "stalled"
        : f.kind() == comm::CommFault::Kind::kPeerExited ? "peer_exited"
                                                         : "transport";
    std::ofstream verdict(comm::ProcessGroup::fault_file(dir, rank));
    verdict << kind << " " << f.rank() << "\n";
    std::fprintf(stderr, "rank %d: comm fault: %s\n", rank, f.what());
    return 1;
  } catch (const std::exception& e) {
    if (transport) transport->abandon_linger();
    std::ofstream verdict(comm::ProcessGroup::fault_file(dir, rank));
    verdict << "transport -1\n";
    std::fprintf(stderr, "rank %d: %s\n", rank, e.what());
    return 1;
  }
}

int cmd_cluster(int argc, char** argv) {
  if (argc < 4) return usage();
  const std::string in = argv[2];
  const std::string out = argv[3];
  std::string algo = "dist";
  std::string tree_out;
  std::string trace_out;
  std::string report_out;
  std::string profile_out;
  bool profile_summary = false;
  int ranks = 4;
  int threads = 1;
  std::uint64_t seed = 42;
  std::string fault_spec;
  unsigned watchdog_ms = 0;
  bool use_async = false;
  std::string transport = "inproc";
  unsigned hang_grace_ms = 0;  ///< 0 = ProcessGroup's default
  std::string graph_backend = "resident";
  int block_cache_mb = 64;
  // Internal worker-role flags, appended by the socket launcher; never
  // passed by hand.
  std::string transport_dir;
  int rank_role = -1;
  std::uint64_t trace_epoch_ns = 0;
  // Boolean switches consume one token, valued flags consume two.
  for (int i = 4; i < argc;) {
    const char* flag = argv[i];
    if (!std::strcmp(flag, "--async")) {
      use_async = true;
      ++i;
      continue;
    }
    if (!std::strcmp(flag, "--profile-summary")) {
      profile_summary = true;
      ++i;
      continue;
    }
    if (i + 1 >= argc) return usage();  // every remaining flag takes a value
    const char* value = argv[i + 1];
    i += 2;
    if (!std::strcmp(flag, "--algo")) algo = value;
    else if (!std::strcmp(flag, "--ranks")) ranks = parse_int(flag, value, 1, partition::kMaxRanks);
    else if (!std::strcmp(flag, "--threads")) threads = parse_int(flag, value, 1, 1 << 16);
    else if (!std::strcmp(flag, "--seed")) seed = parse_u64(flag, value);
    else if (!std::strcmp(flag, "--tree")) tree_out = value;
    else if (!std::strcmp(flag, "--trace")) trace_out = value;
    else if (!std::strcmp(flag, "--report")) report_out = value;
    else if (!std::strcmp(flag, "--profile")) profile_out = value;
    else if (!std::strcmp(flag, "--faults")) fault_spec = value;
    else if (!std::strcmp(flag, "--watchdog-ms")) watchdog_ms = static_cast<unsigned>(parse_ll(flag, value, 0, 86'400'000));
    else if (!std::strcmp(flag, "--transport")) transport = value;
    else if (!std::strcmp(flag, "--graph-backend")) graph_backend = value;
    else if (!std::strcmp(flag, "--block-cache-mb")) block_cache_mb = parse_int(flag, value, 1, 1 << 20);
    else if (!std::strcmp(flag, "--hang-grace-ms")) hang_grace_ms = static_cast<unsigned>(parse_ll(flag, value, 1, 86'400'000));
    else if (!std::strcmp(flag, "--transport-dir")) transport_dir = value;
    else if (!std::strcmp(flag, "--rank-role")) rank_role = parse_int(flag, value, 0, partition::kMaxRanks - 1);
    else if (!std::strcmp(flag, "--trace-epoch")) trace_epoch_ns = parse_u64(flag, value);
    else return usage();
  }

  if (algo != "seq" && algo != "dist" && algo != "louvain" && algo != "lpa" &&
      algo != "relaxmap" && algo != "hier")
    throw CliParseError("--algo: expected one of "
                        "seq|dist|louvain|lpa|relaxmap|hier, got '" +
                        algo + "'");
  if (threads > 1 && algo != "relaxmap")
    throw CliParseError("--threads " + std::to_string(threads) +
                        " requires --algo relaxmap (only RelaxMap runs on "
                        "threads; dist scales by --ranks)");
  if (transport != "inproc" && transport != "socket")
    throw CliParseError("--transport: expected 'inproc' or 'socket', got '" +
                        transport + "'");
  if (transport == "socket") {
    if (algo != "dist")
      throw CliParseError("--transport socket requires --algo dist");
    if (!profile_out.empty() || profile_summary)
      throw CliParseError(
          "--profile/--profile-summary need --transport inproc (the "
          "cross-rank digest requires one trace holding every rank)");
  }
  if (rank_role >= 0 &&
      (transport != "socket" || transport_dir.empty() || rank_role >= ranks))
    throw CliParseError(
        "--rank-role is internal (the socket launcher appends it, in [0, "
        "ranks), together with --transport-dir)");

  if (graph_backend != "resident" && graph_backend != "blocks")
    throw CliParseError(
        "--graph-backend: expected 'resident' or 'blocks', got '" +
        graph_backend + "'");
  const bool blocks_mode = graph_backend == "blocks";
  const bool input_is_blockgraph =
      in.size() > 11 &&
      in.compare(in.size() - 11, 11, ".blockgraph") == 0;
  if (blocks_mode && algo != "dist")
    throw CliParseError("--graph-backend blocks requires --algo dist");
  if (blocks_mode && transport == "socket" && !input_is_blockgraph)
    throw CliParseError(
        "--graph-backend blocks with --transport socket needs a pre-packed "
        ".blockgraph input (run tools/graphpack first; every worker process "
        "maps the same file)");
  if (input_is_blockgraph && !blocks_mode)
    throw CliParseError(
        "a .blockgraph input requires --graph-backend blocks");

  // Fault plans are validated at configuration time — a typo'd rate or rank
  // is rejected here with the offending field named, not discovered as a
  // plan that silently never fires.
  comm::FaultPlan faults;
  unsigned effective_watchdog_ms = watchdog_ms;
  if (!fault_spec.empty()) {
    faults.seed = seed;  // default the fault stream to the run seed
    parse_fault_spec(fault_spec, &faults);
    comm::validate_fault_plan(faults, ranks);
    if (faults.stall_exits && transport != "socket")
      throw CliParseError(
          "--faults exit=<rank> kills a real worker process; it needs "
          "--transport socket");
    // A fault plan without a watchdog can only hang on unrecoverable
    // schedules; arm a generous default.
    if (effective_watchdog_ms == 0) effective_watchdog_ms = 10'000;
  }

  // Socket launcher: fork the workers and get out of the way — the graph is
  // loaded by each worker, and worker rank 0 writes every output file.
  if (transport == "socket" && rank_role < 0)
    return run_socket_launcher(argc, argv, ranks, trace_out, hang_grace_ms);

  // Exactly one backend is populated; `gv` is the type-erased handle the
  // dist engine runs on. Non-dist algorithms stay resident-only and bind
  // `*resident` directly (blocks_mode was rejected for them above).
  std::optional<graph::Csr> resident;
  std::optional<graph::blockgraph::BlockGraph> blocks;
  if (blocks_mode) {
    graph::blockgraph::BlockGraph::Options bopts;
    bopts.cache_bytes = static_cast<std::size_t>(block_cache_mb) << 20;
    std::string block_path = in;
    std::string packed_tmp;
    if (!input_is_blockgraph) {
      // Inproc convenience: auto-pack a temporary .blockgraph next to the
      // output. The file is unlinked right after open — the mmap keeps the
      // bytes alive for the run's lifetime.
      packed_tmp = out + ".blockgraph.tmp";
      (void)graph::blockgraph::write_block_file(
          packed_tmp, graph::build_csr(graph::read_edge_list(in)), {});
      block_path = packed_tmp;
    }
    blocks.emplace(graph::blockgraph::BlockGraph::open(block_path, bopts));
    if (!packed_tmp.empty()) ::unlink(packed_tmp.c_str());
  } else {
    resident.emplace(graph::build_csr(graph::read_edge_list(in)));
  }
  const graph::GraphView gv =
      blocks_mode ? graph::GraphView(*blocks) : graph::GraphView(*resident);
  if (rank_role <= 0)
    std::printf("graph: %u vertices, %llu edges\n", gv.num_vertices(),
                static_cast<unsigned long long>(gv.num_edges()));

  graph::Partition assignment;
  if (algo == "seq") {
    const graph::Csr& g = *resident;
    core::InfomapConfig cfg;
    cfg.seed = seed;
    const auto r = core::sequential_infomap(g, cfg);
    assignment = r.assignment;
    std::printf("sequential Infomap: L = %.6f, %u modules\n", r.codelength,
                r.num_modules());
    if (!tree_out.empty()) {
      io::write_tree(tree_out, r.level_assignments);
      std::printf("hierarchy written to %s\n", tree_out.c_str());
    }
  } else if (algo == "dist") {
    core::DistInfomapConfig cfg;
    cfg.num_ranks = ranks;
    cfg.seed = seed;
    cfg.async = use_async;
    cfg.faults = faults;
    cfg.comm_watchdog_ms = effective_watchdog_ms;
    if (!trace_out.empty() || !report_out.empty() || !profile_out.empty() ||
        profile_summary) {
      cfg.obs.enabled = true;  // flight recorder on; results are unchanged
      cfg.obs.trace_path = trace_out;
      cfg.obs.report_path = report_out;
      cfg.obs.profile_path = profile_out;
    }
    if (rank_role >= 0) {
      // Socket-transport worker: the per-worker trace path and epoch are
      // substituted inside, and only rank 0 writes the shared outputs.
      cfg.obs.trace_path.clear();
      return run_socket_worker(gv, cfg, rank_role, transport_dir,
                               trace_epoch_ns, !trace_out.empty(), out);
    }
    const auto r = core::distributed_infomap(gv, cfg);
    assignment = r.assignment;
    print_dist_summary(r, ranks, cfg.faults.any());
    if (profile_summary && r.report.has_profile)
      print_profile_summary(r.report.profile);
    if (!trace_out.empty())
      std::printf("trace written to %s (load at ui.perfetto.dev)\n",
                  trace_out.c_str());
    if (!report_out.empty())
      std::printf("run report written to %s\n", report_out.c_str());
    if (!profile_out.empty())
      std::printf("profile digest written to %s\n", profile_out.c_str());
  } else if (algo == "louvain") {
    const graph::Csr& g = *resident;
    core::LouvainConfig cfg;
    cfg.seed = seed;
    const auto r = core::louvain(g, cfg);
    assignment = r.assignment;
    std::printf("Louvain: Q = %.6f\n", r.modularity);
  } else if (algo == "lpa") {
    const graph::Csr& g = *resident;
    core::LabelFlowConfig cfg;
    cfg.seed = seed;
    const auto r = core::distributed_labelflow(g, ranks, cfg);
    assignment = r.assignment;
    std::printf("label-flow (p=%d): L = %.6f\n", ranks, r.codelength);
  } else if (algo == "relaxmap") {
    const graph::Csr& g = *resident;
    core::RelaxMapConfig cfg;
    cfg.num_threads = threads > 1 ? threads : ranks;
    cfg.seed = seed;
    const auto r = core::relaxmap(g, cfg);
    assignment = r.assignment;
    std::printf("RelaxMap (%d threads): L = %.6f\n", cfg.num_threads,
                r.codelength);
  } else {  // "hier", the last engine the parse-time check admits
    const graph::Csr& g = *resident;
    core::HierInfomapConfig cfg;
    cfg.two_level.seed = seed;
    const auto r = core::hierarchical_infomap(g, cfg);
    assignment = r.leaf_assignment;
    std::printf("hierarchical Infomap: L = %.6f (two-level %.6f, depth %d)\n",
                r.codelength, r.two_level_codelength, r.hierarchy.depth());
    if (!tree_out.empty()) {
      const auto paths = r.hierarchy.vertex_paths(g.num_vertices());
      std::ofstream tree_file(tree_out);
      tree_file << "# path \"vertex\"\n";
      for (graph::VertexId v = 0; v < g.num_vertices(); ++v)
        tree_file << paths[v] << " \"" << v << "\"\n";
      std::printf("hierarchy written to %s\n", tree_out.c_str());
    }
  }
  io::write_clustering(out, assignment);
  std::printf("clustering written to %s\n", out.c_str());
  return 0;
}

int cmd_eval(int argc, char** argv) {
  if (argc < 5) return usage();
  const auto g = graph::build_csr(graph::read_edge_list(argv[2]));
  const auto a = io::read_clustering(argv[3], g.num_vertices());
  const auto b = io::read_clustering(argv[4], g.num_vertices());
  std::printf("NMI        = %.4f\n", quality::nmi(a, b));
  std::printf("F-measure  = %.4f\n", quality::f_measure(a, b));
  std::printf("Jaccard    = %.4f\n", quality::jaccard_index(a, b));
  std::printf("modularity = %.4f (a), %.4f (b)\n", quality::modularity(g, a),
              quality::modularity(g, b));
  return 0;
}

int cmd_inspect(int argc, char** argv) {
  if (argc < 4) return usage();
  const auto g = graph::build_csr(graph::read_edge_list(argv[2]));
  const auto clustering = io::read_clustering(argv[3], g.num_vertices());
  const auto s = quality::summarize_partition(g, clustering);
  std::printf("communities: %u (sizes %u..%u)\n", s.num_communities,
              s.smallest, s.largest);
  std::printf("coverage:    %.3f of edge weight is intra-community\n",
              s.coverage);
  std::printf("conductance: mean %.3f, worst %.3f\n", s.mean_conductance,
              s.max_conductance);
  std::printf("modularity:  %.4f\n", quality::modularity(g, clustering));
  // Largest five communities in detail.
  std::vector<std::size_t> order(s.communities.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return s.communities[a].size > s.communities[b].size;
  });
  std::printf("\n%-10s %-8s %-12s %-10s %-12s\n", "community", "size",
              "internal w", "cut w", "conductance");
  for (std::size_t i = 0; i < std::min<std::size_t>(5, order.size()); ++i) {
    const auto& cs = s.communities[order[i]];
    std::printf("%-10zu %-8u %-12.1f %-10.1f %-12.3f\n", order[i], cs.size,
                cs.internal_weight, cs.cut_weight, cs.conductance);
  }
  return 0;
}

int cmd_partition_stats(int argc, char** argv) {
  if (argc < 4) return usage();
  const auto g = graph::build_csr(graph::read_edge_list(argv[2]));
  const int p = parse_int("ranks", argv[3], 1, partition::kMaxRanks);
  std::printf("%-14s %12s %12s %9s %12s\n", "strategy", "min arcs", "max arcs",
              "imb", "max ghosts");
  const struct {
    const char* name;
    partition::ArcPartition part;
  } rows[] = {
      {"1D", partition::make_oned(g, p)},
      {"1D-balanced", partition::make_oned_balanced(g, p)},
      {"hash", partition::make_hash(g, p)},
      {"delegate", partition::make_delegate(g, p)},
  };
  for (const auto& row : rows) {
    const auto arcs = util::summarize_counts(partition::arcs_per_rank(row.part));
    const auto ghosts =
        util::summarize_counts(partition::ghosts_per_rank(row.part));
    std::printf("%-14s %12.0f %12.0f %8.2fx %12.0f\n", row.name, arcs.min,
                arcs.max, arcs.imbalance, ghosts.max);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "generate") return cmd_generate(argc, argv);
    if (cmd == "cluster") return cmd_cluster(argc, argv);
    if (cmd == "eval") return cmd_eval(argc, argv);
    if (cmd == "inspect") return cmd_inspect(argc, argv);
    if (cmd == "partition-stats") return cmd_partition_stats(argc, argv);
  } catch (const CliParseError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const comm::FaultPlanError& e) {
    std::fprintf(stderr, "error: invalid fault plan: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
