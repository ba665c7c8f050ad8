// Cross-backend transport suite (ISSUE 8): the socket backend must be
// semantically indistinguishable from the in-process backend — same
// collective results bit-for-bit, same transparent fault recovery, plus the
// failure kinds only a real process mesh can produce (peer_exited vs
// stalled). The unit tests here drive SocketTransport endpoints from threads
// of one process (each endpoint is its own "rank" over real Unix-domain
// sockets); the launcher/CLI tests fork genuine worker processes.
#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>

#include <array>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "comm/process_group.hpp"
#include "comm/runtime.hpp"
#include "comm/socket_transport.hpp"

namespace dc = dinfomap::comm;

namespace {

/// Fresh private directory for one mesh rendezvous (UDS paths must be short,
/// so stay under /tmp rather than the build tree).
std::string make_mesh_dir() {
  std::string tmpl = "/tmp/dinfomap_transport_XXXXXX";
  const char* dir = mkdtemp(tmpl.data());
  EXPECT_NE(dir, nullptr);
  return tmpl;
}

void remove_mesh_dir(const std::string& dir) {
  // Sockets are unlinked by the endpoints; the directory itself remains.
  ::rmdir(dir.c_str());
}

/// Run `fn` once per rank, each rank on its own thread owning its own
/// SocketTransport endpoint — the threaded stand-in for worker processes
/// (identical wire protocol; ASan/TSan can see the whole mesh). Rethrows the
/// lowest-rank failure after all ranks join.
void run_socket_ranks(int nranks, const dc::TransportTuning& tuning,
                      const std::function<void(dc::Comm&)>& fn,
                      unsigned linger_ms = 2'000) {
  const std::string dir = make_mesh_dir();
  std::vector<std::exception_ptr> failures(static_cast<std::size_t>(nranks));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    threads.emplace_back([&, r] {
      try {
        dc::SocketTransportOptions opts;
        opts.dir = dir;
        opts.linger_timeout_ms = linger_ms;
        dc::SocketTransport transport(r, nranks, opts, tuning);
        dc::Comm comm(transport);
        fn(comm);
      } catch (...) {
        failures[static_cast<std::size_t>(r)] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  remove_mesh_dir(dir);
  for (auto& f : failures)
    if (f) std::rethrow_exception(f);
}

/// A deterministic mini-workload exercising every collective; returns a
/// per-rank result whose bits depend on all of them. Used to compare
/// backends and fault/fault-free runs bit-for-bit.
std::vector<double> collective_workload(dc::Comm& comm) {
  const int p = comm.size();
  const int r = comm.rank();
  std::vector<double> out;

  comm.barrier();
  // Rank-dependent payloads through alltoallv.
  std::vector<std::vector<double>> boxes(static_cast<std::size_t>(p));
  for (int d = 0; d < p; ++d)
    for (int k = 0; k < 3 + d; ++k)
      boxes[static_cast<std::size_t>(d)].push_back(0.25 * r + 1.0 / (k + 1) +
                                                   d);
  const auto inboxes = comm.alltoallv(boxes);
  double acc = 0.0;
  for (const auto& in : inboxes)
    for (double v : in) acc += v;
  out.push_back(acc);

  // Floating-point allreduce must be rank-ordered everywhere.
  out.push_back(comm.allreduce(acc * (r + 1), dc::ReduceOp::kSum));
  out.push_back(comm.allreduce(1.0 / (r + 1), dc::ReduceOp::kMax));

  // Broadcast + gather round trip.
  std::vector<double> blob;
  if (r == 0)
    for (int k = 0; k < 17; ++k) blob.push_back(1.0 / (k + 1));
  comm.bcast(0, blob);
  out.push_back(blob.at(7));
  const auto gathered = comm.gatherv(0, std::vector<double>{acc, double(r)});
  if (r == 0)
    for (const auto& g : gathered) out.insert(out.end(), g.begin(), g.end());
  comm.barrier();
  return out;
}

dc::FaultPlan chaos_plan(std::uint64_t seed) {
  dc::FaultPlan plan;
  plan.drop = 0.05;
  plan.duplicate = 0.05;
  plan.reorder = 0.05;
  plan.corrupt = 0.05;
  plan.seed = seed;
  return plan;
}

}  // namespace

// ---- fault-plan validation (satellite bugfix) ------------------------------

TEST(FaultPlanValidation, RejectsOutOfRangeRates) {
  dc::FaultPlan plan;
  plan.drop = 1.5;
  EXPECT_THROW(dc::validate_fault_plan(plan, 4), dc::FaultPlanError);
  plan.drop = -0.1;
  EXPECT_THROW(dc::validate_fault_plan(plan, 4), dc::FaultPlanError);
}

TEST(FaultPlanValidation, RejectsCascadeSumAboveOne) {
  dc::FaultPlan plan;
  plan.drop = 0.5;
  plan.duplicate = 0.4;
  plan.reorder = 0.2;
  EXPECT_THROW(dc::validate_fault_plan(plan, 4), dc::FaultPlanError);
}

TEST(FaultPlanValidation, RejectsStallRankOutsideJob) {
  dc::FaultPlan plan;
  plan.stall_rank = 99;
  EXPECT_THROW(dc::validate_fault_plan(plan, 4), dc::FaultPlanError);
  plan.stall_rank = 4;
  EXPECT_THROW(dc::validate_fault_plan(plan, 4), dc::FaultPlanError);
  plan.stall_rank = 3;
  EXPECT_NO_THROW(dc::validate_fault_plan(plan, 4));
  // Rank count unknown yet: rank bound deferred, negatives still rejected.
  plan.stall_rank = 99;
  EXPECT_NO_THROW(dc::validate_fault_plan(plan, 0));
}

TEST(FaultPlanValidation, StallExitNeedsAStallRankAndRealProcesses) {
  dc::FaultPlan plan;
  plan.stall_exits = true;
  EXPECT_THROW(dc::validate_fault_plan(plan, 4), dc::FaultPlanError);
  plan.stall_rank = 1;
  EXPECT_NO_THROW(dc::validate_fault_plan(plan, 4));
  // The in-process runtime has no process to kill.
  dc::Runtime::Options opt;
  opt.faults = plan;
  EXPECT_THROW(dc::Runtime::run(4, [](dc::Comm&) {}, opt),
               dc::FaultPlanError);
}

TEST(FaultPlanValidation, RuntimeRejectsBadPlansAtConfigTime) {
  dc::Runtime::Options opt;
  opt.faults.stall_rank = 99;  // typo'd rank would silently never fire
  EXPECT_THROW(dc::Runtime::run(4, [](dc::Comm&) {}, opt),
               dc::FaultPlanError);
}

// ---- socket mesh: basic semantics ------------------------------------------

TEST(SocketTransport, PointToPointRoundTrip) {
  dc::TransportTuning tuning;
  run_socket_ranks(2, tuning, [](dc::Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 5, std::vector<int>{1, 2, 3, 4});
      const auto back = comm.recv<int>(1, 6);
      EXPECT_EQ(back, (std::vector<int>{8, 9}));
    } else {
      const auto got = comm.recv<int>(0, 5);
      EXPECT_EQ(got, (std::vector<int>{1, 2, 3, 4}));
      comm.send(0, 6, std::vector<int>{8, 9});
    }
  });
}

TEST(SocketTransport, CollectivesMatchInprocBitwise) {
  for (const int p : {2, 4}) {
    std::vector<std::vector<double>> inproc(static_cast<std::size_t>(p));
    dc::Runtime::run(p, [&](dc::Comm& comm) {
      inproc[static_cast<std::size_t>(comm.rank())] =
          collective_workload(comm);
    });
    std::vector<std::vector<double>> socket(static_cast<std::size_t>(p));
    dc::TransportTuning tuning;
    run_socket_ranks(p, tuning, [&](dc::Comm& comm) {
      socket[static_cast<std::size_t>(comm.rank())] =
          collective_workload(comm);
    });
    for (int r = 0; r < p; ++r) {
      ASSERT_EQ(inproc[static_cast<std::size_t>(r)].size(),
                socket[static_cast<std::size_t>(r)].size())
          << "rank " << r;
      for (std::size_t i = 0; i < inproc[static_cast<std::size_t>(r)].size();
           ++i) {
        EXPECT_EQ(inproc[static_cast<std::size_t>(r)][i],
                  socket[static_cast<std::size_t>(r)][i])
            << "rank " << r << " slot " << i;
      }
    }
  }
}

// ---- socket mesh: recovery over the real wire ------------------------------

TEST(SocketTransport, FaultPlanRecoveryIsTransparentAtFourRanks) {
  constexpr int p = 4;
  std::vector<std::vector<double>> clean(static_cast<std::size_t>(p));
  dc::TransportTuning tuning;
  run_socket_ranks(p, tuning, [&](dc::Comm& comm) {
    clean[static_cast<std::size_t>(comm.rank())] = collective_workload(comm);
  });

  dc::TransportTuning faulty;
  faulty.faults = chaos_plan(/*seed=*/0xfeedULL);
  faulty.watchdog_timeout_ms = 20'000;
  std::vector<std::vector<double>> recovered(static_cast<std::size_t>(p));
  run_socket_ranks(p, faulty, [&](dc::Comm& comm) {
    recovered[static_cast<std::size_t>(comm.rank())] =
        collective_workload(comm);
  });

  for (int r = 0; r < p; ++r)
    EXPECT_EQ(clean[static_cast<std::size_t>(r)],
              recovered[static_cast<std::size_t>(r)])
        << "rank " << r;
}

TEST(SocketTransport, InjectedFaultCountsMatchInproc) {
  // Same plan, same traffic → the shared dice must fire identically on both
  // backends (the cross-backend determinism contract at the fault layer).
  constexpr int p = 3;
  dc::Runtime::Options opt;
  opt.faults = chaos_plan(/*seed=*/7);
  const auto workload = [](dc::Comm& comm) { (void)collective_workload(comm); };
  const auto report = dc::Runtime::run(p, workload, opt);
  std::uint64_t inproc_total = 0;
  for (const auto& st : report.stats) inproc_total += st.injected.total();

  dc::TransportTuning tuning;
  tuning.faults = chaos_plan(/*seed=*/7);
  std::atomic<std::uint64_t> socket_total{0};
  const std::string dir = make_mesh_dir();
  std::vector<std::thread> threads;
  for (int r = 0; r < p; ++r) {
    threads.emplace_back([&, r] {
      dc::SocketTransportOptions opts;
      opts.dir = dir;
      opts.linger_timeout_ms = 2'000;
      dc::SocketTransport transport(r, p, opts, tuning);
      dc::Comm comm(transport);
      workload(comm);
      socket_total.fetch_add(transport.stats().injected.total());
    });
  }
  for (auto& t : threads) t.join();
  remove_mesh_dir(dir);
  EXPECT_EQ(socket_total.load(), inproc_total);
  EXPECT_GT(inproc_total, 0u);
}

// ---- both backends: a gap whose frame was evicted ends the job -------------

TEST(FaultRecovery, EvictedGapIsNeverSkipped) {
  // A one-frame send log: a dropped frame is evicted by the next send, so its
  // gap can never be repaired. The receiver must fail naming the sender, not
  // consume a later frame in its place.
  dc::TransportTuning tuning;
  tuning.faults.drop = 0.3;
  tuning.faults.seed = 23;
  tuning.retransmit_window = 1;
  const auto workload = [](dc::Comm& comm) {
    constexpr int kTag = 3;
    if (comm.rank() == 0) {
      for (int i = 0; i < 200; ++i) comm.send_value<int>(1, kTag, i);
      return;
    }
    for (int i = 0; i < 100; ++i) {
      const int v = comm.recv_value<int>(0, kTag);
      EXPECT_EQ(v, i) << "value read at index " << i;
      if (v != i) return;
    }
  };
  const auto expect_fault_naming_rank0 = [](const char* backend,
                                            const std::function<void()>& run) {
    try {
      run();
      ADD_FAILURE() << backend << ": expected CommFault";
    } catch (const dc::CommFault& e) {
      EXPECT_EQ(e.rank(), 0) << backend << ": " << e.what();
    }
  };
  expect_fault_naming_rank0("in-process", [&] {
    (void)dc::Runtime::run(2, workload, tuning);
  });
  expect_fault_naming_rank0("socket",
                            [&] { run_socket_ranks(2, tuning, workload); });
}

// ---- socket mesh: typed failure kinds (satellite bugfix) -------------------

TEST(SocketTransport, PeerExitRaisesPeerExitedNotStalled) {
  // Rank 1 leaves immediately; rank 0 blocks on a frame that will never
  // come. Once rank 1's endpoint closes, rank 0 must get the *crash*
  // diagnosis (peer_exited), not a watchdog stall verdict.
  dc::TransportTuning tuning;
  tuning.watchdog_timeout_ms = 30'000;  // watchdog armed but must not fire
  std::atomic<int> kind{-1};
  std::atomic<int> accused{-1};
  run_socket_ranks(
      2, tuning,
      [&](dc::Comm& comm) {
        if (comm.rank() == 1) return;  // exits; destructor says bye and closes
        try {
          (void)comm.recv<int>(1, 3);
          ADD_FAILURE() << "recv from an exited peer returned data";
        } catch (const dc::CommFault& f) {
          kind.store(static_cast<int>(f.kind()));
          accused.store(f.rank());
        }
      },
      /*linger_ms=*/200);
  EXPECT_EQ(kind.load(), static_cast<int>(dc::CommFault::Kind::kPeerExited));
  EXPECT_EQ(accused.load(), 1);
}

// ---- CLI / launcher round trips through real forked workers ----------------

struct CliResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr interleaved
};

CliResult run_cli(const std::string& args) {
  const std::string cmd = std::string(DINFOMAP_CLI_BIN) + " " + args + " 2>&1";
  CliResult res;
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << cmd;
  if (pipe == nullptr) return res;
  char buf[512];
  while (fgets(buf, sizeof(buf), pipe) != nullptr) res.output += buf;
  const int status = pclose(pipe);
  res.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return res;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Shared fixture graph + per-test scratch names under one temp dir.
class TransportCli : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new std::string(make_mesh_dir());
    edges_ = new std::string(*dir_ + "/ring.txt");
    const auto gen = run_cli("generate ring " + *edges_ + " 7");
    ASSERT_EQ(gen.exit_code, 0) << gen.output;
  }
  static void TearDownTestSuite() {
    // The suite scatters .clu / graph files through the scratch dir; sweep
    // them all before removing it.
    if (DIR* d = ::opendir(dir_->c_str())) {
      while (dirent* e = ::readdir(d)) {
        const std::string name = e->d_name;
        if (name != "." && name != "..") ::unlink((*dir_ + "/" + name).c_str());
      }
      ::closedir(d);
    }
    remove_mesh_dir(*dir_);
    delete dir_;
    delete edges_;
  }
  static std::string* dir_;
  static std::string* edges_;
};
std::string* TransportCli::dir_ = nullptr;
std::string* TransportCli::edges_ = nullptr;

/// Pull the one-line run summary ("distributed Infomap (p=...): L = ...")
/// out of CLI output — the cross-backend contract line.
std::string summary_line(const std::string& output) {
  std::istringstream in(output);
  std::string line;
  while (std::getline(in, line))
    if (line.find("distributed Infomap") != std::string::npos) return line;
  return {};
}

TEST_F(TransportCli, SocketBackendIsBitIdenticalToInproc) {
  const std::string a = *dir_ + "/inproc.clu";
  const std::string b = *dir_ + "/socket.clu";
  const std::string flags = " --algo dist --ranks 4 --seed 9";
  const auto inproc = run_cli("cluster " + *edges_ + " " + a + flags);
  ASSERT_EQ(inproc.exit_code, 0) << inproc.output;
  const auto socket =
      run_cli("cluster " + *edges_ + " " + b + flags + " --transport socket");
  ASSERT_EQ(socket.exit_code, 0) << socket.output;

  // Same partition, bit for bit, and the same printed MDL summary.
  const std::string clu_a = read_file(a);
  ASSERT_FALSE(clu_a.empty());
  EXPECT_EQ(clu_a, read_file(b));
  EXPECT_FALSE(summary_line(inproc.output).empty());
  EXPECT_EQ(summary_line(inproc.output), summary_line(socket.output));
}

TEST_F(TransportCli, SocketFaultPlanRecoversToIdenticalBitsAtFourRanks) {
  const std::string clean = *dir_ + "/clean.clu";
  const std::string faulty = *dir_ + "/faulty.clu";
  const std::string flags =
      " --algo dist --ranks 4 --seed 9 --transport socket";
  const auto base = run_cli("cluster " + *edges_ + " " + clean + flags);
  ASSERT_EQ(base.exit_code, 0) << base.output;
  const auto chaos = run_cli(
      "cluster " + *edges_ + " " + faulty + flags +
      " --faults drop=0.02,dup=0.02,reorder=0.02,corrupt=0.02");
  ASSERT_EQ(chaos.exit_code, 0) << chaos.output;

  EXPECT_EQ(read_file(clean), read_file(faulty));
  EXPECT_EQ(summary_line(base.output), summary_line(chaos.output));
  // The plan must actually have fired (recovery is doing real work here).
  EXPECT_NE(chaos.output.find("faults injected"), std::string::npos)
      << chaos.output;
}

/// The run-report sections the cross-transport contract covers, one line
/// each as RunReport::to_json writes them: levels, round_codelengths, the
/// stage-1 rounds and stage-2 levels, per-phase work, stage_work, comm and
/// faults_injected. Wall-clock fields are stripped. Under a fault plan the
/// receivers' recovery tallies are stripped too: how many retransmits a lost
/// or reordered frame costs depends on when frames arrive, so they vary run
/// to run on either transport.
std::vector<std::string> contract_sections(const std::string& report,
                                           bool faults) {
  static const std::array<std::string, 8> kKeys = {
      "\"levels\":", "\"round_codelengths\":", "\"stage1\":", "\"stage2\":",
      "\"phases\":", "\"stage_work\":", "\"comm\":", "\"faults_injected\":"};
  static const std::regex kSeconds(
      R"re(, "(wall_)?seconds": (\[[^\]]*\]|[^,}]*))re");
  static const std::regex kRecovery(
      R"re(, "(retransmit_requests|retransmits|dup_frames_dropped|checksum_failures)": [0-9]+)re");
  std::vector<std::string> out;
  std::istringstream in(report);
  std::string line;
  // The sections appear in kKeys order; matching the next expected key only
  // keeps the profile digest's own "phases" line out.
  while (out.size() < kKeys.size() && std::getline(in, line)) {
    const std::string& key = kKeys[out.size()];
    if (line.rfind(key, 0) != 0) continue;
    line = std::regex_replace(line, kSeconds, "");
    if (faults && key == "\"comm\":")
      line = std::regex_replace(line, kRecovery, "");
    out.push_back(line);
  }
  return out;
}

TEST_F(TransportCli, ReportSectionsMatchAcrossTransports) {
  const std::string plan =
      " --faults drop=0.01,dup=0.01,reorder=0.01,corrupt=0.01";
  for (const bool faults : {false, true}) {
    const std::string flags = " --algo dist --ranks 4 --seed 7" +
                              (faults ? plan : std::string());
    std::vector<std::string> sections[2];
    for (const int socket : {0, 1}) {
      const std::string stem =
          *dir_ + "/sections_" + std::to_string(faults) + std::to_string(socket);
      const auto run = run_cli(
          "cluster " + *edges_ + " " + stem + ".clu" + flags + " --report " +
          stem + ".json" + (socket ? " --transport socket" : ""));
      ASSERT_EQ(run.exit_code, 0) << run.output;
      sections[socket] = contract_sections(read_file(stem + ".json"), faults);
      ASSERT_EQ(sections[socket].size(), 8u) << "faults=" << faults;
    }
    for (std::size_t i = 0; i < sections[0].size(); ++i)
      EXPECT_EQ(sections[0][i], sections[1][i]) << "faults=" << faults;
    if (faults) {  // the plan fired: the tallies carry nonzero drops
      EXPECT_TRUE(std::regex_search(sections[0].back(),
                                    std::regex(R"re("drops": [1-9])re")))
          << sections[0].back();
    }
  }
}

TEST_F(TransportCli, KilledWorkerIsDiagnosedAsCrashNotHang) {
  const auto res = run_cli("cluster " + *edges_ + " " + *dir_ +
                           "/x.clu --algo dist --ranks 4 --seed 9 "
                           "--transport socket --faults exit=2 "
                           "--watchdog-ms 1500 --hang-grace-ms 4000");
  EXPECT_EQ(res.exit_code, 1) << res.output;
  EXPECT_NE(res.output.find("rank 2 crashed"), std::string::npos)
      << res.output;
  // Peers must report the typed peer_exited fault, not a watchdog stall.
  EXPECT_NE(res.output.find("exited with no matching frame"),
            std::string::npos)
      << res.output;
}

TEST_F(TransportCli, StalledWorkerIsDiagnosedAsHang) {
  const auto res = run_cli("cluster " + *edges_ + " " + *dir_ +
                           "/y.clu --algo dist --ranks 4 --seed 9 "
                           "--transport socket --faults stall=1 "
                           "--watchdog-ms 1000 --hang-grace-ms 1500");
  EXPECT_EQ(res.exit_code, 1) << res.output;
  EXPECT_NE(res.output.find("rank 1 stalled"), std::string::npos)
      << res.output;
}

TEST_F(TransportCli, RejectsMalformedNumericArguments) {
  const std::string base = "cluster " + *edges_ + " " + *dir_ + "/z.clu ";
  const struct {
    const char* args;
    const char* expect;  // substring the error must name
  } cases[] = {
      {"--ranks abc", "--ranks"},
      {"--ranks 0", "--ranks"},
      {"--ranks -3", "--ranks"},
      {"--ranks 99999999999999999999", "--ranks"},
      {"--seed -3", "--seed"},
      {"--seed 1x", "--seed"},
      {"--threads 1.5", "--threads"},
      {"--watchdog-ms nope", "--watchdog-ms"},
      {"--transport pigeon", "--transport"},
  };
  for (const auto& c : cases) {
    const auto res = run_cli(base + c.args);
    EXPECT_EQ(res.exit_code, 2) << c.args << "\n" << res.output;
    EXPECT_NE(res.output.find("error:"), std::string::npos) << c.args;
    EXPECT_NE(res.output.find(c.expect), std::string::npos)
        << c.args << "\n" << res.output;
  }
}

TEST_F(TransportCli, RelaxMapBannerReportsThreadCount) {
  // --threads sets RelaxMap's worker count; the banner must print that
  // count, not the rank count.
  const auto res = run_cli("cluster " + *edges_ + " " + *dir_ +
                           "/r.clu --algo relaxmap --ranks 4 --threads 2");
  EXPECT_EQ(res.exit_code, 0) << res.output;
  EXPECT_NE(res.output.find("RelaxMap (2 threads)"), std::string::npos)
      << res.output;
}

TEST_F(TransportCli, ThreadsAboveOneRequireRelaxMap) {
  // Only RelaxMap runs on threads; every other engine must refuse a thread
  // count it would silently ignore.
  const std::string base = "cluster " + *edges_ + " " + *dir_ + "/t.clu ";
  for (const char* algo : {"seq", "dist", "louvain", "lpa", "hier"}) {
    const auto res = run_cli(base + "--threads 2 --algo " + algo);
    EXPECT_EQ(res.exit_code, 2) << algo << "\n" << res.output;
    EXPECT_NE(res.output.find("requires --algo relaxmap"), std::string::npos)
        << algo << "\n" << res.output;
  }
  EXPECT_EQ(run_cli(base + "--threads 1 --algo seq").exit_code, 0);
}

TEST_F(TransportCli, RejectsUnknownAlgoBeforeReadingInput) {
  // The input path does not exist: a usage error (exit 2) naming the value,
  // rather than a read failure (exit 1), shows the check runs before any I/O.
  const std::string base =
      "cluster " + *dir_ + "/missing.txt " + *dir_ + "/a.clu --algo ";
  for (const char* algo : {"dist-louvain", "bogus"}) {
    const auto res = run_cli(base + algo);
    EXPECT_EQ(res.exit_code, 2) << algo << "\n" << res.output;
    EXPECT_NE(res.output.find(std::string("'") + algo + "'"), std::string::npos)
        << algo << "\n" << res.output;
  }
}

TEST_F(TransportCli, RejectsInvalidFaultPlansAtConfigTime) {
  const std::string base = "cluster " + *edges_ + " " + *dir_ + "/z.clu ";
  const struct {
    const char* args;
    const char* expect;
  } cases[] = {
      {"--faults drop=1.5", "drop"},
      {"--faults drop=0.6,dup=0.5", "sum"},
      {"--faults stall=99 --ranks 4", "stall rank 99"},
      {"--faults stall=abc", "--faults stall"},
      {"--faults bogus=1", "unknown key"},
      {"--faults drop", "key=value"},
      {"--faults exit=1", "--transport socket"},
  };
  for (const auto& c : cases) {
    const auto res = run_cli(base + c.args);
    EXPECT_EQ(res.exit_code, 2) << c.args << "\n" << res.output;
    EXPECT_NE(res.output.find(c.expect), std::string::npos)
        << c.args << "\n" << res.output;
  }
}

TEST(SocketTransport, WatchdogConvictsSilentLivePeerAsStalled) {
  // Rank 0 is alive but silent (its endpoint stays open) — the local
  // watchdog must convict with the *hang* diagnosis.
  dc::TransportTuning tuning;
  tuning.watchdog_timeout_ms = 250;
  std::atomic<int> kind{-1};
  std::atomic<int> accused{-1};
  run_socket_ranks(2, tuning, [&](dc::Comm& comm) {
    if (comm.rank() == 0) {
      // Stay alive well past the peer's verdict, sending nothing.
      // dlint:allow(sleep-sync): the silent-but-alive window is the scenario
      std::this_thread::sleep_for(std::chrono::milliseconds(700));
      return;
    }
    try {
      (void)comm.recv<int>(0, 3);
      ADD_FAILURE() << "recv from a silent peer returned data";
    } catch (const dc::CommFault& f) {
      kind.store(static_cast<int>(f.kind()));
      accused.store(f.rank());
    }
  });
  EXPECT_EQ(kind.load(), static_cast<int>(dc::CommFault::Kind::kStalled));
  EXPECT_EQ(accused.load(), 0);
}
