#include "obs/report.hpp"

#include <fstream>
#include <sstream>

#include "util/logging.hpp"

namespace dinfomap::obs {

namespace {

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string quoted(const std::string& s) { return '"' + escape(s) + '"'; }

std::string num(double v) {
  std::ostringstream os;
  os.precision(17);  // round-trip exact; codelengths are compared bitwise
  os << v;
  return os.str();
}

void append_work(std::ostream& os, const perf::WorkCounters& w) {
  os << "{\"arcs_scanned\": " << w.arcs_scanned
     << ", \"delta_evals\": " << w.delta_evals
     << ", \"module_updates\": " << w.module_updates
     << ", \"messages\": " << w.messages << ", \"bytes\": " << w.bytes << "}";
}

void append_work_list(std::ostream& os,
                      const std::vector<perf::WorkCounters>& per_rank) {
  os << '[';
  for (std::size_t r = 0; r < per_rank.size(); ++r) {
    if (r) os << ", ";
    append_work(os, per_rank[r]);
  }
  os << ']';
}

}  // namespace

void RunReport::add_config(const std::string& key, const std::string& value) {
  config.emplace_back(key, quoted(value));
}
void RunReport::add_config(const std::string& key, const char* value) {
  add_config(key, std::string(value));
}
void RunReport::add_config(const std::string& key, double value) {
  config.emplace_back(key, num(value));
}
void RunReport::add_config(const std::string& key, std::int64_t value) {
  config.emplace_back(key, std::to_string(value));
}
void RunReport::add_config(const std::string& key, std::uint64_t value) {
  config.emplace_back(key, std::to_string(value));
}
void RunReport::add_config(const std::string& key, bool value) {
  config.emplace_back(key, value ? "true" : "false");
}

std::string RunReport::to_json() const {
  std::ostringstream os;
  os.precision(17);
  os << "{\n";
  os << "\"schema\": " << quoted(schema) << ",\n";
  os << "\"algorithm\": " << quoted(algorithm) << ",\n";

  os << "\"config\": {";
  for (std::size_t i = 0; i < config.size(); ++i) {
    if (i) os << ", ";
    os << quoted(config[i].first) << ": " << config[i].second;
  }
  os << "},\n";

  os << "\"graph\": {\"vertices\": " << graph_vertices
     << ", \"edges\": " << graph_edges << "},\n";
  os << "\"num_ranks\": " << num_ranks << ",\n";
  os << "\"codelength\": " << num(codelength) << ",\n";
  os << "\"singleton_codelength\": " << num(singleton_codelength) << ",\n";
  os << "\"num_modules\": " << num_modules << ",\n";

  os << "\"levels\": [";
  for (std::size_t i = 0; i < levels.size(); ++i) {
    const LevelRow& lr = levels[i];
    if (i) os << ", ";
    os << "{\"level\": " << lr.level << ", \"vertices\": " << lr.vertices
       << ", \"rounds\": " << lr.rounds << ", \"moves\": " << lr.moves
       << ", \"codelength_before\": " << num(lr.codelength_before)
       << ", \"codelength_after\": " << num(lr.codelength_after)
       << ", \"num_modules\": " << lr.num_modules << "}";
  }
  os << "],\n";

  os << "\"round_codelengths\": [";
  for (std::size_t i = 0; i < round_codelengths.size(); ++i) {
    if (i) os << ", ";
    os << num(round_codelengths[i]);
  }
  os << "],\n";

  os << "\"stage1\": {\"rounds\": " << stage1_rounds
     << ", \"wall_seconds\": " << num(stage1_wall_seconds) << "},\n";
  os << "\"stage2\": {\"levels\": " << stage2_levels
     << ", \"wall_seconds\": " << num(stage2_wall_seconds) << "},\n";

  os << "\"phases\": [";
  for (std::size_t p = 0; p < phases.size(); ++p) {
    const PhaseRow& ph = phases[p];
    if (p) os << ", ";
    os << "{\"name\": " << quoted(ph.name) << ", \"work\": ";
    append_work_list(os, ph.work);
    os << ", \"seconds\": [";
    for (std::size_t r = 0; r < ph.seconds.size(); ++r) {
      if (r) os << ", ";
      os << num(ph.seconds[r]);
    }
    os << "]}";
  }
  os << "],\n";

  os << "\"stage_work\": [";
  append_work_list(os, stage_work[0]);
  os << ", ";
  append_work_list(os, stage_work[1]);
  os << "],\n";

  os << "\"comm\": [";
  for (std::size_t r = 0; r < comm.size(); ++r) {
    if (r) os << ", ";
    os << "{\"p2p_messages\": " << comm[r].p2p_messages
       << ", \"p2p_bytes\": " << comm[r].p2p_bytes
       << ", \"collective_messages\": " << comm[r].collective_messages
       << ", \"collective_bytes\": " << comm[r].collective_bytes
       << ", \"collective_calls\": " << comm[r].collective_calls
       << ", \"packed_streams\": " << comm[r].packed_streams
       << ", \"retransmit_requests\": " << comm[r].retransmit_requests
       << ", \"retransmits\": " << comm[r].retransmits
       << ", \"dup_frames_dropped\": " << comm[r].dup_frames_dropped
       << ", \"checksum_failures\": " << comm[r].checksum_failures << "}";
  }
  os << "],\n";

  os << "\"faults_injected\": [";
  for (std::size_t r = 0; r < faults_injected.size(); ++r) {
    if (r) os << ", ";
    os << "{\"drops\": " << faults_injected[r].drops
       << ", \"duplicates\": " << faults_injected[r].duplicates
       << ", \"reorders\": " << faults_injected[r].reorders
       << ", \"corruptions\": " << faults_injected[r].corruptions
       << ", \"stalls\": " << faults_injected[r].stalls << "}";
  }
  os << "],\n";

  os << "\"metrics\": [";
  for (std::size_t r = 0; r < metrics_json.size(); ++r) {
    if (r) os << ", ";
    os << (metrics_json[r].empty() ? "{}" : metrics_json[r]);
  }
  os << "],\n";

  os << "\"profile\": ";
  if (has_profile) {
    std::string p = profile.to_json();
    while (!p.empty() && p.back() == '\n') p.pop_back();
    os << p;
  } else {
    os << "null";
  }
  os << ",\n";

  os << "\"anomalies\": [";
  for (std::size_t i = 0; i < anomalies.size(); ++i) {
    const Anomaly& a = anomalies[i];
    if (i) os << ", ";
    os << "{\"rank\": " << a.rank << ", \"level\": " << a.level
       << ", \"round\": " << a.round << ", \"kind\": " << quoted(a.kind)
       << ", \"detail\": " << quoted(a.detail) << "}";
  }
  os << "]\n}\n";
  return os.str();
}

bool RunReport::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    LOG_WARN << "run report: cannot open " << path << " for writing";
    return false;
  }
  out << to_json();
  return static_cast<bool>(out);
}

}  // namespace dinfomap::obs
