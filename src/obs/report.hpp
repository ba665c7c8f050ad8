// Structured run report: one JSON document per distributed_infomap call that
// captures everything the paper's evaluation plots need — config echo,
// per-level and per-round exact codelengths, per-phase/per-rank work and
// wall seconds, per-rank comm counters, metrics dumps, and the watchdog's
// anomaly list. Benches consume this instead of re-accumulating counters by
// hand; `schema` versions the layout.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "comm/counters.hpp"
#include "comm/fault.hpp"
#include "obs/profile.hpp"
#include "obs/watchdog.hpp"
#include "perf/work_counters.hpp"

namespace dinfomap::obs {

inline constexpr const char* kRunReportSchema = "dinfomap.run_report/1";

struct RunReport {
  std::string schema = kRunReportSchema;
  std::string algorithm = "distributed_infomap";

  /// Config echo as (key, raw-JSON value) pairs in insertion order; use the
  /// add_config helpers so values are valid JSON.
  std::vector<std::pair<std::string, std::string>> config;

  std::uint64_t graph_vertices = 0;
  std::uint64_t graph_edges = 0;
  int num_ranks = 0;

  double codelength = 0;
  double singleton_codelength = 0;
  std::uint64_t num_modules = 0;

  /// One row per outer level (level 0 = stage 1 with delegates).
  struct LevelRow {
    int level = 0;
    std::uint64_t vertices = 0;
    int rounds = 0;
    std::uint64_t moves = 0;
    double codelength_before = 0;
    double codelength_after = 0;
    std::uint64_t num_modules = 0;
    /// Why the level's loop stopped: no_moves | overshoot | small_gain |
    /// max_rounds.
    std::string stop;
  };
  std::vector<LevelRow> levels;

  /// Exact global L after every stage-1 round (the Fig. 4 series).
  std::vector<double> round_codelengths;

  int stage1_rounds = 0;
  int stage2_levels = 0;
  /// Why stage 2 ended: merged_nothing | small_gain | max_levels.
  std::string stage2_ended_by;
  double stage1_wall_seconds = 0;
  double stage2_wall_seconds = 0;

  /// Per-phase per-rank work and wall seconds (the Fig. 8 inputs).
  struct PhaseRow {
    std::string name;
    std::vector<perf::WorkCounters> work;  ///< indexed by rank
    std::vector<double> seconds;           ///< indexed by rank
  };
  std::vector<PhaseRow> phases;

  /// Per-rank totals split by stage (the two Fig. 9 series).
  std::array<std::vector<perf::WorkCounters>, 2> stage_work;

  std::vector<comm::CommCounters> comm;  ///< indexed by rank

  /// Faults the plan injected, indexed by source rank (empty without a plan).
  std::vector<comm::FaultCounters> faults_injected;

  /// Per-rank metrics registry dumps, already JSON (MetricsRegistry::to_json).
  std::vector<std::string> metrics_json;

  std::vector<Anomaly> anomalies;

  /// Causal profile digest (DESIGN.md §13); only meaningful when
  /// `has_profile` — emitted as `"profile": null` otherwise.
  ProfileDigest profile;
  bool has_profile = false;

  // ---- config echo helpers ----------------------------------------------
  void add_config(const std::string& key, const std::string& value);
  void add_config(const std::string& key, const char* value);
  void add_config(const std::string& key, double value);
  void add_config(const std::string& key, std::int64_t value);
  void add_config(const std::string& key, int value) {
    add_config(key, static_cast<std::int64_t>(value));
  }
  void add_config(const std::string& key, std::uint64_t value);
  void add_config(const std::string& key, bool value);

  /// The full document as JSON.
  [[nodiscard]] std::string to_json() const;
  /// Write to_json() to `path`; returns false (and logs a warning) on I/O
  /// failure.
  bool write(const std::string& path) const;
};

}  // namespace dinfomap::obs
