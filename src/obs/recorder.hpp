// Per-run flight recorder: one trace track, one metrics registry, one round
// stream, and one anomaly list per rank, behind a single master switch.
//
// Threading contract: rank r's thread is the only writer of track(r),
// metrics(r), the rank-r round stream, and the rank-r anomaly list, so no
// recording path takes a lock. The driver reads everything after the job
// joins (and the post-run watchdog appends to the global anomaly list from a
// single thread).
#pragma once

#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"

namespace dinfomap::obs {

struct ObsOptions {
  /// Master switch. Off (the default) keeps the recorder allocation-light
  /// and every instrumentation site a dead branch.
  bool enabled = false;
  /// Record trace events (spans, instants, counters) when enabled.
  bool trace = true;
  /// Run the invariant watchdog over the round stream when enabled.
  bool watchdog = true;
  WatchdogOptions watchdog_options;
  /// When non-empty, the driver writes the Chrome/Perfetto trace JSON here.
  std::string trace_path;
  /// When non-empty, the driver writes the run-report JSON here.
  std::string report_path;
  /// When non-empty, the driver writes the standalone profile-digest JSON
  /// here (the digest is also embedded in the run report either way).
  std::string profile_path;
  /// Pin the trace epoch to this steady-clock reading (ns since the clock's
  /// origin); 0 = the recorder's construction time. Socket-transport workers
  /// all receive the launcher's reading so their per-process traces merge
  /// onto one timeline (obs/trace_merge.hpp).
  std::uint64_t trace_epoch_steady_ns = 0;
};

class Recorder {
 public:
  Recorder(int num_ranks, const ObsOptions& options);

  [[nodiscard]] const ObsOptions& options() const { return options_; }
  [[nodiscard]] bool enabled() const { return options_.enabled; }
  [[nodiscard]] int num_ranks() const { return num_ranks_; }

  [[nodiscard]] Trace& trace() { return trace_; }
  [[nodiscard]] const Trace& trace() const { return trace_; }
  /// Rank r's trace track; nullptr when tracing is off (SpanScope accepts
  /// null, so call sites never branch).
  [[nodiscard]] TraceBuffer* track(int rank) {
    return options_.enabled && options_.trace ? &trace_.track(rank) : nullptr;
  }
  /// Rank r's metrics registry; nullptr when the recorder is disabled.
  [[nodiscard]] MetricsRegistry* metrics(int rank) {
    return options_.enabled ? &metrics_[static_cast<std::size_t>(rank)]
                            : nullptr;
  }
  [[nodiscard]] const std::vector<MetricsRegistry>& all_metrics() const {
    return metrics_;
  }

  /// Append one round observation to rank `rank`'s stream (no-op when
  /// disabled).
  void record_round(int rank, const RoundSample& sample) {
    if (!options_.enabled) return;
    rounds_[static_cast<std::size_t>(rank)].push_back(sample);
  }
  [[nodiscard]] const std::vector<std::vector<RoundSample>>& round_streams()
      const {
    return rounds_;
  }

  /// Report an invariant violation found outside the round stream, charged to
  /// rank `rank` (e.g. the blocks backend's cache_thrash). Also mirrored into
  /// the rank's trace track as an instant event and onto the log as a warning.
  void report_anomaly(int rank, Anomaly anomaly);

  /// Build the causal profile digest from the trace and fold the profile
  /// watchdog rules (wait_dominated, straggler_skew) into the anomaly list.
  /// Call once, after the job joins and BEFORE finish_watchdog(): mirrored
  /// anomaly instants carry post-run timestamps that must not enter the
  /// digest's wall-clock window.
  void finish_profile();
  /// The digest finish_profile() built, or nullptr when tracing was off or
  /// finish_profile() has not run.
  [[nodiscard]] const ProfileDigest* profile() const {
    return profile_built_ ? &profile_ : nullptr;
  }

  /// Run the watchdog over the recorded round stream and fold its findings
  /// into the anomaly list. Call once, after the job joins.
  void finish_watchdog();

  /// All anomalies: per-rank inline reports (rank order) followed by
  /// watchdog findings.
  [[nodiscard]] std::vector<Anomaly> anomalies() const;

 private:
  ObsOptions options_;
  int num_ranks_;
  Trace trace_;
  std::vector<MetricsRegistry> metrics_;
  std::vector<std::vector<RoundSample>> rounds_;
  std::vector<std::vector<Anomaly>> rank_anomalies_;
  std::vector<Anomaly> global_anomalies_;
  bool profile_built_ = false;
  ProfileDigest profile_;
};

}  // namespace dinfomap::obs
