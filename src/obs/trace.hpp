// Flight-recorder tracing: cheap per-rank event buffers and a Chrome
// trace-event (Perfetto-loadable) JSON exporter.
//
// Each rank owns one TraceBuffer and is its only writer, so recording is a
// plain vector append with no synchronization; the exporter runs after the
// job joins. When tracing is disabled the per-span cost is a single branch on
// a bool captured once at SpanScope construction — recording never touches
// the algorithm's RNG or communication, so traced and untraced runs produce
// bit-identical results (asserted by the obs determinism regression, which
// runs under a seeded fault plan).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace dinfomap::obs {

/// One recorded event. `name` must point at static-duration storage (phase
/// names, literal tags) — buffers store the pointer, not a copy.
struct TraceEvent {
  enum class Kind : std::uint8_t {
    kBegin,    ///< span open
    kEnd,      ///< span close (matches the innermost open span)
    kInstant,  ///< point event (anomalies, markers)
    kCounter,  ///< sampled numeric series
    // Causal events (DESIGN.md §13). Flow events pair the nth send on a
    // (src, dst, tag) channel with the nth consumed receive — valid because
    // per-(source, tag) consumption order equals send order both fault-free
    // (FIFO mailbox) and under recovery (ordinals consumed in order).
    kFlowSend,          ///< message departure; peer = dest, tag + ordinal
    kFlowRecv,          ///< message consumption; peer = source, tag + ordinal
    kCollectiveArrive,  ///< rank enters a leaf collective; tag identifies it
    kCollectiveDepart,  ///< rank leaves that collective
  };
  Kind kind = Kind::kInstant;
  const char* name = "";
  double ts_us = 0;   ///< microseconds since the trace epoch
  double value = 0;   ///< kCounter payload; unused otherwise
  std::int32_t peer = -1;     ///< flow events: the other endpoint's rank
  std::int32_t tag = -1;      ///< flow events / collectives: message tag
  std::uint64_t ordinal = 0;  ///< flow events: per-(peer, tag) send/recv index
};

/// Single-writer event buffer for one rank (one track in the exported trace).
class TraceBuffer {
 public:
  using Clock = std::chrono::steady_clock;

  TraceBuffer() = default;

  /// Bind to the trace epoch and arm/disarm recording. Called once by the
  /// owning Trace before any rank runs.
  void attach(Clock::time_point epoch, bool enabled) {
    epoch_ = epoch;
    enabled_ = enabled;
  }

  [[nodiscard]] bool enabled() const { return enabled_; }

  void begin(const char* name) { push(TraceEvent::Kind::kBegin, name, 0); }
  void end(const char* name) { push(TraceEvent::Kind::kEnd, name, 0); }
  void instant(const char* name) { push(TraceEvent::Kind::kInstant, name, 0); }
  void counter(const char* name, double value) {
    push(TraceEvent::Kind::kCounter, name, value);
  }

  /// Stamp the departure of the `ordinal`-th message this rank sends on the
  /// (this rank → peer, tag) channel. Exported as a Perfetto flow start.
  void flow_send(int peer, int tag, std::uint64_t ordinal) {
    push_causal(TraceEvent::Kind::kFlowSend, "msg", peer, tag, ordinal);
  }
  /// Stamp the consumption of the `ordinal`-th message received on the
  /// (peer → this rank, tag) channel. Exported as a Perfetto flow finish.
  void flow_recv(int peer, int tag, std::uint64_t ordinal) {
    push_causal(TraceEvent::Kind::kFlowRecv, "msg", peer, tag, ordinal);
  }
  /// Stamp entry/exit of a leaf collective (`op` = "barrier", "alltoallv",
  /// …; `tag` is the collective tag, identical across ranks per call site).
  void collective_arrive(const char* op, int tag) {
    push_causal(TraceEvent::Kind::kCollectiveArrive, op, -1, tag, 0);
  }
  void collective_depart(const char* op, int tag) {
    push_causal(TraceEvent::Kind::kCollectiveDepart, op, -1, tag, 0);
  }

  /// Append a fully caller-built event, bypassing the clock. For synthetic
  /// traces in tests and the post-run anomaly mirror; respects `enabled`.
  void append_raw(const TraceEvent& e) {
    if (enabled_) events_.push_back(e);
  }

  [[nodiscard]] const std::vector<TraceEvent>& events() const { return events_; }

 private:
  void push(TraceEvent::Kind kind, const char* name, double value) {
    if (!enabled_) return;
    TraceEvent e;
    e.kind = kind;
    e.name = name;
    e.ts_us = std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
                  .count();
    e.value = value;
    events_.push_back(e);
  }

  void push_causal(TraceEvent::Kind kind, const char* name, int peer, int tag,
                   std::uint64_t ordinal) {
    if (!enabled_) return;
    TraceEvent e;
    e.kind = kind;
    e.name = name;
    e.ts_us = std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
                  .count();
    e.peer = peer;
    e.tag = tag;
    e.ordinal = ordinal;
    events_.push_back(e);
  }

  bool enabled_ = false;
  Clock::time_point epoch_{};
  std::vector<TraceEvent> events_;
};

/// RAII span. A null buffer (tracing subsystem absent) or a disabled buffer
/// degrades to a no-op — the enabled flag is checked exactly once here.
class SpanScope {
 public:
  SpanScope(TraceBuffer* buf, const char* name)
      : buf_(buf != nullptr && buf->enabled() ? buf : nullptr), name_(name) {
    if (buf_ != nullptr) buf_->begin(name_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  ~SpanScope() {
    if (buf_ != nullptr) buf_->end(name_);
  }

 private:
  TraceBuffer* buf_;
  const char* name_;
};

/// Multi-track trace: one buffer per rank, exported as Chrome trace-event
/// JSON (loadable at ui.perfetto.dev or chrome://tracing). Rank r is thread
/// `tid = r` of process 0, named "rank r".
class Trace {
 public:
  /// `epoch_steady_ns` pins the trace epoch to an absolute steady-clock
  /// reading (nanoseconds since the clock's arbitrary origin); 0 means "now".
  /// Worker processes of one multi-process job are all given the launcher's
  /// reading — CLOCK_MONOTONIC is machine-wide, so their merged per-process
  /// traces share a timeline.
  Trace(int num_tracks, bool enabled, std::uint64_t epoch_steady_ns = 0);

  [[nodiscard]] int num_tracks() const {
    return static_cast<int>(tracks_.size());
  }
  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] TraceBuffer& track(int i) { return tracks_[i]; }
  [[nodiscard]] const TraceBuffer& track(int i) const { return tracks_[i]; }

  /// Chrome trace-event JSON: `{"traceEvents": [...], ...}`. Spans become
  /// B/E pairs, instants "i", counters "C", flow sends/recvs "s"/"f" (the
  /// message arrows between rank tracks), and collective arrive/depart pairs
  /// render as B/E spans named after the collective op.
  [[nodiscard]] std::string to_chrome_json() const;

  /// Write to_chrome_json() to `path`; returns false (and logs a warning) on
  /// I/O failure.
  bool write(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<TraceBuffer> tracks_;
};

}  // namespace dinfomap::obs
