// Deterministic fault injection for the comm substrate, and the typed error
// surfaced when recovery fails.
//
// The paper's implementation ran on Titan, where any MPI fault kills the job;
// this layer models the opposite regime: a lossy, duplicating, corrupting,
// reordering transport with the occasional frozen rank. Every transport frame
// rolls seeded dice keyed by (seed, source, dest, seq) — the plan is a pure
// function of the channel position, so a given (plan, program) pair injects
// the same faults on every run regardless of thread interleaving. Recovery
// (seq dedup, checksum verification, retransmit from the per-channel send
// log) is the receiver's job in comm.cpp; the contract, asserted by
// tests/test_comm_faults.cpp, is that recovery is *transparent*: the
// algorithm's results are bit-identical to the fault-free run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "comm/message.hpp"

namespace dinfomap::comm {

/// Unrecoverable transport failure: retry budget exhausted, a corrupt frame
/// whose pristine copy was already evicted from the send log, or a liveness
/// verdict against a peer. Carries the peer rank and tag involved so
/// failures under fault injection are diagnosable (rank < 0 when unknown),
/// plus a Kind so a launcher can tell a hang from a crash:
///  * kStalled — the peer is alive but frozen (watchdog conviction);
///  * kPeerExited — the peer's process/connection is *gone* (socket EOF with
///    no matching frame queued), which only the multi-process backend can
///    observe.
class CommFault : public std::runtime_error {
 public:
  enum class Kind {
    kTransport,   ///< recovery failure on a live channel
    kStalled,     ///< watchdog verdict: peer alive but making no progress
    kPeerExited,  ///< peer process died (connection EOF) — crash, not hang
  };

  CommFault(const std::string& what, int rank = -1, int tag = -1,
            Kind kind = Kind::kTransport)
      : std::runtime_error(what), rank_(rank), tag_(tag), kind_(kind) {}
  /// The peer rank the failure implicates (the stalled or silent rank).
  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int tag() const { return tag_; }
  [[nodiscard]] Kind kind() const { return kind_; }

 private:
  int rank_;
  int tag_;
  Kind kind_;
};

/// Seeded per-message fault plan. Probabilities are evaluated as one cascade
/// (at most one fault per frame), so their sum must stay <= 1.
struct FaultPlan {
  double drop = 0;       ///< frame never delivered (send log retains it)
  double duplicate = 0;  ///< frame delivered twice
  double reorder = 0;    ///< frame held and delivered after the channel's next
  double corrupt = 0;    ///< delivered copy has one payload byte flipped
  /// Rank to freeze mid-send (-1 = none): once it has issued
  /// `stall_after_sends` remote sends it sleeps until the job aborts —
  /// the watchdog's prey.
  int stall_rank = -1;
  std::uint64_t stall_after_sends = 0;
  /// Socket backend only: the stalled rank *exits* instead of freezing,
  /// modelling a crashed worker. Peers observe connection EOF and raise
  /// CommFault{kPeerExited} rather than a watchdog stall verdict. Rejected
  /// by validate_fault_plan for the in-process backend, where there is no
  /// process to kill.
  bool stall_exits = false;
  std::uint64_t seed = 1;

  [[nodiscard]] bool any() const {
    return drop > 0 || duplicate > 0 || reorder > 0 || corrupt > 0 ||
           stall_rank >= 0;
  }
};

/// A fault plan that is malformed *as configuration* — distinct from
/// CommFault (a transport failure at runtime) so CLIs can reject the plan
/// before any rank starts.
class FaultPlanError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Validate `plan` against a rank count. Throws FaultPlanError naming the
/// offending field when a rate falls outside [0, 1], the cascade sum exceeds
/// 1, the stall rank is out of [0, nranks), or stall_exits is set with no
/// stall rank. Call with nranks <= 0 to skip the rank-bound check (rank
/// count not known yet).
inline void validate_fault_plan(const FaultPlan& plan, int nranks) {
  const auto check_rate = [](double v, const char* name) {
    if (!(v >= 0.0 && v <= 1.0))
      throw FaultPlanError("fault plan: " + std::string(name) + " rate " +
                           std::to_string(v) + " outside [0, 1]");
  };
  check_rate(plan.drop, "drop");
  check_rate(plan.duplicate, "dup");
  check_rate(plan.reorder, "reorder");
  check_rate(plan.corrupt, "corrupt");
  if (plan.drop + plan.duplicate + plan.reorder + plan.corrupt > 1.0)
    throw FaultPlanError(
        "fault plan: probabilities form one cascade; their sum must stay <= "
        "1");
  if (plan.stall_rank < -1)
    throw FaultPlanError("fault plan: stall rank " +
                         std::to_string(plan.stall_rank) + " is negative");
  if (nranks > 0 && plan.stall_rank >= nranks)
    throw FaultPlanError("fault plan: stall rank " +
                         std::to_string(plan.stall_rank) +
                         " out of range for " + std::to_string(nranks) +
                         " ranks (valid: 0.." + std::to_string(nranks - 1) +
                         ")");
  if (plan.stall_exits && plan.stall_rank < 0)
    throw FaultPlanError(
        "fault plan: stall-exit mode needs a stall rank (stall=R)");
}

/// Injected-fault tallies, kept per source rank so the run report can show
/// that a plan actually fired.
struct FaultCounters {
  std::uint64_t drops = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t reorders = 0;
  std::uint64_t corruptions = 0;
  std::uint64_t stalls = 0;

  FaultCounters& operator+=(const FaultCounters& other) {
    drops += other.drops;
    duplicates += other.duplicates;
    reorders += other.reorders;
    corruptions += other.corruptions;
    stalls += other.stalls;
    return *this;
  }

  [[nodiscard]] std::uint64_t total() const {
    return drops + duplicates + reorders + corruptions + stalls;
  }
};

/// SplitMix64 output mixer.
[[nodiscard]] inline std::uint64_t splitmix64(std::uint64_t z) {
  z += 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Map a mixed 64-bit word to [0, 1).
[[nodiscard]] inline double unit_interval(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// The one fault (if any) a frame draws from the cascade.
enum class FaultAction { kNone, kDrop, kDuplicate, kReorder, kCorrupt };

/// A frame's dice roll plus the mixed word that produced it (corrupt_frame
/// reuses the word to pick the damaged byte).
struct FaultRoll {
  FaultAction action = FaultAction::kNone;
  std::uint64_t mix = 0;
};

/// Roll the cascade for frame `seq` on channel src→dest. A pure function of
/// (seed, src, dest, seq) — both transport backends call this, so a given
/// plan injects the *same* fault stream whether ranks are threads or
/// processes, which is what keeps results bit-identical across backends.
[[nodiscard]] inline FaultRoll roll_fault(const FaultPlan& plan, int src,
                                          int dest, std::uint64_t seq) {
  const std::uint64_t key = splitmix64(
      plan.seed ^
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 40) ^
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(dest)) << 20));
  const std::uint64_t h = splitmix64(key ^ seq);
  double u = unit_interval(h);
  if (u < plan.drop) return {FaultAction::kDrop, h};
  if ((u -= plan.drop) < plan.duplicate) return {FaultAction::kDuplicate, h};
  if ((u -= plan.duplicate) < plan.reorder) return {FaultAction::kReorder, h};
  if ((u -= plan.reorder) < plan.corrupt) return {FaultAction::kCorrupt, h};
  return {FaultAction::kNone, h};
}

/// Damage the wire copy of a frame the cascade marked kCorrupt: flip one
/// payload bit at a seeded position, or the checksum field when the payload
/// is empty. The sender's log keeps the pristine frame.
inline void corrupt_frame(Message& m, std::uint64_t h) {
  if (!m.payload.empty()) {
    const auto pos = splitmix64(h ^ 0x5bd1e995ULL) % m.payload.size();
    m.payload[pos] ^= std::byte{0x40};
  } else {
    m.checksum ^= 0x40;
  }
}

/// FNV-1a over the frame header and payload. Seeding the hash with
/// (source, tag, seq) means a frame misfiled under the wrong identity also
/// fails verification, not just payload bit flips.
[[nodiscard]] inline std::uint64_t frame_checksum(int source, int tag,
                                                  std::uint64_t seq,
                                                  const std::byte* data,
                                                  std::size_t size) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto eat = [&h](std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ (word & 0xff)) * 0x100000001b3ULL;
      word >>= 8;
    }
  };
  eat(static_cast<std::uint64_t>(static_cast<std::uint32_t>(source)));
  eat(static_cast<std::uint64_t>(static_cast<std::uint32_t>(tag)));
  eat(seq);
  eat(size);
  for (std::size_t i = 0; i < size; ++i)
    h = (h ^ static_cast<std::uint64_t>(data[i])) * 0x100000001b3ULL;
  return h;
}

}  // namespace dinfomap::comm
