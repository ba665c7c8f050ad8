// Decode-cost calibration for the out-of-core blocks backend: measure the
// ns/arc varint-decode coefficient on the actual block file and feed it into
// the CostModel, then fold a run's observed cache hit ratio back in. The
// model's effective_sec_per_arc() then prices a gather on the blocks backend
// as the resident gather plus the decode bill of the blocks that miss.
#pragma once

#include <cstdint>

#include "graph/blockgraph/blockgraph.hpp"
#include "perf/cost_model.hpp"

namespace dinfomap::perf {

/// Result of one calibration pass over a prefix of the block file.
struct DecodeCostMeasurement {
  double sec_per_arc_decode = 0;  ///< measured decode seconds per arc
  double arcs_per_block = 0;      ///< global mean decoded arcs per block
  std::uint64_t blocks_timed = 0; ///< cold blocks the pass actually decoded
  std::uint64_t arcs_scanned = 0; ///< arcs streamed during the pass

  [[nodiscard]] bool valid() const {
    return blocks_timed > 0 && sec_per_arc_decode > 0;
  }
};

/// Stream the first `max_blocks` blocks through a private cursor and derive
/// sec_per_arc_decode from the cache's decode_ns delta. Timing-based, so the
/// *number* is machine-dependent — but it only parameterizes the cost model,
/// never a result bit. Run it right after open(),
/// before other cursors exist: warm blocks decode for free and would dilute
/// the measurement.
DecodeCostMeasurement measure_decode_cost(
    const graph::blockgraph::BlockGraph& bg, std::uint64_t max_blocks = 64);

/// Fold a measurement into the model (decode coefficient only; the hit
/// ratio is fed back separately from run counters).
void apply_decode_cost(CostModel& model, const DecodeCostMeasurement& m);

/// Hit-ratio feedback: update model.decode_hit_ratio from a run's cache
/// counters. No-op when the run faulted no blocks.
void apply_decode_feedback(CostModel& model,
                           const graph::blockgraph::BlockGraphStats& stats);

}  // namespace dinfomap::perf
