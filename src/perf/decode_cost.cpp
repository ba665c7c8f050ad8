#include "perf/decode_cost.hpp"

#include <algorithm>

namespace dinfomap::perf {

using graph::VertexId;
using graph::blockgraph::BlockGraph;
using graph::blockgraph::BlockGraphStats;

DecodeCostMeasurement measure_decode_cost(const BlockGraph& bg,
                                          std::uint64_t max_blocks) {
  DecodeCostMeasurement m;
  if (bg.num_blocks() == 0 || bg.num_arcs() == 0) return m;
  m.arcs_per_block = static_cast<double>(bg.num_arcs()) /
                     static_cast<double>(bg.num_blocks());

  const BlockGraphStats before = bg.stats();
  {
    auto cur = bg.cursor();
    std::uint64_t blocks_seen = 0;
    std::uint32_t prev_block = graph::blockgraph::kInvalidBlock;
    for (VertexId u = 0; u < bg.num_vertices(); ++u) {
      const std::uint32_t b = bg.block_of(u);
      if (b != prev_block) {
        if (++blocks_seen > max_blocks) break;
        prev_block = b;
      }
      m.arcs_scanned += bg.neighbors(u, cur).size();
    }
  }
  const BlockGraphStats after = bg.stats();

  const std::uint64_t cold = after.misses - before.misses;
  const std::uint64_t decode_ns = after.decode_ns - before.decode_ns;
  m.blocks_timed = cold;
  if (cold == 0 || decode_ns == 0) return m;
  // Arcs decoded = cold blocks × mean arcs/block (the cache decodes whole
  // blocks regardless of how many of their arcs the pass touched).
  const double arcs_decoded = static_cast<double>(cold) * m.arcs_per_block;
  m.sec_per_arc_decode =
      static_cast<double>(decode_ns) * 1e-9 / std::max(1.0, arcs_decoded);
  return m;
}

void apply_decode_cost(CostModel& model, const DecodeCostMeasurement& m) {
  if (m.valid()) model.sec_per_arc_decode = m.sec_per_arc_decode;
}

void apply_decode_feedback(CostModel& model, const BlockGraphStats& stats) {
  const std::uint64_t faults = stats.hits + stats.misses;
  if (faults == 0) return;
  model.decode_hit_ratio =
      static_cast<double>(stats.hits) / static_cast<double>(faults);
}

}  // namespace dinfomap::perf
