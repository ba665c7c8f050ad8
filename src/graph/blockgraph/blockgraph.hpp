// Out-of-core graph backend: an mmap-ed `dinfomap.blockgraph/1` file plus a
// bounded, sharded decode cache (DESIGN.md §15).
//
// The vertex-proportional sections (arc offsets, block ids, weighted
// degrees, self weights, totals) are read in place from the mapping, so
// degree/weighted_degree/self_weight cost the same as the resident Csr. The
// O(|E|) adjacency stays encoded on disk; neighbor scans decode whole blocks
// into a cache slot and hand out spans into the decoded buffer.
//
// Concurrency model: the cache is split into *slots*, and a slot is leased
// to exactly one BlockCursor at a time (the lease free-list is the only
// mutex in the design, touched at cursor construction/destruction — never
// per neighbor scan). Everything a decode touches — the slot's entry ring,
// its block→entry map, its scratch buffers, its counters — is slot-private,
// so ThreadPool workers each holding their own cursor decode without locks
// or atomics on the hot path. The mapping itself is immutable shared state.
//
// Determinism: decoding is bit-exact (codec.hpp) and neighbor spans present
// the adjacency in exactly the order the resident Csr stores it, so any
// consumer's floating-point accumulation is bit-identical across backends
// regardless of thread count, cache budget, or eviction history — the cache
// only decides *when* bytes are decoded, never *what* they decode to.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/blockgraph/format.hpp"
#include "graph/csr.hpp"
#include "graph/types.hpp"

namespace dinfomap::graph::blockgraph {

class BlockGraph;
namespace detail {
class DecodeCache;
struct CacheSlot;
}  // namespace detail

/// Aggregated cache/IO statistics (surfaced as `blockgraph.*` metrics).
/// `hits`/`misses` count block lookups in a slot (a cursor's consecutive
/// scans inside one block short-circuit before the cache and are not
/// counted); `decode_ns` is wall time spent in decode_block.
struct BlockGraphStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t decode_ns = 0;
  std::uint64_t decoded_bytes = 0;   ///< compressed bytes run through decode
  std::uint64_t resident_blocks = 0; ///< decoded blocks currently cached
  std::uint64_t resident_bytes = 0;  ///< decoded bytes currently cached
  std::uint64_t bytes_mapped = 0;    ///< file size backing the mapping
};

/// A leased handle for neighbor iteration. One cursor per thread; cheap to
/// create but intended to live for a whole scan phase. Default-constructed
/// cursors are detached (used by GraphView for the resident backend).
class BlockCursor {
 public:
  BlockCursor() = default;
  BlockCursor(BlockCursor&& other) noexcept { move_from(other); }
  BlockCursor& operator=(BlockCursor&& other) noexcept {
    if (this != &other) {
      release();
      move_from(other);
    }
    return *this;
  }
  BlockCursor(const BlockCursor&) = delete;
  BlockCursor& operator=(const BlockCursor&) = delete;
  ~BlockCursor() { release(); }

 private:
  friend class BlockGraph;
  void release();
  void move_from(BlockCursor& other) {
    owner_ = other.owner_;
    slot_ = other.slot_;
    last_block_ = other.last_block_;
    last_data_ = other.last_data_;
    last_first_arc_ = other.last_first_arc_;
    other.owner_ = nullptr;
    other.last_block_ = kInvalidBlock;
    other.last_data_ = nullptr;
  }

  const BlockGraph* owner_ = nullptr;
  detail::CacheSlot* slot_ = nullptr;
  // Memo of the last block touched: consecutive scans within one block (the
  // overwhelmingly common pattern — vertices are laid out in id order)
  // bypass the slot map entirely. Refreshed on every cache lookup, so it can
  // never outlive an eviction of the block it points into.
  std::uint32_t last_block_ = kInvalidBlock;
  const Neighbor* last_data_ = nullptr;
  EdgeIndex last_first_arc_ = 0;
};

class BlockGraph {
 public:
  struct Options {
    /// Total decoded-bytes budget, split evenly across `cache_slots`. The
    /// bound is per-slot: total resident ≤ (live cursors) × (budget/slots).
    std::size_t cache_bytes = 64ull << 20;
    /// Number of concurrently leasable slots the budget is divided by.
    /// 0 = auto (16, matching the ThreadPool ceiling). More cursors than
    /// slots is allowed — extra slots are created with the same per-slot
    /// budget.
    int cache_slots = 0;
    /// Verify a block's CRC-32 every time it is decoded from the mapping.
    bool verify_block_checksums = true;
  };

  BlockGraph() = default;
  BlockGraph(BlockGraph&&) noexcept;
  BlockGraph& operator=(BlockGraph&&) noexcept;
  BlockGraph(const BlockGraph&) = delete;
  BlockGraph& operator=(const BlockGraph&) = delete;
  ~BlockGraph();

  /// Map `path` and validate header, section CRC, and geometry. Throws
  /// BlockFormatError on malformed files, std::runtime_error on I/O errors.
  static BlockGraph open(const std::string& path, const Options& opts);
  static BlockGraph open(const std::string& path);

  // --- Csr-mirroring interface (same semantics, same bits) ---------------
  [[nodiscard]] VertexId num_vertices() const { return n_; }
  [[nodiscard]] EdgeIndex num_arcs() const { return num_arcs_; }
  [[nodiscard]] EdgeIndex num_edges() const { return num_arcs_ / 2; }
  [[nodiscard]] EdgeIndex degree(VertexId u) const {
    return arc_offsets_[u + 1] - arc_offsets_[u];
  }
  [[nodiscard]] EdgeIndex first_arc(VertexId u) const { return arc_offsets_[u]; }
  [[nodiscard]] Weight weighted_degree(VertexId u) const { return wdeg_[u]; }
  [[nodiscard]] Weight self_weight(VertexId u) const { return self_[u]; }
  [[nodiscard]] Weight total_weight() const { return total_weight_; }
  [[nodiscard]] Weight total_link_weight() const { return total_link_weight_; }

  /// Lease a cursor (thread-private; see class comment).
  [[nodiscard]] BlockCursor cursor() const;

  /// Neighbors of `u` in stored (Csr) order, valid until the cursor's next
  /// neighbors() call or destruction. Throws BlockFormatError if the backing
  /// block fails its checksum or decode.
  std::span<const Neighbor> neighbors(VertexId u, BlockCursor& cur) const {
    const std::uint32_t b = block_of_[u];
    if (cur.last_block_ != b) fault_block(b, cur);
    return {cur.last_data_ +
                static_cast<std::size_t>(arc_offsets_[u] - cur.last_first_arc_),
            static_cast<std::size_t>(arc_offsets_[u + 1] - arc_offsets_[u])};
  }

  /// Aggregate statistics over all slots. Synchronizes on the lease mutex;
  /// call it between phases (no cursor actively scanning), not inside one.
  [[nodiscard]] BlockGraphStats stats() const;

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] std::uint64_t num_blocks() const { return num_blocks_; }
  /// Block holding u's adjacency run (decode-locality queries).
  [[nodiscard]] std::uint32_t block_of(VertexId u) const { return block_of_[u]; }
  [[nodiscard]] std::size_t bytes_mapped() const { return map_bytes_; }

 private:
  friend class BlockCursor;
  void fault_block(std::uint32_t block, BlockCursor& cur) const;

  std::string path_;
  void* map_ = nullptr;
  std::size_t map_bytes_ = 0;

  VertexId n_ = 0;
  EdgeIndex num_arcs_ = 0;
  std::uint64_t num_blocks_ = 0;
  Weight total_weight_ = 0;
  Weight total_link_weight_ = 0;

  // Typed views into the mapping (all 8-byte aligned by construction).
  const EdgeIndex* arc_offsets_ = nullptr;   // n+1
  const std::uint32_t* block_of_ = nullptr;  // n
  const double* wdeg_ = nullptr;             // n
  const double* self_ = nullptr;             // n
  const BlockIndexEntry* index_ = nullptr;   // num_blocks
  const std::uint8_t* payload_ = nullptr;

  std::unique_ptr<detail::DecodeCache> cache_;
};

}  // namespace dinfomap::graph::blockgraph
