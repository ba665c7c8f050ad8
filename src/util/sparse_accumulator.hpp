// Reusable sparse accumulator for the gather/scatter idiom of the move-search
// hot paths: dense value scratch indexed by key, an epoch stamp per slot (so
// clear() is O(1) and never touches the dense arrays), and a touched-key list
// that makes iteration O(#distinct keys) in deterministic first-touch order.
//
// This replaces the per-vertex `std::unordered_map<ModuleId, double>` flow
// maps of Infomap/Louvain move passes, which heap-allocate buckets and chase
// pointers on every probe. Keys must be integral and < capacity (module ids
// are current-level vertex ids everywhere in this codebase, so the invariant
// is free). See DESIGN.md "Hot-path data structures".
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/check.hpp"
#include "util/prefetch.hpp"

namespace dinfomap::util {

template <typename K, typename V>
class SparseAccumulator {
 public:
  SparseAccumulator() = default;
  explicit SparseAccumulator(std::size_t capacity) { reset(capacity); }

  /// Resize the dense scratch to `capacity` slots and forget all entries.
  /// Existing storage is reused when already large enough.
  void reset(std::size_t capacity) {
    if (capacity > values_.size()) {
      values_.resize(capacity);
      stamp_.resize(capacity, 0);
    }
    clear();
  }

  /// Forget all entries. O(1): bumps the epoch; slots lazily reinitialize to
  /// V{} on next touch.
  void clear() {
    ++epoch_;
    touched_.clear();
  }

  /// Value slot for `key`; default-initialized on the first touch since the
  /// last clear(). Keys must be < capacity().
  V& operator[](K key) {
    const auto i = static_cast<std::size_t>(key);
    DINFOMAP_ASSERT(i < values_.size());
    if (stamp_[i] != epoch_) {
      stamp_[i] = epoch_;
      values_[i] = V{};
      touched_.push_back(key);
    }
    return values_[i];
  }

  [[nodiscard]] bool contains(K key) const {
    const auto i = static_cast<std::size_t>(key);
    return i < values_.size() && stamp_[i] == epoch_;
  }

  /// Pointer to the current value of `key`, or nullptr if untouched.
  [[nodiscard]] const V* find(K key) const {
    const auto i = static_cast<std::size_t>(key);
    if (i >= values_.size() || stamp_[i] != epoch_) return nullptr;
    return &values_[i];
  }

  /// Value of `key`, or `fallback` if untouched (single probe; replaces the
  /// `count() ? at() : fallback` double-lookup pattern).
  [[nodiscard]] V value_or(K key, V fallback) const {
    const V* v = find(key);
    return v ? *v : fallback;
  }

  /// Prefetch the stamp and value slots of `key` ahead of a find or a
  /// touch. A hint only: no state changes. Keys must be < capacity().
  void prefetch(K key) const {
    const auto i = static_cast<std::size_t>(key);
    DINFOMAP_ASSERT(i < values_.size());
    prefetch_read(&stamp_[i]);
    prefetch_read(&values_[i]);
  }

  /// Touched keys in deterministic first-touch order.
  [[nodiscard]] const std::vector<K>& keys() const { return touched_; }
  [[nodiscard]] std::size_t size() const { return touched_.size(); }
  [[nodiscard]] bool empty() const { return touched_.empty(); }
  [[nodiscard]] std::size_t capacity() const { return values_.size(); }

  /// Resident bytes of the dense scratch (per-thread arena accounting).
  [[nodiscard]] std::size_t memory_bytes() const {
    return values_.capacity() * sizeof(V) +
           stamp_.capacity() * sizeof(std::uint64_t) +
           touched_.capacity() * sizeof(K);
  }

 private:
  std::vector<V> values_;
  std::vector<std::uint64_t> stamp_;
  std::vector<K> touched_;
  std::uint64_t epoch_ = 1;  // 0 marks never-touched slots
};

}  // namespace dinfomap::util
