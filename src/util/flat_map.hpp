// Open-addressing hash map (linear probing, power-of-two capacity, Fibonacci
// hashing) for integral keys. Replaces `std::unordered_map` in lookup-heavy
// paths — the distributed Infomap's global→local vertex index — where a
// node-based map pays a bucket-pointer chase plus an allocation per insert.
// Slots live in one contiguous array, so a probe is one cache line in the
// common case.
//
// Not a general container: no erase (the algorithms only ever clear whole
// tables between rounds), keys are value types, and iteration order is slot
// order (callers that need deterministic order must sort — the hot paths never
// iterate). See DESIGN.md "Hot-path data structures".
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace dinfomap::util {

template <typename K, typename V>
class FlatMap {
  struct Slot {
    K first{};
    V second{};
    bool used = false;
  };

 public:
  /// Forward iterator over occupied slots; `it->first` / `it->second` mirror
  /// the std::unordered_map access idiom so call sites read unchanged.
  class iterator {
   public:
    iterator() = default;
    iterator(Slot* p, Slot* end) : p_(p), end_(end) { skip(); }
    Slot& operator*() const { return *p_; }
    Slot* operator->() const { return p_; }
    iterator& operator++() {
      ++p_;
      skip();
      return *this;
    }
    friend bool operator==(const iterator& a, const iterator& b) {
      return a.p_ == b.p_;
    }

   private:
    void skip() {
      while (p_ != end_ && !p_->used) ++p_;
    }
    Slot* p_ = nullptr;
    Slot* end_ = nullptr;
  };

  FlatMap() = default;
  explicit FlatMap(std::size_t expected) { reserve(expected); }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

  /// Set the maximum load factor to `num/den` (entries ≤ capacity·num/den).
  /// Lower = fewer probe collisions, more memory; higher = denser tables,
  /// longer probes. Affects only future growth decisions — the slot layout
  /// is untouched, so a map that never calls this behaves bit-for-bit like
  /// the built-in 7/8 default. Degenerate fractions (0, ≥ 1) are ignored.
  void set_max_load(std::size_t num, std::size_t den) {
    if (num == 0 || den == 0 || num >= den) return;
    max_load_num_ = num;
    max_load_den_ = den;
  }

  /// Drop all entries; keeps the slot array (O(capacity), no deallocation).
  void clear() {
    for (Slot& s : slots_) s.used = false;
    size_ = 0;
  }

  void reserve(std::size_t expected) {
    std::size_t cap = kMinCapacity;
    while (cap * max_load_num_ < expected * max_load_den_) cap <<= 1;
    if (cap > slots_.size()) rehash(cap);
  }

  iterator begin() {
    return {slots_.data(), slots_.data() + slots_.size()};
  }
  iterator end() {
    Slot* e = slots_.data() + slots_.size();
    return {e, e};
  }

  iterator find(K key) {
    Slot* s = locate(key);
    return (s && s->used) ? iterator{s, slots_.data() + slots_.size()}
                          : end();
  }
  [[nodiscard]] bool contains(K key) const {
    const Slot* s = const_cast<FlatMap*>(this)->locate(key);
    return s && s->used;
  }
  [[nodiscard]] std::size_t count(K key) const { return contains(key) ? 1 : 0; }

  V& operator[](K key) {
    grow_if_needed();
    Slot* s = locate(key);
    if (!s->used) {
      s->first = key;
      s->second = V{};
      s->used = true;
      ++size_;
    }
    return s->second;
  }

  /// Insert (key, value) if absent; returns {slot, inserted}.
  std::pair<iterator, bool> emplace(K key, const V& value) {
    grow_if_needed();
    Slot* s = locate(key);
    const bool inserted = !s->used;
    if (inserted) {
      s->first = key;
      s->second = value;
      s->used = true;
      ++size_;
    }
    return {iterator{s, slots_.data() + slots_.size()}, inserted};
  }

  /// Hash mix, exposed so tests can construct collision-heavy key sets.
  static std::uint64_t mix(K key) {
    return static_cast<std::uint64_t>(key) * 0x9E3779B97F4A7C15ull;
  }

 private:
  static constexpr std::size_t kMinCapacity = 16;

  /// Slot holding `key`, or the empty slot where it would be inserted.
  /// Null only when the table has no storage yet.
  Slot* locate(K key) {
    if (slots_.empty()) return nullptr;
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>(mix(key) >> shift_) & mask;
    while (slots_[i].used && slots_[i].first != key) i = (i + 1) & mask;
    return &slots_[i];
  }

  void grow_if_needed() {
    if (slots_.empty()) {
      rehash(kMinCapacity);
    } else if ((size_ + 1) * max_load_den_ > slots_.size() * max_load_num_) {
      rehash(slots_.size() * 2);
    }
  }

  void rehash(std::size_t new_cap) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(new_cap, Slot{});
    shift_ = 64;
    for (std::size_t c = new_cap; c > 1; c >>= 1) --shift_;
    size_ = 0;
    for (Slot& s : old) {
      if (!s.used) continue;
      Slot* t = locate(s.first);
      t->first = s.first;
      t->second = std::move(s.second);
      t->used = true;
      ++size_;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  int shift_ = 64;  ///< top-bits shift for the current capacity
  // Entries fill at most num/den of the slots (default 7/8; linear probing
  // degrades sharply past that). Adjustable per table via set_max_load.
  std::size_t max_load_num_ = 7;
  std::size_t max_load_den_ = 8;
};

}  // namespace dinfomap::util
