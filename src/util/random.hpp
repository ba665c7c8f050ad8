// Deterministic, splittable random number generation.
//
// All stochastic pieces of the library (generators, vertex-order shuffles)
// take an explicit seed so that every experiment is bit-reproducible across
// runs and rank counts (see DESIGN.md §5 "Determinism").
#pragma once

#include <cstdint>
#include <vector>

namespace dinfomap::util {

/// SplitMix64's output step: a fixed bijective 64-bit finalizer. Also the
/// integer mix wherever a seeded hash must not depend on a standard library's
/// hash layout.
inline std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// SplitMix64: used to expand one user seed into independent stream seeds.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next();

 private:
  std::uint64_t state_;
};

/// xoshiro256** — fast, high-quality PRNG; satisfies UniformRandomBitGenerator.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256(std::uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }

  result_type operator()() { return next(); }
  std::uint64_t next();

  /// Uniform integer in [0, bound) without modulo bias (Lemire's method).
  std::uint64_t bounded(std::uint64_t bound);

  /// Uniform double in [0, 1).
  double uniform();

 private:
  std::uint64_t s_[4];
};

/// Derive an independent seed for stream `stream_id` from `root_seed`.
std::uint64_t derive_seed(std::uint64_t root_seed, std::uint64_t stream_id);

/// Seeded Fisher–Yates shuffle (deterministic across platforms, unlike
/// std::shuffle whose distribution mapping is unspecified).
template <typename T>
void deterministic_shuffle(std::vector<T>& values, Xoshiro256& rng) {
  for (std::size_t i = values.size(); i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(rng.bounded(i));
    std::swap(values[i - 1], values[j]);
  }
}

}  // namespace dinfomap::util
