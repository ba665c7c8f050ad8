// Hash helpers of the golden-pin tests: doubles are pinned by their bit
// patterns, vectors by an FNV-1a hash over their words, so a pin moves when
// any result bit moves.
#pragma once

#include <bit>
#include <cstdint>

namespace dinfomap::testing {

inline std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

inline std::uint64_t fnv1a(std::uint64_t h, std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ULL;
  }
  return h;
}
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/// FNV-1a over the elements of an integer sequence (say, an assignment).
template <typename Seq>
std::uint64_t hash_words(const Seq& seq) {
  std::uint64_t h = kFnvBasis;
  for (const auto w : seq) h = fnv1a(h, static_cast<std::uint64_t>(w));
  return h;
}

}  // namespace dinfomap::testing
