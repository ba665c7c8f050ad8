#include "util/random.hpp"

namespace dinfomap::util {

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

std::uint64_t SplitMix64::next() {
  return mix64(state_ += 0x9E3779B97F4A7C15ULL);
}

Xoshiro256::Xoshiro256(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& s : s_) s = sm.next();
  // A zero state would lock the generator at zero forever; SplitMix64 cannot
  // emit four zeros for any seed, but keep the guard for clarity.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Xoshiro256::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Xoshiro256::bounded(std::uint64_t bound) {
  if (bound == 0) return 0;
  // Lemire's nearly-divisionless method.
  std::uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  std::uint64_t l = static_cast<std::uint64_t>(m);
  if (l < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (l < threshold) {
      x = next();
      m = static_cast<__uint128_t>(x) * bound;
      l = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Xoshiro256::uniform() {
  // 53 top bits -> [0,1) with full double precision.
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t derive_seed(std::uint64_t root_seed, std::uint64_t stream_id) {
  SplitMix64 sm(root_seed ^ (0xD1B54A32D192ED03ULL * (stream_id + 1)));
  sm.next();
  return sm.next();
}

}  // namespace dinfomap::util
