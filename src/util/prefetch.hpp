// Software prefetch hint for latency-bound gathers (the distributed move
// search walks its vertices in a shuffled order, so hardware prefetchers see
// no stride). A prefetch loads nothing architecturally visible and cannot
// fault, so it changes no result; callers still pass only addresses of
// in-range elements, since forming any other pointer is undefined behaviour.
#pragma once

namespace dinfomap::util {

/// Hint that `p`'s cache line will be read soon (kept in all cache levels).
inline void prefetch_read(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, 0, 3);
#else
  (void)p;
#endif
}

}  // namespace dinfomap::util
