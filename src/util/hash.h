#ifndef HATEN2_UTIL_HASH_H_
#define HATEN2_UTIL_HASH_H_

#include <cstdint>

namespace haten2 {

/// splitmix64 finalizer: cheap, well-mixed 64-bit hash. The one definition
/// behind shuffle partitioning, failure injection and straggler jitter
/// (mapreduce/), sketch draws (linalg/sketch.cc) and checkpoint
/// fingerprints, all of which must stay bit-stable across releases.
/// std::hash<int64_t> is the identity on libstdc++, which would send
/// contiguous tensor indices to contiguous partitions; this mixes properly.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Folds `v` into the running hash `seed` (boost-style combine over Mix64).
inline uint64_t HashCombine(uint64_t seed, uint64_t v) {
  return Mix64(seed ^ (Mix64(v) + 0x9e3779b97f4a7c15ULL + (seed << 6) +
                       (seed >> 2)));
}

}  // namespace haten2

#endif  // HATEN2_UTIL_HASH_H_
