#ifndef TENCENTREC_COMMON_HASH_H_
#define TENCENTREC_COMMON_HASH_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace tencentrec {

/// 64-bit FNV-1a. Stable across platforms/runs (unlike std::hash), which
/// matters because field groupings, TDStore routing, and multi-hash bolt
/// assignment must be reproducible in tests and benchmarks.
inline uint64_t Fnv1a64(const void* data, size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

inline uint64_t HashString(std::string_view s) {
  return Fnv1a64(s.data(), s.size());
}

/// Finalizer from SplitMix64; turns a (possibly sequential) integer key into
/// a well-mixed hash so modulo partitioning is balanced.
inline uint64_t HashInt(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

inline uint64_t HashCombine(uint64_t a, uint64_t b) {
  return HashInt(a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2)));
}

/// Hash for in-memory byte-string tables (FlatStringMap): one multiply per
/// eight bytes, finished with the SplitMix64 mixer so every result bit
/// depends on the whole key. Deliberately not HashString: TDStore places a
/// key on instance `HashString(key) % instances`, so all keys of one
/// instance share that residue, and a power-of-two table indexed by it
/// would cluster.
inline uint64_t HashBytes(std::string_view s) {
  constexpr uint64_t kMul = 0xbf58476d1ce4e5b9ULL;
  const char* p = s.data();
  size_t n = s.size();
  uint64_t h = 0x9e3779b97f4a7c15ULL ^ n;
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    h = (h ^ word) * kMul;
    h ^= h >> 32;
  }
  if (n > 0) {
    uint64_t word = 0;
    std::memcpy(&word, p, n);
    h = (h ^ word) * kMul;
  }
  return HashInt(h);
}

}  // namespace tencentrec

#endif  // TENCENTREC_COMMON_HASH_H_
