// Hashing helpers shared by the pair stores, bisimulation signatures and
// q-gram profiles.
#ifndef FSIM_COMMON_HASH_H_
#define FSIM_COMMON_HASH_H_

#include <cstdint>
#include <cstring>
#include <string_view>

namespace fsim {

/// Packs a node pair (u from G1, v from G2) into one 64-bit key. Node ids are
/// dense 32-bit values, so the packing is collision-free.
inline constexpr uint64_t PairKey(uint32_t u, uint32_t v) {
  return (static_cast<uint64_t>(u) << 32) | v;
}

inline constexpr uint32_t PairFirst(uint64_t key) {
  return static_cast<uint32_t>(key >> 32);
}

inline constexpr uint32_t PairSecond(uint64_t key) {
  return static_cast<uint32_t>(key & 0xFFFFFFFFULL);
}

/// 64-bit finalizer (Murmur3 fmix64): turns sequential keys into well-spread
/// hash values for open addressing.
inline constexpr uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDULL;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ULL;
  x ^= x >> 33;
  return x;
}

/// Order-dependent combination of two hash values (Boost-style).
inline constexpr uint64_t HashCombine(uint64_t seed, uint64_t value) {
  return seed ^ (Mix64(value) + 0x9E3779B97F4A7C15ULL + (seed << 6) +
                 (seed >> 2));
}

/// FNV-1a over bytes; used for label strings and signature streams.
inline uint64_t HashBytes(const void* data, size_t len,
                          uint64_t seed = 0xCBF29CE484222325ULL) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t h = seed;
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}

inline uint64_t HashString(std::string_view s) {
  return HashBytes(s.data(), s.size());
}

inline constexpr uint64_t Rotl64(uint64_t x, int r) {
  return (x << r) | (x >> (64 - r));
}

/// Word-at-a-time 64-bit checksum (Murmur3-style block mixing, fmix64
/// finalizer): reads 8-byte little-endian words, then the zero-padded tail
/// bytes and the length. Every per-word step is a bijection of the running
/// state, so two inputs of equal length that differ inside a single 8-byte
/// word always hash differently. Used for `.fsnap` snapshot frames, whose
/// megabyte-sized score blobs made byte-at-a-time FNV a measurable cost.
inline uint64_t WordHash64(const void* data, size_t len,
                           uint64_t seed = 0x9E3779B97F4A7C15ULL) {
  constexpr uint64_t kMul1 = 0x87C37B91114253D5ULL;
  constexpr uint64_t kMul2 = 0x4CF5AD432745937FULL;
  const unsigned char* p = static_cast<const unsigned char*>(data);
  auto mix_word = [](uint64_t w) { return Rotl64(w * kMul1, 31) * kMul2; };
  uint64_t h = seed;
  size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    uint64_t w;
    std::memcpy(&w, p + i, 8);
    h ^= mix_word(w);
    h = Rotl64(h, 27) * 5 + 0x52DCE729;
  }
  uint64_t tail = 0;
  if (i < len) std::memcpy(&tail, p + i, len - i);
  h ^= mix_word(tail);
  return Mix64(h ^ static_cast<uint64_t>(len));
}

}  // namespace fsim

#endif  // FSIM_COMMON_HASH_H_
