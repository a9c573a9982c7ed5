// The two non-cryptographic hashes every Rose key is built from.
//
// FNV-1a 64 names things that persist or travel: serve cache keys (the
// persisted file names), canonical trace and schedule hashes, ring
// positions and submit tokens. The SplitMix64 finalizer spreads a word's
// entropy over all 64 bits: it seeds every Rng, places ring points and
// mixes retry jitter. Any change to either changes those values, so both
// are pinned by tests.
//
// Inline on purpose: CanonicalBlobHash runs Fnv1a over every byte of every
// event line at serve admission.
#ifndef SRC_COMMON_HASH_H_
#define SRC_COMMON_HASH_H_

#include <cstdint>
#include <string_view>

namespace rose {

inline constexpr uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;

// FNV-1a 64 over `bytes`, continuing from `hash` (kFnvOffsetBasis to start).
inline uint64_t Fnv1a(uint64_t hash, std::string_view bytes) {
  for (const char ch : bytes) {
    hash ^= static_cast<uint8_t>(ch);
    hash *= 0x100000001b3ULL;  // FNV prime.
  }
  return hash;
}

// FNV-1a 64 over the 8 little-endian bytes of `value`.
inline uint64_t Fnv1a(uint64_t hash, uint64_t value) {
  for (int i = 0; i < 8; i++) {
    hash ^= (value >> (i * 8)) & 0xff;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

// SplitMix64's output finalizer (Vigna, public domain): full avalanche.
inline uint64_t SplitMix64Finalize(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace rose

#endif  // SRC_COMMON_HASH_H_
