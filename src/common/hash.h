// The two non-cryptographic hash primitives every content key in Rose is
// built from: FNV-1a (64-bit) for folding bytes, and the SplitMix64
// finalizer for spreading a word's entropy across all 64 bits.
//
// Their outputs are on the wire and on disk — serve cache keys, cluster ring
// placement, canonical trace/schedule hashes, execution-index digests in
// RTRC v2 — so any change here is a format change.
#ifndef SRC_COMMON_HASH_H_
#define SRC_COMMON_HASH_H_

#include <cstdint>
#include <string_view>

namespace rose {

// FNV-1a 64-bit offset basis: FnvMix(kFnvOffset, s) is FNV-1a(s).
inline constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
inline constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

// Folds `bytes` into an FNV-1a running hash.
inline uint64_t FnvMix(uint64_t hash, std::string_view bytes) {
  for (char ch : bytes) {
    hash ^= static_cast<uint8_t>(ch);
    hash *= kFnvPrime;
  }
  return hash;
}

// Folds `value`'s eight bytes, least significant first.
inline uint64_t FnvMix(uint64_t hash, uint64_t value) {
  for (int i = 0; i < 8; i++) {
    hash ^= (value >> (i * 8)) & 0xff;
    hash *= kFnvPrime;
  }
  return hash;
}

// SplitMix64's finalizer: a full-avalanche bijection on 64-bit words.
inline uint64_t Mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace rose

#endif  // SRC_COMMON_HASH_H_
