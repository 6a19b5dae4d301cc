#ifndef TENET_COMMON_PROBE_HASH_H_
#define TENET_COMMON_PROBE_HASH_H_

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace tenet {

// The case-folding chunked hash of the in-memory probe tables (the alias
// dictionary's and the gazetteer's).  It hashes keys 8 bytes per multiply
// with a SWAR case fold; a byte-serial hash such as FNV-1a (whose
// xor-multiply dependency chain costs ~4 cycles per byte) would dominate
// lookup latency.  The hashes are derived state, recomputed whenever a
// table is built and never serialized.

inline constexpr uint64_t kProbeHashMul = 0x2545f4914f6cdd1dull;
inline constexpr uint64_t kProbeHashSeed = 0x9e3779b97f4a7c15ull;

// AsciiFoldChar applied to 8 bytes at once: +0x20 to every byte in
// ['A','Z'], other bytes (including >= 0x80) untouched.  Identity on
// already-folded bytes.
inline uint64_t FoldChunk8(uint64_t x) {
  constexpr uint64_t kHigh = 0x8080808080808080ull;
  const uint64_t heptets = x & ~kHigh;
  const uint64_t ge_upper_a = heptets + 0x3f3f3f3f3f3f3f3full;  // >= 'A'
  const uint64_t gt_upper_z = heptets + 0x2525252525252525ull;  // >  'Z'
  const uint64_t is_upper = ge_upper_a & ~gt_upper_z & ~x & kHigh;
  return x + (is_upper >> 2);
}

inline uint64_t MixProbeHash(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 29;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 32;
  return h;
}

// Case-folding chunked hash of `data[0, len)`: a key and any case variant
// of it hash alike.  When `folded_out` is non-null the folded bytes are
// written to it zero-padded to a full final word (caller guarantees
// capacity >= len rounded up to 8) so a subsequent confirm is a handful of
// word compares.
inline uint64_t HashProbeChunked(const char* data, size_t len,
                                 char* folded_out) {
  uint64_t h = kProbeHashSeed ^ (static_cast<uint64_t>(len) * kProbeHashMul);
  size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    uint64_t chunk;
    std::memcpy(&chunk, data + i, 8);
    chunk = FoldChunk8(chunk);
    if (folded_out != nullptr) std::memcpy(folded_out + i, &chunk, 8);
    h = (h ^ chunk) * kProbeHashMul;
  }
  if (i < len) {
    uint64_t chunk = 0;
    std::memcpy(&chunk, data + i, len - i);
    chunk = FoldChunk8(chunk);
    if (folded_out != nullptr) std::memcpy(folded_out + i, &chunk, 8);
    h = (h ^ chunk) * kProbeHashMul;
  }
  return MixProbeHash(h);
}

}  // namespace tenet

#endif  // TENET_COMMON_PROBE_HASH_H_
