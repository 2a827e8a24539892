#include "crypto/sha_multibuf.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <vector>

namespace spauth {

namespace {

// The scalar fallback used for single messages, lane stragglers, and the
// whole entry point when the SIMD path is compiled out.
inline void HashScalar(HashAlgorithm alg, const uint8_t* data, size_t size,
                       Digest* out) {
  *out = Hasher::Hash(alg, {data, size});
}

}  // namespace

#if !defined(SPAUTH_SHA_MULTIBUF_OFF) && defined(__GNUC__)
#define SPAUTH_SHA_MULTIBUF_SIMD 1
#endif

#if SPAUTH_SHA_MULTIBUF_SIMD

namespace {

constexpr size_t kLanes = kShaMultiBufLanes;
static_assert(kLanes == 8, "lane transforms below are written for 8 lanes");

// One 32-bit word per lane. The compiler lowers the elementwise arithmetic
// to two 128-bit SSE ops on baseline x86-64 and one 256-bit op under AVX2;
// either way all eight independent hash states advance per instruction
// stream instead of serializing on one state's dependency chain.
typedef uint32_t Vu32 __attribute__((vector_size(4 * kLanes)));

// No helper passes or returns a Vu32 by value: a 32-byte vector in a
// function signature has an ABI that depends on whether AVX is enabled
// (GCC's -Wpsabi). Rotations and broadcasts are macros over the vector
// operators instead, and block loads write through a pointer.
#define SPAUTH_VROTL(x, k) (((x) << (k)) | ((x) >> (32 - (k))))
#define SPAUTH_VROTR(x, k) (((x) >> (k)) | ((x) << (32 - (k))))
#define SPAUTH_VBROADCAST(v) (Vu32{} + static_cast<uint32_t>(v))

// Loads the 16 message words of each lane's current block, transposed
// into one vector per word (big-endian, FIPS 180-4). The gather is scalar;
// the schedule and rounds that dominate the work are vectorized.
inline void LoadBlock(const uint8_t* const ptrs[kLanes], Vu32 w[16]) {
  for (int i = 0; i < 16; ++i) {
    for (size_t l = 0; l < kLanes; ++l) {
      const uint8_t* p = ptrs[l] + 4 * i;
      w[i][l] = (static_cast<uint32_t>(p[0]) << 24) |
                (static_cast<uint32_t>(p[1]) << 16) |
                (static_cast<uint32_t>(p[2]) << 8) |
                static_cast<uint32_t>(p[3]);
    }
  }
}

// SHA-1 compression over one 64-byte block per lane. Mirrors
// Hasher::ProcessBlock word for word, with every uint32_t widened to Vu32.
void Sha1Rounds(Vu32 h[5], const uint8_t* const ptrs[kLanes]) {
  Vu32 w[80];
  LoadBlock(ptrs, w);
  for (int i = 16; i < 80; ++i) {
    w[i] = SPAUTH_VROTL(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1);
  }
  Vu32 a = h[0], b = h[1], c = h[2], d = h[3], e = h[4];
  for (int i = 0; i < 80; ++i) {
    Vu32 f;
    uint32_t k;
    if (i < 20) {
      f = (b & c) | (~b & d);
      k = 0x5a827999;
    } else if (i < 40) {
      f = b ^ c ^ d;
      k = 0x6ed9eba1;
    } else if (i < 60) {
      f = (b & c) | (b & d) | (c & d);
      k = 0x8f1bbcdc;
    } else {
      f = b ^ c ^ d;
      k = 0xca62c1d6;
    }
    Vu32 tmp = SPAUTH_VROTL(a, 5) + f + e + SPAUTH_VBROADCAST(k) + w[i];
    e = d;
    d = c;
    c = SPAUTH_VROTL(b, 30);
    b = a;
    a = tmp;
  }
  h[0] += a;
  h[1] += b;
  h[2] += c;
  h[3] += d;
  h[4] += e;
}

// SHA-256 round constants (FIPS 180-4 §4.2.2) — same table as digest.cc.
constexpr uint32_t kSha256K[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

void Sha256Rounds(Vu32 h[8], const uint8_t* const ptrs[kLanes]) {
  Vu32 w[64];
  LoadBlock(ptrs, w);
  for (int i = 16; i < 64; ++i) {
    Vu32 s0 = SPAUTH_VROTR(w[i - 15], 7) ^ SPAUTH_VROTR(w[i - 15], 18) ^
              (w[i - 15] >> 3);
    Vu32 s1 = SPAUTH_VROTR(w[i - 2], 17) ^ SPAUTH_VROTR(w[i - 2], 19) ^
              (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }
  Vu32 a = h[0], b = h[1], c = h[2], d = h[3];
  Vu32 e = h[4], f = h[5], g = h[6], hh = h[7];
  for (int i = 0; i < 64; ++i) {
    Vu32 s1 = SPAUTH_VROTR(e, 6) ^ SPAUTH_VROTR(e, 11) ^ SPAUTH_VROTR(e, 25);
    Vu32 ch = (e & f) ^ (~e & g);
    Vu32 t1 = hh + s1 + ch + SPAUTH_VBROADCAST(kSha256K[i]) + w[i];
    Vu32 s0 = SPAUTH_VROTR(a, 2) ^ SPAUTH_VROTR(a, 13) ^ SPAUTH_VROTR(a, 22);
    Vu32 maj = (a & b) ^ (a & c) ^ (b & c);
    Vu32 t2 = s0 + maj;
    hh = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }
  h[0] += a;
  h[1] += b;
  h[2] += c;
  h[3] += d;
  h[4] += e;
  h[5] += f;
  h[6] += g;
  h[7] += hh;
}

// Hashes n (1..kLanes) messages of EQUAL length `size` in one lane batch.
// Idle lanes mirror lane 0 (same length, so the lockstep block walk stays
// trivially aligned) and their results are discarded.
void HashLanesEqualSize(HashAlgorithm alg, size_t n,
                        const uint8_t* const* data, size_t size, Digest* out,
                        const uint32_t* out_index) {
  const uint8_t* lane_data[kLanes];
  for (size_t l = 0; l < kLanes; ++l) {
    lane_data[l] = data[l < n ? l : 0];
  }

  const size_t full_blocks = size / 64;
  const size_t rem = size % 64;
  // Merkle-Damgard tail: 0x80, zero pad, 64-bit big-endian bit length —
  // one tail block when the padding fits, two otherwise (rem >= 56).
  const size_t tail_blocks = rem >= 56 ? 2 : 1;
  const uint64_t bit_length = static_cast<uint64_t>(size) * 8;
  uint8_t tails[kLanes][128];
  for (size_t l = 0; l < kLanes; ++l) {
    std::memset(tails[l], 0, tail_blocks * 64);
    if (rem > 0) {
      std::memcpy(tails[l], lane_data[l] + full_blocks * 64, rem);
    }
    tails[l][rem] = 0x80;
    for (int i = 0; i < 8; ++i) {
      tails[l][tail_blocks * 64 - 8 + i] =
          static_cast<uint8_t>(bit_length >> (8 * (7 - i)));
    }
  }

  Vu32 h[8];
  const size_t words = alg == HashAlgorithm::kSha1 ? 5 : 8;
  if (alg == HashAlgorithm::kSha1) {
    h[0] = SPAUTH_VBROADCAST(0x67452301);
    h[1] = SPAUTH_VBROADCAST(0xefcdab89);
    h[2] = SPAUTH_VBROADCAST(0x98badcfe);
    h[3] = SPAUTH_VBROADCAST(0x10325476);
    h[4] = SPAUTH_VBROADCAST(0xc3d2e1f0);
  } else {
    h[0] = SPAUTH_VBROADCAST(0x6a09e667);
    h[1] = SPAUTH_VBROADCAST(0xbb67ae85);
    h[2] = SPAUTH_VBROADCAST(0x3c6ef372);
    h[3] = SPAUTH_VBROADCAST(0xa54ff53a);
    h[4] = SPAUTH_VBROADCAST(0x510e527f);
    h[5] = SPAUTH_VBROADCAST(0x9b05688c);
    h[6] = SPAUTH_VBROADCAST(0x1f83d9ab);
    h[7] = SPAUTH_VBROADCAST(0x5be0cd19);
  }

  const uint8_t* ptrs[kLanes];
  for (size_t b = 0; b < full_blocks; ++b) {
    for (size_t l = 0; l < kLanes; ++l) {
      ptrs[l] = lane_data[l] + b * 64;
    }
    alg == HashAlgorithm::kSha1 ? Sha1Rounds(h, ptrs) : Sha256Rounds(h, ptrs);
  }
  for (size_t tb = 0; tb < tail_blocks; ++tb) {
    for (size_t l = 0; l < kLanes; ++l) {
      ptrs[l] = tails[l] + tb * 64;
    }
    alg == HashAlgorithm::kSha1 ? Sha1Rounds(h, ptrs) : Sha256Rounds(h, ptrs);
  }

  for (size_t l = 0; l < n; ++l) {
    Digest* d = &out[out_index[l]];
    *d = Digest();
    d->set_size(words * 4);
    for (size_t i = 0; i < words; ++i) {
      const uint32_t word = h[i][l];
      d->mutable_data()[4 * i] = static_cast<uint8_t>(word >> 24);
      d->mutable_data()[4 * i + 1] = static_cast<uint8_t>(word >> 16);
      d->mutable_data()[4 * i + 2] = static_cast<uint8_t>(word >> 8);
      d->mutable_data()[4 * i + 3] = static_cast<uint8_t>(word);
    }
  }
}

}  // namespace

#undef SPAUTH_VROTL
#undef SPAUTH_VROTR
#undef SPAUTH_VBROADCAST

#endif  // SPAUTH_SHA_MULTIBUF_SIMD

bool ShaMultiBufEnabled() {
#if SPAUTH_SHA_MULTIBUF_SIMD
  return true;
#else
  return false;
#endif
}

void ShaHashMany(HashAlgorithm alg, size_t count, const uint8_t* const* data,
                 const size_t* sizes, Digest* out) {
#if SPAUTH_SHA_MULTIBUF_SIMD
  if (count >= 2) {
    // Group equal-length messages into lane batches. A stable sort of the
    // index array keeps runs deterministic; results land at out[i] by
    // original index, so the order of hashing is unobservable.
    std::vector<uint32_t> order(count);
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      return sizes[a] < sizes[b];
    });
    size_t run_begin = 0;
    while (run_begin < count) {
      size_t run_end = run_begin + 1;
      const size_t size = sizes[order[run_begin]];
      while (run_end < count && sizes[order[run_end]] == size) {
        ++run_end;
      }
      for (size_t chunk = run_begin; chunk < run_end;
           chunk += kShaMultiBufLanes) {
        const size_t n = std::min(kShaMultiBufLanes, run_end - chunk);
        if (n < 2) {
          // A lone straggler: one scalar hash beats a one-lane SIMD batch.
          const uint32_t i = order[chunk];
          HashScalar(alg, data[i], sizes[i], &out[i]);
          continue;
        }
        const uint8_t* lane_data[kShaMultiBufLanes];
        uint32_t lane_out[kShaMultiBufLanes];
        for (size_t l = 0; l < n; ++l) {
          lane_data[l] = data[order[chunk + l]];
          lane_out[l] = order[chunk + l];
        }
        HashLanesEqualSize(alg, n, lane_data, size, out, lane_out);
      }
      run_begin = run_end;
    }
    return;
  }
#endif
  for (size_t i = 0; i < count; ++i) {
    HashScalar(alg, data[i], sizes[i], &out[i]);
  }
}

void ShaHashMany(HashAlgorithm alg,
                 std::span<const std::span<const uint8_t>> msgs, Digest* out) {
  std::vector<const uint8_t*> data(msgs.size());
  std::vector<size_t> sizes(msgs.size());
  for (size_t i = 0; i < msgs.size(); ++i) {
    data[i] = msgs[i].data();
    sizes[i] = msgs[i].size();
  }
  ShaHashMany(alg, msgs.size(), data.data(), sizes.data(), out);
}

}  // namespace spauth
