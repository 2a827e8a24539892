#include "crypto/digest.h"

#include "util/hex.h"

// The SHA-NI path needs x86-64 and GCC/Clang target attributes; it compiles
// in unless the build turns it off (-DSPAUTH_SHA_HW=OFF). No -march flag is
// needed: only the functions below carry the instruction-set attribute, and
// the runtime cpuid check keeps them from running on a CPU without SHA.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(SPAUTH_SHA_HW_OFF)
#define SPAUTH_SHA_NI 1
#include <cpuid.h>
#include <immintrin.h>
#else
#define SPAUTH_SHA_NI 0
#endif

namespace spauth {

namespace {

inline uint32_t Rotl32(uint32_t x, int k) { return (x << k) | (x >> (32 - k)); }
inline uint32_t Rotr32(uint32_t x, int k) { return (x >> k) | (x << (32 - k)); }

// SHA-256 round constants (FIPS 180-4 §4.2.2).
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

inline uint32_t LoadBe32(const uint8_t* p) {
  return (static_cast<uint32_t>(p[0]) << 24) |
         (static_cast<uint32_t>(p[1]) << 16) |
         (static_cast<uint32_t>(p[2]) << 8) | static_cast<uint32_t>(p[3]);
}

inline void Sha1Round(uint32_t& a, uint32_t& b, uint32_t& c, uint32_t& d,
                      uint32_t& e, uint32_t f, uint32_t k, uint32_t w) {
  const uint32_t t = Rotl32(a, 5) + f + e + k + w;
  e = d;
  d = c;
  c = Rotl32(b, 30);
  b = a;
  a = t;
}

// Scalar SHA-1 (FIPS 180-4 §6.1.2): the fallback where SHA-NI is missing
// and the oracle the differential tests hold the SHA-NI path to. The 80
// rounds run as four 20-round loops, one per round function, so no round
// branches on its index.
void Sha1BlocksScalar(uint32_t* h, const uint8_t* blocks, size_t count) {
  for (; count > 0; --count, blocks += 64) {
    uint32_t w[80];
    for (int i = 0; i < 16; ++i) {
      w[i] = LoadBe32(blocks + 4 * i);
    }
    for (int i = 16; i < 80; ++i) {
      w[i] = Rotl32(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1);
    }
    uint32_t a = h[0], b = h[1], c = h[2], d = h[3], e = h[4];
    for (int i = 0; i < 20; ++i) {
      Sha1Round(a, b, c, d, e, (b & c) | (~b & d), 0x5a827999, w[i]);
    }
    for (int i = 20; i < 40; ++i) {
      Sha1Round(a, b, c, d, e, b ^ c ^ d, 0x6ed9eba1, w[i]);
    }
    for (int i = 40; i < 60; ++i) {
      Sha1Round(a, b, c, d, e, (b & c) | (d & (b | c)), 0x8f1bbcdc, w[i]);
    }
    for (int i = 60; i < 80; ++i) {
      Sha1Round(a, b, c, d, e, b ^ c ^ d, 0xca62c1d6, w[i]);
    }
    h[0] += a;
    h[1] += b;
    h[2] += c;
    h[3] += d;
    h[4] += e;
  }
}

// Scalar SHA-256 (FIPS 180-4 §6.2.2).
void Sha256BlocksScalar(uint32_t* h, const uint8_t* blocks, size_t count) {
  for (; count > 0; --count, blocks += 64) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = LoadBe32(blocks + 4 * i);
    }
    for (int i = 16; i < 64; ++i) {
      uint32_t s0 = Rotr32(w[i - 15], 7) ^ Rotr32(w[i - 15], 18) ^ (w[i - 15] >> 3);
      uint32_t s1 = Rotr32(w[i - 2], 17) ^ Rotr32(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    uint32_t a = h[0], b = h[1], c = h[2], d = h[3];
    uint32_t e = h[4], f = h[5], g = h[6], hh = h[7];
    for (int i = 0; i < 64; ++i) {
      uint32_t s1 = Rotr32(e, 6) ^ Rotr32(e, 11) ^ Rotr32(e, 25);
      uint32_t ch = (e & f) ^ ((~e) & g);
      uint32_t t1 = hh + s1 + ch + kSha256K[i] + w[i];
      uint32_t s0 = Rotr32(a, 2) ^ Rotr32(a, 13) ^ Rotr32(a, 22);
      uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      uint32_t t2 = s0 + maj;
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
}

#if SPAUTH_SHA_NI

#define SPAUTH_SHA_TARGET __attribute__((target("sha,sse4.1,ssse3")))

// Leaf 7 EBX bit 29 is SHA; leaf 1 ECX bits 9 and 19 are SSSE3 and SSE4.1,
// which the lane shuffles below also use.
bool DetectShaNi() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) {
    return false;
  }
  const bool sse = (ecx & (1u << 9)) != 0 && (ecx & (1u << 19)) != 0;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) {
    return false;
  }
  return sse && (ebx & (1u << 29)) != 0;
}

// sha1rnds4 takes its round-function selector as an immediate.
SPAUTH_SHA_TARGET inline __m128i Sha1Rounds4(__m128i abcd, __m128i e,
                                             int group) {
  switch (group / 5) {
    case 0:
      return _mm_sha1rnds4_epu32(abcd, e, 0);
    case 1:
      return _mm_sha1rnds4_epu32(abcd, e, 1);
    case 2:
      return _mm_sha1rnds4_epu32(abcd, e, 2);
    default:
      return _mm_sha1rnds4_epu32(abcd, e, 3);
  }
}

// SHA-1 on the SHA-NI instructions: 20 groups of four rounds. msg[g % 4]
// holds schedule words 4g..4g+3; while group g runs, sha1msg1/xor/sha1msg2
// advance the three later groups' words, so the schedule never leaves the
// four registers. e alternates between the two E accumulators.
SPAUTH_SHA_TARGET void Sha1BlocksNi(uint32_t* h, const uint8_t* blocks,
                                    size_t count) {
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0001020304050607LL, 0x08090a0b0c0d0e0fLL);
  __m128i abcd = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(h)), 0x1b);
  __m128i e0 = _mm_set_epi32(static_cast<int>(h[4]), 0, 0, 0);
  for (; count > 0; --count, blocks += 64) {
    const __m128i abcd_save = abcd;
    const __m128i e_save = e0;
    __m128i msg[4];
    __m128i e[2];
#pragma GCC unroll 20
    for (int g = 0; g < 20; ++g) {
      __m128i& m = msg[g & 3];
      if (g < 4) {
        m = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * g)),
            kByteSwap);
      }
      e[g & 1] = g == 0 ? _mm_add_epi32(e_save, m)
                        : _mm_sha1nexte_epu32(e[g & 1], m);
      e[(g + 1) & 1] = abcd;
      if (g >= 3 && g <= 18) {
        msg[(g + 1) & 3] = _mm_sha1msg2_epu32(msg[(g + 1) & 3], m);
      }
      abcd = Sha1Rounds4(abcd, e[g & 1], g);
      if (g >= 1 && g <= 16) {
        msg[(g + 3) & 3] = _mm_sha1msg1_epu32(msg[(g + 3) & 3], m);
      }
      if (g >= 2 && g <= 17) {
        msg[(g + 2) & 3] = _mm_xor_si128(msg[(g + 2) & 3], m);
      }
    }
    e0 = _mm_sha1nexte_epu32(e[0], e_save);
    abcd = _mm_add_epi32(abcd, abcd_save);
  }
  _mm_storeu_si128(reinterpret_cast<__m128i*>(h),
                   _mm_shuffle_epi32(abcd, 0x1b));
  h[4] = static_cast<uint32_t>(_mm_extract_epi32(e0, 3));
}

// SHA-256 on the SHA-NI instructions: 16 groups of four rounds, two
// sha256rnds2 each. The state lives as ABEF/CDGH lane pairs; msg[g % 4]
// holds schedule words 4g..4g+3 and sha256msg1/msg2 advance later groups.
SPAUTH_SHA_TARGET void Sha256BlocksNi(uint32_t* h, const uint8_t* blocks,
                                      size_t count) {
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  const __m128i cdab = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(h)), 0xb1);
  const __m128i efgh = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(h + 4)), 0x1b);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);
  for (; count > 0; --count, blocks += 64) {
    const __m128i abef_save = abef;
    const __m128i cdgh_save = cdgh;
    __m128i msg[4];
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      __m128i& m = msg[g & 3];
      if (g < 4) {
        m = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * g)),
            kByteSwap);
      }
      __m128i wk = _mm_add_epi32(
          m, _mm_loadu_si128(reinterpret_cast<const __m128i*>(kSha256K + 4 * g)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      if (g >= 3 && g <= 14) {
        __m128i& next = msg[(g + 1) & 3];
        next = _mm_add_epi32(next, _mm_alignr_epi8(m, msg[(g + 3) & 3], 4));
        next = _mm_sha256msg2_epu32(next, m);
      }
      wk = _mm_shuffle_epi32(wk, 0x0e);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
      if (g >= 1 && g <= 12) {
        msg[(g + 3) & 3] = _mm_sha256msg1_epu32(msg[(g + 3) & 3], m);
      }
    }
    abef = _mm_add_epi32(abef, abef_save);
    cdgh = _mm_add_epi32(cdgh, cdgh_save);
  }
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(h),
                   _mm_blend_epi16(feba, dchg, 0xf0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(h + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}

#endif  // SPAUTH_SHA_NI

}  // namespace

bool ShaNiAvailable() {
#if SPAUTH_SHA_NI
  static const bool available = DetectShaNi();
  return available;
#else
  return false;
#endif
}

std::string_view HashAlgorithmName(HashAlgorithm alg) {
  return alg == HashAlgorithm::kSha1 ? "sha1" : "sha256";
}

Result<HashAlgorithm> ParseHashAlgorithm(uint8_t wire) {
  if (wire == static_cast<uint8_t>(HashAlgorithm::kSha1)) {
    return HashAlgorithm::kSha1;
  }
  if (wire == static_cast<uint8_t>(HashAlgorithm::kSha256)) {
    return HashAlgorithm::kSha256;
  }
  return Status::Malformed("unknown hash algorithm id");
}

std::string Digest::ToHex() const { return spauth::ToHex(view()); }

Hasher::Hasher(HashAlgorithm alg, ShaImpl impl)
    : alg_(alg),
      use_sha_ni_(impl != ShaImpl::kScalar && ShaNiAvailable()),
      total_bytes_(0),
      block_fill_(0) {
  if (alg_ == HashAlgorithm::kSha1) {
    h_[0] = 0x67452301;
    h_[1] = 0xefcdab89;
    h_[2] = 0x98badcfe;
    h_[3] = 0x10325476;
    h_[4] = 0xc3d2e1f0;
    h_[5] = h_[6] = h_[7] = 0;
  } else {
    h_[0] = 0x6a09e667;
    h_[1] = 0xbb67ae85;
    h_[2] = 0x3c6ef372;
    h_[3] = 0xa54ff53a;
    h_[4] = 0x510e527f;
    h_[5] = 0x9b05688c;
    h_[6] = 0x1f83d9ab;
    h_[7] = 0x5be0cd19;
  }
}

void Hasher::ProcessBlocks(const uint8_t* blocks, size_t count) {
  const bool sha1 = alg_ == HashAlgorithm::kSha1;
#if SPAUTH_SHA_NI
  if (use_sha_ni_) {
    sha1 ? Sha1BlocksNi(h_, blocks, count) : Sha256BlocksNi(h_, blocks, count);
    return;
  }
#endif
  sha1 ? Sha1BlocksScalar(h_, blocks, count)
       : Sha256BlocksScalar(h_, blocks, count);
}

Hasher& Hasher::Update(std::span<const uint8_t> data) {
  if (data.empty()) {
    return *this;  // an empty span may carry a null data() (memcpy UB)
  }
  total_bytes_ += data.size();
  size_t offset = 0;
  if (block_fill_ > 0) {
    size_t take = std::min(data.size(), sizeof(block_) - block_fill_);
    std::memcpy(block_ + block_fill_, data.data(), take);
    block_fill_ += take;
    offset = take;
    if (block_fill_ == sizeof(block_)) {
      ProcessBlocks(block_, 1);
      block_fill_ = 0;
    }
  }
  const size_t whole = (data.size() - offset) / sizeof(block_);
  if (whole > 0) {
    ProcessBlocks(data.data() + offset, whole);
    offset += whole * sizeof(block_);
  }
  if (offset < data.size()) {
    std::memcpy(block_, data.data() + offset, data.size() - offset);
    block_fill_ = data.size() - offset;
  }
  return *this;
}

void Hasher::FinishBlocks(uint64_t bit_length) {
  // Merkle-Damgard strengthening: 0x80, zero pad to 56 mod 64, 64-bit
  // big-endian length — assembled directly in the block buffer instead of
  // feeding padding bytes back through Update one at a time.
  block_[block_fill_++] = 0x80;
  if (block_fill_ > 56) {
    std::memset(block_ + block_fill_, 0, sizeof(block_) - block_fill_);
    ProcessBlocks(block_, 1);
    block_fill_ = 0;
  }
  std::memset(block_ + block_fill_, 0, 56 - block_fill_);
  for (int i = 0; i < 8; ++i) {
    block_[56 + i] = static_cast<uint8_t>(bit_length >> (8 * (7 - i)));
  }
  ProcessBlocks(block_, 1);
  block_fill_ = 0;
}

Digest Hasher::ExtractDigest() const {
  Digest out;
  size_t words = alg_ == HashAlgorithm::kSha1 ? 5 : 8;
  out.set_size(words * 4);
  for (size_t i = 0; i < words; ++i) {
    out.mutable_data()[4 * i] = static_cast<uint8_t>(h_[i] >> 24);
    out.mutable_data()[4 * i + 1] = static_cast<uint8_t>(h_[i] >> 16);
    out.mutable_data()[4 * i + 2] = static_cast<uint8_t>(h_[i] >> 8);
    out.mutable_data()[4 * i + 3] = static_cast<uint8_t>(h_[i]);
  }
  return out;
}

Digest Hasher::Finish() {
  FinishBlocks(total_bytes_ * 8);
  return ExtractDigest();
}

Digest Hasher::Hash(HashAlgorithm alg, std::span<const uint8_t> data,
                    ShaImpl impl) {
  Hasher h(alg, impl);
  if (data.size() < 56) {
    // Single-block fast path: message, 0x80 and the length all fit in one
    // block, so skip the Update() buffering entirely. This is the common
    // case for Merkle leaf/internal-node hashing (tens of bytes).
    if (!data.empty()) {
      std::memcpy(h.block_, data.data(), data.size());
    }
    h.block_fill_ = data.size();
    h.FinishBlocks(static_cast<uint64_t>(data.size()) * 8);
    return h.ExtractDigest();
  }
  h.Update(data);
  return h.Finish();
}

}  // namespace spauth
