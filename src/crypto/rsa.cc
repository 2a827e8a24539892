#include "crypto/rsa.h"

#include <algorithm>
#include <atomic>

#include "util/failpoint.h"

namespace spauth {

namespace {

constexpr uint64_t kPublicExponent = 65537;

// Builds the EMSA-PKCS1-v1_5-style encoded message block:
//   0x00 0x01 FF .. FF 0x00 <alg-id byte> <digest bytes>
// exactly `size` bytes long.
Result<std::vector<uint8_t>> EncodeMessage(const Digest& digest, size_t size) {
  const size_t overhead = 3 + 1;  // leading bytes, separator, alg id
  if (size < digest.size() + overhead + 8) {
    return Status::InvalidArgument("modulus too small for digest encoding");
  }
  std::vector<uint8_t> em(size, 0xff);
  em[0] = 0x00;
  em[1] = 0x01;
  const size_t digest_offset = size - digest.size();
  em[digest_offset - 2] = 0x00;
  em[digest_offset - 1] =
      digest.size() == 20 ? static_cast<uint8_t>(HashAlgorithm::kSha1)
                          : static_cast<uint8_t>(HashAlgorithm::kSha256);
  std::copy(digest.view().begin(), digest.view().end(),
            em.begin() + static_cast<ptrdiff_t>(digest_offset));
  return em;
}

}  // namespace

void RsaPublicKey::Serialize(ByteWriter* out) const {
  out->WriteLengthPrefixed(modulus.ToBytesBigEndian());
  out->WriteLengthPrefixed(public_exponent.ToBytesBigEndian());
}

Result<RsaPublicKey> RsaPublicKey::Deserialize(ByteReader* in) {
  std::vector<uint8_t> n_bytes, e_bytes;
  SPAUTH_RETURN_IF_ERROR(in->ReadLengthPrefixed(&n_bytes));
  SPAUTH_RETURN_IF_ERROR(in->ReadLengthPrefixed(&e_bytes));
  RsaPublicKey key;
  key.modulus = BigInt::FromBytesBigEndian(n_bytes);
  key.public_exponent = BigInt::FromBytesBigEndian(e_bytes);
  if (key.modulus.IsZero() || key.public_exponent.IsZero()) {
    return Status::Malformed("RSA public key components must be non-zero");
  }
  return key;
}

Result<RsaKeyPair> RsaKeyPair::Generate(int modulus_bits, Rng* rng) {
  if (modulus_bits < 512) {
    return Status::InvalidArgument("modulus must be at least 512 bits");
  }
  for (;;) {
    BigInt p = BigInt::GeneratePrime(modulus_bits / 2, rng);
    BigInt q = BigInt::GeneratePrime(modulus_bits - modulus_bits / 2, rng);
    if (BigInt::Mul(p, q).BitLength() != modulus_bits) {
      continue;
    }
    auto keys = FromPrimes(std::move(p), std::move(q),
                           BigInt::FromU64(kPublicExponent));
    if (keys.ok()) {
      return keys;
    }
  }
}

Result<RsaKeyPair> RsaKeyPair::FromPrimes(BigInt p, BigInt q, BigInt e) {
  if (p == q) {
    return Status::InvalidArgument("RSA primes must differ");
  }
  const BigInt one = BigInt::FromU64(1);
  const BigInt p1 = BigInt::Sub(p, one);
  const BigInt q1 = BigInt::Sub(q, one);
  SPAUTH_ASSIGN_OR_RETURN(BigInt d,
                          BigInt::ModInverse(e, BigInt::Mul(p1, q1)));
  RsaKeyPair keys;
  SPAUTH_ASSIGN_OR_RETURN(keys.dp_, BigInt::Mod(d, p1));
  SPAUTH_ASSIGN_OR_RETURN(keys.dq_, BigInt::Mod(d, q1));
  SPAUTH_ASSIGN_OR_RETURN(keys.q_inv_, BigInt::ModInverse(q, p));
  keys.public_key_ = RsaPublicKey{BigInt::Mul(p, q), std::move(e)};
  keys.p_ = std::move(p);
  keys.q_ = std::move(q);
  return keys;
}

namespace {

// Relaxed is enough: the counters are read only after the operations whose
// counts they assert have completed (test/bench joins provide the ordering).
std::atomic<uint64_t> g_sign_ops{0};
std::atomic<uint64_t> g_verify_ops{0};

}  // namespace

uint64_t RsaSignOps() { return g_sign_ops.load(std::memory_order_relaxed); }
uint64_t RsaVerifyOps() {
  return g_verify_ops.load(std::memory_order_relaxed);
}

Result<std::vector<uint8_t>> RsaKeyPair::Sign(const Digest& digest) const {
  g_sign_ops.fetch_add(1, std::memory_order_relaxed);
  const size_t k = public_key_.SignatureSize();
  SPAUTH_ASSIGN_OR_RETURN(std::vector<uint8_t> em, EncodeMessage(digest, k));
  const BigInt m = BigInt::FromBytesBigEndian(em);
  SPAUTH_ASSIGN_OR_RETURN(BigInt sp, BigInt::ModPow(m, dp_, p_));
  SPAUTH_ASSIGN_OR_RETURN(BigInt sq, BigInt::ModPow(m, dq_, q_));
  if (SPAUTH_FAILPOINT_TRIGGERED("rsa/crt_fault")) {
    // A transient fault in the mod-p half, as in Boneh-DeMillo-Lipton.
    SPAUTH_ASSIGN_OR_RETURN(sp,
                            BigInt::Mod(BigInt::Add(sp, BigInt::FromU64(1)),
                                        p_));
  }
  // Garner: s = sq + q * (q^-1 * (sp - sq) mod p).
  SPAUTH_ASSIGN_OR_RETURN(BigInt sq_mod_p, BigInt::Mod(sq, p_));
  const BigInt diff = sp < sq_mod_p
                          ? BigInt::Sub(BigInt::Add(sp, p_), sq_mod_p)
                          : BigInt::Sub(sp, sq_mod_p);
  SPAUTH_ASSIGN_OR_RETURN(BigInt h, BigInt::ModMul(q_inv_, diff, p_));
  const BigInt s = BigInt::Add(sq, BigInt::Mul(h, q_));
  // Fault guard: release only a signature the public key opens to `m`.
  SPAUTH_ASSIGN_OR_RETURN(
      BigInt opened,
      BigInt::ModPow(s, public_key_.public_exponent, public_key_.modulus));
  if (!(opened == m)) {
    return Status::Internal("RSA-CRT signature failed the public-key check");
  }
  return s.ToBytesBigEndian(k);
}

bool RsaVerify(const RsaPublicKey& key, const Digest& digest,
               std::span<const uint8_t> signature) {
  g_verify_ops.fetch_add(1, std::memory_order_relaxed);
  const size_t k = key.SignatureSize();
  if (signature.size() != k) {
    return false;
  }
  BigInt s = BigInt::FromBytesBigEndian(signature);
  if (!(s < key.modulus)) {
    return false;
  }
  auto m = BigInt::ModPow(s, key.public_exponent, key.modulus);
  if (!m.ok()) {
    return false;
  }
  auto em = EncodeMessage(digest, k);
  if (!em.ok()) {
    return false;
  }
  auto recovered = m.value().ToBytesBigEndian(k);
  if (!recovered.ok()) {
    return false;
  }
  return recovered.value() == em.value();
}

}  // namespace spauth
