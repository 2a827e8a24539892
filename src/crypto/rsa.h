// RSA signatures over Merkle roots (the data owner's signing primitive).
//
// Key generation, signing and verification are implemented from scratch on
// top of BigInt. Signing follows the EMSA-PKCS1-v1_5 shape: the digest is
// wrapped in a 0x00 0x01 FF..FF 0x00 <alg-id> <digest> block the size of the
// modulus, then exponentiated with the private key. This mirrors the paper's
// use of RSA [10] to sign the ADS root.
//
// Signing uses the Chinese remainder theorem: two half-width
// exponentiations mod p and mod q, recombined with Garner's formula. The
// encoding is deterministic and m^d mod n is unique, so a CRT signature is
// byte-identical to the plain one. A fault in either half would yield a
// signature that leaks a factor of n (Boneh-DeMillo-Lipton), so Sign checks
// every signature against the public key before releasing it.
#ifndef SPAUTH_CRYPTO_RSA_H_
#define SPAUTH_CRYPTO_RSA_H_

#include <cstdint>
#include <vector>

#include "crypto/bigint.h"
#include "crypto/digest.h"
#include "util/byte_buffer.h"
#include "util/rng.h"
#include "util/status.h"

namespace spauth {

/// Public half of an RSA key pair; distributed to clients out of band.
struct RsaPublicKey {
  BigInt modulus;          // n = p*q
  BigInt public_exponent;  // e (65537)

  /// Signature length in bytes (the modulus width).
  size_t SignatureSize() const {
    return (static_cast<size_t>(modulus.BitLength()) + 7) / 8;
  }

  void Serialize(ByteWriter* out) const;
  static Result<RsaPublicKey> Deserialize(ByteReader* in);
};

/// Full key pair held by the data owner.
class RsaKeyPair {
 public:
  /// Generates a fresh key pair with a modulus of `modulus_bits` bits.
  /// 1024 matches the paper's era; tests use smaller keys for speed.
  static Result<RsaKeyPair> Generate(int modulus_bits, Rng* rng);

  /// The key pair with n = p*q and public exponent e, where
  /// d = e^-1 mod (p-1)(q-1). Fails when p == q or e is not invertible.
  static Result<RsaKeyPair> FromPrimes(BigInt p, BigInt q, BigInt e);

  const RsaPublicKey& public_key() const { return public_key_; }

  /// Signs a digest. Returns the signature as modulus-width bytes, or an
  /// Internal error when the CRT result fails the public-key check (a
  /// faulty signature is never released).
  Result<std::vector<uint8_t>> Sign(const Digest& digest) const;

 private:
  RsaKeyPair() = default;

  RsaPublicKey public_key_;
  // CRT form of the private key.
  BigInt p_, q_;
  BigInt dp_;     // d mod (p-1)
  BigInt dq_;     // d mod (q-1)
  BigInt q_inv_;  // q^-1 mod p
};

/// Verifies `signature` over `digest` under `key`. Returns true iff valid.
bool RsaVerify(const RsaPublicKey& key, const Digest& digest,
               std::span<const uint8_t> signature);

/// Process-wide monotone operation counters (relaxed atomics). These exist
/// so tests and bench JSON can assert the amortization claims directly —
/// "a fleet rotation signs exactly once", "a client verifies one signature
/// per fleet epoch" — instead of inferring them from timings.
uint64_t RsaSignOps();
uint64_t RsaVerifyOps();

}  // namespace spauth

#endif  // SPAUTH_CRYPTO_RSA_H_
