// Arbitrary-precision unsigned integer arithmetic, sized for RSA moduli
// (tested up to 4096 bits). Implemented from scratch: schoolbook
// multiplication, Knuth Algorithm D division, modular exponentiation
// (fixed-window Montgomery for odd moduli, square-and-multiply over full
// divisions for even ones), extended Euclid inverse and Miller-Rabin
// primality.
//
// Representation: little-endian vector of 32-bit limbs, normalized so the
// most significant limb is non-zero (zero is the empty vector).
#ifndef SPAUTH_CRYPTO_BIGINT_H_
#define SPAUTH_CRYPTO_BIGINT_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/rng.h"
#include "util/status.h"

namespace spauth {

class BigInt;

/// Quotient/remainder pair returned by BigInt::DivMod.
struct BigIntDivMod;

class BigInt {
 public:
  /// Zero.
  BigInt() = default;

  static BigInt FromU64(uint64_t v);

  /// Interprets `bytes` as a big-endian unsigned integer.
  static BigInt FromBytesBigEndian(std::span<const uint8_t> bytes);

  /// Big-endian bytes, left-padded with zeros to exactly `size` bytes.
  /// Returns an error if the value does not fit.
  Result<std::vector<uint8_t>> ToBytesBigEndian(size_t size) const;

  /// Minimal big-endian byte representation ("0" encodes as one zero byte).
  std::vector<uint8_t> ToBytesBigEndian() const;

  /// Uniformly random integer in [0, bound). bound must be > 0.
  static BigInt RandomBelow(const BigInt& bound, Rng* rng);

  /// Random integer with exactly `bits` bits (top bit set).
  static BigInt RandomWithBits(int bits, Rng* rng);

  bool IsZero() const { return limbs_.empty(); }
  bool IsOdd() const { return !limbs_.empty() && (limbs_[0] & 1); }

  /// Number of significant bits (0 for zero).
  int BitLength() const;
  bool GetBit(int i) const;

  /// Three-way comparison: -1, 0, +1.
  static int Compare(const BigInt& a, const BigInt& b);
  bool operator==(const BigInt& other) const {
    return Compare(*this, other) == 0;
  }
  bool operator<(const BigInt& other) const {
    return Compare(*this, other) < 0;
  }
  bool operator<=(const BigInt& other) const {
    return Compare(*this, other) <= 0;
  }

  static BigInt Add(const BigInt& a, const BigInt& b);
  /// Requires a >= b.
  static BigInt Sub(const BigInt& a, const BigInt& b);
  static BigInt Mul(const BigInt& a, const BigInt& b);

  /// Knuth Algorithm D. Requires divisor != 0.
  static Result<BigIntDivMod> DivMod(const BigInt& a, const BigInt& b);
  static Result<BigInt> Mod(const BigInt& a, const BigInt& m);

  /// (a * b) mod m.
  static Result<BigInt> ModMul(const BigInt& a, const BigInt& b,
                               const BigInt& m);
  /// base^exp mod m. Requires m != 0. An odd m (every RSA modulus and
  /// prime candidate) runs fixed-window Montgomery multiplication with no
  /// division per step; an even m falls back to square-and-multiply over
  /// ModMul. Both return the same value.
  static Result<BigInt> ModPow(const BigInt& base, const BigInt& exp,
                               const BigInt& m);
  /// Multiplicative inverse of a mod m, if gcd(a, m) == 1.
  static Result<BigInt> ModInverse(const BigInt& a, const BigInt& m);

  static BigInt Gcd(BigInt a, BigInt b);

  BigInt ShiftLeft(int bits) const;
  BigInt ShiftRight(int bits) const;

  /// Miller-Rabin probabilistic primality test with `rounds` random bases.
  static bool IsProbablePrime(const BigInt& n, int rounds, Rng* rng);

  /// Generates a random probable prime with exactly `bits` bits, trying at
  /// most 64 * bits candidates. Primes are dense enough that a correct
  /// ModPow finds one far sooner; exhausting the bound means the primality
  /// test rejects everything, and it fails with Internal instead of
  /// spinning forever.
  static Result<BigInt> GeneratePrime(int bits, Rng* rng);
  /// As above with an explicit candidate bound (tests drive exhaustion).
  static Result<BigInt> GeneratePrime(int bits, Rng* rng, int max_candidates);

  /// Lowercase hexadecimal ("0" for zero).
  std::string ToHexString() const;
  static Result<BigInt> FromHexString(std::string_view hex);

  uint64_t LowU64() const;

  const std::vector<uint32_t>& limbs() const { return limbs_; }

 private:
  void Normalize();

  std::vector<uint32_t> limbs_;
};

struct BigIntDivMod {
  BigInt quotient;
  BigInt remainder;
};

}  // namespace spauth

#endif  // SPAUTH_CRYPTO_BIGINT_H_
