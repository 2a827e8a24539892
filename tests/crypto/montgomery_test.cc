// Differential oracle for BigInt::ModPow: the fixed-window Montgomery path
// (odd moduli) and the division path (even moduli) must return exactly what
// right-to-left square-and-multiply over ModMul returns, for moduli from 2
// to 4096 bits and the edge bases and exponents.
#include <gtest/gtest.h>

#include <vector>

#include "crypto/bigint.h"
#include "util/rng.h"

namespace spauth {
namespace {

// Square-and-multiply with a full division per step: the ModPow every
// exponentiation ran on before Montgomery multiplication.
BigInt OracleModPow(const BigInt& base, const BigInt& exp, const BigInt& m) {
  if (m == BigInt::FromU64(1)) {
    return BigInt();
  }
  BigInt acc = BigInt::Mod(base, m).value();
  BigInt result = BigInt::FromU64(1);
  const int bits = exp.BitLength();
  for (int i = 0; i < bits; ++i) {
    if (exp.GetBit(i)) {
      result = BigInt::ModMul(result, acc, m).value();
    }
    if (i + 1 < bits) {
      acc = BigInt::ModMul(acc, acc, m).value();
    }
  }
  return result;
}

void ExpectMatchesOracle(const BigInt& base, const BigInt& exp,
                         const BigInt& m) {
  auto got = BigInt::ModPow(base, exp, m);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().ToHexString(),
            OracleModPow(base, exp, m).ToHexString())
      << "base " << base.ToHexString() << " exp " << exp.ToHexString()
      << " mod " << m.ToHexString();
}

// The bases that stress reduction: 0, 1, m-1, m and wider than m, plus a
// random base below m.
std::vector<BigInt> EdgeBases(const BigInt& m, Rng* rng) {
  const BigInt one = BigInt::FromU64(1);
  return {BigInt(),
          one,
          BigInt::Sub(m, one),
          m,
          BigInt::Add(m, one),
          BigInt::Add(BigInt::Mul(m, BigInt::FromU64(3)), BigInt::FromU64(7)),
          BigInt::RandomWithBits(m.BitLength() + 40, rng),
          BigInt::RandomBelow(m, rng)};
}

// Exponents: 0, 1, the RSA public exponent, and random widths up to
// `max_bits` (each a different fixed-window width).
std::vector<BigInt> Exponents(int max_bits, Rng* rng) {
  std::vector<BigInt> out = {BigInt(), BigInt::FromU64(1),
                             BigInt::FromU64(2), BigInt::FromU64(65537)};
  for (int bits : {23, 24, 80, 81, 240, 241, 672, 673, 1024}) {
    if (bits <= max_bits) {
      out.push_back(BigInt::RandomWithBits(bits, rng));
    }
  }
  return out;
}

TEST(MontgomeryModPowTest, RandomOddModuliMatchOracle) {
  Rng rng(1601);
  for (int bits : {64, 65, 96, 127, 128, 192, 255, 512, 1023, 1024, 1536,
                   2048, 3072, 4096}) {
    BigInt m = BigInt::RandomWithBits(bits, &rng);
    if (!m.IsOdd()) {
      m = BigInt::Add(m, BigInt::FromU64(1));
    }
    // Full-width exponents against the slow oracle cost seconds at 4096
    // bits; the window logic is covered by the narrower ones.
    const int max_exp_bits = bits <= 1024 ? 1024 : 256;
    const std::vector<BigInt> bases = EdgeBases(m, &rng);
    for (const BigInt& exp : Exponents(max_exp_bits, &rng)) {
      for (const BigInt& base : bases) {
        ExpectMatchesOracle(base, exp, m);
      }
    }
  }
}

TEST(MontgomeryModPowTest, FullWidthExponents) {
  Rng rng(1602);
  for (int bits : {64, 256, 512, 1024}) {
    for (int trial = 0; trial < 4; ++trial) {
      BigInt m = BigInt::RandomWithBits(bits, &rng);
      if (!m.IsOdd()) {
        m = BigInt::Add(m, BigInt::FromU64(1));
      }
      ExpectMatchesOracle(BigInt::RandomBelow(m, &rng),
                          BigInt::RandomWithBits(bits, &rng), m);
    }
  }
}

// Moduli whose words are all ones or nearly empty push the final
// conditional subtraction and the carry out of the top word.
TEST(MontgomeryModPowTest, ExtremeModuli) {
  Rng rng(1603);
  const BigInt one = BigInt::FromU64(1);
  std::vector<BigInt> moduli = {BigInt::FromU64(3), BigInt::FromU64(5),
                                BigInt::FromU64(0xffffffffULL),
                                BigInt::FromU64(0x100000001ULL),
                                BigInt::FromU64(UINT64_MAX)};
  for (int bits : {96, 128, 520, 1024, 2048}) {
    moduli.push_back(BigInt::Sub(one.ShiftLeft(bits), one));  // 2^k - 1
    moduli.push_back(BigInt::Add(one.ShiftLeft(bits - 1), one));
  }
  for (const BigInt& m : moduli) {
    const std::vector<BigInt> bases = EdgeBases(m, &rng);
    for (const BigInt& exp : Exponents(256, &rng)) {
      for (const BigInt& base : bases) {
        ExpectMatchesOracle(base, exp, m);
      }
    }
  }
}

TEST(MontgomeryModPowTest, EvenModuliKeepTheDivisionPath) {
  Rng rng(1604);
  std::vector<BigInt> moduli = {BigInt::FromU64(2), BigInt::FromU64(4096),
                                BigInt::FromU64(1).ShiftLeft(521)};
  for (int bits : {64, 200, 1024}) {
    BigInt m = BigInt::RandomWithBits(bits, &rng);
    if (m.IsOdd()) {
      m = BigInt::Add(m, BigInt::FromU64(1));
    }
    moduli.push_back(m);
  }
  for (const BigInt& m : moduli) {
    const std::vector<BigInt> bases = EdgeBases(m, &rng);
    for (const BigInt& exp : Exponents(256, &rng)) {
      for (const BigInt& base : bases) {
        ExpectMatchesOracle(base, exp, m);
      }
    }
  }
}

TEST(MontgomeryModPowTest, ModulusOneAndZero) {
  EXPECT_TRUE(BigInt::ModPow(BigInt::FromU64(5), BigInt::FromU64(3),
                             BigInt::FromU64(1))
                  .value()
                  .IsZero());
  EXPECT_TRUE(
      BigInt::ModPow(BigInt::FromU64(5), BigInt(), BigInt::FromU64(1))
          .value()
          .IsZero());
  EXPECT_FALSE(
      BigInt::ModPow(BigInt::FromU64(5), BigInt::FromU64(3), BigInt()).ok());
}

}  // namespace
}  // namespace spauth
