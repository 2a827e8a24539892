#include "crypto/rsa.h"

#include <gtest/gtest.h>

#include <string>

#include "crypto/bigint.h"
#include "crypto/digest.h"
#include "util/failpoint.h"
#include "util/hex.h"
#include "util/rng.h"

namespace spauth {
namespace {

Digest HashString(HashAlgorithm alg, const std::string& s) {
  return Hasher::Hash(alg,
                      {reinterpret_cast<const uint8_t*>(s.data()), s.size()});
}

class RsaTest : public ::testing::Test {
 protected:
  // 512-bit keys keep the test fast; Generate() rejects anything smaller.
  static void SetUpTestSuite() {
    Rng rng(20100301);
    auto kp = RsaKeyPair::Generate(512, &rng);
    ASSERT_TRUE(kp.ok());
    key_pair_ = new RsaKeyPair(std::move(kp).value());
  }
  static void TearDownTestSuite() {
    delete key_pair_;
    key_pair_ = nullptr;
  }

  static RsaKeyPair* key_pair_;
};

RsaKeyPair* RsaTest::key_pair_ = nullptr;

TEST_F(RsaTest, SignVerifyRoundTrip) {
  Digest d = HashString(HashAlgorithm::kSha1, "merkle root");
  auto sig = key_pair_->Sign(d);
  ASSERT_TRUE(sig.ok());
  EXPECT_EQ(sig.value().size(), key_pair_->public_key().SignatureSize());
  EXPECT_TRUE(RsaVerify(key_pair_->public_key(), d, sig.value()));
}

TEST_F(RsaTest, Sha256DigestsAlsoWork) {
  Digest d = HashString(HashAlgorithm::kSha256, "merkle root");
  auto sig = key_pair_->Sign(d);
  ASSERT_TRUE(sig.ok());
  EXPECT_TRUE(RsaVerify(key_pair_->public_key(), d, sig.value()));
}

TEST_F(RsaTest, WrongDigestRejected) {
  Digest d = HashString(HashAlgorithm::kSha1, "merkle root");
  Digest other = HashString(HashAlgorithm::kSha1, "another root");
  auto sig = key_pair_->Sign(d);
  ASSERT_TRUE(sig.ok());
  EXPECT_FALSE(RsaVerify(key_pair_->public_key(), other, sig.value()));
}

TEST_F(RsaTest, FlippedSignatureBitRejected) {
  Digest d = HashString(HashAlgorithm::kSha1, "merkle root");
  auto sig = key_pair_->Sign(d);
  ASSERT_TRUE(sig.ok());
  for (size_t i = 0; i < sig.value().size(); i += 13) {
    auto tampered = sig.value();
    tampered[i] ^= 0x01;
    EXPECT_FALSE(RsaVerify(key_pair_->public_key(), d, tampered));
  }
}

TEST_F(RsaTest, TruncatedSignatureRejected) {
  Digest d = HashString(HashAlgorithm::kSha1, "merkle root");
  auto sig = key_pair_->Sign(d);
  ASSERT_TRUE(sig.ok());
  auto truncated = sig.value();
  truncated.pop_back();
  EXPECT_FALSE(RsaVerify(key_pair_->public_key(), d, truncated));
}

TEST_F(RsaTest, AllZeroSignatureRejected) {
  Digest d = HashString(HashAlgorithm::kSha1, "merkle root");
  std::vector<uint8_t> zeros(key_pair_->public_key().SignatureSize(), 0);
  EXPECT_FALSE(RsaVerify(key_pair_->public_key(), d, zeros));
}

TEST_F(RsaTest, DifferentKeyRejects) {
  Rng rng(99);
  auto other = RsaKeyPair::Generate(512, &rng);
  ASSERT_TRUE(other.ok());
  Digest d = HashString(HashAlgorithm::kSha1, "merkle root");
  auto sig = key_pair_->Sign(d);
  ASSERT_TRUE(sig.ok());
  EXPECT_FALSE(RsaVerify(other.value().public_key(), d, sig.value()));
}

TEST_F(RsaTest, PublicKeySerializationRoundTrip) {
  ByteWriter w;
  key_pair_->public_key().Serialize(&w);
  ByteReader r(w.view());
  auto restored = RsaPublicKey::Deserialize(&r);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(BigInt::Compare(restored.value().modulus,
                            key_pair_->public_key().modulus),
            0);
  // The restored key verifies signatures from the original.
  Digest d = HashString(HashAlgorithm::kSha1, "roundtrip");
  auto sig = key_pair_->Sign(d);
  ASSERT_TRUE(sig.ok());
  EXPECT_TRUE(RsaVerify(restored.value(), d, sig.value()));
}

TEST(RsaGenerateTest, RejectsTinyModulus) {
  Rng rng(1);
  EXPECT_FALSE(RsaKeyPair::Generate(128, &rng).ok());
}

TEST(RsaGenerateTest, DeterministicFromSeed) {
  Rng rng_a(777), rng_b(777);
  auto a = RsaKeyPair::Generate(512, &rng_a);
  auto b = RsaKeyPair::Generate(512, &rng_b);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(BigInt::Compare(a.value().public_key().modulus,
                            b.value().public_key().modulus),
            0);
}

// The encoded message block Sign exponentiates:
//   0x00 0x01 FF .. FF 0x00 <alg-id byte> <digest bytes>.
BigInt EncodedMessage(const Digest& digest, size_t size) {
  std::vector<uint8_t> em(size, 0xff);
  em[0] = 0x00;
  em[1] = 0x01;
  const size_t offset = size - digest.size();
  em[offset - 2] = 0x00;
  em[offset - 1] = static_cast<uint8_t>(
      digest.size() == 20 ? HashAlgorithm::kSha1 : HashAlgorithm::kSha256);
  std::copy(digest.view().begin(), digest.view().end(),
            em.begin() + static_cast<ptrdiff_t>(offset));
  return BigInt::FromBytesBigEndian(em);
}

// CRT signing must be byte-identical to the plain m^d mod n it replaces.
TEST(RsaCrtTest, SignMatchesPlainExponentiation) {
  const BigInt e = BigInt::FromU64(65537);
  const BigInt one = BigInt::FromU64(1);
  Rng rng(1605);
  for (int bits : {512, 1024, 2048}) {
    BigInt p, q;
    Result<RsaKeyPair> keys = Status::Internal("unset");
    while (!keys.ok()) {
      p = BigInt::GeneratePrime(bits / 2, &rng);
      q = BigInt::GeneratePrime(bits - bits / 2, &rng);
      keys = RsaKeyPair::FromPrimes(p, q, e);
    }
    const BigInt n = BigInt::Mul(p, q);
    ASSERT_EQ(keys.value().public_key().modulus, n);
    const BigInt d =
        BigInt::ModInverse(e, BigInt::Mul(BigInt::Sub(p, one),
                                          BigInt::Sub(q, one)))
            .value();
    const size_t k = keys.value().public_key().SignatureSize();
    for (int i = 0; i < 200; ++i) {
      const Digest digest =
          HashString(i % 2 == 0 ? HashAlgorithm::kSha1
                                : HashAlgorithm::kSha256,
                     "digest " + std::to_string(i));
      auto sig = keys.value().Sign(digest);
      ASSERT_TRUE(sig.ok()) << sig.status().ToString();
      const BigInt plain =
          BigInt::ModPow(EncodedMessage(digest, k), d, n).value();
      ASSERT_EQ(sig.value(), plain.ToBytesBigEndian(k).value())
          << bits << "-bit key, digest " << i;
      EXPECT_TRUE(RsaVerify(keys.value().public_key(), digest, sig.value()));
    }
  }
}

// Keys and signatures from a seed are the bytes the pre-CRT signer
// produced (pinned from it), so every certificate stays byte-identical.
TEST(RsaCrtTest, KeyAndSignatureBytesPinned) {
  Rng rng(42);
  auto keys = RsaKeyPair::Generate(1024, &rng);
  ASSERT_TRUE(keys.ok());
  EXPECT_EQ(keys.value().public_key().modulus.ToHexString(),
            "a2ef7645f2bee2daa0bfadb8e9f43458f3f7b3ca19cd6769ea892aeb96d877a7"
            "19adf2653a24f023ffcb5fb0e4a98357d1894683c054057b08787723a758312"
            "7f868a959bd9cbec47bdc4353aac7cdabddc2eb5fc061ed4c8d40929035412"
            "921a1bade5844c53baaea373a90603c140c115cfdfcb5881bbd3dbfda7fa11e"
            "39f3");
  const char* kSignatureSha1[] = {"ecb62dbb908e76f23f55ace32682df65c785925c",
                                  "ce2339d6978a232a75353cec4b4939895c85f261",
                                  "a0ee9c4d1689a3d6f56f0f3b56eb528e9ccb14d7"};
  for (int i = 0; i < 3; ++i) {
    auto sig = keys.value().Sign(
        HashString(HashAlgorithm::kSha1, "root" + std::to_string(i)));
    ASSERT_TRUE(sig.ok());
    EXPECT_EQ(ToHex(Hasher::Hash(HashAlgorithm::kSha1, sig.value()).view()),
              kSignatureSha1[i]);
  }
}

TEST(RsaCrtTest, FromPrimesRejectsBadPrimes) {
  const BigInt p = BigInt::FromU64(4294967291ULL);  // prime, = 2 mod 3
  const BigInt q = BigInt::FromU64(4294967279ULL);  // prime, = 2 mod 3
  EXPECT_FALSE(RsaKeyPair::FromPrimes(p, p, BigInt::FromU64(65537)).ok());
  // e = 3 divides (p-1)(q-1) when p = 1 mod 3.
  const BigInt p1 = BigInt::FromU64(4294967197ULL);  // prime, = 1 mod 3
  EXPECT_FALSE(RsaKeyPair::FromPrimes(p1, q, BigInt::FromU64(3)).ok());
  EXPECT_TRUE(RsaKeyPair::FromPrimes(p, q, BigInt::FromU64(3)).ok());
}

// A fault in one CRT half yields a signature that factors n; the
// public-key check before release must refuse it, never emit it.
TEST(RsaCrtTest, FaultedHalfIsNeverReleased) {
  if (!FailPointsCompiledIn()) {
    GTEST_SKIP() << "fail points compiled out";
  }
  Rng rng(20100301);
  auto keys = RsaKeyPair::Generate(512, &rng);
  ASSERT_TRUE(keys.ok());
  const Digest digest = HashString(HashAlgorithm::kSha1, "fault");
  const std::vector<uint8_t> good = keys.value().Sign(digest).value();
  {
    ScopedFailPoint fault("rsa/crt_fault", FailPointSpec{});
    for (int i = 0; i < 5; ++i) {
      auto sig = keys.value().Sign(digest);
      ASSERT_FALSE(sig.ok());
      EXPECT_EQ(sig.status().code(), StatusCode::kInternal);
    }
    EXPECT_EQ(FailPointRegistry::Global().GetStats("rsa/crt_fault").fires,
              5u);
  }
  // Disarmed, the same key signs the same bytes again.
  auto sig = keys.value().Sign(digest);
  ASSERT_TRUE(sig.ok());
  EXPECT_EQ(sig.value(), good);
}

}  // namespace
}  // namespace spauth
