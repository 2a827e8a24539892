// SHA-NI must be a pure speed change: for every message length, chunking
// and algorithm, the hardware compression function's digests equal the
// scalar rounds' byte for byte (the scalar rounds are pinned to the FIPS
// vectors in digest_test.cc). Skipped where the build or CPU lacks SHA-NI.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "crypto/digest.h"
#include "util/rng.h"

namespace spauth {
namespace {

class ShaNiDiffTest : public ::testing::TestWithParam<HashAlgorithm> {
 protected:
  void SetUp() override {
    if (!ShaNiAvailable()) {
      GTEST_SKIP() << "SHA-NI not compiled in or not reported by cpuid";
    }
  }
};

std::vector<uint8_t> RandomMessage(Rng* rng, size_t size) {
  std::vector<uint8_t> msg(size);
  rng->FillBytes(msg.data(), msg.size());
  return msg;
}

TEST_P(ShaNiDiffTest, OneShotEveryLengthThrough300) {
  const HashAlgorithm alg = GetParam();
  Rng rng(300);
  for (size_t size = 0; size <= 300; ++size) {
    const std::vector<uint8_t> msg = RandomMessage(&rng, size);
    const Digest scalar = Hasher::Hash(alg, msg, ShaImpl::kScalar);
    EXPECT_EQ(Hasher::Hash(alg, msg, ShaImpl::kShaNi), scalar) << size;
    EXPECT_EQ(Hasher::Hash(alg, msg), scalar) << size;  // kAuto
  }
}

TEST_P(ShaNiDiffTest, ChunkedUpdatesOverRandomMultiBlockMessages) {
  const HashAlgorithm alg = GetParam();
  Rng rng(4096);
  for (int trial = 0; trial < 200; ++trial) {
    const std::vector<uint8_t> msg =
        RandomMessage(&rng, 64 + rng.NextBounded(4096));
    Hasher ni(alg, ShaImpl::kShaNi);
    Hasher scalar(alg, ShaImpl::kScalar);
    // Random chunk sizes straddle the block boundary in every way: some
    // chunks top up a partial block, some carry several whole blocks.
    for (size_t offset = 0; offset < msg.size();) {
      const size_t take = std::min<size_t>(msg.size() - offset,
                                           rng.NextBounded(200));
      ni.Update(msg.data() + offset, take);
      scalar.Update(msg.data() + offset, take);
      offset += take;
    }
    const Digest expected = scalar.Finish();
    EXPECT_EQ(ni.Finish(), expected) << "trial " << trial;
    EXPECT_EQ(Hasher::Hash(alg, msg, ShaImpl::kShaNi), expected)
        << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(BothAlgorithms, ShaNiDiffTest,
                         ::testing::Values(HashAlgorithm::kSha1,
                                           HashAlgorithm::kSha256),
                         [](const auto& info) {
                           return std::string(HashAlgorithmName(info.param));
                         });

}  // namespace
}  // namespace spauth
