#include "core/client.h"

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "core/core_test_context.h"
#include "core/engine.h"

namespace spauth {
namespace {

using testing::CoreTestContext;
using testing::OneSetWeight;

TEST(WireClientTest, VerifiesAllMethodsWithoutAnEngine) {
  const auto& ctx = CoreTestContext::Get();
  const RsaPublicKey& owner_key = ctx.keys.public_key();
  for (MethodKind method : kAllMethods) {
    auto engine = ctx.MakeMethodEngine(method);
    for (const Query& q : ctx.queries) {
      auto bundle = engine->Answer(q);
      ASSERT_TRUE(bundle.ok());
      // The standalone client sees only the bytes + the public key.
      WireVerification result =
          VerifyWireAnswer(owner_key, q, bundle.value().bytes);
      EXPECT_TRUE(result.outcome.accepted)
          << ToString(method) << ": " << result.outcome.ToString();
      EXPECT_EQ(result.method, method);
      EXPECT_EQ(result.path, bundle.value().path);
      EXPECT_EQ(result.distance, bundle.value().distance);
    }
  }
}

TEST(WireClientTest, MethodDispatchComesFromTheCertificate) {
  const auto& ctx = CoreTestContext::Get();
  auto hyp = ctx.MakeMethodEngine(MethodKind::kHyp);
  auto bundle = hyp->Answer(ctx.queries[0]);
  ASSERT_TRUE(bundle.ok());
  WireVerification result = VerifyWireAnswer(ctx.keys.public_key(),
                                             ctx.queries[0],
                                             bundle.value().bytes);
  EXPECT_EQ(result.method, MethodKind::kHyp);
  EXPECT_TRUE(result.outcome.accepted);
}

TEST(WireClientTest, RejectsWrongOwnerKey) {
  const auto& ctx = CoreTestContext::Get();
  Rng rng(606);
  auto other = RsaKeyPair::Generate(512, &rng);
  ASSERT_TRUE(other.ok());
  auto engine = ctx.MakeMethodEngine(MethodKind::kDij);
  auto bundle = engine->Answer(ctx.queries[0]);
  ASSERT_TRUE(bundle.ok());
  WireVerification result = VerifyWireAnswer(
      other.value().public_key(), ctx.queries[0], bundle.value().bytes);
  EXPECT_FALSE(result.outcome.accepted);
  EXPECT_EQ(result.outcome.failure, VerifyFailure::kBadCertificate);
}

TEST(WireClientTest, RejectsGarbageWithoutCrashing) {
  const auto& ctx = CoreTestContext::Get();
  Rng rng(607);
  for (size_t size : {0u, 3u, 64u, 1024u}) {
    std::vector<uint8_t> noise(size);
    rng.FillBytes(noise.data(), noise.size());
    WireVerification result =
        VerifyWireAnswer(ctx.keys.public_key(), ctx.queries[0], noise);
    EXPECT_FALSE(result.outcome.accepted);
    EXPECT_EQ(result.outcome.failure, VerifyFailure::kMalformedProof);
  }
}

TEST(WireClientTest, RejectsQueryMismatch) {
  const auto& ctx = CoreTestContext::Get();
  auto engine = ctx.MakeMethodEngine(MethodKind::kFull);
  auto bundle = engine->Answer(ctx.queries[0]);
  ASSERT_TRUE(bundle.ok());
  WireVerification result = VerifyWireAnswer(ctx.keys.public_key(),
                                             ctx.queries[1],
                                             bundle.value().bytes);
  EXPECT_FALSE(result.outcome.accepted);
}

class ClientWatermarkTest : public ::testing::Test {
 protected:
  // Three worlds of the same engine: version 0 and two rotations.
  void SetUp() override {
    const auto& ctx = CoreTestContext::Get();
    auto engine = ctx.MakeMethodEngine(MethodKind::kDij);
    ASSERT_NE(engine, nullptr);
    query_ = ctx.queries[0];
    auto v0 = engine->Answer(query_);
    ASSERT_TRUE(v0.ok());
    v0_bytes_ = v0.value().bytes;
    const NodeId u = v0.value().path.nodes[0];
    const NodeId v = v0.value().path.nodes[1];
    const double w = ctx.graph.EdgeWeight(u, v).value();
    ASSERT_TRUE(
        engine->ApplyUpdates(&ctx.keys, OneSetWeight(u, v, w * 2)).ok());
    auto v1 = engine->Answer(query_);
    ASSERT_TRUE(v1.ok());
    v1_bytes_ = v1.value().bytes;
    ASSERT_TRUE(
        engine->ApplyUpdates(&ctx.keys, OneSetWeight(u, v, w * 3)).ok());
    auto v2 = engine->Answer(query_);
    ASSERT_TRUE(v2.ok());
    v2_bytes_ = v2.value().bytes;
  }

  Query query_;
  std::vector<uint8_t> v0_bytes_;
  std::vector<uint8_t> v1_bytes_;
  std::vector<uint8_t> v2_bytes_;
};

TEST_F(ClientWatermarkTest, UntrackedClientAcceptsEveryAuthenticVersion) {
  const auto& ctx = CoreTestContext::Get();
  Client client(ctx.keys.public_key());
  EXPECT_FALSE(client.tracking_versions());
  WireVerification newer = client.Verify(query_, v1_bytes_);
  EXPECT_TRUE(newer.outcome.accepted);
  EXPECT_EQ(newer.version, 1u);
  // Without freshness tracking a replayed old-world answer still verifies.
  WireVerification older = client.Verify(query_, v0_bytes_);
  EXPECT_TRUE(older.outcome.accepted);
  EXPECT_EQ(older.version, 0u);
}

TEST_F(ClientWatermarkTest, WatermarkRejectsOlderVersionsAfterAccept) {
  const auto& ctx = CoreTestContext::Get();
  Client client(ctx.keys.public_key());
  client.TrackShardVersions(1);
  EXPECT_TRUE(client.Verify(query_, v0_bytes_).outcome.accepted);
  EXPECT_EQ(client.ShardVersionWatermark(0), 0u);
  EXPECT_TRUE(client.Verify(query_, v1_bytes_).outcome.accepted);
  EXPECT_EQ(client.ShardVersionWatermark(0), 1u);
  // Re-accepting the watermark version is fine; anything older is stale.
  EXPECT_TRUE(client.Verify(query_, v1_bytes_).outcome.accepted);
  WireVerification stale = client.Verify(query_, v0_bytes_);
  EXPECT_FALSE(stale.outcome.accepted);
  EXPECT_EQ(stale.outcome.failure, VerifyFailure::kStaleCertificate);
  // A stale rejection never regresses the watermark.
  EXPECT_EQ(client.ShardVersionWatermark(0), 1u);
}

TEST_F(ClientWatermarkTest, WatermarksArePerShard) {
  const auto& ctx = CoreTestContext::Get();
  Client client(ctx.keys.public_key());
  client.TrackShardVersions(2);
  EXPECT_TRUE(client.Verify(query_, v1_bytes_, /*shard=*/0)
                  .outcome.accepted);
  // Shard 1 has its own watermark: the old world is still fresh there.
  EXPECT_TRUE(client.Verify(query_, v0_bytes_, /*shard=*/1)
                  .outcome.accepted);
  EXPECT_EQ(client.ShardVersionWatermark(0), 1u);
  EXPECT_EQ(client.ShardVersionWatermark(1), 0u);
  // ...until that shard also advances.
  EXPECT_TRUE(client.Verify(query_, v1_bytes_, /*shard=*/1)
                  .outcome.accepted);
  EXPECT_FALSE(client.Verify(query_, v0_bytes_, /*shard=*/1)
                   .outcome.accepted);
}

TEST_F(ClientWatermarkTest, VerifyBatchEnforcesTheWatermark) {
  const auto& ctx = CoreTestContext::Get();
  Client client(ctx.keys.public_key());
  client.TrackShardVersions(1);
  // New answer first, then the stale replay inside one serial batch.
  const std::vector<VerifyRequest> requests = {{query_, v1_bytes_},
                                                {query_, v0_bytes_}};
  const auto results = client.VerifyBatch(requests, 1);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].outcome.accepted);
  EXPECT_FALSE(results[1].outcome.accepted);
  EXPECT_EQ(results[1].outcome.failure, VerifyFailure::kStaleCertificate);
}

TEST_F(ClientWatermarkTest, StalenessBoundAcceptsNearWatermarkAsDegraded) {
  const auto& ctx = CoreTestContext::Get();
  Client client(ctx.keys.public_key());
  client.TrackShardVersions(1);
  client.SetStalenessBound(1);
  ASSERT_TRUE(client.Verify(query_, v2_bytes_).outcome.accepted);
  ASSERT_EQ(client.ShardVersionWatermark(0), 2u);
  // One version behind the watermark: accepted, flagged degraded.
  WireVerification near = client.Verify(query_, v1_bytes_);
  EXPECT_TRUE(near.outcome.accepted);
  EXPECT_TRUE(near.degraded);
  EXPECT_EQ(near.staleness, 1u);
  // Two behind exceeds the bound: still a hard stale rejection.
  WireVerification far = client.Verify(query_, v0_bytes_);
  EXPECT_FALSE(far.outcome.accepted);
  EXPECT_EQ(far.outcome.failure, VerifyFailure::kStaleCertificate);
  EXPECT_FALSE(far.degraded);
  // Neither the degraded accept nor the rejection moved the watermark.
  EXPECT_EQ(client.ShardVersionWatermark(0), 2u);
}

TEST_F(ClientWatermarkTest, FreshAcceptsAreNotFlaggedDegraded) {
  const auto& ctx = CoreTestContext::Get();
  Client client(ctx.keys.public_key());
  client.TrackShardVersions(1);
  client.SetStalenessBound(4);
  WireVerification fresh = client.Verify(query_, v2_bytes_);
  EXPECT_TRUE(fresh.outcome.accepted);
  EXPECT_FALSE(fresh.degraded);
  EXPECT_EQ(fresh.staleness, 0u);
  // At or above the watermark is fresh, even in bounded mode.
  WireVerification again = client.Verify(query_, v2_bytes_);
  EXPECT_TRUE(again.outcome.accepted);
  EXPECT_FALSE(again.degraded);
}

TEST_F(ClientWatermarkTest, DefaultBoundZeroKeepsStrictFreshness) {
  const auto& ctx = CoreTestContext::Get();
  Client client(ctx.keys.public_key());
  client.TrackShardVersions(1);
  EXPECT_EQ(client.staleness_bound(), 0u);
  ASSERT_TRUE(client.Verify(query_, v1_bytes_).outcome.accepted);
  WireVerification stale = client.Verify(query_, v0_bytes_);
  EXPECT_FALSE(stale.outcome.accepted);
  EXPECT_EQ(stale.outcome.failure, VerifyFailure::kStaleCertificate);
}

TEST(WireClientTest, TrailingBytesRejected) {
  const auto& ctx = CoreTestContext::Get();
  auto engine = ctx.MakeMethodEngine(MethodKind::kLdm);
  auto bundle = engine->Answer(ctx.queries[2]);
  ASSERT_TRUE(bundle.ok());
  std::vector<uint8_t> padded = bundle.value().bytes;
  padded.push_back(0x00);
  WireVerification result =
      VerifyWireAnswer(ctx.keys.public_key(), ctx.queries[2], padded);
  EXPECT_FALSE(result.outcome.accepted);
  EXPECT_EQ(result.outcome.failure, VerifyFailure::kMalformedProof);
}

}  // namespace
}  // namespace spauth
