// Forest certificate: one RSA signature must cover a whole shard fleet,
// and nothing less than the genuine (epoch, shard, certificate, path)
// quadruple may authenticate — the tamper matrix here pins every seam an
// adversarial provider could pry at: forged shard roots, swapped sibling
// paths, signatures lifted from another epoch, paths presented for the
// wrong shard, and truncated paths. Zero false accepts, across all four
// methods. The RSA amortization claims are asserted directly against the
// process-wide sign/verify op counters.
#include "core/forest_certificate.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/client.h"
#include "core/core_test_context.h"
#include "core/engine.h"
#include "core/sharded_engine.h"
#include "crypto/rsa.h"
#include "graph/generator.h"
#include "util/byte_buffer.h"
#include "util/failpoint.h"
#include "util/rng.h"

namespace spauth {
namespace {

using testing::CoreTestContext;

std::vector<Digest> FakeShardDigests(size_t n) {
  std::vector<Digest> digests;
  digests.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    ByteWriter w;
    w.WriteU64(0x5eed0000 + i);
    digests.push_back(Hasher::Hash(HashAlgorithm::kSha1, w.view()));
  }
  return digests;
}

ForestBuild BuildForest(const RsaKeyPair& keys, std::span<const Digest> leaves,
                        uint32_t epoch = 1, uint32_t fanout = 2) {
  ForestParams params;
  params.fleet_epoch = epoch;
  params.num_shards = static_cast<uint32_t>(leaves.size());
  params.fanout = fanout;
  auto built = BuildForestCertificate(keys, params, leaves);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return std::move(built).value();
}

// ---------------------------------------------------------------------------
// Primitive level: build / verify / path replay across tree shapes
// ---------------------------------------------------------------------------

TEST(ForestCertificateTest, EveryShardPathReachesTheRootAcrossTreeShapes) {
  const auto& ctx = CoreTestContext::Get();
  for (const size_t n : {1u, 2u, 3u, 5u, 8u, 13u}) {
    for (const uint32_t fanout : {2u, 3u, 4u}) {
      const std::vector<Digest> leaves = FakeShardDigests(n);
      const ForestBuild built = BuildForest(ctx.keys, leaves, 7, fanout);
      EXPECT_TRUE(
          VerifyForestCertificate(ctx.keys.public_key(), built.certificate));
      ASSERT_EQ(built.paths.size(), n);
      for (size_t s = 0; s < n; ++s) {
        EXPECT_EQ(built.paths[s].shard, s);
        EXPECT_EQ(built.paths[s].fleet_epoch, 7u);
        const Status ok =
            CheckForestPath(built.certificate, built.paths[s], leaves[s]);
        EXPECT_TRUE(ok.ok()) << "n=" << n << " fanout=" << fanout
                             << " shard=" << s << ": " << ok.ToString();
      }
    }
  }
}

TEST(ForestCertificateTest, BuildSignsExactlyOnceRegardlessOfFleetSize) {
  const auto& ctx = CoreTestContext::Get();
  for (const size_t n : {2u, 16u, 64u}) {
    const std::vector<Digest> leaves = FakeShardDigests(n);
    const uint64_t before = RsaSignOps();
    BuildForest(ctx.keys, leaves);
    EXPECT_EQ(RsaSignOps() - before, 1u) << "fleet size " << n;
  }
}

TEST(ForestCertificateTest, SerializationRoundTripsCertificateAndPaths) {
  const auto& ctx = CoreTestContext::Get();
  const std::vector<Digest> leaves = FakeShardDigests(5);
  const ForestBuild built = BuildForest(ctx.keys, leaves, 3, 2);

  ByteWriter w;
  built.certificate.Serialize(&w);
  EXPECT_EQ(w.view().size(), built.certificate.SerializedSize());
  ByteReader r(w.view());
  ForestCertificate cert2;
  ASSERT_TRUE(ForestCertificate::DeserializeInto(&r, &cert2).ok());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(cert2.params.fleet_epoch, built.certificate.params.fleet_epoch);
  EXPECT_EQ(cert2.signature, built.certificate.signature);
  EXPECT_TRUE(VerifyForestCertificate(ctx.keys.public_key(), cert2));

  for (const ForestPath& path : built.paths) {
    ByteWriter pw;
    path.Serialize(&pw);
    EXPECT_EQ(pw.view().size(), path.SerializedSize());
    ByteReader pr(pw.view());
    ForestPath path2;
    ASSERT_TRUE(ForestPath::DeserializeInto(&pr, &path2).ok());
    EXPECT_TRUE(pr.AtEnd());
    EXPECT_TRUE(
        CheckForestPath(cert2, path2, leaves[path.shard]).ok());
  }
}

// ---------------------------------------------------------------------------
// Primitive-level tamper matrix
// ---------------------------------------------------------------------------

TEST(ForestTamperTest, ForgedShardRootFailsThePathReplay) {
  const auto& ctx = CoreTestContext::Get();
  const std::vector<Digest> leaves = FakeShardDigests(4);
  const ForestBuild built = BuildForest(ctx.keys, leaves);
  // A certificate digest the owner never put in the tree: same path, same
  // signed root, forged leaf content.
  Digest forged = leaves[2];
  forged.mutable_data()[0] ^= 0x01;
  EXPECT_FALSE(CheckForestPath(built.certificate, built.paths[2], forged).ok());
}

TEST(ForestTamperTest, SwappedOrCorruptedSiblingsFailThePathReplay) {
  const auto& ctx = CoreTestContext::Get();
  const std::vector<Digest> leaves = FakeShardDigests(8);
  const ForestBuild built = BuildForest(ctx.keys, leaves);

  // Corrupted sibling digest.
  ForestPath corrupt = built.paths[3];
  ASSERT_FALSE(corrupt.siblings.empty());
  corrupt.siblings[0].mutable_data()[0] ^= 0x01;
  EXPECT_FALSE(CheckForestPath(built.certificate, corrupt, leaves[3]).ok());

  // Swapped sibling order (level 0's sibling exchanged with level 1's).
  ForestPath swapped = built.paths[3];
  ASSERT_GE(swapped.siblings.size(), 2u);
  std::swap(swapped.siblings[0], swapped.siblings[1]);
  EXPECT_FALSE(CheckForestPath(built.certificate, swapped, leaves[3]).ok());
}

TEST(ForestTamperTest, SignatureFromAnotherEpochDoesNotTransfer) {
  const auto& ctx = CoreTestContext::Get();
  const std::vector<Digest> leaves = FakeShardDigests(4);
  const ForestBuild epoch1 = BuildForest(ctx.keys, leaves, 1);
  const ForestBuild epoch2 = BuildForest(ctx.keys, leaves, 2);

  // Grafting epoch 2's signature onto an epoch-1 body (or just rewriting
  // the epoch) breaks the signed body digest.
  ForestCertificate grafted = epoch1.certificate;
  grafted.signature = epoch2.certificate.signature;
  EXPECT_FALSE(VerifyForestCertificate(ctx.keys.public_key(), grafted));

  ForestCertificate rewritten = epoch1.certificate;
  rewritten.params.fleet_epoch = 2;
  EXPECT_FALSE(VerifyForestCertificate(ctx.keys.public_key(), rewritten));

  // An epoch-1 path cannot replay against the epoch-2 certificate even
  // though both trees certify the same leaves.
  EXPECT_FALSE(
      CheckForestPath(epoch2.certificate, epoch1.paths[0], leaves[0]).ok());
}

TEST(ForestTamperTest, PathForTheWrongShardIsRejected) {
  const auto& ctx = CoreTestContext::Get();
  const std::vector<Digest> leaves = FakeShardDigests(6);
  const ForestBuild built = BuildForest(ctx.keys, leaves);

  // Shard 1's genuine path presented for shard 4's certificate: the shard
  // index inside the leaf hash breaks the replay.
  EXPECT_FALSE(CheckForestPath(built.certificate, built.paths[1], leaves[4])
                   .ok());

  // Rewriting the path's claimed shard index to match the certificate does
  // not help — the sibling walk then disagrees with the leaf position.
  ForestPath relabeled = built.paths[1];
  relabeled.shard = 4;
  EXPECT_FALSE(
      CheckForestPath(built.certificate, relabeled, leaves[4]).ok());

  // Sibling leaves under one parent are the cheapest confusion: adjacent
  // shards must not be able to impersonate each other either.
  EXPECT_FALSE(CheckForestPath(built.certificate, built.paths[0], leaves[1])
                   .ok());
}

TEST(ForestTamperTest, TruncatedOrPaddedPathsAreMalformed) {
  const auto& ctx = CoreTestContext::Get();
  const std::vector<Digest> leaves = FakeShardDigests(8);
  const ForestBuild built = BuildForest(ctx.keys, leaves);

  ForestPath truncated = built.paths[5];
  ASSERT_FALSE(truncated.siblings.empty());
  truncated.siblings.pop_back();
  EXPECT_FALSE(CheckForestPath(built.certificate, truncated, leaves[5]).ok());

  ForestPath padded = built.paths[5];
  padded.siblings.push_back(padded.siblings.front());
  EXPECT_FALSE(CheckForestPath(built.certificate, padded, leaves[5]).ok());

  ForestPath empty = built.paths[5];
  empty.siblings.clear();
  EXPECT_FALSE(CheckForestPath(built.certificate, empty, leaves[5]).ok());
}

TEST(ForestTamperTest, WrongOwnerKeyAndOutOfRangeShardAreRejected) {
  const auto& ctx = CoreTestContext::Get();
  const std::vector<Digest> leaves = FakeShardDigests(4);
  const ForestBuild built = BuildForest(ctx.keys, leaves);

  Rng rng(77);
  auto other = RsaKeyPair::Generate(512, &rng);
  ASSERT_TRUE(other.ok());
  EXPECT_FALSE(
      VerifyForestCertificate(other.value().public_key(), built.certificate));

  ForestPath beyond = built.paths[0];
  beyond.shard = 9;  // >= num_shards
  EXPECT_FALSE(CheckForestPath(built.certificate, beyond, leaves[0]).ok());
}

// ---------------------------------------------------------------------------
// Fleet level: ShardedEngine forest mode, all four methods
// ---------------------------------------------------------------------------

class ForestFleetTest : public ::testing::TestWithParam<MethodKind> {
 protected:
  static std::unique_ptr<ShardedEngine> MakeForestFleet(MethodKind kind,
                                                        size_t shards) {
    const auto& ctx = CoreTestContext::Get();
    auto sharded = ShardedEngine::BuildReplicated(
        ctx.graph, CoreTestContext::DefaultOptions(kind), shards, ctx.keys);
    EXPECT_TRUE(sharded.ok()) << sharded.status().ToString();
    auto engine = std::move(sharded).value();
    const Status enabled = engine->EnableForestCertificates(ctx.keys);
    EXPECT_TRUE(enabled.ok()) << enabled.ToString();
    return engine;
  }
};

TEST_P(ForestFleetTest, HonestAnswersVerifyThroughTheForestWithZeroRsa) {
  const auto& ctx = CoreTestContext::Get();
  auto engine = MakeForestFleet(GetParam(), 4);
  ASSERT_TRUE(engine->forest_enabled());
  EXPECT_EQ(engine->fleet_epoch(), 1u);
  const auto fleet = engine->forest();
  ASSERT_NE(fleet, nullptr);
  ASSERT_EQ(fleet->encoded_paths.size(), engine->num_groups());

  Client client(ctx.keys.public_key());
  // The one RSA verify of the epoch happens here...
  const uint64_t verifies_before = RsaVerifyOps();
  ASSERT_TRUE(client.AcceptForestCertificate(fleet->certificate).ok());
  EXPECT_EQ(RsaVerifyOps() - verifies_before, 1u);
  EXPECT_EQ(client.FleetEpochWatermark(), 1u);

  // ...and every per-answer verify after it is hash-only.
  const uint64_t verifies_at_epoch = RsaVerifyOps();
  for (const Query& q : ctx.queries) {
    const size_t shard = engine->RouteOf(q);
    auto answer = engine->Answer(q);
    ASSERT_TRUE(answer.ok());
    const WireVerification v = client.Verify(
        q, answer.value()->bytes, shard, fleet->encoded_paths[shard]);
    EXPECT_TRUE(v.outcome.accepted) << v.outcome.ToString();
  }
  EXPECT_EQ(RsaVerifyOps(), verifies_at_epoch);
}

TEST_P(ForestFleetTest, ForestTamperMatrixNeverFalselyAccepts) {
  const auto& ctx = CoreTestContext::Get();
  auto engine = MakeForestFleet(GetParam(), 4);
  const auto fleet = engine->forest();
  ASSERT_NE(fleet, nullptr);

  Client client(ctx.keys.public_key());
  ASSERT_TRUE(client.AcceptForestCertificate(fleet->certificate).ok());

  const Query q = ctx.queries.front();
  const size_t shard = engine->RouteOf(q);
  auto answer = engine->Answer(q);
  ASSERT_TRUE(answer.ok());
  const std::span<const uint8_t> wire(answer.value()->bytes);
  const std::vector<uint8_t>& path = fleet->encoded_paths[shard];

  // Baseline: the genuine quadruple accepts.
  ASSERT_TRUE(client.Verify(q, wire, shard, path).outcome.accepted);

  // Path for the wrong shard (the genuine path of another shard).
  const size_t other = (shard + 1) % engine->num_groups();
  WireVerification v =
      client.Verify(q, wire, shard, fleet->encoded_paths[other]);
  EXPECT_FALSE(v.outcome.accepted);
  EXPECT_EQ(v.outcome.failure, VerifyFailure::kBadCertificate);

  // Answer claimed to come from a shard its path does not belong to.
  v = client.Verify(q, wire, other, path);
  EXPECT_FALSE(v.outcome.accepted);

  // Swapped / corrupted sibling bytes inside the encoded path.
  std::vector<uint8_t> corrupt(path);
  corrupt.back() ^= 0x01;
  v = client.Verify(q, wire, shard, corrupt);
  EXPECT_FALSE(v.outcome.accepted);
  EXPECT_EQ(v.outcome.failure, VerifyFailure::kBadCertificate);

  // Truncated path bytes.
  const std::span<const uint8_t> truncated(path.data(), path.size() - 1);
  v = client.Verify(q, wire, shard, truncated);
  EXPECT_FALSE(v.outcome.accepted);

  // An empty path is still a forest request: it never falls back to the
  // certificate's own signature.
  v = client.Verify(q, wire, shard, std::span<const uint8_t>());
  EXPECT_EQ(v.outcome.failure, VerifyFailure::kMalformedProof);

  // Forged shard certificate: flip a byte inside the certificate region of
  // the wire message — the forest leaf no longer matches its digest.
  std::vector<uint8_t> forged(wire.begin(), wire.end());
  forged[8] ^= 0x01;
  v = client.Verify(q, forged, shard, path);
  EXPECT_FALSE(v.outcome.accepted);

  // Signature from a different epoch: rotate the fleet (epoch 2), keep the
  // client pinned at epoch 1 — the new epoch's paths must not verify
  // against the stale accepted forest. Live weight-update rotations are a
  // DIJ capability (the other methods' hints require a rebuild), so this
  // leg runs on DIJ; the primitive-level matrix covers the epoch seam
  // method-independently.
  if (GetParam() != MethodKind::kDij) {
    return;
  }
  const Edge e = ctx.graph.Neighbors(0).front();
  const StructuralUpdate update =
      StructuralUpdate::SetWeight(0, e.to, e.weight * 1.25);
  ASSERT_TRUE(engine->ApplyUpdatesAllShards(ctx.keys, {&update, 1}).ok());
  const auto fleet2 = engine->forest();
  ASSERT_EQ(fleet2->certificate.params.fleet_epoch, 2u);
  auto answer2 = engine->Answer(q);
  ASSERT_TRUE(answer2.ok());
  v = client.Verify(q, answer2.value()->bytes, shard,
                    fleet2->encoded_paths[shard]);
  EXPECT_FALSE(v.outcome.accepted);
  EXPECT_EQ(v.outcome.failure, VerifyFailure::kBadCertificate);

  // After accepting epoch 2 the same answer verifies; replaying epoch 1's
  // forest afterwards is refused as stale.
  ASSERT_TRUE(client.AcceptForestCertificate(fleet2->certificate).ok());
  v = client.Verify(q, answer2.value()->bytes, shard,
                    fleet2->encoded_paths[shard]);
  EXPECT_TRUE(v.outcome.accepted) << v.outcome.ToString();
  EXPECT_FALSE(client.AcceptForestCertificate(fleet->certificate).ok());
}

TEST_P(ForestFleetTest, ShardedBatchPaysOneRsaVerifyPerEpoch) {
  const auto& ctx = CoreTestContext::Get();
  auto engine = MakeForestFleet(GetParam(), 3);
  const auto fleet = engine->forest();
  ASSERT_NE(fleet, nullptr);

  auto bundles = engine->AnswerBatch(ctx.queries);
  std::vector<VerifyRequest> requests;
  for (size_t i = 0; i < ctx.queries.size(); ++i) {
    ASSERT_TRUE(bundles[i].ok());
    const size_t shard = engine->RouteOf(ctx.queries[i]);
    requests.push_back({ctx.queries[i], bundles[i].value()->bytes, shard,
                        fleet->encoded_paths[shard]});
  }

  Client client(ctx.keys.public_key());
  client.TrackShardVersions(engine->num_groups());
  const uint64_t verifies_before = RsaVerifyOps();
  ASSERT_TRUE(client.AcceptForestCertificate(fleet->certificate).ok());
  const auto results = client.VerifyBatch(requests);
  // The whole batch — accept included — cost exactly ONE RSA verify.
  EXPECT_EQ(RsaVerifyOps() - verifies_before, 1u);
  ASSERT_EQ(results.size(), ctx.queries.size());
  for (const WireVerification& v : results) {
    EXPECT_TRUE(v.outcome.accepted) << v.outcome.ToString();
  }

  // Idempotent re-accept of the same epoch is free (reconnect re-sends).
  const uint64_t verifies_after = RsaVerifyOps();
  ASSERT_TRUE(client.AcceptForestCertificate(fleet->certificate).ok());
  EXPECT_EQ(RsaVerifyOps(), verifies_after);

  // Equivocation: a different certificate for the accepted epoch is
  // refused without burning a verify on it first having been accepted.
  ForestCertificate equivocating = fleet->certificate;
  equivocating.forest_root.mutable_data()[0] ^= 0x01;
  EXPECT_FALSE(client.AcceptForestCertificate(equivocating).ok());
}

TEST_P(ForestFleetTest, FleetRotationSignsExactlyOnce) {
  const auto& ctx = CoreTestContext::Get();
  // Live weight-update rotations exist on DIJ only (the other methods'
  // hints require a rebuild) — non-DIJ fleets refuse the rotation outright
  // and never reach the signature seam.
  if (GetParam() != MethodKind::kDij) {
    auto fleet = MakeForestFleet(GetParam(), 2);
    const StructuralUpdate update = StructuralUpdate::SetWeight(0, 1, 1.0);
    EXPECT_FALSE(fleet->ApplyUpdatesAllShards(ctx.keys, {&update, 1}).ok());
    return;
  }
  auto engine = MakeForestFleet(GetParam(), 4);

  const Edge e = ctx.graph.Neighbors(1).front();
  const StructuralUpdate update =
      StructuralUpdate::SetWeight(1, e.to, e.weight * 1.5);
  const uint64_t signs_before = RsaSignOps();
  auto version = engine->ApplyUpdatesAllShards(ctx.keys, {&update, 1});
  ASSERT_TRUE(version.ok()) << version.status().ToString();
  // Four shards rotated; the fleet signed ONCE (the forest root).
  EXPECT_EQ(RsaSignOps() - signs_before, 1u);
  EXPECT_EQ(engine->fleet_epoch(), 2u);

  // The seed behavior for contrast: a non-forest fleet pays one signature
  // per shard for the same rotation.
  auto legacy = ShardedEngine::BuildReplicated(
      ctx.graph, CoreTestContext::DefaultOptions(GetParam()), 4, ctx.keys);
  ASSERT_TRUE(legacy.ok());
  const uint64_t legacy_before = RsaSignOps();
  ASSERT_TRUE(
      legacy.value()->ApplyUpdatesAllShards(ctx.keys, {&update, 1}).ok());
  EXPECT_EQ(RsaSignOps() - legacy_before, 4u);
}

TEST_P(ForestFleetTest, PartialRotationFailureRollsTheFleetForward) {
  const auto& ctx = CoreTestContext::Get();
  if (GetParam() != MethodKind::kDij) {
    return;  // rotations (and thus partial-rotation repair) are DIJ-only
  }
  auto engine = MakeForestFleet(GetParam(), 4);

  const Edge e = ctx.graph.Neighbors(2).front();
  const StructuralUpdate update =
      StructuralUpdate::SetWeight(2, e.to, e.weight * 2.0);
  // Fail the SECOND group's rotation publish; groups 0, 2, 3 rotate fine.
  FailPointSpec spec;
  spec.mode = FailPointMode::kOneShot;
  spec.after = 1;
  const uint64_t signs_before = RsaSignOps();
  uint32_t epoch_before = engine->fleet_epoch();
  {
    ScopedFailPoint fp("engine/publish", spec);
    auto result = engine->ApplyUpdatesAllShards(ctx.keys, {&update, 1});
    // The torn rotation surfaces as the first error...
    ASSERT_FALSE(result.ok());
  }
  // ...but the fleet was repaired before returning: the failed group was
  // rolled forward to the rotated snapshot, the repair was booked, and the
  // forest still published exactly one signature over a UNIFORM fleet.
  const ShardedStats stats = engine->GetStats();
  EXPECT_EQ(stats.totals.fleet_rollforwards, 1u);
  for (const ShardStats& shard : stats.shards) {
    EXPECT_EQ(shard.certificate_version, stats.totals.certificate_version);
  }
  EXPECT_EQ(RsaSignOps() - signs_before, 1u);
  EXPECT_EQ(engine->fleet_epoch(), epoch_before + 1);

  // The published epoch covers every shard: all answers verify.
  const auto fleet = engine->forest();
  Client client(ctx.keys.public_key());
  ASSERT_TRUE(client.AcceptForestCertificate(fleet->certificate).ok());
  for (const Query& q : ctx.queries) {
    const size_t shard = engine->RouteOf(q);
    auto answer = engine->Answer(q);
    ASSERT_TRUE(answer.ok());
    EXPECT_TRUE(client
                    .Verify(q, answer.value()->bytes, shard,
                            fleet->encoded_paths[shard])
                    .outcome.accepted);
  }
}

INSTANTIATE_TEST_SUITE_P(AllMethods, ForestFleetTest,
                         ::testing::Values(MethodKind::kDij, MethodKind::kFull,
                                           MethodKind::kLdm, MethodKind::kHyp),
                         [](const auto& info) {
                           return std::string(ToString(info.param));
                         });

// ---------------------------------------------------------------------------
// Fleet plumbing edges
// ---------------------------------------------------------------------------

TEST(ForestFleetEdgeTest, EnableRejectsBadFanoutAndDoubleEnable) {
  const auto& ctx = CoreTestContext::Get();
  auto engine = ShardedEngine::BuildReplicated(
                    ctx.graph, CoreTestContext::DefaultOptions(MethodKind::kDij),
                    2, ctx.keys)
                    .value();
  EXPECT_EQ(engine->EnableForestCertificates(ctx.keys, 1).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(engine->EnableForestCertificates(ctx.keys).ok());
  EXPECT_EQ(engine->EnableForestCertificates(ctx.keys).code(),
            StatusCode::kFailedPrecondition);
}

TEST(ForestFleetEdgeTest, ClientWithoutAcceptedForestRefusesForestAnswers) {
  const auto& ctx = CoreTestContext::Get();
  auto engine = ShardedEngine::BuildReplicated(
                    ctx.graph, CoreTestContext::DefaultOptions(MethodKind::kDij),
                    2, ctx.keys)
                    .value();
  ASSERT_TRUE(engine->EnableForestCertificates(ctx.keys).ok());
  const auto fleet = engine->forest();
  const Query q = ctx.queries.front();
  const size_t shard = engine->RouteOf(q);
  auto answer = engine->Answer(q);
  ASSERT_TRUE(answer.ok());

  Client client(ctx.keys.public_key());
  const WireVerification v = client.Verify(
      q, answer.value()->bytes, shard, fleet->encoded_paths[shard]);
  EXPECT_FALSE(v.outcome.accepted);
  EXPECT_EQ(v.outcome.failure, VerifyFailure::kBadCertificate);
}

TEST(ForestFleetEdgeTest, RollFleetForwardRefusesRegionFleets) {
  const auto& ctx = CoreTestContext::Get();
  RoadNetworkOptions gopts;
  gopts.num_nodes = 80;
  gopts.seed = 4242;
  Graph region_a = GenerateRoadNetwork(gopts).value();
  gopts.seed = 2424;
  Graph region_b = GenerateRoadNetwork(gopts).value();
  const EngineOptions options =
      CoreTestContext::DefaultOptions(MethodKind::kDij);
  std::vector<ShardSpec> specs = {{&region_a, options}, {&region_b, options}};
  auto regions =
      ShardedEngine::Build(specs, std::make_unique<HashSourceRouter>(),
                           ctx.keys);
  ASSERT_TRUE(regions.ok());
  EXPECT_EQ(regions.value()->RollFleetForward().status().code(),
            StatusCode::kFailedPrecondition);
}

// Post-recovery repair: engines recovered into MIXED certificate versions
// (the crash-mid-fleet-rotation shape) reconcile to the most advanced
// snapshot before the next forest publish.
TEST(ForestFleetEdgeTest, ReconcileFleetEpochRollsLaggardsForward) {
  const auto& ctx = CoreTestContext::Get();
  const EngineOptions options =
      CoreTestContext::DefaultOptions(MethodKind::kDij);
  auto a = MakeEngine(ctx.graph, options, ctx.keys);
  auto b = MakeEngine(ctx.graph, options, ctx.keys);
  auto c = MakeEngine(ctx.graph, options, ctx.keys);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());

  // Advance only `b` — two rotations ahead of its siblings.
  const Edge e = ctx.graph.Neighbors(3).front();
  for (double scale : {1.5, 2.0}) {
    const StructuralUpdate update =
        StructuralUpdate::SetWeight(3, e.to, e.weight * scale);
    ASSERT_TRUE(b.value()->ApplyUpdates(&ctx.keys, {&update, 1}).ok());
  }
  const uint32_t target = b.value()->certificate().params.version;
  ASSERT_GT(target, a.value()->certificate().params.version);

  std::vector<MethodEngine*> engines = {a.value().get(), b.value().get(),
                                        c.value().get()};
  auto rolled = ReconcileFleetEpoch(engines);
  ASSERT_TRUE(rolled.ok()) << rolled.status().ToString();
  EXPECT_EQ(rolled.value(), 2u);
  for (MethodEngine* engine : engines) {
    EXPECT_EQ(engine->certificate().params.version, target);
  }
  // Idempotent: a uniform fleet reconciles to zero rolls.
  EXPECT_EQ(ReconcileFleetEpoch(engines).value(), 0u);
}

}  // namespace
}  // namespace spauth
