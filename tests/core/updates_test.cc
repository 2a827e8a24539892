// Owner-side dynamic updates: edge-weight changes maintained incrementally
// in the DIJ ADS (core/updates.h) and the underlying Merkle leaf update.
#include "core/updates.h"

#include <array>

#include <gtest/gtest.h>

#include "core/core_test_context.h"
#include "graph/dijkstra.h"
#include "graph/generator.h"
#include "merkle/merkle_tree.h"
#include "testutil.h"
#include "util/rng.h"

namespace spauth {
namespace {

using testing::CoreTestContext;

TEST(MerkleUpdateTest, UpdatedTreeMatchesFreshRebuild) {
  Rng rng(1);
  std::vector<Digest> leaves;
  for (int i = 0; i < 77; ++i) {
    uint8_t payload[8];
    rng.FillBytes(payload, sizeof(payload));
    leaves.push_back(HashLeafPayload(HashAlgorithm::kSha1, payload));
  }
  for (uint32_t fanout : {2u, 3u, 16u}) {
    auto tree = MerkleTree::Build(leaves, fanout, HashAlgorithm::kSha1);
    ASSERT_TRUE(tree.ok());
    auto mutated_leaves = leaves;
    for (uint32_t index : {0u, 38u, 76u}) {
      uint8_t payload[8];
      rng.FillBytes(payload, sizeof(payload));
      mutated_leaves[index] = HashLeafPayload(HashAlgorithm::kSha1, payload);
      ASSERT_TRUE(tree.value().UpdateLeaf(index, mutated_leaves[index]).ok());
    }
    auto rebuilt = MerkleTree::Build(mutated_leaves, fanout,
                                     HashAlgorithm::kSha1);
    ASSERT_TRUE(rebuilt.ok());
    EXPECT_EQ(tree.value().root(), rebuilt.value().root())
        << "fanout " << fanout;
  }
}

TEST(MerkleUpdateTest, ProofsVerifyAfterUpdate) {
  Rng rng(2);
  std::vector<Digest> leaves;
  for (int i = 0; i < 40; ++i) {
    uint8_t payload[8];
    rng.FillBytes(payload, sizeof(payload));
    leaves.push_back(HashLeafPayload(HashAlgorithm::kSha1, payload));
  }
  auto tree = MerkleTree::Build(leaves, 2, HashAlgorithm::kSha1);
  ASSERT_TRUE(tree.ok());
  uint8_t payload[8] = {9, 9, 9, 9, 9, 9, 9, 9};
  Digest fresh = HashLeafPayload(HashAlgorithm::kSha1, payload);
  ASSERT_TRUE(tree.value().UpdateLeaf(7, fresh).ok());
  leaves[7] = fresh;
  std::vector<uint32_t> indices = {6, 7, 8};
  auto proof = tree.value().GenerateProof(indices);
  ASSERT_TRUE(proof.ok());
  std::map<uint32_t, Digest> targets;
  for (uint32_t i : indices) {
    targets[i] = leaves[i];
  }
  auto root = ReconstructMerkleRoot(proof.value(), targets);
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root.value(), tree.value().root());
}

TEST(MerkleUpdateTest, RejectsBadArguments) {
  auto tree = MerkleTree::Build(
      {HashLeafPayload(HashAlgorithm::kSha1, {})}, 2, HashAlgorithm::kSha1);
  ASSERT_TRUE(tree.ok());
  EXPECT_FALSE(tree.value().UpdateLeaf(5, Digest()).ok());
  // Wrong digest width for the tree's algorithm.
  Digest wide = Hasher::Hash(HashAlgorithm::kSha256, {});
  EXPECT_FALSE(tree.value().UpdateLeaf(0, wide).ok());
}

TEST(GraphSetEdgeWeightTest, UpdatesBothDirections) {
  Graph g = testing::MakeFigure1Graph();
  ASSERT_TRUE(g.SetEdgeWeight(0, 2, 5.0).ok());  // v1-v3 was 2
  EXPECT_DOUBLE_EQ(g.EdgeWeight(0, 2).value(), 5.0);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(2, 0).value(), 5.0);
  EXPECT_FALSE(g.SetEdgeWeight(0, 3, 1.0).ok());     // not an edge
  EXPECT_FALSE(g.SetEdgeWeight(0, 2, -1.0).ok());    // bad weight
  EXPECT_FALSE(g.SetEdgeWeight(0, 99, 1.0).ok());    // bad endpoint
}

class UpdatesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto graph = GenerateRoadNetwork(
        {.num_nodes = 300, .coord_extent = 4500, .seed = 77});
    ASSERT_TRUE(graph.ok());
    graph_ = std::move(graph).value();
    auto ads = BuildDijAds(graph_, DijOptions{}, CoreTestContext::Get().keys);
    ASSERT_TRUE(ads.ok());
    ads_ = std::make_unique<DijAds>(std::move(ads).value());
  }

  Graph graph_;
  std::unique_ptr<DijAds> ads_;
};

TEST_F(UpdatesTest, WeightChangePropagatesToAnswers) {
  const auto& keys = CoreTestContext::Get().keys;
  // Pick a query and raise the weight of the first hop of its shortest
  // path; the new answer must route around (or pay) the change.
  Query q{3, 250};
  auto before = DijkstraShortestPath(graph_, q.source, q.target);
  ASSERT_TRUE(before.reachable);
  const NodeId u = before.path.nodes[0];
  const NodeId v = before.path.nodes[1];
  const double old_w = graph_.EdgeWeight(u, v).value();

  ASSERT_TRUE(ApplyUpdates(&graph_, ads_.get(), &keys,
                           std::array{StructuralUpdate::SetWeight(
                               u, v, old_w * 50)})
                  .ok());
  EXPECT_EQ(ads_->certificate.params.version, 1u);

  auto after = DijkstraShortestPath(graph_, q.source, q.target);
  ASSERT_TRUE(after.reachable);
  EXPECT_GT(after.distance, before.distance - 1e-9);

  DijProvider provider(&graph_, ads_.get());
  auto answer = provider.Answer(q);
  ASSERT_TRUE(answer.ok());
  EXPECT_NEAR(answer.value().distance, after.distance, 1e-9);
  VerifyOutcome outcome = VerifyDijAnswer(keys.public_key(),
                                          ads_->certificate, q,
                                          answer.value());
  EXPECT_TRUE(outcome.accepted) << outcome.ToString();
}

TEST_F(UpdatesTest, StaleProofFailsAgainstTheNewCertificate) {
  const auto& keys = CoreTestContext::Get().keys;
  Query q{3, 250};
  DijProvider provider(&graph_, ads_.get());
  auto stale = provider.Answer(q);
  ASSERT_TRUE(stale.ok());
  // Update an edge inside the stale proof's ball.
  const NodeId u = stale.value().path.nodes[0];
  const NodeId v = stale.value().path.nodes[1];
  ASSERT_TRUE(
      ApplyUpdates(&graph_, ads_.get(), &keys,
                   std::array{StructuralUpdate::SetWeight(u, v, 9999)})
          .ok());
  // The stale answer no longer verifies against the *new* certificate
  // (root moved); replaying it with the old certificate is the documented
  // freshness caveat.
  VerifyOutcome outcome = VerifyDijAnswer(keys.public_key(),
                                          ads_->certificate, q,
                                          stale.value());
  EXPECT_FALSE(outcome.accepted);
  EXPECT_EQ(outcome.failure, VerifyFailure::kRootMismatch);
}

TEST_F(UpdatesTest, ManySequentialUpdatesKeepTheAdsConsistent) {
  const auto& keys = CoreTestContext::Get().keys;
  Rng rng(11);
  for (int round = 0; round < 20; ++round) {
    const NodeId u = static_cast<NodeId>(rng.NextBounded(graph_.num_nodes()));
    auto neighbors = graph_.Neighbors(u);
    if (neighbors.empty()) {
      continue;
    }
    const NodeId v = neighbors[rng.NextBounded(neighbors.size())].to;
    const double w = rng.NextDoubleIn(1.0, 500.0);
    ASSERT_TRUE(ApplyUpdates(&graph_, ads_.get(), &keys,
                             std::array{StructuralUpdate::SetWeight(u, v, w)})
                    .ok());
  }
  // Full consistency check: a fresh build over the mutated graph must give
  // the same root.
  auto rebuilt = BuildDijAds(graph_, DijOptions{}, keys);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(ads_->network.root(), rebuilt.value().network.root());
  // And queries still verify.
  DijProvider provider(&graph_, ads_.get());
  Query q{0, 299};
  auto answer = provider.Answer(q);
  ASSERT_TRUE(answer.ok());
  EXPECT_TRUE(VerifyDijAnswer(keys.public_key(), ads_->certificate, q,
                              answer.value())
                  .accepted);
}

// ---------------------------------------------------------------------------
// Batch equivalence: one ApplyUpdates({e1..ek}) pass must land on
// exactly the state k single-update passes land on — same graph weights,
// same ADS root, same certificate bytes (deterministic PKCS#1 v1.5 signing
// over the same root + version) — across random graphs, with the version
// jumping by k from a single signature.
// ---------------------------------------------------------------------------

TEST(BatchUpdateEquivalenceTest, BatchMatchesSinglesAcrossRandomGraphs) {
  const auto& keys = CoreTestContext::Get().keys;
  for (uint64_t seed : {3u, 29u, 151u}) {
    SCOPED_TRACE("graph seed " + std::to_string(seed));
    auto built = GenerateRoadNetwork(
        {.num_nodes = 160, .coord_extent = 3000, .seed = seed});
    ASSERT_TRUE(built.ok());
    const Graph base = std::move(built).value();

    auto ads_singles = BuildDijAds(base, DijOptions{}, keys);
    auto ads_batch = BuildDijAds(base, DijOptions{}, keys);
    ASSERT_TRUE(ads_singles.ok());
    ASSERT_TRUE(ads_batch.ok());
    Graph g_singles = base;
    Graph g_batch = base;

    // Seeded batch; include a repeated edge so last-wins ordering is
    // exercised.
    Rng rng(seed + 1000);
    std::vector<StructuralUpdate> updates;
    for (int i = 0; i < 5; ++i) {
      const NodeId u = static_cast<NodeId>(rng.NextBounded(base.num_nodes()));
      auto neighbors = base.Neighbors(u);
      if (neighbors.empty()) {
        continue;
      }
      const NodeId v = neighbors[rng.NextBounded(neighbors.size())].to;
      updates.push_back(
          StructuralUpdate::SetWeight(u, v, rng.NextDoubleIn(1.0, 400.0)));
    }
    ASSERT_FALSE(updates.empty());
    // A repeat, which wins.
    updates.push_back(
        StructuralUpdate::SetWeight(updates[0].u, updates[0].v, 123.5));

    for (const StructuralUpdate& up : updates) {
      ASSERT_TRUE(
          ApplyUpdates(&g_singles, &ads_singles.value(), &keys, {&up, 1})
              .ok());
    }
    size_t copied = 0;
    ASSERT_TRUE(ApplyUpdates(&g_batch, &ads_batch.value(), &keys, updates,
                             &copied)
                    .ok());

    // Same version (k bumps vs one +k bump), same root, same signature.
    EXPECT_EQ(ads_singles.value().certificate.params.version,
              updates.size());
    EXPECT_EQ(ads_batch.value().certificate.params.version,
              updates.size());
    EXPECT_EQ(ads_singles.value().network.root(),
              ads_batch.value().network.root());
    EXPECT_EQ(ads_singles.value().certificate.signature,
              ads_batch.value().certificate.signature);

    // Same graph: every updated edge agrees in both directions.
    for (const StructuralUpdate& up : updates) {
      EXPECT_DOUBLE_EQ(g_singles.EdgeWeight(up.u, up.v).value(),
                       g_batch.EdgeWeight(up.u, up.v).value());
      EXPECT_DOUBLE_EQ(g_singles.EdgeWeight(up.v, up.u).value(),
                       g_batch.EdgeWeight(up.v, up.u).value());
    }
    EXPECT_DOUBLE_EQ(g_batch.EdgeWeight(updates[0].u, updates[0].v).value(),
                     123.5);

    // The batch's copy-on-write clone stayed sublinear: both the graph and
    // ADS were cloned off `base`/the build, so every touched chunk was
    // copied exactly once.
    EXPECT_GT(copied, 0u);
    EXPECT_LT(copied, base.MemoryFootprintBytes() +
                          ads_batch.value().network.StorageBytes());

    // And the batch-updated ADS still serves verifiable answers.
    DijProvider provider(&g_batch, &ads_batch.value());
    Query q{0, static_cast<NodeId>(base.num_nodes() - 1)};
    auto answer = provider.Answer(q);
    ASSERT_TRUE(answer.ok());
    EXPECT_TRUE(VerifyDijAnswer(keys.public_key(),
                                ads_batch.value().certificate, q,
                                answer.value())
                    .accepted);
  }
}

TEST_F(UpdatesTest, BatchRejectsNonExistentEdgeWithoutSigning) {
  const auto& keys = CoreTestContext::Get().keys;
  // Find a non-adjacent pair.
  NodeId bad_v = 0;
  for (bad_v = 1; bad_v < graph_.num_nodes(); ++bad_v) {
    if (!graph_.HasEdge(0, bad_v)) {
      break;
    }
  }
  const NodeId good_v = graph_.Neighbors(0)[0].to;
  const StructuralUpdate updates[] = {
      StructuralUpdate::SetWeight(0, good_v, 7.0),
      StructuralUpdate::SetWeight(0, bad_v, 5.0)};
  EXPECT_FALSE(ApplyUpdates(&graph_, ads_.get(), &keys, updates).ok());
  // The certificate was never re-signed for the partial batch.
  EXPECT_EQ(ads_->certificate.params.version, 0u);
}

TEST_F(UpdatesTest, EmptyBatchIsANoOp) {
  const auto& keys = CoreTestContext::Get().keys;
  const Digest root_before = ads_->network.root();
  ASSERT_TRUE(ApplyUpdates(&graph_, ads_.get(), &keys, {}).ok());
  EXPECT_EQ(ads_->certificate.params.version, 0u);
  EXPECT_EQ(ads_->network.root(), root_before);
}

TEST_F(UpdatesTest, RejectsNonExistentEdge) {
  const auto& keys = CoreTestContext::Get().keys;
  // Find a non-adjacent pair.
  NodeId u = 0, v = 0;
  for (v = 1; v < graph_.num_nodes(); ++v) {
    if (!graph_.HasEdge(0, v)) {
      break;
    }
  }
  EXPECT_FALSE(
      ApplyUpdates(&graph_, ads_.get(), &keys,
                   std::array{StructuralUpdate::SetWeight(u, v, 5.0)})
          .ok());
}

}  // namespace
}  // namespace spauth
