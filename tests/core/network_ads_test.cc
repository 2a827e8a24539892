#include "core/network_ads.h"

#include <gtest/gtest.h>

#include "core/client_search.h"

#include "testutil.h"

namespace spauth {
namespace {

NetworkAds MustBuildAds(const Graph& g, NodeOrdering ordering,
                        uint32_t fanout) {
  auto ads = NetworkAds::Build(BuildBaseTuples(g),
                               ComputeOrdering(g, ordering, 3), fanout,
                               HashAlgorithm::kSha1);
  EXPECT_TRUE(ads.ok());
  return std::move(ads).value();
}

TEST(NetworkAdsTest, BuildAndLeafMapping) {
  Graph g = testing::MakeRandomRoadNetwork(100, 1);
  NetworkAds ads = MustBuildAds(g, NodeOrdering::kHilbert, 2);
  EXPECT_EQ(ads.num_nodes(), 100u);
  std::vector<bool> leaf_used(100, false);
  for (NodeId v = 0; v < 100; ++v) {
    EXPECT_EQ(ads.tuple(v).id, v);
    uint32_t leaf = ads.LeafOf(v);
    ASSERT_LT(leaf, 100u);
    EXPECT_FALSE(leaf_used[leaf]);
    leaf_used[leaf] = true;
  }
}

TEST(NetworkAdsTest, CachedLeafDigestsMatchRecomputationAndTrackUpdates) {
  Graph g = testing::MakeRandomRoadNetwork(80, 4);
  NetworkAds ads = MustBuildAds(g, NodeOrdering::kHilbert, 2);
  // The build-time cache agrees with a from-scratch hash for every node.
  for (NodeId v = 0; v < ads.num_nodes(); ++v) {
    EXPECT_EQ(ads.LeafDigestOf(v),
              ads.tuple(v).LeafDigest(HashAlgorithm::kSha1))
        << "node " << v;
  }
  // And an owner-side tuple update refreshes the cached digest.
  ExtendedTuple updated = ads.tuple(7);
  ASSERT_FALSE(updated.neighbors.empty());
  const Digest before = ads.LeafDigestOf(7);
  updated.neighbors[0].weight += 1.0;
  ASSERT_TRUE(ads.UpdateTuple(7, updated).ok());
  EXPECT_NE(ads.LeafDigestOf(7), before);
  EXPECT_EQ(ads.LeafDigestOf(7),
            ads.tuple(7).LeafDigest(HashAlgorithm::kSha1));
}

TEST(NetworkAdsTest, ProveAndVerifyTupleSets) {
  Graph g = testing::MakeRandomRoadNetwork(200, 2);
  NetworkAds ads = MustBuildAds(g, NodeOrdering::kDfs, 4);
  std::vector<NodeId> nodes = {5, 10, 20, 10, 199, 5};  // dups collapse
  auto proof = ads.ProveTuples(nodes);
  ASSERT_TRUE(proof.ok());
  EXPECT_EQ(proof.value().tuples.size(), 4u);
  EXPECT_TRUE(proof.value().VerifyAgainstRoot(ads.root()).ok());
  TupleLane index;
  ASSERT_TRUE(proof.value().IndexInto(g.num_nodes(), &index).ok());
  EXPECT_NE(index.Find(199), nullptr);
}

TEST(NetworkAdsTest, SerializationRoundTripVerifies) {
  Graph g = testing::MakeRandomRoadNetwork(150, 3);
  NetworkAds ads = MustBuildAds(g, NodeOrdering::kHilbert, 2);
  std::vector<NodeId> nodes;
  for (NodeId v = 0; v < 150; v += 7) {
    nodes.push_back(v);
  }
  auto proof = ads.ProveTuples(nodes);
  ASSERT_TRUE(proof.ok());
  ByteWriter w;
  proof.value().Serialize(&w);
  ByteReader r(w.view());
  auto back = TupleSetProof::Deserialize(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_TRUE(back.value().VerifyAgainstRoot(ads.root()).ok());
  EXPECT_EQ(back.value().tuples.size(), proof.value().tuples.size());
}

TEST(NetworkAdsTest, TamperedTupleFailsRootCheck) {
  Graph g = testing::MakeRandomRoadNetwork(100, 4);
  NetworkAds ads = MustBuildAds(g, NodeOrdering::kHilbert, 2);
  auto proof = ads.ProveTuples(std::vector<NodeId>{1, 2, 3});
  ASSERT_TRUE(proof.ok());
  TupleSetProof tampered = proof.value();
  tampered.tuples[1].neighbors[0].weight += 0.5;
  EXPECT_EQ(tampered.VerifyAgainstRoot(ads.root()).code(),
            StatusCode::kVerificationFailed);
}

TEST(NetworkAdsTest, SwappedLeafIndexFailsRootCheck) {
  Graph g = testing::MakeRandomRoadNetwork(100, 5);
  NetworkAds ads = MustBuildAds(g, NodeOrdering::kRandom, 2);
  auto proof = ads.ProveTuples(std::vector<NodeId>{7, 8});
  ASSERT_TRUE(proof.ok());
  TupleSetProof tampered = proof.value();
  std::swap(tampered.leaf_indices[0], tampered.leaf_indices[1]);
  Status s = tampered.VerifyAgainstRoot(ads.root());
  EXPECT_FALSE(s.ok());
}

TEST(NetworkAdsTest, DuplicateNodeIdRejectedByIndex) {
  Graph g = testing::MakeRandomRoadNetwork(50, 6);
  NetworkAds ads = MustBuildAds(g, NodeOrdering::kHilbert, 2);
  auto proof = ads.ProveTuples(std::vector<NodeId>{1, 2});
  ASSERT_TRUE(proof.ok());
  TupleSetProof tampered = proof.value();
  tampered.tuples[1] = tampered.tuples[0];  // same id twice
  TupleLane index;
  EXPECT_FALSE(tampered.IndexInto(g.num_nodes(), &index).ok());
}

TEST(NetworkAdsTest, ProveRejectsInvalidInput) {
  Graph g = testing::MakeRandomRoadNetwork(50, 7);
  NetworkAds ads = MustBuildAds(g, NodeOrdering::kHilbert, 2);
  EXPECT_FALSE(ads.ProveTuples({}).ok());
  EXPECT_FALSE(ads.ProveTuples(std::vector<NodeId>{999}).ok());
}

TEST(NetworkAdsTest, StorageGrowsWithGraph) {
  Graph small = testing::MakeRandomRoadNetwork(50, 8);
  Graph large = testing::MakeRandomRoadNetwork(500, 8);
  NetworkAds a = MustBuildAds(small, NodeOrdering::kHilbert, 2);
  NetworkAds b = MustBuildAds(large, NodeOrdering::kHilbert, 2);
  EXPECT_LT(a.StorageBytes(), b.StorageBytes());
}

TEST(NetworkAdsTest, HilbertOrderingYieldsSmallerProofsThanRandom) {
  // The Figure 10 effect at the ADS level: a spatially clustered node set
  // needs fewer sibling digests under hbt than under rand.
  Graph g = testing::MakeRandomRoadNetwork(800, 9);
  NetworkAds hbt = MustBuildAds(g, NodeOrdering::kHilbert, 2);
  NetworkAds rnd = MustBuildAds(g, NodeOrdering::kRandom, 2);
  // A spatially tight cluster: a node and its 2-hop neighborhood.
  std::vector<NodeId> cluster = {400};
  for (const Edge& e : g.Neighbors(400)) {
    cluster.push_back(e.to);
    for (const Edge& e2 : g.Neighbors(e.to)) {
      cluster.push_back(e2.to);
    }
  }
  auto p_hbt = hbt.ProveTuples(cluster);
  auto p_rnd = rnd.ProveTuples(cluster);
  ASSERT_TRUE(p_hbt.ok());
  ASSERT_TRUE(p_rnd.ok());
  EXPECT_LT(p_hbt.value().proof.num_digests(),
            p_rnd.value().proof.num_digests());
}

TEST(NetworkAdsTest, VerifySlackScalesWithDistance) {
  EXPECT_GT(VerifySlack(1e6), VerifySlack(10.0));
  EXPECT_GT(ProviderSlack(100.0), VerifySlack(100.0));
}

}  // namespace
}  // namespace spauth
