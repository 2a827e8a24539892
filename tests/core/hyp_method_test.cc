#include "core/hyp.h"

#include <gtest/gtest.h>

#include "core/client_search.h"
#include "core/core_test_context.h"
#include "graph/dijkstra.h"

namespace spauth {
namespace {

using testing::CoreTestContext;

HypOptions TestHypOptions() {
  HypOptions options;
  options.num_cells = 16;
  return options;
}

TEST(HypMethodTest, HonestAnswersAcceptEverywhere) {
  const auto& ctx = CoreTestContext::Get();
  auto engine = ctx.MakeMethodEngine(MethodKind::kHyp);
  for (const Query& q : ctx.queries) {
    auto bundle = engine->Answer(q);
    ASSERT_TRUE(bundle.ok());
    VerifyOutcome outcome = engine->Verify(q, bundle.value());
    EXPECT_TRUE(outcome.accepted) << outcome.ToString();
    auto truth = DijkstraShortestPath(ctx.graph, q.source, q.target);
    EXPECT_NEAR(bundle.value().distance, truth.distance, 1e-9);
  }
}

TEST(HypMethodTest, SameCellQueriesVerify) {
  const auto& ctx = CoreTestContext::Get();
  auto ads = BuildHypAds(ctx.graph, TestHypOptions(), ctx.keys);
  ASSERT_TRUE(ads.ok());
  const GridPartition& part = ads.value().hiti.partition();
  // Find two nodes in the same cell.
  Query q{kInvalidNode, kInvalidNode};
  for (uint32_t c = 0; c < part.num_cells() && q.source == kInvalidNode;
       ++c) {
    auto nodes = part.NodesInCell(c);
    if (nodes.size() >= 2) {
      q = {nodes.front(), nodes.back()};
    }
  }
  ASSERT_NE(q.source, kInvalidNode);
  HypProvider provider(&ctx.graph, &ads.value());
  auto answer = provider.Answer(q);
  ASSERT_TRUE(answer.ok());
  VerifyOutcome outcome = VerifyHypAnswer(
      ctx.keys.public_key(), ads.value().certificate, q, answer.value());
  EXPECT_TRUE(outcome.accepted) << outcome.ToString();
  auto truth = DijkstraShortestPath(ctx.graph, q.source, q.target);
  EXPECT_NEAR(answer.value().distance, truth.distance, 1e-9);
}

TEST(HypMethodTest, AdjacentNodesAcrossCellBoundaryVerify) {
  const auto& ctx = CoreTestContext::Get();
  auto ads = BuildHypAds(ctx.graph, TestHypOptions(), ctx.keys);
  ASSERT_TRUE(ads.ok());
  const GridPartition& part = ads.value().hiti.partition();
  // Find an edge crossing a cell boundary.
  Query q{kInvalidNode, kInvalidNode};
  for (NodeId u = 0; u < ctx.graph.num_nodes() && q.source == kInvalidNode;
       ++u) {
    for (const Edge& e : ctx.graph.Neighbors(u)) {
      if (part.CellOf(u) != part.CellOf(e.to)) {
        q = {u, e.to};
        break;
      }
    }
  }
  ASSERT_NE(q.source, kInvalidNode);
  HypProvider provider(&ctx.graph, &ads.value());
  auto answer = provider.Answer(q);
  ASSERT_TRUE(answer.ok());
  VerifyOutcome outcome = VerifyHypAnswer(
      ctx.keys.public_key(), ads.value().certificate, q, answer.value());
  EXPECT_TRUE(outcome.accepted) << outcome.ToString();
}

TEST(HypMethodTest, ProofCoversBothCellsAndAllBorderPairs) {
  const auto& ctx = CoreTestContext::Get();
  auto ads = BuildHypAds(ctx.graph, TestHypOptions(), ctx.keys);
  ASSERT_TRUE(ads.ok());
  const GridPartition& part = ads.value().hiti.partition();
  HypProvider provider(&ctx.graph, &ads.value());
  const Query q = ctx.queries[0];
  auto answer = provider.Answer(q);
  ASSERT_TRUE(answer.ok());
  TupleLane index;
  ASSERT_TRUE(
      answer.value().tuples.IndexInto(ctx.graph.num_nodes(), &index).ok());
  const uint32_t cell_s = part.CellOf(q.source);
  const uint32_t cell_t = part.CellOf(q.target);
  for (NodeId v : part.NodesInCell(cell_s)) {
    EXPECT_NE(index.Find(v), nullptr);
  }
  for (NodeId v : part.NodesInCell(cell_t)) {
    EXPECT_NE(index.Find(v), nullptr);
  }
  if (cell_s != cell_t) {
    const size_t expected_pairs = part.BordersOfCell(cell_s).size() *
                                  part.BordersOfCell(cell_t).size();
    EXPECT_EQ(answer.value().hyper_edges.entries.size(), expected_pairs);
  }
}

TEST(HypMethodTest, MoreCellsShrinkTheProof) {
  // Figure 13a's trend: smaller cells -> fewer tuples + fewer border pairs
  // between the two query cells.
  const auto& ctx = CoreTestContext::Get();
  HypOptions coarse = TestHypOptions();
  coarse.num_cells = 4;
  HypOptions fine = TestHypOptions();
  fine.num_cells = 49;
  auto ads_coarse = BuildHypAds(ctx.graph, coarse, ctx.keys);
  auto ads_fine = BuildHypAds(ctx.graph, fine, ctx.keys);
  ASSERT_TRUE(ads_coarse.ok());
  ASSERT_TRUE(ads_fine.ok());
  HypProvider p_coarse(&ctx.graph, &ads_coarse.value());
  HypProvider p_fine(&ctx.graph, &ads_fine.value());
  size_t coarse_tuples = 0, fine_tuples = 0;
  for (const Query& q : ctx.queries) {
    auto a = p_coarse.Answer(q);
    auto b = p_fine.Answer(q);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    coarse_tuples += a.value().tuples.tuples.size();
    fine_tuples += b.value().tuples.tuples.size();
  }
  EXPECT_LT(fine_tuples, coarse_tuples);
}

TEST(HypMethodTest, SingleCellPartitionStillWorks) {
  // Degenerate p=1: no borders, no hyper-edges; everything is in-cell.
  const auto& ctx = CoreTestContext::Get();
  HypOptions options = TestHypOptions();
  options.num_cells = 1;
  auto ads = BuildHypAds(ctx.graph, options, ctx.keys);
  ASSERT_TRUE(ads.ok());
  HypProvider provider(&ctx.graph, &ads.value());
  const Query q = ctx.queries[1];
  auto answer = provider.Answer(q);
  ASSERT_TRUE(answer.ok());
  EXPECT_FALSE(answer.value().has_hyper_edges);
  VerifyOutcome outcome = VerifyHypAnswer(
      ctx.keys.public_key(), ads.value().certificate, q, answer.value());
  EXPECT_TRUE(outcome.accepted) << outcome.ToString();
}

TEST(HypMethodTest, AnswerSerializationRoundTrip) {
  const auto& ctx = CoreTestContext::Get();
  auto ads = BuildHypAds(ctx.graph, TestHypOptions(), ctx.keys);
  ASSERT_TRUE(ads.ok());
  HypProvider provider(&ctx.graph, &ads.value());
  auto answer = provider.Answer(ctx.queries[2]);
  ASSERT_TRUE(answer.ok());
  ByteWriter w;
  answer.value().Serialize(&w);
  ByteReader r(w.view());
  auto back = HypAnswer::Deserialize(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(r.AtEnd());
  VerifyOutcome outcome =
      VerifyHypAnswer(ctx.keys.public_key(), ads.value().certificate,
                      ctx.queries[2], back.value());
  EXPECT_TRUE(outcome.accepted) << outcome.ToString();
}

TEST(HypMethodTest, CertificateCarriesCellCounts) {
  const auto& ctx = CoreTestContext::Get();
  auto ads = BuildHypAds(ctx.graph, TestHypOptions(), ctx.keys);
  ASSERT_TRUE(ads.ok());
  const MethodParams& params = ads.value().certificate.params;
  ASSERT_TRUE(params.has_cells);
  ASSERT_EQ(params.cell_counts.size(), params.num_cells);
  size_t total = 0;
  for (uint32_t count : params.cell_counts) {
    total += count;
  }
  EXPECT_EQ(total, ctx.graph.num_nodes());
}

}  // namespace
}  // namespace spauth
