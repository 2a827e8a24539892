#include "core/dij.h"

#include <gtest/gtest.h>

#include "core/client_search.h"
#include "core/core_test_context.h"
#include "graph/dijkstra.h"
#include "testutil.h"

namespace spauth {
namespace {

using testing::CoreTestContext;

TEST(DijMethodTest, HonestAnswersAcceptEverywhere) {
  const auto& ctx = CoreTestContext::Get();
  auto engine = ctx.MakeMethodEngine(MethodKind::kDij);
  for (const Query& q : ctx.queries) {
    auto bundle = engine->Answer(q);
    ASSERT_TRUE(bundle.ok());
    VerifyOutcome outcome = engine->Verify(q, bundle.value());
    EXPECT_TRUE(outcome.accepted) << outcome.ToString();
    // Claimed distance equals the true shortest distance.
    auto truth = DijkstraShortestPath(ctx.graph, q.source, q.target);
    EXPECT_NEAR(bundle.value().distance, truth.distance, 1e-9);
  }
}

TEST(DijMethodTest, ProofContainsExactlyTheLemma1Ball) {
  const auto& ctx = CoreTestContext::Get();
  auto dij = BuildDijAds(ctx.graph, DijOptions{}, ctx.keys);
  ASSERT_TRUE(dij.ok());
  DijProvider provider(&ctx.graph, &dij.value());
  const Query q = ctx.queries[0];
  auto answer = provider.Answer(q);
  ASSERT_TRUE(answer.ok());
  // Every node with dist(vs, v) <= dist(vs, vt) is present (Lemma 1).
  DijkstraTree tree = DijkstraAll(ctx.graph, q.source);
  TupleLane index;
  ASSERT_TRUE(
      answer.value().subgraph.IndexInto(ctx.graph.num_nodes(), &index).ok());
  size_t in_ball = 0;
  for (NodeId v = 0; v < ctx.graph.num_nodes(); ++v) {
    if (tree.dist[v] <= answer.value().distance) {
      ++in_ball;
      EXPECT_NE(index.Find(v), nullptr) << "ball node " << v << " missing";
    }
  }
  // ...and not much more than the ball (only the provider slack band).
  EXPECT_LE(answer.value().subgraph.tuples.size(), in_ball + 5);
}

TEST(DijMethodTest, AnswerRejectsBadQueries) {
  const auto& ctx = CoreTestContext::Get();
  auto dij = BuildDijAds(ctx.graph, DijOptions{}, ctx.keys);
  ASSERT_TRUE(dij.ok());
  DijProvider provider(&ctx.graph, &dij.value());
  EXPECT_FALSE(provider.Answer({0, 0}).ok());
  EXPECT_FALSE(provider.Answer({0, kInvalidNode}).ok());
}

TEST(DijMethodTest, AnswerSerializationRoundTrip) {
  const auto& ctx = CoreTestContext::Get();
  auto dij = BuildDijAds(ctx.graph, DijOptions{}, ctx.keys);
  ASSERT_TRUE(dij.ok());
  DijProvider provider(&ctx.graph, &dij.value());
  auto answer = provider.Answer(ctx.queries[1]);
  ASSERT_TRUE(answer.ok());
  ByteWriter w;
  answer.value().Serialize(&w);
  ByteReader r(w.view());
  auto back = DijAnswer::Deserialize(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(back.value().path, answer.value().path);
  EXPECT_EQ(back.value().distance, answer.value().distance);
  EXPECT_EQ(back.value().subgraph.tuples.size(),
            answer.value().subgraph.tuples.size());
}

TEST(DijMethodTest, VerifyRejectsWrongQuery) {
  // A proof for one query must not verify for another.
  const auto& ctx = CoreTestContext::Get();
  auto engine = ctx.MakeMethodEngine(MethodKind::kDij);
  auto bundle = engine->Answer(ctx.queries[0]);
  ASSERT_TRUE(bundle.ok());
  Query other = ctx.queries[1];
  VerifyOutcome outcome = engine->Verify(other, bundle.value());
  EXPECT_FALSE(outcome.accepted);
}

TEST(DijMethodTest, VerifyRejectsGarbageBytes) {
  const auto& ctx = CoreTestContext::Get();
  auto engine = ctx.MakeMethodEngine(MethodKind::kDij);
  ProofBundle garbage;
  garbage.bytes = {1, 2, 3, 4, 5};
  VerifyOutcome outcome = engine->Verify(ctx.queries[0], garbage);
  EXPECT_FALSE(outcome.accepted);
  EXPECT_EQ(outcome.failure, VerifyFailure::kMalformedProof);
}

TEST(DijMethodTest, StatsAreConsistent) {
  const auto& ctx = CoreTestContext::Get();
  auto engine = ctx.MakeMethodEngine(MethodKind::kDij);
  auto bundle = engine->Answer(ctx.queries[2]);
  ASSERT_TRUE(bundle.ok());
  const ProofStats& stats = bundle.value().stats;
  EXPECT_GT(stats.sp_bytes, 0u);
  EXPECT_GT(stats.t_bytes, 0u);
  EXPECT_GT(stats.sp_items, 0u);
  EXPECT_GT(stats.t_items, 0u);
  // The wire message carries everything the stats account for.
  EXPECT_GE(bundle.value().bytes.size(), stats.sp_bytes);
}

TEST(DijMethodTest, LongerQueriesYieldBiggerProofs) {
  // The Figure 11b driver: the Lemma-1 ball grows with the query range.
  const auto& ctx = CoreTestContext::Get();
  auto engine = ctx.MakeMethodEngine(MethodKind::kDij);
  WorkloadOptions near_opts{/*count=*/4, /*query_range=*/800, /*seed=*/5};
  WorkloadOptions far_opts{/*count=*/4, /*query_range=*/4000, /*seed=*/5};
  auto near_queries = GenerateWorkload(ctx.graph, near_opts);
  auto far_queries = GenerateWorkload(ctx.graph, far_opts);
  ASSERT_TRUE(near_queries.ok());
  ASSERT_TRUE(far_queries.ok());
  auto mean_bytes = [&](const std::vector<Query>& queries) {
    size_t total = 0;
    for (const Query& q : queries) {
      auto bundle = engine->Answer(q);
      EXPECT_TRUE(bundle.ok());
      total += bundle.value().stats.total_bytes();
    }
    return total / queries.size();
  };
  EXPECT_LT(mean_bytes(near_queries.value()), mean_bytes(far_queries.value()));
}

TEST(DijMethodTest, WorksOnThePaperExampleGrid) {
  // Figure 4's setting: 6x6 unit grid, vs = v33 (id 14), vt = v44 (id 21).
  Graph grid = testing::MakeGridGraph(6, 6);
  Rng rng(7);
  auto keys = RsaKeyPair::Generate(512, &rng);
  ASSERT_TRUE(keys.ok());
  auto ads = BuildDijAds(grid, DijOptions{}, keys.value());
  ASSERT_TRUE(ads.ok());
  DijProvider provider(&grid, &ads.value());
  Query q{14, 21};
  auto answer = provider.Answer(q);
  ASSERT_TRUE(answer.ok());
  EXPECT_DOUBLE_EQ(answer.value().distance, 2.0);
  // Figure 4: 13 extended-tuples in the proof.
  EXPECT_EQ(answer.value().subgraph.tuples.size(), 13u);
  VerifyOutcome outcome = VerifyDijAnswer(keys.value().public_key(),
                                          ads.value().certificate, q,
                                          answer.value());
  EXPECT_TRUE(outcome.accepted) << outcome.ToString();
}

}  // namespace
}  // namespace spauth
