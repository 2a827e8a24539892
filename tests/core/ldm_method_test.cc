#include "core/ldm.h"

#include <gtest/gtest.h>

#include "core/client_search.h"
#include "core/core_test_context.h"
#include "graph/dijkstra.h"

namespace spauth {
namespace {

using testing::CoreTestContext;

LdmOptions TestLdmOptions() {
  LdmOptions options;
  options.num_landmarks = 12;
  return options;
}

TEST(LdmMethodTest, HonestAnswersAcceptEverywhere) {
  const auto& ctx = CoreTestContext::Get();
  auto engine = ctx.MakeMethodEngine(MethodKind::kLdm);
  for (const Query& q : ctx.queries) {
    auto bundle = engine->Answer(q);
    ASSERT_TRUE(bundle.ok());
    VerifyOutcome outcome = engine->Verify(q, bundle.value());
    EXPECT_TRUE(outcome.accepted) << outcome.ToString();
    auto truth = DijkstraShortestPath(ctx.graph, q.source, q.target);
    EXPECT_NEAR(bundle.value().distance, truth.distance, 1e-9);
  }
}

TEST(LdmMethodTest, ProofSmallerThanDij) {
  // The whole point of the landmark hints (Figure 8a: LDM ~10x below DIJ).
  const auto& ctx = CoreTestContext::Get();
  auto dij = ctx.MakeMethodEngine(MethodKind::kDij);
  auto ldm = ctx.MakeMethodEngine(MethodKind::kLdm);
  size_t dij_bytes = 0, ldm_bytes = 0;
  for (const Query& q : ctx.queries) {
    auto a = dij->Answer(q);
    auto b = ldm->Answer(q);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    dij_bytes += a.value().stats.total_bytes();
    ldm_bytes += b.value().stats.total_bytes();
  }
  EXPECT_LT(ldm_bytes, dij_bytes);
}

TEST(LdmMethodTest, SubgraphCoversTheLemma2SearchSpace) {
  const auto& ctx = CoreTestContext::Get();
  auto ads = BuildLdmAds(ctx.graph, TestLdmOptions(), ctx.keys);
  ASSERT_TRUE(ads.ok());
  LdmProvider provider(&ctx.graph, &ads.value());
  const Query q = ctx.queries[0];
  auto answer = provider.Answer(q);
  ASSERT_TRUE(answer.ok());
  TupleLane index;
  ASSERT_TRUE(
      answer.value().subgraph.IndexInto(ctx.graph.num_nodes(), &index).ok());
  // All path nodes and both endpoints are present.
  for (NodeId v : answer.value().path.nodes) {
    EXPECT_NE(index.Find(v), nullptr);
  }
  // Every compressed tuple's representative is resolvable.
  for (const ExtendedTuple& t : answer.value().subgraph.tuples) {
    ASSERT_TRUE(t.has_landmark_data);
    if (!t.is_representative) {
      const ExtendedTuple* rep = index.Find(t.ref_node);
      ASSERT_NE(rep, nullptr) << "rep of " << t.id << " missing";
      EXPECT_TRUE(rep->is_representative);
    }
  }
}

TEST(LdmMethodTest, MoreLandmarksShrinkTheProof) {
  // Figure 12a's trend.
  const auto& ctx = CoreTestContext::Get();
  LdmOptions few = TestLdmOptions();
  few.num_landmarks = 4;
  LdmOptions many = TestLdmOptions();
  many.num_landmarks = 32;
  auto ads_few = BuildLdmAds(ctx.graph, few, ctx.keys);
  auto ads_many = BuildLdmAds(ctx.graph, many, ctx.keys);
  ASSERT_TRUE(ads_few.ok());
  ASSERT_TRUE(ads_many.ok());
  LdmProvider p_few(&ctx.graph, &ads_few.value());
  LdmProvider p_many(&ctx.graph, &ads_many.value());
  size_t tuples_few = 0, tuples_many = 0;
  for (const Query& q : ctx.queries) {
    auto a = p_few.Answer(q);
    auto b = p_many.Answer(q);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    tuples_few += a.value().subgraph.tuples.size();
    tuples_many += b.value().subgraph.tuples.size();
  }
  EXPECT_LT(tuples_many, tuples_few);
}

TEST(LdmMethodTest, VerifiesAcrossQuantizationSettings) {
  const auto& ctx = CoreTestContext::Get();
  for (int bits : {6, 10, 16}) {
    LdmOptions options = TestLdmOptions();
    options.quantization_bits = bits;
    auto ads = BuildLdmAds(ctx.graph, options, ctx.keys);
    ASSERT_TRUE(ads.ok()) << "bits=" << bits;
    LdmProvider provider(&ctx.graph, &ads.value());
    const Query q = ctx.queries[3];
    auto answer = provider.Answer(q);
    ASSERT_TRUE(answer.ok());
    VerifyOutcome outcome =
        VerifyLdmAnswer(ctx.keys.public_key(), ads.value().certificate, q,
                        answer.value());
    EXPECT_TRUE(outcome.accepted) << "bits=" << bits << " "
                                  << outcome.ToString();
  }
}

TEST(LdmMethodTest, VerifiesAcrossCompressionThresholds) {
  const auto& ctx = CoreTestContext::Get();
  for (double xi : {0.0, 100.0, 1000.0}) {
    LdmOptions options = TestLdmOptions();
    options.compression_xi = xi;
    auto ads = BuildLdmAds(ctx.graph, options, ctx.keys);
    ASSERT_TRUE(ads.ok()) << "xi=" << xi;
    LdmProvider provider(&ctx.graph, &ads.value());
    const Query q = ctx.queries[4];
    auto answer = provider.Answer(q);
    ASSERT_TRUE(answer.ok());
    VerifyOutcome outcome =
        VerifyLdmAnswer(ctx.keys.public_key(), ads.value().certificate, q,
                        answer.value());
    EXPECT_TRUE(outcome.accepted) << "xi=" << xi << " " << outcome.ToString();
  }
}

TEST(LdmMethodTest, AnswerSerializationRoundTrip) {
  const auto& ctx = CoreTestContext::Get();
  auto ads = BuildLdmAds(ctx.graph, TestLdmOptions(), ctx.keys);
  ASSERT_TRUE(ads.ok());
  LdmProvider provider(&ctx.graph, &ads.value());
  auto answer = provider.Answer(ctx.queries[5]);
  ASSERT_TRUE(answer.ok());
  ByteWriter w;
  answer.value().Serialize(&w);
  ByteReader r(w.view());
  auto back = LdmAnswer::Deserialize(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(r.AtEnd());
  VerifyOutcome outcome =
      VerifyLdmAnswer(ctx.keys.public_key(), ads.value().certificate,
                      ctx.queries[5], back.value());
  EXPECT_TRUE(outcome.accepted) << outcome.ToString();
}

TEST(LdmMethodTest, RandomLandmarkStrategyAlsoWorks) {
  const auto& ctx = CoreTestContext::Get();
  LdmOptions options = TestLdmOptions();
  options.strategy = LandmarkStrategy::kRandom;
  auto ads = BuildLdmAds(ctx.graph, options, ctx.keys);
  ASSERT_TRUE(ads.ok());
  LdmProvider provider(&ctx.graph, &ads.value());
  const Query q = ctx.queries[6];
  auto answer = provider.Answer(q);
  ASSERT_TRUE(answer.ok());
  VerifyOutcome outcome = VerifyLdmAnswer(
      ctx.keys.public_key(), ads.value().certificate, q, answer.value());
  EXPECT_TRUE(outcome.accepted) << outcome.ToString();
}

}  // namespace
}  // namespace spauth
