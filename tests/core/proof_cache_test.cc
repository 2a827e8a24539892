// Server-side proof cache: hits must reproduce the exact assembled bytes,
// distinct queries must never collide, owner-side updates must invalidate,
// and the security matrix must be unaffected by caching.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "adversary/tamper.h"
#include "core/core_test_context.h"
#include "core/engine.h"
#include "graph/generator.h"
#include "graph/workload.h"
#include "util/rng.h"

namespace spauth {
namespace {

using testing::CoreTestContext;
using testing::OneSetWeight;

std::unique_ptr<MethodEngine> MakeCachedEngine(MethodKind kind) {
  const auto& ctx = CoreTestContext::Get();
  EngineOptions options = CoreTestContext::DefaultOptions(kind);
  options.enable_proof_cache = true;
  auto engine = MakeEngine(ctx.graph, options, ctx.keys);
  EXPECT_TRUE(engine.ok());
  return std::move(engine).value();
}

class ProofCacheTest : public ::testing::TestWithParam<MethodKind> {};

TEST_P(ProofCacheTest, HitReturnsByteIdenticalBundle) {
  const auto& ctx = CoreTestContext::Get();
  auto engine = MakeCachedEngine(GetParam());
  const Query q = ctx.queries[0];
  auto first = engine->Answer(q);
  ASSERT_TRUE(first.ok());
  auto second = engine->Answer(q);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value().bytes, second.value().bytes);
  EXPECT_EQ(first.value().path, second.value().path);
  EXPECT_EQ(first.value().distance, second.value().distance);
  const ProofCacheStats stats = engine->proof_cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hit_bytes, first.value().bytes.size());
  EXPECT_TRUE(engine->Verify(q, second.value()).accepted);
}

TEST_P(ProofCacheTest, CachedBytesEqualUncachedEngine) {
  const auto& ctx = CoreTestContext::Get();
  auto cached = MakeCachedEngine(GetParam());
  auto uncached = ctx.MakeMethodEngine(GetParam());
  for (const Query& q : ctx.queries) {
    auto a = cached->Answer(q);   // miss: fills the cache
    auto b = cached->Answer(q);   // hit
    auto c = uncached->Answer(q);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_TRUE(c.ok());
    EXPECT_EQ(a.value().bytes, b.value().bytes);
    EXPECT_EQ(a.value().bytes, c.value().bytes);
  }
}

TEST_P(ProofCacheTest, DistinctQueriesNeverShareAnEntry) {
  const auto& ctx = CoreTestContext::Get();
  auto engine = MakeCachedEngine(GetParam());
  const Query q = ctx.queries[0];
  const Query reversed{q.target, q.source};
  auto forward = engine->Answer(q);
  ASSERT_TRUE(forward.ok());
  auto backward = engine->Answer(reversed);
  ASSERT_TRUE(backward.ok());
  // The reversed query is a different cache key and a different answer.
  EXPECT_EQ(engine->proof_cache_stats().misses, 2u);
  EXPECT_NE(forward.value().bytes, backward.value().bytes);
  // A cached bundle substituted for a different query must still reject:
  // caching cannot launder a query-substitution attack.
  EXPECT_TRUE(engine->Verify(q, forward.value()).accepted);
  EXPECT_FALSE(engine->Verify(reversed, forward.value()).accepted);
}

TEST_P(ProofCacheTest, AllTamperKindsStillRejectWithCacheEnabled) {
  const auto& ctx = CoreTestContext::Get();
  auto engine = MakeCachedEngine(GetParam());
  size_t attacks_executed = 0;
  for (TamperKind tamper : kAllTamperKinds) {
    for (const Query& q : ctx.queries) {
      // Warm the cache with the honest answer first, as a real provider
      // under test would.
      ASSERT_TRUE(engine->Answer(q).ok());
      auto forged = TamperedAnswer(*engine, q, tamper);
      if (!forged.ok()) {
        continue;
      }
      ++attacks_executed;
      EXPECT_FALSE(engine->Verify(q, forged.value()).accepted)
          << ToString(tamper);
      // The tampered path must not have poisoned the cache.
      auto honest = engine->Answer(q);
      ASSERT_TRUE(honest.ok());
      EXPECT_TRUE(engine->Verify(q, honest.value()).accepted)
          << ToString(tamper);
    }
  }
  EXPECT_GT(attacks_executed, 0u);
}

TEST_P(ProofCacheTest, SharedAccessorServesZeroCopyHits) {
  const auto& ctx = CoreTestContext::Get();
  auto engine = MakeCachedEngine(GetParam());
  const Query q = ctx.queries[0];
  auto first = engine->AnswerShared(q);
  ASSERT_TRUE(first.ok());
  auto second = engine->AnswerShared(q);
  ASSERT_TRUE(second.ok());
  // A hit is the *same* resident bundle, not an equal copy: pointer
  // identity is the zero-copy contract.
  EXPECT_EQ(first.value().get(), second.value().get());
  SearchWorkspace ws;
  auto third = engine->AnswerShared(q, ws);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(first.value().get(), third.value().get());
  // The wire bytes are shared with what the value API serves.
  auto copied = engine->Answer(q);
  ASSERT_TRUE(copied.ok());
  EXPECT_EQ(copied.value().bytes, first.value()->bytes);
  // Exact accounting: one miss (the assembly), three hits after it, every
  // hit attributed the full payload size.
  const ProofCacheStats stats = engine->proof_cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.hit_bytes, 3 * first.value()->bytes.size());
  // And the shared bundle verifies like any other.
  EXPECT_TRUE(engine->Verify(q, *first.value()).accepted);
}

TEST_P(ProofCacheTest, SharedAccessorWithoutCacheAssemblesFreshBundles) {
  const auto& ctx = CoreTestContext::Get();
  auto engine = ctx.MakeMethodEngine(GetParam());  // cache off
  const Query q = ctx.queries[0];
  auto first = engine->AnswerShared(q);
  auto second = engine->AnswerShared(q);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  // No cache to share with: each call assembles its own (equal) bundle.
  EXPECT_NE(first.value().get(), second.value().get());
  EXPECT_EQ(first.value()->bytes, second.value()->bytes);
  EXPECT_EQ(engine->proof_cache_stats().hits, 0u);
}

TEST(ProofCacheZeroCopyTest, HeldBundleSurvivesOwnerInvalidation) {
  // A client-held shared bundle must stay readable after the owner updates
  // the ADS and the cache drops the entry (shared_ptr keeps it alive).
  RoadNetworkOptions gopts;
  gopts.num_nodes = 120;
  gopts.seed = 78;
  Graph g = GenerateRoadNetwork(gopts).value();
  Rng rng(606);
  auto keys = RsaKeyPair::Generate(512, &rng);
  ASSERT_TRUE(keys.ok());
  EngineOptions options;
  options.method = MethodKind::kDij;
  options.enable_proof_cache = true;
  auto engine = MakeEngine(g, options, keys.value());
  ASSERT_TRUE(engine.ok());
  WorkloadOptions wopts;
  wopts.count = 2;
  wopts.query_range = 2000;
  wopts.seed = 12;
  auto queries = GenerateWorkload(g, wopts);
  ASSERT_TRUE(queries.ok());
  const Query q = queries.value()[0];

  auto held = engine.value()->AnswerShared(q);
  ASSERT_TRUE(held.ok());
  const std::vector<uint8_t> bytes_before = held.value()->bytes;

  const NodeId u = held.value()->path.nodes[0];
  const NodeId v = held.value()->path.nodes[1];
  const Edge* edge = g.FindEdge(u, v);
  ASSERT_NE(edge, nullptr);
  ASSERT_TRUE(engine.value()
                  ->ApplyUpdates(&keys.value(),
                                 OneSetWeight(u, v, edge->weight * 1.5))
                  .ok());

  // The held bundle is untouched by the invalidation...
  EXPECT_EQ(held.value()->bytes, bytes_before);
  // ...and the next shared answer is a new resident bundle.
  auto fresh = engine.value()->AnswerShared(q);
  ASSERT_TRUE(fresh.ok());
  EXPECT_NE(fresh.value().get(), held.value().get());
  EXPECT_NE(fresh.value()->bytes, bytes_before);
  EXPECT_TRUE(engine.value()->Verify(q, *fresh.value()).accepted);
}

TEST_P(ProofCacheTest, AnswerBatchServesFromTheSharedCache) {
  const auto& ctx = CoreTestContext::Get();
  auto engine = MakeCachedEngine(GetParam());
  auto first = engine->AnswerBatch(ctx.queries, 2);
  auto second = engine->AnswerBatch(ctx.queries, 2);
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    ASSERT_TRUE(first[i].ok());
    ASSERT_TRUE(second[i].ok());
    EXPECT_EQ(first[i].value().bytes, second[i].value().bytes);
  }
  const ProofCacheStats stats = engine->proof_cache_stats();
  EXPECT_EQ(stats.misses, ctx.queries.size());
  EXPECT_EQ(stats.hits, ctx.queries.size());
}

INSTANTIATE_TEST_SUITE_P(AllMethods, ProofCacheTest,
                         ::testing::ValuesIn(kAllMethods),
                         [](const auto& info) {
                           return std::string(ToString(info.param));
                         });

TEST(ProofCacheUpdateTest, OwnerUpdateInvalidatesCachedBundles) {
  // Private graph/engine: the update mutates both, so the shared fixture
  // must not be used.
  RoadNetworkOptions gopts;
  gopts.num_nodes = 120;
  gopts.seed = 77;
  auto graph = GenerateRoadNetwork(gopts);
  ASSERT_TRUE(graph.ok());
  Graph g = std::move(graph).value();
  Rng rng(505);
  auto keys = RsaKeyPair::Generate(512, &rng);
  ASSERT_TRUE(keys.ok());
  WorkloadOptions wopts;
  wopts.count = 4;
  wopts.query_range = 2000;
  wopts.seed = 11;
  auto queries = GenerateWorkload(g, wopts);
  ASSERT_TRUE(queries.ok());

  EngineOptions options;
  options.method = MethodKind::kDij;
  options.enable_proof_cache = true;
  auto engine = MakeEngine(g, options, keys.value());
  ASSERT_TRUE(engine.ok());

  const Query q = queries.value()[0];
  auto before = engine.value()->Answer(q);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(engine.value()->Answer(q).ok());  // hit
  EXPECT_EQ(engine.value()->proof_cache_stats().hits, 1u);

  // Re-weight the first edge on the answered path through the engine
  // (copy-on-write: the caller's graph stays untouched; the engine serves
  // the rotated snapshot).
  const NodeId u = before.value().path.nodes[0];
  const NodeId v = before.value().path.nodes[1];
  const Edge* edge = g.FindEdge(u, v);
  ASSERT_NE(edge, nullptr);
  const double old_w = edge->weight;
  ASSERT_TRUE(engine.value()
                  ->ApplyUpdates(&keys.value(),
                                 OneSetWeight(u, v, old_w * 1.5))
                  .ok());
  EXPECT_DOUBLE_EQ(g.EdgeWeight(u, v).value(), old_w);

  // The rotation retired the old snapshot's cache: the next answer is a
  // miss, reflects the new weight, and verifies against the re-signed
  // certificate.
  auto after = engine.value()->Answer(q);
  ASSERT_TRUE(after.ok());
  EXPECT_NE(before.value().bytes, after.value().bytes);
  EXPECT_GE(after.value().distance, before.value().distance);
  EXPECT_TRUE(engine.value()->Verify(q, after.value()).accepted);
  const ProofCacheStats stats = engine.value()->proof_cache_stats();
  EXPECT_EQ(stats.misses, 2u);
  // And the refreshed entry serves hits again.
  auto repeat = engine.value()->Answer(q);
  ASSERT_TRUE(repeat.ok());
  EXPECT_EQ(after.value().bytes, repeat.value().bytes);
}

TEST(ProofCacheUpdateTest, NonDijMethodsRefuseIncrementalUpdates) {
  const auto& ctx = CoreTestContext::Get();
  for (MethodKind method :
       {MethodKind::kFull, MethodKind::kLdm, MethodKind::kHyp}) {
    auto engine = ctx.MakeMethodEngine(method);
    auto s = engine->ApplyUpdates(&ctx.keys, OneSetWeight(0, 1, 2.0));
    EXPECT_EQ(s.status().code(), StatusCode::kFailedPrecondition)
        << ToString(method);
  }
}

}  // namespace
}  // namespace spauth
