// ShardedEngine: routing must be deterministic, shards must stay isolated
// (caches and graphs), the sharded path must serve byte-identical answers
// to a standalone engine with zero bundle copies on cache hits, and every
// wire/ADS tamper class must still be rejected when it arrives through a
// shard.
#include "core/sharded_engine.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "adversary/tamper.h"
#include "core/client.h"
#include "core/core_test_context.h"
#include "core/engine.h"
#include "graph/generator.h"
#include "util/byte_buffer.h"

namespace spauth {
namespace {

using testing::CoreTestContext;
using testing::ExpectBatchMatchesSerial;
using testing::OneSetWeight;

std::unique_ptr<ShardedEngine> MakeSharded(MethodKind kind, size_t shards,
                                           bool cache = false) {
  const auto& ctx = CoreTestContext::Get();
  EngineOptions options = CoreTestContext::DefaultOptions(kind);
  options.enable_proof_cache = cache;
  auto sharded =
      ShardedEngine::BuildReplicated(ctx.graph, options, shards, ctx.keys);
  EXPECT_TRUE(sharded.ok()) << sharded.status().ToString();
  return std::move(sharded).value();
}

/// Re-encodes `bundle_bytes` with `cert` in place of the original leading
/// certificate (whose wire size was `orig_cert_size`): the wire-level
/// certificate-tamper tool.
ProofBundle SpliceCertificate(const Certificate& cert,
                              const ProofBundle& bundle,
                              size_t orig_cert_size) {
  ByteWriter w;
  cert.Serialize(&w);
  w.WriteBytes(std::span<const uint8_t>(bundle.bytes).subspan(orig_cert_size));
  ProofBundle spliced;
  spliced.path = bundle.path;
  spliced.distance = bundle.distance;
  spliced.bytes = w.TakeBytes();
  return spliced;
}

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

TEST(ShardRouterTest, HashSourceRoutingIsDeterministicAndCoversShards) {
  const auto& ctx = CoreTestContext::Get();
  HashSourceRouter router;
  std::set<size_t> used;
  for (NodeId v = 0; v < ctx.graph.num_nodes(); ++v) {
    const Query q{v, static_cast<NodeId>((v + 1) % ctx.graph.num_nodes())};
    const size_t shard = router.Route(q, 4);
    ASSERT_LT(shard, 4u);
    used.insert(shard);
    for (int repeat = 0; repeat < 3; ++repeat) {
      EXPECT_EQ(router.Route(q, 4), shard);
    }
    // Routing keys on the source only: a session pinned to one source node
    // always lands on one shard's cache, whatever it asks about.
    const Query other_target{v, static_cast<NodeId>(
                                    (v + 7) % ctx.graph.num_nodes())};
    EXPECT_EQ(router.Route(other_target, 4), shard);
  }
  // 400 sources over 4 shards: a broken mixer would collapse to one.
  EXPECT_EQ(used.size(), 4u);
}

TEST(ShardRouterTest, ExplicitMapRoutesBySourceWithFallback) {
  std::vector<uint32_t> map = {0, 1, 1, 0};
  ExplicitMapRouter router(map, /*fallback_shard=*/1);
  EXPECT_EQ(router.Route(Query{0, 9}, 2), 0u);
  EXPECT_EQ(router.Route(Query{1, 9}, 2), 1u);
  EXPECT_EQ(router.Route(Query{2, 9}, 2), 1u);
  EXPECT_EQ(router.Route(Query{3, 9}, 2), 0u);
  // Beyond the map: the fallback shard.
  EXPECT_EQ(router.Route(Query{100, 9}, 2), 1u);
  // A map entry pointing past num_shards is clamped, never out of range.
  ExplicitMapRouter overflow({7}, 0);
  EXPECT_LT(overflow.Route(Query{0, 1}, 2), 2u);
}

TEST(ShardedEngineTest, BuildRejectsBadSpecs) {
  const auto& ctx = CoreTestContext::Get();
  EXPECT_FALSE(ShardedEngine::Build({}, nullptr, ctx.keys).ok());

  std::vector<ShardSpec> null_graph(1);
  null_graph[0].options = CoreTestContext::DefaultOptions(MethodKind::kDij);
  EXPECT_FALSE(ShardedEngine::Build(null_graph, nullptr, ctx.keys).ok());

  std::vector<ShardSpec> mixed(2, ShardSpec{&ctx.graph,
                               CoreTestContext::DefaultOptions(
                                   MethodKind::kDij)});
  mixed[1].options.method = MethodKind::kLdm;
  EXPECT_FALSE(ShardedEngine::Build(mixed, nullptr, ctx.keys).ok());
}

// ---------------------------------------------------------------------------
// Serving equivalence and zero-copy
// ---------------------------------------------------------------------------

class ShardedEngineMethodTest : public ::testing::TestWithParam<MethodKind> {};

TEST_P(ShardedEngineMethodTest, ShardedAnswersAreByteIdenticalToDirect) {
  const auto& ctx = CoreTestContext::Get();
  auto sharded = MakeSharded(GetParam(), 3);
  auto single = MakeSharded(GetParam(), 1);
  auto direct = ctx.MakeMethodEngine(GetParam());
  for (const Query& q : ctx.queries) {
    auto via_shards = sharded->Answer(q);
    auto via_single = single->Answer(q);
    auto via_direct = direct->Answer(q);
    ASSERT_TRUE(via_shards.ok());
    ASSERT_TRUE(via_single.ok());
    ASSERT_TRUE(via_direct.ok());
    // Replicas build the same ADS: the shard that answers is irrelevant.
    EXPECT_EQ(via_shards.value()->bytes, via_direct.value().bytes);
    EXPECT_EQ(via_single.value()->bytes, via_direct.value().bytes);
    EXPECT_EQ(via_shards.value()->distance, via_direct.value().distance);
    // And the sharded answer verifies like any other.
    EXPECT_TRUE(
        direct->Verify(q, *via_shards.value()).accepted);
  }
}

TEST_P(ShardedEngineMethodTest, CacheHitsAreZeroCopyAcrossTheShardedPath) {
  const auto& ctx = CoreTestContext::Get();
  auto sharded = MakeSharded(GetParam(), 2, /*cache=*/true);
  for (const Query& q : ctx.queries) {
    auto first = sharded->Answer(q);
    auto second = sharded->Answer(q);
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(second.ok());
    // The repeat is the same resident bundle, not an equal copy.
    EXPECT_EQ(first.value().get(), second.value().get());
  }
  // Batches hit the same resident bundles.
  auto batch = sharded->AnswerBatch(ctx.queries, 2);
  for (size_t i = 0; i < ctx.queries.size(); ++i) {
    ASSERT_TRUE(batch[i].ok());
    auto again = sharded->Answer(ctx.queries[i]);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(batch[i].value().get(), again.value().get());
  }
}

TEST_P(ShardedEngineMethodTest, PerShardCachesStayIsolated) {
  const auto& ctx = CoreTestContext::Get();
  auto sharded = MakeSharded(GetParam(), 4, /*cache=*/true);
  std::set<std::pair<NodeId, NodeId>> distinct;
  std::vector<uint64_t> routed(4, 0);  // distinct queries per shard
  for (const Query& q : ctx.queries) {
    if (distinct.insert({q.source, q.target}).second) {
      ++routed[sharded->RouteOf(q)];
    }
    ASSERT_TRUE(sharded->Answer(q).ok());
    ASSERT_TRUE(sharded->Answer(q).ok());
  }
  const ShardedStats stats = sharded->GetStats();
  ASSERT_EQ(stats.shards.size(), 4u);
  for (size_t s = 0; s < 4; ++s) {
    const ShardStats& shard = stats.shards[s];
    // Every miss (and entry) belongs to the shard the query routed to; a
    // cross-shard hit would show up as activity on a shard with no routed
    // queries.
    EXPECT_EQ(shard.cache.misses, routed[s]) << "shard " << s;
    EXPECT_EQ(shard.cache.entries, routed[s]) << "shard " << s;
    if (routed[s] == 0) {
      EXPECT_EQ(shard.cache.hits, 0u) << "shard " << s;
      EXPECT_EQ(shard.queries, 0u) << "shard " << s;
    }
  }
  EXPECT_EQ(stats.totals.cache.misses, distinct.size());
  EXPECT_EQ(stats.totals.queries, 2 * ctx.queries.size());
  EXPECT_EQ(stats.totals.failures, 0u);
  testing::ExpectShardStatsConserve(stats);
}

// The totals merge, checked against values written out by hand rather than
// against the field list it is derived from: counters sum, the gauges take
// the max, breaker_state the most severe state (open > half-open > closed,
// which is not the enum's numeric order).
TEST(ShardStatsTest, MergeSumsCountersAndTakesGaugeMaxima) {
  ShardStats a;
  a.queries = 10;
  a.failures = 1;
  a.answer_micros = 100;
  a.updates = 3;
  a.update_failures = 1;
  a.rotation_clone_bytes = 4096;
  a.enqueued_updates = 7;
  a.coalesced_rotations = 2;
  a.update_lag_micros = 500;
  a.live_snapshots = 1;
  a.certificate_version = 9;
  a.retries = 4;
  a.failovers = 2;
  a.deadline_exceeded = 1;
  a.breaker_skips = 5;
  a.breaker_opens = 1;
  a.breaker_state = BreakerState::kOpen;
  a.resyncs = 2;
  a.resync_failures = 1;
  a.cross_group_serves = 3;
  a.fleet_rollforwards = 1;
  a.cache.hits = 6;
  a.cache.misses = 4;
  a.cache.insertions = 4;
  a.cache.evictions = 1;
  a.cache.cleared = 2;
  a.cache.hit_bytes = 600;
  a.cache.entries = 1;

  ShardStats b;
  b.queries = 20;
  b.failures = 2;
  b.answer_micros = 50;
  b.updates = 3;
  b.update_failures = 0;
  b.rotation_clone_bytes = 1024;
  b.enqueued_updates = 0;
  b.coalesced_rotations = 1;
  b.update_lag_micros = 800;
  b.live_snapshots = 3;
  b.certificate_version = 7;
  b.retries = 1;
  b.failovers = 1;
  b.deadline_exceeded = 0;
  b.breaker_skips = 2;
  b.breaker_opens = 3;
  b.breaker_state = BreakerState::kHalfOpen;
  b.resyncs = 1;
  b.resync_failures = 0;
  b.cross_group_serves = 1;
  b.fleet_rollforwards = 2;
  b.cache.hits = 1;
  b.cache.misses = 2;
  b.cache.insertions = 2;
  b.cache.evictions = 0;
  b.cache.cleared = 1;
  b.cache.hit_bytes = 100;
  b.cache.entries = 1;

  ShardStats totals;
  MergeStats(totals, a);
  MergeStats(totals, b);
  EXPECT_EQ(totals.queries, 30u);
  EXPECT_EQ(totals.failures, 3u);
  EXPECT_EQ(totals.answer_micros, 150u);
  EXPECT_EQ(totals.updates, 6u);
  EXPECT_EQ(totals.update_failures, 1u);
  EXPECT_EQ(totals.rotation_clone_bytes, 5120u);
  EXPECT_EQ(totals.enqueued_updates, 7u);
  EXPECT_EQ(totals.coalesced_rotations, 3u);
  EXPECT_EQ(totals.update_lag_micros, 800u);
  EXPECT_EQ(totals.live_snapshots, 3u);
  EXPECT_EQ(totals.certificate_version, 9u);
  EXPECT_EQ(totals.retries, 5u);
  EXPECT_EQ(totals.failovers, 3u);
  EXPECT_EQ(totals.deadline_exceeded, 1u);
  EXPECT_EQ(totals.breaker_skips, 7u);
  EXPECT_EQ(totals.breaker_opens, 4u);
  EXPECT_EQ(totals.breaker_state, BreakerState::kOpen);
  EXPECT_EQ(totals.resyncs, 3u);
  EXPECT_EQ(totals.resync_failures, 1u);
  EXPECT_EQ(totals.cross_group_serves, 4u);
  EXPECT_EQ(totals.fleet_rollforwards, 3u);
  EXPECT_EQ(totals.cache.hits, 7u);
  EXPECT_EQ(totals.cache.misses, 6u);
  EXPECT_EQ(totals.cache.insertions, 6u);
  EXPECT_EQ(totals.cache.evictions, 1u);
  EXPECT_EQ(totals.cache.cleared, 3u);
  EXPECT_EQ(totals.cache.hit_bytes, 700u);
  EXPECT_EQ(totals.cache.entries, 2u);

  // Half-open outranks closed, and a later closed shard never lowers the
  // aggregate.
  ShardStats states;
  ShardStats half_open;
  half_open.breaker_state = BreakerState::kHalfOpen;
  MergeStats(states, half_open);
  EXPECT_EQ(states.breaker_state, BreakerState::kHalfOpen);
  MergeStats(states, ShardStats{});
  EXPECT_EQ(states.breaker_state, BreakerState::kHalfOpen);
}

// ---------------------------------------------------------------------------
// Region partitioning (distinct graphs per shard)
// ---------------------------------------------------------------------------

TEST(ShardedEngineTest, ExplicitMapServesRegionShardsFromTheirOwnGraphs) {
  const auto& ctx = CoreTestContext::Get();
  RoadNetworkOptions gopts;
  gopts.num_nodes = 120;
  gopts.seed = 1001;
  Graph region_a = GenerateRoadNetwork(gopts).value();
  gopts.seed = 2002;
  Graph region_b = GenerateRoadNetwork(gopts).value();

  EngineOptions options = CoreTestContext::DefaultOptions(MethodKind::kDij);
  std::vector<ShardSpec> specs = {{&region_a, options}, {&region_b, options}};
  // Even sources live in region A, odd in region B.
  std::vector<uint32_t> map(120);
  for (size_t v = 0; v < map.size(); ++v) {
    map[v] = v % 2;
  }
  auto sharded = ShardedEngine::Build(
      specs, std::make_unique<ExplicitMapRouter>(map), ctx.keys);
  ASSERT_TRUE(sharded.ok());

  auto direct_a = MakeEngine(region_a, options, ctx.keys);
  auto direct_b = MakeEngine(region_b, options, ctx.keys);
  ASSERT_TRUE(direct_a.ok());
  ASSERT_TRUE(direct_b.ok());

  for (NodeId source : {NodeId{4}, NodeId{7}, NodeId{32}, NodeId{55}}) {
    const Query q{source, static_cast<NodeId>(source + 10)};
    const size_t shard = sharded.value()->RouteOf(q);
    EXPECT_EQ(shard, source % 2);
    auto answer = sharded.value()->Answer(q);
    ASSERT_TRUE(answer.ok()) << q.source << "->" << q.target;
    const MethodEngine& owner =
        shard == 0 ? *direct_a.value() : *direct_b.value();
    auto expected = owner.Answer(q);
    ASSERT_TRUE(expected.ok());
    // The shard answered over its own region graph, certificate included.
    EXPECT_EQ(answer.value()->bytes, expected.value().bytes);
    EXPECT_TRUE(owner.Verify(q, *answer.value()).accepted);
  }
}

// ---------------------------------------------------------------------------
// Tamper matrix through the sharded path
// ---------------------------------------------------------------------------

class ShardedTamperTest : public ::testing::TestWithParam<MethodKind> {};

TEST_P(ShardedTamperTest, WireAndAdsTampersRejectThroughEveryShard) {
  const auto& ctx = CoreTestContext::Get();
  auto sharded = MakeSharded(GetParam(), 3, /*cache=*/true);
  Client client(ctx.keys.public_key());
  size_t drop_attacks = 0;
  for (const Query& q : ctx.queries) {
    const size_t shard_idx = sharded->RouteOf(q);
    const MethodEngine& shard = sharded->shard(shard_idx);
    auto honest = sharded->Answer(q);
    ASSERT_TRUE(honest.ok());
    const ProofBundle& bundle = *honest.value();
    const size_t cert_size = shard.certificate().SerializedSize();

    // Flipped digest: a certificate whose network root is off by one bit
    // no longer matches its signature.
    Certificate flipped = shard.certificate();
    flipped.network_root.mutable_data()[0] ^= 0x01;
    ProofBundle bad_root = SpliceCertificate(flipped, bundle, cert_size);
    VerifyOutcome root_outcome = shard.Verify(q, bad_root);
    EXPECT_FALSE(root_outcome.accepted);
    EXPECT_EQ(root_outcome.failure, VerifyFailure::kBadCertificate);
    EXPECT_FALSE(client.Verify(q, bad_root.bytes).outcome.accepted);

    // Wrong certificate version: the version is signed; presenting the
    // same roots under version+1 with the old signature must fail.
    Certificate stale = shard.certificate();
    stale.params.version += 1;
    ProofBundle wrong_version = SpliceCertificate(stale, bundle, cert_size);
    VerifyOutcome version_outcome = shard.Verify(q, wrong_version);
    EXPECT_FALSE(version_outcome.accepted);
    EXPECT_EQ(version_outcome.failure, VerifyFailure::kBadCertificate);
    EXPECT_FALSE(client.Verify(q, wrong_version.bytes).outcome.accepted);

    // Truncated bundle: every strict prefix must reject as malformed.
    ProofBundle truncated = bundle;
    truncated.bytes.resize(truncated.bytes.size() - 5);
    VerifyOutcome trunc_outcome = shard.Verify(q, truncated);
    EXPECT_FALSE(trunc_outcome.accepted);
    EXPECT_EQ(trunc_outcome.failure, VerifyFailure::kMalformedProof);
    EXPECT_FALSE(client.Verify(q, truncated.bytes).outcome.accepted);

    // Dropped tuple: the shard engine's own malicious-provider role.
    auto dropped = TamperedAnswer(shard, q, TamperKind::kDropTuple);
    if (dropped.ok()) {
      ++drop_attacks;
      EXPECT_FALSE(shard.Verify(q, dropped.value()).accepted);
      EXPECT_FALSE(client.Verify(q, dropped.value().bytes).outcome.accepted);
    }

    // The tamper traffic must not have poisoned the shard's cache.
    auto after = sharded->Answer(q);
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(after.value().get(), honest.value().get());
    EXPECT_TRUE(shard.Verify(q, *after.value()).accepted);
  }
  EXPECT_GT(drop_attacks, 0u);
}

// ---------------------------------------------------------------------------
// Batch verification across the fleet
// ---------------------------------------------------------------------------

TEST_P(ShardedEngineMethodTest, ShardedBatchMatchesSerialVerify) {
  const auto& ctx = CoreTestContext::Get();
  // {fleet size, batch threads}: the batch fans out over messages, so a
  // 1-shard fleet still verifies on every worker.
  for (const auto& [num_shards, num_threads] :
       {std::pair<size_t, size_t>{3, 2}, std::pair<size_t, size_t>{1, 4}}) {
    auto sharded = MakeSharded(GetParam(), num_shards);
    ASSERT_TRUE(sharded->EnableForestCertificates(ctx.keys).ok());
    const auto fleet = sharded->forest();
    ASSERT_NE(fleet, nullptr);
    std::vector<std::shared_ptr<const ProofBundle>> bundles;
    std::vector<VerifyRequest> requests;
    for (size_t i = 0; i < ctx.queries.size(); ++i) {
      const Query& q = ctx.queries[i];
      auto answer = sharded->Answer(q);
      ASSERT_TRUE(answer.ok());
      bundles.push_back(std::move(answer).value());
      const size_t shard = sharded->RouteOf(q);
      requests.push_back({q, bundles.back()->bytes, shard});
      // Forest and signature requests alternate across the fleet.
      if (i % 2 == 0) {
        requests.back().forest_path = fleet->encoded_paths[shard];
      }
    }
    const size_t honest = requests.size();
    const Query q = ctx.queries[0];
    const size_t shard = sharded->RouteOf(q);
    // A missing bundle arrives as an empty wire: a per-message rejection,
    // not a crash or a batch abort.
    requests.push_back({q, {}, shard});
    // An out-of-range shard would skip the watermark, so a signature
    // request from it rejects as malformed; its forest path cannot match.
    requests.push_back({q, bundles[0]->bytes, num_shards});
    requests.push_back(
        {q, bundles[0]->bytes, num_shards, fleet->encoded_paths[shard]});

    const auto make_client = [&] {
      Client client(ctx.keys.public_key());
      client.TrackShardVersions(num_shards);
      EXPECT_TRUE(client.AcceptForestCertificate(fleet->certificate).ok());
      return client;
    };
    const Client batch = make_client();
    Client serial = make_client();
    const auto results =
        ExpectBatchMatchesSerial(batch, serial, requests, num_threads);
    ASSERT_EQ(results.size(), honest + 3);
    for (size_t i = 0; i < honest; ++i) {
      EXPECT_TRUE(results[i].outcome.accepted)
          << i << ": " << results[i].outcome.ToString();
    }
    EXPECT_EQ(results[honest].outcome.failure,
              VerifyFailure::kMalformedProof);
    EXPECT_EQ(results[honest + 1].outcome.failure,
              VerifyFailure::kMalformedProof);
    EXPECT_EQ(results[honest + 2].outcome.failure,
              VerifyFailure::kBadCertificate);
  }
}

// ---------------------------------------------------------------------------
// Live updates across the sharded engine
// ---------------------------------------------------------------------------

TEST(ShardedEngineUpdateTest, UpdateStreamRoutesLikeQueries) {
  auto sharded = MakeSharded(MethodKind::kDij, 4);
  const auto& ctx = CoreTestContext::Get();
  std::vector<EdgeWeightUpdate> updates;
  for (NodeId u = 0; updates.size() < 8 && u < ctx.graph.num_nodes(); ++u) {
    auto neighbors = ctx.graph.Neighbors(u);
    if (neighbors.empty()) {
      continue;
    }
    updates.push_back({u, neighbors[0].to, neighbors[0].weight * 1.5});
  }
  ASSERT_EQ(updates.size(), 8u);

  // The routed stream touches exactly the shards the query router names.
  std::vector<uint64_t> expected_updates(sharded->num_shards(), 0);
  for (const EdgeWeightUpdate& up : updates) {
    EXPECT_EQ(sharded->RouteOfUpdate(up),
              sharded->RouteOf(Query{up.u, up.v}));
    ++expected_updates[sharded->RouteOfUpdate(up)];
  }
  // One rotation per update on the owning group.
  for (const EdgeWeightUpdate& up : updates) {
    const StructuralUpdate op = up;
    auto r = sharded->ApplyUpdates(sharded->RouteOfUpdate(up), ctx.keys,
                                   {&op, 1});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  const ShardedStats stats = sharded->GetStats();
  for (size_t s = 0; s < sharded->num_shards(); ++s) {
    EXPECT_EQ(stats.shards[s].updates, expected_updates[s]) << s;
    // Each shard's version advanced once per update it absorbed.
    EXPECT_EQ(stats.shards[s].certificate_version, expected_updates[s]) << s;
    EXPECT_EQ(stats.shards[s].update_failures, 0u) << s;
  }
  EXPECT_EQ(stats.totals.updates, updates.size());
}

TEST(ShardedEngineUpdateTest, SingleShardUpdateLeavesSiblingsUntouched) {
  auto sharded = MakeSharded(MethodKind::kDij, 3, /*cache=*/true);
  const auto& ctx = CoreTestContext::Get();
  // Warm every shard's cache with a query it owns.
  std::vector<Query> per_shard(sharded->num_shards(), Query{0, 0});
  std::vector<bool> found(sharded->num_shards(), false);
  for (const Query& q : ctx.queries) {
    const size_t s = sharded->RouteOf(q);
    if (!found[s]) {
      per_shard[s] = q;
      found[s] = true;
      ASSERT_TRUE(sharded->Answer(q).ok());
    }
  }
  const NodeId u = 0;
  const NodeId v = ctx.graph.Neighbors(0)[0].to;
  const double w = ctx.graph.EdgeWeight(u, v).value();
  auto version = sharded->ApplyUpdates(1, ctx.keys, OneSetWeight(u, v, w * 2));
  ASSERT_TRUE(version.ok());
  EXPECT_EQ(version.value(), 1u);

  const ShardedStats stats = sharded->GetStats();
  EXPECT_EQ(stats.shards[1].certificate_version, 1u);
  EXPECT_EQ(stats.shards[0].certificate_version, 0u);
  EXPECT_EQ(stats.shards[2].certificate_version, 0u);
  // Only shard 1's snapshot rotated; its cache was retired wholesale
  // (entries -> cleared) while the siblings kept their residents.
  EXPECT_EQ(stats.shards[1].cache.entries, 0u);
  if (found[0]) {
    EXPECT_GT(stats.shards[0].cache.entries, 0u);
  }
  if (found[2]) {
    EXPECT_GT(stats.shards[2].cache.entries, 0u);
  }
  // Out-of-range shard: a clean error, no crash.
  EXPECT_FALSE(sharded->ApplyUpdates(99, ctx.keys, OneSetWeight(u, v, w)).ok());
}

TEST(ShardedEngineUpdateTest, AllShardsUpdateKeepsReplicasByteTransparent) {
  auto sharded = MakeSharded(MethodKind::kDij, 3, /*cache=*/true);
  const auto& ctx = CoreTestContext::Get();
  const NodeId u = ctx.queries[0].source;
  auto neighbors = ctx.graph.Neighbors(u);
  ASSERT_FALSE(neighbors.empty());
  const NodeId v = neighbors[0].to;
  auto version = sharded->ApplyUpdatesAllShards(
      ctx.keys, OneSetWeight(u, v, neighbors[0].weight * 3));
  ASSERT_TRUE(version.ok());
  EXPECT_EQ(version.value(), 1u);

  // A standalone engine given the same update serves the same bytes as
  // every replica shard: live updates preserve shard transparency.
  EngineOptions options = CoreTestContext::DefaultOptions(MethodKind::kDij);
  auto direct = MakeEngine(ctx.graph, options, ctx.keys);
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(direct.value()
                  ->ApplyUpdates(&ctx.keys,
                                 OneSetWeight(u, v, neighbors[0].weight * 3))
                  .ok());
  Client client(ctx.keys.public_key());
  client.TrackShardVersions(sharded->num_shards());
  for (const Query& q : ctx.queries) {
    auto via_shard = sharded->Answer(q);
    auto via_direct = direct.value()->Answer(q);
    ASSERT_TRUE(via_shard.ok());
    ASSERT_TRUE(via_direct.ok());
    EXPECT_EQ(via_shard.value()->bytes, via_direct.value().bytes);
    const WireVerification result =
        client.Verify(q, via_shard.value()->bytes, sharded->RouteOf(q));
    EXPECT_TRUE(result.outcome.accepted) << result.outcome.ToString();
    EXPECT_EQ(result.version, 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllMethods, ShardedEngineMethodTest,
                         ::testing::ValuesIn(kAllMethods),
                         [](const auto& info) {
                           return std::string(ToString(info.param));
                         });
INSTANTIATE_TEST_SUITE_P(AllMethods, ShardedTamperTest,
                         ::testing::ValuesIn(kAllMethods),
                         [](const auto& info) {
                           return std::string(ToString(info.param));
                         });

}  // namespace
}  // namespace spauth
