// Seeded chaos campaign over the fault-tolerant serving plane: armed fail
// points (dead replicas, signing faults, Merkle-update faults, dropped
// cache inserts) × concurrent writers rotating snapshots × readers serving
// AnswerBatch and verifying through bounded-staleness clients.
//
// What must hold under injected chaos:
//   - zero false-accepts: every accepted answer is authentic AND carries a
//     certificate version some replica actually published;
//   - every query terminates as verified-ok, explicit retryable error, or
//     explicit degraded accept — never a silent wrong answer, never a
//     forged/malformed rejection of honest serving;
//   - failover masks single-replica faults byte-transparently;
//   - a mid-rotation fault (signing or ADS update) leaves the previous
//     snapshot published and serving byte-identical answers;
//   - the stats books conserve: totals == per-shard sums == what the test
//     itself counted.
//
// Every campaign is replayable: all fault schedules, backoff jitter and
// workloads derive from the seed in the SCOPED_TRACE of each failure.
// Runs under the concurrency-tagged ctest entry (TSan CI job).
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/client.h"
#include "core/core_test_context.h"
#include "core/engine.h"
#include "core/sharded_engine.h"
#include "graph/generator.h"
#include "graph/workload.h"
#include "util/failpoint.h"
#include "util/rng.h"

namespace spauth {
namespace {

using testing::CoreTestContext;
using testing::OneSetWeight;

std::unique_ptr<ShardedEngine> MakeFleet(size_t num_groups,
                                         const FailoverOptions& failover,
                                         bool cache = true) {
  const auto& ctx = CoreTestContext::Get();
  EngineOptions options = CoreTestContext::DefaultOptions(MethodKind::kDij);
  options.enable_proof_cache = cache;
  auto fleet = ShardedEngine::BuildReplicated(ctx.graph, options, num_groups,
                                              ctx.keys, failover);
  EXPECT_TRUE(fleet.ok()) << fleet.status().ToString();
  return std::move(fleet).value();
}

std::vector<Query> MakeWorkload(size_t count, uint64_t seed) {
  const auto& ctx = CoreTestContext::Get();
  WorkloadOptions wopts;
  wopts.count = count;
  wopts.query_range = 2000;
  wopts.seed = seed;
  auto workload = GenerateWorkload(ctx.graph, wopts);
  EXPECT_TRUE(workload.ok());
  return std::move(workload).value();
}

struct UndirectedEdge {
  NodeId u, v;
  double weight;
};

std::vector<UndirectedEdge> CollectEdges(const Graph& g) {
  std::vector<UndirectedEdge> edges;
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    for (const Edge& e : g.Neighbors(n)) {
      if (n < e.to) {
        edges.push_back({n, e.to, e.weight});
      }
    }
  }
  return edges;
}

// ---------------------------------------------------------------------------
// Failover: retries across replicas mask faults byte-transparently
// ---------------------------------------------------------------------------

TEST(FailoverTest, MasksASingleDeadReplicaByteTransparently) {
  if (!FailPointsCompiledIn()) {
    GTEST_SKIP() << "built with -DSPAUTH_FAILPOINTS=OFF";
  }
  const auto& ctx = CoreTestContext::Get();
  FailoverOptions failover;
  failover.replicas_per_group = 2;
  failover.max_attempts = 3;
  auto fleet = MakeFleet(/*num_groups=*/2, failover);
  ASSERT_NE(fleet, nullptr);
  ASSERT_EQ(fleet->num_shards(), 4u);
  ASSERT_EQ(fleet->num_groups(), 2u);

  // Reference world: a standalone engine with the same recipe answers
  // byte-identically to any healthy replica.
  EngineOptions options = CoreTestContext::DefaultOptions(MethodKind::kDij);
  options.enable_proof_cache = true;
  auto reference = MakeEngine(ctx.graph, options, ctx.keys);
  ASSERT_TRUE(reference.ok());

  // Kill group 0's replica 1 (engine index 1) outright.
  FailPointSpec spec;
  spec.mode = FailPointMode::kProbability;
  spec.probability = 1.0;
  spec.has_match_arg = true;
  spec.match_arg = 1;
  ScopedFailPoint dead_replica("shard/answer", spec);

  const std::vector<Query> queries = MakeWorkload(32, 0xc4a05001);
  const auto results = fleet->AnswerBatch(queries, 4);
  ASSERT_EQ(results.size(), queries.size());
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok())
        << "query " << i << ": " << results[i].status().ToString();
    auto expect = reference.value()->Answer(queries[i]);
    ASSERT_TRUE(expect.ok());
    EXPECT_EQ(results[i].value()->bytes, expect.value().bytes)
        << "failover changed the wire bytes for query " << i;
  }

  const ShardedStats stats = fleet->GetStats();
  EXPECT_EQ(stats.totals.failures, 0u) << "the dead replica must be masked";
  EXPECT_EQ(stats.totals.queries, queries.size());
  EXPECT_GT(stats.totals.retries, 0u)
      << "some query must have preferred the dead replica first";
  EXPECT_EQ(stats.totals.retries, stats.totals.failovers)
      << "every retry here recovers on the healthy sibling";
}

TEST(FailoverTest, BreakerOpensOnDeadReplicaAndServingContinues) {
  if (!FailPointsCompiledIn()) {
    GTEST_SKIP() << "built with -DSPAUTH_FAILPOINTS=OFF";
  }
  FailoverOptions failover;
  failover.replicas_per_group = 2;
  failover.max_attempts = 3;
  failover.enable_breakers = true;
  failover.breaker.window = 8;
  failover.breaker.min_samples = 4;
  failover.breaker.failure_threshold = 0.5;
  failover.breaker.open_cooldown = 1000000;  // stay open for this test
  auto fleet = MakeFleet(/*num_groups=*/1, failover);
  ASSERT_NE(fleet, nullptr);

  FailPointSpec spec;
  spec.mode = FailPointMode::kProbability;
  spec.probability = 1.0;
  spec.has_match_arg = true;
  spec.match_arg = 1;
  ScopedFailPoint dead_replica("shard/answer", spec);

  const std::vector<Query> queries = MakeWorkload(64, 0xc4a05002);
  const auto results = fleet->AnswerBatch(queries, 4);
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].ok())
        << "query " << i << ": " << results[i].status().ToString();
  }

  const ShardedStats stats = fleet->GetStats();
  EXPECT_EQ(stats.totals.failures, 0u);
  EXPECT_GE(stats.shards[1].breaker_opens, 1u)
      << "enough consecutive faults must trip replica 1's breaker";
  EXPECT_EQ(stats.shards[1].breaker_state, BreakerState::kOpen);
  EXPECT_GT(stats.shards[1].breaker_skips, 0u)
      << "once open, the router must skip the replica without attempting it";
  EXPECT_EQ(stats.shards[0].breaker_state, BreakerState::kClosed);
  EXPECT_EQ(stats.shards[0].breaker_opens, 0u);
}

TEST(FailoverTest, CrossGroupSpilloverServesAFullyOpenGroupByteIdentically) {
  if (!FailPointsCompiledIn()) {
    GTEST_SKIP() << "built with -DSPAUTH_FAILPOINTS=OFF";
  }
  const auto& ctx = CoreTestContext::Get();
  // Two single-replica groups of the same network with breaker-aware
  // cross-group routing: once group 0's breaker opens, its traffic must
  // spill to group 1 instead of failing — and stay byte-identical, since
  // replicated groups all serve the same world.
  FailoverOptions failover;
  failover.replicas_per_group = 1;
  failover.max_attempts = 4;
  failover.enable_breakers = true;
  failover.breaker.window = 8;
  failover.breaker.min_samples = 4;
  failover.breaker.failure_threshold = 0.5;
  failover.breaker.open_cooldown = 1000000;  // stay open for this test
  failover.cross_group_failover = true;
  auto fleet = MakeFleet(/*num_groups=*/2, failover);
  ASSERT_NE(fleet, nullptr);

  EngineOptions options = CoreTestContext::DefaultOptions(MethodKind::kDij);
  options.enable_proof_cache = true;
  auto reference = MakeEngine(ctx.graph, options, ctx.keys);
  ASSERT_TRUE(reference.ok());

  // Kill group 0's only engine outright.
  FailPointSpec spec;
  spec.mode = FailPointMode::kProbability;
  spec.probability = 1.0;
  spec.has_match_arg = true;
  spec.match_arg = 0;
  ScopedFailPoint dead_group("shard/answer", spec);

  const std::vector<Query> queries = MakeWorkload(64, 0xc4a05004);
  size_t routed_to_dead = 0;
  for (const Query& q : queries) {
    routed_to_dead += fleet->RouteOf(q) == 0;
  }
  ASSERT_GT(routed_to_dead, 0u);

  // Serial batch: the first query routed to group 0 burns its attempt
  // budget tripping the breaker; everything after is served by group 1.
  const auto results = fleet->AnswerBatch(queries, 1);
  size_t failures = 0;
  for (size_t i = 0; i < results.size(); ++i) {
    if (!results[i].ok()) {
      ++failures;
      continue;
    }
    auto expect = reference.value()->Answer(queries[i]);
    ASSERT_TRUE(expect.ok());
    EXPECT_EQ(results[i].value()->bytes, expect.value().bytes)
        << "cross-group spillover changed the wire bytes for query " << i;
  }
  EXPECT_LE(failures, 1u)
      << "only the breaker-tripping query may fail; spillover masks the rest";

  const ShardedStats stats = fleet->GetStats();
  EXPECT_GE(stats.shards[0].breaker_opens, 1u);
  EXPECT_EQ(stats.shards[0].breaker_state, BreakerState::kOpen);
  EXPECT_GT(stats.shards[0].breaker_skips, 0u);
  EXPECT_GE(stats.shards[1].cross_group_serves, routed_to_dead - 1)
      << "group 1 must have absorbed group 0's traffic";
  EXPECT_EQ(stats.shards[0].cross_group_serves, 0u);
  const ShardStats sums = testing::ExpectShardStatsConserve(stats);
  EXPECT_EQ(sums.queries, queries.size());
}

TEST(FailoverTest, AllReplicasDownIsAnExplicitUnavailable) {
  if (!FailPointsCompiledIn()) {
    GTEST_SKIP() << "built with -DSPAUTH_FAILPOINTS=OFF";
  }
  FailoverOptions failover;
  failover.replicas_per_group = 2;
  failover.max_attempts = 3;
  auto fleet = MakeFleet(/*num_groups=*/1, failover);
  ASSERT_NE(fleet, nullptr);

  ScopedFailPoint everything_down("shard/answer", FailPointSpec{});

  const auto& ctx = CoreTestContext::Get();
  auto result = fleet->Answer(ctx.queries[0]);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);

  const ShardedStats stats = fleet->GetStats();
  EXPECT_EQ(stats.totals.queries, 1u);
  EXPECT_EQ(stats.totals.failures, 1u) << "one query, one booked failure";
  EXPECT_EQ(stats.totals.retries, failover.max_attempts - 1);
}

TEST(FailoverTest, DeadlineBudgetSurfacesAsDeadlineExceeded) {
  if (!FailPointsCompiledIn()) {
    GTEST_SKIP() << "built with -DSPAUTH_FAILPOINTS=OFF";
  }
  FailoverOptions failover;
  failover.max_attempts = 8;
  failover.backoff_base_us = 2000;
  failover.deadline_us = 3000;
  auto fleet = MakeFleet(/*num_groups=*/1, failover);
  ASSERT_NE(fleet, nullptr);

  ScopedFailPoint always_down("shard/answer", FailPointSpec{});

  const auto& ctx = CoreTestContext::Get();
  auto result = fleet->Answer(ctx.queries[0]);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
      << result.status().ToString();
  EXPECT_TRUE(IsRetryable(result.status().code()));

  const ShardedStats stats = fleet->GetStats();
  EXPECT_EQ(stats.totals.deadline_exceeded, 1u);
  EXPECT_EQ(stats.totals.failures, 1u);
  EXPECT_LT(stats.totals.retries, failover.max_attempts - 1)
      << "the deadline must cut the retry loop short of max_attempts";
}

// Regression: a deadline that expires after a cross-group spill attempt
// used to be booked on the spill-target engine (last_engine), charging a
// foreign group for the routed group's budget miss. It must land on the
// routed group's preferred replica, always.
TEST(FailoverTest, DeadlineHitBooksOnTheRoutedHomeGroup) {
  if (!FailPointsCompiledIn()) {
    GTEST_SKIP() << "built with -DSPAUTH_FAILPOINTS=OFF";
  }
  FailoverOptions failover;
  failover.max_attempts = 4;
  // Timing: attempt 0 fails on engine 0 and sleeps 15-22.5ms (jitter
  // adds at most +50%), safely inside the 30ms budget; attempt 1 then
  // spills to group 1 (engine 0's breaker tripped on the first failure),
  // fails there, and its backoff sleep is clamped to exactly the remaining
  // budget — so attempt 2's loop-top deadline check fires with the spill
  // target as the last attempted engine. That is the booking-skew window.
  // The budget leaves >= 7.5ms for attempt 0 and the sleep's overshoot: a
  // loaded host misses a sub-millisecond margin.
  failover.backoff_base_us = 15000;
  failover.deadline_us = 30000;
  failover.enable_breakers = true;
  failover.breaker.window = 4;
  failover.breaker.min_samples = 1;  // one failure trips a breaker
  failover.breaker.failure_threshold = 0.5;
  failover.breaker.open_cooldown = 1000000;  // stays open for the test
  failover.cross_group_failover = true;
  auto fleet = MakeFleet(/*num_groups=*/2, failover);
  ASSERT_NE(fleet, nullptr);

  // Both engines fail every attempt: retryable errors keep the retry loop
  // alive until the deadline cuts it.
  ScopedFailPoint everything_down("shard/answer", FailPointSpec{});

  // A query that routes to group 0.
  const std::vector<Query> workload = MakeWorkload(64, 0xc4a05008);
  const Query* home = nullptr;
  for (const Query& q : workload) {
    if (fleet->RouteOf(q) == 0) {
      home = &q;
      break;
    }
  }
  ASSERT_NE(home, nullptr);

  auto result = fleet->Answer(*home);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
      << result.status().ToString();

  const ShardedStats stats = fleet->GetStats();
  EXPECT_GE(stats.shards[0].breaker_opens, 1u);
  EXPECT_GT(stats.shards[1].retries, 0u)
      << "the spill attempt on group 1 must actually have run";
  EXPECT_EQ(stats.shards[0].deadline_exceeded, 1u)
      << "the routed group must be charged for its own budget miss";
  EXPECT_EQ(stats.shards[1].deadline_exceeded, 0u)
      << "a spill-target engine in another group must never be charged";
  const ShardStats sums = testing::ExpectShardStatsConserve(stats);
  EXPECT_EQ(sums.queries, 1u);
}

// Regression: with deadline_us == 0 nothing bounded backoff_us, so a large
// multiplier grew it past uint64_t range and the cast in the sleep was UB
// (in practice: a years-long sleep or a UBSan abort). max_backoff_us must
// cap every sleep so the retry loop completes promptly.
TEST(FailoverTest, HugeBackoffMultiplierIsClampedByMaxBackoff) {
  if (!FailPointsCompiledIn()) {
    GTEST_SKIP() << "built with -DSPAUTH_FAILPOINTS=OFF";
  }
  FailoverOptions failover;
  failover.max_attempts = 4;
  failover.backoff_base_us = 1;
  failover.backoff_multiplier = 1e18;  // unclamped: attempt 2 sleeps ~47 years
  failover.deadline_us = 0;            // no deadline to rescue the sleep
  failover.max_backoff_us = 50;
  auto fleet = MakeFleet(/*num_groups=*/1, failover);
  ASSERT_NE(fleet, nullptr);

  ScopedFailPoint always_down("shard/answer", FailPointSpec{});

  const auto& ctx = CoreTestContext::Get();
  auto result = fleet->Answer(ctx.queries[0]);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);

  const ShardedStats stats = fleet->GetStats();
  EXPECT_EQ(stats.totals.retries, failover.max_attempts - 1)
      << "all retries must run: clamped sleeps, not an aborted loop";
  EXPECT_EQ(stats.totals.deadline_exceeded, 0u);
  const ShardStats sums = testing::ExpectShardStatsConserve(stats);
  EXPECT_EQ(sums.queries, 1u);
  EXPECT_EQ(sums.failures, 1u);
}

// ---------------------------------------------------------------------------
// Graceful degradation: mid-rotation faults freeze the old snapshot
// ---------------------------------------------------------------------------

class RotationFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!FailPointsCompiledIn()) {
      GTEST_SKIP() << "built with -DSPAUTH_FAILPOINTS=OFF";
    }
    const auto& ctx = CoreTestContext::Get();
    engine_ = ctx.MakeMethodEngine(MethodKind::kDij);
    ASSERT_NE(engine_, nullptr);
    query_ = ctx.queries[0];
    auto ref = engine_->Answer(query_);
    ASSERT_TRUE(ref.ok());
    ref_bytes_ = ref.value().bytes;
    u_ = ref.value().path.nodes[0];
    v_ = ref.value().path.nodes[1];
    weight_ = ctx.graph.EdgeWeight(u_, v_).value();
    version_before_ = engine_->certificate().params.version;
    epoch_before_ = engine_->CurrentState()->epoch;
  }

  /// Arms `point` one-shot, expects the update to fail with zero torn
  /// state, then proves the engine still rotates once the fault clears.
  void ExpectFrozenThenRecovered(const char* point) {
    const auto& ctx = CoreTestContext::Get();
    FailPointRegistry::Global().ArmOneShot(point);
    auto failed =
        engine_->ApplyUpdates(&ctx.keys, OneSetWeight(u_, v_, weight_ * 2));
    ASSERT_FALSE(failed.ok()) << point << " did not fire";
    EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
    EXPECT_EQ(FailPointRegistry::Global().GetStats(point).fires, 1u);

    // The failed rotation published nothing: same version, same epoch,
    // one live snapshot, and byte-identical serving.
    EXPECT_EQ(engine_->certificate().params.version, version_before_);
    EXPECT_EQ(engine_->CurrentState()->epoch, epoch_before_);
    EXPECT_EQ(engine_->live_snapshots(), 1u);
    auto still = engine_->Answer(query_);
    ASSERT_TRUE(still.ok());
    EXPECT_EQ(still.value().bytes, ref_bytes_)
        << "a failed rotation must leave the old snapshot serving "
           "byte-identical answers";

    // One-shot points fire once: the retry goes through and rotates.
    FailPointRegistry::Global().Disarm(point);
    auto retried =
        engine_->ApplyUpdates(&ctx.keys, OneSetWeight(u_, v_, weight_ * 2));
    ASSERT_TRUE(retried.ok()) << retried.status().ToString();
    EXPECT_EQ(retried.value(), version_before_ + 1);
    auto fresh = engine_->Answer(query_);
    ASSERT_TRUE(fresh.ok());
    EXPECT_NE(fresh.value().bytes, ref_bytes_)
        << "the recovered rotation signs a new world";
  }

  std::unique_ptr<MethodEngine> engine_;
  Query query_;
  std::vector<uint8_t> ref_bytes_;
  NodeId u_ = 0, v_ = 0;
  double weight_ = 0;
  uint32_t version_before_ = 0;
  uint64_t epoch_before_ = 0;
};

TEST_F(RotationFaultTest, SigningFaultLeavesSnapshotServing) {
  ExpectFrozenThenRecovered("certificate/sign");
}

TEST_F(RotationFaultTest, MerkleUpdateFaultLeavesSnapshotServing) {
  ExpectFrozenThenRecovered("ads/update_tuple");
}

TEST_F(RotationFaultTest, PublishFaultLeavesSnapshotServing) {
  ExpectFrozenThenRecovered("engine/publish");
}

TEST_F(RotationFaultTest, DroppedCacheInsertStillServesTheAnswer) {
  FailPointRegistry::Global().ArmEveryNth("engine/cache_insert", 1);
  auto served = engine_->Answer(CoreTestContext::Get().queries[1]);
  FailPointRegistry::Global().Disarm("engine/cache_insert");
  ASSERT_TRUE(served.ok())
      << "a dropped memoization must not fail the answer";
}

// ---------------------------------------------------------------------------
// Stats conservation under injected per-shard failures (no failover)
// ---------------------------------------------------------------------------

TEST(FailoverTest, ShardStatsConserveUnderConcurrentInjectedFailures) {
  if (!FailPointsCompiledIn()) {
    GTEST_SKIP() << "built with -DSPAUTH_FAILPOINTS=OFF";
  }
  // 4 single-replica groups, no retries: every injected fault surfaces.
  auto fleet = MakeFleet(/*num_groups=*/4, FailoverOptions{});
  ASSERT_NE(fleet, nullptr);

  FailPointSpec spec;
  spec.mode = FailPointMode::kProbability;
  spec.probability = 1.0;
  spec.has_match_arg = true;
  spec.match_arg = 2;
  ScopedFailPoint dead_shard("shard/answer", spec);

  const std::vector<Query> queries = MakeWorkload(200, 0xc4a05003);
  size_t expected_failures = 0;
  for (const Query& q : queries) {
    if (fleet->RouteOf(q) == 2) {
      ++expected_failures;
    }
  }
  ASSERT_GT(expected_failures, 0u);
  ASSERT_LT(expected_failures, queries.size());

  const auto results = fleet->AnswerBatch(queries, 8);
  size_t observed_failures = 0;
  for (const auto& r : results) {
    if (!r.ok()) {
      ++observed_failures;
      EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
    }
  }
  EXPECT_EQ(observed_failures, expected_failures);

  const ShardedStats stats = fleet->GetStats();
  for (size_t i = 0; i < stats.shards.size(); ++i) {
    if (i != 2) {
      EXPECT_EQ(stats.shards[i].failures, 0u) << "shard " << i;
    }
  }
  // Totals == per-shard sums == what the batch actually returned; every
  // failed query is counted exactly once, on the shard that failed it.
  testing::ExpectShardStatsConserve(stats);
  EXPECT_EQ(stats.totals.queries, queries.size());
  EXPECT_EQ(stats.totals.failures, observed_failures);
  EXPECT_EQ(stats.shards[2].failures, observed_failures);
}

// ---------------------------------------------------------------------------
// The full seeded chaos campaign
// ---------------------------------------------------------------------------

constexpr size_t kChaosGroups = 2;
constexpr size_t kChaosReplicas = 2;
constexpr size_t kChaosWriterRotations = 12;
constexpr size_t kChaosReaders = 2;
constexpr uint32_t kStalenessBound = 8;

void RunChaosCampaign(uint64_t seed) {
  SCOPED_TRACE("chaos seed " + std::to_string(seed));
  const auto& ctx = CoreTestContext::Get();

  FailoverOptions failover;
  failover.replicas_per_group = kChaosReplicas;
  failover.max_attempts = 4;
  failover.jitter_seed = seed;
  failover.enable_breakers = true;
  failover.breaker.window = 16;
  failover.breaker.min_samples = 4;
  failover.breaker.failure_threshold = 0.5;
  failover.breaker.open_cooldown = 8;
  failover.breaker.half_open_probes = 2;
  auto fleet = MakeFleet(kChaosGroups, failover);
  ASSERT_NE(fleet, nullptr);
  const size_t num_engines = fleet->num_shards();

  const std::vector<UndirectedEdge> edges = CollectEdges(ctx.graph);
  ASSERT_FALSE(edges.empty());
  const std::vector<Query> queries = MakeWorkload(8, seed * 977 + 5);

  // Engines are built; now inject chaos into serving AND rotation seams.
  FailPointRegistry::Global().ArmProbability("shard/answer", 0.10, seed);
  FailPointRegistry::Global().ArmProbability("engine/cache_insert", 0.05,
                                             seed + 1);
  FailPointRegistry::Global().ArmProbability("certificate/sign", 0.10,
                                             seed + 2);
  FailPointRegistry::Global().ArmProbability("ads/update_tuple", 0.05,
                                             seed + 3);

  // Published-versions book: every (engine, version) a rotation actually
  // signed, starting with the build version. The single writer keeps it
  // exact — a partially-failed group rotation advances only the replicas
  // that rotated before the fault.
  std::vector<std::set<uint32_t>> published(num_engines);
  auto engine_version = [&](size_t e) {
    return fleet->shard(e).CurrentState()->certificate.params.version;
  };
  for (size_t e = 0; e < num_engines; ++e) {
    published[e].insert(engine_version(e));
  }

  std::atomic<bool> writer_done{false};
  std::atomic<size_t> update_faults{0};
  std::atomic<size_t> non_retryable_update_faults{0};
  std::thread writer([&] {
    Rng rng(seed + 100);
    for (size_t i = 0; i < kChaosWriterRotations; ++i) {
      const size_t group = i % kChaosGroups;
      const size_t batch_edges = 1 + rng.NextBounded(2);
      std::vector<StructuralUpdate> batch;
      for (size_t j = 0; j < batch_edges; ++j) {
        const UndirectedEdge& e = edges[rng.NextBounded(edges.size())];
        batch.push_back(StructuralUpdate::SetWeight(
            e.u, e.v, e.weight * rng.NextDoubleIn(0.5, 2.0)));
      }
      auto applied = fleet->ApplyUpdates(group, ctx.keys, batch);
      if (!applied.ok()) {
        // Explicit failure with zero torn state per engine; the book
        // below still records any replica that rotated before the fault.
        update_faults.fetch_add(1);
        if (!IsRetryable(applied.status().code())) {
          non_retryable_update_faults.fetch_add(1);
        }
      }
      for (size_t r = 0; r < kChaosReplicas; ++r) {
        const size_t e = group * kChaosReplicas + r;
        published[e].insert(engine_version(e));
      }
      std::this_thread::yield();
    }
  });

  struct ReaderTally {
    size_t answers = 0;
    size_t ok = 0;
    size_t explicit_errors = 0;
    size_t accepted_fresh = 0;
    size_t accepted_degraded = 0;
    size_t stale_rejects = 0;
    size_t false_rejects = 0;
    size_t non_retryable_errors = 0;
    size_t staleness_over_bound = 0;
  };
  std::vector<ReaderTally> tallies(kChaosReaders);
  std::vector<std::thread> readers;
  for (size_t r = 0; r < kChaosReaders; ++r) {
    readers.emplace_back([&, r] {
      ReaderTally& tally = tallies[r];
      Client client(ctx.keys.public_key());
      client.TrackShardVersions(kChaosGroups);
      client.SetStalenessBound(kStalenessBound);
      for (int extra = 0; extra < 2;) {
        if (writer_done.load(std::memory_order_acquire)) {
          ++extra;
        }
        const auto bundles = fleet->AnswerBatch(queries, 2);
        for (size_t i = 0; i < bundles.size(); ++i) {
          ++tally.answers;
          if (!bundles[i].ok()) {
            // Injected faults may exhaust all 4 attempts or find every
            // breaker open; both must surface as explicit retryable
            // errors, never as a wrong answer.
            if (!IsRetryable(bundles[i].status().code())) {
              ++tally.non_retryable_errors;
            }
            ++tally.explicit_errors;
            continue;
          }
          ++tally.ok;
          const size_t group = fleet->RouteOf(queries[i]);
          const WireVerification v = client.Verify(
              queries[i], bundles[i].value()->bytes, group);
          if (v.outcome.accepted) {
            if (v.degraded) {
              ++tally.accepted_degraded;
              if (v.staleness > kStalenessBound) {
                ++tally.staleness_over_bound;
              }
            } else {
              ++tally.accepted_fresh;
            }
          } else if (v.outcome.failure == VerifyFailure::kStaleCertificate) {
            ++tally.stale_rejects;
          } else {
            // Honest serving must never look forged or malformed.
            ++tally.false_rejects;
          }
        }
      }
    });
  }

  writer.join();
  writer_done.store(true, std::memory_order_release);
  for (std::thread& t : readers) {
    t.join();
  }
  FailPointRegistry::Global().DisarmAll();

  // Post-campaign audit with the fleet quiescent. First: every version a
  // reader could have accepted must be one some replica published — an
  // unpublished version would be a torn or forged world. Audit serially:
  // answer each query once more and check the book.
  for (const Query& q : queries) {
    auto bundle = fleet->Answer(q);
    if (!bundle.ok()) {
      continue;
    }
    const WireVerification v =
        VerifyWireAnswer(ctx.keys.public_key(), q, bundle.value()->bytes);
    ASSERT_TRUE(v.outcome.accepted) << v.outcome.ToString();
    const size_t group = fleet->RouteOf(q);
    bool found = false;
    for (size_t r = 0; r < kChaosReplicas; ++r) {
      found |= published[group * kChaosReplicas + r].count(v.version) > 0;
    }
    EXPECT_TRUE(found) << "accepted version " << v.version
                       << " was never published by group " << group;
  }

  // Per-reader: every answer terminated explicitly, nothing was rejected
  // as forged, and the books balance.
  EXPECT_EQ(non_retryable_update_faults.load(), 0u)
      << "a faulted rotation must fail with a retryable code";
  size_t total_answers = 0, total_ok = 0, total_errors = 0;
  for (size_t r = 0; r < kChaosReaders; ++r) {
    const ReaderTally& tally = tallies[r];
    EXPECT_EQ(tally.false_rejects, 0u) << "reader " << r;
    EXPECT_EQ(tally.non_retryable_errors, 0u) << "reader " << r;
    EXPECT_EQ(tally.staleness_over_bound, 0u) << "reader " << r;
    EXPECT_EQ(tally.answers, tally.ok + tally.explicit_errors)
        << "reader " << r;
    EXPECT_EQ(tally.ok, tally.accepted_fresh + tally.accepted_degraded +
                            tally.stale_rejects)
        << "reader " << r;
    EXPECT_GT(tally.accepted_fresh + tally.accepted_degraded, 0u)
        << "reader " << r << " never accepted anything";
    total_answers += tally.answers;
    total_ok += tally.ok;
    total_errors += tally.explicit_errors;
  }

  // Fleet books: totals == per-shard sums == the readers' own counts
  // (+ the audit pass above, which answered each query once serially).
  const ShardedStats stats = fleet->GetStats();
  testing::ExpectShardStatsConserve(stats);
  const size_t audit_answers = queries.size();
  EXPECT_EQ(stats.totals.queries, total_answers + audit_answers);
  EXPECT_GE(stats.totals.failures, total_errors);
  EXPECT_LE(stats.totals.failures, total_errors + audit_answers);
  // Retries only happen on retryable faults; with a 10% per-attempt fault
  // rate across this many answers the failover plane must have engaged.
  EXPECT_GT(stats.totals.retries, 0u);
}

TEST(ChaosCampaignTest, ServingStaysSoundAcrossSeeds) {
  if (!FailPointsCompiledIn()) {
    GTEST_SKIP() << "built with -DSPAUTH_FAILPOINTS=OFF";
  }
  for (uint64_t seed : {1u, 2u, 3u}) {
    RunChaosCampaign(seed);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

}  // namespace
}  // namespace spauth
