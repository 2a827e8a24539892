// The coalescing owner queue (core/update_queue.h) and its ShardedEngine
// wiring: triggers, max_batch runs, failed-flush requeue semantics, and the
// headline claim — a K-update storm collapses into at most ceil(K/batch)
// rotations with ONE signature each, with the stats books conserving.
#include "core/update_queue.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/core_test_context.h"
#include "core/sharded_engine.h"
#include "crypto/rsa.h"
#include "graph/generator.h"
#include "util/rng.h"

namespace spauth {
namespace {

using testing::CoreTestContext;
using testing::ExpectShardStatsConserve;

StructuralUpdate Reweight(NodeId u, NodeId v, double w) {
  return StructuralUpdate::SetWeight(u, v, w);
}

// A flush sink that records every run it receives and can fail one call.
struct RunRecorder {
  std::vector<std::vector<StructuralUpdate>> runs;
  size_t fail_call = 0;  // 1-based call that returns an error; 0 = none

  UpdateQueue::FlushFn Sink() {
    return [this](std::span<const StructuralUpdate> run) {
      runs.emplace_back(run.begin(), run.end());
      return runs.size() == fail_call ? Status::Internal("injected")
                                      : Status::Ok();
    };
  }
};

// ---------------------------------------------------------------------------
// UpdateQueue unit tests (synthetic clock throughout)
// ---------------------------------------------------------------------------

TEST(UpdateQueueTest, CountTriggerFiresAtMaxBatch) {
  UpdateQueue queue({.max_batch = 4, .max_staleness_micros = 0});
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(queue.Enqueue(Reweight(0, 1, i), /*now=*/10 * i));
  }
  // No staleness trigger: arbitrarily old ops do not request a flush...
  EXPECT_FALSE(queue.ShouldFlush(/*now=*/1'000'000'000));
  // ...but the fourth op reaches max_batch.
  EXPECT_TRUE(queue.Enqueue(Reweight(0, 1, 3.0), /*now=*/30));
  EXPECT_EQ(queue.pending(), 4u);
}

TEST(UpdateQueueTest, StalenessTriggerBoundsTheOldestOp) {
  UpdateQueue queue({.max_batch = 1000, .max_staleness_micros = 500});
  EXPECT_FALSE(queue.Enqueue(Reweight(0, 1, 1.0), /*now=*/100));
  EXPECT_FALSE(queue.ShouldFlush(/*now=*/599));  // age 499 < 500
  EXPECT_TRUE(queue.ShouldFlush(/*now=*/600));   // age 500 — due
  // The trigger keys on the OLDEST op: a fresh arrival cannot reset it.
  EXPECT_TRUE(queue.Enqueue(Reweight(0, 1, 2.0), /*now=*/600));
}

TEST(UpdateQueueTest, FlushCutsMixedKindsIntoMaxBatchRunsInArrivalOrder) {
  UpdateQueue queue({.max_batch = 3});
  // w w s | w  — kinds mix freely inside a run; only max_batch cuts it,
  // and arrival order is preserved across the cut.
  queue.Enqueue(Reweight(0, 1, 1.0), 0);
  queue.Enqueue(Reweight(2, 3, 2.0), 1);
  queue.Enqueue(StructuralUpdate::AddVertex(5.0, 6.0), 2);
  queue.Enqueue(Reweight(4, 5, 3.0), 3);

  RunRecorder sink;
  ASSERT_TRUE(queue.Flush(/*now=*/10, sink.Sink()).ok());
  EXPECT_EQ(queue.pending(), 0u);
  ASSERT_EQ(sink.runs.size(), 2u);
  ASSERT_EQ(sink.runs[0].size(), 3u);
  EXPECT_DOUBLE_EQ(sink.runs[0][1].weight, 2.0);
  EXPECT_EQ(sink.runs[0][2].kind, StructuralOpKind::kAddVertex);
  ASSERT_EQ(sink.runs[1].size(), 1u);
  EXPECT_DOUBLE_EQ(sink.runs[1][0].weight, 3.0);

  const UpdateQueueStats& stats = queue.stats();
  EXPECT_EQ(stats.enqueued, 4u);
  EXPECT_EQ(stats.flushes, 1u);
  EXPECT_EQ(stats.rotations, 2u);  // ceil(4 / 3)
  EXPECT_EQ(stats.flushed_ops, 4u);
  EXPECT_EQ(stats.max_lag_micros, 10u);  // the oldest op was enqueued at 0
}

TEST(UpdateQueueTest, RunsAreCappedAtMaxBatch) {
  UpdateQueue queue({.max_batch = 4});
  for (int i = 0; i < 10; ++i) {
    queue.Enqueue(Reweight(0, 1, i), 0);
  }
  RunRecorder sink;
  ASSERT_TRUE(queue.Flush(0, sink.Sink()).ok());
  // 10 ops at max_batch 4: runs of 4, 4, 2 = ceil(10/4) rotations.
  ASSERT_EQ(sink.runs.size(), 3u);
  EXPECT_EQ(sink.runs[0].size(), 4u);
  EXPECT_EQ(sink.runs[1].size(), 4u);
  EXPECT_EQ(sink.runs[2].size(), 2u);
  EXPECT_DOUBLE_EQ(queue.stats().CoalescingRatio(), 10.0 / 3.0);
}

TEST(UpdateQueueTest, FailedRunAndEverythingBehindItStayBufferedInOrder) {
  UpdateQueue queue({.max_batch = 2});
  queue.Enqueue(Reweight(0, 1, 1.0), 0);
  queue.Enqueue(StructuralUpdate::AddVertex(1.0, 1.0), 1);
  queue.Enqueue(Reweight(2, 3, 2.0), 2);
  queue.Enqueue(StructuralUpdate::RemoveEdge(4, 5), 3);
  queue.Enqueue(Reweight(6, 7, 3.0), 4);

  RunRecorder sink;
  sink.fail_call = 2;
  // The first run rotates; the second run fails and keeps its place,
  // blocking the op behind it (arrival order is a promise).
  EXPECT_FALSE(queue.Flush(5, sink.Sink()).ok());
  EXPECT_EQ(queue.pending(), 3u);
  EXPECT_EQ(queue.stats().rotations, 1u);
  EXPECT_EQ(queue.stats().flushed_ops, 2u);

  // The retry resumes exactly where the fault hit.
  ASSERT_TRUE(queue.Flush(9, sink.Sink()).ok());
  EXPECT_EQ(queue.pending(), 0u);
  // The first run, the failed try, its retry, the tail.
  ASSERT_EQ(sink.runs.size(), 4u);
  ASSERT_EQ(sink.runs[2].size(), 2u);
  EXPECT_DOUBLE_EQ(sink.runs[2][0].weight, 2.0);
  EXPECT_EQ(sink.runs[2][1].kind, StructuralOpKind::kRemoveEdge);
  ASSERT_EQ(sink.runs[3].size(), 1u);
  EXPECT_DOUBLE_EQ(sink.runs[3][0].weight, 3.0);
  EXPECT_EQ(queue.stats().rotations, 3u);
  EXPECT_EQ(queue.stats().flushed_ops, 5u);
}

TEST(UpdateQueueTest, EmptyFlushIsFreeAndZeroBatchClampsToOne) {
  UpdateQueue queue({.max_batch = 0});
  EXPECT_EQ(queue.options().max_batch, 1u);  // 0 could never flush
  RunRecorder sink;
  ASSERT_TRUE(queue.Flush(0, sink.Sink()).ok());
  EXPECT_TRUE(sink.runs.empty());
  EXPECT_EQ(queue.stats().flushes, 0u);
  EXPECT_DOUBLE_EQ(queue.stats().CoalescingRatio(), 0.0);
}

// ---------------------------------------------------------------------------
// ShardedEngine wiring
// ---------------------------------------------------------------------------

std::unique_ptr<ShardedEngine> MakeDijFleet(size_t shards) {
  const auto& ctx = CoreTestContext::Get();
  auto sharded = ShardedEngine::BuildReplicated(
      ctx.graph, CoreTestContext::DefaultOptions(MethodKind::kDij), shards,
      ctx.keys);
  EXPECT_TRUE(sharded.ok()) << sharded.status().ToString();
  return std::move(sharded).value();
}

TEST(ShardedUpdateQueueTest, EnableIsOnceAndFleetModeNeedsReplicas) {
  auto sharded = MakeDijFleet(2);
  EXPECT_FALSE(sharded->update_queues_enabled());
  EXPECT_EQ(sharded->Enqueue(0, CoreTestContext::Get().keys,
                             Reweight(0, 1, 1.0), 0)
                .status()
                .code(),
            StatusCode::kFailedPrecondition);  // not enabled yet

  ASSERT_TRUE(sharded->EnableUpdateQueues({.max_batch = 4}).ok());
  EXPECT_TRUE(sharded->update_queues_enabled());
  EXPECT_EQ(sharded->num_update_queues(), sharded->num_groups());
  EXPECT_EQ(sharded->EnableUpdateQueues({.max_batch = 8}).code(),
            StatusCode::kFailedPrecondition);  // once only

  // Fleet-lock-step mode on a region fleet would apply every region's ops
  // to every region.
  const auto& ctx = CoreTestContext::Get();
  std::vector<ShardSpec> specs(2);
  auto other = GenerateRoadNetwork({.num_nodes = 80, .seed = 9});
  ASSERT_TRUE(other.ok());
  specs[0] = {&ctx.graph, CoreTestContext::DefaultOptions(MethodKind::kDij)};
  specs[1] = {&other.value(),
              CoreTestContext::DefaultOptions(MethodKind::kDij)};
  auto regions =
      ShardedEngine::Build(specs, nullptr, ctx.keys);
  ASSERT_TRUE(regions.ok()) << regions.status().ToString();
  EXPECT_EQ(regions.value()
                ->EnableUpdateQueues({.max_batch = 4}, /*fleet_lock_step=*/true)
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST(ShardedUpdateQueueTest, StormCollapsesIntoFewRotationsOneSignatureEach) {
  auto sharded = MakeDijFleet(1);
  const auto& ctx = CoreTestContext::Get();
  constexpr size_t kBatch = 8;
  constexpr size_t kStorm = 37;
  ASSERT_TRUE(sharded->EnableUpdateQueues({.max_batch = kBatch}).ok());

  Rng rng(404);
  const uint64_t signs_before = RsaSignOps();
  uint64_t now = 0;
  for (size_t i = 0; i < kStorm; ++i) {
    const NodeId u = static_cast<NodeId>(rng.NextBounded(ctx.graph.num_nodes()));
    const auto neighbors = ctx.graph.Neighbors(u);
    if (neighbors.empty()) {
      continue;
    }
    const NodeId v = neighbors[rng.NextBounded(neighbors.size())].to;
    auto flushed = sharded->Enqueue(
        0, ctx.keys, Reweight(u, v, rng.NextDoubleIn(1.0, 500.0)), now);
    ASSERT_TRUE(flushed.ok()) << flushed.status().ToString();
    now += 10;
  }
  auto drained = sharded->DrainUpdateQueues(ctx.keys, now);
  ASSERT_TRUE(drained.ok());

  const UpdateQueueStats qstats = sharded->update_queue_stats(0);
  EXPECT_EQ(qstats.enqueued, qstats.flushed_ops);  // nothing left behind
  // The storm collapsed: at most ceil(K/batch) rotations…
  EXPECT_LE(qstats.rotations,
            (qstats.enqueued + kBatch - 1) / kBatch);
  EXPECT_GT(qstats.CoalescingRatio(), 1.0);
  // …and exactly ONE signature per rotation.
  EXPECT_EQ(RsaSignOps() - signs_before, qstats.rotations);
  // The shard's certificate absorbed every op.
  EXPECT_EQ(sharded->shard(0).certificate().params.version, qstats.enqueued);
}

TEST(ShardedUpdateQueueTest, MixedStormRotatesOncePerGroupBooksConserve) {
  auto sharded = MakeDijFleet(2);
  const auto& ctx = CoreTestContext::Get();
  ASSERT_TRUE(sharded
                  ->EnableUpdateQueues(
                      {.max_batch = 4, .max_staleness_micros = 100})
                  .ok());

  // Interleave re-weight and shape-change ops across both group queues.
  uint64_t now = 0;
  for (size_t group = 0; group < 2; ++group) {
    const NodeId u = static_cast<NodeId>(10 + group);
    const NodeId v = ctx.graph.Neighbors(u)[0].to;
    ASSERT_TRUE(sharded
                    ->Enqueue(group, ctx.keys, Reweight(u, v, 77.0), now)
                    .ok());
    const NodeId fresh = static_cast<NodeId>(ctx.graph.num_nodes());
    ASSERT_TRUE(sharded
                    ->Enqueue(group, ctx.keys,
                              StructuralUpdate::AddVertex(1.0 + group, 2.0),
                              now)
                    .ok());
    ASSERT_TRUE(sharded
                    ->Enqueue(group, ctx.keys,
                              StructuralUpdate::AddEdge(fresh, u, 5.0), now)
                    .ok());
  }
  // Nothing is due yet (count 3 < 4, age 0): the poll is a no-op…
  auto polled = sharded->PollUpdateQueues(ctx.keys, now);
  ASSERT_TRUE(polled.ok());
  EXPECT_EQ(polled.value(), 0u);
  // …until the staleness bound passes, then BOTH queues drain.
  polled = sharded->PollUpdateQueues(ctx.keys, now + 100);
  ASSERT_TRUE(polled.ok());
  EXPECT_EQ(polled.value(), 6u);

  const ShardedStats stats = sharded->GetStats();
  const ShardStats sum = ExpectShardStatsConserve(stats);
  EXPECT_EQ(sum.enqueued_updates, 6u);
  EXPECT_EQ(sum.updates, 6u);  // three ops of mixed kinds per group
  // Each group flushed its three mixed ops as ONE run (max_batch 4).
  EXPECT_EQ(sum.coalesced_rotations, 2u);
  EXPECT_EQ(stats.totals.update_lag_micros, 100u);
  // Every shard absorbed its three ops.
  EXPECT_EQ(stats.totals.certificate_version, 3u);

  // The engines really grew: the appended vertex serves queries.
  for (size_t group = 0; group < 2; ++group) {
    EXPECT_EQ(sharded->shard(group).CurrentState()->graph->num_nodes(),
              ctx.graph.num_nodes() + 1);
  }
}

TEST(ShardedUpdateQueueTest, FleetLockStepQueueDrivesAllShards) {
  auto sharded = MakeDijFleet(3);
  const auto& ctx = CoreTestContext::Get();
  ASSERT_TRUE(sharded
                  ->EnableUpdateQueues({.max_batch = 2},
                                       /*fleet_lock_step=*/true)
                  .ok());
  EXPECT_EQ(sharded->num_update_queues(), 1u);

  const NodeId u = 3;
  const NodeId v = ctx.graph.Neighbors(u)[0].to;
  ASSERT_TRUE(sharded->Enqueue(0, ctx.keys, Reweight(u, v, 9.0), 0).ok());
  // The second op hits max_batch: the flush runs the AllShards rotation.
  auto flushed = sharded->Enqueue(0, ctx.keys, Reweight(u, v, 11.0), 1);
  ASSERT_TRUE(flushed.ok()) << flushed.status().ToString();
  EXPECT_TRUE(flushed.value());

  // Every shard rotated to the same version — replicas stay transparent.
  for (size_t i = 0; i < sharded->num_shards(); ++i) {
    EXPECT_EQ(sharded->shard(i).certificate().params.version, 2u);
  }
  ExpectShardStatsConserve(sharded->GetStats());
}

}  // namespace
}  // namespace spauth
