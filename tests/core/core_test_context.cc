#include "core/core_test_context.h"

#include <algorithm>
#include <cstdlib>

#include <gtest/gtest.h>

#include "graph/generator.h"
#include "util/rng.h"

namespace spauth::testing {

EngineOptions CoreTestContext::DefaultOptions(MethodKind kind) {
  EngineOptions options;
  options.method = kind;
  options.num_landmarks = 12;
  options.num_cells = 16;
  return options;
}

std::unique_ptr<MethodEngine> CoreTestContext::MakeMethodEngine(
    MethodKind kind) const {
  auto engine = MakeEngine(graph, DefaultOptions(kind), keys);
  if (!engine.ok()) {
    std::abort();
  }
  return std::move(engine).value();
}

const CoreTestContext& CoreTestContext::Get() {
  static CoreTestContext* context = [] {
    RoadNetworkOptions gopts;
    gopts.num_nodes = 400;
    gopts.seed = 20100306;
    gopts.coord_extent = 4500;  // match the dataset calibration
    auto graph = GenerateRoadNetwork(gopts);
    if (!graph.ok()) {
      std::abort();
    }
    Rng rng(424242);
    auto keys = RsaKeyPair::Generate(512, &rng);
    if (!keys.ok()) {
      std::abort();
    }
    WorkloadOptions wopts;
    wopts.count = 8;
    wopts.query_range = 3500;
    wopts.seed = 99;
    auto queries = GenerateWorkload(graph.value(), wopts);
    if (!queries.ok()) {
      std::abort();
    }
    return new CoreTestContext{std::move(graph).value(),
                               std::move(keys).value(),
                               std::move(queries).value()};
  }();
  return *context;
}

ShardStats ExpectShardStatsConserve(const ShardedStats& stats) {
  ShardStats sum;
  for (const ShardStats& s : stats.shards) {
    sum.queries += s.queries;
    sum.failures += s.failures;
    sum.answer_micros += s.answer_micros;
    sum.updates += s.updates;
    sum.update_failures += s.update_failures;
    sum.enqueued_updates += s.enqueued_updates;
    sum.coalesced_rotations += s.coalesced_rotations;
    sum.rotation_clone_bytes += s.rotation_clone_bytes;
    // Gauges conserve as the per-shard max, not a sum: the totals must
    // report a reading some shard actually observed.
    sum.update_lag_micros = std::max(sum.update_lag_micros,
                                     s.update_lag_micros);
    sum.live_snapshots = std::max(sum.live_snapshots, s.live_snapshots);
    sum.certificate_version =
        std::max(sum.certificate_version, s.certificate_version);
    sum.retries += s.retries;
    sum.failovers += s.failovers;
    sum.deadline_exceeded += s.deadline_exceeded;
    sum.breaker_skips += s.breaker_skips;
    sum.breaker_opens += s.breaker_opens;
    sum.resyncs += s.resyncs;
    sum.resync_failures += s.resync_failures;
    sum.cross_group_serves += s.cross_group_serves;
    sum.cache.hits += s.cache.hits;
    sum.cache.misses += s.cache.misses;
    sum.cache.insertions += s.cache.insertions;
    sum.cache.evictions += s.cache.evictions;
    sum.cache.cleared += s.cache.cleared;
    sum.cache.hit_bytes += s.cache.hit_bytes;
    sum.cache.entries += s.cache.entries;
  }
  EXPECT_EQ(stats.totals.queries, sum.queries);
  EXPECT_EQ(stats.totals.failures, sum.failures);
  EXPECT_EQ(stats.totals.answer_micros, sum.answer_micros);
  EXPECT_EQ(stats.totals.updates, sum.updates);
  EXPECT_EQ(stats.totals.update_failures, sum.update_failures);
  EXPECT_EQ(stats.totals.enqueued_updates, sum.enqueued_updates);
  EXPECT_EQ(stats.totals.coalesced_rotations, sum.coalesced_rotations);
  EXPECT_EQ(stats.totals.rotation_clone_bytes, sum.rotation_clone_bytes);
  EXPECT_EQ(stats.totals.update_lag_micros, sum.update_lag_micros);
  EXPECT_EQ(stats.totals.live_snapshots, sum.live_snapshots);
  EXPECT_EQ(stats.totals.certificate_version, sum.certificate_version);
  EXPECT_EQ(stats.totals.retries, sum.retries);
  EXPECT_EQ(stats.totals.failovers, sum.failovers);
  EXPECT_EQ(stats.totals.deadline_exceeded, sum.deadline_exceeded);
  EXPECT_EQ(stats.totals.breaker_skips, sum.breaker_skips);
  EXPECT_EQ(stats.totals.breaker_opens, sum.breaker_opens);
  EXPECT_EQ(stats.totals.resyncs, sum.resyncs);
  EXPECT_EQ(stats.totals.resync_failures, sum.resync_failures);
  EXPECT_EQ(stats.totals.cross_group_serves, sum.cross_group_serves);
  EXPECT_EQ(stats.totals.cache.hits, sum.cache.hits);
  EXPECT_EQ(stats.totals.cache.misses, sum.cache.misses);
  EXPECT_EQ(stats.totals.cache.insertions, sum.cache.insertions);
  EXPECT_EQ(stats.totals.cache.evictions, sum.cache.evictions);
  EXPECT_EQ(stats.totals.cache.cleared, sum.cache.cleared);
  EXPECT_EQ(stats.totals.cache.hit_bytes, sum.cache.hit_bytes);
  EXPECT_EQ(stats.totals.cache.entries, sum.cache.entries);
  return sum;
}

}  // namespace spauth::testing
