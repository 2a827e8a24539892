#include "core/core_test_context.h"

#include <algorithm>
#include <cstdlib>
#include <type_traits>
#include <vector>

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

namespace {

// Open (denying) > half-open (probing) > closed (healthy).
int Severity(BreakerState state) {
  return state == BreakerState::kOpen       ? 2
         : state == BreakerState::kHalfOpen ? 1
                                            : 0;
}

// Recomputes every field of S from `parts` by its aggregation kind and
// expects `total` to match; returns the recomputed aggregate.
template <typename S>
S ExpectFieldsConserve(const S& total, const std::vector<const S*>& parts) {
  S expected;
  ForEachStatField<S>([&](const auto& field) {
    auto& want = expected.*field.member;
    constexpr StatAgg agg = std::decay_t<decltype(field)>::agg;
    if constexpr (agg == StatAgg::kNested) {
      std::vector<const std::remove_reference_t<decltype(want)>*> inner;
      for (const S* part : parts) {
        inner.push_back(&(part->*field.member));
      }
      want = ExpectFieldsConserve(total.*field.member, inner);
    } else {
      for (const S* part : parts) {
        const auto& value = part->*field.member;
        if constexpr (agg == StatAgg::kSum) {
          want += value;
        } else if constexpr (agg == StatAgg::kMax) {
          want = std::max(want, value);
        } else if (Severity(value) > Severity(want)) {
          want = value;
        }
      }
      EXPECT_EQ(total.*field.member, want) << field.name;
    }
  });
  return expected;
}

}  // namespace

std::vector<WireVerification> ExpectBatchMatchesSerial(
    const Client& batch, Client& serial,
    std::span<const VerifyRequest> requests, size_t num_threads) {
  std::vector<WireVerification> results =
      batch.VerifyBatch(requests, num_threads);
  EXPECT_EQ(results.size(), requests.size());
  for (size_t i = 0; i < std::min(results.size(), requests.size()); ++i) {
    const VerifyRequest& r = requests[i];
    const WireVerification want =
        serial.Verify(r.query, r.wire, r.shard, r.forest_path);
    const WireVerification& got = results[i];
    EXPECT_EQ(got.outcome.accepted, want.outcome.accepted) << i;
    EXPECT_EQ(got.outcome.failure, want.outcome.failure)
        << i << ": " << got.outcome.ToString() << " vs "
        << want.outcome.ToString();
    EXPECT_EQ(got.method, want.method) << i;
    EXPECT_EQ(got.version, want.version) << i;
    EXPECT_EQ(got.degraded, want.degraded) << i;
    EXPECT_EQ(got.staleness, want.staleness) << i;
    EXPECT_EQ(got.path, want.path) << i;
    EXPECT_EQ(got.distance, want.distance) << i;
  }
  return results;
}

ShardStats ExpectShardStatsConserve(const ShardedStats& stats) {
  std::vector<const ShardStats*> shards;
  for (const ShardStats& s : stats.shards) {
    shards.push_back(&s);
  }
  return ExpectFieldsConserve(stats.totals, shards);
}

}  // namespace spauth::testing
