// Shared fixture for the core method tests: one road network, one owner key
// pair and one query workload, built once per process.
#ifndef SPAUTH_TESTS_CORE_CORE_TEST_CONTEXT_H_
#define SPAUTH_TESTS_CORE_CORE_TEST_CONTEXT_H_

#include <array>
#include <memory>
#include <vector>

#include "core/engine.h"
#include "core/sharded_engine.h"
#include "crypto/rsa.h"
#include "graph/graph.h"
#include "graph/workload.h"

namespace spauth::testing {

struct CoreTestContext {
  Graph graph;              // 400-node connected road network
  RsaKeyPair keys;          // 512-bit owner key (fast for tests)
  std::vector<Query> queries;  // 8 mid-range queries

  static const CoreTestContext& Get();

  /// Engine with test-friendly defaults for `kind` (smaller c / p than the
  /// production defaults, scaled to the 400-node fixture).
  std::unique_ptr<MethodEngine> MakeMethodEngine(MethodKind kind) const;

  static EngineOptions DefaultOptions(MethodKind kind);
};

/// Asserts the fleet's stats books conserve: every additive ShardedStats
/// totals counter — serving, failover, heal, queue and cache planes —
/// equals its per-shard sum, and every gauge (live_snapshots,
/// certificate_version, update_lag_micros) equals its per-shard MAX —
/// summing a gauge across shards would fabricate a reading no shard ever
/// observed. Returns the recomputed aggregate so callers can assert
/// workload-specific expectations against it without re-summing.
ShardStats ExpectShardStatsConserve(const ShardedStats& stats);

/// A batch of one kSetWeight op. `std::span` has no initializer-list
/// constructor, so single re-weight call sites pass this array instead.
inline std::array<StructuralUpdate, 1> OneSetWeight(NodeId u, NodeId v,
                                                    double weight) {
  return {StructuralUpdate::SetWeight(u, v, weight)};
}

}  // namespace spauth::testing

#endif  // SPAUTH_TESTS_CORE_CORE_TEST_CONTEXT_H_
