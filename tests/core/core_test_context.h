// Shared fixture for the core method tests: one road network, one owner key
// pair and one query workload, built once per process.
#ifndef SPAUTH_TESTS_CORE_CORE_TEST_CONTEXT_H_
#define SPAUTH_TESTS_CORE_CORE_TEST_CONTEXT_H_

#include <array>
#include <memory>
#include <span>
#include <vector>

#include "core/client.h"
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

/// Asserts the fleet's stats books conserve: for every field in
/// ShardStats::kFields (the cache's fields included), the totals equal the
/// per-shard sum for a counter, the per-shard MAX for a gauge (summing a
/// gauge would fabricate a reading no shard observed) and the most severe
/// per-shard state for breaker_state. The arithmetic is written out here,
/// apart from the library's merge. Returns the recomputed aggregate so
/// callers can assert workload-specific expectations against it.
ShardStats ExpectShardStatsConserve(const ShardedStats& stats);

/// Verifies `requests` through `batch.VerifyBatch(requests, num_threads)`
/// and, in request order, through `serial.Verify` — `serial` being a second
/// client set up exactly like `batch` — and asserts the two agree request
/// by request on every WireVerification field. Returns the batch results.
std::vector<WireVerification> ExpectBatchMatchesSerial(
    const Client& batch, Client& serial,
    std::span<const VerifyRequest> requests, size_t num_threads);

/// A batch of one kSetWeight op. `std::span` has no initializer-list
/// constructor, so single re-weight call sites pass this array instead.
inline std::array<StructuralUpdate, 1> OneSetWeight(NodeId u, NodeId v,
                                                    double weight) {
  return {StructuralUpdate::SetWeight(u, v, weight)};
}

}  // namespace spauth::testing

#endif  // SPAUTH_TESTS_CORE_CORE_TEST_CONTEXT_H_
