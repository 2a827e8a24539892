// Seeded update-while-serving stress campaign: writer threads stream
// copy-on-write edge-weight updates — a mix of single rotations and
// multi-edge batches (one clone, one signature, version + k) — through
// MethodEngine while reader threads serve AnswerBatch and verify through
// Client::VerifyBatch with version watermarks. Every accepted answer must
// carry the true shortest distance of the graph at the certificate version
// it shipped with (zero false-accepts — the version-log replay below
// reconstructs the graph at every *published* version, where one version
// may absorb several edges), honest serving must never be rejected for
// anything but staleness (zero false-rejects), versions accepted by one
// client must be monotonic, and the snapshot/cache books must conserve
// once drained.
//
// Runs under the concurrency-tagged ctest entry (TSan CI job); the
// campaign seed is in every failure message.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <span>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/client.h"
#include "core/core_test_context.h"
#include "core/engine.h"
#include "graph/dijkstra.h"
#include "graph/generator.h"
#include "graph/workload.h"
#include "util/rng.h"

namespace spauth {
namespace {

using testing::CoreTestContext;

constexpr uint64_t kCampaignSeed = 0x5eed2026u;
constexpr size_t kWriters = 2;
constexpr size_t kRotationsPerWriter = 5;
constexpr size_t kMaxBatchEdges = 3;  // rotations absorb 1..3 edges
constexpr size_t kReaders = 2;

struct UndirectedEdge {
  NodeId u, v;
  double weight;
};

/// One published rotation: the version it signed and every edge it
/// absorbed (batched rotations make versions multi-edge — the version
/// jumps by the batch size with the intermediate states never published).
struct AppliedRotation {
  uint32_t version;  // version_after: certificate version it published
  std::vector<StructuralUpdate> edges;
};

struct AcceptedAnswer {
  size_t query_index;
  uint32_t version;
  double distance;
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

TEST(UpdateStressTest, ServingStaysSoundWhileWritersRotateSnapshots) {
  SCOPED_TRACE("campaign seed " + std::to_string(kCampaignSeed));
  const auto& keys = CoreTestContext::Get().keys;

  RoadNetworkOptions gopts;
  gopts.num_nodes = 220;
  gopts.seed = kCampaignSeed;
  auto graph = GenerateRoadNetwork(gopts);
  ASSERT_TRUE(graph.ok());
  const Graph base_graph = std::move(graph).value();
  const std::vector<UndirectedEdge> edges = CollectEdges(base_graph);
  ASSERT_FALSE(edges.empty());

  WorkloadOptions wopts;
  wopts.count = 6;
  wopts.query_range = 2000;
  wopts.seed = kCampaignSeed + 1;
  auto workload = GenerateWorkload(base_graph, wopts);
  ASSERT_TRUE(workload.ok());
  const std::vector<Query> queries = std::move(workload).value();

  EngineOptions options;
  options.method = MethodKind::kDij;
  options.enable_proof_cache = true;
  auto built = MakeEngine(base_graph, options, keys);
  ASSERT_TRUE(built.ok());
  MethodEngine& engine = *built.value();

  // --- Writers: stream seeded rotations — alternating single updates and
  // multi-edge batches — logging (version_after -> absorbed edges).
  std::atomic<bool> writers_done{false};
  std::atomic<size_t> update_failures{0};
  std::vector<std::vector<AppliedRotation>> writer_logs(kWriters);
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      Rng rng(kCampaignSeed + 100 + w);
      for (size_t i = 0; i < kRotationsPerWriter; ++i) {
        const size_t batch_edges = 1 + rng.NextBounded(kMaxBatchEdges);
        std::vector<StructuralUpdate> batch;
        batch.reserve(batch_edges);
        for (size_t j = 0; j < batch_edges; ++j) {
          const UndirectedEdge& e = edges[rng.NextBounded(edges.size())];
          batch.push_back(StructuralUpdate::SetWeight(
              e.u, e.v, e.weight * rng.NextDoubleIn(0.5, 2.0)));
        }
        auto version = engine.ApplyUpdates(&keys, batch);
        if (!version.ok()) {
          update_failures.fetch_add(1);
          continue;
        }
        writer_logs[w].push_back({version.value(), std::move(batch)});
        std::this_thread::yield();
      }
    });
  }

  // --- Readers: AnswerBatch + VerifyBatch with a per-client watermark.
  std::atomic<size_t> false_rejects{0};
  std::atomic<size_t> answer_failures{0};
  std::atomic<size_t> monotonicity_violations{0};
  std::vector<std::vector<AcceptedAnswer>> reader_accepts(kReaders);
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Client client(keys.public_key());
      client.TrackShardVersions(1);
      uint32_t prev_round_max = 0;
      // Keep reading until the writers are finished, then two more rounds
      // so the final version is certainly observed.
      for (int extra = 0; extra < 2;) {
        if (writers_done.load(std::memory_order_acquire)) {
          ++extra;
        }
        auto bundles = engine.AnswerBatch(queries, 2);
        std::vector<VerifyRequest> requests;
        requests.reserve(bundles.size());
        for (size_t i = 0; i < bundles.size(); ++i) {
          requests.push_back({queries[i], {}});
          if (!bundles[i].ok()) {
            answer_failures.fetch_add(1);
            continue;  // empty wire -> malformed rejection
          }
          requests.back().wire = bundles[i].value().bytes;
        }
        const std::vector<WireVerification> results =
            client.VerifyBatch(requests, 2);
        uint32_t round_min = 0xffffffffu;
        uint32_t round_max = 0;
        for (size_t i = 0; i < results.size(); ++i) {
          const WireVerification& v = results[i];
          if (v.outcome.accepted) {
            reader_accepts[r].push_back({i, v.version, v.distance});
            round_min = std::min(round_min, v.version);
            round_max = std::max(round_max, v.version);
          } else if (v.outcome.failure != VerifyFailure::kStaleCertificate) {
            // Honest serving may race a rotation into staleness, but must
            // never be rejected as forged/malformed.
            false_rejects.fetch_add(1);
          }
        }
        // Watermark guarantee: nothing accepted this round is older than
        // anything accepted in a previous round by this client.
        if (round_max > 0 || round_min != 0xffffffffu) {
          if (round_min < prev_round_max) {
            monotonicity_violations.fetch_add(1);
          }
          prev_round_max = std::max(prev_round_max, round_max);
        }
      }
    });
  }

  for (std::thread& t : writers) {
    t.join();
  }
  writers_done.store(true, std::memory_order_release);
  for (std::thread& t : readers) {
    t.join();
  }

  EXPECT_EQ(update_failures.load(), 0u);
  EXPECT_EQ(answer_failures.load(), 0u);
  EXPECT_EQ(false_rejects.load(), 0u);
  EXPECT_EQ(monotonicity_violations.load(), 0u);

  // --- The rotation log must tile the version line exactly: rotations
  // serialize inside the engine, each publishing version_before + k for
  // its k absorbed edges — so consecutive version_afters differ by the
  // batch size, with no gaps, overlaps or duplicates.
  std::map<uint32_t, const AppliedRotation*> log;
  size_t total_edges = 0;
  for (const auto& writer_log : writer_logs) {
    for (const AppliedRotation& rotation : writer_log) {
      EXPECT_TRUE(log.emplace(rotation.version, &rotation).second)
          << "duplicate version " << rotation.version;
      total_edges += rotation.edges.size();
    }
  }
  ASSERT_EQ(log.size(), kWriters * kRotationsPerWriter);
  uint32_t cumulative = 0;
  for (const auto& [version_after, rotation] : log) {
    cumulative += static_cast<uint32_t>(rotation->edges.size());
    ASSERT_EQ(version_after, cumulative)
        << "rotation log does not tile the version line";
  }
  ASSERT_EQ(cumulative, total_edges);
  EXPECT_EQ(engine.certificate().params.version, total_edges);

  // --- Zero false-accepts: replay the log to reconstruct the graph at
  // every *published* version (a batched rotation publishes one version
  // for several edges; the intermediate states never existed) and check
  // each accepted answer against the true shortest distance of the world
  // its certificate signed.
  std::map<uint32_t, std::vector<double>> truth;
  Graph replay = base_graph;
  auto solve_all = [&](const Graph& g) {
    std::vector<double> distances;
    distances.reserve(queries.size());
    for (const Query& q : queries) {
      const PathSearchResult sp = DijkstraShortestPath(g, q.source, q.target);
      EXPECT_TRUE(sp.reachable);
      distances.push_back(sp.distance);
    }
    return distances;
  };
  truth.emplace(0u, solve_all(replay));
  for (const auto& [version_after, rotation] : log) {
    for (const StructuralUpdate& up : rotation->edges) {
      ASSERT_TRUE(replay.SetEdgeWeight(up.u, up.v, up.weight).ok());
    }
    truth.emplace(version_after, solve_all(replay));
  }
  size_t total_accepted = 0;
  for (size_t r = 0; r < kReaders; ++r) {
    for (const AcceptedAnswer& a : reader_accepts[r]) {
      // An accepted answer must carry a version some rotation actually
      // published — an intermediate (mid-batch) version would be a forgery.
      auto it = truth.find(a.version);
      ASSERT_NE(it, truth.end())
          << "accepted answer at unpublished version " << a.version;
      EXPECT_NEAR(a.distance, it->second[a.query_index],
                  1e-9 * (1.0 + it->second[a.query_index]))
          << "reader " << r << " query " << a.query_index << " version "
          << a.version;
      ++total_accepted;
    }
  }
  EXPECT_GT(total_accepted, 0u);

  // --- Quiescent books: every retired snapshot drained with its cache
  // folded, and the conservation invariant holds.
  EXPECT_EQ(engine.live_snapshots(), 1u);
  const ProofCacheStats stats = engine.proof_cache_stats();
  EXPECT_EQ(stats.insertions, stats.evictions + stats.cleared + stats.entries)
      << "insertions=" << stats.insertions << " evictions=" << stats.evictions
      << " cleared=" << stats.cleared << " entries=" << stats.entries;
}

}  // namespace
}  // namespace spauth
