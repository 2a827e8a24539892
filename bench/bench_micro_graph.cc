// Micro benchmarks for the graph substrate: the provider-side shortest path
// algorithms (algosp choices of Algorithm 1) and the owner-side all-pairs
// computations.
#include <benchmark/benchmark.h>

#include <cstdlib>

#include "core/client.h"
#include "core/engine.h"
#include "core/verify_workspace.h"
#include "crypto/rsa.h"
#include "graph/all_pairs.h"
#include "graph/astar.h"
#include "graph/bidirectional.h"
#include "graph/dijkstra.h"
#include "graph/generator.h"
#include "graph/workload.h"
#include "util/rng.h"

namespace spauth {
namespace {

const Graph& BenchGraph() {
  static const Graph* g = [] {
    auto graph = GenerateDataset(Dataset::kDE);
    return new Graph(std::move(graph).value());
  }();
  return *g;
}

std::vector<Query> BenchQueries() {
  WorkloadOptions options;
  options.count = 16;
  options.query_range = 2000;
  options.seed = 3;
  return GenerateWorkload(BenchGraph(), options).value();
}

// 10k-node graph for the workspace-reuse comparison: big enough that the
// per-query O(V) allocation + clear dominates a range-bounded search.
const Graph& BigBenchGraph() {
  static const Graph* g = [] {
    RoadNetworkOptions options;
    options.num_nodes = 10000;
    options.seed = 17;
    auto graph = GenerateRoadNetwork(options);
    return new Graph(std::move(graph).value());
  }();
  return *g;
}

std::vector<Query> BigBenchQueries(double range) {
  WorkloadOptions options;
  options.count = 16;
  options.query_range = range;
  options.seed = 3;
  return GenerateWorkload(BigBenchGraph(), options).value();
}

void BM_Dijkstra(benchmark::State& state) {
  const Graph& g = BenchGraph();
  auto queries = BenchQueries();
  size_t i = 0;
  for (auto _ : state) {
    const Query& q = queries[i++ % queries.size()];
    auto r = DijkstraShortestPath(g, q.source, q.target);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_Dijkstra);

// The per-query-allocation path: the wrapper constructs a fresh
// SearchWorkspace per call (allocate + zero-fill O(V) arrays and a fresh
// heap), which is cost-equivalent to the pre-workspace implementation's
// fresh infinity-filled dist/parent vectors. The argument is the
// workload's query range: the shorter the queries, the more the O(V)
// per-query setup dominates the actual search.
void BM_DijkstraFreshAllocation(benchmark::State& state) {
  const Graph& g = BigBenchGraph();
  auto queries = BigBenchQueries(static_cast<double>(state.range(0)));
  size_t i = 0;
  for (auto _ : state) {
    const Query& q = queries[i++ % queries.size()];
    auto r = DijkstraShortestPath(g, q.source, q.target);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_DijkstraFreshAllocation)->Arg(500)->Arg(2000);

// The fast path: one SearchWorkspace reused across the query stream.
void BM_DijkstraReusedWorkspace(benchmark::State& state) {
  const Graph& g = BigBenchGraph();
  auto queries = BigBenchQueries(static_cast<double>(state.range(0)));
  SearchWorkspace ws;
  size_t i = 0;
  for (auto _ : state) {
    const Query& q = queries[i++ % queries.size()];
    auto r = DijkstraShortestPath(g, q.source, q.target, ws);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_DijkstraReusedWorkspace)->Arg(500)->Arg(2000);

// Verification-side counterpart of the Dijkstra pair: the same short-range
// wire answers verified with a fresh VerifyWorkspace per message (what the
// wrapper pays: allocate + fill O(V) lanes, decode into fresh vectors, a
// fresh tuple map, and an RSA verify per message) versus one workspace
// reused across the stream (whose certificate memo also leaves one RSA
// verify for the whole stream).
struct VerifyBenchSetup {
  std::unique_ptr<MethodEngine> engine;
  RsaPublicKey owner_key;
  std::vector<Query> queries;
  std::vector<std::vector<uint8_t>> wires;
};

const VerifyBenchSetup& GetVerifyBenchSetup() {
  static const VerifyBenchSetup* setup = [] {
    auto s = new VerifyBenchSetup();
    Rng rng(20100306);
    auto keys = RsaKeyPair::Generate(512, &rng);
    if (!keys.ok()) {
      std::abort();
    }
    s->owner_key = keys.value().public_key();
    EngineOptions options;
    options.method = MethodKind::kDij;
    auto engine = MakeEngine(BigBenchGraph(), options, keys.value());
    if (!engine.ok()) {
      std::abort();
    }
    s->engine = std::move(engine).value();
    s->queries = BigBenchQueries(500);
    SearchWorkspace ws;
    for (const Query& q : s->queries) {
      auto bundle = s->engine->Answer(q, ws);
      if (!bundle.ok() ||
          !VerifyWireAnswer(s->owner_key, q, bundle.value().bytes)
               .outcome.accepted) {
        std::abort();
      }
      s->wires.push_back(std::move(bundle.value().bytes));
    }
    return s;
  }();
  return *setup;
}

// The per-message-allocation path: the signature-compatible wrapper
// constructs a throwaway VerifyWorkspace per call.
void BM_VerifyFreshAllocation(benchmark::State& state) {
  const VerifyBenchSetup& setup = GetVerifyBenchSetup();
  size_t i = 0;
  for (auto _ : state) {
    const size_t j = i++ % setup.queries.size();
    WireVerification r =
        VerifyWireAnswer(setup.owner_key, setup.queries[j], setup.wires[j]);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_VerifyFreshAllocation);

// The fast path: one VerifyWorkspace (and result slot) reused across the
// message stream.
void BM_VerifyReusedWorkspace(benchmark::State& state) {
  const VerifyBenchSetup& setup = GetVerifyBenchSetup();
  VerifyWorkspace ws;
  WireVerification result;
  size_t i = 0;
  for (auto _ : state) {
    const size_t j = i++ % setup.queries.size();
    VerifyWireAnswer(setup.owner_key, setup.queries[j], setup.wires[j], ws,
                     &result);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_VerifyReusedWorkspace);

void BM_AStarEuclidean(benchmark::State& state) {
  const Graph& g = BenchGraph();
  auto queries = BenchQueries();
  size_t i = 0;
  for (auto _ : state) {
    const Query& q = queries[i++ % queries.size()];
    auto lb = [&](NodeId v) { return g.EuclideanDistance(v, q.target); };
    auto r = AStarShortestPath(g, q.source, q.target, lb);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_AStarEuclidean);

void BM_Bidirectional(benchmark::State& state) {
  const Graph& g = BenchGraph();
  auto queries = BenchQueries();
  size_t i = 0;
  for (auto _ : state) {
    const Query& q = queries[i++ % queries.size()];
    auto r = BidirectionalShortestPath(g, q.source, q.target);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_Bidirectional);

void BM_DijkstraBall(benchmark::State& state) {
  const Graph& g = BenchGraph();
  Rng rng(5);
  for (auto _ : state) {
    NodeId s = static_cast<NodeId>(rng.NextBounded(g.num_nodes()));
    auto r = DijkstraBall(g, s, static_cast<double>(state.range(0)));
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_DijkstraBall)->Arg(500)->Arg(2000)->Arg(8000);

void BM_FloydWarshall(benchmark::State& state) {
  RoadNetworkOptions options;
  options.num_nodes = static_cast<uint32_t>(state.range(0));
  options.seed = 11;
  auto g = GenerateRoadNetwork(options).value();
  for (auto _ : state) {
    DistanceMatrix m = FloydWarshall(g);
    benchmark::DoNotOptimize(m);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_FloydWarshall)->Arg(100)->Arg(200)->Arg(400)->Complexity();

void BM_AllPairsDijkstra(benchmark::State& state) {
  RoadNetworkOptions options;
  options.num_nodes = static_cast<uint32_t>(state.range(0));
  options.seed = 11;
  auto g = GenerateRoadNetwork(options).value();
  for (auto _ : state) {
    DistanceMatrix m = AllPairsDijkstra(g);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_AllPairsDijkstra)->Arg(100)->Arg(400);

}  // namespace
}  // namespace spauth

BENCHMARK_MAIN();
