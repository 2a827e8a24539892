// Query-serving throughput harness — the BENCH trajectory's first entry.
//
// Drives all four methods (dij, full, ldm, hyp) over a mixed query workload
// (short / default / long ranges interleaved) through the fast path:
// provider answers with a reused SearchWorkspace, batches through
// MethodEngine::AnswerBatch, clients verify every bundle. Emits one JSON
// object on stdout with queries/sec and p50/p99 latencies per method; see
// bench/README.md for the schema and how the numbers relate to the paper's
// Figures 8-13.
//
// Usage:
//   bench_throughput [--smoke] [--dataset DE|ARG|IND|NA] [--queries N]
//                    [--threads N] [--proof-cache] [--shards N] [--forest]
//                    [--update-rate R] [--updates N] [--update-batch K]
//                    [--updates-first] [--update-storm] [--staleness-us U]
//                    [--fault-rate R] [--replicas N] [--deadline-ms M]
//                    [--recover] [--kill POINT] [--recover-dir PATH]
//
// --smoke runs a tiny generated network (CI-sized, a few seconds end to
// end) instead of a dataset graph. --proof-cache enables the server-side
// proof cache; the harness always serves the stream twice and aborts if
// the second pass's bytes differ from the first, so cache-on runs prove
// byte-identical serving, and the per-method "answers_sha1" digest lets CI
// compare cache-off and cache-on runs across processes.
//
// --shards N switches to the sharded serving mode: N replica engines of
// the same network behind a hash-of-source ShardedEngine, served through
// the zero-copy shared-bundle path, verified through Client::VerifyBatch
// with each message attributed to its serving shard, with per-shard stats
// in the JSON. Replicas build identical ADSes, so the per-method
// answers_sha1 of a --shards N run must equal a --shards 1 run's (CI
// asserts exactly that); with
// --proof-cache the repeat pass additionally asserts shared_ptr identity —
// a cache hit is the same bundle object, not a copy.
//
// --forest (sharded mode only) turns on forest certificates: the fleet
// publishes ONE signed forest certificate over all group certificate
// digests, the client accepts it with ONE RSA verify, and the whole
// batch then verifies through hash-only root-to-shard path replays —
// zero RSA operations per answer. For DIJ the harness also runs one
// fleet rotation and asserts it signs exactly once regardless of fleet
// size; the per-method "forest" JSON object carries the measured RSA
// operation counts (CI asserts rotation_signatures == 1).
//
// --update-rate R switches to the live-update mode (DIJ, the one method
// with an incremental update story): an owner thread streams --updates N
// seeded edge-weight updates at R updates/second through
// ApplyUpdatesAllShards while a serving thread keeps AnswerBatch
// running — epoch-snapshot rotation under real read traffic. The JSON
// reports per-rotation latency, the max snapshot-drain depth observed,
// mixed-phase serve throughput, the rotation_clone_bytes copy-on-write
// accounting (structural sharing keeps it O(f log_f V) per rotation; the
// JSON carries the O(V + E) full-clone baseline next to it so CI can
// assert the ratio), and the answers_sha1 of a final serial pass at the
// final certificate version. --update-batch K absorbs the stream in
// batches of K edges per rotation — one clone and ONE signature per batch,
// at version + K — without changing the final version or bytes.
// --updates-first applies the same updates quiesced (before any serving);
// since the final versions match, the final-pass digests of the two modes
// must be byte-identical — CI asserts exactly that (serve-then-update ==
// update-then-serve, batched == one-at-a-time).
//
// --update-storm switches to the coalescing-queue mode (DIJ): the owner
// queue (core/update_queue.h) absorbs a seeded storm of --updates N
// mixed weight + structural updates under a synthetic microsecond clock
// (deterministic — no wall-clock pacing). Phase 1 is a back-to-back burst
// of weight updates coalesced purely by the count trigger: the harness
// asserts the burst collapses into at most ceil(K / batch) rotations with
// one signature per rotation per shard. Phase 2 is a trickle that
// includes structural ops (vertex adds wired by fresh edges) and idles
// past the --staleness-us bound between arrivals, so the staleness
// trigger — not the count trigger — drains the queue; the harness asserts
// the observed lag gauge never exceeds the bound. The JSON's "storm"
// object reports the coalescing ratio (CI asserts > 1), rotation and
// signature counts, and the staleness lag next to its bound; a final
// verified pass at the post-storm certificate version proves the grown
// network serves sound answers. --update-batch K sets the queue's
// max_batch (a bare --update-storm defaults it to 8 — batch 1 cannot
// coalesce); --shards N drives the storm through the fleet-lock-step
// queue (one flush rotates every replica).
//
// --fault-rate R switches to the chaos mode (DIJ, requires a build with
// SPAUTH_FAILPOINTS=ON): --shards routing groups of --replicas replicas
// each behind the failover AnswerBatch (bounded retry with backoff,
// per-query --deadline-ms budget, circuit breakers on), with the
// "shard/answer" fail point armed at probability R per attempt. Phase 1
// serves the workload repeatedly and asserts every OK answer is
// byte-identical to a fault-free reference pass (failover is transparent);
// phase 2 (with --replicas >= 2) injects a one-shot signing fault mid-
// rotation so one replica freezes on the old snapshot, then serves through
// a bounded-staleness client and counts degraded accepts. The JSON's
// "chaos" object reports availability (ok / answers), retry / failover /
// breaker counters and the degraded-serve count; any non-retryable error,
// verification rejection, or byte divergence exits non-zero. CI asserts
// availability >= 0.99 at a 1% fault rate.
//
// --recover switches to the durable-recovery mode (DIJ): a checkpointed,
// WAL-ing engine is crashed at --kill (one of the durability seams
// engine/publish | wal/append | wal/fsync | wal/reset, or none for a clean
// shutdown; seam kills need SPAUTH_FAILPOINTS=ON and downgrade to none
// otherwise), recovered from disk through the authenticated verify-on-load
// path, and byte-compared against a never-crashed twin at the durable
// version; a second arc tears a group rotation and heals the frozen
// replica from its sibling. The JSON's "recover" object reports recovery latency, WAL
// replay / skip counts, torn-tail detection, the recovered digest next to
// the twin's (CI asserts equality) and the heal counters; any divergence
// exits non-zero. --recover-dir overrides the scratch directory.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <thread>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/client.h"
#include "core/engine.h"
#include "core/forest_certificate.h"
#include "core/sharded_engine.h"
#include "core/snapshot_store.h"
#include "core/wal.h"
#include "crypto/digest.h"
#include "crypto/rsa.h"
#include "graph/generator.h"
#include "util/byte_buffer.h"
#include "graph/search_workspace.h"
#include "graph/workload.h"
#include "util/failpoint.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/timer.h"

namespace spauth::bench {
namespace {

struct Config {
  bool smoke = false;
  Dataset dataset = Dataset::kDE;
  size_t queries = 60;   // total across the range mix
  size_t threads = 0;    // 0 = ThreadPool default
  bool proof_cache = false;
  size_t shards = 0;     // 0 = single-engine mode; N >= 1 = sharded mode
  bool forest = false;   // sharded mode: forest certificates + forest verify
  double update_rate = 0;  // updates/second; > 0 enables live-update mode
  size_t updates = 0;      // total owner updates (0 = mode default)
  size_t update_batch = 1;     // edges absorbed per rotation
  bool updates_first = false;  // quiesced: apply all updates, then serve
  bool update_storm = false;   // coalescing-queue storm mode
  uint64_t staleness_us = 1000;  // storm mode: bounded-staleness knob
  double fault_rate = 0;       // per-attempt fault probability; > 0 = chaos
  size_t replicas = 2;         // replicas per routing group (chaos mode)
  double deadline_ms = 0;      // per-query budget; 0 = none (chaos mode)
  bool recover = false;        // durable-recovery mode
  std::string kill = "engine/publish";  // recover-mode crash seam, or "none"
  std::string recover_dir;     // scratch dir; empty = under the system tmp
};

struct LatencyStats {
  double qps = 0;
  double mean_ms = 0;
  double p50_ms = 0;
  double p99_ms = 0;
};

LatencyStats Summarize(std::vector<double> latencies_ms, double total_s) {
  LatencyStats stats;
  if (latencies_ms.empty()) {
    return stats;
  }
  std::sort(latencies_ms.begin(), latencies_ms.end());
  const size_t n = latencies_ms.size();
  double sum = 0;
  for (double v : latencies_ms) {
    sum += v;
  }
  stats.qps = total_s > 0 ? static_cast<double>(n) / total_s : 0;
  stats.mean_ms = sum / static_cast<double>(n);
  stats.p50_ms = latencies_ms[(n - 1) / 2];
  stats.p99_ms = latencies_ms[(n - 1) * 99 / 100];
  return stats;
}

/// Interleaved mix of short / default / long query ranges, so latency
/// percentiles reflect a realistic spread of search-space sizes. Produces
/// exactly max(count, 1) queries (the remainder goes to the shorter
/// ranges).
std::vector<Query> MixedWorkload(const Graph& g, size_t count) {
  const double ranges[] = {500, 2000, 8000};
  count = std::max<size_t>(count, 1);
  std::vector<std::vector<Query>> per_range;
  for (size_t r = 0; r < std::size(ranges); ++r) {
    WorkloadOptions options;
    options.count = count / std::size(ranges) +
                    (r < count % std::size(ranges) ? 1 : 0);
    if (options.count == 0) {
      per_range.emplace_back();
      continue;
    }
    options.query_range = ranges[r];
    options.seed = kWorkloadSeed + r;
    auto workload = GenerateWorkload(g, options);
    if (!workload.ok()) {
      std::fprintf(stderr, "workload generation failed: %s\n",
                   workload.status().ToString().c_str());
      std::abort();
    }
    per_range.push_back(std::move(workload).value());
  }
  std::vector<Query> mixed;
  mixed.reserve(count);
  for (size_t i = 0; mixed.size() < count; ++i) {
    for (const auto& bucket : per_range) {
      if (i < bucket.size()) {
        mixed.push_back(bucket[i]);
      }
    }
  }
  return mixed;
}

void PrintJsonStats(const char* name, const LatencyStats& s, bool trailing) {
  std::printf(
      "      \"%s\": {\"qps\": %.1f, \"mean_ms\": %.4f, \"p50_ms\": %.4f, "
      "\"p99_ms\": %.4f}%s\n",
      name, s.qps, s.mean_ms, s.p50_ms, s.p99_ms, trailing ? "," : "");
}

/// The measured graph: a tiny generated network in smoke mode, a dataset
/// stand-in otherwise. `graph` points at `smoke_graph` or the process-wide
/// dataset cache; keep the struct alive (and unmoved) while it is used.
struct BenchGraph {
  Graph smoke_graph;
  const Graph* graph = nullptr;
  std::string name;
};

bool SetupBenchGraph(const Config& config, BenchGraph* out) {
  if (config.smoke) {
    RoadNetworkOptions options;
    options.num_nodes = 300;
    options.seed = 42;
    auto g = GenerateRoadNetwork(options);
    if (!g.ok()) {
      std::fprintf(stderr, "smoke graph generation failed\n");
      return false;
    }
    out->smoke_graph = std::move(g).value();
    out->graph = &out->smoke_graph;
    out->name = "smoke";
  } else {
    out->graph = &DatasetGraph(config.dataset);
    out->name = DatasetName(config.dataset);
  }
  return true;
}

int Run(const Config& config) {
  BenchGraph bench_graph;
  if (!SetupBenchGraph(config, &bench_graph)) {
    return 1;
  }
  const Graph* graph = bench_graph.graph;
  const std::string& dataset_name = bench_graph.name;
  const size_t num_queries = config.smoke ? 12 : config.queries;
  const std::vector<Query> queries = MixedWorkload(*graph, num_queries);

  std::printf("{\n");
  std::printf("  \"bench\": \"throughput\",\n");
  std::printf("  \"dataset\": \"%s\",\n", dataset_name.c_str());
  std::printf("  \"nodes\": %zu,\n", graph->num_nodes());
  std::printf("  \"edges\": %zu,\n", graph->num_edges());
  std::printf("  \"queries\": %zu,\n", queries.size());
  std::printf("  \"smoke\": %s,\n", config.smoke ? "true" : "false");
  std::printf("  \"methods\": [\n");

  bool first = true;
  for (MethodKind method : kAllMethods) {
    EngineOptions options = DefaultEngineOptions(method);
    // Repeated Dijkstra beats Floyd-Warshall on these sparse graphs and
    // produces the identical distance matrix; this harness measures the
    // serving path, not the owner's offline trade-off.
    options.full_use_floyd_warshall = false;
    options.enable_proof_cache = config.proof_cache;
    auto engine = MakeEngine(*graph, options, OwnerKeys());
    if (!engine.ok()) {
      std::fprintf(stderr, "engine build failed: %s\n",
                   engine.status().ToString().c_str());
      return 1;
    }
    const MethodEngine& e = *engine.value();

    // Warm-up: fault in caches and the workspace arrays.
    SearchWorkspace ws;
    for (size_t i = 0; i < std::min<size_t>(3, queries.size()); ++i) {
      auto warm = e.Answer(queries[i], ws);
      if (!warm.ok()) {
        std::fprintf(stderr, "%s: warmup answer failed: %s\n",
                     std::string(e.name()).c_str(),
                     warm.status().ToString().c_str());
        return 1;
      }
    }

    // Serial fast path: one workspace reused across the stream.
    std::vector<ProofBundle> bundles;
    bundles.reserve(queries.size());
    std::vector<double> answer_ms;
    answer_ms.reserve(queries.size());
    WallTimer answer_total;
    for (const Query& q : queries) {
      WallTimer t;
      auto bundle = e.Answer(q, ws);
      answer_ms.push_back(t.ElapsedSeconds() * 1000);
      if (!bundle.ok()) {
        std::fprintf(stderr, "%s: answer failed: %s\n",
                     std::string(e.name()).c_str(),
                     bundle.status().ToString().c_str());
        return 1;
      }
      bundles.push_back(std::move(bundle).value());
    }
    const double answer_total_s = answer_total.ElapsedSeconds();

    // Serve the identical stream a second time. With the proof cache on
    // this is the all-hits path; either way the bytes must match the first
    // pass exactly (the answer pipeline is deterministic), which makes
    // cache-on runs prove byte-identical serving.
    std::vector<double> repeat_ms;
    repeat_ms.reserve(queries.size());
    WallTimer repeat_total;
    for (size_t i = 0; i < queries.size(); ++i) {
      WallTimer t;
      auto bundle = e.Answer(queries[i], ws);
      repeat_ms.push_back(t.ElapsedSeconds() * 1000);
      if (!bundle.ok()) {
        std::fprintf(stderr, "%s: repeat answer failed: %s\n",
                     std::string(e.name()).c_str(),
                     bundle.status().ToString().c_str());
        return 1;
      }
      if (bundle.value().bytes != bundles[i].bytes) {
        std::fprintf(stderr,
                     "%s: repeat answer bytes differ for query %zu "
                     "(proof cache %s)\n",
                     std::string(e.name()).c_str(), i,
                     config.proof_cache ? "on" : "off");
        return 1;
      }
    }
    const double repeat_total_s = repeat_total.ElapsedSeconds();

    // Digest of the served byte stream, for cross-run comparison (CI runs
    // the smoke with the cache off and on and fails on any difference).
    Hasher answers_hasher(HashAlgorithm::kSha1);
    double proof_bytes = 0;
    for (const ProofBundle& bundle : bundles) {
      answers_hasher.Update(bundle.bytes.data(), bundle.bytes.size());
      proof_bytes += static_cast<double>(bundle.stats.total_bytes());
    }
    const std::string answers_sha1 = answers_hasher.Finish().ToHex();

    // Client verification through the wire fast path (one reused
    // VerifyWorkspace); the harness aborts on any rejection so it can
    // never silently measure broken proofs.
    Client client(OwnerKeys().public_key());
    std::vector<double> verify_ms;
    verify_ms.reserve(queries.size());
    WallTimer verify_total;
    for (size_t i = 0; i < queries.size(); ++i) {
      WallTimer t;
      WireVerification result = client.Verify(queries[i], bundles[i].bytes);
      verify_ms.push_back(t.ElapsedSeconds() * 1000);
      if (!result.outcome.accepted) {
        std::fprintf(stderr, "%s: verification failed: %s\n",
                     std::string(e.name()).c_str(),
                     result.outcome.ToString().c_str());
        return 1;
      }
    }
    const double verify_total_s = verify_total.ElapsedSeconds();

    // Batched verification over the worker pool, one workspace per worker.
    std::vector<VerifyRequest> requests;
    requests.reserve(bundles.size());
    for (size_t i = 0; i < bundles.size(); ++i) {
      requests.push_back({queries[i], bundles[i].bytes});
    }
    WallTimer verify_batch_total;
    auto verify_batch = client.VerifyBatch(requests, config.threads);
    const double verify_batch_total_s = verify_batch_total.ElapsedSeconds();
    for (const WireVerification& result : verify_batch) {
      if (!result.outcome.accepted) {
        std::fprintf(stderr, "%s: batch verification failed: %s\n",
                     std::string(e.name()).c_str(),
                     result.outcome.ToString().c_str());
        return 1;
      }
    }

    // Batched serving through the worker pool.
    WallTimer batch_total;
    auto batch = e.AnswerBatch(queries, config.threads);
    const double batch_total_s = batch_total.ElapsedSeconds();
    for (const auto& r : batch) {
      if (!r.ok()) {
        std::fprintf(stderr, "%s: batch answer failed: %s\n",
                     std::string(e.name()).c_str(),
                     r.status().ToString().c_str());
        return 1;
      }
    }

    const ProofCacheStats cache = e.proof_cache_stats();
    std::printf("%s    {\n", first ? "" : ",\n");
    first = false;
    std::printf("      \"method\": \"%s\",\n",
                std::string(e.name()).c_str());
    std::printf("      \"construction_s\": %.4f,\n",
                e.construction_seconds());
    std::printf("      \"storage_bytes\": %zu,\n", e.storage_bytes());
    std::printf("      \"proof_bytes_mean\": %.1f,\n",
                proof_bytes / static_cast<double>(queries.size()));
    std::printf("      \"answers_sha1\": \"%s\",\n", answers_sha1.c_str());
    PrintJsonStats("answer", Summarize(answer_ms, answer_total_s), true);
    PrintJsonStats("answer_repeat", Summarize(repeat_ms, repeat_total_s),
                   true);
    PrintJsonStats("verify", Summarize(verify_ms, verify_total_s), true);
    std::printf("      \"verify_batch\": {\"qps\": %.1f},\n",
                verify_batch_total_s > 0
                    ? static_cast<double>(queries.size()) /
                          verify_batch_total_s
                    : 0.0);
    std::printf("      \"batch\": {\"qps\": %.1f},\n",
                batch_total_s > 0
                    ? static_cast<double>(queries.size()) / batch_total_s
                    : 0.0);
    std::printf(
        "      \"cache\": {\"enabled\": %s, \"hits\": %llu, "
        "\"misses\": %llu, \"hit_rate\": %.3f, \"hit_bytes\": %llu}\n",
        e.proof_cache_enabled() ? "true" : "false",
        static_cast<unsigned long long>(cache.hits),
        static_cast<unsigned long long>(cache.misses),
        cache.hit_rate(),
        static_cast<unsigned long long>(cache.hit_bytes));
    std::printf("    }");
  }
  std::printf("\n  ]\n}\n");
  return 0;
}

/// Sharded serving mode: N replicas behind a hash-of-source router, served
/// and verified through the zero-copy shared-bundle paths.
int RunSharded(const Config& config) {
  BenchGraph bench_graph;
  if (!SetupBenchGraph(config, &bench_graph)) {
    return 1;
  }
  const Graph* graph = bench_graph.graph;
  const size_t num_queries = config.smoke ? 12 : config.queries;
  const std::vector<Query> queries = MixedWorkload(*graph, num_queries);

  std::printf("{\n");
  std::printf("  \"bench\": \"throughput\",\n");
  std::printf("  \"dataset\": \"%s\",\n", bench_graph.name.c_str());
  std::printf("  \"nodes\": %zu,\n", graph->num_nodes());
  std::printf("  \"edges\": %zu,\n", graph->num_edges());
  std::printf("  \"queries\": %zu,\n", queries.size());
  std::printf("  \"smoke\": %s,\n", config.smoke ? "true" : "false");
  std::printf("  \"shards\": %zu,\n", config.shards);
  std::printf("  \"forest\": %s,\n", config.forest ? "true" : "false");
  std::printf("  \"methods\": [\n");

  bool first = true;
  for (MethodKind method : kAllMethods) {
    EngineOptions options = DefaultEngineOptions(method);
    options.full_use_floyd_warshall = false;
    options.enable_proof_cache = config.proof_cache;
    auto sharded = ShardedEngine::BuildReplicated(*graph, options,
                                                  config.shards, OwnerKeys());
    if (!sharded.ok()) {
      std::fprintf(stderr, "sharded engine build failed: %s\n",
                   sharded.status().ToString().c_str());
      return 1;
    }
    const ShardedEngine& e = *sharded.value();
    const std::string method_name(ToString(method));
    if (config.forest) {
      Status st = sharded.value()->EnableForestCertificates(OwnerKeys());
      if (!st.ok()) {
        std::fprintf(stderr, "%s: forest enable failed: %s\n",
                     method_name.c_str(), st.ToString().c_str());
        return 1;
      }
    }
    double construction_s = 0;
    size_t storage_bytes = 0;
    for (size_t s = 0; s < e.num_shards(); ++s) {
      construction_s += e.shard(s).construction_seconds();
      storage_bytes += e.shard(s).storage_bytes();
    }

    // Warm-up: fault in caches and the workspace arrays.
    SearchWorkspace ws;
    for (size_t i = 0; i < std::min<size_t>(3, queries.size()); ++i) {
      if (!e.Answer(queries[i], ws).ok()) {
        std::fprintf(stderr, "%s: sharded warmup answer failed\n",
                     method_name.c_str());
        return 1;
      }
    }

    // Serial pass through the front door, one reused workspace. Bundles
    // stay shared with the per-shard caches: no copies anywhere.
    std::vector<std::shared_ptr<const ProofBundle>> bundles;
    bundles.reserve(queries.size());
    std::vector<double> answer_ms;
    answer_ms.reserve(queries.size());
    WallTimer answer_total;
    for (const Query& q : queries) {
      WallTimer t;
      auto bundle = e.Answer(q, ws);
      answer_ms.push_back(t.ElapsedSeconds() * 1000);
      if (!bundle.ok()) {
        std::fprintf(stderr, "%s: sharded answer failed: %s\n",
                     method_name.c_str(),
                     bundle.status().ToString().c_str());
        return 1;
      }
      bundles.push_back(std::move(bundle).value());
    }
    const double answer_total_s = answer_total.ElapsedSeconds();

    // Repeat pass: bytes must match the first pass; with the proof cache
    // on, the bundle must be the *same object* (zero-copy hit), not an
    // equal copy.
    std::vector<double> repeat_ms;
    repeat_ms.reserve(queries.size());
    WallTimer repeat_total;
    for (size_t i = 0; i < queries.size(); ++i) {
      WallTimer t;
      auto bundle = e.Answer(queries[i], ws);
      repeat_ms.push_back(t.ElapsedSeconds() * 1000);
      if (!bundle.ok()) {
        std::fprintf(stderr, "%s: sharded repeat answer failed: %s\n",
                     method_name.c_str(),
                     bundle.status().ToString().c_str());
        return 1;
      }
      if (bundle.value()->bytes != bundles[i]->bytes) {
        std::fprintf(stderr,
                     "%s: sharded repeat answer bytes differ for query %zu\n",
                     method_name.c_str(), i);
        return 1;
      }
      if (config.proof_cache && bundle.value().get() != bundles[i].get()) {
        std::fprintf(stderr,
                     "%s: cache hit copied the bundle for query %zu "
                     "(zero-copy regression)\n",
                     method_name.c_str(), i);
        return 1;
      }
    }
    const double repeat_total_s = repeat_total.ElapsedSeconds();

    // Digest of the served byte stream, straight from the shared bundles;
    // CI compares this against a --shards 1 run.
    Hasher answers_hasher(HashAlgorithm::kSha1);
    double proof_bytes = 0;
    for (const auto& bundle : bundles) {
      answers_hasher.Update(bundle->bytes.data(), bundle->bytes.size());
      proof_bytes += static_cast<double>(bundle->stats.total_bytes());
    }
    const std::string answers_sha1 = answers_hasher.Finish().ToHex();

    // Serial client verification from the shared bundles.
    Client client(OwnerKeys().public_key());
    std::vector<double> verify_ms;
    verify_ms.reserve(queries.size());
    WallTimer verify_total;
    for (size_t i = 0; i < queries.size(); ++i) {
      WallTimer t;
      WireVerification result = client.Verify(queries[i], bundles[i]->bytes);
      verify_ms.push_back(t.ElapsedSeconds() * 1000);
      if (!result.outcome.accepted) {
        std::fprintf(stderr, "%s: sharded verification failed: %s\n",
                     method_name.c_str(),
                     result.outcome.ToString().c_str());
        return 1;
      }
    }
    const double verify_total_s = verify_total.ElapsedSeconds();

    // Batch verify, each message attributed to the shard that served it.
    std::vector<VerifyRequest> requests;
    requests.reserve(queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      requests.push_back(
          {queries[i], bundles[i]->bytes, e.RouteOf(queries[i])});
    }
    WallTimer verify_batch_total;
    auto verify_batch = client.VerifyBatch(requests, config.threads);
    const double verify_batch_total_s = verify_batch_total.ElapsedSeconds();
    for (const WireVerification& result : verify_batch) {
      if (!result.outcome.accepted) {
        std::fprintf(stderr, "%s: sharded batch verification failed: %s\n",
                     method_name.c_str(),
                     result.outcome.ToString().c_str());
        return 1;
      }
    }

    // Batched serving fanned across shards on the worker pool.
    WallTimer batch_total;
    auto batch = e.AnswerBatch(queries, config.threads);
    const double batch_total_s = batch_total.ElapsedSeconds();
    for (const auto& r : batch) {
      if (!r.ok()) {
        std::fprintf(stderr, "%s: sharded batch answer failed: %s\n",
                     method_name.c_str(), r.status().ToString().c_str());
        return 1;
      }
    }

    // Forest-mode verification: ONE RSA verify anchors the fleet epoch,
    // then the whole batch replays hash-only forest paths. A DIJ fleet
    // rotation afterwards must publish with exactly one signature
    // regardless of fleet size, and re-accepting the new epoch costs the
    // client exactly one more verify. All four invariants are strict.
    uint64_t forest_accept_verifies = 0;
    uint64_t forest_batch_verifies = 0;
    uint64_t forest_rotation_signatures = 0;
    uint64_t forest_reaccept_verifies = 0;
    uint32_t forest_epoch = 0;
    uint32_t forest_epoch_after = 0;
    bool forest_rotated = false;
    if (config.forest) {
      auto fleet = e.forest();
      if (fleet == nullptr) {
        std::fprintf(stderr, "%s: forest mode has no fleet certificate\n",
                     method_name.c_str());
        return 1;
      }
      forest_epoch = fleet->certificate.params.fleet_epoch;
      Client forest_client(OwnerKeys().public_key());
      const uint64_t before_accept = RsaVerifyOps();
      Status accepted =
          forest_client.AcceptForestCertificate(fleet->certificate);
      forest_accept_verifies = RsaVerifyOps() - before_accept;
      if (!accepted.ok()) {
        std::fprintf(stderr, "%s: forest certificate refused: %s\n",
                     method_name.c_str(), accepted.ToString().c_str());
        return 1;
      }
      // Encode each routing group's root-to-shard path once; every
      // answer served by that group reuses the same encoding.
      std::vector<std::vector<uint8_t>> encoded_paths;
      encoded_paths.reserve(fleet->paths.size());
      for (const ForestPath& path : fleet->paths) {
        ByteWriter w;
        path.Serialize(&w);
        encoded_paths.push_back(w.TakeBytes());
      }
      for (VerifyRequest& request : requests) {
        request.forest_path = encoded_paths[request.shard];
      }
      const uint64_t before_batch = RsaVerifyOps();
      auto forest_batch =
          forest_client.VerifyBatch(requests, config.threads);
      forest_batch_verifies = RsaVerifyOps() - before_batch;
      for (const WireVerification& result : forest_batch) {
        if (!result.outcome.accepted) {
          std::fprintf(stderr, "%s: forest batch verification failed: %s\n",
                       method_name.c_str(),
                       result.outcome.ToString().c_str());
          return 1;
        }
      }
      if (forest_accept_verifies != 1 || forest_batch_verifies != 0) {
        std::fprintf(stderr,
                     "%s: forest amortization broke: %llu accept / %llu "
                     "batch RSA verifies (want 1 / 0)\n",
                     method_name.c_str(),
                     static_cast<unsigned long long>(forest_accept_verifies),
                     static_cast<unsigned long long>(forest_batch_verifies));
        return 1;
      }
      // One fleet rotation — DIJ only; the other methods rebuild on
      // weight change. N shards, ONE signature.
      if (method == MethodKind::kDij) {
        std::vector<StructuralUpdate> rot_updates;
        Rng rng(kWorkloadSeed + 7);
        for (NodeId n = 0;
             n < graph->num_nodes() && rot_updates.size() < 4; ++n) {
          for (const Edge& edge : graph->Neighbors(n)) {
            if (n < edge.to && rot_updates.size() < 4) {
              rot_updates.push_back(StructuralUpdate::SetWeight(
                  n, edge.to, edge.weight * rng.NextDoubleIn(0.6, 1.8)));
            }
          }
        }
        const uint64_t before_signs = RsaSignOps();
        auto version = sharded.value()->ApplyUpdatesAllShards(OwnerKeys(),
                                                              rot_updates);
        forest_rotation_signatures = RsaSignOps() - before_signs;
        if (!version.ok()) {
          std::fprintf(stderr, "%s: forest fleet rotation failed: %s\n",
                       method_name.c_str(),
                       version.status().ToString().c_str());
          return 1;
        }
        forest_rotated = true;
        const uint64_t before_reaccept = RsaVerifyOps();
        Status reaccepted =
            forest_client.AcceptForestCertificate(e.forest()->certificate);
        forest_reaccept_verifies = RsaVerifyOps() - before_reaccept;
        if (!reaccepted.ok()) {
          std::fprintf(stderr, "%s: rotated forest certificate refused: %s\n",
                       method_name.c_str(), reaccepted.ToString().c_str());
          return 1;
        }
        if (forest_rotation_signatures != 1 ||
            forest_reaccept_verifies != 1) {
          std::fprintf(
              stderr,
              "%s: fleet rotation signed %llu times / re-accept cost %llu "
              "verifies (want 1 / 1)\n",
              method_name.c_str(),
              static_cast<unsigned long long>(forest_rotation_signatures),
              static_cast<unsigned long long>(forest_reaccept_verifies));
          return 1;
        }
      }
      forest_epoch_after = e.fleet_epoch();
    }

    const ShardedStats stats = e.GetStats();
    // Strict exit: the per-answer checks above should have caught any
    // error Status already, but the shard books are the ground truth — a
    // failure recorded anywhere in the fleet fails the run.
    if (stats.totals.failures != 0 || stats.totals.update_failures != 0) {
      std::fprintf(stderr,
                   "%s: shard stats record %llu answer / %llu update "
                   "failures\n",
                   method_name.c_str(),
                   static_cast<unsigned long long>(stats.totals.failures),
                   static_cast<unsigned long long>(
                       stats.totals.update_failures));
      return 1;
    }
    std::printf("%s    {\n", first ? "" : ",\n");
    first = false;
    std::printf("      \"method\": \"%s\",\n", method_name.c_str());
    std::printf("      \"construction_s\": %.4f,\n", construction_s);
    std::printf("      \"storage_bytes\": %zu,\n", storage_bytes);
    std::printf("      \"proof_bytes_mean\": %.1f,\n",
                proof_bytes / static_cast<double>(queries.size()));
    std::printf("      \"answers_sha1\": \"%s\",\n", answers_sha1.c_str());
    PrintJsonStats("answer", Summarize(answer_ms, answer_total_s), true);
    PrintJsonStats("answer_repeat", Summarize(repeat_ms, repeat_total_s),
                   true);
    PrintJsonStats("verify", Summarize(verify_ms, verify_total_s), true);
    std::printf("      \"verify_batch\": {\"qps\": %.1f},\n",
                verify_batch_total_s > 0
                    ? static_cast<double>(queries.size()) /
                          verify_batch_total_s
                    : 0.0);
    std::printf("      \"batch\": {\"qps\": %.1f},\n",
                batch_total_s > 0
                    ? static_cast<double>(queries.size()) / batch_total_s
                    : 0.0);
    std::printf(
        "      \"cache\": {\"enabled\": %s, \"hits\": %llu, "
        "\"misses\": %llu, \"hit_rate\": %.3f, \"hit_bytes\": %llu},\n",
        config.proof_cache ? "true" : "false",
        static_cast<unsigned long long>(stats.totals.cache.hits),
        static_cast<unsigned long long>(stats.totals.cache.misses),
        stats.totals.cache.hit_rate(),
        static_cast<unsigned long long>(stats.totals.cache.hit_bytes));
    if (config.forest) {
      std::printf(
          "      \"forest\": {\"enabled\": true, \"fleet_epoch\": %u, "
          "\"accept_rsa_verifies\": %llu, \"batch_rsa_verifies\": %llu, "
          "\"rotation_performed\": %s, \"rotation_signatures\": %llu, "
          "\"reaccept_rsa_verifies\": %llu, \"fleet_epoch_after\": %u},\n",
          forest_epoch,
          static_cast<unsigned long long>(forest_accept_verifies),
          static_cast<unsigned long long>(forest_batch_verifies),
          forest_rotated ? "true" : "false",
          static_cast<unsigned long long>(forest_rotation_signatures),
          static_cast<unsigned long long>(forest_reaccept_verifies),
          forest_epoch_after);
    }
    std::printf("      \"shard_stats\": [\n");
    for (size_t s = 0; s < stats.shards.size(); ++s) {
      const ShardStats& shard = stats.shards[s];
      std::printf(
          "        {\"shard\": %zu, \"queries\": %llu, \"failures\": %llu, "
          "\"answer_micros\": %llu, \"cache_hits\": %llu, "
          "\"cache_misses\": %llu, \"cache_entries\": %zu}%s\n",
          s, static_cast<unsigned long long>(shard.queries),
          static_cast<unsigned long long>(shard.failures),
          static_cast<unsigned long long>(shard.answer_micros),
          static_cast<unsigned long long>(shard.cache.hits),
          static_cast<unsigned long long>(shard.cache.misses),
          shard.cache.entries, s + 1 < stats.shards.size() ? "," : "");
    }
    std::printf("      ]\n");
    std::printf("    }");
  }
  std::printf("\n  ]\n}\n");
  return 0;
}

/// Live-update mode: owner updates stream through snapshot rotation while
/// serving continues (or first, with --updates-first, for the quiesced
/// baseline CI compares against). DIJ only — the other methods rebuild.
int RunLiveUpdates(const Config& config) {
  BenchGraph bench_graph;
  if (!SetupBenchGraph(config, &bench_graph)) {
    return 1;
  }
  const Graph* graph = bench_graph.graph;
  const size_t num_queries = config.smoke ? 12 : config.queries;
  const std::vector<Query> queries = MixedWorkload(*graph, num_queries);
  const size_t num_updates =
      config.updates > 0 ? config.updates : (config.smoke ? 8 : 16);
  const size_t num_shards = std::max<size_t>(config.shards, 1);

  EngineOptions options = DefaultEngineOptions(MethodKind::kDij);
  options.enable_proof_cache = config.proof_cache;
  auto sharded = ShardedEngine::BuildReplicated(*graph, options, num_shards,
                                                OwnerKeys());
  if (!sharded.ok()) {
    std::fprintf(stderr, "engine build failed: %s\n",
                 sharded.status().ToString().c_str());
    return 1;
  }
  ShardedEngine& e = *sharded.value();

  // Seeded owner update stream: existing edges re-weighted relative to
  // their original weight. One writer applies them in order, so the final
  // graph (and therefore the final-pass digest) is independent of how the
  // stream interleaves with serving.
  std::vector<StructuralUpdate> updates;
  {
    std::vector<EdgeWeightUpdate> edges;
    for (NodeId n = 0; n < graph->num_nodes(); ++n) {
      for (const Edge& edge : graph->Neighbors(n)) {
        if (n < edge.to) {
          edges.push_back({n, edge.to, edge.weight});
        }
      }
    }
    Rng rng(kWorkloadSeed + 99);
    updates.reserve(num_updates);
    for (size_t i = 0; i < num_updates; ++i) {
      const EdgeWeightUpdate& edge = edges[rng.NextBounded(edges.size())];
      updates.push_back(StructuralUpdate::SetWeight(
          edge.u, edge.v, edge.new_weight * rng.NextDoubleIn(0.6, 1.8)));
    }
  }

  auto drain_depth = [&e] {
    size_t depth = 0;
    for (size_t s = 0; s < e.num_shards(); ++s) {
      depth = std::max(depth, e.shard(s).live_snapshots());
    }
    return depth;
  };

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> mixed_answers{0};
  std::atomic<uint64_t> mixed_failures{0};
  // Starts at 0 so the reported maximum proves sampling actually ran
  // (live_snapshots() is >= 1 on any live engine; CI asserts >= 1).
  std::atomic<size_t> drain_max{0};
  auto bump_drain = [&] {
    const size_t depth = drain_depth();
    size_t seen = drain_max.load(std::memory_order_relaxed);
    while (depth > seen &&
           !drain_max.compare_exchange_weak(seen, depth)) {
    }
  };

  // Serving thread for the mixed phase (idle in --updates-first mode).
  double mixed_serve_s = 0;
  std::thread server;
  WallTimer mixed_timer;
  if (!config.updates_first) {
    server = std::thread([&] {
      while (!stop.load(std::memory_order_acquire)) {
        auto batch = e.AnswerBatch(queries, config.threads);
        for (const auto& r : batch) {
          (r.ok() ? mixed_answers : mixed_failures).fetch_add(1);
        }
        bump_drain();
      }
    });
  }

  // Owner update stream, paced at --update-rate and absorbed in batches
  // of --update-batch edges per rotation (one clone + one signature each).
  const size_t batch_size = std::max<size_t>(config.update_batch, 1);
  std::vector<double> update_ms;  // per-rotation latency
  update_ms.reserve((updates.size() + batch_size - 1) / batch_size);
  size_t update_failures = 0;
  size_t rotations = 0;
  uint32_t final_version = 0;
  const std::chrono::duration<double> pause(
      config.update_rate > 0 ? 1.0 / config.update_rate : 0.0);
  for (size_t i = 0; i < updates.size(); i += batch_size) {
    const size_t end = std::min(updates.size(), i + batch_size);
    const std::span<const StructuralUpdate> batch(updates.data() + i,
                                                  end - i);
    WallTimer t;
    auto version = e.ApplyUpdatesAllShards(OwnerKeys(), batch);
    update_ms.push_back(t.ElapsedSeconds() * 1000);
    if (version.ok()) {
      final_version = version.value();
      ++rotations;  // only successful publishes feed per_rotation_mean
    } else {
      ++update_failures;
    }
    bump_drain();
    if (pause.count() > 0) {
      std::this_thread::sleep_for(pause);
    }
  }
  if (server.joinable()) {
    stop.store(true, std::memory_order_release);
    server.join();
    mixed_serve_s = mixed_timer.ElapsedSeconds();
  }
  if (update_failures > 0) {
    std::fprintf(stderr, "%zu updates failed\n", update_failures);
    return 1;
  }
  if (final_version != num_updates) {
    std::fprintf(stderr, "final version %u != %zu updates\n", final_version,
                 num_updates);
    return 1;
  }

  // Final serial pass at the final certificate version: every answer must
  // verify fresh under a version-tracking client, and the digest must be
  // identical between the mixed and quiesced modes.
  SearchWorkspace ws;
  Client client(OwnerKeys().public_key());
  client.TrackShardVersions(e.num_shards());
  Hasher answers_hasher(HashAlgorithm::kSha1);
  std::vector<double> final_ms;
  final_ms.reserve(queries.size());
  WallTimer final_total;
  for (const Query& q : queries) {
    WallTimer t;
    auto bundle = e.Answer(q, ws);
    final_ms.push_back(t.ElapsedSeconds() * 1000);
    if (!bundle.ok()) {
      std::fprintf(stderr, "final-pass answer failed: %s\n",
                   bundle.status().ToString().c_str());
      return 1;
    }
    const WireVerification result =
        client.Verify(q, bundle.value()->bytes, e.RouteOf(q));
    if (!result.outcome.accepted || result.version != final_version) {
      std::fprintf(stderr, "final-pass verification failed (version %u): %s\n",
                   result.version, result.outcome.ToString().c_str());
      return 1;
    }
    answers_hasher.Update(bundle.value()->bytes.data(),
                          bundle.value()->bytes.size());
  }
  const double final_total_s = final_total.ElapsedSeconds();

  const ShardedStats stats = e.GetStats();
  // Strict exit: any error Status booked anywhere in the fleet — a mixed-
  // phase answer the serving thread saw fail, or an update failure the
  // per-call check somehow let through — fails the run before it prints.
  if (stats.totals.failures != 0 || stats.totals.update_failures != 0) {
    std::fprintf(stderr,
                 "live-update: shard stats record %llu answer / %llu update "
                 "failures\n",
                 static_cast<unsigned long long>(stats.totals.failures),
                 static_cast<unsigned long long>(stats.totals.update_failures));
    return 1;
  }
  const LatencyStats update_stats =
      Summarize(update_ms, 0);  // latency only; rate is the pacing knob
  std::printf("{\n");
  std::printf("  \"bench\": \"throughput\",\n");
  std::printf("  \"mode\": \"live-update\",\n");
  std::printf("  \"dataset\": \"%s\",\n", bench_graph.name.c_str());
  std::printf("  \"nodes\": %zu,\n", graph->num_nodes());
  std::printf("  \"edges\": %zu,\n", graph->num_edges());
  std::printf("  \"queries\": %zu,\n", queries.size());
  std::printf("  \"smoke\": %s,\n", config.smoke ? "true" : "false");
  std::printf("  \"shards\": %zu,\n", num_shards);
  std::printf("  \"method\": \"dij\",\n");
  // Copy-on-write accounting: what the structurally shared rotations
  // actually copied, next to what a PR-4-style full clone would have
  // copied per rotation (graph payload + ADS storage). Replicas rotate in
  // lock-step, so per-shard totals agree; the reported figure is the max
  // over shards (NOT a sum — the JSON key says so) so a straggling or
  // failed shard can never make the fleet look cheaper than its worst
  // member.
  uint64_t clone_bytes_per_shard = 0;
  for (const ShardStats& shard : stats.shards) {
    clone_bytes_per_shard =
        std::max(clone_bytes_per_shard, shard.rotation_clone_bytes);
  }
  const double clone_bytes_per_rotation =
      rotations > 0 ? static_cast<double>(clone_bytes_per_shard) /
                          static_cast<double>(rotations)
                    : 0.0;
  const size_t full_clone_baseline =
      graph->MemoryFootprintBytes() + e.shard(0).storage_bytes();
  std::printf("  \"update\": {\n");
  std::printf("    \"mode\": \"%s\",\n",
              config.updates_first ? "quiesced" : "mixed");
  std::printf("    \"rate_per_s\": %.1f,\n", config.update_rate);
  std::printf("    \"applied\": %zu,\n", updates.size());
  std::printf("    \"batch\": %zu,\n", batch_size);
  std::printf("    \"rotations\": %zu,\n", rotations);
  std::printf("    \"final_version\": %u,\n", final_version);
  std::printf(
      "    \"latency_ms\": {\"mean\": %.4f, \"p50\": %.4f, \"p99\": %.4f},\n",
      update_stats.mean_ms, update_stats.p50_ms, update_stats.p99_ms);
  std::printf(
      "    \"rotation_clone_bytes\": {\"per_shard_max\": %llu, "
      "\"per_rotation_mean\": %.1f, \"full_clone_baseline\": %zu},\n",
      static_cast<unsigned long long>(clone_bytes_per_shard),
      clone_bytes_per_rotation, full_clone_baseline);
  std::printf("    \"snapshot_drain_depth_max\": %zu,\n",
              drain_max.load(std::memory_order_relaxed));
  std::printf(
      "    \"mixed_serve\": {\"answers\": %llu, \"failures\": %llu, "
      "\"qps\": %.1f}\n",
      static_cast<unsigned long long>(mixed_answers.load()),
      static_cast<unsigned long long>(mixed_failures.load()),
      mixed_serve_s > 0
          ? static_cast<double>(mixed_answers.load()) / mixed_serve_s
          : 0.0);
  std::printf("  },\n");
  std::printf("  \"answers_sha1\": \"%s\",\n",
              answers_hasher.Finish().ToHex().c_str());
  PrintJsonStats("final_pass", Summarize(final_ms, final_total_s), true);
  std::printf(
      "  \"cache\": {\"enabled\": %s, \"hits\": %llu, \"misses\": %llu, "
      "\"cleared\": %llu},\n",
      config.proof_cache ? "true" : "false",
      static_cast<unsigned long long>(stats.totals.cache.hits),
      static_cast<unsigned long long>(stats.totals.cache.misses),
      static_cast<unsigned long long>(stats.totals.cache.cleared));
  std::printf("  \"updates_total\": %llu\n",
              static_cast<unsigned long long>(stats.totals.updates));
  std::printf("}\n");
  return mixed_failures.load() == 0 ? 0 : 1;
}

/// Coalescing-queue storm mode: a seeded mixed update storm driven through
/// the owner queue under a synthetic clock. See the file comment for the
/// phase structure, assertions and JSON schema.
int RunUpdateStorm(const Config& config) {
  BenchGraph bench_graph;
  if (!SetupBenchGraph(config, &bench_graph)) {
    return 1;
  }
  const Graph* graph = bench_graph.graph;
  const size_t num_queries = config.smoke ? 12 : config.queries;
  const std::vector<Query> queries = MixedWorkload(*graph, num_queries);
  const size_t burst_ops =
      config.updates > 0 ? config.updates : (config.smoke ? 24 : 96);
  // A max_batch of 1 cannot coalesce; a bare --update-storm means "show me
  // the queue working", so default the knob to a batch that can.
  const size_t batch =
      config.update_batch > 1 ? config.update_batch : 8;
  const size_t num_shards = std::max<size_t>(config.shards, 1);

  EngineOptions options = DefaultEngineOptions(MethodKind::kDij);
  options.enable_proof_cache = config.proof_cache;
  auto sharded = ShardedEngine::BuildReplicated(*graph, options, num_shards,
                                                OwnerKeys());
  if (!sharded.ok()) {
    std::fprintf(stderr, "engine build failed: %s\n",
                 sharded.status().ToString().c_str());
    return 1;
  }
  ShardedEngine& e = *sharded.value();
  UpdateQueueOptions queue_options;
  queue_options.max_batch = batch;
  queue_options.max_staleness_micros = config.staleness_us;
  // One fleet-wide queue when replicated: a flush rotates every shard in
  // lock-step, so the replicas stay byte-transparent through the storm.
  auto enabled = e.EnableUpdateQueues(queue_options, num_shards > 1);
  if (!enabled.ok()) {
    std::fprintf(stderr, "EnableUpdateQueues failed: %s\n",
                 enabled.ToString().c_str());
    return 1;
  }

  // The seeded storm material: existing edges to re-weight.
  std::vector<EdgeWeightUpdate> edges;
  for (NodeId n = 0; n < graph->num_nodes(); ++n) {
    for (const Edge& edge : graph->Neighbors(n)) {
      if (n < edge.to) {
        edges.push_back({n, edge.to, edge.weight});
      }
    }
  }
  Rng rng(kWorkloadSeed + 777);
  const uint64_t signs_before = RsaSignOps();
  uint64_t now_us = 0;  // the synthetic clock — never wall time
  WallTimer storm_timer;

  // Phase 1 — the burst: back-to-back weight updates, coalesced purely by
  // the count trigger. Arrivals 7us apart stay far inside the staleness
  // bound, so every rotation is a full (or the one final partial) batch.
  for (size_t i = 0; i < burst_ops; ++i) {
    const EdgeWeightUpdate& edge = edges[rng.NextBounded(edges.size())];
    const StructuralUpdate update = StructuralUpdate::SetWeight(
        edge.u, edge.v, edge.new_weight * rng.NextDoubleIn(0.6, 1.8));
    auto flushed = e.Enqueue(0, OwnerKeys(), update, now_us);
    if (!flushed.ok()) {
      std::fprintf(stderr, "enqueue failed: %s\n",
                   flushed.status().ToString().c_str());
      return 1;
    }
    now_us += 7;
  }
  auto drained = e.DrainUpdateQueues(OwnerKeys(), now_us);
  if (!drained.ok()) {
    std::fprintf(stderr, "drain failed: %s\n",
                 drained.status().ToString().c_str());
    return 1;
  }
  const UpdateQueueStats burst_stats = e.update_queue_stats(0);
  const size_t burst_ceiling = (burst_ops + batch - 1) / batch;
  if (burst_stats.rotations > burst_ceiling) {
    std::fprintf(stderr, "burst did not coalesce: %llu rotations > ceil(%zu/%zu)\n",
                 static_cast<unsigned long long>(burst_stats.rotations),
                 burst_ops, batch);
    return 1;
  }

  // Phase 2 — the trickle: sparse mixed arrivals (weight + structural)
  // that idle past the staleness bound, so the TIME trigger drains them.
  // Each cycle grows the network by one wired-in vertex.
  const size_t trickle_cycles = 2;
  size_t structural_ops = 0;
  for (size_t cycle = 0; cycle < trickle_cycles; ++cycle) {
    const EdgeWeightUpdate& edge = edges[rng.NextBounded(edges.size())];
    auto ok = e.Enqueue(0, OwnerKeys(),
                        StructuralUpdate::SetWeight(
                            edge.u, edge.v,
                            edge.new_weight * rng.NextDoubleIn(0.6, 1.8)),
                        now_us);
    if (!ok.ok()) {
      std::fprintf(stderr, "enqueue failed: %s\n",
                   ok.status().ToString().c_str());
      return 1;
    }
    const NodeId fresh =
        static_cast<NodeId>(graph->num_nodes() + cycle);
    const StructuralUpdate grow[] = {
        StructuralUpdate::AddVertex(rng.NextDoubleIn(0.0, 1000.0),
                                    rng.NextDoubleIn(0.0, 1000.0)),
        StructuralUpdate::AddEdge(
            fresh, static_cast<NodeId>(rng.NextBounded(graph->num_nodes())),
            rng.NextDoubleIn(10.0, 400.0)),
    };
    for (const StructuralUpdate& op : grow) {
      auto queued = e.Enqueue(0, OwnerKeys(), op, now_us);
      if (!queued.ok()) {
        std::fprintf(stderr, "structural enqueue failed: %s\n",
                     queued.status().ToString().c_str());
        return 1;
      }
      ++structural_ops;
    }
    // The owner goes idle; the next timer tick finds the oldest op at
    // exactly the staleness bound and drains the queue.
    now_us += config.staleness_us;
    auto polled = e.PollUpdateQueues(OwnerKeys(), now_us);
    if (!polled.ok()) {
      std::fprintf(stderr, "poll failed: %s\n",
                   polled.status().ToString().c_str());
      return 1;
    }
    if (polled.value() == 0) {
      std::fprintf(stderr, "staleness trigger never fired\n");
      return 1;
    }
  }
  const double storm_s = storm_timer.ElapsedSeconds();

  const UpdateQueueStats qstats = e.update_queue_stats(0);
  const uint64_t signatures = RsaSignOps() - signs_before;
  const size_t total_ops = burst_ops + trickle_cycles + structural_ops;
  if (qstats.enqueued != total_ops || qstats.flushed_ops != total_ops) {
    std::fprintf(stderr, "queue lost ops: enqueued %llu flushed %llu of %zu\n",
                 static_cast<unsigned long long>(qstats.enqueued),
                 static_cast<unsigned long long>(qstats.flushed_ops),
                 total_ops);
    return 1;
  }
  // The headline claims, asserted before printing: the storm coalesced,
  // every rotation cost exactly one signature per shard, and the lag
  // gauge respected the bound.
  if (!(qstats.CoalescingRatio() > 1.0)) {
    std::fprintf(stderr, "coalescing ratio %.3f is not > 1\n",
                 qstats.CoalescingRatio());
    return 1;
  }
  if (signatures != qstats.rotations * num_shards) {
    std::fprintf(stderr, "%llu signatures for %llu rotations x %zu shards\n",
                 static_cast<unsigned long long>(signatures),
                 static_cast<unsigned long long>(qstats.rotations),
                 num_shards);
    return 1;
  }
  if (qstats.max_lag_micros > config.staleness_us) {
    std::fprintf(stderr, "staleness lag %llu exceeds the %llu bound\n",
                 static_cast<unsigned long long>(qstats.max_lag_micros),
                 static_cast<unsigned long long>(config.staleness_us));
    return 1;
  }

  // Final verified pass at the post-storm version: the grown network
  // serves sound answers from every route.
  const uint32_t final_version = e.shard(0).certificate().params.version;
  if (final_version != total_ops) {
    std::fprintf(stderr, "final version %u != %zu ops\n", final_version,
                 total_ops);
    return 1;
  }
  SearchWorkspace ws;
  Client client(OwnerKeys().public_key());
  client.TrackShardVersions(e.num_shards());
  Hasher answers_hasher(HashAlgorithm::kSha1);
  std::vector<double> final_ms;
  final_ms.reserve(queries.size());
  WallTimer final_total;
  for (const Query& q : queries) {
    WallTimer t;
    auto bundle = e.Answer(q, ws);
    final_ms.push_back(t.ElapsedSeconds() * 1000);
    if (!bundle.ok()) {
      std::fprintf(stderr, "final-pass answer failed: %s\n",
                   bundle.status().ToString().c_str());
      return 1;
    }
    const WireVerification result =
        client.Verify(q, bundle.value()->bytes, e.RouteOf(q));
    if (!result.outcome.accepted || result.version != final_version) {
      std::fprintf(stderr, "final-pass verification failed (version %u): %s\n",
                   result.version, result.outcome.ToString().c_str());
      return 1;
    }
    answers_hasher.Update(bundle.value()->bytes.data(),
                          bundle.value()->bytes.size());
  }
  const double final_total_s = final_total.ElapsedSeconds();

  const ShardedStats stats = e.GetStats();
  if (stats.totals.failures != 0 || stats.totals.update_failures != 0) {
    std::fprintf(stderr, "storm booked %llu answer / %llu update failures\n",
                 static_cast<unsigned long long>(stats.totals.failures),
                 static_cast<unsigned long long>(stats.totals.update_failures));
    return 1;
  }
  std::printf("{\n");
  std::printf("  \"bench\": \"throughput\",\n");
  std::printf("  \"mode\": \"update-storm\",\n");
  std::printf("  \"dataset\": \"%s\",\n", bench_graph.name.c_str());
  std::printf("  \"nodes\": %zu,\n", graph->num_nodes());
  std::printf("  \"edges\": %zu,\n", graph->num_edges());
  std::printf("  \"queries\": %zu,\n", queries.size());
  std::printf("  \"smoke\": %s,\n", config.smoke ? "true" : "false");
  std::printf("  \"shards\": %zu,\n", num_shards);
  std::printf("  \"method\": \"dij\",\n");
  std::printf("  \"storm\": {\n");
  std::printf("    \"enqueued\": %llu,\n",
              static_cast<unsigned long long>(qstats.enqueued));
  std::printf("    \"weight_ops\": %zu,\n", burst_ops + trickle_cycles);
  std::printf("    \"structural_ops\": %zu,\n", structural_ops);
  std::printf("    \"batch\": %zu,\n", batch);
  std::printf("    \"rotations\": %llu,\n",
              static_cast<unsigned long long>(qstats.rotations));
  std::printf("    \"signatures\": %llu,\n",
              static_cast<unsigned long long>(signatures));
  std::printf("    \"flushes\": %llu,\n",
              static_cast<unsigned long long>(qstats.flushes));
  std::printf("    \"coalescing_ratio\": %.3f,\n", qstats.CoalescingRatio());
  std::printf(
      "    \"burst\": {\"ops\": %zu, \"rotations\": %llu, \"ceiling\": %zu},\n",
      burst_ops, static_cast<unsigned long long>(burst_stats.rotations),
      burst_ceiling);
  std::printf(
      "    \"staleness_lag_us\": {\"max\": %llu, \"bound\": %llu},\n",
      static_cast<unsigned long long>(qstats.max_lag_micros),
      static_cast<unsigned long long>(config.staleness_us));
  std::printf("    \"final_version\": %u,\n", final_version);
  std::printf("    \"storm_wall_s\": %.4f\n", storm_s);
  std::printf("  },\n");
  std::printf("  \"answers_sha1\": \"%s\",\n",
              answers_hasher.Finish().ToHex().c_str());
  const LatencyStats final_stats = Summarize(final_ms, final_total_s);
  std::printf(
      "  \"final_pass\": {\"qps\": %.1f, \"mean_ms\": %.4f, \"p50_ms\": %.4f, "
      "\"p99_ms\": %.4f},\n",
      final_stats.qps, final_stats.mean_ms, final_stats.p50_ms,
      final_stats.p99_ms);
  std::printf("  \"updates_total\": %llu\n",
              static_cast<unsigned long long>(stats.totals.updates));
  std::printf("}\n");
  return 0;
}

/// Chaos mode: serving under seeded fault injection through the failover
/// plane (DIJ only — phase 2 needs the incremental-update story). See the
/// file comment for the phase structure and exit policy.
int RunChaos(const Config& config) {
  if (!FailPointsCompiledIn()) {
    std::fprintf(stderr,
                 "--fault-rate needs a build with -DSPAUTH_FAILPOINTS=ON\n");
    return 2;
  }
  BenchGraph bench_graph;
  if (!SetupBenchGraph(config, &bench_graph)) {
    return 1;
  }
  const Graph* graph = bench_graph.graph;
  const size_t num_queries = config.smoke ? 12 : config.queries;
  const std::vector<Query> queries = MixedWorkload(*graph, num_queries);
  const size_t num_groups = std::max<size_t>(config.shards, 2);
  const size_t fault_passes = config.smoke ? 50 : 20;

  EngineOptions options = DefaultEngineOptions(MethodKind::kDij);
  options.enable_proof_cache = config.proof_cache;
  FailoverOptions failover;
  failover.replicas_per_group = config.replicas;
  failover.max_attempts = 4;
  failover.backoff_base_us = 50;
  failover.deadline_us =
      static_cast<uint64_t>(config.deadline_ms * 1000.0);
  failover.jitter_seed = kWorkloadSeed + 11;
  failover.enable_breakers = true;
  auto sharded = ShardedEngine::BuildReplicated(*graph, options, num_groups,
                                                OwnerKeys(), failover);
  if (!sharded.ok()) {
    std::fprintf(stderr, "chaos engine build failed: %s\n",
                 sharded.status().ToString().c_str());
    return 1;
  }
  ShardedEngine& e = *sharded.value();

  // Fault-free reference pass: replicas of one network answer
  // byte-identically, so every OK answer under injection must match these
  // bytes exactly — failover must be transparent, not approximately right.
  std::vector<std::vector<uint8_t>> reference(queries.size());
  {
    auto batch = e.AnswerBatch(queries, config.threads);
    for (size_t i = 0; i < batch.size(); ++i) {
      if (!batch[i].ok()) {
        std::fprintf(stderr, "chaos: fault-free reference answer failed: %s\n",
                     batch[i].status().ToString().c_str());
        return 1;
      }
      reference[i] = batch[i].value()->bytes;
    }
  }

  Client client(OwnerKeys().public_key());
  client.TrackShardVersions(num_groups);
  client.SetStalenessBound(4);

  uint64_t answers = 0;
  uint64_t ok = 0;
  uint64_t failures = 0;
  uint64_t accepted_fresh = 0;
  uint64_t accepted_degraded = 0;

  // One serving pass; byte checks against the reference only while the
  // fleet is untorn (pre-phase-2). Returns false on any soundness failure.
  auto serve_pass = [&](bool check_bytes) {
    auto batch = e.AnswerBatch(queries, config.threads);
    for (size_t i = 0; i < batch.size(); ++i) {
      ++answers;
      const auto& r = batch[i];
      if (!r.ok()) {
        if (!IsRetryable(r.status().code())) {
          std::fprintf(stderr, "chaos: non-retryable error for query %zu: %s\n",
                       i, r.status().ToString().c_str());
          return false;
        }
        ++failures;
        continue;
      }
      if (check_bytes && r.value()->bytes != reference[i]) {
        std::fprintf(stderr,
                     "chaos: answer bytes diverged from the fault-free "
                     "reference for query %zu\n",
                     i);
        return false;
      }
      const WireVerification v =
          client.Verify(queries[i], r.value()->bytes, e.RouteOf(queries[i]));
      if (!v.outcome.accepted) {
        std::fprintf(stderr, "chaos: verification rejected query %zu: %s\n", i,
                     v.outcome.ToString().c_str());
        return false;
      }
      ++ok;
      if (v.degraded) {
        ++accepted_degraded;
      } else {
        ++accepted_fresh;
      }
    }
    return true;
  };

  // Phase 1: availability and byte transparency under per-attempt faults.
  FailPointRegistry& fp = FailPointRegistry::Global();
  fp.ArmProbability("shard/answer", config.fault_rate, kWorkloadSeed + 17);
  for (size_t pass = 0; pass < fault_passes; ++pass) {
    if (!serve_pass(/*check_bytes=*/true)) {
      fp.DisarmAll();
      return 1;
    }
  }
  const FailPointStats answer_fp = fp.GetStats("shard/answer");
  fp.Disarm("shard/answer");

  // Phase 2 (needs a sibling to freeze): tear one rotation mid-flight. The
  // one-shot fires on group 0's SECOND signing step, so replica 0
  // publishes version+1 and replica 1 stays frozen on the old snapshot —
  // the bounded-staleness client then accepts its answers as degraded
  // instead of going dark.
  uint64_t injected_update_faults = 0;
  size_t degraded_passes = 0;
  if (config.replicas >= 2) {
    NodeId u = 0;
    NodeId v = 0;
    double weight = 0;
    bool found = false;
    for (NodeId n = 0; n < graph->num_nodes() && !found; ++n) {
      for (const Edge& edge : graph->Neighbors(n)) {
        u = n;
        v = edge.to;
        weight = edge.weight;
        found = true;
        break;
      }
    }
    if (!found) {
      std::fprintf(stderr, "chaos: graph has no edges\n");
      return 1;
    }
    fp.ArmOneShot("certificate/sign", /*after=*/1);
    const StructuralUpdate update =
        StructuralUpdate::SetWeight(u, v, weight * 1.5);
    auto torn = e.ApplyUpdates(0, OwnerKeys(), {&update, 1});
    fp.Disarm("certificate/sign");
    if (torn.ok() || !IsRetryable(torn.status().code())) {
      std::fprintf(stderr,
                   "chaos: injected rotation fault did not surface as a "
                   "retryable error (%s)\n",
                   torn.ok() ? "ok" : torn.status().ToString().c_str());
      return 1;
    }
    injected_update_faults = 1;
    degraded_passes = 2;
    for (size_t pass = 0; pass < degraded_passes; ++pass) {
      if (!serve_pass(/*check_bytes=*/false)) {
        return 1;
      }
    }
  }

  const ShardedStats stats = e.GetStats();
  // The only update failure allowed in the books is the one we injected.
  if (stats.totals.update_failures != injected_update_faults) {
    std::fprintf(stderr,
                 "chaos: shard stats record %llu update failures, expected "
                 "%llu injected\n",
                 static_cast<unsigned long long>(stats.totals.update_failures),
                 static_cast<unsigned long long>(injected_update_faults));
    return 1;
  }
  const double availability =
      answers > 0 ? static_cast<double>(ok) / static_cast<double>(answers)
                  : 0.0;

  std::printf("{\n");
  std::printf("  \"bench\": \"throughput\",\n");
  std::printf("  \"mode\": \"chaos\",\n");
  std::printf("  \"dataset\": \"%s\",\n", bench_graph.name.c_str());
  std::printf("  \"nodes\": %zu,\n", graph->num_nodes());
  std::printf("  \"edges\": %zu,\n", graph->num_edges());
  std::printf("  \"queries\": %zu,\n", queries.size());
  std::printf("  \"smoke\": %s,\n", config.smoke ? "true" : "false");
  std::printf("  \"groups\": %zu,\n", num_groups);
  std::printf("  \"replicas\": %zu,\n", config.replicas);
  std::printf("  \"method\": \"dij\",\n");
  std::printf("  \"chaos\": {\n");
  std::printf("    \"fault_rate\": %.4f,\n", config.fault_rate);
  std::printf("    \"deadline_ms\": %.1f,\n", config.deadline_ms);
  std::printf("    \"max_attempts\": %zu,\n", failover.max_attempts);
  std::printf("    \"fault_passes\": %zu,\n", fault_passes);
  std::printf("    \"degraded_passes\": %zu,\n", degraded_passes);
  std::printf("    \"answers\": %llu,\n",
              static_cast<unsigned long long>(answers));
  std::printf("    \"ok\": %llu,\n", static_cast<unsigned long long>(ok));
  std::printf("    \"failures\": %llu,\n",
              static_cast<unsigned long long>(failures));
  std::printf("    \"availability\": %.6f,\n", availability);
  std::printf("    \"accepted_fresh\": %llu,\n",
              static_cast<unsigned long long>(accepted_fresh));
  std::printf("    \"accepted_degraded\": %llu,\n",
              static_cast<unsigned long long>(accepted_degraded));
  std::printf("    \"injected_answer_faults\": %llu,\n",
              static_cast<unsigned long long>(answer_fp.fires));
  std::printf("    \"injected_update_faults\": %llu,\n",
              static_cast<unsigned long long>(injected_update_faults));
  std::printf("    \"retries\": %llu,\n",
              static_cast<unsigned long long>(stats.totals.retries));
  std::printf("    \"failovers\": %llu,\n",
              static_cast<unsigned long long>(stats.totals.failovers));
  std::printf("    \"deadline_exceeded\": %llu,\n",
              static_cast<unsigned long long>(stats.totals.deadline_exceeded));
  std::printf("    \"breaker_skips\": %llu,\n",
              static_cast<unsigned long long>(stats.totals.breaker_skips));
  std::printf("    \"breaker_opens\": %llu\n",
              static_cast<unsigned long long>(stats.totals.breaker_opens));
  std::printf("  },\n");
  std::printf("  \"shard_stats\": [\n");
  for (size_t s = 0; s < stats.shards.size(); ++s) {
    const ShardStats& shard = stats.shards[s];
    std::printf(
        "    {\"shard\": %zu, \"queries\": %llu, \"failures\": %llu, "
        "\"retries\": %llu, \"failovers\": %llu, \"breaker_skips\": %llu, "
        "\"breaker_opens\": %llu, \"breaker_state\": \"%s\", "
        "\"certificate_version\": %u}%s\n",
        s, static_cast<unsigned long long>(shard.queries),
        static_cast<unsigned long long>(shard.failures),
        static_cast<unsigned long long>(shard.retries),
        static_cast<unsigned long long>(shard.failovers),
        static_cast<unsigned long long>(shard.breaker_skips),
        static_cast<unsigned long long>(shard.breaker_opens),
        ToString(shard.breaker_state), shard.certificate_version,
        s + 1 < stats.shards.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
  return 0;
}

/// Durable-recovery mode (--recover): a DIJ engine checkpointed into a
/// snapshot store and WAL-ing every rotation is "crashed" at --kill (a
/// one-shot fail point at one durability seam), recovered from disk alone
/// through the authenticated verify-on-load path, and byte-compared
/// against a never-crashed twin holding exactly the durable prefix. With
/// fail points compiled in, a second arc tears a group rotation so one
/// replica freezes, heals it from its live sibling (ShardedEngine::Heal)
/// and proves the healed replica serves byte-identically. The JSON's
/// "recover" object reports recovery latency, WAL replay / skip counts,
/// torn-tail detection and the heal counters; any digest divergence,
/// version mismatch or verification rejection exits non-zero.
int RunRecover(const Config& config) {
  BenchGraph bench_graph;
  if (!SetupBenchGraph(config, &bench_graph)) {
    return 1;
  }
  const Graph* graph = bench_graph.graph;
  const size_t num_queries = config.smoke ? 12 : config.queries;
  const std::vector<Query> queries = MixedWorkload(*graph, num_queries);
  const size_t num_updates =
      config.updates > 0 ? config.updates : (config.smoke ? 8 : 16);
  const size_t batch_size = std::max<size_t>(config.update_batch, 1);

  // The kill is only real with fail points compiled in; a Release build
  // still exercises the full checkpoint + WAL + recover path on a clean
  // shutdown so the mode stays meaningful in every CI leg.
  std::string kill = config.kill;
  if (kill != "none" && !FailPointsCompiledIn()) {
    std::fprintf(stderr,
                 "note: fail points compiled out; --kill %s downgraded to a "
                 "clean-shutdown recovery\n",
                 kill.c_str());
    kill = "none";
  }

  std::string dir = config.recover_dir;
  if (dir.empty()) {
    dir = (std::filesystem::temp_directory_path() / "spauth_bench_recover")
              .string();
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create scratch dir %s: %s\n", dir.c_str(),
                 ec.message().c_str());
    return 1;
  }
  const std::string wal_path = dir + "/updates.wal";

  EngineOptions options = DefaultEngineOptions(MethodKind::kDij);
  auto built = MakeEngine(*graph, options, OwnerKeys());
  auto twin_built = MakeEngine(*graph, options, OwnerKeys());
  if (!built.ok() || !twin_built.ok()) {
    std::fprintf(stderr, "engine build failed\n");
    return 1;
  }
  std::unique_ptr<MethodEngine> engine = std::move(built).value();
  std::unique_ptr<MethodEngine> twin = std::move(twin_built).value();

  SnapshotStore store(dir);
  if (Status s = store.Write(*engine); !s.ok()) {
    std::fprintf(stderr, "initial checkpoint failed: %s\n",
                 s.ToString().c_str());
    return 1;
  }
  auto wal_opened = Wal::Open(wal_path);
  if (!wal_opened.ok()) {
    std::fprintf(stderr, "wal open failed: %s\n",
                 wal_opened.status().ToString().c_str());
    return 1;
  }
  auto wal = std::make_unique<Wal>(std::move(wal_opened).value());
  engine->AttachWal(wal.get());

  // Same seeded owner stream as the live-update mode, absorbed in batches;
  // the twin applies only what the crashed world made durable.
  std::vector<StructuralUpdate> updates;
  {
    std::vector<EdgeWeightUpdate> edges;
    for (NodeId n = 0; n < graph->num_nodes(); ++n) {
      for (const Edge& edge : graph->Neighbors(n)) {
        if (n < edge.to) {
          edges.push_back({n, edge.to, edge.weight});
        }
      }
    }
    Rng rng(kWorkloadSeed + 99);
    updates.reserve(num_updates);
    for (size_t i = 0; i < num_updates; ++i) {
      const EdgeWeightUpdate& edge = edges[rng.NextBounded(edges.size())];
      updates.push_back(StructuralUpdate::SetWeight(
          edge.u, edge.v, edge.new_weight * rng.NextDoubleIn(0.6, 1.8)));
    }
  }
  const size_t num_batches = (updates.size() + batch_size - 1) / batch_size;

  // WAL-append ordering makes a publish-kill durable (replay re-drives
  // it); a kill before or during the append loses the batch the caller
  // was never told succeeded.
  const bool kill_is_durable = kill == "engine/publish";
  size_t rotations = 0;
  size_t checkpoints = 1;  // the build-version checkpoint above
  size_t wal_truncations = 0;
  for (size_t b = 0; b < num_batches; ++b) {
    const size_t begin = b * batch_size;
    const size_t end = std::min(updates.size(), begin + batch_size);
    const std::span<const StructuralUpdate> batch(updates.data() + begin,
                                                  end - begin);
    const bool last = b + 1 == num_batches;
    // wal/reset is a checkpoint seam, not an update seam: it fires inside
    // the mid-stream checkpoint below, and every batch applies cleanly.
    if (last && kill != "none" && kill != "wal/reset") {
      FailPointRegistry::Global().ArmOneShot(kill);
      auto doomed = engine->ApplyUpdates(&OwnerKeys(), batch);
      FailPointRegistry::Global().Disarm(kill);
      if (doomed.ok() || !IsRetryable(doomed.status().code())) {
        std::fprintf(stderr,
                     "recover: kill at %s did not surface as a retryable "
                     "error (%s)\n",
                     kill.c_str(),
                     doomed.ok() ? "ok" : doomed.status().ToString().c_str());
        return 1;
      }
      if (kill_is_durable &&
          !twin->ApplyUpdates(&OwnerKeys(), batch).ok()) {
        std::fprintf(stderr, "recover: twin update failed\n");
        return 1;
      }
      break;
    }
    if (!engine->ApplyUpdates(&OwnerKeys(), batch).ok() ||
        !twin->ApplyUpdates(&OwnerKeys(), batch).ok()) {
      std::fprintf(stderr, "recover: update batch %zu failed\n", b);
      return 1;
    }
    ++rotations;
    // Mid-stream checkpoint: the snapshot absorbs the WAL prefix and the
    // paired truncate resets the log, so recovery replays only the tail
    // written after this point (wal_records_skipped stays 0 — the skip
    // path now only fires when a crash lands between publish and
    // truncate, see the wal/reset kill point).
    if (b + 1 == num_batches / 2) {
      const bool kill_truncate = kill == "wal/reset";
      if (kill_truncate) {
        FailPointRegistry::Global().ArmOneShot(kill);
      }
      const Status s = store.Checkpoint(*engine, wal.get());
      if (kill_truncate) {
        FailPointRegistry::Global().Disarm(kill);
        if (s.ok() || !IsRetryable(s.code())) {
          std::fprintf(stderr,
                       "recover: kill at wal/reset did not surface as a "
                       "retryable error (%s)\n",
                       s.ok() ? "ok" : s.ToString().c_str());
          return 1;
        }
        // The publish half survived the crash; only the truncate is lost,
        // so recovery must skip the absorbed prefix of the stale log.
        ++checkpoints;
      } else if (!s.ok()) {
        std::fprintf(stderr, "mid-stream checkpoint failed: %s\n",
                     s.ToString().c_str());
        return 1;
      } else {
        ++checkpoints;
        ++wal_truncations;
      }
    }
  }
  const uint32_t durable_version = twin->certificate().params.version;

  // Crash: the live engine and its WAL handle vanish; the disk is all
  // that survives.
  engine.reset();
  wal.reset();

  WallTimer recover_timer;
  auto recovered = RecoverDijEngine(store, wal_path, options, OwnerKeys());
  const double recovery_ms = recover_timer.ElapsedSeconds() * 1000;
  if (!recovered.ok()) {
    std::fprintf(stderr, "recovery failed: %s\n",
                 recovered.status().ToString().c_str());
    return 1;
  }
  RecoveryReport report = std::move(recovered).value();
  if (report.recovered_version != durable_version) {
    std::fprintf(stderr, "recovered version %u != durable version %u\n",
                 report.recovered_version, durable_version);
    return 1;
  }

  // Byte transparency: the recovered engine must serve exactly what the
  // never-crashed twin serves, and every answer must verify fresh at the
  // recovered version.
  Client client(OwnerKeys().public_key());
  Hasher recovered_hasher(HashAlgorithm::kSha1);
  Hasher twin_hasher(HashAlgorithm::kSha1);
  std::vector<double> serve_ms;
  serve_ms.reserve(queries.size());
  SearchWorkspace ws;
  WallTimer serve_total;
  for (const Query& q : queries) {
    WallTimer t;
    auto a = report.engine->Answer(q, ws);
    serve_ms.push_back(t.ElapsedSeconds() * 1000);
    auto b = twin->Answer(q, ws);
    if (!a.ok() || !b.ok()) {
      std::fprintf(stderr, "recover: post-recovery answer failed\n");
      return 1;
    }
    const WireVerification result = client.Verify(q, a.value().bytes);
    if (!result.outcome.accepted || result.version != durable_version) {
      std::fprintf(stderr,
                   "recover: verification failed at version %u: %s\n",
                   result.version, result.outcome.ToString().c_str());
      return 1;
    }
    recovered_hasher.Update(a.value().bytes.data(), a.value().bytes.size());
    twin_hasher.Update(b.value().bytes.data(), b.value().bytes.size());
  }
  const double serve_total_s = serve_total.ElapsedSeconds();
  const std::string recovered_sha1 = recovered_hasher.Finish().ToHex();
  const std::string twin_sha1 = twin_hasher.Finish().ToHex();
  const bool byte_transparent = recovered_sha1 == twin_sha1;
  if (!byte_transparent) {
    std::fprintf(stderr, "recover: digest divergence (%s != %s)\n",
                 recovered_sha1.c_str(), twin_sha1.c_str());
  }

  // Heal arc: tear a lock-step group rotation so the last replica freezes
  // on the old snapshot, then heal it from its most advanced sibling and
  // re-check byte transparency across the group. Needs the "engine/publish"
  // one-shot, so it only runs with fail points compiled in.
  const size_t heal_replicas = std::max<size_t>(config.replicas, 2);
  bool ran_heal = false;
  size_t healed = 0;
  uint64_t resyncs = 0;
  uint64_t resync_failures = 0;
  bool heal_transparent = false;
  if (FailPointsCompiledIn()) {
    FailoverOptions failover;
    failover.replicas_per_group = heal_replicas;
    auto fleet = ShardedEngine::BuildReplicated(*graph, options, 1,
                                                OwnerKeys(), failover);
    if (!fleet.ok()) {
      std::fprintf(stderr, "heal fleet build failed: %s\n",
                   fleet.status().ToString().c_str());
      return 1;
    }
    ShardedEngine& e = *fleet.value();
    const std::span<const StructuralUpdate> batch(
        updates.data(), std::min<size_t>(updates.size(), batch_size));
    // One-shot on the LAST replica's publish step: siblings advance, the
    // last replica stays frozen — exactly the torn rotation HealGroup
    // repairs.
    FailPointRegistry::Global().ArmOneShot("engine/publish",
                                           /*after=*/heal_replicas - 1);
    auto torn = e.ApplyUpdates(0, OwnerKeys(), batch);
    FailPointRegistry::Global().Disarm("engine/publish");
    if (torn.ok() || !IsRetryable(torn.status().code())) {
      std::fprintf(stderr, "heal: injected tear did not surface\n");
      return 1;
    }
    auto heal = e.Heal();
    if (!heal.ok()) {
      std::fprintf(stderr, "heal failed: %s\n",
                   heal.status().ToString().c_str());
      return 1;
    }
    healed = heal.value();
    const ShardedStats stats = e.GetStats();
    resyncs = stats.totals.resyncs;
    resync_failures = stats.totals.resync_failures;
    heal_transparent = true;
    for (const Query& q : queries) {
      auto a = e.shard(0).Answer(q, ws);
      auto b = e.shard(heal_replicas - 1).Answer(q, ws);
      if (!a.ok() || !b.ok() ||
          a.value().bytes != b.value().bytes) {
        heal_transparent = false;
        break;
      }
    }
    if (healed != 1 || !heal_transparent) {
      std::fprintf(stderr,
                   "heal: expected 1 byte-transparent resync, got %zu "
                   "(transparent: %s)\n",
                   healed, heal_transparent ? "yes" : "no");
    }
    ran_heal = true;
  }

  std::printf("{\n");
  std::printf("  \"bench\": \"throughput\",\n");
  std::printf("  \"mode\": \"recover\",\n");
  std::printf("  \"dataset\": \"%s\",\n", bench_graph.name.c_str());
  std::printf("  \"nodes\": %zu,\n", graph->num_nodes());
  std::printf("  \"edges\": %zu,\n", graph->num_edges());
  std::printf("  \"queries\": %zu,\n", queries.size());
  std::printf("  \"smoke\": %s,\n", config.smoke ? "true" : "false");
  std::printf("  \"method\": \"dij\",\n");
  std::printf("  \"recover\": {\n");
  std::printf("    \"kill_point\": \"%s\",\n", kill.c_str());
  std::printf("    \"updates\": %zu,\n", updates.size());
  std::printf("    \"batch\": %zu,\n", batch_size);
  std::printf("    \"rotations_before_crash\": %zu,\n", rotations);
  std::printf("    \"checkpoints\": %zu,\n", checkpoints);
  std::printf("    \"wal_truncations\": %zu,\n", wal_truncations);
  std::printf("    \"durable_version\": %u,\n", durable_version);
  std::printf("    \"snapshot_version\": %u,\n", report.snapshot_version);
  std::printf("    \"recovered_version\": %u,\n", report.recovered_version);
  std::printf("    \"wal_records_replayed\": %zu,\n",
              report.wal_records_replayed);
  std::printf("    \"wal_records_skipped\": %zu,\n",
              report.wal_records_skipped);
  std::printf("    \"wal_torn_tail\": %s,\n",
              report.wal_torn_tail ? "true" : "false");
  std::printf("    \"recovery_ms\": %.4f,\n", recovery_ms);
  std::printf("    \"answers_sha1\": \"%s\",\n", recovered_sha1.c_str());
  std::printf("    \"twin_sha1\": \"%s\",\n", twin_sha1.c_str());
  std::printf("    \"byte_transparent\": %s,\n",
              byte_transparent ? "true" : "false");
  if (ran_heal) {
    std::printf(
        "    \"heal\": {\"replicas\": %zu, \"healed\": %zu, \"resyncs\": "
        "%llu, \"resync_failures\": %llu, \"byte_transparent\": %s}\n",
        heal_replicas, healed, static_cast<unsigned long long>(resyncs),
        static_cast<unsigned long long>(resync_failures),
        heal_transparent ? "true" : "false");
  } else {
    std::printf("    \"heal\": null\n");
  }
  std::printf("  },\n");
  PrintJsonStats("recovered_serve", Summarize(serve_ms, serve_total_s),
                 false);
  std::printf("}\n");
  const bool heal_ok = !ran_heal || (healed == 1 && heal_transparent);
  return byte_transparent && heal_ok ? 0 : 1;
}

}  // namespace
}  // namespace spauth::bench

int main(int argc, char** argv) {
  using spauth::Dataset;
  spauth::bench::Config config;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(arg, "--smoke") == 0) {
      config.smoke = true;
    } else if (std::strcmp(arg, "--proof-cache") == 0) {
      config.proof_cache = true;
    } else if (std::strcmp(arg, "--dataset") == 0) {
      const std::string name = next();
      if (name == "DE") {
        config.dataset = Dataset::kDE;
      } else if (name == "ARG") {
        config.dataset = Dataset::kARG;
      } else if (name == "IND") {
        config.dataset = Dataset::kIND;
      } else if (name == "NA") {
        config.dataset = Dataset::kNA;
      } else {
        std::fprintf(stderr, "unknown dataset %s\n", name.c_str());
        return 2;
      }
    } else if (std::strcmp(arg, "--queries") == 0) {
      config.queries = static_cast<size_t>(std::strtoul(next(), nullptr, 10));
    } else if (std::strcmp(arg, "--threads") == 0) {
      config.threads = static_cast<size_t>(std::strtoul(next(), nullptr, 10));
    } else if (std::strcmp(arg, "--shards") == 0) {
      config.shards = static_cast<size_t>(std::strtoul(next(), nullptr, 10));
      if (config.shards == 0) {
        std::fprintf(stderr, "--shards needs a positive count\n");
        return 2;
      }
    } else if (std::strcmp(arg, "--forest") == 0) {
      config.forest = true;
    } else if (std::strcmp(arg, "--update-rate") == 0) {
      config.update_rate = std::strtod(next(), nullptr);
      if (!(config.update_rate > 0)) {
        std::fprintf(stderr, "--update-rate needs a positive rate\n");
        return 2;
      }
    } else if (std::strcmp(arg, "--updates") == 0) {
      config.updates = static_cast<size_t>(std::strtoul(next(), nullptr, 10));
    } else if (std::strcmp(arg, "--update-batch") == 0) {
      config.update_batch =
          static_cast<size_t>(std::strtoul(next(), nullptr, 10));
      if (config.update_batch == 0) {
        std::fprintf(stderr, "--update-batch needs a positive count\n");
        return 2;
      }
    } else if (std::strcmp(arg, "--updates-first") == 0) {
      config.updates_first = true;
    } else if (std::strcmp(arg, "--update-storm") == 0) {
      config.update_storm = true;
    } else if (std::strcmp(arg, "--staleness-us") == 0) {
      config.staleness_us = std::strtoull(next(), nullptr, 10);
      if (config.staleness_us == 0) {
        std::fprintf(stderr, "--staleness-us needs a positive bound\n");
        return 2;
      }
    } else if (std::strcmp(arg, "--fault-rate") == 0) {
      config.fault_rate = std::strtod(next(), nullptr);
      if (!(config.fault_rate > 0) || config.fault_rate > 1) {
        std::fprintf(stderr, "--fault-rate needs a probability in (0, 1]\n");
        return 2;
      }
    } else if (std::strcmp(arg, "--replicas") == 0) {
      config.replicas = static_cast<size_t>(std::strtoul(next(), nullptr, 10));
      if (config.replicas == 0) {
        std::fprintf(stderr, "--replicas needs a positive count\n");
        return 2;
      }
    } else if (std::strcmp(arg, "--deadline-ms") == 0) {
      config.deadline_ms = std::strtod(next(), nullptr);
      if (!(config.deadline_ms > 0)) {
        std::fprintf(stderr, "--deadline-ms needs a positive budget\n");
        return 2;
      }
    } else if (std::strcmp(arg, "--recover") == 0) {
      config.recover = true;
    } else if (std::strcmp(arg, "--kill") == 0) {
      config.kill = next();
      if (config.kill != "engine/publish" && config.kill != "wal/append" &&
          config.kill != "wal/fsync" && config.kill != "wal/reset" &&
          config.kill != "none") {
        std::fprintf(stderr,
                     "--kill needs engine/publish, wal/append, wal/fsync, "
                     "wal/reset or none\n");
        return 2;
      }
    } else if (std::strcmp(arg, "--recover-dir") == 0) {
      config.recover_dir = next();
    } else {
      std::fprintf(stderr,
                   "usage: bench_throughput [--smoke] [--dataset D] "
                   "[--queries N] [--threads N] [--proof-cache] "
                   "[--shards N] [--forest] [--update-rate R] [--updates N] "
                   "[--update-batch K] [--updates-first] "
                   "[--update-storm] [--staleness-us U] "
                   "[--fault-rate R] [--replicas N] [--deadline-ms M] "
                   "[--recover] [--kill POINT] [--recover-dir PATH]\n");
      return 2;
    }
  }
  if (config.update_storm) {
    if (config.recover || config.fault_rate > 0 || config.update_rate > 0 ||
        config.updates_first) {
      std::fprintf(stderr,
                   "--update-storm is incompatible with --recover, "
                   "--fault-rate and the paced live-update flags\n");
      return 2;
    }
    return spauth::bench::RunUpdateStorm(config);
  }
  if (config.recover) {
    if (config.fault_rate > 0 || config.update_rate > 0 ||
        config.updates_first) {
      std::fprintf(stderr,
                   "--recover is incompatible with --fault-rate and the "
                   "live-update flags\n");
      return 2;
    }
    return spauth::bench::RunRecover(config);
  }
  if (config.fault_rate > 0) {
    if (config.update_rate > 0 || config.updates > 0 || config.updates_first) {
      std::fprintf(stderr,
                   "--fault-rate is incompatible with the update-mode flags\n");
      return 2;
    }
    return spauth::bench::RunChaos(config);
  }
  if (config.update_rate > 0 || config.updates > 0 || config.updates_first ||
      config.update_batch > 1) {
    if (!(config.update_rate > 0)) {
      std::fprintf(stderr,
                   "--updates/--update-batch/--updates-first need "
                   "--update-rate\n");
      return 2;
    }
    return spauth::bench::RunLiveUpdates(config);
  }
  if (config.forest && config.shards == 0) {
    std::fprintf(stderr, "--forest needs --shards\n");
    return 2;
  }
  return config.shards > 0 ? spauth::bench::RunSharded(config)
                           : spauth::bench::Run(config);
}
