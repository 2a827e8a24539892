// spauth_server — standalone networked provider.
//
// Generates the deterministic bench road network, derives the owner key
// pair from a seed (the stand-in for out-of-band key provisioning: a
// client started with the same --key-seed/--key-bits trusts this owner),
// builds a replicated ShardedEngine and serves it over TCP
// (net/server.h).
//
//   spauth_server --port 0 --nodes 2000 --groups 2 --replicas 1 \
//                 [--fault net/conn_kill:0.05:7] [--duration-s 30]
//
// On startup one JSON line goes to stdout:
//   {"event": "ready", "port": 7471, ...}
// so scripts can scrape the (possibly ephemeral) port. On shutdown —
// SIGINT/SIGTERM or --duration-s elapsing — a final JSON stats line is
// printed.
//
// --fault arms a fail point (probability mode) in this process:
// name:probability[:seed]. Repeatable. Requires a failpoints-ON build.
// --help prints every flag and exits; an unknown flag exits 2 (tools/flags.h).
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/sharded_engine.h"
#include "flags.h"
#include "graph/generator.h"
#include "net/server.h"
#include "util/failpoint.h"
#include "util/rng.h"

using namespace spauth;

namespace {

std::atomic<int> g_signal{0};

void OnSignal(int sig) { g_signal.store(sig); }

/// name:probability[:seed]
bool ArmFault(const std::string& spec) {
  const size_t c1 = spec.find(':');
  if (c1 == std::string::npos) {
    return false;
  }
  const size_t c2 = spec.find(':', c1 + 1);
  const std::string name = spec.substr(0, c1);
  const double probability = std::stod(
      c2 == std::string::npos ? spec.substr(c1 + 1)
                              : spec.substr(c1 + 1, c2 - c1 - 1));
  const uint64_t seed =
      c2 == std::string::npos ? 1 : std::stoull(spec.substr(c2 + 1));
  FailPointRegistry::Global().ArmProbability(name, probability, seed);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const tools::Flags args = tools::Flags::Parse(
      argc, argv, 1, "usage: spauth_server [--flag value ...]",
      {{"port", "TCP port; 0 picks an ephemeral one (default 7471)"},
       {"host", "address to bind (default 127.0.0.1)"},
       {"nodes", "road-network nodes (default 2000)"},
       {"graph-seed", "road-network seed (default 1)"},
       {"key-seed", "owner key seed clients must share (default 7)"},
       {"key-bits", "owner RSA modulus bits (default 512)"},
       {"groups", "routing groups (default 2)"},
       {"replicas", "replicas per group (default 1)"},
       {"proof-cache", "1 serves from a proof cache, 0 does not (default 1)"},
       {"cache-capacity", "proof-cache entries per engine (default 4096)"},
       {"workers", "serving worker threads (default 2)"},
       {"duration-s", "stop after this many seconds; 0 runs until a signal"},
       {"fault", "arm a fail point, name:probability[:seed]; repeatable",
        /*repeatable=*/true}});

  RoadNetworkOptions graph_options;
  graph_options.num_nodes =
      static_cast<uint32_t>(args.GetInt("nodes", 2000));
  graph_options.seed = static_cast<uint64_t>(args.GetInt("graph-seed", 1));
  auto graph = GenerateRoadNetwork(graph_options);
  if (!graph.ok()) {
    std::fprintf(stderr, "graph: %s\n", graph.status().ToString().c_str());
    return 1;
  }

  Rng key_rng(static_cast<uint64_t>(args.GetInt("key-seed", 7)));
  auto keys = RsaKeyPair::Generate(
      static_cast<int>(args.GetInt("key-bits", 512)), &key_rng);
  if (!keys.ok()) {
    std::fprintf(stderr, "keys: %s\n", keys.status().ToString().c_str());
    return 1;
  }

  EngineOptions engine_options;
  engine_options.method = MethodKind::kDij;
  engine_options.enable_proof_cache = args.GetInt("proof-cache", 1) != 0;
  engine_options.proof_cache_capacity =
      static_cast<size_t>(args.GetInt("cache-capacity", 4096));

  const size_t groups = static_cast<size_t>(args.GetInt("groups", 2));
  const size_t replicas = static_cast<size_t>(args.GetInt("replicas", 1));
  FailoverOptions failover;
  failover.replicas_per_group = replicas;
  if (replicas > 1) {
    failover.max_attempts = replicas;
    failover.enable_breakers = true;
  }
  auto engine = ShardedEngine::BuildReplicated(graph.value(), engine_options,
                                               groups, keys.value(),
                                               failover);
  if (!engine.ok()) {
    std::fprintf(stderr, "engine: %s\n", engine.status().ToString().c_str());
    return 1;
  }

  for (const std::string& fault : args.GetAll("fault")) {
    if (!FailPointsCompiledIn()) {
      std::fprintf(stderr, "--fault requires a failpoints-ON build\n");
      return 1;
    }
    if (!ArmFault(fault)) {
      std::fprintf(stderr, "unparseable --fault spec: %s\n", fault.c_str());
      return 1;
    }
  }

  ServerOptions server_options;
  server_options.host = args.Get("host", "127.0.0.1");
  server_options.port = static_cast<uint16_t>(args.GetInt("port", 7471));
  server_options.worker_threads =
      static_cast<size_t>(args.GetInt("workers", 2));
  SpauthServer server(engine.value().get(), keys.value().public_key(),
                      server_options);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "start: %s\n", started.ToString().c_str());
    return 1;
  }

  std::printf(
      "{\"event\": \"ready\", \"port\": %u, \"nodes\": %u, \"groups\": %zu, "
      "\"replicas\": %zu, \"proof_cache\": %s}\n",
      server.port(), graph_options.num_nodes, groups, replicas,
      engine_options.enable_proof_cache ? "true" : "false");
  std::fflush(stdout);

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  const long duration_s = args.GetInt("duration-s", 0);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(duration_s);
  while (g_signal.load() == 0) {
    if (duration_s > 0 && std::chrono::steady_clock::now() >= deadline) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  server.Stop();

  const ServerStats s = server.stats();
  std::printf("{\"event\": \"stats\"");
  ForEachStatField<ServerStats>([&](const auto& field) {
    std::printf(", \"%.*s\": %llu", static_cast<int>(field.name.size()),
                field.name.data(),
                static_cast<unsigned long long>(s.*field.member));
  });
  std::printf("}\n");
  return 0;
}
