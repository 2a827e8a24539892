// spauth_client — command line client for a running spauth_server.
//
//   spauth_client --port P [--host H] --key-seed 7 --key-bits 512 \
//                 [--queries 100] [--seed 11] [--batch 16] [--stats 1]
//
// Derives the trusted owner key from the same seed the server was started
// with (the out-of-band provisioning stand-in), connects, streams random
// queries in pipelined batches, verifies every answer, and prints one JSON
// summary line. Exit code 0 iff every exchanged answer verified (server
// errors under fault injection are reported but are not failures; a
// VERIFICATION rejection is). --help prints every flag; an unknown flag
// exits 2 (tools/flags.h).
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "flags.h"
#include "net/client.h"
#include "util/rng.h"

using namespace spauth;

int main(int argc, char** argv) {
  const tools::Flags args = tools::Flags::Parse(
      argc, argv, 1, "usage: spauth_client --port P [--flag value ...]",
      {{"port", "server port (required)"},
       {"host", "server address (default 127.0.0.1)"},
       {"key-seed", "owner key seed the server was started with (default 7)"},
       {"key-bits", "owner RSA modulus bits (default 512)"},
       {"queries", "random queries to issue (default 100)"},
       {"seed", "query stream seed (default 11)"},
       {"batch", "queries pipelined per batch (default 16)"},
       {"staleness-bound", "accepted certificate-version lag (default 0)"},
       {"stats", "1 also fetches and prints the server stats (default 0)"}});
  if (!args.Has("port")) {
    args.Fail("--port is required");
  }

  Rng key_rng(static_cast<uint64_t>(args.GetInt("key-seed", 7)));
  auto keys = RsaKeyPair::Generate(
      static_cast<int>(args.GetInt("key-bits", 512)), &key_rng);
  if (!keys.ok()) {
    std::fprintf(stderr, "keys: %s\n", keys.status().ToString().c_str());
    return 1;
  }

  NetClientOptions options;
  options.host = args.Get("host", "127.0.0.1");
  options.port = static_cast<uint16_t>(args.GetInt("port", 0));
  options.staleness_bound =
      static_cast<uint32_t>(args.GetInt("staleness-bound", 0));
  NetClient client(keys.value().public_key(), options);

  Status connected = client.Connect();
  if (!connected.ok()) {
    std::fprintf(stderr, "connect: %s\n", connected.ToString().c_str());
    return 1;
  }
  const ServerInfoMsg& info = client.server_info();

  const size_t num_queries = static_cast<size_t>(args.GetInt("queries", 100));
  const size_t batch = std::max<long>(1, args.GetInt("batch", 16));
  Rng rng(static_cast<uint64_t>(args.GetInt("seed", 11)));

  size_t accepted = 0;
  size_t rejected = 0;
  size_t errors = 0;
  size_t issued = 0;
  while (issued < num_queries) {
    const size_t n = std::min(batch, num_queries - issued);
    std::vector<Query> queries(n);
    for (Query& q : queries) {
      q.source = static_cast<NodeId>(rng.NextU64() % info.num_nodes);
      do {
        q.target = static_cast<NodeId>(rng.NextU64() % info.num_nodes);
      } while (q.target == q.source);  // s==t is InvalidArgument
    }
    auto results = client.QueryBatch(queries);
    for (const auto& r : results) {
      if (!r.ok()) {
        ++errors;
      } else if (r.value().outcome.accepted) {
        ++accepted;
      } else {
        ++rejected;
      }
    }
    issued += n;
  }

  if (args.GetInt("stats", 0) != 0) {
    auto stats = client.FetchServerStats();
    if (stats.ok()) {
      std::printf("{\"event\": \"server_stats\"");
      for (const auto& [key, value] : stats.value()) {
        std::printf(", \"%s\": %llu", key.c_str(),
                    static_cast<unsigned long long>(value));
      }
      std::printf("}\n");
    }
  }

  std::printf(
      "{\"event\": \"summary\", \"queries\": %zu, \"accepted\": %zu, "
      "\"rejected\": %zu, \"errors\": %zu, \"reconnects\": %llu, "
      "\"watermark_g0\": %u, \"certificate_version\": %u}\n",
      issued, accepted, rejected, errors,
      static_cast<unsigned long long>(client.stats().reconnects),
      client.ShardVersionWatermark(0), info.certificate_version);
  return rejected == 0 ? 0 : 1;
}
