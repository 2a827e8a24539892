// spauth_cli — command line front end for the library.
//
//   spauth_cli generate --nodes 2000 --seed 7 --out net.graph
//   spauth_cli info net.graph
//   spauth_cli demo --method hyp [--graph net.graph] [--queries 10]
//   spauth_cli estimate --method ldm [--graph net.graph]
//
// `demo` runs the full three-party protocol and prints per-query proof
// sizes and verification outcomes; `estimate` fits the proof-size model
// (the paper's future-work item) and prints predictions. Each command
// declares its flags: `spauth_cli COMMAND --help` lists them, and an
// unknown flag exits 2 (tools/flags.h).
#include <cmath>
#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <string>

#include "core/client.h"
#include "core/engine.h"
#include "core/estimator.h"
#include "flags.h"
#include "graph/dijkstra.h"
#include "graph/generator.h"
#include "graph/graph_io.h"
#include "graph/workload.h"
#include "util/rng.h"

using namespace spauth;

namespace {

constexpr const char* kUsage =
    "usage:\n"
    "  spauth_cli generate --nodes N [--seed S] [--edge-factor F] --out FILE\n"
    "  spauth_cli info FILE\n"
    "  spauth_cli demo --method dij|full|ldm|hyp [--graph FILE] [--queries K] "
    "[--range R]\n"
    "  spauth_cli estimate --method dij|full|ldm|hyp [--graph FILE]\n"
    "  spauth_cli COMMAND --help lists the command's flags";

int Usage() {
  std::fprintf(stderr, "%s\n", kUsage);
  return 2;
}

Result<Graph> LoadOrGenerate(const tools::Flags& args) {
  const std::string path = args.Get("graph", "");
  if (!path.empty()) {
    return LoadGraphFromFile(path);
  }
  RoadNetworkOptions options;
  options.num_nodes = static_cast<uint32_t>(args.GetInt("nodes", 1200));
  options.seed = static_cast<uint64_t>(args.GetInt("seed", 1));
  options.coord_extent = 4500;
  return GenerateRoadNetwork(options);
}

Result<MethodKind> ParseMethod(const std::string& name) {
  if (name == "dij") return MethodKind::kDij;
  if (name == "full") return MethodKind::kFull;
  if (name == "ldm") return MethodKind::kLdm;
  if (name == "hyp") return MethodKind::kHyp;
  return Status::InvalidArgument("unknown method: " + name);
}

int CmdGenerate(const tools::Flags& args) {
  RoadNetworkOptions options;
  options.num_nodes = static_cast<uint32_t>(args.GetInt("nodes", 1200));
  options.seed = static_cast<uint64_t>(args.GetInt("seed", 1));
  options.edge_factor = std::stod(args.Get("edge-factor", "1.05"));
  options.coord_extent = 4500;
  auto graph = GenerateRoadNetwork(options);
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }
  const std::string out = args.Get("out", "network.graph");
  if (Status s = SaveGraphToFile(graph.value(), out); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s: %zu nodes, %zu edges\n", out.c_str(),
              graph.value().num_nodes(), graph.value().num_edges());
  return 0;
}

int CmdInfo(const tools::Flags& args) {
  if (args.positional().empty()) {
    args.Fail("info needs a graph FILE");
  }
  auto graph = LoadGraphFromFile(args.positional());
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }
  const Graph& g = graph.value();
  size_t degree_histogram[8] = {};
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    ++degree_histogram[std::min<size_t>(g.Degree(v), 7)];
  }
  BoundingBox box = g.GetBoundingBox();
  std::printf("nodes: %zu\nedges: %zu (|E|/|V| = %.3f)\n", g.num_nodes(),
              g.num_edges(),
              static_cast<double>(g.num_edges()) / g.num_nodes());
  std::printf("extent: [%.1f, %.1f] x [%.1f, %.1f]\n", box.min_x, box.max_x,
              box.min_y, box.max_y);
  std::printf("degree histogram:");
  for (int d = 0; d < 8; ++d) {
    std::printf(" %d:%zu", d, degree_histogram[d]);
  }
  std::printf("\n");
  DijkstraTree tree = DijkstraAll(g, 0);
  double ecc = 0;
  size_t reachable = 0;
  for (double dist : tree.dist) {
    if (dist != kInfDistance) {
      ecc = std::max(ecc, dist);
      ++reachable;
    }
  }
  std::printf("reachable from node 0: %zu; eccentricity(0) = %.1f\n",
              reachable, ecc);
  return 0;
}

int CmdDemo(const tools::Flags& args) {
  auto method = ParseMethod(args.Get("method", "hyp"));
  if (!method.ok()) {
    return Usage();
  }
  auto graph = LoadOrGenerate(args);
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }
  Rng rng(static_cast<uint64_t>(args.GetInt("key-seed", 99)));
  auto keys = RsaKeyPair::Generate(1024, &rng);
  if (!keys.ok()) {
    return 1;
  }
  EngineOptions options;
  options.method = method.value();
  auto engine = MakeEngine(graph.value(), options, keys.value());
  if (!engine.ok()) {
    std::fprintf(stderr, "%s\n", engine.status().ToString().c_str());
    return 1;
  }
  std::printf("built %s ADS in %.3f s; provider stores %.2f MB of hints\n",
              std::string(engine.value()->name()).c_str(),
              engine.value()->construction_seconds(),
              engine.value()->storage_bytes() / 1024.0 / 1024.0);

  WorkloadOptions wopts;
  wopts.count = static_cast<size_t>(args.GetInt("queries", 10));
  wopts.query_range = std::stod(args.Get("range", "2000"));
  wopts.seed = 5;
  auto queries = GenerateWorkload(graph.value(), wopts);
  if (!queries.ok()) {
    return 1;
  }
  for (const Query& q : queries.value()) {
    auto bundle = engine.value()->Answer(q);
    if (!bundle.ok()) {
      std::fprintf(stderr, "answer failed: %s\n",
                   bundle.status().ToString().c_str());
      return 1;
    }
    // Verify through the standalone wire client, as a real user would.
    WireVerification result = VerifyWireAnswer(
        keys.value().public_key(), q, bundle.value().bytes);
    std::printf("  %5u -> %-5u dist %8.1f  hops %3zu  proof %6.2f KB  %s\n",
                q.source, q.target, result.distance,
                result.path.num_hops(),
                bundle.value().bytes.size() / 1024.0,
                result.outcome.ToString().c_str());
    if (!result.outcome.accepted) {
      return 1;
    }
  }
  return 0;
}

int CmdEstimate(const tools::Flags& args) {
  auto method = ParseMethod(args.Get("method", "ldm"));
  if (!method.ok()) {
    return Usage();
  }
  auto graph = LoadOrGenerate(args);
  if (!graph.ok()) {
    return 1;
  }
  Rng rng(11);
  auto keys = RsaKeyPair::Generate(1024, &rng);
  if (!keys.ok()) {
    return 1;
  }
  EngineOptions options;
  options.method = method.value();
  auto engine = MakeEngine(graph.value(), options, keys.value());
  if (!engine.ok()) {
    return 1;
  }
  EstimatorOptions eopts;
  auto model = FitProofSizeModel(*engine.value(), graph.value(), eopts);
  if (!model.ok()) {
    std::fprintf(stderr, "%s\n", model.status().ToString().c_str());
    return 1;
  }
  std::printf("proof-size model for %s: bytes ~ %.1f * range^%.2f "
              "(log-residual %.3f)\n",
              std::string(engine.value()->name()).c_str(),
              std::exp(model.value().log_a), model.value().slope_b,
              model.value().log_residual);
  for (double range : {500.0, 1000.0, 2000.0, 4000.0, 8000.0}) {
    std::printf("  range %6.0f -> estimated %8.2f KB\n", range,
                model.value().EstimateBytes(range) / 1024.0);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string command = argc >= 2 ? argv[1] : "";
  if (command == "--help" || command == "-h") {
    std::printf("%s\n", kUsage);
    return 0;
  }
  const auto parse = [&](std::initializer_list<tools::FlagSpec> specs,
                         bool positional = false) {
    return tools::Flags::Parse(
        argc, argv, 2,
        "usage: spauth_cli " + command +
            (positional ? " FILE" : " [--flag value ...]"),
        specs, positional);
  };
  if (command == "generate") {
    return CmdGenerate(
        parse({{"nodes", "road-network nodes (default 1200)"},
               {"seed", "road-network seed (default 1)"},
               {"edge-factor", "edges per node (default 1.05)"},
               {"out", "output file (default network.graph)"}}));
  }
  if (command == "info") {
    return CmdInfo(parse({}, /*positional=*/true));
  }
  if (command == "demo") {
    return CmdDemo(
        parse({{"method", "dij|full|ldm|hyp (default hyp)"},
               {"graph", "graph file; generated when absent"},
               {"nodes", "generated road-network nodes (default 1200)"},
               {"seed", "generated road-network seed (default 1)"},
               {"key-seed", "owner key seed (default 99)"},
               {"queries", "queries to answer and verify (default 10)"},
               {"range", "query range (default 2000)"}}));
  }
  if (command == "estimate") {
    return CmdEstimate(
        parse({{"method", "dij|full|ldm|hyp (default ldm)"},
               {"graph", "graph file; generated when absent"},
               {"nodes", "generated road-network nodes (default 1200)"},
               {"seed", "generated road-network seed (default 1)"}}));
  }
  return Usage();
}
