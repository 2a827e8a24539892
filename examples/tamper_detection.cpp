// Tamper detection walkthrough: runs every attack class of the threat
// model against every verification method and shows which client-side
// check catches it — the "compromised provider" scenario of the paper's
// introduction (multi-step intrusions into online servers [1]).
//
// Build & run:  ./build/examples/tamper_detection
#include <cstdio>

#include "adversary/tamper.h"
#include "core/engine.h"
#include "graph/generator.h"
#include "graph/workload.h"
#include "util/rng.h"

using namespace spauth;

int main() {
  RoadNetworkOptions gopts;
  gopts.num_nodes = 600;
  gopts.seed = 3;
  auto graph = GenerateRoadNetwork(gopts);
  if (!graph.ok()) {
    return 1;
  }
  Rng rng(4);
  auto keys = RsaKeyPair::Generate(1024, &rng);
  if (!keys.ok()) {
    return 1;
  }
  WorkloadOptions wopts;
  wopts.count = 6;
  wopts.query_range = 3000;
  wopts.seed = 8;
  auto queries = GenerateWorkload(graph.value(), wopts);
  if (!queries.ok()) {
    return 1;
  }

  std::printf("Attack matrix: every proof mutation vs every method\n");
  std::printf("(cells show the client-side check that rejects the attack)\n\n");
  std::printf("  %-16s", "attack \\ method");
  for (MethodKind method : kAllMethods) {
    std::printf(" %-22s", std::string(ToString(method)).c_str());
  }
  std::printf("\n");

  bool all_caught = true;
  for (TamperKind tamper : kAllTamperKinds) {
    std::printf("  %-16s", std::string(ToString(tamper)).c_str());
    for (MethodKind method : kAllMethods) {
      EngineOptions options;
      options.method = method;
      auto engine = MakeEngine(graph.value(), options, keys.value());
      if (!engine.ok()) {
        return 1;
      }
      std::string cell = "n/a";
      for (const Query& q : queries.value()) {
        auto forged = TamperedAnswer(*engine.value(), q, tamper);
        if (!forged.ok()) {
          continue;  // attack not applicable / no opportunity here
        }
        VerifyOutcome outcome = engine.value()->Verify(q, forged.value());
        if (outcome.accepted) {
          cell = "!! ACCEPTED !!";
          all_caught = false;
        } else {
          cell = std::string(ToString(outcome.failure));
        }
        break;
      }
      std::printf(" %-22s", cell.c_str());
    }
    std::printf("\n");
  }

  std::printf("\n%s\n", all_caught
                            ? "Every executed attack was rejected."
                            : "SECURITY FAILURE: an attack was accepted!");
  return all_caught ? 0 : 1;
}
