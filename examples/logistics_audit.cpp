// Logistics audit: a delivery company cross-checks the routes returned by
// its outsourced routing provider (the paper's motivating scenario —
// a provider may return sub-optimal paths "for profit purposes", e.g.
// favoring sponsored waypoints).
//
// Two providers answer the same batch of delivery routes over the same
// authenticated road network: one honest, one that silently inflates some
// routes. The auditor verifies every proof and quantifies both the caught
// fraud and the distance overhead it would have cost.
//
// Build & run:  ./build/examples/logistics_audit
#include <cstdio>
#include <vector>

#include "adversary/tamper.h"
#include "core/engine.h"
#include "graph/generator.h"
#include "graph/workload.h"
#include "util/rng.h"

using namespace spauth;

int main() {
  auto graph = GenerateDataset(Dataset::kDE);
  if (!graph.ok()) {
    return 1;
  }
  Rng rng(2024);
  auto keys = RsaKeyPair::Generate(1024, &rng);
  if (!keys.ok()) {
    return 1;
  }
  EngineOptions options;
  options.method = MethodKind::kLdm;
  auto engine = MakeEngine(graph.value(), options, keys.value());
  if (!engine.ok()) {
    return 1;
  }

  WorkloadOptions wopts;
  wopts.count = 40;
  wopts.query_range = 2500;
  wopts.seed = 5;
  auto deliveries = GenerateWorkload(graph.value(), wopts);
  if (!deliveries.ok()) {
    return 1;
  }

  std::printf("Auditing %zu delivery routes against the transport "
              "authority's signed network...\n\n",
              deliveries.value().size());

  size_t honest_accepted = 0;
  size_t fraud_rejected = 0;
  size_t fraud_attempted = 0;
  double excess_distance = 0;
  Rng coin(99);

  for (const Query& route : deliveries.value()) {
    // The shady provider inflates roughly every third route.
    const bool cheat = coin.NextBounded(3) == 0;
    Result<ProofBundle> bundle =
        cheat ? TamperedAnswer(*engine.value(), route,
                               TamperKind::kSuboptimalPath)
              : engine.value()->Answer(route);
    if (!bundle.ok()) {
      // No longer alternative exists for this route; the provider has to
      // answer honestly.
      bundle = engine.value()->Answer(route);
      if (!bundle.ok()) {
        return 1;
      }
    } else if (cheat) {
      ++fraud_attempted;
    }

    VerifyOutcome outcome = engine.value()->Verify(route, bundle.value());
    auto honest = engine.value()->Answer(route);
    if (!honest.ok()) {
      return 1;
    }
    if (outcome.accepted) {
      ++honest_accepted;
    } else {
      ++fraud_rejected;
      excess_distance += bundle.value().distance - honest.value().distance;
      std::printf("  route %4u->%-4u REJECTED (%s): claimed %.1f, "
                  "shortest %.1f\n",
                  route.source, route.target,
                  std::string(ToString(outcome.failure)).c_str(),
                  bundle.value().distance, honest.value().distance);
    }
  }

  std::printf("\nAudit summary\n");
  std::printf("  routes verified OK:        %zu\n", honest_accepted);
  std::printf("  fraudulent routes caught:  %zu of %zu attempted\n",
              fraud_rejected, fraud_attempted);
  std::printf("  distance padding caught:   %.1f units\n", excess_distance);
  return fraud_rejected == fraud_attempted ? 0 : 1;
}
