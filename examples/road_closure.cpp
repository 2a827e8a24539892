// Road closure: dynamic owner-side maintenance in action.
//
// A storm closes a bridge: the transport authority multiplies the affected
// edge weight, refreshes exactly two extended-tuples in the DIJ ADS
// (incremental Merkle update) and re-signs a bumped-version certificate.
// The provider's new answers route around the closure and verify; a stale
// pre-closure proof no longer matches the new signed root.
//
// Build & run:  ./build/examples/road_closure
#include <cstdio>

#include "core/client.h"
#include "core/updates.h"
#include "graph/generator.h"
#include "util/rng.h"

using namespace spauth;

int main() {
  RoadNetworkOptions gopts;
  gopts.num_nodes = 500;
  gopts.coord_extent = 4500;
  gopts.seed = 9;
  auto graph_result = GenerateRoadNetwork(gopts);
  if (!graph_result.ok()) {
    return 1;
  }
  Graph graph = std::move(graph_result).value();
  Rng rng(10);
  auto keys = RsaKeyPair::Generate(1024, &rng);
  if (!keys.ok()) {
    return 1;
  }
  auto ads_result = BuildDijAds(graph, DijOptions{}, keys.value());
  if (!ads_result.ok()) {
    return 1;
  }
  DijAds ads = std::move(ads_result).value();
  DijProvider provider(&graph, &ads);

  const Query commute{17, 480};
  auto before = provider.Answer(commute);
  if (!before.ok()) {
    std::fprintf(stderr, "answer failed: %s\n",
                 before.status().ToString().c_str());
    return 1;
  }
  std::printf("before closure: distance %.1f via %zu hops (ADS version %u)\n",
              before.value().distance, before.value().path.num_hops(),
              ads.certificate.params.version);

  // The storm hits the second hop of the commute.
  const NodeId u = before.value().path.nodes[1];
  const NodeId v = before.value().path.nodes[2];
  const double old_w = graph.EdgeWeight(u, v).value();
  const StructuralUpdate closure =
      StructuralUpdate::SetWeight(u, v, old_w * 100);
  if (Status s = ApplyUpdates(&graph, &ads, &keys.value(), {&closure, 1});
      !s.ok()) {
    std::fprintf(stderr, "update failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("closed road %u-%u (weight %.1f -> %.1f), ADS version %u\n", u,
              v, old_w, old_w * 100, ads.certificate.params.version);

  auto after = provider.Answer(commute);
  if (!after.ok()) {
    return 1;
  }
  VerifyOutcome fresh = VerifyDijAnswer(keys.value().public_key(),
                                        ads.certificate, commute,
                                        after.value());
  std::printf("after closure: distance %.1f via %zu hops -> %s\n",
              after.value().distance, after.value().path.num_hops(),
              fresh.ToString().c_str());

  VerifyOutcome stale = VerifyDijAnswer(keys.value().public_key(),
                                        ads.certificate, commute,
                                        before.value());
  std::printf("stale pre-closure proof against new certificate -> %s\n",
              stale.ToString().c_str());

  return fresh.accepted && !stale.accepted ? 0 : 1;
}
