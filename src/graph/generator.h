// Synthetic road-network generator.
//
// The paper evaluates on four Digital Chart of the World road networks
// (DE/ARG/IND/NA, 29k-176k nodes, |E| ~= 1.03-1.05 |V|) whose hosting site
// is long gone. This generator reproduces the structural properties the
// paper's measurements depend on: planar-ish sparse connectivity (mostly
// degree-2/3 nodes), coordinates normalized to [0, extent]^2 like the
// paper's [0, 10000]^2 normalization, near-Euclidean edge weights with a
// configurable detour factor (so weights are *not* exactly Euclidean —
// Section III-A rules out Euclidean lower bounds), and guaranteed
// connectivity.
//
// Construction: nodes are placed on a jittered sqrt(n) x sqrt(n) grid; the
// 4-neighbor grid edges are shuffled and a uniform random spanning tree is
// kept (Kruskal on the random order), then random extra grid edges are added
// until |E| reaches edge_factor * |V|.
#ifndef SPAUTH_GRAPH_GENERATOR_H_
#define SPAUTH_GRAPH_GENERATOR_H_

#include <cstdint>

#include "graph/graph.h"
#include "util/status.h"

namespace spauth {

struct RoadNetworkOptions {
  /// Number of graph nodes.
  uint32_t num_nodes = 1000;
  /// Target |E| / |V| ratio (clamped to at least the spanning tree and at
  /// most the available grid edges). DCW networks sit at ~1.03-1.05.
  double edge_factor = 1.04;
  /// Coordinates are scaled into [0, coord_extent]^2 (paper: 10,000).
  double coord_extent = 10000.0;
  /// Node placement jitter as a fraction of the grid cell size, in [0, 1).
  double jitter = 0.40;
  /// Edge weight = euclidean length * (1 + U[0, weight_noise]). A non-zero
  /// value models detours/travel-time weights.
  double weight_noise = 0.15;
  uint64_t seed = 1;
};

Result<Graph> GenerateRoadNetwork(const RoadNetworkOptions& options);

/// The four scaled stand-ins for the paper's datasets (Table II), sized so
/// that FULL's O(|V|^3) pre-computation stays laptop-friendly: 1,200 to
/// 3,000 nodes against the paper's 28,867 to 175,813, each keeping its
/// dataset's |E|/|V| ratio. DatasetOptions documents the coordinate
/// calibration that keeps the paper's query ranges meaningful.
enum class Dataset { kDE, kARG, kIND, kNA };

std::string_view DatasetName(Dataset d);
RoadNetworkOptions DatasetOptions(Dataset d);
Result<Graph> GenerateDataset(Dataset d);

}  // namespace spauth

#endif  // SPAUTH_GRAPH_GENERATOR_H_
