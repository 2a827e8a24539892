#include "graph/generator.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/rng.h"

namespace spauth {

namespace {

/// Union-find over node ids for spanning-tree construction.
class DisjointSets {
 public:
  explicit DisjointSets(size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  uint32_t Find(uint32_t v) {
    while (parent_[v] != v) {
      parent_[v] = parent_[parent_[v]];
      v = parent_[v];
    }
    return v;
  }
  bool Union(uint32_t a, uint32_t b) {
    a = Find(a);
    b = Find(b);
    if (a == b) {
      return false;
    }
    parent_[a] = b;
    return true;
  }

 private:
  std::vector<uint32_t> parent_;
};

}  // namespace

// Road networks a la Digital Chart of the World are dominated by degree-2
// *shape points*: the underlying junction network is much coarser than the
// node count suggests (|E| ~ 1.04 |V| yet detours stay small). The
// generator therefore works in two stages:
//   1. a jittered grid of ~|V|/10 junctions, connected by a random spanning
//      tree plus random extra grid edges — the junction graph keeps ~70% of
//      its grid edges, so detour factors stay realistic (~1.3);
//   2. the remaining nodes subdivide junction roads as evenly-spaced chain
//      nodes (longer roads get more), preserving |E| = edge_factor * |V|
//      exactly and producing the degree-2-heavy profile of real road data.
Result<Graph> GenerateRoadNetwork(const RoadNetworkOptions& options) {
  if (options.num_nodes < 2) {
    return Status::InvalidArgument("need at least 2 nodes");
  }
  if (options.jitter < 0 || options.jitter >= 1.0) {
    return Status::InvalidArgument("jitter must be in [0, 1)");
  }
  if (options.weight_noise < 0) {
    return Status::InvalidArgument("weight_noise must be >= 0");
  }
  if (options.coord_extent <= 0) {
    return Status::InvalidArgument("coord_extent must be positive");
  }

  Rng rng(options.seed);
  const uint32_t n = options.num_nodes;
  // Stage 1: junction grid. Small graphs skip the chain stage.
  const uint32_t m = n < 40 ? n : std::max<uint32_t>(9, n / 10);
  const uint32_t cols = static_cast<uint32_t>(std::ceil(std::sqrt(m)));
  const uint32_t rows = (m + cols - 1) / cols;
  const double cell = options.coord_extent / std::max(cols, rows);

  std::vector<double> xs(m), ys(m);
  for (uint32_t i = 0; i < m; ++i) {
    const uint32_t gx = i % cols;
    const uint32_t gy = i / cols;
    const double jx = rng.NextDoubleIn(-options.jitter / 2, options.jitter / 2);
    const double jy = rng.NextDoubleIn(-options.jitter / 2, options.jitter / 2);
    xs[i] = (gx + 0.5 + jx) * cell;
    ys[i] = (gy + 0.5 + jy) * cell;
  }

  struct Candidate {
    NodeId u, v;
  };
  std::vector<Candidate> candidates;
  candidates.reserve(2 * m);
  for (uint32_t i = 0; i < m; ++i) {
    const uint32_t gx = i % cols;
    if (gx + 1 < cols && i + 1 < m) {
      candidates.push_back({i, i + 1});
    }
    if (i + cols < m) {
      candidates.push_back({i, i + cols});
    }
  }
  rng.Shuffle(&candidates);

  // |E| - |V| is invariant under subdivision, so the junction graph must
  // carry exactly (edge_factor - 1) * n + m edges.
  const long long surplus =
      std::llround((options.edge_factor - 1.0) * n);
  const size_t junction_edges = std::min(
      candidates.size(),
      std::max<size_t>(m - 1, static_cast<size_t>(
                                  std::max<long long>(0, surplus) + m)));

  DisjointSets sets(m);
  std::vector<Candidate> chosen;
  std::vector<Candidate> skipped;
  chosen.reserve(junction_edges);
  for (const Candidate& c : candidates) {
    if (sets.Union(c.u, c.v)) {
      chosen.push_back(c);
    } else {
      skipped.push_back(c);
    }
  }
  for (const Candidate& c : skipped) {
    if (chosen.size() >= junction_edges) {
      break;
    }
    chosen.push_back(c);
  }

  // Stage 2: distribute the chain nodes over junction roads, proportionally
  // to road length (largest-remainder apportionment).
  const uint32_t total_chain = n - m;
  std::vector<double> lengths(chosen.size());
  double total_length = 0;
  for (size_t i = 0; i < chosen.size(); ++i) {
    const double dx = xs[chosen[i].u] - xs[chosen[i].v];
    const double dy = ys[chosen[i].u] - ys[chosen[i].v];
    lengths[i] = std::sqrt(dx * dx + dy * dy);
    total_length += lengths[i];
  }
  std::vector<uint32_t> chain_count(chosen.size(), 0);
  if (total_chain > 0 && !chosen.empty()) {
    std::vector<std::pair<double, size_t>> remainders(chosen.size());
    uint32_t assigned = 0;
    for (size_t i = 0; i < chosen.size(); ++i) {
      const double share = total_chain * lengths[i] / total_length;
      chain_count[i] = static_cast<uint32_t>(share);
      assigned += chain_count[i];
      remainders[i] = {share - chain_count[i], i};
    }
    std::sort(remainders.rbegin(), remainders.rend());
    for (size_t k = 0; assigned < total_chain; ++k) {
      ++chain_count[remainders[k % remainders.size()].second];
      ++assigned;
    }
  }

  GraphBuilder builder;
  for (uint32_t i = 0; i < m; ++i) {
    builder.AddNode(xs[i], ys[i]);
  }
  for (size_t i = 0; i < chosen.size(); ++i) {
    const NodeId a = chosen[i].u;
    const NodeId b = chosen[i].v;
    const uint32_t k = chain_count[i];
    // Polyline a -> c1 -> ... -> ck -> b with slight lateral jitter.
    NodeId prev = a;
    double prev_x = xs[a], prev_y = ys[a];
    const double seg_jitter = lengths[i] * 0.06;
    for (uint32_t j = 1; j <= k; ++j) {
      const double t = static_cast<double>(j) / (k + 1);
      const double px = xs[a] + t * (xs[b] - xs[a]) +
                        rng.NextDoubleIn(-seg_jitter, seg_jitter);
      const double py = ys[a] + t * (ys[b] - ys[a]) +
                        rng.NextDoubleIn(-seg_jitter, seg_jitter);
      const NodeId node = builder.AddNode(px, py);
      const double euclid = std::sqrt((px - prev_x) * (px - prev_x) +
                                      (py - prev_y) * (py - prev_y));
      const double noise = options.weight_noise > 0
                               ? rng.NextDoubleIn(0.0, options.weight_noise)
                               : 0.0;
      SPAUTH_RETURN_IF_ERROR(
          builder.AddEdge(prev, node, euclid * (1.0 + noise)));
      prev = node;
      prev_x = px;
      prev_y = py;
    }
    const double euclid = std::sqrt((xs[b] - prev_x) * (xs[b] - prev_x) +
                                    (ys[b] - prev_y) * (ys[b] - prev_y));
    const double noise = options.weight_noise > 0
                             ? rng.NextDoubleIn(0.0, options.weight_noise)
                             : 0.0;
    SPAUTH_RETURN_IF_ERROR(
        builder.AddEdge(prev, b, euclid * (1.0 + noise)));
  }
  return builder.Build();
}

std::string_view DatasetName(Dataset d) {
  switch (d) {
    case Dataset::kDE:
      return "DE";
    case Dataset::kARG:
      return "ARG";
    case Dataset::kIND:
      return "IND";
    case Dataset::kNA:
      return "NA";
  }
  return "?";
}

RoadNetworkOptions DatasetOptions(Dataset d) {
  RoadNetworkOptions options;
  // Calibration note: the paper normalizes
  // coordinates to [0, 10000]^2, but its query ranges (250..8000) reach a
  // large fraction of the network — at the default range 2000, DIJ's proof
  // covers ~88% of DE's nodes. We reproduce that *distance spectrum* by
  // shrinking the coordinate extent to 4500, putting the weighted network
  // diameter near 8000 (the top of the paper's range sweep) so range-2000
  // queries cover a comparably large node fraction.
  options.coord_extent = 4500.0;
  switch (d) {
    case Dataset::kDE:  // paper: 28,867 nodes / 30,429 edges
      options.num_nodes = 1200;
      options.edge_factor = 30429.0 / 28867.0;
      options.seed = 0x0DE;
      break;
    case Dataset::kARG:  // paper: 85,287 / 88,357
      options.num_nodes = 2000;
      options.edge_factor = 88357.0 / 85287.0;
      options.seed = 0xA26;
      break;
    case Dataset::kIND:  // paper: 149,566 / 155,483
      options.num_nodes = 2600;
      options.edge_factor = 155483.0 / 149566.0;
      options.seed = 0x12D;
      break;
    case Dataset::kNA:  // paper: 175,813 / 179,179
      options.num_nodes = 3000;
      options.edge_factor = 179179.0 / 175813.0;
      options.seed = 0x4A1;
      break;
  }
  return options;
}

Result<Graph> GenerateDataset(Dataset d) {
  return GenerateRoadNetwork(DatasetOptions(d));
}

}  // namespace spauth
