#include "core/client_search.h"

#include <algorithm>
#include <cmath>

#include "core/network_ads.h"
#include "hints/quantize.h"

namespace spauth {

// The searches keep all distance state in the caller's SearchLane/heap
// (borrowed from a SearchWorkspace), so the hot path never allocates.

SubgraphSearchOutcome DijkstraOverTuples(const TupleLane& tuples,
                                         NodeId source, NodeId target,
                                         double claimed_distance,
                                         SearchWorkspace& ws) {
  const size_t num_nodes = tuples.num_nodes();
  SearchLane& best = ws.forward;
  FourAryHeap<DistHeapEntry>& heap = ws.heap;
  SubgraphSearchOutcome out;
  const double slack = VerifySlack(claimed_distance);
  best.Prepare(num_nodes);
  heap.Clear();
  if (source >= num_nodes) {
    // An id beyond the certified range can never carry an authenticated
    // tuple; replicate the untupled-source semantics without a lane slot.
    if (0 > claimed_distance + slack) {
      return out;  // kTargetNotReached
    }
    if (source == target) {
      out.code = SubgraphSearchOutcome::Code::kOk;
      out.distance = 0;
      return out;
    }
    if (0 <= claimed_distance - slack) {
      out.code = SubgraphSearchOutcome::Code::kMissingTuple;
      out.node = source;
      out.distance = 0;
    }
    return out;
  }
  best.Relax(source, 0, kInvalidNode);
  heap.Push({0, source});
  while (!heap.Empty()) {
    const DistHeapEntry top = heap.PopMin();
    const double d = top.key;
    const NodeId u = top.node;
    if (d > best.Dist(u)) {
      continue;  // stale
    }
    if (d > claimed_distance + slack) {
      break;  // everything farther than the claim is irrelevant
    }
    if (u == target) {
      out.code = SubgraphSearchOutcome::Code::kOk;
      out.distance = d;
      return out;
    }
    const ExtendedTuple* tuple = tuples.Find(u);
    if (tuple == nullptr) {
      if (d <= claimed_distance - slack) {
        out.code = SubgraphSearchOutcome::Code::kMissingTuple;
        out.node = u;
        out.distance = d;
        return out;
      }
      continue;  // boundary band: tolerated, not expanded
    }
    ++out.settled;
    for (const NeighborEntry& e : tuple->neighbors) {
      const double nd = d + e.weight;
      if (e.id >= num_nodes) {
        // Unreachable for authenticated tuples (ids are bound by the
        // certified leaf count); reject-biased handling for robustness.
        if (nd <= claimed_distance - slack) {
          out.code = SubgraphSearchOutcome::Code::kMissingTuple;
          out.node = e.id;
          out.distance = nd;
          return out;
        }
        continue;
      }
      if (nd < best.Dist(e.id)) {
        best.Relax(e.id, nd, u);
        heap.Push({nd, e.id});
      }
    }
  }
  out.code = SubgraphSearchOutcome::Code::kTargetNotReached;
  return out;
}

namespace {

/// Resolves the (codes, epsilon) pair used by the Lemma-4 bound for node v.
/// Returns false if landmark data or the representative is missing; sets
/// *missing to the offending node.
bool ResolveLandmark(const TupleLane& tuples, const ExtendedTuple& t,
                     std::span<const uint16_t>* codes, double* eps,
                     NodeId* missing, bool* bad_data) {
  if (!t.has_landmark_data) {
    *bad_data = true;
    *missing = t.id;
    return false;
  }
  if (t.is_representative) {
    *codes = t.qcodes;
    *eps = 0;
    return true;
  }
  const ExtendedTuple* rep = tuples.Find(t.ref_node);
  if (rep == nullptr) {
    *missing = t.ref_node;
    *bad_data = false;
    return false;
  }
  if (!rep->has_landmark_data || !rep->is_representative) {
    *bad_data = true;
    *missing = rep->id;
    return false;
  }
  *codes = rep->qcodes;
  *eps = t.ref_error;
  return true;
}

}  // namespace

SubgraphSearchOutcome AStarOverTuples(const TupleLane& tuples, NodeId source,
                                      NodeId target, double claimed_distance,
                                      double lambda, SearchWorkspace& ws) {
  const size_t num_nodes = tuples.num_nodes();
  SearchLane& best = ws.forward;
  FourAryHeap<AStarHeapEntry>& heap = ws.astar_heap;
  SubgraphSearchOutcome out;
  const double slack = VerifySlack(claimed_distance);

  // Resolve the target's vector once; h(v) needs it for every node.
  const ExtendedTuple* target_tuple = tuples.Find(target);
  if (target_tuple == nullptr) {
    out.code = SubgraphSearchOutcome::Code::kMissingTuple;
    out.node = target;
    return out;
  }
  std::span<const uint16_t> target_codes;
  double target_eps = 0;
  NodeId missing = kInvalidNode;
  bool bad_data = false;
  if (!ResolveLandmark(tuples, *target_tuple, &target_codes, &target_eps,
                       &missing, &bad_data)) {
    out.code = bad_data ? SubgraphSearchOutcome::Code::kBadTupleData
                        : SubgraphSearchOutcome::Code::kMissingTuple;
    out.node = missing;
    return out;
  }

  // h(v): Lemma-4 bound; an error is signalled through the outcome.
  auto lower_bound = [&](const ExtendedTuple& t, double* h) {
    std::span<const uint16_t> codes;
    double eps = 0;
    if (!ResolveLandmark(tuples, t, &codes, &eps, &missing, &bad_data)) {
      return false;
    }
    if (codes.size() != target_codes.size()) {
      bad_data = true;
      missing = t.id;
      return false;
    }
    const double loose = LooseLowerBoundFromCodes(codes, target_codes, lambda);
    *h = std::max(0.0, loose - (eps + target_eps));
    return true;
  };

  const ExtendedTuple* source_tuple = tuples.Find(source);
  if (source_tuple == nullptr) {
    out.code = SubgraphSearchOutcome::Code::kMissingTuple;
    out.node = source;
    return out;
  }
  double h_source = 0;
  if (!lower_bound(*source_tuple, &h_source)) {
    out.code = bad_data ? SubgraphSearchOutcome::Code::kBadTupleData
                        : SubgraphSearchOutcome::Code::kMissingTuple;
    out.node = missing;
    return out;
  }

  // A tupled source/target is inside the certified id range by definition
  // of the lane, so lane writes are safe.
  best.Prepare(num_nodes);
  heap.Clear();
  best.Relax(source, 0, kInvalidNode);
  heap.Push({h_source, 0, source});
  while (!heap.Empty()) {
    const AStarHeapEntry top = heap.PopMin();
    const double f = top.key;
    const double g = top.g;
    const NodeId u = top.node;
    if (g > best.Dist(u)) {
      continue;  // stale
    }
    if (f > claimed_distance + slack) {
      break;  // admissible bound: nothing cheaper remains
    }
    if (u == target) {
      out.code = SubgraphSearchOutcome::Code::kOk;
      out.distance = g;
      return out;
    }
    const ExtendedTuple* tuple = tuples.Find(u);
    if (tuple == nullptr) {
      if (f <= claimed_distance - slack) {
        out.code = SubgraphSearchOutcome::Code::kMissingTuple;
        out.node = u;
        out.distance = g;
        return out;
      }
      continue;
    }
    ++out.settled;
    for (const NeighborEntry& e : tuple->neighbors) {
      const double ng = g + e.weight;
      if (e.id >= num_nodes) {
        // See DijkstraOverTuples: unreachable for authenticated
        // tuples, reject-biased otherwise.
        if (ng <= claimed_distance - slack) {
          out.code = SubgraphSearchOutcome::Code::kMissingTuple;
          out.node = e.id;
          return out;
        }
        continue;
      }
      if (ng >= best.Dist(e.id)) {
        continue;
      }
      best.Relax(e.id, ng, u);
      const ExtendedTuple* nt = tuples.Find(e.id);
      if (nt == nullptr) {
        // Lemma 2 includes every neighbor of the search space; absence is
        // only acceptable for nodes the search could never expand anyway.
        if (ng <= claimed_distance - slack) {
          out.code = SubgraphSearchOutcome::Code::kMissingTuple;
          out.node = e.id;
          return out;
        }
        continue;
      }
      double h = 0;
      if (!lower_bound(*nt, &h)) {
        out.code = bad_data ? SubgraphSearchOutcome::Code::kBadTupleData
                            : SubgraphSearchOutcome::Code::kMissingTuple;
        out.node = missing;
        return out;
      }
      heap.Push({ng + h, ng, e.id});
    }
  }
  out.code = SubgraphSearchOutcome::Code::kTargetNotReached;
  return out;
}

void InCellDijkstraOverTuples(const TupleLane& tuples, NodeId source,
                              uint32_t cell, SearchLane* dist_lane,
                              FourAryHeap<DistHeapEntry>* heap_ptr,
                              std::vector<NodeId>* reached) {
  SearchLane& dist = *dist_lane;
  FourAryHeap<DistHeapEntry>& heap = *heap_ptr;
  dist.Prepare(tuples.num_nodes());
  heap.Clear();
  const ExtendedTuple* source_tuple = tuples.Find(source);
  if (source_tuple == nullptr || !source_tuple->has_cell_data ||
      source_tuple->cell != cell) {
    return;
  }
  dist.Relax(source, 0, kInvalidNode);
  if (reached != nullptr) {
    reached->push_back(source);
  }
  heap.Push({0, source});
  while (!heap.Empty()) {
    const DistHeapEntry top = heap.PopMin();
    const double d = top.key;
    const NodeId u = top.node;
    if (d > dist.Dist(u)) {
      continue;
    }
    const ExtendedTuple* tuple = tuples.Find(u);
    // A tuple absent or outside the cell contributes no edges; cell
    // completeness is checked separately against the certificate counts.
    if (tuple == nullptr || !tuple->has_cell_data || tuple->cell != cell) {
      continue;
    }
    for (const NeighborEntry& e : tuple->neighbors) {
      const ExtendedTuple* nt = tuples.Find(e.id);
      if (nt == nullptr || !nt->has_cell_data || nt->cell != cell) {
        continue;  // out-of-cell edge
      }
      const double nd = d + e.weight;
      if (nd < dist.Dist(e.id)) {
        if (reached != nullptr && dist.Dist(e.id) == kInfDistance) {
          reached->push_back(e.id);
        }
        dist.Relax(e.id, nd, u);
        heap.Push({nd, e.id});
      }
    }
  }
}

VerifyOutcome CheckPathAgainstTuples(const TupleLane& tuples,
                                     const Query& query, const Path& path,
                                     double claimed_distance,
                                     std::vector<NodeId>* scratch_ptr) {
  std::vector<NodeId>& scratch = *scratch_ptr;
  if (path.empty() || path.source() != query.source ||
      path.target() != query.target) {
    return VerifyOutcome::Reject(VerifyFailure::kInvalidPath,
                                 "path endpoints do not match the query");
  }
  scratch.assign(path.nodes.begin(), path.nodes.end());
  std::sort(scratch.begin(), scratch.end());
  if (std::adjacent_find(scratch.begin(), scratch.end()) != scratch.end()) {
    return VerifyOutcome::Reject(VerifyFailure::kInvalidPath,
                                 "path repeats a node");
  }
  double total = 0;
  for (size_t i = 1; i < path.nodes.size(); ++i) {
    const ExtendedTuple* tuple = tuples.Find(path.nodes[i - 1]);
    if (tuple == nullptr) {
      return VerifyOutcome::Reject(VerifyFailure::kInvalidPath,
                                   "path node has no authenticated tuple");
    }
    auto w = tuple->WeightTo(path.nodes[i]);
    if (!w.ok()) {
      return VerifyOutcome::Reject(VerifyFailure::kInvalidPath,
                                   "path uses a non-existent edge");
    }
    total += w.value();
  }
  if (tuples.Find(path.target()) == nullptr) {
    return VerifyOutcome::Reject(VerifyFailure::kInvalidPath,
                                 "path target has no authenticated tuple");
  }
  if (std::abs(total - claimed_distance) > VerifySlack(claimed_distance)) {
    return VerifyOutcome::Reject(
        VerifyFailure::kDistanceMismatch,
        "path length does not equal the claimed distance");
  }
  return VerifyOutcome::Accept();
}

}  // namespace spauth
