#include "core/hyp.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "core/client_search.h"
#include "core/verify_workspace.h"
#include "graph/dijkstra.h"

namespace spauth {

Result<HypAds> BuildHypAds(const Graph& g, const HypOptions& options,
                           const RsaKeyPair& keys) {
  SPAUTH_ASSIGN_OR_RETURN(GridPartition partition,
                          GridPartition::Build(g, options.num_cells));
  SPAUTH_ASSIGN_OR_RETURN(HitiIndex hiti,
                          HitiIndex::Build(g, std::move(partition)));
  const GridPartition& part = hiti.partition();

  // Eq. 7 tuples.
  std::vector<ExtendedTuple> tuples = BuildBaseTuples(g);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    tuples[v].has_cell_data = true;
    tuples[v].cell = part.CellOf(v);
    tuples[v].is_border = part.IsBorder(v);
  }
  std::vector<NodeId> order = ComputeOrdering(g, options.ordering, options.seed);
  SPAUTH_ASSIGN_OR_RETURN(
      NetworkAds network,
      NetworkAds::Build(std::move(tuples), std::move(order), options.fanout,
                        options.alg));

  // The hyper-edge B-tree. A graph can have no border nodes (p = 1); keep a
  // sentinel entry so the tree exists and the root is well-defined.
  std::vector<DistanceEntry> entries = hiti.entries();
  if (entries.empty()) {
    entries.push_back({PackNodePairKey(kInvalidNode, kInvalidNode), 0.0});
  }
  const uint32_t num_distance_leaves = static_cast<uint32_t>(entries.size());
  SPAUTH_ASSIGN_OR_RETURN(
      MerkleBTree distances,
      MerkleBTree::Build(std::move(entries), options.distance_fanout,
                         options.alg));

  MethodParams params;
  params.method = MethodKind::kHyp;
  params.alg = options.alg;
  params.fanout = options.fanout;
  params.ordering = options.ordering;
  params.num_network_leaves = static_cast<uint32_t>(network.num_nodes());
  params.has_distance_tree = true;
  params.num_distance_leaves = num_distance_leaves;
  params.distance_fanout = options.distance_fanout;
  params.has_cells = true;
  params.num_cells = part.num_cells();
  params.cell_counts.resize(part.num_cells());
  for (uint32_t c = 0; c < part.num_cells(); ++c) {
    params.cell_counts[c] = static_cast<uint32_t>(part.NodesInCell(c).size());
  }
  SPAUTH_ASSIGN_OR_RETURN(
      Certificate cert,
      MakeCertificate(keys, std::move(params), network.root(),
                      distances.root()));
  return HypAds{std::move(network), std::move(hiti), std::move(distances),
                std::move(cert)};
}

Result<HypAnswer> HypProvider::Answer(const Query& query) const {
  SearchWorkspace ws;
  return Answer(query, ws);
}

Result<HypAnswer> HypProvider::Answer(const Query& query,
                                      SearchWorkspace& ws) const {
  if (!g_->IsValidNode(query.source) || !g_->IsValidNode(query.target) ||
      query.source == query.target) {
    return Status::InvalidArgument("bad query endpoints");
  }
  PathSearchResult sp =
      RunShortestPath(*g_, query.source, query.target, algosp_, ws);
  if (!sp.reachable) {
    return Status::NotFound("target not reachable from source");
  }
  const GridPartition& part = ads_->hiti.partition();
  const uint32_t cell_s = part.CellOf(query.source);
  const uint32_t cell_t = part.CellOf(query.target);

  // Combined tuple set: both cells plus the path's nodes.
  std::vector<NodeId>& nodes = ws.node_scratch;
  auto src_nodes = part.NodesInCell(cell_s);
  nodes.assign(src_nodes.begin(), src_nodes.end());
  if (cell_t != cell_s) {
    auto tgt_nodes = part.NodesInCell(cell_t);
    nodes.insert(nodes.end(), tgt_nodes.begin(), tgt_nodes.end());
  }
  nodes.insert(nodes.end(), sp.path.nodes.begin(), sp.path.nodes.end());

  HypAnswer answer;
  answer.path = std::move(sp.path);
  answer.distance = sp.distance;
  SPAUTH_ASSIGN_OR_RETURN(answer.tuples, ads_->network.ProveTuples(nodes));

  // Hyper-edges between the two border sets (all pairs).
  std::vector<uint64_t> keys;
  auto borders_s = part.BordersOfCell(cell_s);
  auto borders_t = part.BordersOfCell(cell_t);
  for (NodeId bs : borders_s) {
    for (NodeId bt : borders_t) {
      if (bs != bt) {
        keys.push_back(HyperEdgeKey(cell_s, bs, cell_t, bt));
      }
    }
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  if (!keys.empty()) {
    answer.has_hyper_edges = true;
    SPAUTH_ASSIGN_OR_RETURN(answer.hyper_edges, ads_->distances.Lookup(keys));
  }
  return answer;
}

void HypAnswer::Serialize(ByteWriter* out) const {
  out->WriteU32(static_cast<uint32_t>(path.nodes.size()));
  for (NodeId v : path.nodes) {
    out->WriteU32(v);
  }
  out->WriteF64(distance);
  tuples.Serialize(out);
  out->WriteBool(has_hyper_edges);
  if (has_hyper_edges) {
    hyper_edges.Serialize(out);
  }
}

Result<HypAnswer> HypAnswer::Deserialize(ByteReader* in) {
  HypAnswer answer;
  SPAUTH_RETURN_IF_ERROR(DeserializeInto(in, &answer));
  return answer;
}

Status HypAnswer::DeserializeInto(ByteReader* in, HypAnswer* out) {
  uint32_t path_len = 0;
  SPAUTH_RETURN_IF_ERROR(in->ReadU32(&path_len));
  if (path_len == 0 || path_len > in->remaining() / 4) {
    return Status::Malformed("bad path length");
  }
  out->path.nodes.resize(path_len);
  for (uint32_t i = 0; i < path_len; ++i) {
    SPAUTH_RETURN_IF_ERROR(in->ReadU32(&out->path.nodes[i]));
  }
  SPAUTH_RETURN_IF_ERROR(in->ReadF64(&out->distance));
  SPAUTH_RETURN_IF_ERROR(TupleSetProof::DeserializeInto(in, &out->tuples));
  SPAUTH_RETURN_IF_ERROR(in->ReadBool(&out->has_hyper_edges));
  if (out->has_hyper_edges) {
    return MerkleBTreeProof::DeserializeInto(in, &out->hyper_edges);
  }
  // A reused `out` may carry a previous message's hyper-edge proof; reset
  // it to the fresh default so gated readers see a consistent value.
  out->hyper_edges.entries.clear();
  out->hyper_edges.leaf_indices.clear();
  out->hyper_edges.tree_proof.digests.clear();
  out->hyper_edges.tree_proof.num_leaves = 0;
  out->hyper_edges.tree_proof.fanout = 0;
  return Status::Ok();
}

VerifyOutcome VerifyHypAnswer(const RsaPublicKey& owner_key,
                              const Certificate& cert, const Query& query,
                              const HypAnswer& answer) {
  VerifyWorkspace ws;
  return VerifyHypAnswer(owner_key, cert, query, answer, ws);
}

VerifyOutcome VerifyHypAnswer(const RsaPublicKey& owner_key,
                              const Certificate& cert, const Query& query,
                              const HypAnswer& answer, VerifyWorkspace& ws) {
  if ((!ws.cert_authenticated && !VerifyCertificate(owner_key, cert)) ||
      cert.params.method != MethodKind::kHyp || !cert.params.has_cells ||
      !cert.params.has_distance_tree ||
      cert.params.cell_counts.size() != cert.params.num_cells) {
    return VerifyOutcome::Reject(VerifyFailure::kBadCertificate,
                                 "certificate invalid or wrong method");
  }

  // 1. Authenticate the tuple set.
  const MerkleSubsetProof& np = answer.tuples.proof;
  if (np.num_leaves != cert.params.num_network_leaves ||
      np.fanout != cert.params.fanout || np.alg != cert.params.alg) {
    return VerifyOutcome::Reject(VerifyFailure::kMalformedProof,
                                 "network proof shape mismatch");
  }
  if (Status s = answer.tuples.VerifyAgainstRoot(cert.network_root, ws.merkle,
                                                 &ws.leaf_scratch);
      !s.ok()) {
    return VerifyOutcome::Reject(
        s.code() == StatusCode::kVerificationFailed
            ? VerifyFailure::kRootMismatch
            : VerifyFailure::kMalformedProof,
        s.message());
  }
  if (Status s = answer.tuples.IndexInto(cert.params.num_network_leaves,
                                         &ws.index);
      !s.ok()) {
    return VerifyOutcome::Reject(VerifyFailure::kMalformedProof, s.message());
  }
  const TupleLane& tuples = ws.index;

  // 2. Locate the query cells from the authenticated endpoint tuples.
  const ExtendedTuple* source_tuple = tuples.Find(query.source);
  const ExtendedTuple* target_tuple = tuples.Find(query.target);
  if (source_tuple == nullptr || target_tuple == nullptr ||
      !source_tuple->has_cell_data || !target_tuple->has_cell_data) {
    return VerifyOutcome::Reject(VerifyFailure::kIncompleteSubgraph,
                                 "query endpoint tuples missing");
  }
  const uint32_t cell_s = source_tuple->cell;
  const uint32_t cell_t = target_tuple->cell;
  if (cell_s >= cert.params.num_cells || cell_t >= cert.params.num_cells) {
    return VerifyOutcome::Reject(VerifyFailure::kMalformedProof,
                                 "cell id out of certified range");
  }

  // 3. Cell completeness: the number of authenticated tuples claiming each
  // query cell must equal the owner-certified count, and every tuple must
  // carry cell data. Border sets fall out of the authenticated flags.
  size_t count_s = 0, count_t = 0;
  std::vector<NodeId>& borders_s = ws.borders_s;
  std::vector<NodeId>& borders_t = ws.borders_t;
  borders_s.clear();
  borders_t.clear();
  for (const ExtendedTuple& t : answer.tuples.tuples) {
    if (!t.has_cell_data) {
      return VerifyOutcome::Reject(VerifyFailure::kMalformedProof,
                                   "tuple lacks cell data");
    }
    if (t.cell == cell_s) {
      ++count_s;
      if (t.is_border) {
        borders_s.push_back(t.id);
      }
    }
    if (t.cell == cell_t && cell_t != cell_s) {
      ++count_t;
      if (t.is_border) {
        borders_t.push_back(t.id);
      }
    }
  }
  if (cell_t == cell_s) {
    count_t = count_s;
    borders_t.assign(borders_s.begin(), borders_s.end());
  }
  if (count_s != cert.params.cell_counts[cell_s] ||
      count_t != cert.params.cell_counts[cell_t]) {
    return VerifyOutcome::Reject(
        VerifyFailure::kIncompleteSubgraph,
        "cell tuple set incomplete (count mismatch)");
  }

  // 4. Authenticate the hyper-edge entries and index them.
  std::unordered_map<uint64_t, double>& hyper = ws.hyper;
  hyper.clear();
  if (answer.has_hyper_edges) {
    const MerkleBTreeProof& dp = answer.hyper_edges;
    if (dp.tree_proof.num_leaves != cert.params.num_distance_leaves ||
        dp.tree_proof.fanout != cert.params.distance_fanout ||
        dp.tree_proof.alg != cert.params.alg) {
      return VerifyOutcome::Reject(VerifyFailure::kMalformedProof,
                                   "hyper-edge proof shape mismatch");
    }
    auto root = ReconstructBTreeRoot(dp, ws.merkle, &ws.leaf_scratch);
    if (!root.ok()) {
      return VerifyOutcome::Reject(VerifyFailure::kMalformedProof,
                                   root.status().message());
    }
    if (!(root.value() == cert.distance_root)) {
      return VerifyOutcome::Reject(VerifyFailure::kRootMismatch,
                                   "hyper-edge tree root mismatch");
    }
    hyper.reserve(dp.entries.size());
    for (const DistanceEntry& e : dp.entries) {
      hyper[e.key] = e.value;
    }
  }
  // Every border pair between the cells must have an authenticated weight.
  for (NodeId bs : borders_s) {
    for (NodeId bt : borders_t) {
      if (bs == bt) {
        continue;
      }
      if (hyper.find(HyperEdgeKey(cell_s, bs, cell_t, bt)) == hyper.end()) {
        return VerifyOutcome::Reject(
            VerifyFailure::kWrongEntries,
            "missing hyper-edge for a border pair");
      }
    }
  }

  // 5. In-cell searches and the Theorem-2 combination. The two distance
  // lanes coexist (forward = source cell, backward = target cell);
  // unreached nodes read kInfDistance, standing in for map absence.
  SearchLane& d_src = ws.search.forward;
  SearchLane& d_tgt = ws.search.backward;
  InCellDijkstraOverTuples(tuples, query.source, cell_s, &d_src,
                           &ws.search.heap, nullptr);
  InCellDijkstraOverTuples(tuples, query.target, cell_t, &d_tgt,
                           &ws.search.heap, nullptr);
  double best = kInfDistance;
  if (cell_s == cell_t) {
    best = d_src.Dist(query.target);  // kInfDistance when unreached
  }
  for (NodeId bs : borders_s) {
    const double ds = d_src.Dist(bs);
    if (ds == kInfDistance) {
      continue;
    }
    for (NodeId bt : borders_t) {
      const double dt = d_tgt.Dist(bt);
      if (dt == kInfDistance) {
        continue;
      }
      const double w =
          bs == bt ? 0.0 : hyper.at(HyperEdgeKey(cell_s, bs, cell_t, bt));
      best = std::min(best, ds + w + dt);
    }
  }
  if (best == kInfDistance) {
    return VerifyOutcome::Reject(VerifyFailure::kDistanceMismatch,
                                 "verified distance is unreachable");
  }

  // 6. The reported path must be real and sum to the claimed distance.
  if (!(answer.distance > 0) || !std::isfinite(answer.distance)) {
    return VerifyOutcome::Reject(VerifyFailure::kDistanceMismatch,
                                 "claimed distance must be positive");
  }
  VerifyOutcome path_check = CheckPathAgainstTuples(tuples, query, answer.path,
                                                    answer.distance,
                                                    &ws.path_scratch);
  if (!path_check.accepted) {
    return path_check;
  }

  // 7. The claim must equal the Theorem-2 distance.
  if (answer.distance > best + VerifySlack(best)) {
    return VerifyOutcome::Reject(VerifyFailure::kNotShortest,
                                 "a shorter path exists (Theorem 2 bound)");
  }
  if (answer.distance < best - VerifySlack(best)) {
    return VerifyOutcome::Reject(VerifyFailure::kDistanceMismatch,
                                 "claim is below the verified distance");
  }
  return VerifyOutcome::Accept();
}

}  // namespace spauth
