#include "core/full.h"

#include <cmath>

#include "core/client_search.h"
#include "core/verify_workspace.h"
#include "graph/all_pairs.h"
#include "graph/dijkstra.h"

namespace spauth {

Result<FullAds> BuildFullAds(const Graph& g, const FullOptions& options,
                             const RsaKeyPair& keys) {
  if (g.num_nodes() < 2) {
    return Status::InvalidArgument("graph too small");
  }
  std::vector<ExtendedTuple> tuples = BuildBaseTuples(g);
  std::vector<NodeId> order = ComputeOrdering(g, options.ordering, options.seed);
  SPAUTH_ASSIGN_OR_RETURN(
      NetworkAds network,
      NetworkAds::Build(std::move(tuples), std::move(order), options.fanout,
                        options.alg));

  // All-pairs distances; the O(|V|^2) tuple count and O(|V|^3) time are the
  // whole point of this method's trade-off.
  DistanceMatrix matrix = options.use_floyd_warshall ? FloydWarshall(g)
                                                     : AllPairsDijkstra(g);
  const size_t n = g.num_nodes();
  std::vector<DistanceEntry> entries;
  entries.reserve(n * (n - 1) / 2);
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = i + 1; j < n; ++j) {
      const double d = matrix.at(i, j);
      if (d == kInfDistance) {
        return Status::InvalidArgument(
            "FULL requires a connected graph (unreachable pair found)");
      }
      entries.push_back({PackNodePairKey(i, j), d});
    }
  }
  SPAUTH_ASSIGN_OR_RETURN(
      MerkleBTree distances,
      MerkleBTree::Build(std::move(entries), options.distance_fanout,
                         options.alg));

  MethodParams params;
  params.method = MethodKind::kFull;
  params.alg = options.alg;
  params.fanout = options.fanout;
  params.ordering = options.ordering;
  params.num_network_leaves = static_cast<uint32_t>(network.num_nodes());
  params.has_distance_tree = true;
  params.num_distance_leaves = static_cast<uint32_t>(distances.size());
  params.distance_fanout = options.distance_fanout;
  SPAUTH_ASSIGN_OR_RETURN(
      Certificate cert,
      MakeCertificate(keys, std::move(params), network.root(),
                      distances.root()));
  return FullAds{std::move(network), std::move(distances), std::move(cert)};
}

Result<FullAnswer> FullProvider::Answer(const Query& query) const {
  SearchWorkspace ws;
  return Answer(query, ws);
}

Result<FullAnswer> FullProvider::Answer(const Query& query,
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
  FullAnswer answer;
  answer.path = std::move(sp.path);
  answer.distance = sp.distance;
  const uint64_t key = PackNodePairKey(query.source, query.target);
  SPAUTH_ASSIGN_OR_RETURN(answer.distance_proof,
                          ads_->distances.Lookup(std::vector<uint64_t>{key}));
  SPAUTH_ASSIGN_OR_RETURN(answer.path_tuples,
                          ads_->network.ProveTuples(answer.path.nodes));
  return answer;
}

void FullAnswer::Serialize(ByteWriter* out) const {
  out->WriteU32(static_cast<uint32_t>(path.nodes.size()));
  for (NodeId v : path.nodes) {
    out->WriteU32(v);
  }
  out->WriteF64(distance);
  distance_proof.Serialize(out);
  path_tuples.Serialize(out);
}

Result<FullAnswer> FullAnswer::Deserialize(ByteReader* in) {
  FullAnswer answer;
  SPAUTH_RETURN_IF_ERROR(DeserializeInto(in, &answer));
  return answer;
}

Status FullAnswer::DeserializeInto(ByteReader* in, FullAnswer* out) {
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
  SPAUTH_RETURN_IF_ERROR(
      MerkleBTreeProof::DeserializeInto(in, &out->distance_proof));
  return TupleSetProof::DeserializeInto(in, &out->path_tuples);
}

VerifyOutcome VerifyFullAnswer(const RsaPublicKey& owner_key,
                               const Certificate& cert, const Query& query,
                               const FullAnswer& answer) {
  VerifyWorkspace ws;
  return VerifyFullAnswer(owner_key, cert, query, answer, ws);
}

VerifyOutcome VerifyFullAnswer(const RsaPublicKey& owner_key,
                               const Certificate& cert, const Query& query,
                               const FullAnswer& answer, VerifyWorkspace& ws) {
  if ((!ws.cert_authenticated && !VerifyCertificate(owner_key, cert)) ||
      cert.params.method != MethodKind::kFull ||
      !cert.params.has_distance_tree) {
    return VerifyOutcome::Reject(VerifyFailure::kBadCertificate,
                                 "certificate invalid or wrong method");
  }

  // 1. The authenticated distance value for (vs, vt).
  const MerkleBTreeProof& dp = answer.distance_proof;
  if (dp.tree_proof.num_leaves != cert.params.num_distance_leaves ||
      dp.tree_proof.fanout != cert.params.distance_fanout ||
      dp.tree_proof.alg != cert.params.alg || dp.entries.size() != 1) {
    return VerifyOutcome::Reject(VerifyFailure::kMalformedProof,
                                 "distance proof shape mismatch");
  }
  if (dp.entries[0].key != PackNodePairKey(query.source, query.target)) {
    return VerifyOutcome::Reject(VerifyFailure::kWrongEntries,
                                 "distance entry is for a different pair");
  }
  auto dist_root = ReconstructBTreeRoot(dp, ws.merkle, &ws.leaf_scratch);
  if (!dist_root.ok()) {
    return VerifyOutcome::Reject(VerifyFailure::kMalformedProof,
                                 dist_root.status().message());
  }
  if (!(dist_root.value() == cert.distance_root)) {
    return VerifyOutcome::Reject(VerifyFailure::kRootMismatch,
                                 "distance tree root mismatch");
  }
  const double certified_distance = dp.entries[0].value;

  // 2. The path tuples against the network root.
  const MerkleSubsetProof& np = answer.path_tuples.proof;
  if (np.num_leaves != cert.params.num_network_leaves ||
      np.fanout != cert.params.fanout || np.alg != cert.params.alg) {
    return VerifyOutcome::Reject(VerifyFailure::kMalformedProof,
                                 "network proof shape mismatch");
  }
  if (Status s = answer.path_tuples.VerifyAgainstRoot(cert.network_root,
                                                      ws.merkle,
                                                      &ws.leaf_scratch);
      !s.ok()) {
    return VerifyOutcome::Reject(
        s.code() == StatusCode::kVerificationFailed
            ? VerifyFailure::kRootMismatch
            : VerifyFailure::kMalformedProof,
        s.message());
  }
  if (Status s = answer.path_tuples.IndexInto(cert.params.num_network_leaves,
                                              &ws.index);
      !s.ok()) {
    return VerifyOutcome::Reject(VerifyFailure::kMalformedProof, s.message());
  }

  // 3. The reported path is real and sums to the claimed distance.
  VerifyOutcome path_check = CheckPathAgainstTuples(ws.index, query,
                                                    answer.path,
                                                    answer.distance,
                                                    &ws.path_scratch);
  if (!path_check.accepted) {
    return path_check;
  }

  // 4. The claim equals the owner-certified shortest distance.
  if (std::abs(answer.distance - certified_distance) >
      VerifySlack(certified_distance)) {
    return VerifyOutcome::Reject(
        answer.distance > certified_distance ? VerifyFailure::kNotShortest
                                             : VerifyFailure::kDistanceMismatch,
        "claimed distance differs from the certified distance");
  }
  return VerifyOutcome::Accept();
}

}  // namespace spauth
