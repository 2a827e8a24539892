#include "core/dij.h"

#include <cmath>

#include "core/client_search.h"
#include "core/verify_workspace.h"

namespace spauth {

Result<DijAds> BuildDijAds(const Graph& g, const DijOptions& options,
                           const RsaKeyPair& keys) {
  std::vector<ExtendedTuple> tuples = BuildBaseTuples(g);
  std::vector<NodeId> order = ComputeOrdering(g, options.ordering, options.seed);
  SPAUTH_ASSIGN_OR_RETURN(
      NetworkAds network,
      NetworkAds::Build(std::move(tuples), std::move(order), options.fanout,
                        options.alg));
  MethodParams params;
  params.method = MethodKind::kDij;
  params.alg = options.alg;
  params.fanout = options.fanout;
  params.ordering = options.ordering;
  params.num_network_leaves = static_cast<uint32_t>(network.num_nodes());
  SPAUTH_ASSIGN_OR_RETURN(
      Certificate cert,
      MakeCertificate(keys, std::move(params), network.root(), Digest()));
  return DijAds{std::move(network), std::move(cert)};
}

Result<DijAnswer> DijProvider::Answer(const Query& query) const {
  SearchWorkspace ws;
  return Answer(query, ws);
}

Result<DijAnswer> DijProvider::Answer(const Query& query,
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
  // Lemma 1: include every node within dist(vs, vt) of vs (with slack so
  // the client's strict checks cannot fail on honest boundary ties).
  DijkstraBall(*g_, query.source, sp.distance + ProviderSlack(sp.distance),
               ws, &ws.ball);
  DijAnswer answer;
  answer.path = std::move(sp.path);
  answer.distance = sp.distance;
  SPAUTH_ASSIGN_OR_RETURN(answer.subgraph,
                          ads_->network.ProveTuples(ws.ball.nodes));
  return answer;
}

void DijAnswer::Serialize(ByteWriter* out) const {
  out->WriteU32(static_cast<uint32_t>(path.nodes.size()));
  for (NodeId v : path.nodes) {
    out->WriteU32(v);
  }
  out->WriteF64(distance);
  subgraph.Serialize(out);
}

Result<DijAnswer> DijAnswer::Deserialize(ByteReader* in) {
  DijAnswer answer;
  SPAUTH_RETURN_IF_ERROR(DeserializeInto(in, &answer));
  return answer;
}

Status DijAnswer::DeserializeInto(ByteReader* in, DijAnswer* out) {
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
  return TupleSetProof::DeserializeInto(in, &out->subgraph);
}

VerifyOutcome VerifyDijAnswer(const RsaPublicKey& owner_key,
                              const Certificate& cert, const Query& query,
                              const DijAnswer& answer) {
  VerifyWorkspace ws;
  return VerifyDijAnswer(owner_key, cert, query, answer, ws);
}

VerifyOutcome VerifyDijAnswer(const RsaPublicKey& owner_key,
                              const Certificate& cert, const Query& query,
                              const DijAnswer& answer, VerifyWorkspace& ws) {
  if ((!ws.cert_authenticated && !VerifyCertificate(owner_key, cert)) ||
      cert.params.method != MethodKind::kDij) {
    return VerifyOutcome::Reject(VerifyFailure::kBadCertificate,
                                 "certificate invalid or wrong method");
  }
  // The proof must be shaped by the certified tree parameters; otherwise a
  // provider could substitute a weaker tree.
  const MerkleSubsetProof& mp = answer.subgraph.proof;
  if (mp.num_leaves != cert.params.num_network_leaves ||
      mp.fanout != cert.params.fanout || mp.alg != cert.params.alg) {
    return VerifyOutcome::Reject(VerifyFailure::kMalformedProof,
                                 "proof shape disagrees with certificate");
  }
  if (Status s = answer.subgraph.VerifyAgainstRoot(cert.network_root,
                                                   ws.merkle,
                                                   &ws.leaf_scratch);
      !s.ok()) {
    return VerifyOutcome::Reject(
        s.code() == StatusCode::kVerificationFailed
            ? VerifyFailure::kRootMismatch
            : VerifyFailure::kMalformedProof,
        s.message());
  }
  if (Status s = answer.subgraph.IndexInto(cert.params.num_network_leaves,
                                           &ws.index);
      !s.ok()) {
    return VerifyOutcome::Reject(VerifyFailure::kMalformedProof, s.message());
  }
  if (!(answer.distance > 0) || !std::isfinite(answer.distance)) {
    return VerifyOutcome::Reject(VerifyFailure::kDistanceMismatch,
                                 "claimed distance must be positive");
  }
  VerifyOutcome path_check =
      CheckPathAgainstTuples(ws.index, query, answer.path, answer.distance,
                             &ws.path_scratch);
  if (!path_check.accepted) {
    return path_check;
  }
  // Re-run Dijkstra over the subgraph: completeness + optimality.
  SubgraphSearchOutcome search = DijkstraOverTuples(
      ws.index, query.source, query.target, answer.distance, ws.search);
  switch (search.code) {
    case SubgraphSearchOutcome::Code::kMissingTuple:
      return VerifyOutcome::Reject(
          VerifyFailure::kIncompleteSubgraph,
          "subgraph proof is missing a required tuple");
    case SubgraphSearchOutcome::Code::kTargetNotReached:
      return VerifyOutcome::Reject(
          VerifyFailure::kDistanceMismatch,
          "claimed distance is not realized in the verified subgraph");
    case SubgraphSearchOutcome::Code::kBadTupleData:
      return VerifyOutcome::Reject(VerifyFailure::kMalformedProof,
                                   "tuple carries unexpected data");
    case SubgraphSearchOutcome::Code::kOk:
      break;
  }
  if (search.distance < answer.distance - VerifySlack(answer.distance)) {
    return VerifyOutcome::Reject(
        VerifyFailure::kNotShortest,
        "a shorter path exists in the verified subgraph");
  }
  if (search.distance > answer.distance + VerifySlack(answer.distance)) {
    return VerifyOutcome::Reject(VerifyFailure::kDistanceMismatch,
                                 "subgraph distance exceeds the claim");
  }
  return VerifyOutcome::Accept();
}

}  // namespace spauth
