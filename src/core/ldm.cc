#include "core/ldm.h"

#include <algorithm>
#include <cmath>

#include "core/client_search.h"
#include "core/verify_workspace.h"
#include "graph/dijkstra.h"

namespace spauth {

Result<LdmAds> BuildLdmAds(const Graph& g, const LdmOptions& options,
                           const RsaKeyPair& keys) {
  SPAUTH_ASSIGN_OR_RETURN(
      std::vector<NodeId> landmarks,
      SelectLandmarks(g, options.num_landmarks, options.strategy,
                      options.seed));
  SPAUTH_ASSIGN_OR_RETURN(LandmarkTable table,
                          LandmarkTable::Build(g, std::move(landmarks)));
  SPAUTH_ASSIGN_OR_RETURN(
      QuantizedVectorTable qtable,
      QuantizedVectorTable::Build(table, options.quantization_bits));
  SPAUTH_ASSIGN_OR_RETURN(
      CompressedVectors compressed,
      CompressDistanceVectors(g, table, qtable, options.compression_xi));

  // Eq. 4 tuples: representatives carry their code vector, compressed nodes
  // carry (theta, epsilon).
  std::vector<ExtendedTuple> tuples = BuildBaseTuples(g);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    ExtendedTuple& t = tuples[v];
    t.has_landmark_data = true;
    if (compressed.IsRepresentative(v)) {
      t.is_representative = true;
      auto codes = qtable.CodesOf(v);
      t.qcodes.assign(codes.begin(), codes.end());
    } else {
      t.is_representative = false;
      t.ref_node = compressed.ref[v];
      t.ref_error = compressed.eps[v];
    }
  }

  std::vector<NodeId> order = ComputeOrdering(g, options.ordering, options.seed);
  SPAUTH_ASSIGN_OR_RETURN(
      NetworkAds network,
      NetworkAds::Build(std::move(tuples), std::move(order), options.fanout,
                        options.alg));

  MethodParams params;
  params.method = MethodKind::kLdm;
  params.alg = options.alg;
  params.fanout = options.fanout;
  params.ordering = options.ordering;
  params.num_network_leaves = static_cast<uint32_t>(network.num_nodes());
  params.has_landmarks = true;
  params.num_landmarks = options.num_landmarks;
  params.lambda = qtable.params().lambda;
  SPAUTH_ASSIGN_OR_RETURN(
      Certificate cert,
      MakeCertificate(keys, std::move(params), network.root(), Digest()));

  LdmAds ads{std::move(network), std::move(cert), qtable.params(),
             std::move(compressed.ref), std::move(compressed.eps)};
  return ads;
}

double LdmProvider::LowerBound(NodeId u, NodeId target) const {
  const NetworkAds& network = ads_->network;
  const ExtendedTuple& rep_u = network.tuple(ads_->ref[u]);
  const ExtendedTuple& rep_t = network.tuple(ads_->ref[target]);
  const double loose = LooseLowerBoundFromCodes(rep_u.qcodes, rep_t.qcodes,
                                                ads_->qparams.lambda);
  return std::max(0.0, loose - (ads_->eps[u] + ads_->eps[target]));
}

Result<LdmAnswer> LdmProvider::Answer(const Query& query) const {
  SearchWorkspace ws;
  return Answer(query, ws);
}

Result<LdmAnswer> LdmProvider::Answer(const Query& query,
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
  const double limit = sp.distance + ProviderSlack(sp.distance);

  // Lemma 2 with the loose compressed bound: S = {v : dist(vs,v) +
  // LB(v,vt) <= D}; only nodes with dist(vs,v) <= D can qualify, so a
  // radius-bounded ball suffices to enumerate candidates.
  DijkstraBall(*g_, query.source, limit, ws, &ws.ball);
  const BallResult& ball = ws.ball;
  std::vector<NodeId>& proof_nodes = ws.node_scratch;
  proof_nodes.clear();
  proof_nodes.reserve(ball.nodes.size() * 2);
  for (size_t i = 0; i < ball.nodes.size(); ++i) {
    const NodeId v = ball.nodes[i];
    if (ball.dist[i] + LowerBound(v, query.target) <= limit) {
      proof_nodes.push_back(v);
      for (const Edge& e : g_->Neighbors(v)) {
        proof_nodes.push_back(e.to);  // Lemma 2 includes all neighbors
      }
    }
  }
  proof_nodes.push_back(query.source);
  proof_nodes.push_back(query.target);
  // Close over representatives so the client can resolve every vector.
  const size_t direct_count = proof_nodes.size();
  for (size_t i = 0; i < direct_count; ++i) {
    proof_nodes.push_back(ads_->ref[proof_nodes[i]]);
  }

  LdmAnswer answer;
  answer.path = std::move(sp.path);
  answer.distance = sp.distance;
  SPAUTH_ASSIGN_OR_RETURN(answer.subgraph,
                          ads_->network.ProveTuples(proof_nodes));
  return answer;
}

void LdmAnswer::Serialize(ByteWriter* out) const {
  out->WriteU32(static_cast<uint32_t>(path.nodes.size()));
  for (NodeId v : path.nodes) {
    out->WriteU32(v);
  }
  out->WriteF64(distance);
  subgraph.Serialize(out);
}

Result<LdmAnswer> LdmAnswer::Deserialize(ByteReader* in) {
  LdmAnswer answer;
  SPAUTH_RETURN_IF_ERROR(DeserializeInto(in, &answer));
  return answer;
}

Status LdmAnswer::DeserializeInto(ByteReader* in, LdmAnswer* out) {
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

VerifyOutcome VerifyLdmAnswer(const RsaPublicKey& owner_key,
                              const Certificate& cert, const Query& query,
                              const LdmAnswer& answer) {
  VerifyWorkspace ws;
  return VerifyLdmAnswer(owner_key, cert, query, answer, ws);
}

VerifyOutcome VerifyLdmAnswer(const RsaPublicKey& owner_key,
                              const Certificate& cert, const Query& query,
                              const LdmAnswer& answer, VerifyWorkspace& ws) {
  if ((!ws.cert_authenticated && !VerifyCertificate(owner_key, cert)) ||
      cert.params.method != MethodKind::kLdm || !cert.params.has_landmarks ||
      !(cert.params.lambda > 0)) {
    return VerifyOutcome::Reject(VerifyFailure::kBadCertificate,
                                 "certificate invalid or wrong method");
  }
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
  VerifyOutcome path_check = CheckPathAgainstTuples(ws.index, query,
                                                    answer.path,
                                                    answer.distance,
                                                    &ws.path_scratch);
  if (!path_check.accepted) {
    return path_check;
  }
  // Re-run A* with the certified lambda over the authenticated tuples.
  SubgraphSearchOutcome search =
      AStarOverTuples(ws.index, query.source, query.target, answer.distance,
                      cert.params.lambda, ws.search);
  switch (search.code) {
    case SubgraphSearchOutcome::Code::kMissingTuple:
      return VerifyOutcome::Reject(
          VerifyFailure::kIncompleteSubgraph,
          "subgraph proof is missing a required tuple");
    case SubgraphSearchOutcome::Code::kBadTupleData:
      return VerifyOutcome::Reject(
          VerifyFailure::kMalformedProof,
          "tuple lacks required landmark data");
    case SubgraphSearchOutcome::Code::kTargetNotReached:
      return VerifyOutcome::Reject(
          VerifyFailure::kDistanceMismatch,
          "claimed distance is not realized in the verified subgraph");
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
