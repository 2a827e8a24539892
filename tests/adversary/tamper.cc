#include "adversary/tamper.h"

#include <algorithm>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/method_traits.h"
#include "graph/dijkstra.h"

namespace spauth {

std::string_view ToString(TamperKind kind) {
  switch (kind) {
    case TamperKind::kSuboptimalPath:
      return "suboptimal-path";
    case TamperKind::kTamperWeight:
      return "tamper-weight";
    case TamperKind::kDropTuple:
      return "drop-tuple";
    case TamperKind::kForgeDistanceValue:
      return "forge-distance";
    case TamperKind::kBogusSignature:
      return "bogus-signature";
    case TamperKind::kPhantomEdge:
      return "phantom-edge";
  }
  return "?";
}

namespace {

// Where each method's answer keeps its network tuples.
TupleSetProof& Tuples(DijAnswer& a) { return a.subgraph; }
TupleSetProof& Tuples(FullAnswer& a) { return a.path_tuples; }
TupleSetProof& Tuples(LdmAnswer& a) { return a.subgraph; }
TupleSetProof& Tuples(HypAnswer& a) { return a.tuples; }

// The authenticated distance entries of FULL and HYP answers (null when a
// HYP answer ships no hyper-edges). DIJ and LDM answers have none.
MerkleBTreeProof* DistanceEntries(FullAnswer& a) { return &a.distance_proof; }
MerkleBTreeProof* DistanceEntries(HypAnswer& a) {
  return a.has_hyper_edges ? &a.hyper_edges : nullptr;
}

template <typename Answer>
constexpr bool kHasDistanceEntries =
    requires(Answer& a) { DistanceEntries(a); };

/// Computes a strictly-longer alternative path by deleting one edge of the
/// true shortest path at a time. NotFound if every alternative ties or the
/// target becomes unreachable.
Result<PathSearchResult> FindSuboptimalPath(const Graph& g,
                                            const Query& query) {
  PathSearchResult best = DijkstraShortestPath(g, query.source, query.target);
  if (!best.reachable) {
    return Status::NotFound("unreachable");
  }
  for (size_t hop = 1; hop < best.path.nodes.size(); ++hop) {
    const NodeId u = best.path.nodes[hop - 1];
    const NodeId v = best.path.nodes[hop];
    // Rebuild the graph without edge (u, v).
    GraphBuilder builder;
    for (NodeId n = 0; n < g.num_nodes(); ++n) {
      builder.AddNode(g.x(n), g.y(n));
    }
    for (NodeId n = 0; n < g.num_nodes(); ++n) {
      for (const Edge& e : g.Neighbors(n)) {
        if (n < e.to && !(n == std::min(u, v) && e.to == std::max(u, v))) {
          SPAUTH_RETURN_IF_ERROR(builder.AddEdge(n, e.to, e.weight));
        }
      }
    }
    SPAUTH_ASSIGN_OR_RETURN(Graph reduced, builder.Build());
    PathSearchResult alt =
        DijkstraShortestPath(reduced, query.source, query.target);
    if (alt.reachable &&
        alt.distance > best.distance + 10 * VerifySlack(best.distance)) {
      return alt;
    }
  }
  return Status::NotFound("no strictly longer alternative path");
}

// ---------------------------------------------------------------------------
// Suboptimal path: a longer real path, with proofs built around it.
// ---------------------------------------------------------------------------

/// DIJ: "honest" proof generation relative to the longer distance.
Result<DijAnswer> SuboptimalPath(const AdsState<DijAds>& s,
                                 const DijProvider& /*provider*/,
                                 const Query& query) {
  SPAUTH_ASSIGN_OR_RETURN(PathSearchResult alt,
                          FindSuboptimalPath(*s.graph, query));
  BallResult ball = DijkstraBall(*s.graph, query.source,
                                 alt.distance + ProviderSlack(alt.distance));
  DijAnswer answer;
  answer.path = std::move(alt.path);
  answer.distance = alt.distance;
  SPAUTH_ASSIGN_OR_RETURN(answer.subgraph,
                          s.ads.network.ProveTuples(ball.nodes));
  return answer;
}

/// FULL: the honest distance proof, under the longer path's tuples.
Result<FullAnswer> SuboptimalPath(const AdsState<FullAds>& s,
                                  const FullProvider& provider,
                                  const Query& query) {
  SPAUTH_ASSIGN_OR_RETURN(PathSearchResult alt,
                          FindSuboptimalPath(*s.graph, query));
  SPAUTH_ASSIGN_OR_RETURN(FullAnswer answer, provider.Answer(query));
  answer.distance = alt.distance;
  answer.path = alt.path;
  SPAUTH_ASSIGN_OR_RETURN(answer.path_tuples,
                          s.ads.network.ProveTuples(answer.path.nodes));
  return answer;
}

/// LDM: a superset proof (the ball of radius alt.distance, its neighbors,
/// their reference landmarks and the endpoints) keeps the Merkle part valid
/// while the path is suboptimal.
Result<LdmAnswer> SuboptimalPath(const AdsState<LdmAds>& s,
                                 const LdmProvider& /*provider*/,
                                 const Query& query) {
  const Graph& g = *s.graph;
  SPAUTH_ASSIGN_OR_RETURN(PathSearchResult alt, FindSuboptimalPath(g, query));
  LdmAnswer answer;
  answer.path = std::move(alt.path);
  answer.distance = alt.distance;
  BallResult ball = DijkstraBall(g, query.source,
                                 alt.distance + ProviderSlack(alt.distance));
  std::vector<NodeId> nodes = ball.nodes;
  const size_t direct = nodes.size();
  for (size_t i = 0; i < direct; ++i) {
    for (const Edge& e : g.Neighbors(nodes[i])) {
      nodes.push_back(e.to);
    }
  }
  const size_t with_neighbors = nodes.size();
  for (size_t i = 0; i < with_neighbors; ++i) {
    nodes.push_back(s.ads.ref[nodes[i]]);
  }
  nodes.push_back(query.source);
  nodes.push_back(query.target);
  nodes.push_back(s.ads.ref[query.source]);
  nodes.push_back(s.ads.ref[query.target]);
  SPAUTH_ASSIGN_OR_RETURN(answer.subgraph, s.ads.network.ProveTuples(nodes));
  return answer;
}

/// HYP: the honest cells and hyper-edges; the tuple proof must still cover
/// the (new) path nodes.
Result<HypAnswer> SuboptimalPath(const AdsState<HypAds>& s,
                                 const HypProvider& provider,
                                 const Query& query) {
  SPAUTH_ASSIGN_OR_RETURN(PathSearchResult alt,
                          FindSuboptimalPath(*s.graph, query));
  SPAUTH_ASSIGN_OR_RETURN(HypAnswer answer, provider.Answer(query));
  answer.distance = alt.distance;
  answer.path = alt.path;
  std::vector<NodeId> nodes;
  for (const ExtendedTuple& t : answer.tuples.tuples) {
    nodes.push_back(t.id);
  }
  nodes.insert(nodes.end(), alt.path.nodes.begin(), alt.path.nodes.end());
  SPAUTH_ASSIGN_OR_RETURN(answer.tuples, s.ads.network.ProveTuples(nodes));
  return answer;
}

// ---------------------------------------------------------------------------
// Drop tuple: omit a tuple the client needs, with a root-valid Merkle proof
// regenerated over the rest.
// ---------------------------------------------------------------------------

/// DIJ: an interior ball node the client's Dijkstra must expand.
Result<DijAnswer> DropTuple(const AdsState<DijAds>& s,
                            const DijProvider& provider, const Query& query) {
  SPAUTH_ASSIGN_OR_RETURN(DijAnswer answer, provider.Answer(query));
  BallResult ball =
      DijkstraBall(*s.graph, query.source,
                   answer.distance + ProviderSlack(answer.distance));
  std::unordered_set<NodeId> path_nodes(answer.path.nodes.begin(),
                                        answer.path.nodes.end());
  NodeId victim = kInvalidNode;
  std::vector<NodeId> kept;
  for (size_t i = 0; i < ball.nodes.size(); ++i) {
    const NodeId v = ball.nodes[i];
    if (victim == kInvalidNode && !path_nodes.contains(v) &&
        ball.dist[i] > 0 && ball.dist[i] < answer.distance * 0.8) {
      victim = v;
      continue;
    }
    kept.push_back(v);
  }
  if (victim == kInvalidNode) {
    return Status::NotFound("no droppable interior tuple");
  }
  SPAUTH_ASSIGN_OR_RETURN(answer.subgraph, s.ads.network.ProveTuples(kept));
  return answer;
}

/// FULL: a middle node of the path.
Result<FullAnswer> DropTuple(const AdsState<FullAds>& s,
                             const FullProvider& provider,
                             const Query& query) {
  SPAUTH_ASSIGN_OR_RETURN(FullAnswer answer, provider.Answer(query));
  if (answer.path.nodes.size() < 3) {
    return Status::NotFound("path too short to drop a tuple");
  }
  std::vector<NodeId> kept = answer.path.nodes;
  kept.erase(kept.begin() + static_cast<ptrdiff_t>(kept.size() / 2));
  SPAUTH_ASSIGN_OR_RETURN(answer.path_tuples,
                          s.ads.network.ProveTuples(kept));
  return answer;
}

/// LDM: a middle path node (it is certainly needed).
Result<LdmAnswer> DropTuple(const AdsState<LdmAds>& s,
                            const LdmProvider& provider, const Query& query) {
  SPAUTH_ASSIGN_OR_RETURN(LdmAnswer answer, provider.Answer(query));
  if (answer.path.nodes.size() < 3) {
    return Status::NotFound("path too short to drop a tuple");
  }
  const NodeId victim = answer.path.nodes[answer.path.nodes.size() / 2];
  std::vector<NodeId> kept;
  for (const ExtendedTuple& t : answer.subgraph.tuples) {
    if (t.id != victim) {
      kept.push_back(t.id);
    }
  }
  SPAUTH_ASSIGN_OR_RETURN(answer.subgraph, s.ads.network.ProveTuples(kept));
  return answer;
}

/// HYP: a source-cell tuple off the path; the client's cell count check
/// must catch it.
Result<HypAnswer> DropTuple(const AdsState<HypAds>& s,
                            const HypProvider& provider, const Query& query) {
  SPAUTH_ASSIGN_OR_RETURN(HypAnswer answer, provider.Answer(query));
  const uint32_t cell_s = s.ads.hiti.partition().CellOf(query.source);
  std::unordered_set<NodeId> path_nodes(answer.path.nodes.begin(),
                                        answer.path.nodes.end());
  NodeId victim = kInvalidNode;
  std::vector<NodeId> kept;
  for (const ExtendedTuple& t : answer.tuples.tuples) {
    if (victim == kInvalidNode && t.cell == cell_s &&
        !path_nodes.contains(t.id) && t.id != query.source) {
      victim = t.id;
      continue;
    }
    kept.push_back(t.id);
  }
  if (victim == kInvalidNode) {
    return Status::NotFound("no droppable cell tuple");
  }
  SPAUTH_ASSIGN_OR_RETURN(answer.tuples, s.ads.network.ProveTuples(kept));
  return answer;
}

// ---------------------------------------------------------------------------
// The wire-level attacks, one code path for every method.
// ---------------------------------------------------------------------------

/// Decodes the honest bundle, applies attack `kind` to the certificate or
/// the answer, and re-encodes.
template <typename M>
Result<ProofBundle> MutateWire(const ProofBundle& honest, const Query& query,
                               TamperKind kind) {
  Certificate cert;
  typename M::Answer answer;
  ByteReader reader(honest.bytes);
  SPAUTH_RETURN_IF_ERROR(Certificate::DeserializeInto(&reader, &cert));
  SPAUTH_RETURN_IF_ERROR(M::Answer::DeserializeInto(&reader, &answer));
  switch (kind) {
    case TamperKind::kBogusSignature:
      if (!cert.signature.empty()) {
        cert.signature[cert.signature.size() / 2] ^= 0x40;
      }
      break;
    case TamperKind::kPhantomEdge:
      answer.path.nodes = {query.source, query.target};
      break;
    case TamperKind::kTamperWeight: {
      // Perturb one shipped edge weight without re-hashing.
      auto& tuples = Tuples(answer).tuples;
      auto it = std::find_if(tuples.begin(), tuples.end(),
                             [](const ExtendedTuple& t) {
                               return !t.neighbors.empty();
                             });
      if (it == tuples.end()) {
        return Status::NotFound("no tuple with neighbors to corrupt");
      }
      it->neighbors[0].weight += 1.0;
      break;
    }
    case TamperKind::kForgeDistanceValue:
      if constexpr (kHasDistanceEntries<typename M::Answer>) {
        MerkleBTreeProof* entries = DistanceEntries(answer);
        if (entries == nullptr || entries->entries.empty()) {
          return Status::NotFound("no distance entries to forge");
        }
        entries->entries[0].value *= 1.1;
      }
      break;
    default:
      return Status::Internal("not a wire-level attack");
  }
  return MakeBundle<M>(cert, cert.SerializedSize(), answer);
}

template <typename M>
Result<ProofBundle> Forge(const MethodEngine& engine, const Query& query,
                          TamperKind kind) {
  using Answer = typename M::Answer;
  if (kind == TamperKind::kForgeDistanceValue &&
      !kHasDistanceEntries<Answer>) {
    return Status::FailedPrecondition(std::string(ToString(M::kKind)) +
                                      " has no distance entries");
  }
  const auto state = std::static_pointer_cast<const AdsState<typename M::Ads>>(
      engine.CurrentState());
  const typename M::Provider provider(state->graph.get(), &state->ads,
                                      engine.provider_algorithm());
  if (kind == TamperKind::kSuboptimalPath || kind == TamperKind::kDropTuple) {
    SPAUTH_ASSIGN_OR_RETURN(
        Answer forged, kind == TamperKind::kSuboptimalPath
                           ? SuboptimalPath(*state, provider, query)
                           : DropTuple(*state, provider, query));
    return MakeBundle<M>(state->certificate, state->cert_size, forged);
  }
  SPAUTH_ASSIGN_OR_RETURN(Answer honest, provider.Answer(query));
  return MutateWire<M>(
      MakeBundle<M>(state->certificate, state->cert_size, honest), query,
      kind);
}

}  // namespace

Result<ProofBundle> TamperedAnswer(const MethodEngine& engine,
                                   const Query& query, TamperKind kind) {
  return VisitMethod(engine.kind(), [&](auto method) {
    return Forge<decltype(method)>(engine, query, kind);
  });
}

}  // namespace spauth
