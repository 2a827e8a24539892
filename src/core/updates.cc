#include "core/updates.h"

#include <algorithm>
#include <utility>

namespace spauth {

namespace {

// Rewrites the two endpoint tuples of the edge op `op` after the graph
// absorbed it. A chunk or Merkle path copied for an earlier op in this
// batch is uniquely owned by now, so overlapping ops copy nothing further.
Status RewriteEndpointTuples(DijAds* ads, const StructuralUpdate& op,
                             size_t* copied_bytes) {
  for (NodeId node : {op.u, op.v}) {
    ExtendedTuple tuple = ads->network.tuple(node);
    std::vector<NeighborEntry>& neighbors = tuple.neighbors;
    const NodeId other = node == op.u ? op.v : op.u;
    const auto it = std::lower_bound(
        neighbors.begin(), neighbors.end(), other,
        [](const NeighborEntry& e, NodeId id) { return e.id < id; });
    const bool present = it != neighbors.end() && it->id == other;
    if (present == (op.kind == StructuralOpKind::kAddEdge)) {
      return Status::Internal("tuple adjacency out of sync with graph");
    }
    switch (op.kind) {
      case StructuralOpKind::kAddEdge:
        neighbors.insert(it, NeighborEntry{other, op.weight});
        break;
      case StructuralOpKind::kRemoveEdge:
        neighbors.erase(it);
        break;
      default:  // kSetWeight
        it->weight = op.weight;
        break;
    }
    SPAUTH_RETURN_IF_ERROR(
        ads->network.UpdateTuple(node, std::move(tuple), copied_bytes));
  }
  return Status::Ok();
}

// Seals the batch: one version bump of +k, refreshed leaf count, one
// signature (or a defer-signed body in forest mode).
Status SealCertificate(DijAds* ads, const RsaKeyPair* keys, size_t batch) {
  MethodParams params = ads->certificate.params;
  params.version += static_cast<uint32_t>(batch);
  params.num_network_leaves =
      static_cast<uint32_t>(ads->network.tree().num_leaves());
  if (keys == nullptr) {
    // Defer-signed: identical certificate body (params, roots, version),
    // no signature. Everything the forest leaf hashes is already here.
    ads->certificate.params = std::move(params);
    ads->certificate.network_root = ads->network.root();
    ads->certificate.distance_root = Digest();
    ads->certificate.signature.clear();
    return Status::Ok();
  }
  SPAUTH_ASSIGN_OR_RETURN(
      ads->certificate,
      MakeCertificate(*keys, std::move(params), ads->network.root(),
                      Digest()));
  return Status::Ok();
}

}  // namespace

Status ApplyUpdates(Graph* g, DijAds* ads, const RsaKeyPair* keys,
                    std::span<const StructuralUpdate> ops,
                    size_t* copied_bytes) {
  if (ops.empty()) {
    return Status::Ok();
  }
  for (const StructuralUpdate& op : ops) {
    SPAUTH_RETURN_IF_ERROR(g->ApplyStructural(op, copied_bytes));
    if (op.kind != StructuralOpKind::kAddVertex) {
      SPAUTH_RETURN_IF_ERROR(RewriteEndpointTuples(ads, op, copied_bytes));
      continue;
    }
    // The new node's base tuple (Eq. 1): coordinates, no neighbors —
    // exactly what BuildBaseTuples would emit for an isolated node.
    ExtendedTuple tuple;
    tuple.id = static_cast<NodeId>(g->num_nodes() - 1);
    tuple.x = op.x;
    tuple.y = op.y;
    SPAUTH_RETURN_IF_ERROR(
        ads->network.AppendNodeTuple(std::move(tuple), copied_bytes));
  }
  // One signature for the whole batch, at version + k — byte-identical to
  // k single-op re-signs landing on the same root and version (the old
  // certificate stays cryptographically valid for the old root; freshness
  // enforcement is an out-of-band policy, see MethodParams::version).
  return SealCertificate(ads, keys, ops.size());
}

}  // namespace spauth
