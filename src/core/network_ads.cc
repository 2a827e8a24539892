#include "core/network_ads.h"

#include <algorithm>

#include "core/client_search.h"
#include "util/cow.h"
#include "util/failpoint.h"

namespace spauth {

size_t TupleSetProof::TupleBytes() const {
  size_t bytes = 4;  // tuple count
  for (const ExtendedTuple& t : tuples) {
    bytes += t.SerializedSize();
  }
  return bytes;
}

size_t TupleSetProof::IntegrityBytes() const {
  return leaf_indices.size() * 4 + proof.SerializedSize();
}

void TupleSetProof::Serialize(ByteWriter* out) const {
  out->WriteU32(static_cast<uint32_t>(tuples.size()));
  for (size_t i = 0; i < tuples.size(); ++i) {
    tuples[i].Serialize(out);
    out->WriteU32(leaf_indices[i]);
  }
  proof.Serialize(out);
}

Result<TupleSetProof> TupleSetProof::Deserialize(ByteReader* in) {
  TupleSetProof out;
  SPAUTH_RETURN_IF_ERROR(DeserializeInto(in, &out));
  return out;
}

Status TupleSetProof::DeserializeInto(ByteReader* in, TupleSetProof* out) {
  uint32_t count = 0;
  SPAUTH_RETURN_IF_ERROR(in->ReadU32(&count));
  if (count == 0) {
    return Status::Malformed("tuple set proof must contain tuples");
  }
  // Upfront length-vs-remaining check: a tuple encodes to >= 25 bytes, so a
  // hostile count can never trigger a resize larger than the bytes present.
  if (count > in->remaining() / 25) {
    return Status::Malformed("tuple count exceeds buffer");
  }
  out->tuples.resize(count);
  out->leaf_indices.resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    SPAUTH_RETURN_IF_ERROR(
        ExtendedTuple::DeserializeInto(in, &out->tuples[i]));
    SPAUTH_RETURN_IF_ERROR(in->ReadU32(&out->leaf_indices[i]));
  }
  return MerkleSubsetProof::DeserializeInto(in, &out->proof);
}

Status TupleSetProof::VerifyAgainstRoot(const Digest& root) const {
  MerkleVerifyScratch scratch;
  ByteWriter encode_scratch;
  return VerifyAgainstRoot(root, scratch, &encode_scratch);
}

Status TupleSetProof::VerifyAgainstRoot(const Digest& root,
                                        MerkleVerifyScratch& scratch,
                                        ByteWriter* encode_scratch) const {
  if (tuples.size() != leaf_indices.size() || tuples.empty()) {
    return Status::Malformed("tuple/index mismatch in proof");
  }
  std::vector<std::pair<uint32_t, Digest>>& leaves = scratch.leaves;
  leaves.clear();
  for (size_t i = 0; i < tuples.size(); ++i) {
    leaves.push_back(
        {leaf_indices[i], tuples[i].LeafDigest(proof.alg, encode_scratch)});
  }
  SPAUTH_RETURN_IF_ERROR(SortLeavesAndCheckUnique(
      &leaves, "duplicate leaf index in tuple proof"));
  // ReconstructMerkleRoot reads `scratch.leaves` through the span and uses
  // only the frame/digest/level members of `scratch` — no aliasing hazard.
  SPAUTH_ASSIGN_OR_RETURN(Digest computed,
                          ReconstructMerkleRoot(proof, leaves, scratch));
  if (!(computed == root)) {
    return Status::VerificationFailed("network root mismatch");
  }
  return Status::Ok();
}

Status TupleSetProof::IndexInto(uint32_t num_nodes, TupleLane* lane) const {
  lane->Prepare(num_nodes);
  for (const ExtendedTuple& t : tuples) {
    switch (lane->Insert(&t)) {
      case TupleLane::InsertResult::kOk:
        break;
      case TupleLane::InsertResult::kDuplicate:
        return Status::Malformed("duplicate node id in tuple proof");
      case TupleLane::InsertResult::kOutOfRange:
        return Status::Malformed("tuple node id out of certified range");
    }
  }
  return Status::Ok();
}

Result<NetworkAds> NetworkAds::Build(std::vector<ExtendedTuple> tuples,
                                     std::vector<NodeId> order,
                                     uint32_t fanout, HashAlgorithm alg) {
  if (tuples.empty() || order.size() != tuples.size()) {
    return Status::InvalidArgument("tuples/order size mismatch");
  }
  auto leaf_of_node = std::make_shared<const std::vector<uint32_t>>(
      InvertOrdering(order));
  // Leaf hashing funnels through the multi-buffer SHA lanes: encode a
  // window of tuples into one scratch buffer, then hash the window as a
  // batch (HashLeafPayloadsBatch groups equal-length encodings into lanes).
  std::vector<Digest> leaves(tuples.size());
  constexpr size_t kLeafWindow = 256;
  ByteWriter scratch;  // one encoding buffer for all leaf hashes
  std::vector<size_t> offsets;
  std::vector<std::span<const uint8_t>> payloads;
  for (uint32_t begin = 0; begin < order.size(); begin += kLeafWindow) {
    const uint32_t end = std::min<size_t>(order.size(), begin + kLeafWindow);
    scratch.Clear();
    offsets.clear();
    for (uint32_t pos = begin; pos < end; ++pos) {
      offsets.push_back(scratch.size());
      tuples[order[pos]].Serialize(&scratch);
    }
    offsets.push_back(scratch.size());
    payloads.clear();
    for (size_t i = 0; i + 1 < offsets.size(); ++i) {
      payloads.push_back(
          scratch.view().subspan(offsets[i], offsets[i + 1] - offsets[i]));
    }
    HashLeafPayloadsBatch(alg, payloads, leaves.data() + begin);
  }
  SPAUTH_ASSIGN_OR_RETURN(MerkleTree tree,
                          MerkleTree::Build(std::move(leaves), fanout, alg));

  // Chunk the tuple array into the shared CoW grain of UpdateTuple.
  const size_t num_nodes = tuples.size();
  std::vector<std::shared_ptr<TupleChunk>> chunks;
  chunks.reserve((num_nodes + kTupleChunkNodes - 1) / kTupleChunkNodes);
  for (size_t i = 0; i < num_nodes; i += kTupleChunkNodes) {
    const size_t end = std::min(num_nodes, i + kTupleChunkNodes);
    chunks.push_back(std::make_shared<TupleChunk>(
        std::make_move_iterator(tuples.begin() + static_cast<ptrdiff_t>(i)),
        std::make_move_iterator(tuples.begin() + static_cast<ptrdiff_t>(end))));
  }
  return NetworkAds(std::move(chunks), num_nodes, std::move(leaf_of_node),
                    std::move(tree));
}

size_t NetworkAds::StorageBytes() const {
  size_t bytes = tree_.total_digests() * DigestSize(tree_.algorithm());
  for (const auto& chunk : tuple_chunks_) {
    for (const ExtendedTuple& t : *chunk) {
      bytes += t.SerializedSize();
    }
  }
  return bytes;
}

size_t NetworkAds::SharedTupleChunksWith(const NetworkAds& other) const {
  return SharedSpinePositions<TupleChunk>(tuple_chunks_, other.tuple_chunks_);
}

Status NetworkAds::UpdateTuple(NodeId v, ExtendedTuple tuple,
                               size_t* copied_bytes) {
  if (v >= num_nodes_) {
    return Status::InvalidArgument("node id out of range");
  }
  if (tuple.id != v) {
    return Status::InvalidArgument("tuple id does not match node");
  }
  SPAUTH_FAILPOINT_RETURN("ads/update_tuple");
  SPAUTH_RETURN_IF_ERROR(tree_.UpdateLeaf(
      (*leaf_of_node_)[v], tuple.LeafDigest(tree_.algorithm()),
      copied_bytes));
  TupleChunk& chunk = EnsureUniqueChunk(
      tuple_chunks_[v / kTupleChunkNodes], copied_bytes,
      [](const TupleChunk& c) {
        size_t bytes = 0;
        for (const ExtendedTuple& t : c) {
          bytes += t.SerializedSize();
        }
        return bytes;
      });
  chunk[v % kTupleChunkNodes] = std::move(tuple);
  return Status::Ok();
}

Status NetworkAds::AppendNodeTuple(ExtendedTuple tuple, size_t* copied_bytes) {
  if (tuple.id != num_nodes_) {
    return Status::InvalidArgument(
        "appended tuple id must be the next dense node id");
  }
  SPAUTH_FAILPOINT_RETURN("ads/update_tuple");
  SPAUTH_RETURN_IF_ERROR(tree_.AppendLeaf(
      tuple.LeafDigest(tree_.algorithm()), copied_bytes));
  // The node -> leaf map is versioned: the new shape gets a private copy,
  // any retired snapshot keeps reading the old vector untouched.
  auto leaf_of_node = std::make_shared<std::vector<uint32_t>>(*leaf_of_node_);
  if (copied_bytes != nullptr) {
    *copied_bytes += leaf_of_node->size() * sizeof(uint32_t);
  }
  leaf_of_node->push_back(static_cast<uint32_t>(tree_.num_leaves() - 1));
  leaf_of_node_ = std::move(leaf_of_node);
  if (num_nodes_ % kTupleChunkNodes == 0) {
    auto chunk = std::make_shared<TupleChunk>();
    chunk->reserve(kTupleChunkNodes);
    chunk->push_back(std::move(tuple));
    tuple_chunks_.push_back(std::move(chunk));
  } else {
    TupleChunk& chunk = EnsureUniqueChunk(
        tuple_chunks_.back(), copied_bytes, [](const TupleChunk& c) {
          size_t bytes = 0;
          for (const ExtendedTuple& t : c) {
            bytes += t.SerializedSize();
          }
          return bytes;
        });
    chunk.push_back(std::move(tuple));
  }
  ++num_nodes_;
  return Status::Ok();
}

Result<TupleSetProof> NetworkAds::ProveTuples(
    std::span<const NodeId> nodes) const {
  if (nodes.empty()) {
    return Status::InvalidArgument("no nodes to prove");
  }
  // Sort by leaf index and deduplicate.
  std::vector<std::pair<uint32_t, NodeId>> keyed;
  keyed.reserve(nodes.size());
  for (NodeId v : nodes) {
    if (v >= num_nodes_) {
      return Status::InvalidArgument("node id out of range");
    }
    keyed.push_back({(*leaf_of_node_)[v], v});
  }
  std::sort(keyed.begin(), keyed.end());
  keyed.erase(std::unique(keyed.begin(), keyed.end()), keyed.end());

  TupleSetProof out;
  out.tuples.reserve(keyed.size());
  out.leaf_indices.reserve(keyed.size());
  for (const auto& [leaf, node] : keyed) {
    out.tuples.push_back(tuple(node));
    out.leaf_indices.push_back(leaf);
  }
  SPAUTH_ASSIGN_OR_RETURN(out.proof, tree_.GenerateProof(out.leaf_indices));
  return out;
}

}  // namespace spauth
