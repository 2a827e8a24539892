#include "merkle/merkle_tree.h"

#include <algorithm>
#include <cstring>

#include "util/cow.h"

namespace spauth {

namespace {

constexpr uint8_t kLeafTag = 0x00;
constexpr uint8_t kInternalTag = 0x01;

// Number of leaves covered by one node at `level` (level 0 = leaves).
// Saturates instead of overflowing for tall trees.
uint64_t LeavesPerNode(uint32_t fanout, size_t level) {
  uint64_t span = 1;
  for (size_t i = 0; i < level; ++i) {
    if (span > (uint64_t{1} << 40)) {
      return span;  // already larger than any supported leaf count
    }
    span *= fanout;
  }
  return span;
}

// Shared shape iteration: number of nodes per level for a leaf count.
// Writes into `sizes` (cleared first) so scratch capacity is reused.
void LevelSizes(size_t num_leaves, uint32_t fanout, std::vector<size_t>* sizes) {
  sizes->clear();
  sizes->push_back(num_leaves);
  while (sizes->back() > 1) {
    sizes->push_back((sizes->back() + fanout - 1) / fanout);
  }
}

}  // namespace

// Messages up to this size (every leaf tuple and every internal node of a
// fanout <= 32 tree) are assembled in one stack buffer and hashed as a
// contiguous message; larger ones stream through the Hasher.
constexpr size_t kStackMessageBytes = 1 + 32 * Digest::kMaxSize;

Digest HashLeafPayload(HashAlgorithm alg, std::span<const uint8_t> payload) {
  if (payload.size() < kStackMessageBytes) {
    uint8_t message[kStackMessageBytes];
    message[0] = kLeafTag;
    if (!payload.empty()) {
      std::memcpy(message + 1, payload.data(), payload.size());
    }
    return Hasher::Hash(alg, {message, 1 + payload.size()});
  }
  Hasher h(alg);
  h.Update(&kLeafTag, 1);
  h.Update(payload);
  return h.Finish();
}

Digest HashInternalNode(HashAlgorithm alg, std::span<const Digest> children) {
  if (children.size() <= 32) {
    uint8_t message[kStackMessageBytes];
    message[0] = kInternalTag;
    size_t size = 1;
    for (const Digest& child : children) {
      std::memcpy(message + size, child.data(), child.size());
      size += child.size();
    }
    return Hasher::Hash(alg, {message, size});
  }
  Hasher h(alg);
  h.Update(&kInternalTag, 1);
  for (const Digest& child : children) {
    h.Update(child.view());
  }
  return h.Finish();
}

void HashInternalLevel(HashAlgorithm alg, std::span<const Digest> below,
                       uint32_t fanout, std::vector<Digest>* out_level) {
  const size_t num_nodes = (below.size() + fanout - 1) / fanout;
  out_level->resize(num_nodes);
  for (size_t j = 0; j < num_nodes; ++j) {
    const size_t first = j * fanout;
    (*out_level)[j] = HashInternalNode(
        alg, below.subspan(first, std::min<size_t>(fanout,
                                                   below.size() - first)));
  }
}

size_t MerkleSubsetProof::SerializedSize() const {
  // num_leaves + fanout + alg + digest count + digests.
  return 4 + 4 + 1 + 4 + digests.size() * DigestSize(alg);
}

void MerkleSubsetProof::Serialize(ByteWriter* out) const {
  out->WriteU32(num_leaves);
  out->WriteU32(fanout);
  out->WriteU8(static_cast<uint8_t>(alg));
  out->WriteU32(static_cast<uint32_t>(digests.size()));
  for (const Digest& d : digests) {
    out->WriteBytes(d.view());
  }
}

Result<MerkleSubsetProof> MerkleSubsetProof::Deserialize(ByteReader* in) {
  MerkleSubsetProof proof;
  SPAUTH_RETURN_IF_ERROR(DeserializeInto(in, &proof));
  return proof;
}

Status MerkleSubsetProof::DeserializeInto(ByteReader* in,
                                          MerkleSubsetProof* out) {
  SPAUTH_RETURN_IF_ERROR(in->ReadU32(&out->num_leaves));
  SPAUTH_RETURN_IF_ERROR(in->ReadU32(&out->fanout));
  uint8_t alg_byte = 0;
  SPAUTH_RETURN_IF_ERROR(in->ReadU8(&alg_byte));
  SPAUTH_ASSIGN_OR_RETURN(out->alg, ParseHashAlgorithm(alg_byte));
  if (out->num_leaves == 0) {
    return Status::Malformed("merkle proof covers no leaves");
  }
  if (out->fanout < 2) {
    return Status::Malformed("merkle proof fanout must be >= 2");
  }
  uint32_t count = 0;
  SPAUTH_RETURN_IF_ERROR(in->ReadU32(&count));
  // Upfront length-vs-remaining check: a hostile count can never trigger a
  // resize larger than the bytes actually present.
  const size_t digest_size = DigestSize(out->alg);
  if (count > in->remaining() / digest_size) {
    return Status::Malformed("digest count exceeds buffer");
  }
  out->digests.resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    // Read straight into the digest storage; a reused Digest may carry a
    // stale tail (equality compares the full fixed array), so zero it.
    Digest& d = out->digests[i];
    SPAUTH_RETURN_IF_ERROR(in->ReadBytesInto(d.mutable_data(), digest_size));
    std::memset(d.mutable_data() + digest_size, 0,
                Digest::kMaxSize - digest_size);
    d.set_size(digest_size);
  }
  return Status::Ok();
}

Result<MerkleTree> MerkleTree::Build(std::vector<Digest> leaf_digests,
                                     uint32_t fanout, HashAlgorithm alg) {
  if (leaf_digests.empty()) {
    return Status::InvalidArgument("merkle tree needs at least one leaf");
  }
  if (fanout < 2) {
    return Status::InvalidArgument("merkle tree fanout must be >= 2");
  }
  std::vector<Level> levels;
  // Each flat level is hashed into its parent, then chunked and frozen —
  // the flat copy never coexists with more than one level of digests.
  std::vector<Digest> below = std::move(leaf_digests);
  while (below.size() > 1) {
    std::vector<Digest> level;
    HashInternalLevel(alg, below, fanout, &level);
    levels.push_back(FreezeLevel(std::move(below)));
    below = std::move(level);
  }
  levels.push_back(FreezeLevel(std::move(below)));
  return MerkleTree(std::move(levels), fanout, alg);
}

MerkleTree::Level MerkleTree::FreezeLevel(std::vector<Digest> flat) {
  Level level;
  level.size = flat.size();
  level.chunks.reserve((flat.size() + kChunkDigests - 1) / kChunkDigests);
  for (size_t i = 0; i < flat.size(); i += kChunkDigests) {
    const size_t end = std::min(flat.size(), i + kChunkDigests);
    level.chunks.push_back(std::make_shared<Chunk>(
        std::make_move_iterator(flat.begin() + static_cast<ptrdiff_t>(i)),
        std::make_move_iterator(flat.begin() + static_cast<ptrdiff_t>(end))));
  }
  return level;
}

size_t MerkleTree::total_digests() const {
  size_t total = 0;
  for (const Level& level : levels_) {
    total += level.size;
  }
  return total;
}

size_t MerkleTree::num_chunks() const {
  size_t total = 0;
  for (const Level& level : levels_) {
    total += level.chunks.size();
  }
  return total;
}

size_t MerkleTree::SharedChunksWith(const MerkleTree& other) const {
  size_t shared = 0;
  const size_t num_levels = std::min(levels_.size(), other.levels_.size());
  for (size_t l = 0; l < num_levels; ++l) {
    shared += SharedSpinePositions<Chunk>(levels_[l].chunks,
                                          other.levels_[l].chunks);
  }
  return shared;
}

Result<MerkleSubsetProof> MerkleTree::GenerateProof(
    std::span<const uint32_t> leaf_indices) const {
  MerkleVerifyScratch scratch;
  MerkleSubsetProof proof;
  SPAUTH_RETURN_IF_ERROR(GenerateProofInto(leaf_indices, scratch, &proof));
  return proof;
}

Status MerkleTree::GenerateProofInto(std::span<const uint32_t> leaf_indices,
                                     MerkleVerifyScratch& scratch,
                                     MerkleSubsetProof* out_proof) const {
  for (size_t i = 0; i < leaf_indices.size(); ++i) {
    if (leaf_indices[i] >= num_leaves()) {
      return Status::InvalidArgument("leaf index out of range");
    }
    if (i > 0 && leaf_indices[i] <= leaf_indices[i - 1]) {
      return Status::InvalidArgument("leaf indices must be strictly ascending");
    }
  }
  if (leaf_indices.empty()) {
    return Status::InvalidArgument("subset proof needs at least one leaf");
  }

  out_proof->num_leaves = static_cast<uint32_t>(num_leaves());
  out_proof->fanout = fanout_;
  out_proof->alg = alg_;
  out_proof->digests.clear();

  // Root-down DFS. A subtree emits its own digest iff it contains no target
  // leaf; otherwise it recurses (at leaf level the target itself is omitted
  // — the verifier supplies it).
  const size_t top = levels_.size() - 1;
  auto has_target = [&](uint64_t lo, uint64_t hi) {
    auto it = std::lower_bound(leaf_indices.begin(), leaf_indices.end(), lo);
    return it != leaf_indices.end() && *it < hi;
  };
  // Explicit stack of (level, index), reused across calls via `scratch`.
  std::vector<MerkleVerifyScratch::Frame>& stack = scratch.frames;
  stack.clear();
  stack.push_back({static_cast<uint32_t>(top), 0});
  // DFS with children pushed in reverse so traversal is left-to-right.
  std::vector<Digest>& out = out_proof->digests;
  while (!stack.empty()) {
    const MerkleVerifyScratch::Frame f = stack.back();
    stack.pop_back();
    const uint64_t span = LeavesPerNode(fanout_, f.level);
    const uint64_t lo = f.index * span;
    const uint64_t hi = std::min<uint64_t>(lo + span, num_leaves());
    if (!has_target(lo, hi)) {
      out.push_back(NodeAt(f.level, f.index));
      continue;
    }
    if (f.level == 0) {
      continue;  // target leaf, supplied by the verifier
    }
    const size_t child_count = levels_[f.level - 1].size;
    const size_t first = static_cast<size_t>(f.index) * fanout_;
    const size_t last = std::min(child_count, first + fanout_);
    for (size_t c = last; c-- > first;) {
      stack.push_back({f.level - 1, static_cast<uint32_t>(c)});
    }
  }
  return Status::Ok();
}

Digest& MerkleTree::MutableNode(size_t level, size_t index,
                                size_t* copied_bytes) {
  Chunk& chunk = EnsureUniqueChunk(
      levels_[level].chunks[index / kChunkDigests], copied_bytes,
      [&](const Chunk& c) { return c.size() * DigestSize(alg_); });
  return chunk[index % kChunkDigests];
}

Status MerkleTree::UpdateLeaf(uint32_t leaf_index, const Digest& new_digest,
                              size_t* copied_bytes) {
  if (leaf_index >= num_leaves()) {
    return Status::InvalidArgument("leaf index out of range");
  }
  if (new_digest.size() != DigestSize(alg_)) {
    return Status::InvalidArgument("digest size does not match tree");
  }
  MutableNode(0, leaf_index, copied_bytes) = new_digest;
  size_t index = leaf_index;
  // Children of one internal node may straddle a chunk boundary; gather
  // them into a small contiguous buffer for hashing (UpdateLeaf is the
  // owner-side maintenance path, not a serving hot path).
  std::vector<Digest> children;
  children.reserve(fanout_);
  for (size_t level = 1; level < levels_.size(); ++level) {
    index /= fanout_;
    const size_t first = index * fanout_;
    const size_t last = std::min(levels_[level - 1].size, first + fanout_);
    children.clear();
    for (size_t c = first; c < last; ++c) {
      children.push_back(NodeAt(level - 1, c));
    }
    MutableNode(level, index, copied_bytes) =
        HashInternalNode(alg_, children);
  }
  return Status::Ok();
}

void MerkleTree::AppendNode(size_t level, const Digest& digest,
                            size_t* copied_bytes) {
  Level& lvl = levels_[level];
  if (lvl.size % kChunkDigests == 0) {
    auto chunk = std::make_shared<Chunk>();
    chunk->reserve(kChunkDigests);
    chunk->push_back(digest);
    lvl.chunks.push_back(std::move(chunk));
  } else {
    Chunk& chunk = EnsureUniqueChunk(
        lvl.chunks.back(), copied_bytes,
        [&](const Chunk& c) { return c.size() * DigestSize(alg_); });
    chunk.push_back(digest);
  }
  ++lvl.size;
}

void MerkleTree::PopNode(size_t level, size_t* copied_bytes) {
  Level& lvl = levels_[level];
  if (lvl.size % kChunkDigests == 1) {
    lvl.chunks.pop_back();  // the sole digest of the ragged chunk goes away
  } else {
    Chunk& chunk = EnsureUniqueChunk(
        lvl.chunks.back(), copied_bytes,
        [&](const Chunk& c) { return c.size() * DigestSize(alg_); });
    chunk.pop_back();
  }
  --lvl.size;
}

Status MerkleTree::AppendLeaf(const Digest& new_digest, size_t* copied_bytes) {
  if (new_digest.size() != DigestSize(alg_)) {
    return Status::InvalidArgument("digest size does not match tree");
  }
  if (num_leaves() >= 0xffffffffu) {
    return Status::InvalidArgument("merkle tree leaf index space exhausted");
  }
  AppendNode(0, new_digest, copied_bytes);
  // Only the right edge changes: the new leaf is the last leaf, so at every
  // level the affected parent is the last node of the new ceil-chain shape
  // (a node whose child range grew, a brand-new node over the ragged tail,
  // or — when the old root gets a sibling — a brand-new root level).
  std::vector<Digest> children;
  children.reserve(fanout_);
  size_t level = 1;
  while (true) {
    const size_t child_size = levels_[level - 1].size;
    if (child_size == 1) {
      break;  // the child level is the root
    }
    if (level == levels_.size()) {
      levels_.push_back(Level{});
    }
    const size_t new_size = (child_size + fanout_ - 1) / fanout_;
    const size_t parent = new_size - 1;
    const size_t first = parent * fanout_;
    const size_t last = std::min(child_size, first + fanout_);
    children.clear();
    for (size_t c = first; c < last; ++c) {
      children.push_back(NodeAt(level - 1, c));
    }
    const Digest digest = HashInternalNode(alg_, children);
    if (levels_[level].size < new_size) {
      AppendNode(level, digest, copied_bytes);
    } else {
      MutableNode(level, parent, copied_bytes) = digest;
    }
    ++level;
  }
  return Status::Ok();
}

Status MerkleTree::RemoveLastLeaf(size_t* copied_bytes) {
  if (num_leaves() <= 1) {
    return Status::FailedPrecondition("merkle tree needs at least one leaf");
  }
  PopNode(0, copied_bytes);
  // AppendLeaf's mirror image: walk the right edge, dropping the node over
  // a tail that disappeared and re-hashing the (new) last parent whose
  // child range shrank. A level whose child level collapsed to one node is
  // the first level past the new root — everything above it goes.
  std::vector<Digest> children;
  children.reserve(fanout_);
  size_t level = 1;
  while (level < levels_.size()) {
    const size_t child_size = levels_[level - 1].size;
    if (child_size == 1) {
      levels_.resize(level);  // the child level is the new root
      break;
    }
    const size_t new_size = (child_size + fanout_ - 1) / fanout_;
    if (levels_[level].size > new_size) {
      PopNode(level, copied_bytes);
    }
    const size_t parent = new_size - 1;
    const size_t first = parent * fanout_;
    const size_t last = std::min(child_size, first + fanout_);
    children.clear();
    for (size_t c = first; c < last; ++c) {
      children.push_back(NodeAt(level - 1, c));
    }
    MutableNode(level, parent, copied_bytes) = HashInternalNode(alg_, children);
    ++level;
  }
  return Status::Ok();
}

Status SortLeavesAndCheckUnique(
    std::vector<std::pair<uint32_t, Digest>>* leaves,
    std::string_view duplicate_message) {
  std::sort(leaves->begin(), leaves->end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (size_t i = 1; i < leaves->size(); ++i) {
    if ((*leaves)[i].first == (*leaves)[i - 1].first) {
      return Status::Malformed(std::string(duplicate_message));
    }
  }
  return Status::Ok();
}

Result<Digest> ReconstructMerkleRoot(
    const MerkleSubsetProof& proof,
    const std::map<uint32_t, Digest>& target_leaves) {
  MerkleVerifyScratch scratch;
  scratch.leaves.reserve(target_leaves.size());
  for (const auto& [index, digest] : target_leaves) {
    scratch.leaves.push_back({index, digest});  // map order: already sorted
  }
  return ReconstructMerkleRoot(proof, scratch.leaves, scratch);
}

Result<Digest> ReconstructMerkleRoot(
    const MerkleSubsetProof& proof,
    std::span<const std::pair<uint32_t, Digest>> target_leaves,
    MerkleVerifyScratch& scratch) {
  if (proof.num_leaves == 0) {
    return Status::Malformed("empty merkle proof");
  }
  if (target_leaves.empty()) {
    return Status::Malformed("no target leaves supplied");
  }
  for (size_t i = 0; i < target_leaves.size(); ++i) {
    if (target_leaves[i].first >= proof.num_leaves) {
      return Status::Malformed("target leaf index out of range");
    }
    if (target_leaves[i].second.size() != DigestSize(proof.alg)) {
      return Status::Malformed("target leaf digest has wrong size");
    }
    if (i > 0 && target_leaves[i].first <= target_leaves[i - 1].first) {
      return Status::Malformed("target leaves not strictly ascending");
    }
  }

  LevelSizes(proof.num_leaves, proof.fanout, &scratch.level_sizes);
  const std::vector<size_t>& sizes = scratch.level_sizes;
  const size_t top = sizes.size() - 1;
  const size_t fanout = proof.fanout;
  // The replay walks only the nodes whose subtree holds a target leaf
  // ("open" nodes), level by level from the leaves up; open nodes of one
  // level sit contiguously in `nodes`, ascending, from level_begin[level].
  // Every other child of an open node is pruned and read from the proof
  // stream. Pruned spans are disjoint, so the prover's root-down DFS
  // emitted them in ascending first-leaf order; the integer passes below
  // recover each one's stream position without replaying that DFS.
  std::vector<MerkleVerifyScratch::OpenNode>& nodes = scratch.nodes;
  std::vector<size_t>& level_begin = scratch.level_begin;
  nodes.clear();
  level_begin.assign(1, 0);
  for (const auto& [index, digest] : target_leaves) {
    nodes.push_back({index, 0, 0});
  }
  // Pass 1, bottom-up: open parents and the stream digests under each.
  for (size_t level = 0; level < top; ++level) {
    const size_t end = nodes.size();
    level_begin.push_back(end);
    for (size_t i = level_begin[level]; i < end;) {
      const uint32_t parent = static_cast<uint32_t>(nodes[i].index / fanout);
      const size_t first = parent * fanout;
      const size_t children = std::min(sizes[level], first + fanout) - first;
      size_t open = 0;
      uint64_t stream = 0;
      for (; i < end && nodes[i].index / fanout == parent; ++i, ++open) {
        stream += nodes[i].stream;
      }
      nodes.push_back({parent, stream + (children - open), 0});
    }
  }
  level_begin.push_back(nodes.size());
  if (nodes.back().stream > proof.digests.size()) {
    return Status::Malformed("merkle proof digest stream underflow");
  }
  if (nodes.back().stream < proof.digests.size()) {
    return Status::Malformed("merkle proof has unused digests");
  }
  // Pass 2, top-down: where each open node's stream run starts. Pruned
  // siblings ahead of an open child each hold one stream slot.
  nodes.back().offset = 0;
  for (size_t level = top; level > 0; --level) {
    size_t child = level_begin[level - 1];
    for (size_t p = level_begin[level]; p < level_begin[level + 1]; ++p) {
      uint64_t offset = nodes[p].offset;
      size_t next = static_cast<size_t>(nodes[p].index) * fanout;
      for (; child < level_begin[level] &&
             nodes[child].index / fanout == nodes[p].index;
           ++child) {
        offset += nodes[child].index - next;
        nodes[child].offset = offset;
        offset += nodes[child].stream;
        next = nodes[child].index + 1;
      }
    }
  }
  // Pass 3, bottom-up: hash every open parent from its children, each an
  // open node's digest or the stream digest at its position.
  std::vector<Digest>& values = scratch.values;
  values.resize(nodes.size());
  for (size_t i = 0; i < target_leaves.size(); ++i) {
    values[i] = target_leaves[i].second;
  }
  std::vector<uint8_t>& message = scratch.message;
  for (size_t level = 1; level <= top; ++level) {
    size_t child = level_begin[level - 1];
    for (size_t p = level_begin[level]; p < level_begin[level + 1]; ++p) {
      const size_t first = static_cast<size_t>(nodes[p].index) * fanout;
      const size_t last = std::min(sizes[level - 1], first + fanout);
      if (message.size() < 1 + (last - first) * Digest::kMaxSize) {
        message.resize(1 + (last - first) * Digest::kMaxSize);
      }
      message[0] = kInternalTag;
      size_t size = 1;
      uint64_t cursor = nodes[p].offset;
      for (size_t c = first; c < last; ++c) {
        const Digest* digest;
        if (child < level_begin[level] && nodes[child].index == c) {
          cursor += nodes[child].stream;
          digest = &values[child++];
        } else {
          digest = &proof.digests[cursor++];
        }
        std::memcpy(message.data() + size, digest->data(), digest->size());
        size += digest->size();
      }
      values[p] = Hasher::Hash(proof.alg, {message.data(), size});
    }
  }
  return values.back();
}

}  // namespace spauth
