// n-ary Merkle hash tree with subset proofs (Sections II-A and III-B).
//
// The tree is built over an ordered sequence of leaf digests; internal nodes
// hash the concatenation of their children. The *fanout* (number of children
// per node, Table II: 2..32) and the hash algorithm are configurable.
//
// Subset proofs follow Merkle [11] / Martel et al. [12] exactly as the paper
// states: a digest h_i enters the proof iff (i) h_i's subtree contains no
// target leaf and (ii) its parent's subtree does. Digests are emitted in
// deterministic root-down, left-to-right DFS order. The verifier does not
// replay that recursion: the pruned subtrees are disjoint, so DFS order is
// ascending first-leaf order, and it rebuilds the root bottom-up, level by
// level, from the target leaves (it knows num_leaves and fanout).
//
// Domain separation: leaves are hashed as H(0x00 || payload), internal nodes
// as H(0x01 || child digests), preventing leaf/internal confusion attacks.
//
// Persistence: every level is stored as immutable shared_ptr *chunks* of
// kChunkDigests digests. Copying a tree copies only the chunk-pointer
// spines (structural sharing — no digest is duplicated), and UpdateLeaf
// path-copies exactly the chunks on the updated leaf's root path before
// rewriting them: O(f log_f n) fresh hashes, O(kChunkDigests · log_f n)
// fresh digest bytes. A chunk that is uniquely owned is rewritten in place
// (no copy); a chunk aliased by another tree version is never mutated, so
// retired snapshot readers can keep replaying proofs from it concurrently
// with owner-side updates.
#ifndef SPAUTH_MERKLE_MERKLE_TREE_H_
#define SPAUTH_MERKLE_MERKLE_TREE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "crypto/digest.h"
#include "util/byte_buffer.h"
#include "util/status.h"

namespace spauth {

/// Hashes a leaf payload with the leaf domain tag.
Digest HashLeafPayload(HashAlgorithm alg, std::span<const uint8_t> payload);

/// Hashes the concatenation of child digests with the internal-node tag.
Digest HashInternalNode(HashAlgorithm alg, std::span<const Digest> children);

/// Hashes one whole internal level: out_level is resized to
/// ceil(below.size() / fanout) and out_level[j] == HashInternalNode over
/// below[j*fanout .. j*fanout+fanout). This is the Merkle rebuild path.
void HashInternalLevel(HashAlgorithm alg, std::span<const Digest> below,
                       uint32_t fanout, std::vector<Digest>* out_level);

/// The sibling digests accompanying a leaf subset, plus the tree shape
/// needed to replay the reconstruction.
struct MerkleSubsetProof {
  uint32_t num_leaves = 0;
  uint32_t fanout = 0;
  HashAlgorithm alg = HashAlgorithm::kSha1;
  std::vector<Digest> digests;  // deterministic DFS order

  size_t num_digests() const { return digests.size(); }
  /// Serialized wire size in bytes (what the client downloads).
  size_t SerializedSize() const;
  void Serialize(ByteWriter* out) const;
  static Result<MerkleSubsetProof> Deserialize(ByteReader* in);
  /// Decodes into `out`, reusing its digest vector's capacity (the hot
  /// client verify path decodes thousands of proofs into one scratch).
  static Status DeserializeInto(ByteReader* in, MerkleSubsetProof* out);
};

/// Reusable scratch for subset-proof replay (and generation): the prover's
/// DFS frame stack, the replay's open nodes and their digests, the per-level
/// node counts, one internal-node message buffer and a sorted (leaf index,
/// digest) buffer for callers assembling target leaves. Everything keeps its
/// capacity across calls, so a hot verifier replays proofs without
/// allocating. Single-threaded; one per verify workspace.
struct MerkleVerifyScratch {
  struct Frame {
    uint32_t level;
    uint32_t index;
  };
  /// A node whose subtree holds a target leaf.
  struct OpenNode {
    uint32_t index;   // position within its level
    uint64_t stream;  // proof-stream digests inside its subtree
    uint64_t offset;  // stream position of the first of them
  };
  std::vector<Frame> frames;
  std::vector<OpenNode> nodes;
  std::vector<size_t> level_begin;
  std::vector<Digest> values;
  std::vector<uint8_t> message;
  std::vector<size_t> level_sizes;
  std::vector<std::pair<uint32_t, Digest>> leaves;  // callers' target buffer
};

class MerkleTree {
 public:
  /// Digests per immutable level chunk (the structural-sharing grain):
  /// small enough that one path copy stays O(log n) bytes, large enough
  /// that the chunk-pointer spine is a small fraction of the level.
  static constexpr size_t kChunkDigests = 8;

  /// Builds the tree over `leaf_digests` (already leaf-domain hashed).
  /// Requires at least one leaf and fanout >= 2.
  static Result<MerkleTree> Build(std::vector<Digest> leaf_digests,
                                  uint32_t fanout, HashAlgorithm alg);

  const Digest& root() const { return NodeAt(levels_.size() - 1, 0); }
  size_t num_leaves() const { return levels_.front().size; }
  /// The leaf digest cached at build time (no re-hash needed).
  const Digest& leaf(size_t index) const { return NodeAt(0, index); }
  uint32_t fanout() const { return fanout_; }
  HashAlgorithm algorithm() const { return alg_; }
  /// Total digests stored (storage accounting).
  size_t total_digests() const;

  /// Proof for the given sorted, duplicate-free leaf indices.
  Result<MerkleSubsetProof> GenerateProof(
      std::span<const uint32_t> leaf_indices) const;

  /// Fast path: same proof, but the DFS frame stack lives in `scratch` and
  /// `out_proof`'s digest vector keeps its capacity, so a hot prover
  /// generates proofs without allocating. GenerateProof is a thin wrapper.
  Status GenerateProofInto(std::span<const uint32_t> leaf_indices,
                           MerkleVerifyScratch& scratch,
                           MerkleSubsetProof* out_proof) const;

  /// Replaces one leaf digest and recomputes the O(f log_f n) path of
  /// internal digests up to the root. This is what makes owner-side
  /// updates (e.g. an edge-weight change re-hashing two tuples) cheap:
  /// no full rebuild, only a root re-sign. Chunks shared with another
  /// tree version are path-copied first (the other version is never
  /// disturbed); `copied_bytes`, when non-null, accumulates the digest
  /// bytes those copies duplicated — 0 when every touched chunk was
  /// already uniquely owned.
  Status UpdateLeaf(uint32_t leaf_index, const Digest& new_digest,
                    size_t* copied_bytes = nullptr);

  /// Appends one leaf at index num_leaves() and recomputes the right-edge
  /// path of internal digests — the structural growth half of owner-side
  /// updates (an AddVertex appends the new node's tuple leaf). Level
  /// shapes follow the ceil chain of the new leaf count: the last parent
  /// of every level is re-hashed, a level that overflows gains a node, and
  /// a new root level opens when the old root gets a sibling. Chunks
  /// shared with another tree version are copy-on-written exactly like
  /// UpdateLeaf, so retired snapshots keep their old shape untouched.
  Status AppendLeaf(const Digest& new_digest, size_t* copied_bytes = nullptr);

  /// Removes the last leaf and shrinks the shape back — the exact inverse
  /// of AppendLeaf (a level whose child level collapsed to a single node
  /// is dropped). The tree keeps its one-leaf minimum.
  Status RemoveLastLeaf(size_t* copied_bytes = nullptr);

  /// Chunks across all levels (structural-sharing accounting).
  size_t num_chunks() const;
  /// Chunks pointer-identical to `other`'s at the same position — the
  /// untouched-subtree sharing the differential tests assert. Trees of
  /// different shapes share nothing.
  size_t SharedChunksWith(const MerkleTree& other) const;

 private:
  using Chunk = std::vector<Digest>;
  /// One level: an immutable-chunk spine plus the level's digest count
  /// (the last chunk may be partial).
  struct Level {
    std::vector<std::shared_ptr<Chunk>> chunks;
    size_t size = 0;
  };

  MerkleTree(std::vector<Level> levels, uint32_t fanout, HashAlgorithm alg)
      : levels_(std::move(levels)), fanout_(fanout), alg_(alg) {}

  /// Moves a flat digest vector into the chunked immutable-level form.
  static Level FreezeLevel(std::vector<Digest> flat);

  const Digest& NodeAt(size_t level, size_t index) const {
    return (*levels_[level].chunks[index / kChunkDigests])
        [index % kChunkDigests];
  }
  /// The writable slot for (level, index), copy-on-write: a chunk still
  /// aliased by another tree version is duplicated first (and its bytes
  /// added to `copied_bytes`); a uniquely owned chunk is handed out as is.
  Digest& MutableNode(size_t level, size_t index, size_t* copied_bytes);

  /// Appends one digest at the end of `level`, growing the chunk spine
  /// (copy-on-write on the ragged tail chunk).
  void AppendNode(size_t level, const Digest& digest, size_t* copied_bytes);
  /// Drops the last digest of `level` — AppendNode's inverse.
  void PopNode(size_t level, size_t* copied_bytes);

  std::vector<Level> levels_;  // [0] = leaves, back() = {root}
  uint32_t fanout_;
  HashAlgorithm alg_;
};

/// Recomputes the root from the target leaves (index -> leaf digest) and the
/// proof stream. Fails if the proof shape is inconsistent with the leaf set.
/// Comparing the result against a signed root completes verification.
Result<Digest> ReconstructMerkleRoot(
    const MerkleSubsetProof& proof,
    const std::map<uint32_t, Digest>& target_leaves);

/// Fast-path replay: `target_leaves` must be sorted by leaf index and
/// duplicate-free; the level-order replay runs entirely inside `scratch`
/// (it never touches scratch.leaves, so callers may pass that buffer), so a
/// hot verifier replays proofs with zero steady-state allocations. The map
/// overload above is a thin wrapper over this one.
Result<Digest> ReconstructMerkleRoot(
    const MerkleSubsetProof& proof,
    std::span<const std::pair<uint32_t, Digest>> target_leaves,
    MerkleVerifyScratch& scratch);

/// Sorts a caller-assembled (leaf index, digest) buffer into the order
/// ReconstructMerkleRoot requires and rejects duplicate indices with a
/// Malformed status carrying `duplicate_message` (proof-type-specific so
/// callers keep their established error text).
Status SortLeavesAndCheckUnique(
    std::vector<std::pair<uint32_t, Digest>>* leaves,
    std::string_view duplicate_message);

}  // namespace spauth

#endif  // SPAUTH_MERKLE_MERKLE_TREE_H_
