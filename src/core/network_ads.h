// The network ADS (Section III-B): a Merkle tree over extended-tuples in a
// chosen graph-node ordering, plus the tuple-set proof fragment shared by
// all four methods.
#ifndef SPAUTH_CORE_NETWORK_ADS_H_
#define SPAUTH_CORE_NETWORK_ADS_H_

#include <memory>
#include <span>
#include <vector>

#include "graph/ordering.h"
#include "hints/extended_tuple.h"
#include "merkle/merkle_tree.h"
#include "util/status.h"

namespace spauth {

class TupleLane;  // core/client_search.h

/// A set of authenticated tuples together with the Merkle evidence that
/// binds them to the network root. Serves as the subgraph proof Gamma_S of
/// DIJ/LDM (plus its integrity digests) and as the path-tuple part of
/// Gamma_T in FULL/HYP.
struct TupleSetProof {
  std::vector<ExtendedTuple> tuples;   // sorted by leaf index
  std::vector<uint32_t> leaf_indices;  // parallel to tuples
  MerkleSubsetProof proof;

  /// Bytes attributable to the tuples themselves (Gamma_S accounting).
  size_t TupleBytes() const;
  /// Bytes attributable to integrity metadata: leaf indices + digests
  /// (Gamma_T accounting).
  size_t IntegrityBytes() const;
  /// Exact wire size of Serialize() — the two accounting views sum to it.
  size_t SerializedSize() const { return TupleBytes() + IntegrityBytes(); }

  void Serialize(ByteWriter* out) const;
  static Result<TupleSetProof> Deserialize(ByteReader* in);
  /// Decodes into `out`, reusing its tuple/index vector capacity (the
  /// verification fast path decodes proof after proof into one scratch).
  static Status DeserializeInto(ByteReader* in, TupleSetProof* out);

  /// Recomputes the Merkle root and compares it to `root`; also validates
  /// the index/tuple pairing.
  Status VerifyAgainstRoot(const Digest& root) const;
  /// Fast path: leaf hashing, sorting and replay run in caller-owned
  /// scratch, so a hot verifier authenticates tuple sets without
  /// allocating. The plain overload is a thin wrapper.
  Status VerifyAgainstRoot(const Digest& root, MerkleVerifyScratch& scratch,
                           ByteWriter* encode_scratch) const;

  /// Indexes the tuples by node id: prepares `lane` for ids in
  /// [0, num_nodes) and registers every tuple. Rejects duplicate ids and
  /// ids outside the certified range (possible only for proofs that have
  /// not passed VerifyAgainstRoot). The tuple pointers stay valid while
  /// this proof is alive and unmodified.
  Status IndexInto(uint32_t num_nodes, TupleLane* lane) const;
};

/// Owner/provider-side network Merkle tree with the node -> leaf mapping.
///
/// Persistent like its MerkleTree: the tuple array is held as shared_ptr
/// chunks (copying a NetworkAds shares every chunk and the whole tree;
/// UpdateTuple copy-on-writes exactly the touched chunk plus the leaf's
/// Merkle path), and the node -> leaf map is one shared vector, versioned
/// copy-on-write: weight updates never touch it, and a structural append
/// (AppendNodeTuple) replaces it with a fresh private copy so retired
/// snapshots keep reading their own shape. This is what makes the
/// engine's snapshot rotation cost O(f log_f V) instead of an O(V + E)
/// ADS memcpy.
class NetworkAds {
 public:
  /// Tuples per shared chunk (the structural-sharing grain of updates).
  static constexpr NodeId kTupleChunkNodes = 8;

  /// `tuples` is indexed by node id; `order[pos]` = node id at leaf pos.
  static Result<NetworkAds> Build(std::vector<ExtendedTuple> tuples,
                                  std::vector<NodeId> order, uint32_t fanout,
                                  HashAlgorithm alg);

  const Digest& root() const { return tree_.root(); }
  const MerkleTree& tree() const { return tree_; }
  size_t num_nodes() const { return num_nodes_; }
  const ExtendedTuple& tuple(NodeId v) const {
    return (*tuple_chunks_[v / kTupleChunkNodes])[v % kTupleChunkNodes];
  }
  uint32_t LeafOf(NodeId v) const { return (*leaf_of_node_)[v]; }
  /// The node's leaf digest, cached in the tree at build time — callers
  /// never need to re-serialize and re-hash a tuple to learn its digest.
  const Digest& LeafDigestOf(NodeId v) const {
    return tree_.leaf((*leaf_of_node_)[v]);
  }

  /// Total bytes of tuples plus tree digests (storage accounting).
  size_t StorageBytes() const;

  /// Proof covering `nodes` (deduplicated internally).
  Result<TupleSetProof> ProveTuples(std::span<const NodeId> nodes) const;

  /// Replaces one node's tuple and incrementally refreshes its Merkle leaf
  /// (owner-side maintenance; see core/updates.h). Chunks still aliased by
  /// another NetworkAds copy are duplicated before the write, with the
  /// duplicated bytes (serialized-tuple and digest accounting, matching
  /// StorageBytes) accumulated into `copied_bytes` when non-null.
  Status UpdateTuple(NodeId v, ExtendedTuple tuple,
                     size_t* copied_bytes = nullptr);

  /// Inserts a brand-new node's tuple — the ADS half of AddVertex. The
  /// tuple's id must be the next dense node id (num_nodes()); its leaf is
  /// appended at the end of the leaf order, the Merkle tree grows by one
  /// leaf (MerkleTree::AppendLeaf), and the node -> leaf map is replaced
  /// with a fresh copy-on-write version. Same failure atomicity and
  /// `copied_bytes` accounting as UpdateTuple.
  Status AppendNodeTuple(ExtendedTuple tuple, size_t* copied_bytes = nullptr);

  /// Tuple chunks in the spine (structural-sharing accounting).
  size_t num_tuple_chunks() const { return tuple_chunks_.size(); }
  /// Chunks pointer-identical to `other`'s at the same position.
  size_t SharedTupleChunksWith(const NetworkAds& other) const;

 private:
  using TupleChunk = std::vector<ExtendedTuple>;

  NetworkAds(std::vector<std::shared_ptr<TupleChunk>> tuple_chunks,
             size_t num_nodes,
             std::shared_ptr<const std::vector<uint32_t>> leaf_of_node,
             MerkleTree tree)
      : tuple_chunks_(std::move(tuple_chunks)),
        num_nodes_(num_nodes),
        leaf_of_node_(std::move(leaf_of_node)),
        tree_(std::move(tree)) {}

  std::vector<std::shared_ptr<TupleChunk>> tuple_chunks_;  // by node id
  size_t num_nodes_ = 0;
  std::shared_ptr<const std::vector<uint32_t>> leaf_of_node_;  // id -> leaf
  MerkleTree tree_;
};

/// Floating-point slack used when comparing client-recomputed distances
/// against claimed distances (both sides sum the same doubles in different
/// orders). Scales with the magnitude of the distance.
inline double VerifySlack(double distance) {
  return 1e-9 * (distance < 1.0 ? 1.0 : distance);
}

/// Slack the provider adds to its proof-inclusion radius so that the
/// client's strict checks (at VerifySlack) never fail on honest proofs.
inline double ProviderSlack(double distance) { return 4 * VerifySlack(distance); }

}  // namespace spauth

#endif  // SPAUTH_CORE_NETWORK_ADS_H_
