// HYP — hyper-graph verification (Section V-B).
//
// Owner: partitions the network into p grid cells, extends every tuple with
// its cell id and border flag (Eq. 7), materializes the hyper-edge weight
// W*(u,v) = dist(u,v) for every pair of border nodes (footnote 1) in a
// distance Merkle B-tree, and signs both roots plus the per-cell node
// counts (the counts make cell completeness checkable; see certificate.h).
//
// Provider: ships (a) a combined tuple proof covering the full source cell,
// the full target cell and the reported path ("both proofs are combined
// into a single proof" — Section V-B), and (b) the authenticated hyper-
// edges between the two cells' border sets.
//
// Client: runs in-cell Dijkstra from vs and vt over the authenticated
// tuples, combines with the hyper-edge weights (Theorem 2) to obtain the
// exact dist(vs,vt), and checks the reported path sums to it.
#ifndef SPAUTH_CORE_HYP_H_
#define SPAUTH_CORE_HYP_H_

#include "core/algosp.h"
#include "core/certificate.h"
#include "core/network_ads.h"
#include "core/verify_outcome.h"
#include "graph/path.h"
#include "graph/workload.h"
#include "hints/hiti.h"
#include "merkle/merkle_btree.h"

namespace spauth {

struct VerifyWorkspace;  // core/verify_workspace.h

struct HypOptions {
  NodeOrdering ordering = NodeOrdering::kHilbert;
  uint32_t fanout = 2;           // network tree fanout
  uint32_t distance_fanout = 2;  // hyper-edge B-tree fanout
  HashAlgorithm alg = HashAlgorithm::kSha1;
  // p: a 7x7 grid; the paper uses 15x15 = 225 on DE's 28,867 nodes,
  // scaled down ~5x for the ~24x smaller stand-in networks
  // (graph/generator.h).
  uint32_t num_cells = 49;
  uint64_t seed = 1;
};

struct HypAds {
  NetworkAds network;     // tuples carry Eq. 7 cell data
  HitiIndex hiti;         // hyper-edges (provider-side lookup)
  MerkleBTree distances;  // the same hyper-edges, authenticated
  Certificate certificate;
};

Result<HypAds> BuildHypAds(const Graph& g, const HypOptions& options,
                           const RsaKeyPair& keys);

struct HypAnswer {
  Path path;
  double distance = 0;
  TupleSetProof tuples;  // source cell + target cell + path (combined)
  bool has_hyper_edges = false;
  MerkleBTreeProof hyper_edges;  // B(cell(vs)) x B(cell(vt)) weights

  void Serialize(ByteWriter* out) const;
  static Result<HypAnswer> Deserialize(ByteReader* in);
  /// Decodes into `out`, reusing its vector capacity (the client fast
  /// path); Deserialize is a thin wrapper.
  static Status DeserializeInto(ByteReader* in, HypAnswer* out);
  /// Exact wire size of Serialize(); used to pre-size bundle buffers.
  size_t SerializedSize() const {
    return 4 + path.nodes.size() * 4 + 8 + tuples.SerializedSize() + 1 +
           (has_hyper_edges ? hyper_edges.SerializedSize() : 0);
  }
};

class HypProvider {
 public:
  explicit HypProvider(const Graph* g, const HypAds* ads,
      SpAlgorithm algosp = SpAlgorithm::kDijkstra)
      : g_(g), ads_(ads), algosp_(algosp) {}

  Result<HypAnswer> Answer(const Query& query) const;
  /// Fast path: reuses `ws` across queries (one workspace per thread).
  Result<HypAnswer> Answer(const Query& query, SearchWorkspace& ws) const;

 private:
  const Graph* g_;
  const HypAds* ads_;
  SpAlgorithm algosp_;
};

VerifyOutcome VerifyHypAnswer(const RsaPublicKey& owner_key,
                              const Certificate& cert, const Query& query,
                              const HypAnswer& answer);

/// Fast path: all verification scratch lives in `ws` (see VerifyDijAnswer).
VerifyOutcome VerifyHypAnswer(const RsaPublicKey& owner_key,
                              const Certificate& cert, const Query& query,
                              const HypAnswer& answer, VerifyWorkspace& ws);

}  // namespace spauth

#endif  // SPAUTH_CORE_HYP_H_
