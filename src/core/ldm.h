// LDM — landmark-based verification (Section V-A).
//
// The owner picks c landmarks, embeds each node's quantized (b-bit,
// Lemma 3) and xi-compressed (Lemma 4) landmark vector into its
// extended-tuple (Eq. 4), and certifies the tuples in the network Merkle
// tree. The provider ships the A* search space of Lemma 2 (under the loose
// compressed bound) plus its neighbors and every referenced representative;
// the client re-runs A* with the same bound over the authenticated tuples.
#ifndef SPAUTH_CORE_LDM_H_
#define SPAUTH_CORE_LDM_H_

#include "core/algosp.h"
#include "core/certificate.h"
#include "core/network_ads.h"
#include "core/verify_outcome.h"
#include "graph/path.h"
#include "graph/workload.h"
#include "hints/compress.h"
#include "hints/landmarks.h"
#include "hints/quantize.h"

namespace spauth {

struct VerifyWorkspace;  // core/verify_workspace.h

struct LdmOptions {
  NodeOrdering ordering = NodeOrdering::kHilbert;
  uint32_t fanout = 2;
  HashAlgorithm alg = HashAlgorithm::kSha1;
  // c: the paper uses 200 on DE's 28,867 nodes; scaled down ~5x for the
  // ~24x smaller stand-in networks (graph/generator.h).
  uint32_t num_landmarks = 40;
  int quantization_bits = 12;   // b (paper Section VI-A)
  double compression_xi = 50;   // xi (paper Section VI-A)
  LandmarkStrategy strategy = LandmarkStrategy::kFarthest;
  uint64_t seed = 1;
};

struct LdmAds {
  NetworkAds network;          // tuples carry Eq. 4 landmark data
  Certificate certificate;
  // Provider-side search accelerators (not shipped to clients):
  QuantizationParams qparams;
  std::vector<NodeId> ref;     // theta per node
  std::vector<double> eps;     // epsilon per node
};

Result<LdmAds> BuildLdmAds(const Graph& g, const LdmOptions& options,
                           const RsaKeyPair& keys);

struct LdmAnswer {
  Path path;
  double distance = 0;
  TupleSetProof subgraph;

  void Serialize(ByteWriter* out) const;
  static Result<LdmAnswer> Deserialize(ByteReader* in);
  /// Decodes into `out`, reusing its vector capacity (the client fast
  /// path); Deserialize is a thin wrapper.
  static Status DeserializeInto(ByteReader* in, LdmAnswer* out);
  /// Exact wire size of Serialize(); used to pre-size bundle buffers.
  size_t SerializedSize() const {
    return 4 + path.nodes.size() * 4 + 8 + subgraph.SerializedSize();
  }
};

class LdmProvider {
 public:
  explicit LdmProvider(const Graph* g, const LdmAds* ads,
      SpAlgorithm algosp = SpAlgorithm::kDijkstra)
      : g_(g), ads_(ads), algosp_(algosp) {}

  Result<LdmAnswer> Answer(const Query& query) const;
  /// Fast path: reuses `ws` across queries (one workspace per thread).
  Result<LdmAnswer> Answer(const Query& query, SearchWorkspace& ws) const;

 private:
  /// The Lemma-4 lower bound between u and the fixed target, evaluated on
  /// the owner's hint structures.
  double LowerBound(NodeId u, NodeId target) const;

  const Graph* g_;
  const LdmAds* ads_;
  SpAlgorithm algosp_;
};

VerifyOutcome VerifyLdmAnswer(const RsaPublicKey& owner_key,
                              const Certificate& cert, const Query& query,
                              const LdmAnswer& answer);

/// Fast path: all verification scratch lives in `ws` (see VerifyDijAnswer).
VerifyOutcome VerifyLdmAnswer(const RsaPublicKey& owner_key,
                              const Certificate& cert, const Query& query,
                              const LdmAnswer& answer, VerifyWorkspace& ws);

}  // namespace spauth

#endif  // SPAUTH_CORE_LDM_H_
