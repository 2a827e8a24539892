// Method traits — the one place each verification method is described.
//
// Owner build, provider answer and client verify follow one contract for
// DIJ, FULL, LDM and HYP (the structure-generic query/answer/verify shape
// of authenticated data structures); only the hints differ. A traits struct
// names a method's ADS, provider and answer types, its owner-side build,
// its verifier and decode scratch, the S-prf/T-prf accounting of its
// answers and the provider-side storage of its ADS. The engine
// (core/engine.cc) and the wire verifier (core/client.cc) are written once
// over these; VisitMethod maps a runtime MethodKind to its traits.
#ifndef SPAUTH_CORE_METHOD_TRAITS_H_
#define SPAUTH_CORE_METHOD_TRAITS_H_

#include <cassert>
#include <cstdlib>

#include "core/engine.h"
#include "core/full.h"
#include "core/hyp.h"
#include "core/ldm.h"
#include "core/verify_workspace.h"

namespace spauth {

/// S-prf/T-prf of an answer whose whole proof is one tuple subgraph (DIJ,
/// LDM): the tuples prove the path shortest, the digests prove them real.
inline ProofStats SubgraphStats(const TupleSetProof& subgraph,
                                size_t cert_size) {
  return {.sp_bytes = subgraph.TupleBytes(),
          .t_bytes = subgraph.IntegrityBytes() + cert_size,
          .sp_items = subgraph.tuples.size(),
          .t_items = subgraph.proof.num_digests()};
}

struct DijMethod {
  static constexpr MethodKind kKind = MethodKind::kDij;
  using Ads = DijAds;
  using Provider = DijProvider;
  using Answer = DijAnswer;

  static Result<Ads> Build(const Graph& g, const EngineOptions& options,
                           const RsaKeyPair& keys);
  static Answer& Scratch(VerifyWorkspace& ws) { return ws.dij; }
  static VerifyOutcome Verify(const RsaPublicKey& key, const Certificate& cert,
                              const Query& query, const Answer& answer,
                              VerifyWorkspace& ws) {
    return VerifyDijAnswer(key, cert, query, answer, ws);
  }
  static size_t StorageBytes(const Ads& ads) {
    return ads.network.StorageBytes();
  }
  static ProofStats Stats(const Answer& a, size_t cert_size) {
    return SubgraphStats(a.subgraph, cert_size);
  }
};

struct FullMethod {
  static constexpr MethodKind kKind = MethodKind::kFull;
  using Ads = FullAds;
  using Provider = FullProvider;
  using Answer = FullAnswer;

  static Result<Ads> Build(const Graph& g, const EngineOptions& options,
                           const RsaKeyPair& keys);
  static Answer& Scratch(VerifyWorkspace& ws) { return ws.full; }
  static VerifyOutcome Verify(const RsaPublicKey& key, const Certificate& cert,
                              const Query& query, const Answer& answer,
                              VerifyWorkspace& ws) {
    return VerifyFullAnswer(key, cert, query, answer, ws);
  }
  static size_t StorageBytes(const Ads& ads) {
    return ads.network.StorageBytes() + ads.distances.StorageBytes();
  }
  // Gamma_S: the authenticated distance tuple and its B-tree digests.
  // Gamma_T: the path tuples and the network digests.
  static ProofStats Stats(const Answer& a, size_t cert_size) {
    return {.sp_bytes = a.distance_proof.SerializedSize(),
            .t_bytes = a.path_tuples.TupleBytes() +
                       a.path_tuples.IntegrityBytes() + cert_size,
            .sp_items = a.distance_proof.entries.size() +
                        a.distance_proof.tree_proof.num_digests(),
            .t_items = a.path_tuples.tuples.size() +
                       a.path_tuples.proof.num_digests()};
  }
};

struct LdmMethod {
  static constexpr MethodKind kKind = MethodKind::kLdm;
  using Ads = LdmAds;
  using Provider = LdmProvider;
  using Answer = LdmAnswer;

  static Result<Ads> Build(const Graph& g, const EngineOptions& options,
                           const RsaKeyPair& keys);
  static Answer& Scratch(VerifyWorkspace& ws) { return ws.ldm; }
  static VerifyOutcome Verify(const RsaPublicKey& key, const Certificate& cert,
                              const Query& query, const Answer& answer,
                              VerifyWorkspace& ws) {
    return VerifyLdmAnswer(key, cert, query, answer, ws);
  }
  static size_t StorageBytes(const Ads& ads) {
    return ads.network.StorageBytes() + ads.ref.size() * 12;
  }
  static ProofStats Stats(const Answer& a, size_t cert_size) {
    return SubgraphStats(a.subgraph, cert_size);
  }
};

struct HypMethod {
  static constexpr MethodKind kKind = MethodKind::kHyp;
  using Ads = HypAds;
  using Provider = HypProvider;
  using Answer = HypAnswer;

  static Result<Ads> Build(const Graph& g, const EngineOptions& options,
                           const RsaKeyPair& keys);
  static Answer& Scratch(VerifyWorkspace& ws) { return ws.hyp; }
  static VerifyOutcome Verify(const RsaPublicKey& key, const Certificate& cert,
                              const Query& query, const Answer& answer,
                              VerifyWorkspace& ws) {
    return VerifyHypAnswer(key, cert, query, answer, ws);
  }
  static size_t StorageBytes(const Ads& ads) {
    return ads.network.StorageBytes() + ads.distances.StorageBytes();
  }
  // Gamma_S: tuples + hyper-edge entries; Gamma_T: all digests + indices.
  static ProofStats Stats(const Answer& a, size_t cert_size) {
    const bool hyper = a.has_hyper_edges;
    return {.sp_bytes = a.tuples.TupleBytes() +
                        (hyper ? 4 + a.hyper_edges.entries.size() * 20 : 0),
            .t_bytes = a.tuples.IntegrityBytes() +
                       (hyper ? a.hyper_edges.tree_proof.SerializedSize()
                              : 0) +
                       cert_size,
            .sp_items = a.tuples.tuples.size() +
                        (hyper ? a.hyper_edges.entries.size() : 0),
            .t_items = a.tuples.proof.num_digests() +
                       (hyper ? a.hyper_edges.tree_proof.num_digests() : 0)};
  }
};

/// Calls `f` with the traits of `kind` (a value of DijMethod, FullMethod,
/// LdmMethod or HypMethod) and returns what it returns.
template <typename F>
decltype(auto) VisitMethod(MethodKind kind, F&& f) {
  switch (kind) {
    case MethodKind::kDij:
      return f(DijMethod{});
    case MethodKind::kFull:
      return f(FullMethod{});
    case MethodKind::kLdm:
      return f(LdmMethod{});
    case MethodKind::kHyp:
      return f(HypMethod{});
  }
  std::abort();  // MethodKind is closed; decoders reject unknown kinds
}

/// Assembles method M's wire bundle (certificate ‖ answer) and its
/// accounting. `cert_size` is cert.SerializedSize() (snapshots cache it);
/// with Answer::SerializedSize() it pre-sizes the buffer so assembly never
/// reallocates.
template <typename M>
ProofBundle MakeBundle(const Certificate& cert, size_t cert_size,
                       const typename M::Answer& answer) {
  ProofBundle bundle;
  bundle.path = answer.path;
  bundle.distance = answer.distance;
  ByteWriter w;
  const size_t expected = cert_size + answer.SerializedSize();
  w.Reserve(expected);
  cert.Serialize(&w);
  answer.Serialize(&w);
  assert(w.size() == expected && "SerializedSize out of sync with Serialize");
  bundle.bytes = w.TakeBytes();
  bundle.stats = M::Stats(answer, cert_size);
  return bundle;
}

}  // namespace spauth

#endif  // SPAUTH_CORE_METHOD_TRAITS_H_
