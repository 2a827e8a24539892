// Reusable scratch state for client-side verification — the counterpart of
// graph/search_workspace.h for the other half of the protocol.
//
// Verifying one wire answer decodes a certificate and an answer (tuples,
// Merkle digests, distance entries), replays one or two Merkle subset
// proofs, indexes the tuples, and re-runs a shortest-path search over them.
// Done naively that is a dozen allocations per message; at client-side
// serving volume (a relying service verifying a provider's answer stream)
// the allocator dominates the actual hashing and search work. A
// VerifyWorkspace keeps every one of those buffers alive across messages:
//
//   - decoded answers (one per method) whose vectors keep their capacity,
//   - a MerkleVerifyScratch for the iterative subset-proof replay,
//   - a TupleLane and SearchWorkspace for the tuple index and re-search,
//   - assorted byte/id scratch vectors,
//   - the certificate memo: the last certificate whose signature verified,
//     so a stream pays one RSA verify per certificate version, not one
//     per answer.
//
// A workspace is single-threaded state: share one per thread, never across
// threads. Every verification entry point keeps a signature-compatible
// wrapper that constructs a throwaway workspace, so outcomes are identical
// by construction and one-off callers are unaffected.
#ifndef SPAUTH_CORE_VERIFY_WORKSPACE_H_
#define SPAUTH_CORE_VERIFY_WORKSPACE_H_

#include <unordered_map>
#include <vector>

#include "core/certificate.h"
#include "core/client_search.h"
#include "core/forest_certificate.h"
#include "core/dij.h"
#include "core/full.h"
#include "core/hyp.h"
#include "core/ldm.h"
#include "graph/search_workspace.h"
#include "merkle/merkle_tree.h"
#include "util/byte_buffer.h"

namespace spauth {

struct VerifyWorkspace {
  // Client-search scratch: tuple index, distance lanes and heaps.
  SearchWorkspace search;
  TupleLane index;
  std::vector<NodeId> path_scratch;  // repeated-node check sort buffer
  std::vector<NodeId> borders_s;     // HYP border sets
  std::vector<NodeId> borders_t;
  std::unordered_map<uint64_t, double> hyper;  // HYP hyper-edge weights

  // Merkle replay scratch (shared by network and distance trees).
  MerkleVerifyScratch merkle;
  ByteWriter leaf_scratch;  // leaf payload encoding buffer

  // Decode scratch. The verifier for a method may be handed its own
  // workspace's answer member (VerifyWireAnswer decodes into these); the
  // verifiers only touch the scratch members above, never these.
  Certificate cert;
  DijAnswer dij;
  FullAnswer full;
  LdmAnswer ldm;
  HypAnswer hyp;
  ForestPath forest_path;

  // Certificate memo (signature mode): the exact encoded bytes of the last
  // certificate whose RSA signature verified in this workspace, and the
  // owner key it verified under. The owner signs one certificate per ADS
  // version, so a client sees the same bytes on every answer until the
  // next update; VerifyWireAnswer skips the RSA verify on an exact byte
  // and key match, which is sound because identical bytes decode to the
  // identical signed body and signature. One entry, replaced only by
  // another certificate that verified; `memo_cert` empty = no memo.
  std::vector<uint8_t> memo_cert;
  RsaPublicKey memo_key;

  // Set by VerifyWireAnswer for the duration of one dispatch once `cert` is
  // authenticated: by its RSA signature (or a memo hit), or in forest mode
  // by CheckForestPath proving its body hangs off a forest root whose
  // signature the client already verified. The method verifiers then skip
  // VerifyCertificate. Every call clears it before decoding.
  bool cert_authenticated = false;
};

}  // namespace spauth

#endif  // SPAUTH_CORE_VERIFY_WORKSPACE_H_
