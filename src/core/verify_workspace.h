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
//   - assorted byte/id scratch vectors.
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

  // Set by VerifyWireAnswer ONLY when given a ForestAnchor, for the
  // duration of one dispatch, after CheckForestPath proved `cert`'s body
  // hangs off a forest root whose signature this client already verified:
  // the method verifiers then skip the per-answer RSA VerifyCertificate
  // (that is the entire point of the forest — one signature verify per
  // fleet epoch). Every call clears it before decoding.
  bool cert_preauthenticated = false;
};

}  // namespace spauth

#endif  // SPAUTH_CORE_VERIFY_WORKSPACE_H_
