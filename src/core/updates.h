// Owner-side ADS maintenance: the copy-on-write building block behind
// MethodEngine's snapshot rotations (DIJ only).
//
// Every road-network change is one StructuralUpdate op, and ApplyUpdates
// absorbs an ordered batch of them, whatever their kinds:
//
//  - kSetWeight (roadworks, congestion) rewrites the two endpoint tuples;
//    the owner re-hashes those two leaves and recomputes the
//    O(f log_f |V|) Merkle path over the tree's cached level digests — no
//    re-hash of anything else.
//  - kAddEdge / kRemoveEdge (open a road, close one) rewrite the same two
//    tuples, plus the graph's CSR splice.
//  - kAddVertex (add an intersection) appends a fresh base tuple at the
//    END of the certified leaf order, growing the Merkle tree by one leaf
//    (MerkleTree::AppendLeaf) and bumping
//    MethodParams::num_network_leaves. Appending — rather than re-sorting
//    into the proximity ordering — keeps every existing leaf index stable,
//    so the incremental result is byte-identical to a rebuild over (old
//    order + appended tail); the ordering only ever affects proof sizes,
//    never soundness.
//
// The clone is as cheap as the crypto since the structures went
// persistent: Graph, NetworkAds and MerkleTree hold their payload in
// immutable shared_ptr chunks, so the engine's "clone" is a pointer-spine
// copy and the mutation below copy-on-writes only the chunks the update
// actually touches — adjacency blocks, tuple chunks, Merkle path chunks,
// and (structurally) the offset/coordinate spines and node -> leaf map.
// `copied_bytes` surfaces exactly those bytes (the engine aggregates them
// into its rotation_clone_bytes metric).
//
// Batching: a batch of k ops is ONE maintenance pass with one version
// bump of +k and ONE certificate signature. The result is byte-identical
// to applying the k ops one at a time, or as any split into smaller
// batches (same final tuples, same root, same version, and RSA PKCS#1
// v1.5 signing is deterministic), which the batch-equivalence and
// structural differential tests assert. In front of the engine,
// core/update_queue.h coalesces an update *storm* into few such batches
// under a bounded-staleness knob — that is what makes the
// one-signature-per-batch amortization real in a serving system.
//
// The engine never mutates live serving state: it clones the current
// snapshot's graph and DIJ ADS (structurally shared), points ApplyUpdates
// at the *clones*, and publishes the result as a fresh immutable
// EngineState (core/engine_state.h) while readers drain the old snapshot
// — which keeps aliasing the untouched chunks (and, for shape changes,
// the old shape's offsets and leaf map), safely, because shared state is
// never written in place. Calling ApplyUpdates directly on owner-private
// state (as the owner-side tests and tools do) remains supported — just
// never on state a live engine is serving from. On an error return the
// graph/ADS pair may hold a partially applied batch with the old
// certificate; discard the clones (the engine does).
//
// The other methods materialize global distances (FULL's all-pairs matrix,
// LDM's landmark vectors, HYP's hyper-edges); a weight or shape change can
// invalidate an unbounded subset of them, so their update story is a
// rebuild (the paper leaves dynamic maintenance as an open problem; we
// implement the one method where the incremental update is sound, and the
// engine reports FailedPrecondition for the rest).
#ifndef SPAUTH_CORE_UPDATES_H_
#define SPAUTH_CORE_UPDATES_H_

#include <span>

#include "core/dij.h"
#include "graph/graph.h"

namespace spauth {

/// Absorbs `ops` in order (later ops win on a repeated edge, and may
/// reference vertices or edges earlier ops created) into both the graph
/// and the DIJ ADS: applies each op to the graph, refreshes or appends
/// the affected tuples and Merkle leaves, refreshes
/// MethodParams::num_network_leaves, bumps the certificate version by
/// `ops.size()` and signs ONCE with `keys`. `keys` == nullptr is forest
/// mode: the identical certificate body is left UNSIGNED, because the
/// fleet layer authenticates it through the forest root's one-per-epoch
/// signature (core/forest_certificate.h). An empty batch is a no-op (no
/// version bump, no signature). `g` must be the graph the ADS was built
/// over (or a structurally shared clone, in the engine's copy-on-write
/// flow). `copied_bytes`, when non-null, accumulates the bytes the
/// copy-on-write chunk duplications actually copied. Not thread-safe:
/// callers own the exclusivity of `g`/`ads`.
Status ApplyUpdates(Graph* g, DijAds* ads, const RsaKeyPair* keys,
                    std::span<const StructuralUpdate> ops,
                    size_t* copied_bytes = nullptr);

}  // namespace spauth

#endif  // SPAUTH_CORE_UPDATES_H_
