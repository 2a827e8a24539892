// The forest certificate: one RSA signature for a whole shard fleet.
//
// At the seed, every shard of a fleet carried its own signed Certificate,
// so a fleet-wide rotation paid N RSA signatures and a client verifying a
// sharded batch paid one RSA verify per shard. The forest certificate
// amortizes both to one per *fleet epoch*: the owner Merkle-hashes the N
// per-shard certificate body digests into a tiny forest tree, signs only
// the forest root, and hands each shard a short root-to-leaf sibling path.
// A shard's answer then carries its (possibly unsigned) certificate plus
// that path; the client verifies the forest signature once per epoch and
// authenticates each shard certificate with a few hashes.
//
// Binding: leaf i hashes H(0x00 || LE32(i) || cert_body_digest_i) — the
// shard index is inside the leaf, so a path lifted from shard j cannot
// authenticate a certificate presented as shard k's (the tamper matrix
// pins this). The signed body is H("SPFOREST" || params || forest_root),
// domain-separated from the per-shard certificate body so neither
// signature can be replayed as the other.
//
// Freshness: params carry the fleet epoch; clients keep a monotone epoch
// watermark (core/client.h) exactly like the per-shard version watermarks,
// so a provider replaying last epoch's forest is refused as stale.
#ifndef SPAUTH_CORE_FOREST_CERTIFICATE_H_
#define SPAUTH_CORE_FOREST_CERTIFICATE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "crypto/digest.h"
#include "crypto/rsa.h"
#include "util/byte_buffer.h"
#include "util/status.h"

namespace spauth {

struct ForestParams {
  /// Monotone fleet-rotation counter; every forest publish bumps it.
  uint32_t fleet_epoch = 0;
  /// Leaf count — one leaf per routing group (replicas share a leaf).
  uint32_t num_shards = 0;
  uint32_t fanout = 2;
  HashAlgorithm alg = HashAlgorithm::kSha1;

  void Serialize(ByteWriter* out) const;
  static Status DeserializeInto(ByteReader* in, ForestParams* out);
};

struct ForestCertificate {
  ForestParams params;
  Digest forest_root;
  std::vector<uint8_t> signature;

  /// The digest the owner signs: H("SPFOREST" || params || forest_root).
  Digest BodyDigest() const;

  void Serialize(ByteWriter* out) const;
  static Status DeserializeInto(ByteReader* in, ForestCertificate* out);
  size_t SerializedSize() const;
};

/// The root-to-leaf sibling digests for one shard, bottom-up: for each
/// level the siblings of the on-path node in in-level order (the node's
/// own position is recomputed from shard/num_shards/fanout at replay).
struct ForestPath {
  uint32_t fleet_epoch = 0;
  uint32_t shard = 0;
  HashAlgorithm alg = HashAlgorithm::kSha1;
  std::vector<Digest> siblings;

  void Serialize(ByteWriter* out) const;
  static Status DeserializeInto(ByteReader* in, ForestPath* out);
  size_t SerializedSize() const;
};

/// Owner-side build output: the signed certificate plus one path per shard.
struct ForestBuild {
  ForestCertificate certificate;
  std::vector<ForestPath> paths;  // indexed by shard (routing group)
};

/// The leaf hash binding a shard index to its certificate body digest.
Digest HashForestLeaf(HashAlgorithm alg, uint32_t shard,
                      const Digest& cert_body_digest);

/// Builds and signs the forest over `shard_cert_digests` (one per-shard
/// Certificate::BodyDigest per routing group, in shard order). Exactly one
/// RSA signature regardless of fleet size. `params.num_shards` must match
/// the span.
Result<ForestBuild> BuildForestCertificate(
    const RsaKeyPair& keys, ForestParams params,
    std::span<const Digest> shard_cert_digests);

/// Client side: true iff the forest signature verifies under the owner's
/// key. One call per fleet epoch — the per-answer work is CheckForestPath.
bool VerifyForestCertificate(const RsaPublicKey& owner_key,
                             const ForestCertificate& cert);

/// Replays `path` from H(leaf) up and compares against the certified root.
/// Rejects epoch/shard/shape mismatches (including truncated or overlong
/// sibling lists) with Malformed; a root mismatch is Malformed too — the
/// caller maps it to its verification-failure taxonomy.
Status CheckForestPath(const ForestCertificate& cert, const ForestPath& path,
                       const Digest& shard_cert_digest);

}  // namespace spauth

#endif  // SPAUTH_CORE_FOREST_CERTIFICATE_H_
