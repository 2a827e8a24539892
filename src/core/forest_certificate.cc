#include "core/forest_certificate.h"

#include <algorithm>
#include <cstring>

#include "merkle/merkle_tree.h"
#include "util/failpoint.h"

namespace spauth {

namespace {

// Domain separation from the per-shard certificate body: neither signature
// can be replayed as the other.
constexpr char kForestBodyTag[] = "SPFOREST";

// Number of nodes per level for a forest of `num_shards` leaves.
void ForestLevelSizes(uint32_t num_shards, uint32_t fanout,
                      std::vector<size_t>* sizes) {
  sizes->clear();
  sizes->push_back(num_shards);
  while (sizes->back() > 1) {
    sizes->push_back((sizes->back() + fanout - 1) / fanout);
  }
}

Status ReadDigestInto(ByteReader* in, size_t expected_size, Digest* out) {
  uint32_t len = 0;
  SPAUTH_RETURN_IF_ERROR(in->ReadU32(&len));
  if (in->remaining() < len) {
    return Status::OutOfRange("buffer underflow reading bytes");
  }
  if (len != expected_size) {
    return Status::Malformed("forest digest size mismatch");
  }
  SPAUTH_RETURN_IF_ERROR(in->ReadBytesInto(out->mutable_data(), len));
  std::memset(out->mutable_data() + len, 0, Digest::kMaxSize - len);
  out->set_size(len);
  return Status::Ok();
}

}  // namespace

void ForestParams::Serialize(ByteWriter* out) const {
  out->WriteU32(fleet_epoch);
  out->WriteU32(num_shards);
  out->WriteU32(fanout);
  out->WriteU8(static_cast<uint8_t>(alg));
}

Status ForestParams::DeserializeInto(ByteReader* in, ForestParams* out) {
  SPAUTH_RETURN_IF_ERROR(in->ReadU32(&out->fleet_epoch));
  SPAUTH_RETURN_IF_ERROR(in->ReadU32(&out->num_shards));
  SPAUTH_RETURN_IF_ERROR(in->ReadU32(&out->fanout));
  uint8_t alg_byte = 0;
  SPAUTH_RETURN_IF_ERROR(in->ReadU8(&alg_byte));
  SPAUTH_ASSIGN_OR_RETURN(out->alg, ParseHashAlgorithm(alg_byte));
  if (out->num_shards == 0) {
    return Status::Malformed("forest covers no shards");
  }
  if (out->fanout < 2) {
    return Status::Malformed("forest fanout must be >= 2");
  }
  return Status::Ok();
}

Digest ForestCertificate::BodyDigest() const {
  ByteWriter body;
  body.WriteBytes(kForestBodyTag, sizeof(kForestBodyTag) - 1);
  params.Serialize(&body);
  body.WriteLengthPrefixed(forest_root.view());
  return Hasher::Hash(params.alg, body.view());
}

void ForestCertificate::Serialize(ByteWriter* out) const {
  params.Serialize(out);
  out->WriteLengthPrefixed(forest_root.view());
  out->WriteLengthPrefixed(signature);
}

Status ForestCertificate::DeserializeInto(ByteReader* in,
                                          ForestCertificate* out) {
  SPAUTH_RETURN_IF_ERROR(ForestParams::DeserializeInto(in, &out->params));
  SPAUTH_RETURN_IF_ERROR(
      ReadDigestInto(in, DigestSize(out->params.alg), &out->forest_root));
  return in->ReadLengthPrefixed(&out->signature);
}

size_t ForestCertificate::SerializedSize() const {
  // params + root (len + bytes) + signature (len + bytes).
  return 13 + 4 + forest_root.size() + 4 + signature.size();
}

void ForestPath::Serialize(ByteWriter* out) const {
  out->WriteU32(fleet_epoch);
  out->WriteU32(shard);
  out->WriteU8(static_cast<uint8_t>(alg));
  out->WriteU32(static_cast<uint32_t>(siblings.size()));
  for (const Digest& d : siblings) {
    out->WriteBytes(d.view());
  }
}

Status ForestPath::DeserializeInto(ByteReader* in, ForestPath* out) {
  SPAUTH_RETURN_IF_ERROR(in->ReadU32(&out->fleet_epoch));
  SPAUTH_RETURN_IF_ERROR(in->ReadU32(&out->shard));
  uint8_t alg_byte = 0;
  SPAUTH_RETURN_IF_ERROR(in->ReadU8(&alg_byte));
  SPAUTH_ASSIGN_OR_RETURN(out->alg, ParseHashAlgorithm(alg_byte));
  uint32_t count = 0;
  SPAUTH_RETURN_IF_ERROR(in->ReadU32(&count));
  const size_t digest_size = DigestSize(out->alg);
  // Upfront length-vs-remaining check: a hostile count can never trigger a
  // resize larger than the bytes actually present.
  if (count > in->remaining() / digest_size) {
    return Status::Malformed("forest path digest count exceeds buffer");
  }
  out->siblings.resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    Digest& d = out->siblings[i];
    SPAUTH_RETURN_IF_ERROR(in->ReadBytesInto(d.mutable_data(), digest_size));
    std::memset(d.mutable_data() + digest_size, 0,
                Digest::kMaxSize - digest_size);
    d.set_size(digest_size);
  }
  return Status::Ok();
}

size_t ForestPath::SerializedSize() const {
  return 4 + 4 + 1 + 4 + siblings.size() * DigestSize(alg);
}

Digest HashForestLeaf(HashAlgorithm alg, uint32_t shard,
                      const Digest& cert_body_digest) {
  ByteWriter payload;
  // Sized up front: one allocation, and GCC 12 no longer misreads the
  // grow-then-append sequence as an overflow (-Wstringop-overflow).
  payload.Reserve(4 + Digest::kMaxSize);
  payload.WriteU32(shard);
  payload.WriteBytes(cert_body_digest.view());
  return HashLeafPayload(alg, payload.view());
}

Result<ForestBuild> BuildForestCertificate(
    const RsaKeyPair& keys, ForestParams params,
    std::span<const Digest> shard_cert_digests) {
  if (shard_cert_digests.empty() ||
      params.num_shards != shard_cert_digests.size()) {
    return Status::InvalidArgument("forest shard count mismatch");
  }
  if (params.fanout < 2) {
    return Status::InvalidArgument("forest fanout must be >= 2");
  }
  const size_t digest_size = DigestSize(params.alg);
  for (const Digest& d : shard_cert_digests) {
    if (d.size() != digest_size) {
      return Status::InvalidArgument("shard digest size mismatch");
    }
  }

  const uint32_t n = params.num_shards;
  std::vector<Digest> level(n);
  for (uint32_t i = 0; i < n; ++i) {
    level[i] = HashForestLeaf(params.alg, i, shard_cert_digests[i]);
  }

  // The full tree is materialized level by level (it is tiny — one digest
  // per routing group), so every shard's sibling path can be cut from it.
  std::vector<std::vector<Digest>> levels;
  levels.push_back(std::move(level));
  while (levels.back().size() > 1) {
    std::vector<Digest> above;
    HashInternalLevel(params.alg, levels.back(), params.fanout, &above);
    levels.push_back(std::move(above));
  }

  ForestBuild build;
  build.certificate.params = params;
  build.certificate.forest_root = levels.back()[0];
  SPAUTH_FAILPOINT_RETURN("forest/sign");
  SPAUTH_ASSIGN_OR_RETURN(build.certificate.signature,
                          keys.Sign(build.certificate.BodyDigest()));

  build.paths.resize(n);
  for (uint32_t shard = 0; shard < n; ++shard) {
    ForestPath& path = build.paths[shard];
    path.fleet_epoch = params.fleet_epoch;
    path.shard = shard;
    path.alg = params.alg;
    size_t idx = shard;
    for (size_t l = 0; l + 1 < levels.size(); ++l) {
      const std::vector<Digest>& row = levels[l];
      const size_t parent = idx / params.fanout;
      const size_t begin = parent * params.fanout;
      const size_t end = std::min(row.size(), begin + params.fanout);
      for (size_t c = begin; c < end; ++c) {
        if (c != idx) {
          path.siblings.push_back(row[c]);
        }
      }
      idx = parent;
    }
  }
  return build;
}

bool VerifyForestCertificate(const RsaPublicKey& owner_key,
                             const ForestCertificate& cert) {
  return RsaVerify(owner_key, cert.BodyDigest(), cert.signature);
}

Status CheckForestPath(const ForestCertificate& cert, const ForestPath& path,
                       const Digest& shard_cert_digest) {
  const ForestParams& params = cert.params;
  if (path.fleet_epoch != params.fleet_epoch) {
    return Status::Malformed("forest path epoch mismatch");
  }
  if (path.alg != params.alg) {
    return Status::Malformed("forest path algorithm mismatch");
  }
  if (path.shard >= params.num_shards) {
    return Status::Malformed("forest path shard out of range");
  }
  std::vector<size_t> sizes;
  ForestLevelSizes(params.num_shards, params.fanout, &sizes);

  Digest current = HashForestLeaf(params.alg, path.shard, shard_cert_digest);
  size_t idx = path.shard;
  size_t consumed = 0;
  std::vector<Digest> children;
  for (size_t l = 0; l + 1 < sizes.size(); ++l) {
    const size_t parent = idx / params.fanout;
    const size_t begin = parent * params.fanout;
    const size_t end = std::min(sizes[l], begin + params.fanout);
    children.clear();
    for (size_t c = begin; c < end; ++c) {
      if (c == idx) {
        children.push_back(current);
      } else {
        if (consumed >= path.siblings.size()) {
          return Status::Malformed("forest path truncated");
        }
        children.push_back(path.siblings[consumed++]);
      }
    }
    current = HashInternalNode(params.alg, children);
    idx = parent;
  }
  if (consumed != path.siblings.size()) {
    return Status::Malformed("forest path has trailing digests");
  }
  if (current != cert.forest_root) {
    return Status::Malformed("forest path does not reach certified root");
  }
  return Status::Ok();
}

}  // namespace spauth
