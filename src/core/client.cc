#include "core/client.h"

#include <algorithm>
#include <atomic>
#include <string>
#include <utility>
#include <vector>

#include "core/forest_certificate.h"
#include "core/method_traits.h"
#include "core/verify_workspace.h"
#include "util/byte_buffer.h"
#include "util/thread_pool.h"

namespace spauth {

namespace {

// Signature mode: authenticates `ws.cert` (decoded from `cert_bytes`) by
// its RSA signature, or for free when the bytes and the key match the
// workspace's memo. A certificate that verifies becomes the new memo.
bool AuthenticateBySignature(const RsaPublicKey& owner_key,
                             std::span<const uint8_t> cert_bytes,
                             VerifyWorkspace& ws) {
  const bool memo_hit = std::ranges::equal(cert_bytes, ws.memo_cert) &&
                        ws.memo_key.modulus == owner_key.modulus &&
                        ws.memo_key.public_exponent ==
                            owner_key.public_exponent;
  if (!memo_hit) {
    if (!VerifyCertificate(owner_key, ws.cert)) {
      return false;
    }
    ws.memo_cert.assign(cert_bytes.begin(), cert_bytes.end());
    ws.memo_key = owner_key;
  }
  ws.cert_authenticated = true;
  return true;
}

}  // namespace

WireVerification VerifyWireAnswer(const RsaPublicKey& owner_key,
                                  const Query& query,
                                  std::span<const uint8_t> wire_bytes) {
  VerifyWorkspace ws;
  WireVerification result;
  VerifyWireAnswer(owner_key, query, wire_bytes, ws, &result);
  return result;
}

void VerifyWireAnswer(const RsaPublicKey& owner_key, const Query& query,
                      std::span<const uint8_t> wire_bytes,
                      VerifyWorkspace& ws, WireVerification* out,
                      const ForestAnchor* forest) {
  out->method = MethodKind::kDij;
  out->version = 0;
  out->degraded = false;
  out->staleness = 0;
  out->path.nodes.clear();
  out->distance = 0;
  ws.cert_authenticated = false;
  const auto reject = [out](VerifyFailure failure, std::string why) {
    out->outcome = VerifyOutcome::Reject(failure, std::move(why));
  };
  if (forest != nullptr) {
    if (forest->certificate == nullptr) {
      return reject(
          VerifyFailure::kBadCertificate,
          "no accepted forest certificate (AcceptForestCertificate first)");
    }
    ByteReader path_reader(forest->path_bytes);
    if (Status s = ForestPath::DeserializeInto(&path_reader, &ws.forest_path);
        !s.ok() || !path_reader.AtEnd()) {
      return reject(VerifyFailure::kMalformedProof,
                    "forest path decode failed");
    }
    // Pin the path to the shard that actually served the answer; without
    // this a provider could attribute shard j's answers to shard k and
    // defeat the per-shard freshness watermarks.
    if (ws.forest_path.shard != forest->shard) {
      return reject(VerifyFailure::kBadCertificate,
                    "forest path shard does not match the shard that "
                    "served the answer");
    }
  }
  ByteReader reader(wire_bytes);
  if (Status s = Certificate::DeserializeInto(&reader, &ws.cert); !s.ok()) {
    return reject(VerifyFailure::kMalformedProof,
                  "certificate decode failed");
  }
  const std::span<const uint8_t> cert_bytes =
      wire_bytes.first(reader.position());
  if (forest != nullptr) {
    // A few hashes authenticate the certificate body against the forest
    // root, whose signature the caller verified once for the whole epoch
    // — this is the only certificate check forest mode performs per
    // answer.
    if (Status s = CheckForestPath(*forest->certificate, ws.forest_path,
                                   ws.cert.BodyDigest());
        !s.ok()) {
      return reject(VerifyFailure::kBadCertificate, s.message());
    }
    ws.cert_authenticated = true;
  }
  out->method = ws.cert.params.method;
  out->version = ws.cert.params.version;
  // Decodes into the method's workspace scratch; its verifier receives the
  // same workspace and never touches the decode scratch it was handed.
  VisitMethod(out->method, [&](auto method) {
    using M = decltype(method);
    typename M::Answer& answer = M::Scratch(ws);
    Status decoded = M::Answer::DeserializeInto(&reader, &answer);
    if (!decoded.ok() || !reader.AtEnd()) {
      return reject(VerifyFailure::kMalformedProof, "answer decode failed");
    }
    out->path.nodes.assign(answer.path.nodes.begin(), answer.path.nodes.end());
    out->distance = answer.distance;
    // The signature check sits where each verifier's own would run, so a
    // rejection reads exactly as the verifier's.
    if (forest == nullptr &&
        !AuthenticateBySignature(owner_key, cert_bytes, ws)) {
      return reject(VerifyFailure::kBadCertificate,
                    "certificate invalid or wrong method");
    }
    out->outcome = M::Verify(owner_key, ws.cert, query, answer, ws);
  });
  ws.cert_authenticated = false;
}

Client::Client(RsaPublicKey owner_key)
    : owner_key_(std::move(owner_key)),
      ws_(std::make_unique<VerifyWorkspace>()) {}

Client::~Client() = default;
Client::Client(Client&&) noexcept = default;
Client& Client::operator=(Client&&) noexcept = default;

void Client::TrackShardVersions(size_t num_shards) {
  num_tracked_shards_ = std::max<size_t>(num_shards, 1);
  watermarks_ =
      std::make_unique<std::atomic<uint32_t>[]>(num_tracked_shards_);
  for (size_t i = 0; i < num_tracked_shards_; ++i) {
    watermarks_[i].store(0, std::memory_order_relaxed);
  }
}

uint32_t Client::ShardVersionWatermark(size_t shard) const {
  if (watermarks_ == nullptr || shard >= num_tracked_shards_) {
    return 0;
  }
  return watermarks_[shard].load(std::memory_order_acquire);
}

void Client::ApplyWatermark(size_t shard, WireVerification* out) const {
  if (watermarks_ == nullptr || !out->outcome.accepted) {
    return;
  }
  if (shard >= num_tracked_shards_) {
    out->outcome = VerifyOutcome::Reject(VerifyFailure::kMalformedProof,
                                         "answer shard id out of range");
    return;
  }
  std::atomic<uint32_t>& mark = watermarks_[shard];
  uint32_t seen = mark.load(std::memory_order_acquire);
  for (;;) {
    if (out->version < seen) {
      const uint32_t behind = seen - out->version;
      if (behind <= staleness_bound_) {
        // Degraded accept: authentic, within the staleness budget. The
        // watermark stays put — degradation must never lower the floor.
        out->degraded = true;
        out->staleness = behind;
        return;
      }
      out->outcome = VerifyOutcome::Reject(
          VerifyFailure::kStaleCertificate,
          "certificate version " + std::to_string(out->version) +
              " is older than the shard's accepted watermark " +
              std::to_string(seen) + " by more than the staleness bound " +
              std::to_string(staleness_bound_));
      return;
    }
    if (out->version == seen ||
        mark.compare_exchange_weak(seen, out->version,
                                   std::memory_order_acq_rel)) {
      return;
    }
  }
}

Status Client::AcceptForestCertificate(const ForestCertificate& cert) {
  const uint32_t epoch = cert.params.fleet_epoch;
  if (epoch < fleet_epoch_watermark_) {
    return Status::VerificationFailed(
        "forest certificate epoch " + std::to_string(epoch) +
        " is older than the accepted watermark " +
        std::to_string(fleet_epoch_watermark_));
  }
  if (forest_ != nullptr && epoch == fleet_epoch_watermark_) {
    // Reconnects re-present the current epoch; accepting the exact same
    // forest again is free. A DIFFERENT forest for an epoch this client
    // already pinned is equivocation, never acceptable — and re-verifying
    // its signature would not make it so.
    if (forest_->forest_root == cert.forest_root &&
        forest_->signature == cert.signature) {
      return Status::Ok();
    }
    return Status::VerificationFailed(
        "conflicting forest certificate for already accepted epoch " +
        std::to_string(epoch));
  }
  // The one RSA verify of the epoch.
  if (!VerifyForestCertificate(owner_key_, cert)) {
    return Status::VerificationFailed(
        "forest certificate signature does not verify");
  }
  forest_ = std::make_shared<const ForestCertificate>(cert);
  fleet_epoch_watermark_ = epoch;
  return Status::Ok();
}

Status Client::AcceptForestCertificate(std::span<const uint8_t> encoded) {
  ForestCertificate cert;
  ByteReader reader(encoded);
  SPAUTH_RETURN_IF_ERROR(ForestCertificate::DeserializeInto(&reader, &cert));
  if (!reader.AtEnd()) {
    return Status::Malformed("trailing bytes after forest certificate");
  }
  return AcceptForestCertificate(cert);
}

WireVerification Client::Verify(
    const Query& query, std::span<const uint8_t> wire_bytes, size_t shard,
    std::optional<std::span<const uint8_t>> forest_path) {
  WireVerification result;
  VerifyInto({query, wire_bytes, shard, forest_path}, *ws_, &result);
  return result;
}

std::vector<WireVerification> Client::VerifyBatch(
    std::span<const VerifyRequest> requests, size_t num_threads) const {
  std::vector<WireVerification> results(requests.size());
  ParallelFor(
      requests.size(), num_threads, [] { return VerifyWorkspace{}; },
      [&](size_t i, VerifyWorkspace& ws) {
        VerifyInto(requests[i], ws, &results[i]);
      });
  return results;
}

void Client::VerifyInto(const VerifyRequest& request, VerifyWorkspace& ws,
                        WireVerification* out) const {
  const ForestAnchor anchor{forest_.get(),
                            static_cast<uint32_t>(request.shard),
                            request.forest_path.value_or(
                                std::span<const uint8_t>())};
  VerifyWireAnswer(owner_key_, request.query, request.wire, ws, out,
                   request.forest_path.has_value() ? &anchor : nullptr);
  ApplyWatermark(request.shard, out);
}

}  // namespace spauth
