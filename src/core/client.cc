#include "core/client.h"

#include <algorithm>
#include <atomic>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/forest_certificate.h"
#include "core/method_traits.h"
#include "core/verify_workspace.h"
#include "util/byte_buffer.h"
#include "util/thread_pool.h"

namespace spauth {

namespace {

/// Resets the per-message output fields the dispatch may leave untouched.
void ResetVerification(WireVerification* out) {
  out->method = MethodKind::kDij;
  out->version = 0;
  out->degraded = false;
  out->staleness = 0;
  out->path.nodes.clear();
  out->distance = 0;
}

/// The per-method verification dispatch over an already decoded ws.cert;
/// `reader` sits just past the certificate bytes.
void DispatchAnswerVerify(const RsaPublicKey& owner_key, const Query& query,
                          ByteReader* reader, VerifyWorkspace& ws,
                          WireVerification* out);

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
                      VerifyWorkspace& ws, WireVerification* out) {
  ResetVerification(out);
  ws.cert_preauthenticated = false;
  ByteReader reader(wire_bytes);
  if (Status s = Certificate::DeserializeInto(&reader, &ws.cert); !s.ok()) {
    out->outcome = VerifyOutcome::Reject(VerifyFailure::kMalformedProof,
                                         "certificate decode failed");
    return;
  }
  DispatchAnswerVerify(owner_key, query, &reader, ws, out);
}

void VerifyWireAnswer(const RsaPublicKey& owner_key,
                      const ForestCertificate& forest, uint32_t shard,
                      const Query& query, std::span<const uint8_t> wire_bytes,
                      std::span<const uint8_t> path_bytes,
                      VerifyWorkspace& ws, WireVerification* out) {
  ResetVerification(out);
  ws.cert_preauthenticated = false;
  ByteReader path_reader(path_bytes);
  if (Status s = ForestPath::DeserializeInto(&path_reader, &ws.forest_path);
      !s.ok() || !path_reader.AtEnd()) {
    out->outcome = VerifyOutcome::Reject(VerifyFailure::kMalformedProof,
                                         "forest path decode failed");
    return;
  }
  // Pin the path to the shard that actually served the answer; without
  // this a provider could attribute shard j's answers to shard k and
  // defeat the per-shard freshness watermarks.
  if (ws.forest_path.shard != shard) {
    out->outcome =
        VerifyOutcome::Reject(VerifyFailure::kBadCertificate,
                              "forest path shard does not match the shard "
                              "that served the answer");
    return;
  }
  ByteReader reader(wire_bytes);
  if (Status s = Certificate::DeserializeInto(&reader, &ws.cert); !s.ok()) {
    out->outcome = VerifyOutcome::Reject(VerifyFailure::kMalformedProof,
                                         "certificate decode failed");
    return;
  }
  // A few hashes authenticate the certificate body against the forest
  // root, whose signature the caller verified once for the whole epoch —
  // this is the only certificate check forest mode performs per answer.
  if (Status s = CheckForestPath(forest, ws.forest_path,
                                 ws.cert.BodyDigest());
      !s.ok()) {
    out->outcome =
        VerifyOutcome::Reject(VerifyFailure::kBadCertificate, s.message());
    return;
  }
  ws.cert_preauthenticated = true;
  DispatchAnswerVerify(owner_key, query, &reader, ws, out);
  ws.cert_preauthenticated = false;
}

namespace {

void DispatchAnswerVerify(const RsaPublicKey& owner_key, const Query& query,
                          ByteReader* reader, VerifyWorkspace& ws,
                          WireVerification* out) {
  out->method = ws.cert.params.method;
  out->version = ws.cert.params.version;
  // Decodes into the method's workspace scratch; its verifier receives the
  // same workspace and never touches the decode scratch it was handed.
  VisitMethod(out->method, [&](auto method) {
    using M = decltype(method);
    typename M::Answer& answer = M::Scratch(ws);
    Status decoded = M::Answer::DeserializeInto(reader, &answer);
    if (!decoded.ok() || !reader->AtEnd()) {
      out->outcome = VerifyOutcome::Reject(VerifyFailure::kMalformedProof,
                                           "answer decode failed");
      return;
    }
    out->path.nodes.assign(answer.path.nodes.begin(), answer.path.nodes.end());
    out->distance = answer.distance;
    out->outcome = M::Verify(owner_key, ws.cert, query, answer, ws);
  });
}

/// Runs `verify_one(i, ws)` for every message in shard-major order: message
/// indices are grouped by serving shard (groups keep stream order) and one
/// worker drains one shard's certificate stream hot. Shard groups are the
/// unit of work, so there are never more workers than groups. Shard ids
/// are remapped densely rather than used as array indices, so a corrupt or
/// hostile id cannot size an allocation.
template <typename VerifyOne>
void VerifyShardMajor(std::span<const uint32_t> shard_of, size_t num_threads,
                      const VerifyOne& verify_one) {
  std::unordered_map<uint32_t, size_t> group_of;
  std::vector<std::vector<size_t>> groups;
  for (size_t i = 0; i < shard_of.size(); ++i) {
    const auto [it, inserted] =
        group_of.try_emplace(shard_of[i], groups.size());
    if (inserted) {
      groups.emplace_back();
    }
    groups[it->second].push_back(i);
  }
  ParallelFor(
      groups.size(), num_threads, [] { return VerifyWorkspace{}; },
      [&](size_t g, VerifyWorkspace& ws) {
        for (size_t i : groups[g]) {
          verify_one(i, ws);
        }
      });
}

}  // namespace

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
  if (watermarks_ == nullptr || shard >= num_tracked_shards_ ||
      !out->outcome.accepted) {
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

WireVerification Client::Verify(const Query& query,
                                std::span<const uint8_t> wire_bytes) {
  return Verify(query, wire_bytes, 0);
}

WireVerification Client::Verify(const Query& query,
                                std::span<const uint8_t> wire_bytes,
                                size_t shard) {
  WireVerification result;
  VerifyWireAnswer(owner_key_, query, wire_bytes, *ws_, &result);
  ApplyWatermark(shard, &result);
  return result;
}

std::vector<WireVerification> Client::VerifyBatch(
    std::span<const Query> queries,
    std::span<const std::span<const uint8_t>> wire_messages,
    size_t num_threads) const {
  std::vector<WireVerification> results(queries.size());
  if (queries.size() != wire_messages.size()) {
    for (WireVerification& r : results) {
      r.outcome = VerifyOutcome::Reject(VerifyFailure::kMalformedProof,
                                        "query/wire count mismatch");
    }
    return results;
  }
  ParallelFor(
      queries.size(), num_threads, [] { return VerifyWorkspace{}; },
      [&](size_t i, VerifyWorkspace& ws) {
        VerifyWireAnswer(owner_key_, queries[i], wire_messages[i], ws,
                         &results[i]);
        ApplyWatermark(0, &results[i]);
      });
  return results;
}

WireVerification Client::VerifyForest(const Query& query,
                                      std::span<const uint8_t> wire_bytes,
                                      std::span<const uint8_t> path_bytes,
                                      size_t shard) {
  WireVerification result;
  if (forest_ == nullptr) {
    result.outcome = VerifyOutcome::Reject(
        VerifyFailure::kBadCertificate,
        "no accepted forest certificate (AcceptForestCertificate first)");
    return result;
  }
  VerifyWireAnswer(owner_key_, *forest_, static_cast<uint32_t>(shard), query,
                   wire_bytes, path_bytes, *ws_, &result);
  ApplyWatermark(shard, &result);
  return result;
}

std::vector<WireVerification> Client::VerifyShardedBatch(
    std::span<const Query> queries,
    std::span<const std::shared_ptr<const ProofBundle>> bundles,
    std::span<const uint32_t> shard_of, size_t num_threads) const {
  std::vector<WireVerification> results(queries.size());
  if (queries.size() != bundles.size() ||
      queries.size() != shard_of.size()) {
    for (WireVerification& r : results) {
      r.outcome = VerifyOutcome::Reject(VerifyFailure::kMalformedProof,
                                        "query/bundle/shard count mismatch");
    }
    return results;
  }
  VerifyShardMajor(shard_of, num_threads, [&](size_t i, VerifyWorkspace& ws) {
    if (bundles[i] == nullptr) {
      results[i].outcome = VerifyOutcome::Reject(
          VerifyFailure::kMalformedProof, "missing bundle for query");
      return;
    }
    VerifyWireAnswer(owner_key_, queries[i], bundles[i]->bytes, ws,
                     &results[i]);
    ApplyWatermark(shard_of[i], &results[i]);
  });
  return results;
}

std::vector<WireVerification> Client::VerifyShardedBatchForest(
    std::span<const Query> queries,
    std::span<const std::shared_ptr<const ProofBundle>> bundles,
    std::span<const std::span<const uint8_t>> path_of,
    std::span<const uint32_t> shard_of, size_t num_threads) const {
  std::vector<WireVerification> results(queries.size());
  if (queries.size() != bundles.size() || queries.size() != path_of.size() ||
      queries.size() != shard_of.size()) {
    for (WireVerification& r : results) {
      r.outcome =
          VerifyOutcome::Reject(VerifyFailure::kMalformedProof,
                                "query/bundle/path/shard count mismatch");
    }
    return results;
  }
  if (forest_ == nullptr) {
    for (WireVerification& r : results) {
      r.outcome = VerifyOutcome::Reject(
          VerifyFailure::kBadCertificate,
          "no accepted forest certificate (AcceptForestCertificate first)");
    }
    return results;
  }
  const ForestCertificate& forest = *forest_;

  VerifyShardMajor(shard_of, num_threads, [&](size_t i, VerifyWorkspace& ws) {
    if (bundles[i] == nullptr) {
      results[i].outcome = VerifyOutcome::Reject(
          VerifyFailure::kMalformedProof, "missing bundle for query");
      return;
    }
    VerifyWireAnswer(owner_key_, forest, shard_of[i], queries[i],
                     bundles[i]->bytes, path_of[i], ws, &results[i]);
    ApplyWatermark(shard_of[i], &results[i]);
  });
  return results;
}

}  // namespace spauth
