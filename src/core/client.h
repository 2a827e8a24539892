// The standalone client role.
//
// MethodEngine bundles all three parties for tests and benches, but a real
// client owns nothing except the data owner's public key: it receives an
// opaque byte string (certificate ‖ proof) from the service provider and
// must verify it without a graph, an ADS, or prior knowledge of which
// method the owner deployed. VerifyWireAnswer decodes the certificate,
// dispatches to the matching verifier, and returns the verified path.
//
// The verification fast path mirrors the provider's serving fast path:
// a VerifyWorkspace pools every decode/replay/search buffer so a hot
// client verifies a message stream with near-zero steady-state
// allocations, and Client::VerifyBatch fans a stream over a worker pool
// with one workspace per worker. The owner signs once per ADS version
// (Section III), and a workspace remembers the last certificate it
// verified, so a stream pays one RSA verify per certificate version per
// workspace, not one per answer.
//
// Freshness: the paper's owner re-signs a bumped-version certificate
// after every update but leaves "accept only fresh certificates" as an
// out-of-band policy. TrackShardVersions turns that policy on: the client
// keeps a monotonic per-shard version watermark and rejects (as
// kStaleCertificate) any authentic answer whose certificate version is
// older than one it has already accepted from the same serving shard.
#ifndef SPAUTH_CORE_CLIENT_H_
#define SPAUTH_CORE_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/certificate.h"
#include "core/verify_outcome.h"
#include "crypto/rsa.h"
#include "graph/path.h"
#include "graph/workload.h"

namespace spauth {

struct VerifyWorkspace;     // core/verify_workspace.h
struct ForestCertificate;   // core/forest_certificate.h

/// Result of client-side wire verification.
struct WireVerification {
  VerifyOutcome outcome;
  MethodKind method = MethodKind::kDij;  // from the certificate
  uint32_t version = 0;                  // certificate version (0 until the
                                         // certificate decodes)
  // Bounded-staleness degradation (Client::SetStalenessBound): the answer
  // is authentic and accepted, but its certificate version trails the
  // shard's watermark by `staleness` (<= the configured bound). A strict
  // client treats degraded answers as it would fresh ones; a strict SLA
  // surface can count or refuse them.
  bool degraded = false;
  uint32_t staleness = 0;
  Path path;                             // the provider's path
  double distance = 0;                   // its verified distance
};

/// Decodes and verifies a full wire message (the bytes of a ProofBundle).
/// Never fails with a Status: malformed input is an outcome-level
/// rejection, mirroring what a deployed client would do.
WireVerification VerifyWireAnswer(const RsaPublicKey& owner_key,
                                  const Query& query,
                                  std::span<const uint8_t> wire_bytes);

/// Forest-mode trust anchor for one answer: the certificate is
/// authenticated through a ForestPath to a forest root instead of its own
/// RSA signature.
struct ForestAnchor {
  /// Already signature-verified by the caller (Client::
  /// AcceptForestCertificate does, once per fleet epoch). Null means no
  /// forest was accepted: the answer rejects as kBadCertificate, so forest
  /// mode never silently falls back to trusting unsigned certificates.
  const ForestCertificate* certificate = nullptr;
  uint32_t shard = 0;                   // the shard that served the answer
  std::span<const uint8_t> path_bytes;  // encoded ForestPath for `shard`
};

/// Fast path: decodes into and verifies out of `ws`, writing the result
/// into `out` (whose path vector keeps its capacity across calls). The
/// plain overload is a thin wrapper, so outcomes are identical by
/// construction.
///
/// Without a `forest` anchor the certificate's RSA signature is checked
/// only when its encoded bytes or `owner_key` differ from the last
/// certificate that verified in `ws` (the workspace's certificate memo).
///
/// With a `forest` anchor the certificate body is authenticated through
/// the forest root with a few hashes — NO per-answer RSA — and the answer
/// is then verified exactly as without one. An empty or undecodable path
/// rejects as kMalformedProof; a path that fails to reach the certified
/// root (wrong shard, wrong epoch, tampered siblings, forged certificate)
/// rejects as kBadCertificate.
void VerifyWireAnswer(const RsaPublicKey& owner_key, const Query& query,
                      std::span<const uint8_t> wire_bytes,
                      VerifyWorkspace& ws, WireVerification* out,
                      const ForestAnchor* forest = nullptr);

/// One message for Client::VerifyBatch: the arguments of Client::Verify.
struct VerifyRequest {
  Query query;
  std::span<const uint8_t> wire;
  size_t shard = 0;  // serving shard, for watermarks and the forest path
  /// Set: forest mode, authenticated by this encoded ForestPath against
  /// the client's accepted forest. Unset: the certificate's own signature.
  std::optional<std::span<const uint8_t>> forest_path = std::nullopt;
};

/// A client session: the owner's public key plus a hot VerifyWorkspace for
/// serial use. Single-threaded except VerifyBatch, which spins up its own
/// per-worker workspaces.
class Client {
 public:
  explicit Client(RsaPublicKey owner_key);
  ~Client();
  Client(Client&&) noexcept;
  Client& operator=(Client&&) noexcept;

  const RsaPublicKey& owner_key() const { return owner_key_; }

  /// Enables staleness detection over `num_shards` serving shards: once an
  /// answer with certificate version V from shard s has been accepted,
  /// every later answer from shard s with version < V is rejected with
  /// kStaleCertificate — the per-shard watermark only ever moves forward,
  /// so the versions this client accepts from one shard are monotonic even
  /// under concurrent VerifyBatch workers. A message attributed to no
  /// shard counts as shard 0; an accepted answer attributed to a shard at
  /// or beyond `num_shards` is rejected as kMalformedProof, since it would
  /// otherwise escape every watermark. Call before verifying (it resets
  /// existing watermarks).
  void TrackShardVersions(size_t num_shards);
  bool tracking_versions() const { return watermarks_ != nullptr; }

  /// Bounded-staleness mode for degraded serving: an authentic answer
  /// whose version V trails shard s's watermark W is ACCEPTED (flagged
  /// degraded, staleness = W - V) when W - V <= max_versions_behind, and
  /// still rejected as kStaleCertificate below that floor. The watermark
  /// never retreats — a degraded accept does not lower it, so a frozen
  /// replica can serve through an outage without resetting freshness for
  /// the fleet. 0 (the default) restores strict monotone freshness.
  /// Call before verifying, like TrackShardVersions.
  void SetStalenessBound(uint32_t max_versions_behind) {
    staleness_bound_ = max_versions_behind;
  }
  uint32_t staleness_bound() const { return staleness_bound_; }
  /// Highest certificate version accepted so far from `shard` (0 when
  /// nothing was accepted yet, tracking is off, or `shard` is untracked —
  /// no answer is ever accepted from an untracked shard while tracking).
  uint32_t ShardVersionWatermark(size_t shard) const;

  /// Forest trust anchor: verifies the forest certificate's RSA signature
  /// (ONE verify, amortized over every answer of the epoch) and installs
  /// it as the current epoch. The fleet-epoch watermark is monotone:
  /// re-accepting the current epoch's exact certificate is a free no-op
  /// (reconnects re-send it), an older epoch is refused as stale, and a
  /// DIFFERENT certificate for the accepted epoch is refused as
  /// equivocation. Call from the session thread, not concurrently with
  /// verification (same contract as TrackShardVersions).
  Status AcceptForestCertificate(const ForestCertificate& cert);
  /// Same, decoding from wire bytes first.
  Status AcceptForestCertificate(std::span<const uint8_t> encoded);
  bool has_forest() const { return forest_ != nullptr; }
  /// Highest fleet epoch accepted so far (0 before any forest).
  uint32_t FleetEpochWatermark() const { return fleet_epoch_watermark_; }

  /// Verifies one wire message served by `shard`, reusing the client's
  /// workspace across calls, then enforces that shard's watermark. With a
  /// `forest_path` the certificate is authenticated through the accepted
  /// forest (see ForestAnchor) instead of its own signature.
  WireVerification Verify(
      const Query& query, std::span<const uint8_t> wire_bytes,
      size_t shard = 0,
      std::optional<std::span<const uint8_t>> forest_path = std::nullopt);

  /// Verifies a message stream on a small internal worker pool, one reused
  /// VerifyWorkspace per worker (num_threads == 0 picks a host default).
  /// Each request gets exactly the outcome Verify would give it; the
  /// result vector is parallel to `requests`. The certificate memo lives
  /// in each worker's workspace, so a signature-mode batch pays at most one
  /// RSA verify per certificate version per worker. A forest-mode batch
  /// performs ZERO RSA operations — the one verify happened in
  /// AcceptForestCertificate.
  std::vector<WireVerification> VerifyBatch(
      std::span<const VerifyRequest> requests, size_t num_threads = 0) const;

 private:
  /// The one verification body behind Verify and VerifyBatch.
  void VerifyInto(const VerifyRequest& request, VerifyWorkspace& ws,
                  WireVerification* out) const;

  /// Watermark enforcement: downgrades an accepted `out` to a
  /// kStaleCertificate rejection when its version is below shard's
  /// watermark, otherwise advances the watermark (lock-free fetch-max).
  /// With tracking on, an accepted `out` from a shard outside the tracked
  /// range is rejected as kMalformedProof. No-op when tracking is off.
  void ApplyWatermark(size_t shard, WireVerification* out) const;

  RsaPublicKey owner_key_;
  std::unique_ptr<VerifyWorkspace> ws_;
  // The accepted fleet epoch's forest. Written by AcceptForestCertificate
  // (session thread), read-only during verification — same contract as
  // staleness_bound_.
  std::shared_ptr<const ForestCertificate> forest_;
  uint32_t fleet_epoch_watermark_ = 0;
  std::unique_ptr<std::atomic<uint32_t>[]> watermarks_;
  size_t num_tracked_shards_ = 0;
  // Written by SetStalenessBound before verification starts, read-only
  // during (possibly concurrent) verification — same contract as the
  // watermark array's size.
  uint32_t staleness_bound_ = 0;
};

}  // namespace spauth

#endif  // SPAUTH_CORE_CLIENT_H_
