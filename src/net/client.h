// NetClient — the networked client role: a blocking TCP session that
// streams queries to a SpauthServer and verifies every answer through the
// standalone verifier (core/client.h) before surfacing it.
//
// Trust model: the client is configured with the data owner's public key
// out of band (exactly the paper's setting — the owner distributes its key,
// the provider is untrusted). The handshake compares the key the server
// advertises against the trusted one and refuses the session on mismatch;
// a verified answer therefore never depends on anything the network said.
//
// Freshness across reconnects: the embedded verifier's per-shard version
// watermarks live in the NetClient, NOT in the connection. A reconnect —
// including one to a different endpoint via SetEndpoint — keeps every
// watermark, so a provider (or an impersonator) that replays an older
// signed certificate after a "failover" is rejected as kStaleCertificate.
// The handshake also pins the group count: a server that suddenly claims a
// different shard layout is refused rather than silently re-keying the
// watermark table.
//
// Forest mode (protocol v2): when the handshake carries a forest
// certificate the client verifies its ONE RSA signature, pins the fleet
// epoch (monotone across reconnects, like the watermarks), and from then
// on authenticates each answer's certificate through the forest path the
// answer carries — no per-answer RSA. Once a session has seen forest
// mode, a reconnect that omits it is refused: a provider must not be able
// to downgrade a client to trusting unsigned per-shard certificates.
//
// Hostile bytes: every inbound frame passes the same hardened FrameDecoder
// the server uses. A framing defect (bad magic, oversized length, unknown
// type), a truncated payload, or a mid-proof disconnect surfaces as an
// error Status and poisons the connection — the client disconnects and
// NEVER feeds unverifiable bytes to the caller as an answer.
#ifndef SPAUTH_NET_CLIENT_H_
#define SPAUTH_NET_CLIENT_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/client.h"
#include "crypto/rsa.h"
#include "net/wire_protocol.h"
#include "util/status.h"

namespace spauth {

struct NetClientOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  /// Bounded-staleness acceptance for degraded serving (core/client.h).
  uint32_t staleness_bound = 0;
  size_t max_frame_payload = kDefaultMaxFramePayload;
  /// Connect()/EnsureConnected() attempts before giving up.
  size_t connect_attempts = 3;
  /// Exponential reconnect backoff (deterministic, clamped).
  uint64_t backoff_base_us = 20'000;
  double backoff_multiplier = 2.0;
  uint64_t max_backoff_us = 500'000;
  /// Socket send/receive timeout; a stalled server surfaces as
  /// kDeadlineExceeded instead of hanging the caller forever.
  uint64_t io_timeout_ms = 10'000;
};

struct NetClientStats {
  uint64_t connects = 0;    // successful handshakes
  uint64_t reconnects = 0;  // successful handshakes after the first
  uint64_t queries_sent = 0;
  uint64_t answers_accepted = 0;
  uint64_t answers_rejected = 0;  // verification-level refusals
  uint64_t server_errors = 0;     // error-status answers from the server
  uint64_t frames_refused = 0;    // malformed/hostile frames (poisoned conn)
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
  uint64_t forest_certs_accepted = 0;  // epoch installs (1 RSA verify each)
  uint64_t forest_answers = 0;         // answers verified via a forest path
};

class NetClient {
 public:
  /// `owner_key` is the trusted data-owner key obtained out of band.
  NetClient(RsaPublicKey owner_key, NetClientOptions options);
  ~NetClient();

  NetClient(const NetClient&) = delete;
  NetClient& operator=(const NetClient&) = delete;

  /// Connects and handshakes, retrying per the options' backoff policy.
  /// Soundness refusals (key mismatch, protocol mismatch, group-count
  /// change) are returned immediately — they will not improve on retry.
  Status Connect();
  void Disconnect();
  bool connected() const { return fd_ >= 0; }

  /// Repoints the client at a different server (disconnecting first). The
  /// verifier watermarks survive — that is the point: the new endpoint
  /// must prove it is at least as fresh as the old one.
  void SetEndpoint(std::string host, uint16_t port);

  /// Valid after the first successful handshake.
  const ServerInfoMsg& server_info() const { return info_; }

  /// Sends one query and verifies the answer. An OK result means the wire
  /// exchange completed and verification RAN — acceptance/rejection is in
  /// value().outcome, mirroring VerifyWireAnswer. Error Statuses are
  /// transport-level: kUnavailable (disconnect), kDeadlineExceeded (IO
  /// timeout), kMalformed (hostile frame; the connection is dropped), or a
  /// server-reported serving error. Reconnects automatically before
  /// sending when the connection is down.
  Result<WireVerification> Query(const spauth::Query& query);

  /// Pipelined batch: all queries are written back-to-back, then answers
  /// are collected (matched by request id), so the server can coalesce
  /// them into one AnswerBatch. The result vector is parallel to
  /// `queries`; a transport failure mid-batch fails the unanswered tail.
  std::vector<Result<WireVerification>> QueryBatch(
      std::span<const spauth::Query> queries);

  /// Fetches the server's serving counters (tests and CI assertions).
  Result<WireStats> FetchServerStats();

  /// The embedded verifier's per-shard watermark (survives reconnects).
  uint32_t ShardVersionWatermark(size_t shard) const {
    return verifier_.ShardVersionWatermark(shard);
  }

  /// True once a handshake carried a forest certificate; sticky for the
  /// session (reconnects must keep presenting forest mode).
  bool forest_mode() const { return forest_mode_; }
  /// Highest fleet epoch accepted so far (0 outside forest mode).
  uint32_t FleetEpochWatermark() const {
    return verifier_.FleetEpochWatermark();
  }

  const NetClientStats& stats() const { return stats_; }

 private:
  Status EnsureConnected();
  Status ConnectOnce();
  Status Handshake();
  Status SendBytes(std::span<const uint8_t> bytes);
  /// Blocks until one complete frame arrives; poisons and disconnects on
  /// any framing defect, disconnects on EOF/timeout.
  Status ReadFrame(WireFrame* out);
  /// Refusal path: drop the connection, bump frames_refused, pass `why`.
  Status Refuse(Status why);
  /// Installs a forest certificate (decoded, or the encoded bytes an
  /// answer carries inline) as the session's epoch — one RSA verify unless
  /// it is the epoch already pinned — and books the install.
  template <typename Cert>
  Status InstallForest(const Cert& certificate);
  Result<WireVerification> VerifyAnswer(const spauth::Query& query,
                                        const AnswerMsg& answer);

  RsaPublicKey owner_key_;
  NetClientOptions options_;
  Client verifier_;
  NetClientStats stats_;

  int fd_ = -1;
  FrameDecoder decoder_;
  ServerInfoMsg info_;
  bool handshaken_once_ = false;
  bool forest_mode_ = false;
  uint32_t tracked_groups_ = 0;
  uint64_t next_request_id_ = 1;
};

}  // namespace spauth

#endif  // SPAUTH_NET_CLIENT_H_
