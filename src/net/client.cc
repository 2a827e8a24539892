#include "net/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>

namespace spauth {
namespace {

/// Key equality by canonical encoding: the comparison the handshake trusts.
bool SameKey(const RsaPublicKey& a, const RsaPublicKey& b) {
  ByteWriter wa;
  ByteWriter wb;
  a.Serialize(&wa);
  b.Serialize(&wb);
  return wa.bytes() == wb.bytes();
}

/// Soundness refusals must not be retried: the peer will not become
/// trustworthy by asking again.
bool RetryableConnectFailure(const Status& s) {
  return IsRetryable(s.code());
}

}  // namespace

NetClient::NetClient(RsaPublicKey owner_key, NetClientOptions options)
    : owner_key_(owner_key),
      options_(std::move(options)),
      verifier_(std::move(owner_key)),
      decoder_(options_.max_frame_payload) {}

NetClient::~NetClient() { Disconnect(); }

void NetClient::Disconnect() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  decoder_ = FrameDecoder(options_.max_frame_payload);
}

void NetClient::SetEndpoint(std::string host, uint16_t port) {
  Disconnect();
  options_.host = std::move(host);
  options_.port = port;
}

Status NetClient::Connect() {
  uint64_t backoff_us = options_.backoff_base_us;
  const uint64_t cap_us =
      options_.max_backoff_us > 0 ? options_.max_backoff_us : 1;
  Status last = Status::Unavailable("no connect attempt made");
  const size_t attempts = std::max<size_t>(1, options_.connect_attempts);
  for (size_t attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0 && backoff_us > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(
          std::min(backoff_us, cap_us)));
      backoff_us = static_cast<uint64_t>(std::min(
          static_cast<double>(cap_us),
          static_cast<double>(backoff_us) * options_.backoff_multiplier));
    }
    last = ConnectOnce();
    if (last.ok()) {
      last = Handshake();
      if (last.ok()) {
        stats_.connects++;
        if (handshaken_once_) {
          stats_.reconnects++;
        }
        handshaken_once_ = true;
        return Status::Ok();
      }
      Disconnect();
      if (!RetryableConnectFailure(last)) {
        return last;  // key/protocol/layout refusal: never retried
      }
    }
  }
  return last;
}

Status NetClient::ConnectOnce() {
  Disconnect();
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::Unavailable(std::string("socket: ") + std::strerror(errno));
  }
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(options_.io_timeout_ms / 1000);
  tv.tv_usec = static_cast<suseconds_t>((options_.io_timeout_ms % 1000) * 1000);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("unparseable host: " + options_.host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status s =
        Status::Unavailable(std::string("connect: ") + std::strerror(errno));
    ::close(fd);
    return s;
  }
  fd_ = fd;
  return Status::Ok();
}

Status NetClient::Handshake() {
  HelloMsg hello;
  SPAUTH_RETURN_IF_ERROR(SendBytes(EncodeHelloFrame(hello)));
  WireFrame frame;
  SPAUTH_RETURN_IF_ERROR(ReadFrame(&frame));
  if (frame.type != MsgType::kServerInfo) {
    return Refuse(Status::Malformed("handshake: expected server info"));
  }
  ServerInfoMsg info;
  Status parsed = ParseServerInfo(frame.payload, &info);
  if (!parsed.ok()) {
    return Refuse(parsed);
  }
  if (info.protocol_version < kMinProtocolVersion ||
      info.protocol_version > kProtocolVersion) {
    return Status::FailedPrecondition(
        "server speaks protocol version " +
        std::to_string(info.protocol_version) + ", this client speaks " +
        std::to_string(kMinProtocolVersion) + ".." +
        std::to_string(kProtocolVersion));
  }
  if (!SameKey(info.owner_key, owner_key_)) {
    // The soundness anchor: a server presenting a different owner key is
    // at best misconfigured and at worst an impersonator. Refuse outright.
    return Status::VerificationFailed(
        "server's advertised owner key does not match the trusted key");
  }
  if (info.num_groups == 0) {
    return Refuse(Status::Malformed("handshake: zero serving groups"));
  }
  if (!handshaken_once_) {
    tracked_groups_ = info.num_groups;
    verifier_.TrackShardVersions(tracked_groups_);
    verifier_.SetStalenessBound(options_.staleness_bound);
  } else if (info.num_groups != tracked_groups_) {
    // Re-keying the watermark table on the server's say-so would let a
    // replayed deployment dodge freshness enforcement.
    return Status::FailedPrecondition(
        "server group count changed across reconnect (" +
        std::to_string(tracked_groups_) + " -> " +
        std::to_string(info.num_groups) + ")");
  }
  if (forest_mode_ && !info.forest_present) {
    // Downgrade refusal: a session that has pinned a fleet epoch must not
    // fall back to trusting per-shard certificates on a reconnect — an
    // impersonator could otherwise shed the forest and replay old shards.
    return Status::VerificationFailed(
        "server stopped presenting a forest certificate across reconnect");
  }
  if (info.forest_present) {
    // The verifier's epoch watermark is monotone across reconnects, so a
    // stale forest is refused here — a soundness refusal, never retried.
    SPAUTH_RETURN_IF_ERROR(InstallForest(info.forest));
  }
  info_ = info;
  return Status::Ok();
}

Status NetClient::EnsureConnected() {
  if (connected()) {
    return Status::Ok();
  }
  return Connect();
}

Status NetClient::SendBytes(std::span<const uint8_t> bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      Status s = (errno == EAGAIN || errno == EWOULDBLOCK)
                     ? Status::DeadlineExceeded("send timed out")
                     : Status::Unavailable(std::string("send: ") +
                                           std::strerror(errno));
      Disconnect();
      return s;
    }
    sent += static_cast<size_t>(n);
    stats_.bytes_sent += static_cast<uint64_t>(n);
  }
  return Status::Ok();
}

Status NetClient::ReadFrame(WireFrame* out) {
  uint8_t buf[64 << 10];
  for (;;) {
    auto next = decoder_.Next(out);
    if (!next.ok()) {
      return Refuse(next.status());
    }
    if (next.value()) {
      return Status::Ok();
    }
    ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      stats_.bytes_received += static_cast<uint64_t>(n);
      decoder_.Feed(
          std::span<const uint8_t>(buf, static_cast<size_t>(n)));
      continue;
    }
    if (n == 0) {
      // Mid-frame EOF — a torn answer. The partial bytes are discarded
      // with the connection; nothing unverifiable escapes upward.
      Disconnect();
      return Status::Unavailable("connection closed by server");
    }
    if (errno == EINTR) {
      continue;
    }
    Status s = (errno == EAGAIN || errno == EWOULDBLOCK)
                   ? Status::DeadlineExceeded("receive timed out")
                   : Status::Unavailable(std::string("recv: ") +
                                         std::strerror(errno));
    Disconnect();
    return s;
  }
}

Status NetClient::Refuse(Status why) {
  stats_.frames_refused++;
  Disconnect();
  return why;
}

template <typename Cert>
Status NetClient::InstallForest(const Cert& certificate) {
  const uint32_t before = verifier_.FleetEpochWatermark();
  SPAUTH_RETURN_IF_ERROR(verifier_.AcceptForestCertificate(certificate));
  if (verifier_.FleetEpochWatermark() != before || !forest_mode_) {
    stats_.forest_certs_accepted++;
  }
  forest_mode_ = true;
  return Status::Ok();
}

Result<WireVerification> NetClient::VerifyAnswer(const spauth::Query& query,
                                                 const AnswerMsg& answer) {
  if (answer.status != StatusCode::kOk) {
    stats_.server_errors++;
    return Status(answer.status, "server: " + answer.error);
  }
  if (answer.shard >= tracked_groups_) {
    // An out-of-range shard id would silently skip watermark enforcement.
    return Refuse(Status::Malformed("answer shard id out of range"));
  }
  // A fleet rotation mid-connection ships the new epoch's certificate
  // inline with its first answer; install it (one RSA verify) before
  // checking the path. A bad or stale inline certificate is a soundness
  // refusal, not a per-answer rejection.
  if (forest_mode_ && !answer.forest_certificate.empty()) {
    if (Status installed = InstallForest(answer.forest_certificate);
        !installed.ok()) {
      return Refuse(installed);
    }
  }
  // In forest mode every answer is checked through its path, so an answer
  // without one rejects: falling back to the per-shard signature would let
  // a provider serve unsigned certificates bare.
  std::optional<std::span<const uint8_t>> forest_path;
  if (forest_mode_) {
    forest_path = answer.forest_path;
    stats_.forest_answers++;
  }
  const WireVerification v =
      verifier_.Verify(query, answer.proof, answer.shard, forest_path);
  if (v.outcome.accepted) {
    stats_.answers_accepted++;
  } else {
    stats_.answers_rejected++;
  }
  return v;
}

Result<WireVerification> NetClient::Query(const spauth::Query& query) {
  return std::move(QueryBatch({&query, 1}).front());
}

std::vector<Result<WireVerification>> NetClient::QueryBatch(
    std::span<const spauth::Query> queries) {
  std::vector<Result<WireVerification>> results;
  results.reserve(queries.size());
  Status conn = EnsureConnected();
  if (!conn.ok()) {
    results.assign(queries.size(), Result<WireVerification>(conn));
    return results;
  }
  // Pipeline: one contiguous send of every query frame, so the server's
  // per-connection coalescing sees them as one batch.
  ByteWriter pipelined;
  std::unordered_map<uint64_t, size_t> index_of;
  index_of.reserve(queries.size());
  std::vector<uint64_t> ids(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    QueryMsg msg;
    msg.request_id = next_request_id_++;
    msg.query = queries[i];
    ids[i] = msg.request_id;
    index_of.emplace(msg.request_id, i);
    pipelined.WriteBytes(EncodeQueryFrame(msg));
  }
  stats_.queries_sent += queries.size();
  results.assign(queries.size(),
                 Result<WireVerification>(
                     Status::Unavailable("answer never arrived")));
  Status sent = SendBytes(pipelined.view());
  if (!sent.ok()) {
    results.assign(queries.size(), Result<WireVerification>(sent));
    return results;
  }
  for (size_t answered = 0; answered < queries.size(); ++answered) {
    WireFrame frame;
    Status s = ReadFrame(&frame);
    if (s.ok() && frame.type != MsgType::kAnswer) {
      s = Refuse(Status::Malformed("expected answer frame"));
    }
    AnswerMsg answer;
    if (s.ok()) {
      s = ParseAnswer(frame.payload, &answer);
      if (!s.ok()) {
        s = Refuse(s);
      }
    }
    if (s.ok() && index_of.find(answer.request_id) == index_of.end()) {
      s = Refuse(Status::Malformed("answer for unexpected request id"));
    }
    if (!s.ok()) {
      // Transport failure mid-batch: every still-unanswered slot fails.
      for (auto& [id, idx] : index_of) {
        results[idx] = Result<WireVerification>(s);
      }
      return results;
    }
    const size_t idx = index_of[answer.request_id];
    index_of.erase(answer.request_id);
    results[idx] = VerifyAnswer(queries[idx], answer);
  }
  return results;
}

Result<WireStats> NetClient::FetchServerStats() {
  SPAUTH_RETURN_IF_ERROR(EnsureConnected());
  SPAUTH_RETURN_IF_ERROR(SendBytes(EncodeStatsRequestFrame()));
  WireFrame frame;
  SPAUTH_RETURN_IF_ERROR(ReadFrame(&frame));
  if (frame.type != MsgType::kStats) {
    return Refuse(Status::Malformed("expected stats frame"));
  }
  WireStats stats;
  Status parsed = ParseStats(frame.payload, &stats);
  if (!parsed.ok()) {
    return Refuse(parsed);
  }
  return stats;
}

}  // namespace spauth
