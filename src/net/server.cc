#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <deque>
#include <utility>

#include "util/failpoint.h"

namespace spauth {
namespace {

constexpr uint64_t kListenId = 0;
constexpr uint64_t kWakeId = 1;

/// One queued write: either a small owned buffer (frame headers, preludes,
/// error answers, stats) or the shared proof bundle whose cache-resident
/// bytes are transmitted in place.
struct OutChunk {
  std::vector<uint8_t> bytes;
  std::shared_ptr<const ProofBundle> bundle;
  size_t offset = 0;

  std::span<const uint8_t> data() const {
    return bundle ? std::span<const uint8_t>(bundle->bytes)
                  : std::span<const uint8_t>(bytes);
  }
};

}  // namespace

struct SpauthServer::Conn {
  int fd = -1;
  uint64_t id = 0;
  FrameDecoder decoder;
  std::deque<OutChunk> write_q;
  size_t write_q_bytes = 0;
  bool read_paused = false;
  bool batch_inflight = false;
  std::vector<QueryMsg> pending;
  // The hello's declared protocol version (defaults to v1 so a client
  // that queries before the handshake still gets frames it can parse).
  // Forest sections are emitted only on v2+ connections.
  uint32_t protocol_version = kMinProtocolVersion;
  // The last fleet epoch whose forest certificate went down this
  // connection (handshake or inline); the first answer of a newer epoch
  // re-sends the certificate so long-lived clients re-anchor in-band.
  uint32_t forest_epoch_sent = 0;

  explicit Conn(size_t max_payload) : decoder(max_payload) {}
};

struct SpauthServer::Completion {
  struct Reply {
    uint64_t request_id = 0;
    uint32_t shard = 0;
    std::shared_ptr<const ProofBundle> bundle;  // null on error
    Status error;
  };
  uint64_t conn_id = 0;
  std::vector<Reply> replies;
  // The fleet's forest at batch-answer time (null outside forest mode):
  // the paths attached to these replies must come from the same epoch the
  // worker saw, not whatever the loop sees at enqueue time.
  std::shared_ptr<const FleetCertificate> fleet;
};

SpauthServer::SpauthServer(const ShardedEngine* engine,
                           RsaPublicKey owner_key, ServerOptions options)
    : engine_(engine),
      owner_key_(std::move(owner_key)),
      options_(std::move(options)) {
  if (options_.worker_threads == 0) {
    options_.worker_threads = 1;
  }
  if (options_.write_low_watermark >= options_.write_high_watermark) {
    options_.write_low_watermark = options_.write_high_watermark / 2;
  }
}

SpauthServer::~SpauthServer() { Stop(); }

Status SpauthServer::Start() {
  if (started_) {
    return Status::FailedPrecondition("server already started");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) {
    return Status::Unavailable(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("unparseable host: " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listen_fd_, options_.listen_backlog) < 0) {
    Status s = Status::Unavailable(std::string("bind/listen: ") +
                                   std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    Status s = Status::Unavailable(std::string("epoll/eventfd: ") +
                                   std::strerror(errno));
    Stop();
    return s;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenId;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.u64 = kWakeId;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

  pool_ = std::make_unique<ThreadPool>(options_.worker_threads);
  stop_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  started_ = true;
  loop_ = std::thread(&SpauthServer::EventLoop, this);
  return Status::Ok();
}

void SpauthServer::Stop() {
  if (started_) {
    stop_.store(true, std::memory_order_release);
    WakeLoop();
    loop_.join();
    started_ = false;
  }
  // Join workers before tearing down connections: an in-flight batch may
  // still reference the engine and push completions (which are simply
  // never delivered).
  pool_.reset();
  for (auto& [id, conn] : conns_) {
    ::close(conn->fd);
  }
  conns_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (wake_fd_ >= 0) {
    ::close(wake_fd_);
    wake_fd_ = -1;
  }
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
  }
  running_.store(false, std::memory_order_release);
}

void SpauthServer::WakeLoop() {
  if (wake_fd_ >= 0) {
    uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  }
}

void SpauthServer::EventLoop() {
  epoll_event events[64];
  while (!stop_.load(std::memory_order_acquire)) {
    int n = ::epoll_wait(epoll_fd_, events, 64, -1);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      break;
    }
    for (int i = 0; i < n; ++i) {
      const uint64_t id = events[i].data.u64;
      if (id == kListenId) {
        AcceptNewConnections();
        continue;
      }
      if (id == kWakeId) {
        uint64_t drained = 0;
        while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        DrainCompletions();
        continue;
      }
      auto it = conns_.find(id);
      if (it == conns_.end()) {
        continue;  // closed earlier in this same wait batch
      }
      Conn* conn = it->second.get();
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        CloseConn(id, &counters_.conns_closed);
        continue;
      }
      if (events[i].events & EPOLLOUT) {
        if (!FlushWrites(conn)) {
          continue;  // connection closed mid-flush
        }
        ApplyBackpressure(conn);
        UpdateInterest(conn);  // drop EPOLLOUT once the queue drains
      }
      if (events[i].events & EPOLLIN) {
        HandleReadable(conn);
      }
    }
  }
}

void SpauthServer::AcceptNewConnections() {
  for (;;) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      return;  // EAGAIN or transient accept error: wait for the next event
    }
    if (SPAUTH_FAILPOINT_TRIGGERED("net/accept")) {
      ::close(fd);
      StatAdd(counters_.conns_refused);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const uint64_t id = next_conn_id_++;
    auto conn = std::make_unique<Conn>(options_.max_frame_payload);
    conn->fd = fd;
    conn->id = id;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      ::close(fd);
      continue;
    }
    conns_.emplace(id, std::move(conn));
    StatAdd(counters_.conns_accepted);
  }
}

void SpauthServer::HandleReadable(Conn* conn) {
  if (SPAUTH_FAILPOINT_TRIGGERED_ARG("net/conn_kill", conn->id)) {
    CloseConn(conn->id, &counters_.conns_killed);
    return;
  }
  std::vector<uint8_t> buf(options_.read_chunk_bytes);
  // Bounded passes per readiness event: level-triggered epoll re-arms, so
  // one stubborn connection cannot starve the loop.
  for (int pass = 0; pass < 8; ++pass) {
    size_t want = buf.size();
    if (SPAUTH_FAILPOINT_TRIGGERED_ARG("net/read", conn->id)) {
      want = 1;  // short-read storm: the decoder must reassemble
    }
    ssize_t n = ::read(conn->fd, buf.data(), want);
    if (n > 0) {
      StatAdd(counters_.bytes_read, static_cast<uint64_t>(n));
      conn->decoder.Feed(
          std::span<const uint8_t>(buf.data(), static_cast<size_t>(n)));
      if (!DrainFrames(conn)) {
        return;  // closed: malformed stream
      }
      if (static_cast<size_t>(n) < want) {
        break;
      }
      continue;
    }
    if (n == 0) {
      CloseConn(conn->id, &counters_.conns_closed);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      break;
    }
    CloseConn(conn->id, &counters_.conns_closed);
    return;
  }
  MaybeDispatch(conn);
  if (!FlushWrites(conn)) {
    return;
  }
  ApplyBackpressure(conn);
  UpdateInterest(conn);
}

bool SpauthServer::DrainFrames(Conn* conn) {
  WireFrame frame;
  for (;;) {
    auto next = conn->decoder.Next(&frame);
    if (!next.ok()) {
      StatAdd(counters_.frames_malformed);
      CloseConn(conn->id, &counters_.conns_closed);
      return false;
    }
    if (!next.value()) {
      return true;
    }
    StatAdd(counters_.frames_received);
    switch (frame.type) {
      case MsgType::kHello: {
        HelloMsg hello;
        if (!ParseHello(frame.payload, &hello).ok() ||
            hello.protocol_version < kMinProtocolVersion ||
            hello.protocol_version > kProtocolVersion) {
          StatAdd(counters_.frames_malformed);
          CloseConn(conn->id, &counters_.conns_closed);
          return false;
        }
        // Negotiate down to what the client declared: every later frame
        // on this connection is gated on it, so a v1 client never sees a
        // v2 trailing section.
        conn->protocol_version = hello.protocol_version;
        const ServerInfoMsg info = MakeServerInfo(conn->protocol_version);
        if (info.forest_present) {
          conn->forest_epoch_sent = info.forest.params.fleet_epoch;
          StatAdd(counters_.forest_certs_sent);
        }
        EnqueueOwned(conn, EncodeServerInfoFrame(info));
        break;
      }
      case MsgType::kQuery: {
        QueryMsg query;
        if (!ParseQuery(frame.payload, &query).ok()) {
          StatAdd(counters_.frames_malformed);
          CloseConn(conn->id, &counters_.conns_closed);
          return false;
        }
        StatAdd(counters_.queries_received);
        conn->pending.push_back(query);
        break;
      }
      case MsgType::kStatsRequest:
        EnqueueOwned(conn, EncodeStatsFrame(SnapshotWireStats()));
        break;
      default:
        // Server-to-client types from a client are a protocol violation.
        StatAdd(counters_.frames_malformed);
        CloseConn(conn->id, &counters_.conns_closed);
        return false;
    }
  }
}

void SpauthServer::MaybeDispatch(Conn* conn) {
  if (conn->batch_inflight || conn->pending.empty()) {
    return;
  }
  conn->batch_inflight = true;
  StatAdd(counters_.batches_dispatched);
  const uint64_t conn_id = conn->id;
  std::vector<QueryMsg> batch = std::move(conn->pending);
  conn->pending.clear();
  pool_->Submit([this, conn_id, batch = std::move(batch)]() {
    std::vector<Query> queries;
    queries.reserve(batch.size());
    for (const QueryMsg& m : batch) {
      queries.push_back(m.query);
    }
    auto results = engine_->AnswerBatch(queries, options_.batch_threads);
    Completion completion;
    completion.conn_id = conn_id;
    completion.fleet = engine_->forest();
    completion.replies.reserve(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      Completion::Reply reply;
      reply.request_id = batch[i].request_id;
      reply.shard = static_cast<uint32_t>(engine_->RouteOf(queries[i]));
      if (results[i].ok()) {
        reply.bundle = std::move(results[i]).value();
      } else {
        reply.error = results[i].status();
      }
      completion.replies.push_back(std::move(reply));
    }
    {
      std::lock_guard<std::mutex> lock(completions_mu_);
      completions_.push_back(std::move(completion));
    }
    WakeLoop();
  });
}

void SpauthServer::DrainCompletions() {
  std::vector<Completion> done;
  {
    std::lock_guard<std::mutex> lock(completions_mu_);
    done.swap(completions_);
  }
  for (Completion& completion : done) {
    auto it = conns_.find(completion.conn_id);
    if (it == conns_.end()) {
      continue;  // connection died mid-batch; bundles release here
    }
    Conn* conn = it->second.get();
    conn->batch_inflight = false;
    for (Completion::Reply& reply : completion.replies) {
      if (reply.bundle) {
        // Forest answers ride as THREE chunks: owned prelude, the shared
        // proof bundle (zero-copy, exactly as before), then an owned tail
        // holding the per-answer path bytes — the proof is never staged
        // into an owned buffer to have a tail appended, so
        // proof_bytes_copied stays 0 in forest mode too.
        const FleetCertificate* fleet = completion.fleet.get();
        const bool attach_path =
            conn->protocol_version >= 2 && fleet != nullptr &&
            reply.shard < fleet->encoded_paths.size();
        if (attach_path) {
          const uint32_t epoch = fleet->certificate.params.fleet_epoch;
          std::span<const uint8_t> inline_cert;
          if (epoch != conn->forest_epoch_sent) {
            inline_cert = fleet->encoded_certificate;
          }
          std::vector<uint8_t> tail = EncodeAnswerForestTail(
              fleet->encoded_paths[reply.shard], inline_cert);
          EnqueueOwned(conn, EncodeAnswerFramePrelude(
                                 reply.request_id, reply.shard,
                                 reply.bundle->bytes.size(), tail.size()));
          EnqueueBundle(conn, std::move(reply.bundle));
          EnqueueOwned(conn, std::move(tail));
          StatAdd(counters_.forest_paths_sent);
          if (!inline_cert.empty()) {
            conn->forest_epoch_sent = epoch;
            StatAdd(counters_.forest_certs_sent);
          }
        } else {
          EnqueueOwned(conn,
                       EncodeAnswerFramePrelude(reply.request_id, reply.shard,
                                                reply.bundle->bytes.size()));
          EnqueueBundle(conn, std::move(reply.bundle));
        }
        StatAdd(counters_.answers_ok);
      } else {
        EnqueueOwned(conn, EncodeErrorAnswerFrame(reply.request_id,
                                                  reply.shard, reply.error));
        StatAdd(counters_.answers_error);
      }
    }
    MaybeDispatch(conn);  // queries that arrived while the batch ran
    if (!FlushWrites(conn)) {
      continue;
    }
    ApplyBackpressure(conn);
    UpdateInterest(conn);
  }
}

void SpauthServer::EnqueueOwned(Conn* conn, std::vector<uint8_t> bytes) {
  conn->write_q_bytes += bytes.size();
  OutChunk chunk;
  chunk.bytes = std::move(bytes);
  conn->write_q.push_back(std::move(chunk));
}

void SpauthServer::EnqueueBundle(Conn* conn,
                                 std::shared_ptr<const ProofBundle> bundle) {
  conn->write_q_bytes += bundle->bytes.size();
  OutChunk chunk;
  chunk.bundle = std::move(bundle);
  conn->write_q.push_back(std::move(chunk));
}

bool SpauthServer::FlushWrites(Conn* conn) {
  while (!conn->write_q.empty()) {
    OutChunk& chunk = conn->write_q.front();
    std::span<const uint8_t> data = chunk.data();
    const size_t remaining = data.size() - chunk.offset;
    if (SPAUTH_FAILPOINT_TRIGGERED_ARG("net/write", conn->id)) {
      // Torn write: half the remaining bytes hit the wire, then the
      // connection dies — the client-side decoder must refuse the stump.
      ssize_t torn =
          ::write(conn->fd, data.data() + chunk.offset, remaining / 2);
      if (torn > 0) {
        StatAdd(counters_.bytes_written, static_cast<uint64_t>(torn));
      }
      CloseConn(conn->id, &counters_.conns_killed);
      return false;
    }
    ssize_t n = ::write(conn->fd, data.data() + chunk.offset, remaining);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        break;
      }
      CloseConn(conn->id, &counters_.conns_closed);
      return false;
    }
    StatAdd(counters_.bytes_written, static_cast<uint64_t>(n));
    if (chunk.bundle) {
      StatAdd(counters_.proof_bytes_sent, static_cast<uint64_t>(n));
    }
    chunk.offset += static_cast<size_t>(n);
    conn->write_q_bytes -= static_cast<size_t>(n);
    if (chunk.offset == data.size()) {
      conn->write_q.pop_front();
    }
    if (static_cast<size_t>(n) < remaining) {
      break;  // kernel buffer full: EPOLLOUT will resume
    }
  }
  if (conn->read_paused &&
      conn->write_q_bytes <= options_.write_low_watermark) {
    conn->read_paused = false;
  }
  return true;
}

void SpauthServer::ApplyBackpressure(Conn* conn) {
  if (!conn->read_paused &&
      conn->write_q_bytes >= options_.write_high_watermark) {
    conn->read_paused = true;
    StatAdd(counters_.backpressure_stalls);
  }
}

void SpauthServer::UpdateInterest(Conn* conn) {
  epoll_event ev{};
  ev.events = (conn->read_paused ? 0u : static_cast<uint32_t>(EPOLLIN)) |
              (conn->write_q.empty() ? 0u : static_cast<uint32_t>(EPOLLOUT));
  ev.data.u64 = conn->id;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
}

void SpauthServer::CloseConn(uint64_t conn_id, uint64_t* counter) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) {
    return;
  }
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, it->second->fd, nullptr);
  ::close(it->second->fd);
  conns_.erase(it);
  StatAdd(*counter);
}

ServerInfoMsg SpauthServer::MakeServerInfo(
    uint32_t negotiated_version) const {
  ServerInfoMsg info;
  info.protocol_version = negotiated_version;
  const Certificate cert = engine_->shard(0).certificate();
  info.method = cert.params.method;
  info.num_nodes = cert.params.num_network_leaves;
  info.num_groups = static_cast<uint32_t>(engine_->num_groups());
  info.certificate_version = cert.params.version;
  info.owner_key = owner_key_;
  if (negotiated_version >= 2) {
    if (auto fleet = engine_->forest()) {
      info.forest_present = true;
      info.forest = fleet->certificate;
    }
  }
  return info;
}

ServerStats SpauthServer::stats() const { return StatSnapshot(counters_); }

WireStats SpauthServer::SnapshotWireStats() const {
  const ServerStats s = stats();
  WireStats wire;
  ForEachStatField<ServerStats>([&](const auto& field) {
    wire.emplace_back(field.name, s.*field.member);
  });
  return wire;
}

}  // namespace spauth
