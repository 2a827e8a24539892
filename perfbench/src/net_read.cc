// Workload `net_read`: reads over the socket tier.
//
// An in-process SpauthServer (2 workers) serves a DIJ ShardedEngine with 2
// routing groups and the proof cache on — the spauth_server defaults — over
// the DE stand-in (1,200 nodes, 500/2000/8000 range mix). An open-loop
// generator on one I/O thread drives 4 connections; each connection sends
// bursts of kDepth pipelined queries on a fixed schedule, so the server's
// per-connection batching coalesces them. Queries follow a seeded Zipf(1)
// draw over a pool of 4x the per-engine proof-cache capacity.
//
// Latency runs from each query's scheduled send time until its answer frame
// has fully arrived; the arrival is stamped before any verification. Every
// answer is verified off that path. The same query on the same snapshot
// always yields the same bytes, so an answer byte-identical to one already
// verified for that query is verified by identity: answers to the kMemo
// most popular queries are compared on the I/O thread with answers verified
// before the run; all others go to a second generator thread, which runs
// the full VerifyWireAnswer (checking the distance against plain Dijkstra)
// the first time and compares SHA-1 digests after that. During the nominal
// window that thread is paused and works through the queue right after it,
// so the latency reading shares no CPU with verification.
//
// The rate ladder stops at 16,000 qps: on a 4-core host the generator's own
// I/O thread starts sending late above that, and the reading would be the
// generator's rather than the server's.
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <limits>
#include <thread>

#include "core/sharded_engine.h"
#include "core/verify_workspace.h"
#include "crypto/digest.h"
#include "graph/generator.h"
#include "harness.h"
#include "net/server.h"
#include "net/wire_protocol.h"

namespace perfbench {
namespace {

using namespace spauth;

constexpr double kRanges[] = {500, 2000, 8000};
constexpr size_t kConnections = 4;
// Queries per pipelined burst. At 4 the nominal latency was mostly thread
// wake-ups and spread 2-3x wider between runs; at 8 it is mostly the
// server's batch work.
constexpr size_t kDepth = 8;
constexpr double kNominalQps = 1000;
constexpr double kSloP99Ms = 10;
constexpr double kLadderStartQps = 500;
constexpr int kLadderRungs = 6;         // 500 .. 16,000 qps
constexpr int kRungAttempts = 3;
// Popular queries whose answers are verified ahead of the run; their
// answers are then checked for byte equality on the I/O thread.
constexpr size_t kMemo = 1024;

struct Conn {
  int fd = -1;
  FrameDecoder decoder;
  std::vector<uint8_t> out;
  size_t out_off = 0;

  Conn() = default;
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;
  ~Conn() {
    if (fd >= 0) {
      ::close(fd);
    }
  }
};

Status WriteAll(int fd, const std::vector<uint8_t>& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return Status::Unavailable(std::string("write: ") + std::strerror(errno));
    }
    off += static_cast<size_t>(n);
  }
  return Status::Ok();
}

/// Blocking read until one complete frame is decoded.
Status ReadFrame(Conn* conn, WireFrame* frame) {
  uint8_t buf[1 << 16];
  for (;;) {
    auto next = conn->decoder.Next(frame);
    if (!next.ok()) {
      return next.status();
    }
    if (next.value()) {
      return Status::Ok();
    }
    pollfd p{conn->fd, POLLIN, 0};
    if (::poll(&p, 1, 10'000) <= 0) {
      return Status::Unavailable("read timed out");
    }
    const ssize_t n = ::read(conn->fd, buf, sizeof(buf));
    if (n < 0 && (errno == EINTR || errno == EAGAIN)) {
      continue;
    }
    if (n <= 0) {
      return Status::Unavailable("connection closed");
    }
    conn->decoder.Feed({buf, static_cast<size_t>(n)});
  }
}

/// Connects, says hello, and checks the advertised owner key against the
/// trusted one. Leaves the socket non-blocking with TCP_NODELAY.
Status Connect(uint16_t port, const RsaPublicKey& owner_key, Conn* conn) {
  conn->fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (conn->fd < 0) {
    return Status::Unavailable("socket");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(conn->fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Status::Unavailable(std::string("connect: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(conn->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  SPAUTH_RETURN_IF_ERROR(WriteAll(conn->fd, EncodeHelloFrame(HelloMsg{})));
  WireFrame frame;
  SPAUTH_RETURN_IF_ERROR(ReadFrame(conn, &frame));
  ServerInfoMsg info;
  if (frame.type != MsgType::kServerInfo ||
      !ParseServerInfo(frame.payload, &info).ok()) {
    return Status::Unavailable("bad server info");
  }
  ByteWriter a, b;
  info.owner_key.Serialize(&a);
  owner_key.Serialize(&b);
  if (a.bytes() != b.bytes()) {
    return Status::Unavailable("server advertises an untrusted owner key");
  }
  ::fcntl(conn->fd, F_SETFL, ::fcntl(conn->fd, F_GETFL) | O_NONBLOCK);
  return Status::Ok();
}

/// Full answer verification off the latency path, on its own low-priority
/// thread so it yields the CPU to the server when both are busy.
class Verifier {
 public:
  Verifier(const RsaPublicKey& key, const std::vector<PoolQuery>& pool)
      : key_(key), pool_(pool), verified_(pool.size()),
        thread_([this] { Loop(); }) {}
  ~Verifier() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Verifier(const Verifier&) = delete;
  Verifier& operator=(const Verifier&) = delete;

  void Push(uint64_t req, size_t pool_idx, std::vector<uint8_t> bytes) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back({req, pool_idx, std::move(bytes)});
    }
    cv_.notify_one();
  }

  /// While paused, answers queue up unverified, so a timed window's
  /// latency shares no CPU with verification.
  void SetPaused(bool paused) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      paused_ = paused;
    }
    cv_.notify_all();
  }

  /// Waits until every pushed answer is verified; returns the verify times
  /// (ms) since the last call and the number of failures.
  std::vector<double> Drain(uint64_t* failures, std::string* first_error) {
    std::unique_lock<std::mutex> lock(mu_);
    idle_cv_.wait(lock, [&] { return queue_.empty() && !busy_; });
    *failures = std::exchange(failures_, 0);
    *first_error = std::exchange(first_error_, {});
    return std::exchange(verify_ms_, {});
  }

 private:
  struct Item {
    uint64_t req;
    size_t pool_idx;
    std::vector<uint8_t> bytes;
  };

  void Loop() {
    setpriority(PRIO_PROCESS, static_cast<id_t>(::syscall(SYS_gettid)), 19);
    VerifyWorkspace ws;
    WireVerification result;
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      cv_.wait(lock, [&] { return stop_ || (!paused_ && !queue_.empty()); });
      if (queue_.empty()) {
        return;  // stop_ with nothing left
      }
      Item item = std::move(queue_.front());
      queue_.pop_front();
      busy_ = true;
      lock.unlock();
      const PoolQuery& pq = pool_[item.pool_idx];
      const Digest digest = [&] {
        ScopedSpan span("bench.digest", item.req);
        return Hasher::Hash(HashAlgorithm::kSha1, item.bytes);
      }();
      bool right = true;
      double ms = -1;
      if (!(verified_[item.pool_idx] == digest)) {
        const auto t0 = Clock::now();
        {
          ScopedSpan span("core.verify", item.req);
          VerifyWireAnswer(key_, pq.query, item.bytes, ws, &result);
        }
        ms = MsBetween(t0, Clock::now());
        right = AnswerIsRight(pq, result);
        if (right) {
          verified_[item.pool_idx] = digest;
        }
      }
      lock.lock();
      if (ms >= 0) {
        verify_ms_.push_back(ms);
      }
      if (!right) {
        if (failures_++ == 0) {
          first_error_ = "answer to pool query " +
                         std::to_string(item.pool_idx) +
                         " failed verification: " + result.outcome.ToString();
        }
      }
      busy_ = false;
      if (queue_.empty()) {
        idle_cv_.notify_all();
      }
    }
  }

  const RsaPublicKey& key_;
  const std::vector<PoolQuery>& pool_;
  // SHA-1 of the answer bytes last fully verified per pool query (owned by
  // the verifier thread): a byte-identical repeat is verified by identity.
  std::vector<Digest> verified_;
  std::mutex mu_;
  std::condition_variable cv_, idle_cv_;
  std::deque<Item> queue_;
  bool busy_ = false;
  bool paused_ = false;
  bool stop_ = false;
  uint64_t failures_ = 0;
  std::string first_error_;
  std::vector<double> verify_ms_;
  std::thread thread_;  // last: starts after the members it uses
};

struct NetState {
  std::unique_ptr<RsaKeyPair> keys;
  std::unique_ptr<Graph> graph;
  std::vector<PoolQuery> pool;
  std::unique_ptr<Zipf> zipf;
  std::unique_ptr<ShardedEngine> engine;
  std::unique_ptr<SpauthServer> server;
  Conn conns[kConnections];
  // Byte-verified answers of the most popular queries (pool index < size).
  std::vector<std::vector<uint8_t>> memo;
  std::unique_ptr<Verifier> verifier;
  uint64_t next_req = 1;
  double keygen_s = 0, graph_s = 0, workload_s = 0;
};

struct WindowStats {
  double offered_qps = 0;
  // Latencies by the slice of the window their due time fell in; failed
  // requests count as +inf.
  std::vector<std::vector<double>> slices;
  std::vector<double> late_ms;     // per burst: actual send - due
  std::vector<double> verify_ms;
  uint64_t sent = 0, answered = 0, failed = 0, memo_hits = 0;
  uint64_t backlog_at_end = 0;
  double proof_bytes = 0;
  double achieved_qps = 0;
  Clock::time_point last_arrival;
  ServerStats server_before, server_after;
  ShardedStats engine_before, engine_after;
  uint64_t rsa_verify_ops = 0;

  /// The median over slices of each slice's q-quantile: one stalled slice
  /// of a shared host cannot move it, a slower server moves every slice.
  double p(double q) const {
    std::vector<double> per_slice;
    for (const std::vector<double>& slice : slices) {
      if (!slice.empty()) {
        per_slice.push_back(Percentile(slice, q));
      }
    }
    return Median(per_slice);
  }
  size_t samples() const {
    size_t n = 0;
    for (const std::vector<double>& slice : slices) {
      n += slice.size();
    }
    return n;
  }
  /// Kept up: nothing failed and the backlog when the last burst went
  /// out was under 100 ms of arrivals (an overloaded server's backlog grows
  /// with the rung's length instead).
  bool KeptUp() const {
    return failed == 0 &&
           backlog_at_end <= kConnections * kDepth + offered_qps * 0.1;
  }
  bool MeetsSlo() const { return KeptUp() && p(0.99) <= kSloP99Ms; }
};

/// One open-loop window at `rate` for `seconds`.
WindowStats RunWindow(NetState* st, double rate, double seconds,
                      size_t num_slices, uint64_t draw_seed, bool defer_verify,
                      bool tamper, RunResult* out) {
  WindowStats w;
  st->verifier->SetPaused(defer_verify);
  w.slices.resize(num_slices);
  w.offered_qps = rate;
  w.server_before = st->server->stats();
  w.engine_before = st->engine->GetStats();
  const uint64_t rsa_before = RsaVerifyOps();
  Rng rng(draw_seed);

  struct Req {
    Clock::time_point due;
    size_t pool_idx = 0;
    bool done = false;
  };
  std::vector<Req> reqs;
  const uint64_t base = st->next_req;
  const double interval_s = kConnections * kDepth / rate;
  const size_t bursts = std::max<size_t>(
      1, static_cast<size_t>(seconds / interval_s));
  reqs.reserve(bursts * kConnections * kDepth);
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(interval_s));
  const auto t0 = Clock::now() + std::chrono::milliseconds(1);
  size_t next_burst[kConnections] = {};
  auto slice_of = [&](Clock::time_point due) {
    const double f = SecondsBetween(t0, due) / seconds;
    return std::min(num_slices - 1,
                    static_cast<size_t>(std::max(0.0, f) * num_slices));
  };
  auto due_of = [&](size_t c, size_t k) {
    return t0 + interval * static_cast<int64_t>(k) +
           interval * static_cast<int64_t>(c) / kConnections;
  };
  uint64_t outstanding = 0;
  bool all_sent = false;
  bool tampered = false;
  std::vector<uint8_t> buf(256u << 10);
  WireFrame frame;
  AnswerMsg msg;
  pollfd pfds[kConnections];

  auto handle_frame = [&](Clock::time_point arrived) {
    if (frame.type != MsgType::kAnswer || !ParseAnswer(frame.payload, &msg).ok()) {
      out->Fail("undecodable frame from server");
      return;
    }
    if (msg.request_id < base || msg.request_id - base >= reqs.size()) {
      return;  // a straggler of an earlier window, already counted failed
    }
    Req& r = reqs[msg.request_id - base];
    if (r.done) {
      return;
    }
    r.done = true;
    --outstanding;
    if (msg.status != StatusCode::kOk) {
      w.failed++;
      w.slices[slice_of(r.due)].push_back(
          std::numeric_limits<double>::infinity());
      out->Fail("server error: " + msg.error);
      return;
    }
    w.answered++;
    w.last_arrival = arrived;
    w.slices[slice_of(r.due)].push_back(MsBetween(r.due, arrived));
    w.proof_bytes += static_cast<double>(msg.proof.size());
    if (tamper && !tampered) {
      tampered = true;
      msg.proof[msg.proof.size() / 2] ^= 0x5a;
    } else if (r.pool_idx < st->memo.size()) {
      ScopedSpan span("bench.memo", msg.request_id);
      if (msg.proof == st->memo[r.pool_idx]) {
        w.memo_hits++;
        return;
      }
    }
    st->verifier->Push(msg.request_id, r.pool_idx, std::move(msg.proof));
  };

  // Reads everything the socket holds, stamping arrivals before decoding;
  // false when the connection is lost or its stream is malformed.
  auto read_conn = [&](Conn& conn) {
    for (;;) {
      const ssize_t n = ::read(conn.fd, buf.data(), buf.size());
      if (n <= 0) {
        if (n < 0 && (errno == EAGAIN || errno == EINTR)) {
          return true;
        }
        out->Fail("connection lost");
        return false;
      }
      const auto arrived = Clock::now();
      conn.decoder.Feed({buf.data(), static_cast<size_t>(n)});
      for (;;) {
        auto next = conn.decoder.Next(&frame);
        if (!next.ok()) {
          out->Fail("malformed stream: " + next.status().ToString());
          return false;
        }
        if (!next.value()) {
          break;
        }
        handle_frame(arrived);
      }
    }
  };
  bool broken = false;

  const auto hard_stop = t0 + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(seconds + 10));
  for (;;) {
    auto now = Clock::now();
    if (!all_sent) {
      all_sent = true;
      for (size_t c = 0; c < kConnections; ++c) {
        Conn& conn = st->conns[c];
        while (next_burst[c] < bursts && due_of(c, next_burst[c]) <= now) {
          ScopedSpan span("net.send", base + reqs.size());
          const auto due = due_of(c, next_burst[c]);
          w.late_ms.push_back(MsBetween(due, now));
          for (size_t d = 0; d < kDepth; ++d) {
            QueryMsg q;
            q.request_id = base + reqs.size();
            const size_t idx = st->zipf->Draw(&rng);
            q.query = st->pool[idx].query;
            reqs.push_back({due, idx, false});
            const std::vector<uint8_t> bytes = EncodeQueryFrame(q);
            conn.out.insert(conn.out.end(), bytes.begin(), bytes.end());
          }
          next_burst[c]++;
          outstanding += kDepth;
          w.sent += kDepth;
        }
        all_sent = all_sent && next_burst[c] == bursts;
        if (conn.out_off == conn.out.size()) {
          continue;  // nothing to write
        }
        ScopedSpan span("net.write", 0);
        while (conn.out_off < conn.out.size()) {
          const ssize_t n = ::write(conn.fd, conn.out.data() + conn.out_off,
                                    conn.out.size() - conn.out_off);
          if (n <= 0) {
            break;  // EAGAIN: wait for POLLOUT
          }
          conn.out_off += static_cast<size_t>(n);
        }
        if (conn.out_off == conn.out.size()) {
          conn.out.clear();
          conn.out_off = 0;
        }
      }
      if (all_sent) {
        w.backlog_at_end = outstanding;
      }
    }
    if (all_sent && outstanding == 0) {
      break;
    }
    if (now > hard_stop) {
      out->Fail(std::to_string(outstanding) + " queries never answered");
      w.failed += outstanding;
      w.slices.back().insert(w.slices.back().end(), outstanding,
                             std::numeric_limits<double>::infinity());
      break;
    }
    // Busy-poll, never sleep: on a shared host a timer or socket wake-up
    // can come late by more than a burst gap, and the delay would be
    // charged to the server as latency.
    for (size_t c = 0; c < kConnections; ++c) {
      pfds[c] = {st->conns[c].fd,
                 static_cast<short>(POLLIN | (st->conns[c].out.empty() ? 0 : POLLOUT)),
                 0};
    }
    if (::poll(pfds, kConnections, 0) <= 0) {
      continue;
    }
    for (size_t c = 0; c < kConnections && !broken; ++c) {
      if ((pfds[c].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        ScopedSpan span("net.recv", 0);
        broken = !read_conn(st->conns[c]);
      }
    }
    if (broken) {
      w.failed += outstanding;
      break;
    }
  }
  st->next_req = base + reqs.size();
  w.achieved_qps =
      w.answered / std::max(1e-9, SecondsBetween(t0, w.last_arrival));
  st->verifier->SetPaused(false);
  uint64_t verify_failures = 0;
  std::string first_error;
  w.verify_ms = st->verifier->Drain(&verify_failures, &first_error);
  if (verify_failures > 0) {
    w.failed += verify_failures;
    out->Fail(first_error);
  }
  w.rsa_verify_ops = RsaVerifyOps() - rsa_before;
  w.server_after = st->server->stats();
  w.engine_after = st->engine->GetStats();
  out->attempted += w.sent;
  out->failed += w.failed;
  return w;
}

std::unique_ptr<NetState> Setup(const Options& opt, RunResult* out) {
  auto st = std::make_unique<NetState>();
  auto t = Clock::now();
  st->keys = std::make_unique<RsaKeyPair>(GenerateOwnerKeys());
  st->keygen_s = SecondsBetween(t, Clock::now());

  t = Clock::now();
  RoadNetworkOptions graph_options = DatasetOptions(Dataset::kDE);
  if (opt.tiny) {
    graph_options.num_nodes = 300;
  }
  auto graph = GenerateRoadNetwork(graph_options);
  if (!graph.ok()) {
    out->Fail("graph: " + graph.status().ToString());
    return nullptr;
  }
  st->graph = std::make_unique<Graph>(std::move(graph).value());
  st->graph_s = SecondsBetween(t, Clock::now());

  // spauth_server defaults: DIJ, proof cache of 4096 entries per engine.
  EngineOptions engine_options;
  engine_options.method = MethodKind::kDij;
  engine_options.enable_proof_cache = true;
  engine_options.proof_cache_capacity = opt.tiny ? 128 : 4096;

  t = Clock::now();
  st->pool = MakeQueryPool(*st->graph, 4 * engine_options.proof_cache_capacity,
                           kRanges, Mix(opt.seed, 2));
  st->zipf = std::make_unique<Zipf>(st->pool.size(), 1.0);
  st->workload_s = SecondsBetween(t, Clock::now());

  auto engine = ShardedEngine::BuildReplicated(*st->graph, engine_options, 2,
                                               *st->keys);
  if (!engine.ok()) {
    out->Fail("engine: " + engine.status().ToString());
    return nullptr;
  }
  st->engine = std::move(engine).value();

  ServerOptions server_options;
  server_options.port = 0;
  server_options.worker_threads = 2;
  st->server = std::make_unique<SpauthServer>(
      st->engine.get(), st->keys->public_key(), server_options);
  if (Status s = st->server->Start(); !s.ok()) {
    out->Fail("server start: " + s.ToString());
    return nullptr;
  }
  for (Conn& conn : st->conns) {
    if (Status s = Connect(st->server->port(), st->keys->public_key(), &conn);
        !s.ok()) {
      out->Fail("connect: " + s.ToString());
      return nullptr;
    }
  }
  st->verifier = std::make_unique<Verifier>(st->keys->public_key(), st->pool);

  // Warm-up: fill both engines' proof caches with the most popular
  // queries, hottest last (most recently used), then a short socket window
  // to fault in the serving path.
  std::vector<Query> warm;
  for (size_t i = 2 * engine_options.proof_cache_capacity; i-- > 0;) {
    warm.push_back(st->pool[i].query);
  }
  for (const auto& r : st->engine->AnswerBatch(warm, 2)) {
    if (!r.ok()) {
      out->Fail("warm-up answer: " + r.status().ToString());
      return nullptr;
    }
  }
  RunResult warm_result;
  RunWindow(st.get(), kNominalQps, opt.tiny ? 0.1 : 0.3, 1, Mix(opt.seed, 4),
            false, false, &warm_result);
  if (!warm_result.correct()) {
    out->Fail("warm-up window: " + warm_result.errors.front());
    return nullptr;
  }
  return st;
}

/// Fetches one answer over connection 0, outside any timed window.
Result<std::vector<uint8_t>> FetchAnswer(NetState* st, const Query& query) {
  Conn& conn = st->conns[0];
  QueryMsg q;
  q.request_id = st->next_req++;
  q.query = query;
  ::fcntl(conn.fd, F_SETFL, ::fcntl(conn.fd, F_GETFL) & ~O_NONBLOCK);
  Status written = WriteAll(conn.fd, EncodeQueryFrame(q));
  WireFrame frame;
  AnswerMsg msg;
  Status read = written.ok() ? ReadFrame(&conn, &frame) : written;
  ::fcntl(conn.fd, F_SETFL, ::fcntl(conn.fd, F_GETFL) | O_NONBLOCK);
  SPAUTH_RETURN_IF_ERROR(read);
  if (frame.type != MsgType::kAnswer || !ParseAnswer(frame.payload, &msg).ok() ||
      msg.request_id != q.request_id || msg.status != StatusCode::kOk) {
    return Status::Unavailable("bad answer frame");
  }
  return std::move(msg.proof);
}

void ReportServer(const WindowStats& w, Metrics* m) {
  const ServerStats& a = w.server_before;
  const ServerStats& b = w.server_after;
  const double queries = static_cast<double>(b.queries_received - a.queries_received);
  const double batches = static_cast<double>(b.batches_dispatched - a.batches_dispatched);
  const double answers = static_cast<double>(b.answers_ok - a.answers_ok);
  m->Set("net.batch_coalescing", batches > 0 ? queries / batches : 0, "ratio");
  m->Set("net.queries_received", queries, "count");
  m->Set("net.batches_dispatched", batches, "count");
  m->Set("net.bytes_per_answer",
         answers > 0 ? (b.bytes_written - a.bytes_written) / answers : 0, "B");
  m->Set("net.backpressure_stalls",
         static_cast<double>(b.backpressure_stalls - a.backpressure_stalls),
         "count");
  m->Set("net.proof_bytes_copied",
         static_cast<double>(b.proof_bytes_copied - a.proof_bytes_copied), "B");
  m->Set("gen.late_p99_ms", Percentile(w.late_ms, 0.99), "ms");
  m->Set("gen.verify_ms.p50", Percentile(w.verify_ms, 0.5), "ms");

  const ShardStats& ta = w.engine_before.totals;
  const ShardStats& tb = w.engine_after.totals;
  const double hits = static_cast<double>(tb.cache.hits - ta.cache.hits);
  const double misses = static_cast<double>(tb.cache.misses - ta.cache.misses);
  m->Set("cache.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0,
         "ratio");
  m->Set("cache.hits", hits, "count");
  m->Set("cache.misses", misses, "count");
  const double shard_queries = static_cast<double>(tb.queries - ta.queries);
  m->Set("shard.answer_us_mean",
         shard_queries > 0 ? (tb.answer_micros - ta.answer_micros) / shard_queries
                           : 0,
         "us");
  double max_q = 0;
  for (size_t s = 0; s < w.engine_after.shards.size(); ++s) {
    max_q = std::max(max_q,
                     static_cast<double>(w.engine_after.shards[s].queries -
                                         w.engine_before.shards[s].queries));
  }
  const double mean_q = shard_queries / std::max<size_t>(
                                            1, w.engine_after.shards.size());
  m->Set("shard.load_skew", mean_q > 0 ? max_q / mean_q : 0, "ratio");
  m->Set("crypto.verify_ops_per_answer",
         w.answered > 0 ? static_cast<double>(w.rsa_verify_ops) / w.answered : 0,
         "count");
}

}  // namespace

void RunNetRead(const Options& opt, RunResult* out) {
  std::vector<double> setup_s;
  std::unique_ptr<NetState> st;
  for (int r = 0; r < kSetupRepeats; ++r) {
    st.reset();
    const auto t0 = Clock::now();
    st = Setup(opt, out);
    if (st == nullptr) {
      return;
    }
    setup_s.push_back(SecondsBetween(t0, Clock::now()));
  }

  // Harness preparation, outside set-up: an identically built in-process
  // engine, and byte-verified answers for the most popular queries.
  EngineOptions twin_options;
  twin_options.method = MethodKind::kDij;
  auto twin = MakeEngine(*st->graph, twin_options, *st->keys);
  if (!twin.ok()) {
    out->Fail("twin engine: " + twin.status().ToString());
    return;
  }
  const size_t memo = std::min<size_t>(kMemo, st->pool.size() / 8);
  st->memo.resize(memo);
  std::atomic<bool> memo_ok{true};
  auto prefill = [&](size_t first) {
    SearchWorkspace ws;
    VerifyWorkspace vws;
    WireVerification verified;
    for (size_t i = first; i < memo; i += 2) {
      auto bundle = twin.value()->Answer(st->pool[i].query, ws);
      if (!bundle.ok()) {
        memo_ok = false;
        return;
      }
      VerifyWireAnswer(st->keys->public_key(), st->pool[i].query,
                       bundle.value().bytes, vws, &verified);
      if (!AnswerIsRight(st->pool[i], verified)) {
        memo_ok = false;
        return;
      }
      st->memo[i] = std::move(bundle.value().bytes);
    }
  };
  {
    std::thread helper(prefill, 1);
    prefill(0);
    helper.join();
  }
  if (!memo_ok) {
    out->Fail("an in-process twin answer failed verification");
    return;
  }

  const double nominal_s = opt.seconds / 2;
  const size_t nominal_slices = std::max<size_t>(1, nominal_s);
  const WindowStats nominal =
      RunWindow(st.get(), kNominalQps, nominal_s, nominal_slices,
                Mix(opt.seed, 10), true, opt.tamper, out);
  // Read before the ladder: its top rungs overload the generator's
  // verifier, whose backlog is harness memory.
  out->rss_mb = PeakRssMb();
  Metrics& e2e = out->end_to_end;
  e2e.Set("setup_s", Median(setup_s), "s");
  e2e.Set("latency_p50_ms", nominal.p(0.50), "ms");
  e2e.Set("proof_kb_mean",
          nominal.answered > 0 ? nominal.proof_bytes / nominal.answered / 1024
                               : 0,
          "KB");
  out->detail.Set("net_p50_ms", nominal.p(0.50), "ms");
  out->detail.Set("net_p90_ms", nominal.p(0.90), "ms");
  out->detail.Set("net_p99_ms", nominal.p(0.99), "ms");
  out->detail.Set("nominal.samples", static_cast<double>(nominal.samples()),
                  "count");
  out->detail.Set("nominal.memo_hits", static_cast<double>(nominal.memo_hits),
                  "count");
  Metrics server_view;
  ReportServer(nominal, &server_view);
  for (const Metrics::Entry& e : server_view.entries()) {
    out->detail.Set("nominal." + e.name, e.value, e.unit);
  }
  if (server_view.Find("net.batch_coalescing")->value <= 1) {
    out->Fail("server batching not exercised at the nominal rate "
              "(queries per batch <= 1)");
  }
  if (server_view.Find("net.proof_bytes_copied")->value != 0) {
    out->Fail("proof bytes were copied on the serving path");
  }

  if (!opt.trace) {
    // Rate ladder, doubling from 500 qps while the server keeps up. Each
    // rung gets up to kRungAttempts tries to keep up and meet the SLO, so a
    // stall of a shared host cannot end the ladder early. throughput_qps is
    // the highest rung kept up; slo_qps the highest rung, every rung below
    // included, that also met p99 <= 10 ms. Both are achieved rates.
    const double rung_s = std::max(opt.seconds * 0.08, 0.5);
    double kept_up = 0, slo = 0;
    bool slo_held = true;
    double rate = kLadderStartQps;
    for (int k = 0; k < kLadderRungs; ++k, rate *= 2) {
      const size_t slices =
          std::clamp<size_t>(static_cast<size_t>(rate * rung_s / 1000), 1, 5);
      WindowStats w;
      double kept_rate = 0, slo_rate = 0;
      // Once a rung has missed the SLO, later rungs only need to keep up.
      for (int attempt = 0; attempt < kRungAttempts && slo_rate == 0 &&
                            (slo_held || kept_rate == 0);
           ++attempt) {
        w = RunWindow(st.get(), rate, rung_s, slices,
                      Mix(opt.seed, 20 + kRungAttempts * k + attempt), false,
                      false, out);
        if (w.KeptUp() && kept_rate == 0) {
          kept_rate = w.achieved_qps;
        }
        if (w.MeetsSlo()) {
          slo_rate = w.achieved_qps;
        }
      }
      const std::string tag = "ladder." + std::to_string(static_cast<int>(rate));
      out->detail.Set(tag + ".p99_ms", w.p(0.99), "ms");
      out->detail.Set(tag + ".achieved_qps", w.achieved_qps, "1/s");
      out->detail.Set(tag + ".late_p99_ms", Percentile(w.late_ms, 0.99), "ms");
      if (kept_rate == 0) {
        break;
      }
      kept_up = kept_rate;
      slo_held = slo_held && slo_rate > 0;
      if (slo_held) {
        slo = slo_rate;
      }
    }
    if (kept_up == 0) {
      out->Fail("the server did not keep up with 500 qps");
    }
    e2e.Set("throughput_qps", kept_up, "1/s");
    out->detail.Set("slo_qps", slo, "1/s");
  } else {
    Metrics& layer = out->per_layer;
    Tracer::SetEnabled(true);
    const WindowStats traced =
        RunWindow(st.get(), kNominalQps, nominal_s, nominal_slices,
                  Mix(opt.seed, 11), true, false, out);
    ReportSelfTime(nominal_s, &layer);
    ReportServer(traced, &layer);
    layer.Set("trace.overhead.latency_p50_ms",
              traced.p(0.5) / nominal.p(0.5) - 1, "ratio");
    layer.Set("trace.overhead.throughput_qps",
              traced.achieved_qps / nominal.achieved_qps - 1, "ratio");
    layer.Set("setup.keygen_s", st->keygen_s, "s");
    layer.Set("setup.graph_s", st->graph_s, "s");
    layer.Set("setup.workload_s", st->workload_s, "s");
    layer.Set("setup.ads_s.dij", st->engine->shard(0).construction_seconds(), "s");
    layer.Set("crypto.rsa_verify_us",
              ProbeRsaVerifyUs(st->keys->public_key(), st->memo.front(), 50),
              "us");
    layer.Set("crypto.rsa_sign_ms", ProbeRsaSignMs(*st->keys, 5), "ms");
    layer.Set("merkle.level_rehash_us", ProbeMerkleLevelUs(28867, 9), "us");
    layer.Set("graph.search_ms.p50",
              ProbeGraphSearchMs(*st->graph, std::span(st->pool).first(300)),
              "ms");
  }

  // Byte-equality gate: a fixed query subset served over the socket hashes
  // to the same answers_sha1 as the in-process twin.
  SearchWorkspace ws;
  VerifyWorkspace vws;
  WireVerification verified;
  Hasher served(HashAlgorithm::kSha1), local(HashAlgorithm::kSha1);
  const size_t subset = opt.tiny ? 16 : 64;
  for (size_t i = 0; i < subset; ++i) {
    out->attempted++;
    auto bytes = FetchAnswer(st.get(), st->pool[i].query);
    auto bundle = twin.value()->Answer(st->pool[i].query, ws);
    if (!bytes.ok() || !bundle.ok()) {
      out->failed++;
      out->Fail("byte-equality fetch failed");
      continue;
    }
    VerifyWireAnswer(st->keys->public_key(), st->pool[i].query, bytes.value(),
                     vws, &verified);
    if (!AnswerIsRight(st->pool[i], verified)) {
      out->failed++;
      out->Fail("byte-equality subset answer failed verification");
    }
    served.Update(bytes.value().data(), bytes.value().size());
    local.Update(bundle.value().bytes.data(), bundle.value().bytes.size());
  }
  const std::string served_hex = served.Finish().ToHex();
  if (served_hex != local.Finish().ToHex()) {
    out->Fail("served answers differ from the in-process engine's");
  }
  std::printf("# answers_sha1 %s\n", served_hex.c_str());
  st->server->Stop();
}

}  // namespace perfbench
