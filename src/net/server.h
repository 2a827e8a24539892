// SpauthServer — the networked provider: a ShardedEngine behind a TCP
// listener speaking the length-prefixed wire protocol (net/wire_protocol.h)
// over a single-threaded epoll event loop.
//
// Architecture:
//
//   epoll loop (1 thread)          worker pool (ThreadPool)
//   ---------------------          -----------------------
//   accept / read / frame   --->   per-connection query batches through
//   decode / write / close  <---   ShardedEngine::AnswerBatch; results
//        ^ eventfd wakeup          posted to a completion queue
//
// The loop owns every connection outright (no per-connection locks): reads
// feed an incremental FrameDecoder, decoded queries accumulate per
// connection, and at most ONE batch per connection is in flight on the
// worker pool at a time — queries that arrive while a batch runs coalesce
// into the next batch, so a fast client gets natural request coalescing
// and a slow one never monopolizes workers. Workers never touch sockets;
// they post completions and ring the loop's eventfd.
//
// Zero-copy serving: an OK answer is queued as two chunks — a ~21-byte
// owned prelude (frame header + request metadata) and the shared
// ProofBundle pointer itself. write(2) transmits straight from the
// bundle's cache-resident bytes; an LRU hit travels cache slot → socket
// with zero proof-byte copies. ServerStats::proof_bytes_copied exists to
// keep that claim honest: any future code path that stages proof bytes
// into an owned buffer must account there, and the e2e test pins it at 0.
//
// Backpressure: per-connection write queues are bounded by watermarks.
// Above the high watermark the loop stops reading from that connection
// (EPOLLIN off) so a slow consumer stalls only itself; reading resumes
// below the low watermark. Buffers never grow with the number of unread
// responses a dead client refuses to drain.
//
// Fail points (util/failpoint.h): net/accept refuses fresh connections,
// net/read caps one read at a single byte (short-read storm), net/write
// tears a queued write and kills the connection, net/conn_kill closes a
// connection outright on readiness — all arg-filtered by connection id.
#ifndef SPAUTH_NET_SERVER_H_
#define SPAUTH_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "core/sharded_engine.h"
#include "crypto/rsa.h"
#include "net/wire_protocol.h"
#include "util/stat_fields.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace spauth {

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; read it back with port() after Start().
  uint16_t port = 0;
  /// Worker threads serving query batches (>= 1).
  size_t worker_threads = 2;
  /// Threads each ShardedEngine::AnswerBatch call may use.
  size_t batch_threads = 1;
  size_t max_frame_payload = kDefaultMaxFramePayload;
  /// Write-queue backpressure watermarks (bytes, per connection).
  size_t write_high_watermark = 4u << 20;
  size_t write_low_watermark = 512u << 10;
  /// Bytes per read(2) call (the net/read fail point caps this at 1).
  size_t read_chunk_bytes = 64u << 10;
  int listen_backlog = 128;
};

/// Cumulative serving-plane counters (all monotone).
struct ServerStats {
  uint64_t conns_accepted = 0;
  uint64_t conns_closed = 0;   // orderly close (EOF, malformed, shutdown)
  uint64_t conns_refused = 0;  // net/accept fail point
  uint64_t conns_killed = 0;   // net/conn_kill + net/write fail points
  uint64_t frames_received = 0;
  uint64_t frames_malformed = 0;
  uint64_t queries_received = 0;
  uint64_t answers_ok = 0;
  uint64_t answers_error = 0;
  uint64_t batches_dispatched = 0;
  uint64_t proof_bytes_sent = 0;    // proof payload bytes written to sockets
  uint64_t proof_bytes_copied = 0;  // proof bytes staged through an owned
                                    // buffer — 0 by design (see header);
                                    // forest tails are per-answer bytes,
                                    // never booked here
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  uint64_t backpressure_stalls = 0;  // times a connection's reads paused
  uint64_t forest_paths_sent = 0;    // v2 answers carrying a forest path
  uint64_t forest_certs_sent = 0;    // inline forest certs (epoch changes)

  /// The kStats export and the tools' JSON stats line walk this list; its
  /// order is the kStats wire order.
  static constexpr auto kFields = std::tuple{
      StatSum("conns_accepted", &ServerStats::conns_accepted),
      StatSum("conns_closed", &ServerStats::conns_closed),
      StatSum("conns_refused", &ServerStats::conns_refused),
      StatSum("conns_killed", &ServerStats::conns_killed),
      StatSum("frames_received", &ServerStats::frames_received),
      StatSum("frames_malformed", &ServerStats::frames_malformed),
      StatSum("queries_received", &ServerStats::queries_received),
      StatSum("answers_ok", &ServerStats::answers_ok),
      StatSum("answers_error", &ServerStats::answers_error),
      StatSum("batches_dispatched", &ServerStats::batches_dispatched),
      StatSum("proof_bytes_sent", &ServerStats::proof_bytes_sent),
      StatSum("proof_bytes_copied", &ServerStats::proof_bytes_copied),
      StatSum("bytes_read", &ServerStats::bytes_read),
      StatSum("bytes_written", &ServerStats::bytes_written),
      StatSum("backpressure_stalls", &ServerStats::backpressure_stalls),
      StatSum("forest_paths_sent", &ServerStats::forest_paths_sent),
      StatSum("forest_certs_sent", &ServerStats::forest_certs_sent),
  };
};

class SpauthServer {
 public:
  /// Serves `engine` (borrowed; must outlive the server). `owner_key` is
  /// the data owner's public key advertised in the handshake — clients
  /// compare it against their out-of-band trusted key.
  SpauthServer(const ShardedEngine* engine, RsaPublicKey owner_key,
               ServerOptions options = {});
  ~SpauthServer();

  SpauthServer(const SpauthServer&) = delete;
  SpauthServer& operator=(const SpauthServer&) = delete;

  /// Binds, listens and starts the event loop + worker pool.
  /// FailedPrecondition when already started.
  Status Start();
  /// Stops the loop, joins workers, closes every connection. Idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  /// The bound port (the real one when options.port was 0). 0 before Start.
  uint16_t port() const { return port_; }

  ServerStats stats() const;

 private:
  struct Conn;
  struct Completion;

  void EventLoop();
  void AcceptNewConnections();
  /// All Handle/Flush helpers run on the loop thread only.
  void HandleReadable(Conn* conn);
  /// Decodes and acts on every complete frame; false when the connection
  /// was closed (malformed stream or protocol violation).
  bool DrainFrames(Conn* conn);
  void MaybeDispatch(Conn* conn);
  void DrainCompletions();
  /// Writes queued chunks until EAGAIN or empty; false when the connection
  /// was closed (write error or torn-write fail point).
  bool FlushWrites(Conn* conn);
  void EnqueueOwned(Conn* conn, std::vector<uint8_t> bytes);
  void EnqueueBundle(Conn* conn, std::shared_ptr<const ProofBundle> bundle);
  void ApplyBackpressure(Conn* conn);
  void UpdateInterest(Conn* conn);
  void CloseConn(uint64_t conn_id, uint64_t* counter);
  void WakeLoop();

  ServerInfoMsg MakeServerInfo(uint32_t negotiated_version) const;
  WireStats SnapshotWireStats() const;

  const ShardedEngine* engine_;
  RsaPublicKey owner_key_;
  ServerOptions options_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  uint16_t port_ = 0;
  std::thread loop_;
  std::unique_ptr<ThreadPool> pool_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  bool started_ = false;

  // Connections are keyed by a monotone id (never a reused fd) so a
  // completion for a connection that died mid-batch is dropped instead of
  // delivered to an unrelated client on the recycled descriptor.
  std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns_;
  uint64_t next_conn_id_ = 2;  // 0 = listener, 1 = eventfd

  std::mutex completions_mu_;
  std::vector<Completion> completions_;

  // Live counters, written only through StatAdd (relaxed atomic_ref) by
  // the loop thread and the workers; stats() takes a relaxed snapshot.
  mutable ServerStats counters_;
};

}  // namespace spauth

#endif  // SPAUTH_NET_SERVER_H_
