// End-to-end over a real socket: the networked tier must serve answers
// byte-equivalent to direct engine serving, stream cached proofs with zero
// copies, pipeline batches, keep the client's freshness watermark across
// reconnects (rejecting a stale-replay "failover"), refuse a server with
// the wrong owner key or hostile bytes, and never surface an unverifiable
// answer under injected connection faults.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "core/sharded_engine.h"
#include "graph/generator.h"
#include "net/client.h"
#include "net/server.h"
#include "util/failpoint.h"
#include "util/rng.h"

namespace spauth {
namespace {

/// Shared per-process fixture: one small road network and one owner key
/// pair (RSA keygen dominates setup cost).
struct NetTestContext {
  Graph graph;
  std::unique_ptr<RsaKeyPair> keys;

  static const NetTestContext& Get() {
    static NetTestContext* ctx = [] {
      auto* c = new NetTestContext();
      RoadNetworkOptions options;
      options.num_nodes = 300;
      options.seed = 5;
      auto g = GenerateRoadNetwork(options);
      EXPECT_TRUE(g.ok());
      c->graph = std::move(g).value();
      Rng rng(99);
      auto keys = RsaKeyPair::Generate(512, &rng);
      EXPECT_TRUE(keys.ok());
      c->keys = std::make_unique<RsaKeyPair>(std::move(keys).value());
      return c;
    }();
    return *ctx;
  }
};

std::unique_ptr<ShardedEngine> MakeEngine(size_t groups, bool cache = true) {
  const auto& ctx = NetTestContext::Get();
  EngineOptions options;
  options.method = MethodKind::kDij;
  options.enable_proof_cache = cache;
  auto engine =
      ShardedEngine::BuildReplicated(ctx.graph, options, groups, *ctx.keys);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return std::move(engine).value();
}

NetClientOptions ClientOptions(uint16_t port) {
  NetClientOptions options;
  options.port = port;
  options.backoff_base_us = 1000;
  options.io_timeout_ms = 5000;
  return options;
}

Query RandomQuery(Rng& rng, uint32_t num_nodes) {
  Query q;
  q.source = static_cast<NodeId>(rng.NextU64() % num_nodes);
  do {
    q.target = static_cast<NodeId>(rng.NextU64() % num_nodes);
  } while (q.target == q.source);  // s==t is InvalidArgument by contract
  return q;
}

struct UndirectedEdgeInfo {
  NodeId u;
  NodeId v;
  double weight;
};

UndirectedEdgeInfo AnyEdge(const Graph& g) {
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    for (const Edge& e : g.Neighbors(n)) {
      return {n, e.to, e.weight};
    }
  }
  return {0, 0, 0};
}

// ---------------------------------------------------------------------------
// Serving equivalence
// ---------------------------------------------------------------------------

TEST(NetE2eTest, EndToEndMatchesDirectServing) {
  const auto& ctx = NetTestContext::Get();
  auto engine = MakeEngine(2);
  SpauthServer server(engine.get(), ctx.keys->public_key());
  ASSERT_TRUE(server.Start().ok());

  NetClient client(ctx.keys->public_key(), ClientOptions(server.port()));
  ASSERT_TRUE(client.Connect().ok());
  EXPECT_EQ(client.server_info().num_nodes, ctx.graph.num_nodes());
  EXPECT_EQ(client.server_info().num_groups, 2u);
  EXPECT_EQ(client.server_info().method, MethodKind::kDij);

  Rng rng(1);
  for (int i = 0; i < 20; ++i) {
    const Query q = RandomQuery(rng, ctx.graph.num_nodes());
    auto via_net = client.Query(q);
    ASSERT_TRUE(via_net.ok()) << via_net.status().ToString();
    EXPECT_TRUE(via_net.value().outcome.accepted)
        << via_net.value().outcome.ToString();

    auto direct = engine->Answer(q);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(via_net.value().distance, direct.value()->distance);
    EXPECT_EQ(via_net.value().path, direct.value()->path);
  }
  // The watermark tracks the served certificate version (the seed build
  // signs version 0; updates bump it).
  EXPECT_EQ(client.ShardVersionWatermark(0),
            client.server_info().certificate_version);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.answers_ok, 20u);
  EXPECT_EQ(stats.answers_error, 0u);
  EXPECT_EQ(stats.frames_malformed, 0u);
}

// The tentpole's zero-copy claim, pinned by byte accounting: a repeated
// query is served from the proof-cache LRU slot straight to the socket —
// proof bytes hit the wire, and not one of them passes through an owned
// staging buffer.
TEST(NetE2eTest, CachedAnswersStreamWithZeroProofByteCopies) {
  const auto& ctx = NetTestContext::Get();
  auto engine = MakeEngine(1, /*cache=*/true);
  SpauthServer server(engine.get(), ctx.keys->public_key());
  ASSERT_TRUE(server.Start().ok());

  const Query q{5, 200};
  // Warm the cache through the direct path so both networked serves below
  // are LRU hits.
  auto warmed = engine->Answer(q);
  ASSERT_TRUE(warmed.ok());
  const size_t proof_size = warmed.value()->bytes.size();

  NetClient client(ctx.keys->public_key(), ClientOptions(server.port()));
  ASSERT_TRUE(client.Connect().ok());
  for (int i = 0; i < 2; ++i) {
    auto r = client.Query(q);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.value().outcome.accepted);
  }

  // The event loop books proof_bytes_sent after write() returns, so the
  // client can hold (and verify) the second answer before it is counted;
  // stopping the server joins the loop and settles the books.
  server.Stop();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.proof_bytes_copied, 0u);
  EXPECT_EQ(stats.proof_bytes_sent, 2 * proof_size);
  EXPECT_GE(engine->GetStats().totals.cache.hits, 2u);
}

// The kStats probe exports every ServerStats counter by name, in
// declaration order, with the server's own values. The names are written
// out here, not taken from the field list that produces them.
TEST(NetE2eTest, StatsProbeExportsEveryServerCounterInOrder) {
  const auto& ctx = NetTestContext::Get();
  auto engine = MakeEngine(2);
  SpauthServer server(engine.get(), ctx.keys->public_key());
  ASSERT_TRUE(server.Start().ok());

  NetClient client(ctx.keys->public_key(), ClientOptions(server.port()));
  ASSERT_TRUE(client.Connect().ok());
  Rng rng(3);
  for (int i = 0; i < 5; ++i) {
    auto r = client.Query(RandomQuery(rng, ctx.graph.num_nodes()));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  auto fetched = client.FetchServerStats();
  ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
  // Stop before the client disconnects, so no close is booked after the
  // probe; the only counter that moves after the snapshot is bytes_written,
  // by the kStats reply itself.
  server.Stop();
  ServerStats s = server.stats();
  s.bytes_written -= EncodeStatsFrame(fetched.value()).size();

  const WireStats expected = {
      {"conns_accepted", s.conns_accepted},
      {"conns_closed", s.conns_closed},
      {"conns_refused", s.conns_refused},
      {"conns_killed", s.conns_killed},
      {"frames_received", s.frames_received},
      {"frames_malformed", s.frames_malformed},
      {"queries_received", s.queries_received},
      {"answers_ok", s.answers_ok},
      {"answers_error", s.answers_error},
      {"batches_dispatched", s.batches_dispatched},
      {"proof_bytes_sent", s.proof_bytes_sent},
      {"proof_bytes_copied", s.proof_bytes_copied},
      {"bytes_read", s.bytes_read},
      {"bytes_written", s.bytes_written},
      {"backpressure_stalls", s.backpressure_stalls},
      {"forest_paths_sent", s.forest_paths_sent},
      {"forest_certs_sent", s.forest_certs_sent},
  };
  EXPECT_EQ(fetched.value(), expected);
  EXPECT_EQ(s.answers_ok, 5u);
  EXPECT_EQ(s.queries_received, 5u);
}

TEST(NetE2eTest, PipelinedBatchCoalescesIntoServerBatches) {
  const auto& ctx = NetTestContext::Get();
  auto engine = MakeEngine(2);
  SpauthServer server(engine.get(), ctx.keys->public_key());
  ASSERT_TRUE(server.Start().ok());

  NetClient client(ctx.keys->public_key(), ClientOptions(server.port()));
  ASSERT_TRUE(client.Connect().ok());

  Rng rng(2);
  std::vector<Query> queries;
  for (int i = 0; i < 32; ++i) {
    queries.push_back(RandomQuery(rng, ctx.graph.num_nodes()));
  }
  auto results = client.QueryBatch(queries);
  ASSERT_EQ(results.size(), queries.size());
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
    EXPECT_TRUE(results[i].value().outcome.accepted);
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.queries_received, 32u);
  EXPECT_EQ(stats.answers_ok, 32u);
  // Pipelining must coalesce: far fewer dispatches than queries.
  EXPECT_GE(stats.batches_dispatched, 1u);
  EXPECT_LT(stats.batches_dispatched, 32u);
}

// ---------------------------------------------------------------------------
// Freshness across reconnects
// ---------------------------------------------------------------------------

TEST(NetE2eTest, WatermarkSurvivesReconnectAndRejectsStaleReplayServer) {
  const auto& ctx = NetTestContext::Get();
  auto engine = MakeEngine(1);
  SpauthServer server(engine.get(), ctx.keys->public_key());
  ASSERT_TRUE(server.Start().ok());

  NetClient client(ctx.keys->public_key(), ClientOptions(server.port()));
  ASSERT_TRUE(client.Connect().ok());

  const Query q{3, 77};
  auto first = client.Query(q);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first.value().outcome.accepted);
  const uint32_t w1 = client.ShardVersionWatermark(0);
  EXPECT_EQ(w1, client.server_info().certificate_version);

  // Owner update bumps the certificate version fleet-wide.
  const UndirectedEdgeInfo e = AnyEdge(ctx.graph);
  const StructuralUpdate update =
      StructuralUpdate::SetWeight(e.u, e.v, e.weight * 1.5);
  ASSERT_TRUE(engine->ApplyUpdatesAllShards(*ctx.keys, {&update, 1}).ok());
  auto second = client.Query(q);
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(second.value().outcome.accepted);
  const uint32_t w2 = client.ShardVersionWatermark(0);
  EXPECT_EQ(w2, w1 + 1);

  // Reconnect: the watermark is client state, not connection state.
  client.Disconnect();
  ASSERT_TRUE(client.Connect().ok());
  EXPECT_EQ(client.ShardVersionWatermark(0), w2);
  auto after = client.Query(q);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after.value().outcome.accepted);

  // "Failover" to a stale replica: a fresh engine over the same certified
  // network still signs the pre-update version. Authentic — but older than
  // the watermark, so every answer must be rejected as stale.
  auto stale_engine = MakeEngine(1);
  SpauthServer stale_server(stale_engine.get(), ctx.keys->public_key());
  ASSERT_TRUE(stale_server.Start().ok());
  client.SetEndpoint("127.0.0.1", stale_server.port());
  ASSERT_TRUE(client.Connect().ok());
  EXPECT_EQ(client.ShardVersionWatermark(0), w2);
  auto replayed = client.Query(q);
  ASSERT_TRUE(replayed.ok());
  EXPECT_FALSE(replayed.value().outcome.accepted);
  EXPECT_EQ(replayed.value().outcome.failure,
            VerifyFailure::kStaleCertificate);
}

// ---------------------------------------------------------------------------
// Trust refusals
// ---------------------------------------------------------------------------

TEST(NetE2eTest, ServerWithWrongOwnerKeyIsRefused) {
  const auto& ctx = NetTestContext::Get();
  auto engine = MakeEngine(1);
  SpauthServer server(engine.get(), ctx.keys->public_key());
  ASSERT_TRUE(server.Start().ok());

  Rng rng(1234);
  auto other = RsaKeyPair::Generate(512, &rng);
  ASSERT_TRUE(other.ok());
  NetClient client(other.value().public_key(), ClientOptions(server.port()));
  Status connected = client.Connect();
  EXPECT_FALSE(connected.ok());
  EXPECT_EQ(connected.code(), StatusCode::kVerificationFailed);
  EXPECT_FALSE(client.connected());
}

// A hostile peer that answers the handshake with garbage: the client must
// refuse with kMalformed — no crash, no acceptance.
TEST(NetE2eTest, GarbageHandshakeBytesAreRefused) {
  int listen_fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listen_fd, 1), 0);
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len);
  const uint16_t port = ntohs(addr.sin_port);

  std::thread hostile([listen_fd]() {
    int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      return;
    }
    uint8_t sink[64];
    (void)::read(fd, sink, sizeof(sink));  // swallow the hello
    const char garbage[] = "THIS IS NOT A SPAUTH FRAME AT ALL............";
    (void)::write(fd, garbage, sizeof(garbage));
    ::close(fd);
  });

  const auto& ctx = NetTestContext::Get();
  NetClientOptions options = ClientOptions(port);
  options.connect_attempts = 1;
  NetClient client(ctx.keys->public_key(), options);
  Status connected = client.Connect();
  EXPECT_FALSE(connected.ok());
  EXPECT_EQ(connected.code(), StatusCode::kMalformed);
  EXPECT_FALSE(client.connected());
  EXPECT_GE(client.stats().frames_refused, 1u);

  hostile.join();
  ::close(listen_fd);
}

// A server that handshakes correctly (right key!) but disconnects mid-proof
// on the answer: the truncated answer must surface as a transport error —
// never as an accepted verification.
TEST(NetE2eTest, MidProofDisconnectNeverYieldsAnAcceptedAnswer) {
  const auto& ctx = NetTestContext::Get();

  int listen_fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listen_fd, 1), 0);
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len);
  const uint16_t port = ntohs(addr.sin_port);

  ServerInfoMsg info;
  info.method = MethodKind::kDij;
  info.num_nodes = 100;
  info.num_groups = 1;
  info.certificate_version = 1;
  info.owner_key = ctx.keys->public_key();
  const auto info_frame = EncodeServerInfoFrame(info);

  std::thread truncator([listen_fd, info_frame]() {
    int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      return;
    }
    uint8_t sink[64];
    (void)::read(fd, sink, sizeof(sink));  // hello
    (void)::write(fd, info_frame.data(), info_frame.size());
    (void)::read(fd, sink, sizeof(sink));  // query
    // Declare a 1000-byte proof, deliver 10 bytes, vanish.
    auto prelude = EncodeAnswerFramePrelude(/*request_id=*/1, /*shard=*/0,
                                            /*proof_size=*/1000);
    (void)::write(fd, prelude.data(), prelude.size());
    uint8_t junk[10] = {9, 9, 9, 9, 9, 9, 9, 9, 9, 9};
    (void)::write(fd, junk, sizeof(junk));
    ::close(fd);
  });

  NetClientOptions options = ClientOptions(port);
  options.connect_attempts = 1;
  NetClient client(ctx.keys->public_key(), options);
  ASSERT_TRUE(client.Connect().ok());
  auto r = client.Query(Query{1, 2});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(client.stats().answers_accepted, 0u);
  EXPECT_FALSE(client.connected());

  truncator.join();
  ::close(listen_fd);
}

// ---------------------------------------------------------------------------
// Fault injection on the network seams
// ---------------------------------------------------------------------------

TEST(NetE2eTest, ConnectionKillFaultsSurfaceAsErrorsNeverFalseAccepts) {
  if (!FailPointsCompiledIn()) {
    GTEST_SKIP() << "failpoints compiled out";
  }
  const auto& ctx = NetTestContext::Get();
  auto engine = MakeEngine(2);
  SpauthServer server(engine.get(), ctx.keys->public_key());
  ASSERT_TRUE(server.Start().ok());

  NetClientOptions options = ClientOptions(server.port());
  options.connect_attempts = 5;
  NetClient client(ctx.keys->public_key(), options);

  size_t accepted = 0;
  size_t errors = 0;
  {
    FailPointSpec spec;
    spec.mode = FailPointMode::kProbability;
    spec.probability = 0.2;
    spec.seed = 99;
    ScopedFailPoint kill("net/conn_kill", spec);
    Rng rng(3);
    for (int i = 0; i < 60; ++i) {
      const Query q = RandomQuery(rng, ctx.graph.num_nodes());
      auto r = client.Query(q);
      if (!r.ok()) {
        // Transport-level failure: retryable, and no answer escaped.
        EXPECT_TRUE(IsRetryable(r.status().code()) ||
                    r.status().code() == StatusCode::kMalformed)
            << r.status().ToString();
        ++errors;
        continue;
      }
      // Every answer that DID complete the exchange must verify.
      EXPECT_TRUE(r.value().outcome.accepted)
          << r.value().outcome.ToString();
      if (r.value().outcome.accepted) {
        EXPECT_EQ(r.value().path.source(), q.source);
        EXPECT_EQ(r.value().path.target(), q.target);
        ++accepted;
      }
    }
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(errors, 0u);  // p=0.2 over ~hundreds of readiness events
  EXPECT_GE(server.stats().conns_killed, 1u);

  // Disarmed: the plane heals and serves normally again.
  auto r = client.Query(Query{1, 2});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r.value().outcome.accepted);
}

// net/read caps every server-side read at one byte: the frame decoder must
// reassemble the query from a 25-read trickle and serving must be
// unaffected (this drives the incremental decode path over a real socket).
TEST(NetE2eTest, ShortReadStormStillServesVerifiedAnswers) {
  if (!FailPointsCompiledIn()) {
    GTEST_SKIP() << "failpoints compiled out";
  }
  const auto& ctx = NetTestContext::Get();
  auto engine = MakeEngine(1);
  SpauthServer server(engine.get(), ctx.keys->public_key());
  ASSERT_TRUE(server.Start().ok());

  NetClient client(ctx.keys->public_key(), ClientOptions(server.port()));
  ASSERT_TRUE(client.Connect().ok());

  FailPointSpec spec;
  spec.mode = FailPointMode::kProbability;
  spec.probability = 1.0;
  ScopedFailPoint storm("net/read", spec);
  for (int i = 0; i < 3; ++i) {
    auto r = client.Query(Query{7, 33});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r.value().outcome.accepted);
  }
  EXPECT_EQ(server.stats().frames_malformed, 0u);
}

// Torn-write fault: the server writes a prefix of a queued answer and
// kills the connection. The client's decoder must refuse the stump (as a
// disconnect mid-frame), and a reconnect must serve cleanly.
TEST(NetE2eTest, TornWriteFaultIsRefusedAndRecoverable) {
  if (!FailPointsCompiledIn()) {
    GTEST_SKIP() << "failpoints compiled out";
  }
  const auto& ctx = NetTestContext::Get();
  auto engine = MakeEngine(1);
  SpauthServer server(engine.get(), ctx.keys->public_key());
  ASSERT_TRUE(server.Start().ok());

  NetClientOptions options = ClientOptions(server.port());
  options.connect_attempts = 3;
  NetClient client(ctx.keys->public_key(), options);
  ASSERT_TRUE(client.Connect().ok());

  {
    FailPointRegistry::Global().ArmOneShot("net/write");
    auto r = client.Query(Query{9, 120});
    FailPointRegistry::Global().Disarm("net/write");
    // The serverinfo/answer write was torn: transport error, no accept.
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(client.stats().answers_accepted, 0u);
  }
  auto healed = client.Query(Query{9, 120});
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
  EXPECT_TRUE(healed.value().outcome.accepted);
  EXPECT_GE(server.stats().conns_killed, 1u);
}

// ---------------------------------------------------------------------------
// Forest mode over the wire (protocol v2)
// ---------------------------------------------------------------------------

// The amortization contract end to end: the handshake carries the forest
// certificate (ONE RSA verify), every answer carries a forest path and
// verifies hash-only, the zero-copy pin holds with tails attached, and a
// mid-connection fleet rotation re-anchors the epoch through an inline
// certificate without a reconnect.
TEST(NetE2eTest, ForestModeAmortizesToOneRsaVerifyPerEpoch) {
  const auto& ctx = NetTestContext::Get();
  auto engine = MakeEngine(3, /*cache=*/true);
  ASSERT_TRUE(engine->EnableForestCertificates(*ctx.keys).ok());
  SpauthServer server(engine.get(), ctx.keys->public_key());
  ASSERT_TRUE(server.Start().ok());

  NetClient client(ctx.keys->public_key(), ClientOptions(server.port()));
  ASSERT_TRUE(client.Connect().ok());
  EXPECT_TRUE(client.forest_mode());
  EXPECT_EQ(client.FleetEpochWatermark(), 1u);
  EXPECT_EQ(client.stats().forest_certs_accepted, 1u);

  // Steady state: every answer authenticates through its path — no RSA.
  Rng rng(31);
  const uint64_t verifies_before = RsaVerifyOps();
  for (int i = 0; i < 6; ++i) {
    auto r = client.Query(RandomQuery(rng, ctx.graph.num_nodes()));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r.value().outcome.accepted) << r.value().outcome.ToString();
  }
  EXPECT_EQ(RsaVerifyOps(), verifies_before)
      << "per-answer verification must be hash-only in forest mode";
  EXPECT_EQ(client.stats().forest_answers, 6u);

  // The zero-copy pin holds with forest tails attached: path bytes are
  // owned per-answer bytes, proof bytes still stream from the cache slot.
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.proof_bytes_copied, 0u);
  EXPECT_EQ(stats.forest_paths_sent, 6u);

  // Fleet rotation mid-connection: ONE signature fleet-wide, and the next
  // answer re-anchors the client to epoch 2 through the inline
  // certificate — one more RSA verify, no reconnect.
  const UndirectedEdgeInfo e = AnyEdge(ctx.graph);
  const StructuralUpdate update =
      StructuralUpdate::SetWeight(e.u, e.v, e.weight * 1.25);
  const uint64_t signs_before = RsaSignOps();
  ASSERT_TRUE(engine->ApplyUpdatesAllShards(*ctx.keys, {&update, 1}).ok());
  EXPECT_EQ(RsaSignOps() - signs_before, 1u);
  auto after = client.Query(RandomQuery(rng, ctx.graph.num_nodes()));
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after.value().outcome.accepted) << after.value().outcome.ToString();
  EXPECT_EQ(client.FleetEpochWatermark(), 2u);
  EXPECT_EQ(client.stats().forest_certs_accepted, 2u);
  EXPECT_GE(server.stats().forest_certs_sent, 2u);  // handshake + inline

  // Reconnect: the epoch watermark is client state. Re-accepting epoch
  // 2's certificate on the new handshake is the free idempotent path.
  client.Disconnect();
  ASSERT_TRUE(client.Connect().ok());
  EXPECT_EQ(client.FleetEpochWatermark(), 2u);
  auto again = client.Query(RandomQuery(rng, ctx.graph.num_nodes()));
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again.value().outcome.accepted);
}

// Anti-rollback: once a session has seen forest mode, an endpoint that
// stops presenting a forest certificate is refused — a provider must not
// be able to downgrade a client to trusting bare per-shard signatures.
TEST(NetE2eTest, ForestDowngradeAcrossReconnectIsRefused) {
  const auto& ctx = NetTestContext::Get();
  auto forest_engine = MakeEngine(2);
  ASSERT_TRUE(forest_engine->EnableForestCertificates(*ctx.keys).ok());
  SpauthServer forest_server(forest_engine.get(), ctx.keys->public_key());
  ASSERT_TRUE(forest_server.Start().ok());

  auto legacy_engine = MakeEngine(2);
  SpauthServer legacy_server(legacy_engine.get(), ctx.keys->public_key());
  ASSERT_TRUE(legacy_server.Start().ok());

  NetClientOptions options = ClientOptions(forest_server.port());
  options.connect_attempts = 1;
  NetClient client(ctx.keys->public_key(), options);
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(client.forest_mode());

  // "Failover" to an endpoint that presents no forest: refused outright.
  client.SetEndpoint("127.0.0.1", legacy_server.port());
  EXPECT_FALSE(client.Connect().ok());

  // Back to the forest endpoint: the session recovers.
  client.SetEndpoint("127.0.0.1", forest_server.port());
  ASSERT_TRUE(client.Connect().ok());
  auto r = client.Query(Query{3, 140});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().outcome.accepted);
}

// A client that never saw forest mode talks to a forest server exactly as
// before when it only speaks v1 — interop is the server's job. (The
// NetClient always speaks v2; this pins the other side: a v2 client
// against a legacy engine with no forest enabled.)
TEST(NetE2eTest, NonForestServingStaysV1Compatible) {
  const auto& ctx = NetTestContext::Get();
  auto engine = MakeEngine(2);
  SpauthServer server(engine.get(), ctx.keys->public_key());
  ASSERT_TRUE(server.Start().ok());

  NetClient client(ctx.keys->public_key(), ClientOptions(server.port()));
  ASSERT_TRUE(client.Connect().ok());
  EXPECT_FALSE(client.forest_mode());
  EXPECT_EQ(client.FleetEpochWatermark(), 0u);
  auto r = client.Query(Query{9, 201});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().outcome.accepted);
  EXPECT_EQ(client.stats().forest_answers, 0u);
  EXPECT_EQ(server.stats().forest_paths_sent, 0u);
}

}  // namespace
}  // namespace spauth
