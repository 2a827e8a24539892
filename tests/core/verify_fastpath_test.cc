// The verification fast path: one VerifyWorkspace reused across a message
// stream must produce byte-for-byte the same results as the throwaway-
// workspace wrappers — on honest answers, on every tamper kind, and on
// arbitrarily truncated wire bytes (which must never crash).
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <vector>

#include "adversary/tamper.h"
#include "core/client.h"
#include "core/core_test_context.h"
#include "core/engine.h"
#include "core/verify_workspace.h"

namespace spauth {
namespace {

using testing::CoreTestContext;
using testing::ExpectBatchMatchesSerial;
using testing::OneSetWeight;

class VerifyFastPathTest : public ::testing::TestWithParam<MethodKind> {};

TEST_P(VerifyFastPathTest, ReusedWorkspaceMatchesFreshOnHonestAnswers) {
  const auto& ctx = CoreTestContext::Get();
  auto engine = ctx.MakeMethodEngine(GetParam());
  VerifyWorkspace ws;
  WireVerification reused;
  for (const Query& q : ctx.queries) {
    auto bundle = engine->Answer(q);
    ASSERT_TRUE(bundle.ok());
    WireVerification fresh =
        VerifyWireAnswer(ctx.keys.public_key(), q, bundle.value().bytes);
    VerifyWireAnswer(ctx.keys.public_key(), q, bundle.value().bytes, ws,
                     &reused);
    EXPECT_TRUE(reused.outcome.accepted) << reused.outcome.ToString();
    EXPECT_EQ(reused.outcome.accepted, fresh.outcome.accepted);
    EXPECT_EQ(reused.outcome.failure, fresh.outcome.failure);
    EXPECT_EQ(reused.method, fresh.method);
    EXPECT_EQ(reused.path, fresh.path);
    EXPECT_EQ(reused.distance, fresh.distance);
  }
}

TEST_P(VerifyFastPathTest, ReusedWorkspaceMatchesFreshOnTamperedAnswers) {
  const auto& ctx = CoreTestContext::Get();
  auto engine = ctx.MakeMethodEngine(GetParam());
  VerifyWorkspace ws;
  for (TamperKind tamper : kAllTamperKinds) {
    for (const Query& q : ctx.queries) {
      auto forged = TamperedAnswer(*engine, q, tamper);
      if (!forged.ok()) {
        continue;  // attack inapplicable or no opportunity on this query
      }
      VerifyOutcome fresh = engine->Verify(q, forged.value());
      VerifyOutcome reused = engine->Verify(q, forged.value(), ws);
      EXPECT_EQ(reused.accepted, fresh.accepted)
          << ToString(tamper) << ": " << reused.ToString() << " vs "
          << fresh.ToString();
      EXPECT_EQ(reused.failure, fresh.failure) << ToString(tamper);
      EXPECT_FALSE(reused.accepted) << ToString(tamper);
    }
  }
}

TEST(VerifyFastPathSharedTest, InterleavedMethodsShareOneWorkspace) {
  // A client workspace is method-agnostic: stale state from one method's
  // decode must never leak into the next method's verification.
  const auto& ctx = CoreTestContext::Get();
  std::vector<std::unique_ptr<MethodEngine>> engines;
  for (MethodKind method : kAllMethods) {
    engines.push_back(ctx.MakeMethodEngine(method));
  }
  VerifyWorkspace ws;
  WireVerification result;
  for (const Query& q : ctx.queries) {
    for (const auto& engine : engines) {
      auto bundle = engine->Answer(q);
      ASSERT_TRUE(bundle.ok());
      VerifyWireAnswer(ctx.keys.public_key(), q, bundle.value().bytes, ws,
                       &result);
      EXPECT_TRUE(result.outcome.accepted)
          << engine->name() << ": " << result.outcome.ToString();
      EXPECT_EQ(result.method, engine->kind());
    }
  }
}

// An engine vouches for its own method only: an honest bundle from each
// of the other three methods must reject as kBadCertificate, even though
// the wire verifier alone would accept it.
TEST(VerifyFastPathSharedTest, ForeignMethodBundlesRejectAsBadCertificate) {
  const auto& ctx = CoreTestContext::Get();
  std::vector<std::unique_ptr<MethodEngine>> engines;
  for (MethodKind method : kAllMethods) {
    engines.push_back(ctx.MakeMethodEngine(method));
  }
  const Query q = ctx.queries[0];
  size_t pairs = 0;
  for (const auto& verifier : engines) {
    for (const auto& provider : engines) {
      if (provider == verifier) {
        continue;
      }
      auto bundle = provider->Answer(q);
      ASSERT_TRUE(bundle.ok());
      ASSERT_TRUE(provider->Verify(q, bundle.value()).accepted);
      const VerifyOutcome outcome = verifier->Verify(q, bundle.value());
      EXPECT_FALSE(outcome.accepted)
          << provider->name() << " bundle on " << verifier->name();
      EXPECT_EQ(outcome.failure, VerifyFailure::kBadCertificate)
          << provider->name() << " bundle on " << verifier->name() << ": "
          << outcome.ToString();
      ++pairs;
    }
  }
  EXPECT_EQ(pairs, 12u);
}

// Satellite: every prefix of a valid wire message must yield an outcome-
// level rejection — never a crash, an acceptance, or an unbounded
// allocation (the decoders check claimed counts against remaining bytes
// up front). The workspace is reused across all prefixes to stress scratch
// reuse under malformed input.
TEST_P(VerifyFastPathTest, EveryTruncationPrefixRejected) {
  const auto& ctx = CoreTestContext::Get();
  auto engine = ctx.MakeMethodEngine(GetParam());
  const Query q = ctx.queries[0];
  auto bundle = engine->Answer(q);
  ASSERT_TRUE(bundle.ok());
  const std::vector<uint8_t>& bytes = bundle.value().bytes;
  VerifyWorkspace ws;
  WireVerification result;
  for (size_t len = 0; len < bytes.size(); ++len) {
    VerifyWireAnswer(ctx.keys.public_key(), q,
                     std::span<const uint8_t>(bytes.data(), len), ws,
                     &result);
    ASSERT_FALSE(result.outcome.accepted) << "prefix length " << len;
  }
  // The full message still verifies through the same (well-exercised)
  // workspace.
  VerifyWireAnswer(ctx.keys.public_key(), q, bytes, ws, &result);
  EXPECT_TRUE(result.outcome.accepted) << result.outcome.ToString();
}

INSTANTIATE_TEST_SUITE_P(AllMethods, VerifyFastPathTest,
                         ::testing::ValuesIn(kAllMethods),
                         [](const auto& info) {
                           return std::string(ToString(info.param));
                         });

TEST(ClientBatchTest, VerifyBatchMatchesSerialAcrossMethods) {
  const auto& ctx = CoreTestContext::Get();
  std::vector<std::vector<uint8_t>> storage;
  for (MethodKind method : kAllMethods) {
    auto engine = ctx.MakeMethodEngine(method);
    for (size_t i = 0; i < 3; ++i) {
      auto bundle = engine->Answer(ctx.queries[i]);
      ASSERT_TRUE(bundle.ok());
      storage.push_back(std::move(bundle.value().bytes));
    }
  }
  // Corrupt one message: the batch must reject exactly that slot.
  storage[5][storage[5].size() / 2] ^= 0x20;

  // Three certificate versions of one DIJ answer. Shard 3's watermark is
  // primed at v2 before every batch, so under a staleness bound of 1 the
  // v1 answer is a degraded accept and the v0 answer a stale rejection,
  // whatever order the workers take.
  const Query q = ctx.queries[0];
  std::vector<std::vector<uint8_t>> versions;
  auto dij = ctx.MakeMethodEngine(MethodKind::kDij);
  for (double scale : {1.0, 2.0, 3.0}) {
    if (scale != 1.0) {
      const Edge e = ctx.graph.Neighbors(q.source).front();
      ASSERT_TRUE(dij->ApplyUpdates(&ctx.keys, OneSetWeight(q.source, e.to,
                                                            e.weight * scale))
                      .ok());
    }
    auto bundle = dij->Answer(q);
    ASSERT_TRUE(bundle.ok());
    versions.push_back(std::move(bundle.value().bytes));
  }
  constexpr size_t kTrackedShards = 4;
  const auto make_client = [&] {
    Client client(ctx.keys.public_key());
    client.TrackShardVersions(kTrackedShards);
    client.SetStalenessBound(1);
    EXPECT_TRUE(client.Verify(q, versions[2], 3).outcome.accepted);
    return client;
  };

  std::vector<VerifyRequest> requests;
  for (size_t i = 0; i < storage.size(); ++i) {
    // Message i answers query i % 3; it is attributed to shard i % 3.
    requests.push_back({ctx.queries[i % 3], storage[i], i % 3});
  }
  const size_t honest = requests.size();
  requests.push_back({q, versions[1], 3});  // degraded accept
  requests.push_back({q, versions[0], 3});  // beyond the staleness bound
  // Attributed to a shard the client does not track: it would escape every
  // watermark, so it rejects like NetClient's out-of-range shard id.
  requests.push_back({q, versions[0], kTrackedShards});
  requests.push_back({q, {}, 0});                        // empty wire
  // A forest request before any forest was accepted never falls back to
  // the certificate's own signature.
  requests.push_back({q, versions[2], 0, storage[0]});
  const VerifyFailure extra_failures[] = {
      VerifyFailure::kNone, VerifyFailure::kStaleCertificate,
      VerifyFailure::kMalformedProof, VerifyFailure::kMalformedProof,
      VerifyFailure::kBadCertificate};

  for (size_t num_threads : {size_t{1}, size_t{3}, size_t{4}}) {
    const Client batch = make_client();
    Client serial = make_client();
    const auto results =
        ExpectBatchMatchesSerial(batch, serial, requests, num_threads);
    ASSERT_EQ(results.size(), requests.size());
    for (size_t i = 0; i < honest; ++i) {
      EXPECT_EQ(results[i].outcome.accepted, i != 5) << i;
    }
    for (size_t j = 0; j < std::size(extra_failures); ++j) {
      EXPECT_EQ(results[honest + j].outcome.failure, extra_failures[j])
          << j << ": " << results[honest + j].outcome.ToString();
    }
    const WireVerification& degraded = results[honest];
    EXPECT_TRUE(degraded.degraded);
    EXPECT_EQ(degraded.staleness, 1u);
    EXPECT_EQ(batch.ShardVersionWatermark(3), 2u);
  }
}

}  // namespace
}  // namespace spauth
