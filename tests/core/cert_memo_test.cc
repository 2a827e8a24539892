// The client's certificate memo: a VerifyWorkspace skips the RSA verify of
// a certificate whose exact bytes, under the exact same owner key, already
// verified in it. The oracle is the memo-less path: a fresh workspace per
// call never has a memo, so every outcome row must match it, and the RSA
// operation counter must read one verify per certificate version per
// workspace.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "adversary/tamper.h"
#include "core/client.h"
#include "core/core_test_context.h"
#include "core/engine.h"
#include "core/verify_workspace.h"
#include "crypto/rsa.h"

namespace spauth {
namespace {

using testing::CoreTestContext;
using testing::OneSetWeight;

// Every field a caller can observe.
void ExpectSameRow(const WireVerification& reused,
                   const WireVerification& fresh, const std::string& what) {
  EXPECT_EQ(reused.outcome.accepted, fresh.outcome.accepted) << what;
  EXPECT_EQ(reused.outcome.failure, fresh.outcome.failure) << what;
  EXPECT_EQ(reused.outcome.detail, fresh.outcome.detail) << what;
  EXPECT_EQ(reused.method, fresh.method) << what;
  EXPECT_EQ(reused.version, fresh.version) << what;
  EXPECT_EQ(reused.path, fresh.path) << what;
  EXPECT_EQ(reused.distance, fresh.distance) << what;
}

class CertMemoTest : public ::testing::TestWithParam<MethodKind> {};

// Honest and forged answers interleave through one workspace, so every
// forgery meets a warm memo of the honest certificate.
TEST_P(CertMemoTest, ReusedWorkspaceMatchesFreshOverTamperMatrix) {
  const auto& ctx = CoreTestContext::Get();
  const RsaPublicKey& key = ctx.keys.public_key();
  auto engine = ctx.MakeMethodEngine(GetParam());
  VerifyWorkspace ws;
  WireVerification reused;
  size_t forgeries = 0;
  for (TamperKind tamper : kAllTamperKinds) {
    for (const Query& q : ctx.queries) {
      auto honest = engine->Answer(q);
      ASSERT_TRUE(honest.ok());
      VerifyWireAnswer(key, q, honest.value().bytes, ws, &reused);
      EXPECT_TRUE(reused.outcome.accepted) << reused.outcome.ToString();
      ExpectSameRow(reused, VerifyWireAnswer(key, q, honest.value().bytes),
                    "honest");

      auto forged = TamperedAnswer(*engine, q, tamper);
      if (!forged.ok()) {
        continue;  // attack inapplicable or no opportunity on this query
      }
      ++forgeries;
      VerifyWireAnswer(key, q, forged.value().bytes, ws, &reused);
      EXPECT_FALSE(reused.outcome.accepted) << ToString(tamper);
      ExpectSameRow(reused, VerifyWireAnswer(key, q, forged.value().bytes),
                    std::string(ToString(tamper)));
    }
  }
  EXPECT_GT(forgeries, 0u);
}

// A bogus signature over the memoised body differs in its bytes, so it
// misses the memo, is RSA-verified and rejects; it leaves the memo as it
// was.
TEST_P(CertMemoTest, BogusSignatureOnMemoisedBodyRejects) {
  const auto& ctx = CoreTestContext::Get();
  const RsaPublicKey& key = ctx.keys.public_key();
  auto engine = ctx.MakeMethodEngine(GetParam());
  const Query& q = ctx.queries[0];
  auto honest = engine->Answer(q);
  ASSERT_TRUE(honest.ok());
  auto forged = TamperedAnswer(*engine, q, TamperKind::kBogusSignature);
  ASSERT_TRUE(forged.ok());

  VerifyWorkspace ws;
  WireVerification out;
  VerifyWireAnswer(key, q, honest.value().bytes, ws, &out);
  ASSERT_TRUE(out.outcome.accepted);
  for (int round = 0; round < 3; ++round) {
    const uint64_t before = RsaVerifyOps();
    VerifyWireAnswer(key, q, forged.value().bytes, ws, &out);
    EXPECT_FALSE(out.outcome.accepted);
    EXPECT_EQ(out.outcome.failure, VerifyFailure::kBadCertificate);
    EXPECT_EQ(RsaVerifyOps() - before, 1u) << "a forgery never hits";
    VerifyWireAnswer(key, q, honest.value().bytes, ws, &out);
    EXPECT_TRUE(out.outcome.accepted);
    EXPECT_EQ(RsaVerifyOps() - before, 1u) << "the honest memo survives";
  }
}

// The memo is keyed on the owner key too: the same certificate bytes under
// another modulus, or the same modulus with another exponent, must be
// verified (and reject) rather than hit.
TEST_P(CertMemoTest, SameBytesUnderAnotherKeyMissTheMemo) {
  const auto& ctx = CoreTestContext::Get();
  const RsaPublicKey& key = ctx.keys.public_key();
  auto engine = ctx.MakeMethodEngine(GetParam());
  const Query& q = ctx.queries[0];
  auto honest = engine->Answer(q);
  ASSERT_TRUE(honest.ok());
  Rng rng(99);
  const RsaKeyPair other = RsaKeyPair::Generate(512, &rng).value();
  const RsaPublicKey other_exponent{key.modulus, BigInt::FromU64(3)};

  VerifyWorkspace ws;
  WireVerification out;
  VerifyWireAnswer(key, q, honest.value().bytes, ws, &out);
  ASSERT_TRUE(out.outcome.accepted);
  for (const RsaPublicKey* wrong : {&other.public_key(), &other_exponent}) {
    const uint64_t before = RsaVerifyOps();
    VerifyWireAnswer(*wrong, q, honest.value().bytes, ws, &out);
    EXPECT_FALSE(out.outcome.accepted);
    EXPECT_EQ(out.outcome.failure, VerifyFailure::kBadCertificate);
    EXPECT_EQ(RsaVerifyOps() - before, 1u);
  }
  const uint64_t before = RsaVerifyOps();
  VerifyWireAnswer(key, q, honest.value().bytes, ws, &out);
  EXPECT_TRUE(out.outcome.accepted);
  EXPECT_EQ(RsaVerifyOps() - before, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllMethods, CertMemoTest,
                         ::testing::ValuesIn(kAllMethods),
                         [](const auto& info) {
                           return std::string(ToString(info.param));
                         });

// One RSA verify per certificate version per workspace, across DIJ
// rotations: each re-weight re-signs a new version, which every workspace
// verifies once, then serves from its memo.
TEST(CertMemoRotationTest, OneVerifyPerVersionPerWorkspace) {
  const auto& ctx = CoreTestContext::Get();
  const RsaPublicKey& key = ctx.keys.public_key();
  auto dij = ctx.MakeMethodEngine(MethodKind::kDij);
  VerifyWorkspace first, second;
  Client client(key);
  WireVerification out;
  for (int version = 0; version < 3; ++version) {
    if (version > 0) {
      const Query& q = ctx.queries[version];
      const Edge e = ctx.graph.Neighbors(q.source).front();
      ASSERT_TRUE(dij->ApplyUpdates(&ctx.keys,
                                    OneSetWeight(q.source, e.to,
                                                 e.weight * (1.0 + version)))
                      .ok());
    }
    std::vector<std::vector<uint8_t>> wires;
    for (const Query& q : ctx.queries) {
      auto bundle = dij->Answer(q);
      ASSERT_TRUE(bundle.ok());
      wires.push_back(std::move(bundle.value().bytes));
    }
    for (VerifyWorkspace* ws : {&first, &second}) {
      const uint64_t before = RsaVerifyOps();
      for (int pass = 0; pass < 2; ++pass) {
        for (size_t i = 0; i < wires.size(); ++i) {
          VerifyWireAnswer(key, ctx.queries[i], wires[i], *ws, &out);
          ASSERT_TRUE(out.outcome.accepted) << out.outcome.ToString();
          EXPECT_EQ(out.version, static_cast<uint32_t>(version));
        }
      }
      EXPECT_EQ(RsaVerifyOps() - before, 1u) << "version " << version;
    }
    // The serial client keeps one workspace, so the same holds for it.
    const uint64_t before = RsaVerifyOps();
    for (size_t i = 0; i < wires.size(); ++i) {
      EXPECT_TRUE(client.Verify(ctx.queries[i], wires[i]).outcome.accepted);
    }
    EXPECT_EQ(RsaVerifyOps() - before, 1u) << "version " << version;
    // A batch pays at most one verify per version per worker.
    std::vector<VerifyRequest> requests;
    for (size_t i = 0; i < wires.size(); ++i) {
      requests.push_back({ctx.queries[i], wires[i]});
    }
    const size_t kThreads = 3;
    const uint64_t batch_before = RsaVerifyOps();
    for (const WireVerification& r : client.VerifyBatch(requests, kThreads)) {
      EXPECT_TRUE(r.outcome.accepted);
    }
    const uint64_t batch_ops = RsaVerifyOps() - batch_before;
    EXPECT_GE(batch_ops, 1u);
    EXPECT_LE(batch_ops, kThreads);
  }
}

}  // namespace
}  // namespace spauth
