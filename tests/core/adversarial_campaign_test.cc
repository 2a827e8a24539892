// Deterministic adversarial soundness campaign: a seeded malicious
// provider applies every tamper class at every pipeline stage — answer
// content forged from the ADS (suboptimal path, tampered/dropped tuples,
// forged distance entries), Merkle/proof-body bit flips, certificate bit
// flips and version forgery, and wire-envelope truncation/extension —
// across random graphs and all four methods.
//
// The asserted properties are the paper's two soundness directions:
//   zero false-rejects — every honest bundle is accepted, with the exact
//     Dijkstra distance;
//   zero false-accepts — whenever a mutated bundle is accepted, the
//     verified distance still equals the true shortest distance (a bit
//     flip below the float-comparison slack is semantically honest; an
//     accepted *wrong* distance is the security failure).
//
// Every nested loop is under a SCOPED_TRACE carrying the campaign seed, so
// a failure names the exact seed/graph/method/query to reproduce it.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "adversary/tamper.h"
#include "core/client.h"
#include "core/core_test_context.h"
#include "core/engine.h"
#include "core/network_ads.h"
#include "graph/dijkstra.h"
#include "graph/generator.h"
#include "graph/workload.h"
#include "util/rng.h"

namespace spauth {
namespace {

using testing::CoreTestContext;

constexpr uint64_t kCampaignSeeds[] = {20260729, 0xC0FFEEull};
constexpr int kGraphsPerSeed = 2;
constexpr int kCertFlipsPerQuery = 8;
constexpr int kBodyFlipsPerQuery = 12;
constexpr int kTruncationsPerQuery = 6;

struct CampaignTally {
  size_t honest_accepts = 0;
  size_t mutations = 0;
  size_t rejects = 0;
  size_t benign_accepts = 0;  // accepted flips proven distance-honest
};

/// Verifies `bytes` as a client would and enforces the no-false-accept
/// rule: reject, or accept with the true shortest distance.
void CheckMutation(const RsaPublicKey& key, const Query& q,
                   const std::vector<uint8_t>& bytes, double truth,
                   const char* stage, CampaignTally* tally) {
  ++tally->mutations;
  const WireVerification result = VerifyWireAnswer(key, q, bytes);
  if (!result.outcome.accepted) {
    ++tally->rejects;
    return;
  }
  // Accepted: the only way this is sound is if the verified distance is
  // still the true one (e.g. a flipped bit below the comparison slack).
  ASSERT_NEAR(result.distance, truth, 8 * VerifySlack(truth) + 1e-12)
      << stage << ": a mutation was ACCEPTED with a wrong distance "
      << result.distance << " (truth " << truth << ")";
  ++tally->benign_accepts;
}

TEST(AdversarialCampaignTest, ZeroFalseAcceptsZeroFalseRejects) {
  const auto& ctx = CoreTestContext::Get();
  const RsaPublicKey client_key = ctx.keys.public_key();
  CampaignTally tally;

  for (const uint64_t seed : kCampaignSeeds) {
    SCOPED_TRACE(::testing::Message()
                 << "campaign seed " << seed
                 << " — rerun with this seed in kCampaignSeeds to reproduce");
    Rng rng(seed);
    for (int round = 0; round < kGraphsPerSeed; ++round) {
      RoadNetworkOptions gopts;
      gopts.num_nodes = 90 + rng.NextBounded(60);
      gopts.coord_extent = 4500;
      gopts.seed = rng.NextU64();
      auto graph = GenerateRoadNetwork(gopts);
      ASSERT_TRUE(graph.ok());
      const Graph& g = graph.value();
      SCOPED_TRACE(::testing::Message() << "graph round " << round << " ("
                                        << g.num_nodes() << " nodes, seed "
                                        << gopts.seed << ")");
      WorkloadOptions wopts;
      wopts.count = 3;
      wopts.query_range = 2500;
      wopts.seed = rng.NextU64();
      auto queries = GenerateWorkload(g, wopts);
      ASSERT_TRUE(queries.ok());

      for (const MethodKind method : kAllMethods) {
        SCOPED_TRACE(::testing::Message() << "method " << ToString(method));
        EngineOptions options = CoreTestContext::DefaultOptions(method);
        options.num_landmarks = 8;
        options.num_cells = 9;
        auto engine = MakeEngine(g, options, ctx.keys);
        ASSERT_TRUE(engine.ok()) << engine.status().ToString();
        const MethodEngine& e = *engine.value();
        const size_t cert_size = e.certificate().SerializedSize();

        for (const Query& q : queries.value()) {
          SCOPED_TRACE(::testing::Message()
                       << "query " << q.source << "->" << q.target);
          const PathSearchResult truth =
              DijkstraShortestPath(g, q.source, q.target);
          ASSERT_TRUE(truth.reachable);

          // --- Honest pipeline: zero false-rejects, exact distance. ---
          auto honest = e.Answer(q);
          ASSERT_TRUE(honest.ok()) << honest.status().ToString();
          ASSERT_NEAR(honest.value().distance, truth.distance, 1e-9);
          const WireVerification honest_wire =
              VerifyWireAnswer(client_key, q, honest.value().bytes);
          ASSERT_TRUE(honest_wire.outcome.accepted)
              << "FALSE REJECT: " << honest_wire.outcome.ToString();
          ASSERT_NEAR(honest_wire.distance, truth.distance, 1e-9);
          ++tally.honest_accepts;
          const std::vector<uint8_t>& wire = honest.value().bytes;
          ASSERT_GT(wire.size(), cert_size);

          // --- Stage: ADS / answer content (malicious provider). ---
          for (const TamperKind kind : kAllTamperKinds) {
            auto forged = TamperedAnswer(e, q, kind);
            if (!forged.ok()) {
              continue;  // inapplicable method or no opportunity here
            }
            ++tally.mutations;
            const WireVerification result =
                VerifyWireAnswer(client_key, q, forged.value().bytes);
            ASSERT_FALSE(result.outcome.accepted)
                << "FALSE ACCEPT: provider tamper " << ToString(kind);
            ++tally.rejects;
          }

          // --- Stage: certificate (params, roots, signature bits). ---
          for (int t = 0; t < kCertFlipsPerQuery; ++t) {
            std::vector<uint8_t> mutated = wire;
            mutated[rng.NextBounded(cert_size)] ^=
                static_cast<uint8_t>(1u << rng.NextBounded(8));
            CheckMutation(client_key, q, mutated, truth.distance,
                          "certificate flip", &tally);
            if (::testing::Test::HasFatalFailure()) {
              return;
            }
          }

          // --- Stage: proof body (Merkle paths, tuples, distances). ---
          for (int t = 0; t < kBodyFlipsPerQuery; ++t) {
            std::vector<uint8_t> mutated = wire;
            const size_t offset =
                cert_size + rng.NextBounded(wire.size() - cert_size);
            mutated[offset] ^= static_cast<uint8_t>(1u << rng.NextBounded(8));
            CheckMutation(client_key, q, mutated, truth.distance,
                          "proof body flip", &tally);
            if (::testing::Test::HasFatalFailure()) {
              return;
            }
          }

          // --- Stage: wire envelope (truncation, extension). ---
          for (int t = 0; t < kTruncationsPerQuery; ++t) {
            const size_t len = rng.NextBounded(wire.size());
            std::vector<uint8_t> prefix(wire.begin(),
                                        wire.begin() +
                                            static_cast<ptrdiff_t>(len));
            ++tally.mutations;
            ASSERT_FALSE(
                VerifyWireAnswer(client_key, q, prefix).outcome.accepted)
                << "FALSE ACCEPT: truncation to " << len << " bytes";
            ++tally.rejects;
          }
          std::vector<uint8_t> extended = wire;
          extended.push_back(static_cast<uint8_t>(rng.NextBounded(256)));
          ++tally.mutations;
          ASSERT_FALSE(
              VerifyWireAnswer(client_key, q, extended).outcome.accepted)
              << "FALSE ACCEPT: trailing garbage byte";
          ++tally.rejects;
        }
      }
    }
  }

  // The campaign must have actually exercised the matrix.
  EXPECT_GT(tally.honest_accepts, 0u);
  EXPECT_GT(tally.mutations, 500u);
  EXPECT_EQ(tally.rejects + tally.benign_accepts, tally.mutations);
  // Benign accepts (sub-slack bit flips) are possible but must stay rare;
  // a spike means a verifier stopped checking something.
  EXPECT_LT(tally.benign_accepts, tally.mutations / 20);
}

}  // namespace
}  // namespace spauth
