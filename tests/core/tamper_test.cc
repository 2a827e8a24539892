// The security test matrix: every applicable (method, attack) pair must be
// rejected, and the rejection reason must match the defense that is
// supposed to catch it. A DIJ engine that has absorbed one update batch
// joins the four fresh engines, so the adversary is shown to forge against
// the live snapshot rather than the initial build.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <utility>

#include "adversary/tamper.h"
#include "core/core_test_context.h"
#include "core/engine.h"
#include "util/byte_buffer.h"

namespace spauth {
namespace {

using testing::CoreTestContext;

struct TamperCase {
  MethodKind method;
  TamperKind tamper;
  bool updated = false;  // DIJ after one ApplyUpdates batch
};

std::string CaseName(const ::testing::TestParamInfo<TamperCase>& info) {
  std::string name = std::string(ToString(info.param.method)) +
                     (info.param.updated ? "_updated_" : "_") +
                     std::string(ToString(info.param.tamper));
  for (char& c : name) {
    if (c == '-') {
      c = '_';
    }
  }
  return name;
}

class TamperTest : public ::testing::TestWithParam<TamperCase> {
 protected:
  static MethodEngine* GetEngine(MethodKind kind, bool updated) {
    using Key = std::pair<MethodKind, bool>;
    static std::map<Key, std::unique_ptr<MethodEngine>>* engines =
        new std::map<Key, std::unique_ptr<MethodEngine>>();
    auto it = engines->find({kind, updated});
    if (it == engines->end()) {
      auto engine = CoreTestContext::Get().MakeMethodEngine(kind);
      if (updated) {
        ApplyOneBatch(engine.get());
      }
      it = engines->emplace(Key{kind, updated}, std::move(engine)).first;
    }
    return it->second.get();
  }

  /// One mixed batch: re-weight the first hop of the first query's route,
  /// open a shortcut across a two-hop detour, add an intersection.
  static void ApplyOneBatch(MethodEngine* engine) {
    const auto& ctx = CoreTestContext::Get();
    const Graph& g = ctx.graph;
    const NodeId a = ctx.queries[0].source;
    const Edge hop = g.Neighbors(a)[0];
    const NodeId u = ctx.queries[1].source;
    NodeId far = kInvalidNode;
    double detour = 0;
    for (const Edge& e1 : g.Neighbors(u)) {
      for (const Edge& e2 : g.Neighbors(e1.to)) {
        if (far == kInvalidNode && e2.to != u &&
            !g.EdgeWeight(u, e2.to).ok()) {
          far = e2.to;
          detour = e1.weight + e2.weight;
        }
      }
    }
    ASSERT_NE(far, kInvalidNode);
    const StructuralUpdate batch[] = {
        StructuralUpdate::SetWeight(a, hop.to, hop.weight * 1.5),
        StructuralUpdate::AddEdge(u, far, detour * 0.9),
        StructuralUpdate::AddVertex(g.x(u) + 1, g.y(u) + 1),
    };
    auto version = engine->ApplyUpdates(&ctx.keys, batch);
    ASSERT_TRUE(version.ok()) << version.status().ToString();
    ASSERT_EQ(version.value(), 3u);
  }
};

TEST_P(TamperTest, AttackIsRejectedWithTheRightReason) {
  const auto& ctx = CoreTestContext::Get();
  MethodEngine* engine = GetEngine(GetParam().method, GetParam().updated);
  const TamperKind tamper = GetParam().tamper;

  // Expected rejection classes per attack (some attacks legitimately trip
  // an earlier check depending on the method).
  static const std::map<TamperKind, std::set<VerifyFailure>> kExpected = {
      {TamperKind::kSuboptimalPath, {VerifyFailure::kNotShortest}},
      {TamperKind::kTamperWeight, {VerifyFailure::kRootMismatch}},
      {TamperKind::kDropTuple,
       {VerifyFailure::kIncompleteSubgraph, VerifyFailure::kInvalidPath}},
      {TamperKind::kForgeDistanceValue, {VerifyFailure::kRootMismatch}},
      {TamperKind::kBogusSignature, {VerifyFailure::kBadCertificate}},
      {TamperKind::kPhantomEdge,
       {VerifyFailure::kInvalidPath, VerifyFailure::kDistanceMismatch}},
  };

  size_t attacks_executed = 0;
  for (const Query& q : ctx.queries) {
    auto forged = TamperedAnswer(*engine, q, tamper);
    if (!forged.ok()) {
      // kFailedPrecondition: attack not applicable to this method.
      // kNotFound: this particular query offers no attack opportunity.
      ASSERT_TRUE(forged.status().code() == StatusCode::kFailedPrecondition ||
                  forged.status().code() == StatusCode::kNotFound)
          << forged.status().ToString();
      continue;
    }
    ++attacks_executed;
    // Forged against the live snapshot: its certificate version.
    ByteReader reader(forged.value().bytes);
    auto cert = Certificate::Deserialize(&reader);
    ASSERT_TRUE(cert.ok());
    EXPECT_EQ(cert.value().params.version,
              engine->certificate().params.version);
    VerifyOutcome outcome = engine->Verify(q, forged.value());
    ASSERT_FALSE(outcome.accepted)
        << "attack " << ToString(tamper) << " on " << engine->name()
        << " was accepted for query (" << q.source << "," << q.target << ")";
    const auto& allowed = kExpected.at(tamper);
    EXPECT_TRUE(allowed.contains(outcome.failure))
        << "unexpected rejection reason: " << outcome.ToString();
  }
  // Unless the attack is categorically inapplicable, it must have been
  // exercised on at least one query.
  if (TamperedAnswer(*engine, ctx.queries[0], tamper).status().code() !=
      StatusCode::kFailedPrecondition) {
    EXPECT_GT(attacks_executed, 0u)
        << "no query admitted attack " << ToString(tamper);
  }
}

std::vector<TamperCase> AllCases() {
  std::vector<TamperCase> cases;
  for (MethodKind method : kAllMethods) {
    for (TamperKind tamper : kAllTamperKinds) {
      cases.push_back({method, tamper});
    }
  }
  for (TamperKind tamper : kAllTamperKinds) {
    cases.push_back({MethodKind::kDij, tamper, /*updated=*/true});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllMethodsAllAttacks, TamperTest,
                         ::testing::ValuesIn(AllCases()), CaseName);

TEST(TamperSanityTest, HonestAnswersStillAcceptAfterAttackRuns) {
  // Guard against the tamper machinery mutating shared engine state.
  const auto& ctx = CoreTestContext::Get();
  for (MethodKind method : kAllMethods) {
    auto engine = ctx.MakeMethodEngine(method);
    const Query q = ctx.queries[0];
    auto t = TamperedAnswer(*engine, q, TamperKind::kTamperWeight);
    (void)t;
    auto honest = engine->Answer(q);
    ASSERT_TRUE(honest.ok());
    VerifyOutcome outcome = engine->Verify(q, honest.value());
    EXPECT_TRUE(outcome.accepted)
        << engine->name() << ": " << outcome.ToString();
  }
}

}  // namespace
}  // namespace spauth
