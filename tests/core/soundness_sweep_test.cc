// Exhaustive soundness sweep on a small network: every queried pair, every
// method — honest answers accepted with the exact Dijkstra distance, and a
// suboptimal-path attack rejected wherever one exists. This is the
// "leave no pair behind" complement to the sampled integration tests.
#include <gtest/gtest.h>

#include "adversary/tamper.h"
#include "core/core_test_context.h"
#include "core/engine.h"
#include "graph/all_pairs.h"
#include "graph/generator.h"
#include "util/rng.h"

namespace spauth {
namespace {

using testing::CoreTestContext;

class SoundnessSweepTest : public ::testing::TestWithParam<MethodKind> {
 protected:
  static const Graph& SweepGraph() {
    static const Graph* g = [] {
      RoadNetworkOptions options;
      options.num_nodes = 64;
      options.coord_extent = 4500;
      options.seed = 31337;
      return new Graph(GenerateRoadNetwork(options).value());
    }();
    return *g;
  }
};

TEST_P(SoundnessSweepTest, EveryPairVerifiesWithTheExactDistance) {
  const Graph& g = SweepGraph();
  const auto& keys = CoreTestContext::Get().keys;
  EngineOptions options = CoreTestContext::DefaultOptions(GetParam());
  options.num_landmarks = 6;
  options.num_cells = 9;
  auto engine = MakeEngine(g, options, keys);
  ASSERT_TRUE(engine.ok());
  DistanceMatrix truth = AllPairsDijkstra(g);
  size_t verified = 0;
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    for (NodeId t = s + 1; t < g.num_nodes(); ++t) {
      const Query q{s, t};
      auto bundle = engine.value()->Answer(q);
      ASSERT_TRUE(bundle.ok()) << s << "->" << t;
      ASSERT_NEAR(bundle.value().distance, truth.at(s, t), 1e-9)
          << s << "->" << t;
      VerifyOutcome outcome = engine.value()->Verify(q, bundle.value());
      ASSERT_TRUE(outcome.accepted)
          << s << "->" << t << ": " << outcome.ToString();
      ++verified;
    }
  }
  EXPECT_EQ(verified, g.num_nodes() * (g.num_nodes() - 1) / 2);
}

TEST_P(SoundnessSweepTest, SuboptimalAttacksRejectedAcrossSampledPairs) {
  const Graph& g = SweepGraph();
  const auto& keys = CoreTestContext::Get().keys;
  EngineOptions options = CoreTestContext::DefaultOptions(GetParam());
  options.num_landmarks = 6;
  options.num_cells = 9;
  auto engine = MakeEngine(g, options, keys);
  ASSERT_TRUE(engine.ok());
  Rng rng(777);
  size_t attacks = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const Query q{static_cast<NodeId>(rng.NextBounded(g.num_nodes())),
                  static_cast<NodeId>(rng.NextBounded(g.num_nodes()))};
    if (q.source == q.target) {
      continue;
    }
    auto forged =
        TamperedAnswer(*engine.value(), q, TamperKind::kSuboptimalPath);
    if (!forged.ok()) {
      continue;  // no longer alternative for this pair
    }
    ++attacks;
    VerifyOutcome outcome = engine.value()->Verify(q, forged.value());
    ASSERT_FALSE(outcome.accepted)
        << q.source << "->" << q.target << " accepted a suboptimal path";
    EXPECT_EQ(outcome.failure, VerifyFailure::kNotShortest);
  }
  EXPECT_GT(attacks, 5u);
}

INSTANTIATE_TEST_SUITE_P(AllMethods, SoundnessSweepTest,
                         ::testing::ValuesIn(kAllMethods),
                         [](const auto& info) {
                           return std::string(ToString(info.param));
                         });

}  // namespace
}  // namespace spauth
