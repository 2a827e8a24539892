// Structural graph updates (edge insert/delete, vertex add): the
// differential campaign. Every incremental step must land BYTE-IDENTICAL
// to an owner who rebuilt from scratch over the same graph and the same
// tracked leaf order — network root, per-node leaf digests, certificate
// bytes (deterministic RSA), answer bytes — and every tampered structural
// proof must be rejected.
//
// The comparator rebuilds with the TRACKED order (the original ordering
// plus appended vertex ids), not a fresh Hilbert pass: AddVertex appends
// its leaf at the end of the certified order precisely so existing leaf
// indices never move. Ordering affects proof sizes only, never soundness.
#include <algorithm>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/core_test_context.h"
#include "core/dij.h"
#include "core/updates.h"
#include "graph/dijkstra.h"
#include "graph/generator.h"
#include "graph/ordering.h"
#include "util/rng.h"

namespace spauth {
namespace {

using testing::CoreTestContext;

std::vector<uint8_t> CertificateBytes(const Certificate& cert) {
  ByteWriter out;
  cert.Serialize(&out);
  return {out.view().begin(), out.view().end()};
}

// The from-scratch owner: base tuples off the mutated graph, the tracked
// leaf order, a certificate signed at the incremental owner's version.
Result<DijAds> RebuildTracked(const Graph& g, std::vector<NodeId> order,
                              uint32_t version, const RsaKeyPair& keys) {
  SPAUTH_ASSIGN_OR_RETURN(
      NetworkAds network,
      NetworkAds::Build(BuildBaseTuples(g), std::move(order), 2,
                        HashAlgorithm::kSha1));
  MethodParams params;
  params.method = MethodKind::kDij;
  params.alg = HashAlgorithm::kSha1;
  params.fanout = 2;
  params.ordering = NodeOrdering::kHilbert;
  params.version = version;
  params.num_network_leaves = static_cast<uint32_t>(network.num_nodes());
  SPAUTH_ASSIGN_OR_RETURN(
      Certificate cert,
      MakeCertificate(keys, std::move(params), network.root(), Digest()));
  return DijAds{std::move(network), std::move(cert)};
}

// ---------------------------------------------------------------------------
// Graph layer: CSR splices
// ---------------------------------------------------------------------------

TEST(GraphStructuralTest, AddEdgeSplicesBothDirections) {
  auto built = GenerateRoadNetwork(
      {.num_nodes = 60, .coord_extent = 1000, .seed = 5});
  ASSERT_TRUE(built.ok());
  Graph g = std::move(built).value();
  // Find an absent pair.
  NodeId u = 0, v = 0;
  for (v = 1; v < g.num_nodes(); ++v) {
    if (!g.HasEdge(0, v)) {
      break;
    }
  }
  ASSERT_FALSE(g.HasEdge(u, v));
  ASSERT_TRUE(g.AddEdge(u, v, 7.5).ok());
  EXPECT_DOUBLE_EQ(g.EdgeWeight(u, v).value(), 7.5);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(v, u).value(), 7.5);
  // Duplicate (either direction) is refused.
  EXPECT_FALSE(g.AddEdge(u, v, 1.0).ok());
  EXPECT_FALSE(g.AddEdge(v, u, 1.0).ok());
  // Bad arguments.
  EXPECT_FALSE(g.AddEdge(u, u, 1.0).ok());            // self loop
  EXPECT_FALSE(g.AddEdge(u, g.num_nodes(), 1.0).ok());  // bad endpoint
  EXPECT_FALSE(g.AddEdge(u, v, -1.0).ok());           // bad weight
}

TEST(GraphStructuralTest, RemoveEdgeSplicesBothDirections) {
  auto built = GenerateRoadNetwork(
      {.num_nodes = 60, .coord_extent = 1000, .seed = 6});
  ASSERT_TRUE(built.ok());
  Graph g = std::move(built).value();
  const NodeId u = 0;
  const NodeId v = g.Neighbors(0)[0].to;
  ASSERT_TRUE(g.RemoveEdge(u, v).ok());
  EXPECT_FALSE(g.HasEdge(u, v));
  EXPECT_FALSE(g.HasEdge(v, u));
  EXPECT_EQ(g.RemoveEdge(u, v).code(), StatusCode::kNotFound);
}

TEST(GraphStructuralTest, AddVertexStartsIsolated) {
  auto built = GenerateRoadNetwork(
      {.num_nodes = 60, .coord_extent = 1000, .seed = 7});
  ASSERT_TRUE(built.ok());
  Graph g = std::move(built).value();
  const uint32_t before = g.num_nodes();
  auto id = g.AddVertex(12.5, -3.25);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(id.value(), before);
  EXPECT_EQ(g.num_nodes(), before + 1);
  EXPECT_TRUE(g.Neighbors(id.value()).empty());
  EXPECT_DOUBLE_EQ(g.x(id.value()), 12.5);
  EXPECT_DOUBLE_EQ(g.y(id.value()), -3.25);
  // And it can be wired in.
  ASSERT_TRUE(g.AddEdge(id.value(), 0, 3.0).ok());
  EXPECT_TRUE(g.HasEdge(0, id.value()));
}

TEST(GraphStructuralTest, SplicesCopyOnWriteAwayFromSnapshots) {
  auto built = GenerateRoadNetwork(
      {.num_nodes = 120, .coord_extent = 2000, .seed = 8});
  ASSERT_TRUE(built.ok());
  Graph g = std::move(built).value();
  const Graph frozen = g;  // pointer-spine copy
  const NodeId u = 0;
  const NodeId v = g.Neighbors(0)[0].to;
  const size_t frozen_degree = frozen.Neighbors(u).size();

  size_t copied = 0;
  ASSERT_TRUE(g.RemoveEdge(u, v, &copied).ok());
  EXPECT_GT(copied, 0u);
  // The frozen snapshot still sees the edge; untouched blocks stay shared.
  EXPECT_TRUE(frozen.HasEdge(u, v));
  EXPECT_EQ(frozen.Neighbors(u).size(), frozen_degree);
  EXPECT_FALSE(g.HasEdge(u, v));
  EXPECT_GT(g.SharedAdjBlocksWith(frozen), 0u);
}

// ---------------------------------------------------------------------------
// The differential campaign: random sequences over every op kind, mixed
// batches included, checked against a from-scratch rebuild and against
// the same ops cut into re-weight and shape-change runs at EVERY step.
// Steps are checked in order, so the first failing (seed, step) pair
// reported by the scoped trace is already the minimal reproducer — rerun
// with that seed and the campaign shrinks itself to the earliest
// divergent op.
// ---------------------------------------------------------------------------

struct CampaignWorld {
  Graph g;
  DijAds ads;
  std::vector<NodeId> order;  // tracked leaf order: position -> node id
  uint32_t version = 0;
};

Result<CampaignWorld> MakeCampaignWorld(uint64_t seed) {
  SPAUTH_ASSIGN_OR_RETURN(
      Graph g, GenerateRoadNetwork(
                   {.num_nodes = 140, .coord_extent = 2500, .seed = seed}));
  SPAUTH_ASSIGN_OR_RETURN(
      DijAds ads, BuildDijAds(g, DijOptions{}, CoreTestContext::Get().keys));
  std::vector<NodeId> order =
      ComputeOrdering(g, NodeOrdering::kHilbert, /*seed=*/1);
  return CampaignWorld{std::move(g), std::move(ads), std::move(order), 0};
}

// Picks a random existing edge; false on an isolated pick.
bool PickEdge(const Graph& g, Rng& rng, NodeId* u, NodeId* v) {
  *u = static_cast<NodeId>(rng.NextBounded(g.num_nodes()));
  auto neighbors = g.Neighbors(*u);
  if (neighbors.empty()) {
    return false;
  }
  *v = neighbors[rng.NextBounded(neighbors.size())].to;
  return true;
}

// Picks a random absent pair (rejection sampling).
bool PickAbsentPair(const Graph& g, Rng& rng, NodeId* u, NodeId* v) {
  for (int attempt = 0; attempt < 32; ++attempt) {
    *u = static_cast<NodeId>(rng.NextBounded(g.num_nodes()));
    *v = static_cast<NodeId>(rng.NextBounded(g.num_nodes()));
    if (*u != *v && !g.HasEdge(*u, *v)) {
      return true;
    }
  }
  return false;
}

void ExpectWorldMatchesRebuild(const CampaignWorld& w) {
  const auto& keys = CoreTestContext::Get().keys;
  auto rebuilt = RebuildTracked(w.g, w.order, w.version, keys);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();

  // Root, leaf digests, certificate bytes.
  ASSERT_EQ(w.ads.network.root(), rebuilt.value().network.root());
  ASSERT_EQ(w.ads.network.num_nodes(), rebuilt.value().network.num_nodes());
  for (NodeId v = 0; v < w.g.num_nodes(); ++v) {
    ASSERT_EQ(w.ads.network.tuple(v).LeafDigest(HashAlgorithm::kSha1),
              rebuilt.value().network.tuple(v).LeafDigest(
                  HashAlgorithm::kSha1))
        << "leaf digest diverged at node " << v;
  }
  ASSERT_EQ(CertificateBytes(w.ads.certificate),
            CertificateBytes(rebuilt.value().certificate));

  // Answer bytes for a query that exists in both worlds.
  const Query q{0, static_cast<NodeId>(w.g.num_nodes() - 1)};
  DijProvider incremental(&w.g, &w.ads);
  DijProvider scratch(&w.g, &rebuilt.value());
  auto a = incremental.Answer(q);
  auto b = scratch.Answer(q);
  ASSERT_EQ(a.ok(), b.ok());
  if (a.ok()) {
    ByteWriter wa, wb;
    a.value().Serialize(&wa);
    b.value().Serialize(&wb);
    ASSERT_TRUE(std::equal(wa.view().begin(), wa.view().end(),
                           wb.view().begin(), wb.view().end()))
        << "answer bytes diverged";
    EXPECT_TRUE(VerifyDijAnswer(keys.public_key(), w.ads.certificate, q,
                                a.value())
                    .accepted);
  }
}

// Applies `ops` to `w` as ONE rotation and to `twin` as maximal runs of
// re-weights and of shape changes, one rotation per run. Signing is
// deterministic over the final state and version, so both must land on the
// same certificate bytes however the stream was cut into batches.
void ApplyWholeAndInRuns(std::span<const StructuralUpdate> ops,
                         CampaignWorld* w, CampaignWorld* twin) {
  const auto& keys = CoreTestContext::Get().keys;
  ASSERT_TRUE(ApplyUpdates(&w->g, &w->ads, &keys, ops).ok());
  const auto is_reweight = [](const StructuralUpdate& op) {
    return op.kind == StructuralOpKind::kSetWeight;
  };
  for (size_t start = 0; start < ops.size();) {
    size_t end = start + 1;
    while (end < ops.size() &&
           is_reweight(ops[end]) == is_reweight(ops[start])) {
      ++end;
    }
    ASSERT_TRUE(ApplyUpdates(&twin->g, &twin->ads, &keys,
                             ops.subspan(start, end - start))
                    .ok());
    start = end;
  }
  for (CampaignWorld* world : {w, twin}) {
    world->version += static_cast<uint32_t>(ops.size());
    for (const StructuralUpdate& op : ops) {
      if (op.kind == StructuralOpKind::kAddVertex) {
        world->order.push_back(static_cast<NodeId>(world->order.size()));
      }
    }
  }
  ASSERT_EQ(w->ads.network.root(), twin->ads.network.root());
  ASSERT_EQ(CertificateBytes(w->ads.certificate),
            CertificateBytes(twin->ads.certificate));
}

TEST(StructuralDifferentialCampaignTest, IncrementalMatchesRebuildEveryStep) {
  for (uint64_t seed : {11u, 47u, 203u}) {
    SCOPED_TRACE("campaign seed " + std::to_string(seed));
    auto world = MakeCampaignWorld(seed);
    auto twin_world = MakeCampaignWorld(seed);
    ASSERT_TRUE(world.ok()) << world.status().ToString();
    ASSERT_TRUE(twin_world.ok()) << twin_world.status().ToString();
    CampaignWorld& w = world.value();
    Rng rng(seed * 7919);

    for (int step = 0; step < 24; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      std::vector<StructuralUpdate> batch;
      NodeId u, v;
      const uint64_t kind = rng.NextBounded(5);
      if (kind == 0) {
        if (!PickEdge(w.g, rng, &u, &v)) {
          continue;
        }
        batch.push_back(StructuralUpdate::SetWeight(
            u, v, rng.NextDoubleIn(1.0, 900.0)));
      } else if (kind == 1) {
        if (!PickAbsentPair(w.g, rng, &u, &v)) {
          continue;
        }
        batch.push_back(
            StructuralUpdate::AddEdge(u, v, rng.NextDoubleIn(1.0, 900.0)));
      } else if (kind == 2) {
        if (!PickEdge(w.g, rng, &u, &v)) {
          continue;
        }
        batch.push_back(StructuralUpdate::RemoveEdge(u, v));
      } else {
        // Add a vertex and wire it in with one batch: the new id is the
        // current node count, the tracked order grows at the end. Kind 4
        // mixes every op kind into the batch: re-weight an old edge, add
        // and wire the vertex, re-weight its new edge, drop an old edge.
        const NodeId id = static_cast<NodeId>(w.g.num_nodes());
        const NodeId anchor =
            static_cast<NodeId>(rng.NextBounded(w.g.num_nodes()));
        NodeId ru = 0, rv = 0;
        const bool mixed = kind == 4 && PickEdge(w.g, rng, &u, &v) &&
                           PickEdge(w.g, rng, &ru, &rv);
        if (mixed) {
          batch.push_back(StructuralUpdate::SetWeight(
              u, v, rng.NextDoubleIn(1.0, 900.0)));
        }
        batch.push_back(StructuralUpdate::AddVertex(
            rng.NextDoubleIn(0.0, 2500.0), rng.NextDoubleIn(0.0, 2500.0)));
        batch.push_back(StructuralUpdate::AddEdge(
            id, anchor, rng.NextDoubleIn(1.0, 900.0)));
        if (mixed) {
          batch.push_back(StructuralUpdate::SetWeight(
              anchor, id, rng.NextDoubleIn(1.0, 900.0)));
          batch.push_back(StructuralUpdate::RemoveEdge(ru, rv));
        }
      }
      ASSERT_NO_FATAL_FAILURE(
          ApplyWholeAndInRuns(batch, &w, &twin_world.value()));
      ASSERT_EQ(w.ads.certificate.params.version, w.version);
      ASSERT_NO_FATAL_FAILURE(ExpectWorldMatchesRebuild(w));
      if (::testing::Test::HasFailure()) {
        return;  // the trace above is the shrunk reproducer
      }
    }
  }
}

TEST(StructuralDifferentialCampaignTest, BatchMatchesSinglesWithOneSignature) {
  const auto& keys = CoreTestContext::Get().keys;
  auto w1 = MakeCampaignWorld(91);
  auto w2 = MakeCampaignWorld(91);
  ASSERT_TRUE(w1.ok());
  ASSERT_TRUE(w2.ok());

  // The batch: add a vertex, wire it, drop an old edge.
  const NodeId id = static_cast<NodeId>(w1.value().g.num_nodes());
  const NodeId old_u = 0;
  const NodeId old_v = w1.value().g.Neighbors(0)[0].to;
  const std::vector<StructuralUpdate> ops = {
      StructuralUpdate::AddVertex(10.0, 20.0),
      StructuralUpdate::AddEdge(id, 5, 42.0),
      StructuralUpdate::SetWeight(old_u, old_v, 17.0),
      StructuralUpdate::RemoveEdge(old_u, old_v),
  };

  const uint64_t signs_before = RsaSignOps();
  size_t copied = 0;
  ASSERT_TRUE(ApplyUpdates(&w1.value().g, &w1.value().ads, &keys, ops,
                           &copied)
                  .ok());
  EXPECT_EQ(RsaSignOps() - signs_before, 1u);  // ONE signature for the batch
  EXPECT_EQ(w1.value().ads.certificate.params.version, ops.size());
  EXPECT_GT(copied, 0u);

  for (const StructuralUpdate& op : ops) {
    ASSERT_TRUE(
        ApplyUpdates(&w2.value().g, &w2.value().ads, &keys, {&op, 1}).ok());
  }
  EXPECT_EQ(w1.value().ads.network.root(), w2.value().ads.network.root());
  EXPECT_EQ(CertificateBytes(w1.value().ads.certificate),
            CertificateBytes(w2.value().ads.certificate));
}

TEST(StructuralDifferentialCampaignTest, FailedOpLeavesNothingSigned) {
  const auto& keys = CoreTestContext::Get().keys;
  auto world = MakeCampaignWorld(77);
  ASSERT_TRUE(world.ok());
  CampaignWorld& w = world.value();
  const Digest root_before = w.ads.network.root();

  // Second op is invalid (duplicate edge): the batch must fail without
  // bumping the version or re-signing.
  const NodeId u = 0;
  const NodeId v = w.g.Neighbors(0)[0].to;
  NodeId au = 0, bv = 0;
  Rng rng(1);
  ASSERT_TRUE(PickAbsentPair(w.g, rng, &au, &bv));
  const std::vector<StructuralUpdate> ops = {
      StructuralUpdate::AddEdge(au, bv, 9.0),
      StructuralUpdate::AddEdge(u, v, 1.0),  // already present
  };
  EXPECT_FALSE(ApplyUpdates(&w.g, &w.ads, &keys, ops).ok());
  EXPECT_EQ(w.ads.certificate.params.version, 0u);
  // The caller discards the torn clone in the engine path; here the raw
  // updates layer documents the root may have moved — the certificate is
  // what never covers a partial batch.
  EXPECT_TRUE(root_before == w.ads.certificate.network_root);
}

// ---------------------------------------------------------------------------
// Tamper matrix over structurally grown proofs: zero false accepts.
// ---------------------------------------------------------------------------

TEST(StructuralTamperTest, TamperedStructuralProofsAllRejected) {
  const auto& keys = CoreTestContext::Get().keys;
  auto world = MakeCampaignWorld(123);
  ASSERT_TRUE(world.ok());
  CampaignWorld& w = world.value();

  // Grow the network: one new vertex wired by two edges, one removal.
  const Certificate pre_structural = w.ads.certificate;  // the stale world
  const NodeId id = static_cast<NodeId>(w.g.num_nodes());
  const std::vector<StructuralUpdate> ops = {
      StructuralUpdate::AddVertex(1200.0, 800.0),
      StructuralUpdate::AddEdge(id, 3, 15.0),
      StructuralUpdate::AddEdge(id, 9, 25.0),
  };
  ASSERT_TRUE(ApplyUpdates(&w.g, &w.ads, &keys, ops).ok());

  // A query whose shortest path crosses the new vertex would be ideal, but
  // any verifying answer exercises the grown tree (the proof's shape
  // covers the appended leaf count).
  const Query q{3, 9};
  DijProvider provider(&w.g, &w.ads);
  auto honest = provider.Answer(q);
  ASSERT_TRUE(honest.ok());
  ASSERT_TRUE(VerifyDijAnswer(keys.public_key(), w.ads.certificate, q,
                              honest.value())
                  .accepted);

  size_t rejected = 0, variants = 0;
  const auto expect_rejected = [&](const DijAnswer& tampered,
                                   const Certificate& cert,
                                   const std::string& label) {
    ++variants;
    const VerifyOutcome outcome =
        VerifyDijAnswer(keys.public_key(), cert, q, tampered);
    EXPECT_FALSE(outcome.accepted) << "false accept: " << label;
    rejected += outcome.accepted ? 0 : 1;
  };

  {  // Shorter-than-real distance claim.
    DijAnswer t = honest.value();
    t.distance *= 0.5;
    expect_rejected(t, w.ads.certificate, "halved distance");
  }
  {  // A dropped subgraph tuple (and its leaf index).
    DijAnswer t = honest.value();
    ASSERT_GT(t.subgraph.tuples.size(), 1u);
    t.subgraph.tuples.pop_back();
    t.subgraph.leaf_indices.pop_back();
    expect_rejected(t, w.ads.certificate, "dropped tuple");
  }
  {  // A phantom cheap edge spliced into a proof tuple.
    DijAnswer t = honest.value();
    ExtendedTuple& tuple = t.subgraph.tuples.front();
    tuple.neighbors.push_back(NeighborEntry{q.target, 0.001});
    expect_rejected(t, w.ads.certificate, "phantom edge in tuple");
  }
  {  // A re-weighted edge inside a proof tuple.
    DijAnswer t = honest.value();
    for (ExtendedTuple& tuple : t.subgraph.tuples) {
      if (!tuple.neighbors.empty()) {
        tuple.neighbors.front().weight *= 0.25;
        break;
      }
    }
    expect_rejected(t, w.ads.certificate, "re-weighted tuple edge");
  }
  {  // A tuple claiming another leaf's position.
    DijAnswer t = honest.value();
    ASSERT_GE(t.subgraph.leaf_indices.size(), 2u);
    std::swap(t.subgraph.leaf_indices[0], t.subgraph.leaf_indices[1]);
    expect_rejected(t, w.ads.certificate, "swapped leaf indices");
  }
  {  // The pre-structural certificate: the grown answer must not verify
     // against the old root (and vice versa — stale worlds stay sealed).
    expect_rejected(honest.value(), pre_structural,
                    "pre-structural certificate");
  }
  EXPECT_EQ(rejected, variants);  // zero false accepts
}

// ---------------------------------------------------------------------------
// Engine level: structural rotations, frozen snapshots, rebuild methods.
// ---------------------------------------------------------------------------

TEST(StructuralEngineTest, DijRotationKeepsFrozenSnapshotsVerifiable) {
  const auto& ctx = CoreTestContext::Get();
  auto engine = ctx.MakeMethodEngine(MethodKind::kDij);
  const Query q = ctx.queries.front();

  auto pre = engine->Answer(q);
  ASSERT_TRUE(pre.ok());
  auto frozen = engine->CurrentState();  // pins the pre-structural world
  EXPECT_EQ(frozen->certificate.params.version, 0u);

  const NodeId id = static_cast<NodeId>(ctx.graph.num_nodes());
  const std::vector<StructuralUpdate> ops = {
      StructuralUpdate::AddVertex(100.0, 100.0),
      StructuralUpdate::AddEdge(id, q.source, 12.0),
  };
  auto version = engine->ApplyUpdates(&ctx.keys, ops);
  ASSERT_TRUE(version.ok()) << version.status().ToString();
  EXPECT_EQ(version.value(), 2u);

  // The rotated engine answers and verifies under the grown certificate...
  auto post = engine->Answer(q);
  ASSERT_TRUE(post.ok());
  EXPECT_TRUE(engine->Verify(q, post.value()).accepted);
  // ...while the pre-structural bundle — certificate and proof are
  // self-contained bytes — still verifies for draining readers; freshness
  // is an out-of-band policy, soundness never was.
  EXPECT_TRUE(engine->Verify(q, pre.value()).accepted);
  // The frozen handle pins the old world's shape alongside the new one.
  EXPECT_EQ(engine->live_snapshots(), 2u);
  frozen.reset();
  EXPECT_EQ(engine->live_snapshots(), 1u);
}

TEST(StructuralEngineTest, RebuildMethodsReportFailedPrecondition) {
  const auto& ctx = CoreTestContext::Get();
  const StructuralUpdate op = StructuralUpdate::AddVertex(1.0, 2.0);
  for (MethodKind kind :
       {MethodKind::kFull, MethodKind::kLdm, MethodKind::kHyp}) {
    SCOPED_TRACE(std::string(ToString(kind)));
    auto engine = ctx.MakeMethodEngine(kind);
    EXPECT_EQ(engine->ApplyUpdates(&ctx.keys, {&op, 1}).status().code(),
              StatusCode::kFailedPrecondition);
    // An empty batch stays a no-op for every method — no rotation, no
    // version bump, no error.
    auto version = engine->ApplyUpdates(&ctx.keys, {});
    ASSERT_TRUE(version.ok());
    EXPECT_EQ(version.value(), 0u);
  }
}

}  // namespace
}  // namespace spauth
