// Epoch-snapshot rotation (core/engine_state.h): copy-on-write updates
// publish immutable snapshots, retired snapshots drain without disturbing
// readers, the per-snapshot proof cache is retired wholesale with exact
// books, and client-held bundles from retired snapshots stay verifiable.
//
// Since rotations went structurally shared, this file also proves the
// aliasing story: successive snapshots share graph/ADS chunks
// (rotation_clone_bytes stays far below the full-clone baseline), a
// pinned retired snapshot keeps its exact pre-rotation world while later
// versions rewrite their private chunk copies — including under
// concurrent rotation pressure (the TSan-run stress below) — and batched
// rotations are byte-equivalent to single-update rotations.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "core/client.h"
#include "core/core_test_context.h"
#include "core/engine.h"
#include "core/engine_state.h"
#include "graph/dijkstra.h"

namespace spauth {
namespace {

using testing::CoreTestContext;
using testing::OneSetWeight;

std::unique_ptr<MethodEngine> MakeCachedEngine(MethodKind kind) {
  const auto& ctx = CoreTestContext::Get();
  EngineOptions options = CoreTestContext::DefaultOptions(kind);
  options.enable_proof_cache = true;
  auto engine = MakeEngine(ctx.graph, options, ctx.keys);
  EXPECT_TRUE(engine.ok());
  return std::move(engine).value();
}

/// The conservation invariant the proof-cache books must satisfy at every
/// quiescent point (all retired snapshots drained).
void ExpectBooksConserve(const ProofCacheStats& s) {
  EXPECT_EQ(s.insertions, s.evictions + s.cleared + s.entries)
      << "insertions=" << s.insertions << " evictions=" << s.evictions
      << " cleared=" << s.cleared << " entries=" << s.entries;
}

TEST(EngineStateTest, InitialBuildPublishesEpochOneAtVersionZero) {
  const auto& ctx = CoreTestContext::Get();
  auto engine = ctx.MakeMethodEngine(MethodKind::kDij);
  EXPECT_EQ(engine->current_epoch(), 1u);
  EXPECT_EQ(engine->live_snapshots(), 1u);
  const std::shared_ptr<const EngineState> state = engine->CurrentState();
  ASSERT_NE(state, nullptr);
  EXPECT_EQ(state->epoch, 1u);
  EXPECT_EQ(state->certificate.params.version, 0u);
  EXPECT_EQ(state->graph.get(), &ctx.graph);  // initial snapshot aliases
  EXPECT_EQ(state->cert_size, state->certificate.SerializedSize());
}

TEST(EngineStateTest, UpdateRotatesSnapshotWithoutTouchingTheCallerGraph) {
  const auto& ctx = CoreTestContext::Get();
  auto engine = ctx.MakeMethodEngine(MethodKind::kDij);
  const Query q = ctx.queries[0];
  auto before = engine->Answer(q);
  ASSERT_TRUE(before.ok());

  const NodeId u = before.value().path.nodes[0];
  const NodeId v = before.value().path.nodes[1];
  const double old_w = ctx.graph.EdgeWeight(u, v).value();
  const std::shared_ptr<const EngineState> old_state = engine->CurrentState();

  auto version =
      engine->ApplyUpdates(&ctx.keys, OneSetWeight(u, v, old_w * 50));
  ASSERT_TRUE(version.ok());
  EXPECT_EQ(version.value(), 1u);
  EXPECT_EQ(engine->current_epoch(), 2u);
  EXPECT_EQ(engine->certificate().params.version, 1u);

  // Copy-on-write: the caller's graph is untouched; the new snapshot owns
  // its clone with the new weight; the held old snapshot still shows the
  // old world.
  EXPECT_DOUBLE_EQ(ctx.graph.EdgeWeight(u, v).value(), old_w);
  const std::shared_ptr<const EngineState> new_state = engine->CurrentState();
  EXPECT_NE(new_state.get(), old_state.get());
  EXPECT_DOUBLE_EQ(new_state->graph->EdgeWeight(u, v).value(), old_w * 50);
  EXPECT_DOUBLE_EQ(old_state->graph->EdgeWeight(u, v).value(), old_w);
  EXPECT_EQ(engine->live_snapshots(), 2u);  // old_state handle pins it

  // The rotated answer reflects the new weight and verifies.
  auto after = engine->Answer(q);
  ASSERT_TRUE(after.ok());
  const PathSearchResult expected =
      DijkstraShortestPath(*new_state->graph, q.source, q.target);
  ASSERT_TRUE(expected.reachable);
  EXPECT_NEAR(after.value().distance, expected.distance, 1e-9);
  EXPECT_TRUE(engine->Verify(q, after.value()).accepted);
}

TEST(EngineStateTest, DroppingTheLastHandleDrainsTheRetiredSnapshot) {
  const auto& ctx = CoreTestContext::Get();
  auto engine = ctx.MakeMethodEngine(MethodKind::kDij);
  std::shared_ptr<const EngineState> held = engine->CurrentState();
  const NodeId u = 0;
  const NodeId v = ctx.graph.Neighbors(0)[0].to;
  const double w = ctx.graph.EdgeWeight(u, v).value();
  ASSERT_TRUE(
      engine->ApplyUpdates(&ctx.keys, OneSetWeight(u, v, w * 1.25)).ok());
  EXPECT_EQ(engine->live_snapshots(), 2u);
  held.reset();
  EXPECT_EQ(engine->live_snapshots(), 1u);
}

TEST(EngineStateTest, RotationRetiresTheProofCacheWholesaleWithExactBooks) {
  const auto& ctx = CoreTestContext::Get();
  auto engine = MakeCachedEngine(MethodKind::kDij);
  for (const Query& q : ctx.queries) {
    ASSERT_TRUE(engine->Answer(q).ok());   // miss + insert
    ASSERT_TRUE(engine->Answer(q).ok());   // hit
  }
  const ProofCacheStats before = engine->proof_cache_stats();
  EXPECT_EQ(before.insertions, ctx.queries.size());
  EXPECT_EQ(before.entries, ctx.queries.size());
  EXPECT_EQ(before.hits, ctx.queries.size());
  ExpectBooksConserve(before);

  const NodeId u = 0;
  const NodeId v = ctx.graph.Neighbors(0)[0].to;
  const double w = ctx.graph.EdgeWeight(u, v).value();
  ASSERT_TRUE(engine->ApplyUpdates(&ctx.keys, OneSetWeight(u, v, w * 2)).ok());

  // No handles pin the old snapshot, so it drained at publish: its whole
  // cache was retired and its residents are accounted as cleared.
  EXPECT_EQ(engine->live_snapshots(), 1u);
  const ProofCacheStats after = engine->proof_cache_stats();
  EXPECT_EQ(after.cleared, before.cleared + before.entries);
  EXPECT_EQ(after.entries, 0u);
  EXPECT_EQ(after.insertions, before.insertions);
  EXPECT_EQ(after.hits, before.hits);
  ExpectBooksConserve(after);

  // The fresh snapshot's cache fills and the global books keep conserving.
  for (const Query& q : ctx.queries) {
    ASSERT_TRUE(engine->Answer(q).ok());
  }
  const ProofCacheStats refilled = engine->proof_cache_stats();
  EXPECT_EQ(refilled.insertions, before.insertions + ctx.queries.size());
  EXPECT_EQ(refilled.entries, ctx.queries.size());
  ExpectBooksConserve(refilled);
}

TEST(EngineStateTest, HeldBundleFromRetiredSnapshotStaysValidAndVerifiable) {
  const auto& ctx = CoreTestContext::Get();
  auto engine = MakeCachedEngine(MethodKind::kDij);
  const Query q = ctx.queries[0];
  auto held = engine->AnswerShared(q);
  ASSERT_TRUE(held.ok());
  const std::vector<uint8_t> bytes_before = held.value()->bytes;

  const NodeId u = held.value()->path.nodes[0];
  const NodeId v = held.value()->path.nodes[1];
  const double w = ctx.graph.EdgeWeight(u, v).value();
  ASSERT_TRUE(engine->ApplyUpdates(&ctx.keys, OneSetWeight(u, v, w * 3)).ok());

  // The shared_ptr keeps the retired snapshot's bundle alive and byte-
  // stable, and it still verifies: its certificate signs the old root,
  // which its proof still matches (freshness is the client watermark's
  // job, not the signature's).
  EXPECT_EQ(held.value()->bytes, bytes_before);
  EXPECT_TRUE(engine->Verify(q, *held.value()).accepted);

  auto fresh = engine->AnswerShared(q);
  ASSERT_TRUE(fresh.ok());
  EXPECT_NE(fresh.value().get(), held.value().get());
  EXPECT_NE(fresh.value()->bytes, bytes_before);

  // A version-tracking client accepts the fresh answer, then flags the
  // retired bundle as stale — never as forged.
  Client client(ctx.keys.public_key());
  client.TrackShardVersions(1);
  WireVerification new_result = client.Verify(q, fresh.value()->bytes);
  EXPECT_TRUE(new_result.outcome.accepted);
  EXPECT_EQ(new_result.version, 1u);
  WireVerification stale_result = client.Verify(q, held.value()->bytes);
  EXPECT_FALSE(stale_result.outcome.accepted);
  EXPECT_EQ(stale_result.outcome.failure, VerifyFailure::kStaleCertificate);
  EXPECT_EQ(stale_result.version, 0u);
  EXPECT_EQ(client.ShardVersionWatermark(0), 1u);
}

TEST(EngineStateTest, RotationSharesStructureWithTheRetiredSnapshot) {
  const auto& ctx = CoreTestContext::Get();
  auto engine = ctx.MakeMethodEngine(MethodKind::kDij);
  const std::shared_ptr<const EngineState> old_state = engine->CurrentState();
  const size_t baseline =
      old_state->graph->MemoryFootprintBytes() + engine->storage_bytes();

  const NodeId u = 0;
  const NodeId v = ctx.graph.Neighbors(0)[0].to;
  const double w = ctx.graph.EdgeWeight(u, v).value();
  ASSERT_TRUE(engine->ApplyUpdates(&ctx.keys, OneSetWeight(u, v, w * 2)).ok());
  const std::shared_ptr<const EngineState> new_state = engine->CurrentState();

  // The new snapshot's graph is a structural sibling, not a deep copy: at
  // most the two blocks holding (u, v) were duplicated.
  const size_t blocks = new_state->graph->num_adj_blocks();
  EXPECT_GE(new_state->graph->SharedAdjBlocksWith(*old_state->graph),
            blocks - 2);
  EXPECT_LT(new_state->graph->SharedAdjBlocksWith(*old_state->graph),
            blocks);  // the touched block really was copied

  // The acceptance ratio, at engine level: one rotation's copy-on-write
  // bytes must undercut the PR-4 full-clone baseline by >= 10x.
  const uint64_t cloned = engine->rotation_clone_bytes();
  EXPECT_GT(cloned, 0u);
  EXPECT_LT(cloned * 10, baseline)
      << "cloned=" << cloned << " baseline=" << baseline;

  // Aliasing is safe: the retired snapshot still shows its exact world.
  EXPECT_DOUBLE_EQ(old_state->graph->EdgeWeight(u, v).value(), w);
  EXPECT_DOUBLE_EQ(new_state->graph->EdgeWeight(u, v).value(), w * 2);
}

TEST(EngineStateTest, BatchedRotationMatchesSingleUpdateRotations) {
  const auto& ctx = CoreTestContext::Get();
  auto singles = ctx.MakeMethodEngine(MethodKind::kDij);
  auto batched = ctx.MakeMethodEngine(MethodKind::kDij);

  std::vector<StructuralUpdate> updates;
  for (NodeId u : {NodeId{0}, NodeId{7}, NodeId{20}}) {
    const Edge& e = ctx.graph.Neighbors(u)[0];
    updates.push_back(StructuralUpdate::SetWeight(u, e.to, e.weight * 1.5));
  }

  for (const StructuralUpdate& up : updates) {
    ASSERT_TRUE(singles->ApplyUpdates(&ctx.keys, {&up, 1}).ok());
  }
  auto version = batched->ApplyUpdates(&ctx.keys, updates);
  ASSERT_TRUE(version.ok());

  // Same final version from ONE rotation (== one clone, one signature).
  EXPECT_EQ(version.value(), updates.size());
  EXPECT_EQ(batched->current_epoch(), 2u);
  EXPECT_EQ(singles->current_epoch(), 1u + updates.size());

  // Deterministic signing over the same root and version means the
  // certificates agree byte for byte...
  ByteWriter singles_cert, batched_cert;
  singles->certificate().Serialize(&singles_cert);
  batched->certificate().Serialize(&batched_cert);
  EXPECT_EQ(singles_cert.view().size(), batched_cert.view().size());
  EXPECT_TRUE(std::equal(singles_cert.view().begin(),
                         singles_cert.view().end(),
                         batched_cert.view().begin()));

  // ...and so do the served answers, which also still verify.
  for (const Query& q : ctx.queries) {
    auto a = singles->Answer(q);
    auto b = batched->Answer(q);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a.value().bytes, b.value().bytes);
    EXPECT_TRUE(batched->Verify(q, b.value()).accepted);
  }
}

TEST(EngineStateTest, EmptyBatchPublishesNothing) {
  const auto& ctx = CoreTestContext::Get();
  auto engine = ctx.MakeMethodEngine(MethodKind::kDij);
  const std::shared_ptr<const EngineState> before = engine->CurrentState();
  auto version = engine->ApplyUpdates(&ctx.keys, {});
  ASSERT_TRUE(version.ok());
  EXPECT_EQ(version.value(), 0u);
  EXPECT_EQ(engine->CurrentState().get(), before.get());
  EXPECT_EQ(engine->current_epoch(), 1u);
}

// Aliasing-under-drain stress (runs under the TSan concurrency label):
// readers stay pinned on version v — re-verifying a version-v bundle and
// re-reading version-v graph state — while the writer drives rotations
// v+1..v+k (singles and batches) that share chunks with v and retire. The
// pinned world must never move, the bundle must keep verifying, and the
// cache books must conserve once everything drains.
TEST(EngineStateTest, PinnedReadersKeepVerifyingAcrossAliasedRotations) {
  const auto& ctx = CoreTestContext::Get();
  auto engine = MakeCachedEngine(MethodKind::kDij);
  const Query q = ctx.queries[0];
  auto answered = engine->AnswerShared(q);
  ASSERT_TRUE(answered.ok());
  std::shared_ptr<const ProofBundle> pinned_bundle =
      std::move(answered).value();
  std::shared_ptr<const EngineState> pinned = engine->CurrentState();

  const NodeId u = pinned_bundle->path.nodes[0];
  const NodeId v = pinned_bundle->path.nodes[1];
  const double old_w = ctx.graph.EdgeWeight(u, v).value();

  constexpr size_t kReaders = 2;
  constexpr size_t kRotations = 6;
  std::atomic<bool> stop{false};
  std::atomic<size_t> reject_count{0};
  std::atomic<size_t> drift_count{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        if (!engine->Verify(q, *pinned_bundle).accepted) {
          reject_count.fetch_add(1);
        }
        if (pinned->graph->EdgeWeight(u, v).value() != old_w ||
            pinned->certificate.params.version != 0) {
          drift_count.fetch_add(1);
        }
      }
    });
  }

  // Writer: rotate the exact edge the pinned snapshot is being read on —
  // alternating singles and batches — so every rotation copy-on-writes
  // chunks the readers alias.
  for (size_t i = 1; i <= kRotations; ++i) {
    const double step = static_cast<double>(i);
    if (i % 2 == 0) {
      const StructuralUpdate batch[] = {
          StructuralUpdate::SetWeight(u, v, old_w * (1.0 + 0.1 * step)),
          StructuralUpdate::SetWeight(u, v, old_w * (1.0 + 0.2 * step))};
      ASSERT_TRUE(engine->ApplyUpdates(&ctx.keys, batch).ok());
    } else {
      const double weight = old_w * (1.0 + 0.1 * step);
      ASSERT_TRUE(
          engine->ApplyUpdates(&ctx.keys, OneSetWeight(u, v, weight)).ok());
    }
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) {
    t.join();
  }

  EXPECT_EQ(reject_count.load(), 0u);  // retired bundles never turn invalid
  EXPECT_EQ(drift_count.load(), 0u);   // the pinned world never moved

  // Quiescence: drop the pins; every retired snapshot drains and the
  // books conserve despite all the chunk aliasing in between.
  pinned_bundle.reset();
  pinned.reset();
  EXPECT_EQ(engine->live_snapshots(), 1u);
  ExpectBooksConserve(engine->proof_cache_stats());
}

class NonDijUpdateTest : public ::testing::TestWithParam<MethodKind> {};

TEST_P(NonDijUpdateTest, FailedUpdateLeavesSnapshotAndCacheUntouched) {
  const auto& ctx = CoreTestContext::Get();
  auto engine = MakeCachedEngine(GetParam());
  const Query q = ctx.queries[0];
  auto before = engine->Answer(q);
  ASSERT_TRUE(before.ok());
  const std::shared_ptr<const EngineState> state_before =
      engine->CurrentState();
  const ProofCacheStats stats_before = engine->proof_cache_stats();

  const NodeId u = 0;
  const NodeId v = ctx.graph.Neighbors(0)[0].to;
  auto result = engine->ApplyUpdates(&ctx.keys, OneSetWeight(u, v, 2.0));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);

  // Same snapshot object, same epoch/version, cache books untouched, and
  // the cached bundle still serves byte-identically (as a hit).
  EXPECT_EQ(engine->CurrentState().get(), state_before.get());
  EXPECT_EQ(engine->current_epoch(), 1u);
  EXPECT_EQ(engine->certificate().params.version, 0u);
  EXPECT_EQ(engine->live_snapshots(), 1u);
  const ProofCacheStats stats_mid = engine->proof_cache_stats();
  EXPECT_EQ(stats_mid.insertions, stats_before.insertions);
  EXPECT_EQ(stats_mid.cleared, stats_before.cleared);
  EXPECT_EQ(stats_mid.entries, stats_before.entries);
  auto repeat = engine->Answer(q);
  ASSERT_TRUE(repeat.ok());
  EXPECT_EQ(repeat.value().bytes, before.value().bytes);
  EXPECT_EQ(engine->proof_cache_stats().hits, stats_before.hits + 1);
}

TEST_P(NonDijUpdateTest, BatchedUpdateAlsoFailsPrecondition) {
  const auto& ctx = CoreTestContext::Get();
  auto engine = MakeCachedEngine(GetParam());
  const std::shared_ptr<const EngineState> before = engine->CurrentState();
  const StructuralUpdate updates[] = {
      StructuralUpdate::SetWeight(0, ctx.graph.Neighbors(0)[0].to, 2.0),
      StructuralUpdate::SetWeight(1, ctx.graph.Neighbors(1)[0].to, 3.0)};
  auto result = engine->ApplyUpdates(&ctx.keys, updates);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine->CurrentState().get(), before.get());
  EXPECT_EQ(engine->current_epoch(), 1u);
  EXPECT_EQ(engine->rotation_clone_bytes(), 0u);

  // An empty batch is a no-op for every method, DIJ or not.
  auto empty = engine->ApplyUpdates(&ctx.keys, {});
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty.value(), 0u);
  EXPECT_EQ(engine->CurrentState().get(), before.get());
}

INSTANTIATE_TEST_SUITE_P(RebuildOnlyMethods, NonDijUpdateTest,
                         ::testing::Values(MethodKind::kFull,
                                           MethodKind::kLdm,
                                           MethodKind::kHyp),
                         [](const auto& info) {
                           return std::string(ToString(info.param));
                         });

}  // namespace
}  // namespace spauth
