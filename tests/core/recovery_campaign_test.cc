// Crash-recovery campaign over the durable state plane: seeded kill points
// at every durability seam (WAL append, WAL fsync, checkpoint write,
// snapshot publish) × recover-from-disk × byte-compare against a
// never-crashed twin at the last durable version, plus a corruption
// campaign (bit flips, truncation, stale-certificate rollback, WAL gaps)
// proving verify-on-load never false-accepts damaged state.
//
// What must hold:
//   - every kill point recovers to exactly the durable prefix — answers
//     byte-identical to a twin that applied only the batches that reached
//     the disk, never a torn or half-applied world;
//   - CRC-level damage (flip, truncation) costs a fallback to an older
//     snapshot plus WAL replay, never correctness;
//   - damage that survives checksums — a rolled-back authentic snapshot,
//     a tampered tuple with a patched CRC — is refused as kDataLoss by
//     the authenticated verify-on-load, never served and never retried;
//   - a replica frozen by a torn group rotation heals from its sibling's
//     live snapshot without waiting for the next rotation, byte-
//     transparently, and the heal books (resyncs/resync_failures)
//     conserve.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/core_test_context.h"
#include "core/engine.h"
#include "core/forest_certificate.h"
#include "core/sharded_engine.h"
#include "core/snapshot_store.h"
#include "core/wal.h"
#include "util/crc32.h"
#include "util/failpoint.h"
#include "util/rng.h"

namespace spauth {
namespace {

using testing::CoreTestContext;

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "spauth_recovery_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, std::span<const uint8_t> bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

struct UndirectedEdge {
  NodeId u, v;
  double weight;
};

std::vector<UndirectedEdge> CollectEdges(const Graph& g) {
  std::vector<UndirectedEdge> edges;
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    for (const Edge& e : g.Neighbors(n)) {
      if (n < e.to) {
        edges.push_back({n, e.to, e.weight});
      }
    }
  }
  return edges;
}

/// Deterministic batch i of 1–3 reweighted edges, same for every world
/// built from the shared fixture graph.
std::vector<StructuralUpdate> MakeBatch(
    const std::vector<UndirectedEdge>& edges, size_t i) {
  Rng rng(0xd0c0 + i * 7919);
  std::vector<StructuralUpdate> batch;
  const size_t count = 1 + rng.NextBounded(3);
  for (size_t j = 0; j < count; ++j) {
    const UndirectedEdge& e = edges[rng.NextBounded(edges.size())];
    batch.push_back(StructuralUpdate::SetWeight(
        e.u, e.v, e.weight * rng.NextDoubleIn(0.5, 2.0)));
  }
  return batch;
}

/// A durable world: one DIJ engine wired to a snapshot store (checkpointed
/// once at build) and a WAL, living in its own scratch directory.
struct World {
  std::string dir;
  std::string wal_path;
  std::unique_ptr<SnapshotStore> store;
  std::unique_ptr<Wal> wal;
  std::unique_ptr<MethodEngine> engine;
  uint32_t build_version = 0;
};

World MakeWorld(const std::string& name) {
  const auto& ctx = CoreTestContext::Get();
  World w;
  w.dir = FreshDir(name);
  w.wal_path = w.dir + "/updates.wal";
  w.engine = ctx.MakeMethodEngine(MethodKind::kDij);
  EXPECT_NE(w.engine, nullptr);
  w.build_version = w.engine->certificate().params.version;
  w.store = std::make_unique<SnapshotStore>(w.dir);
  EXPECT_TRUE(w.store->Write(*w.engine).ok());
  auto wal = Wal::Open(w.wal_path);
  EXPECT_TRUE(wal.ok()) << wal.status().ToString();
  w.wal = std::make_unique<Wal>(std::move(wal).value());
  w.engine->AttachWal(w.wal.get());
  return w;
}

/// "Crash" the world (drop the live engine and its WAL handle) and
/// recover from disk alone.
Result<RecoveryReport> CrashAndRecover(World& w) {
  w.engine.reset();
  w.wal.reset();
  return RecoverDijEngine(*w.store, w.wal_path,
                          CoreTestContext::DefaultOptions(MethodKind::kDij),
                          CoreTestContext::Get().keys);
}

/// The recovered world must serve byte-for-byte what the never-crashed
/// twin serves — the durability contract in one assertion.
void ExpectByteTransparent(MethodEngine& recovered, MethodEngine& twin) {
  for (const Query& q : CoreTestContext::Get().queries) {
    auto a = recovered.Answer(q);
    auto b = twin.Answer(q);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_EQ(a.value().bytes, b.value().bytes)
        << "recovery changed the wire bytes";
  }
}

// ---------------------------------------------------------------------------
// Kill points at every durability seam
// ---------------------------------------------------------------------------

TEST(RecoveryCampaignTest, EveryKillPointRecoversTheDurablePrefixByteForByte) {
  if (!FailPointsCompiledIn()) {
    GTEST_SKIP() << "built with -DSPAUTH_FAILPOINTS=OFF";
  }
  const auto& ctx = CoreTestContext::Get();
  const std::vector<UndirectedEdge> edges = CollectEdges(ctx.graph);
  struct Kill {
    const char* point;
    const char* scratch;   // world directory name
    bool batch_durable;    // did the killed batch reach the log first?
    bool torn_tail;        // does replay see a torn record?
  };
  const Kill kills[] = {
      // Crash before the record is appended: the batch never happened.
      {"wal/append", "kill_wal_append", false, false},
      // Crash between write and flush: a torn tail record replay must
      // detect and discard.
      {"wal/fsync", "kill_wal_fsync", false, true},
      // Crash after the append but before the in-memory publish: the
      // batch is durable though it was never served; replay re-drives it
      // and deterministic signing reproduces the identical certificate.
      {"engine/publish", "kill_engine_publish", true, false},
  };
  for (const Kill& kill : kills) {
    SCOPED_TRACE(kill.point);
    World w = MakeWorld(kill.scratch);
    ASSERT_NE(w.engine, nullptr);
    auto twin = ctx.MakeMethodEngine(MethodKind::kDij);
    ASSERT_NE(twin, nullptr);

    // Three healthy batches reach both worlds.
    for (size_t i = 0; i < 3; ++i) {
      const auto batch = MakeBatch(edges, i);
      ASSERT_TRUE(w.engine->ApplyUpdates(&ctx.keys, batch).ok());
      ASSERT_TRUE(twin->ApplyUpdates(&ctx.keys, batch).ok());
    }

    // The killed batch.
    const auto doomed = MakeBatch(edges, 3);
    FailPointRegistry::Global().ArmOneShot(kill.point);
    auto failed = w.engine->ApplyUpdates(&ctx.keys, doomed);
    FailPointRegistry::Global().Disarm(kill.point);
    ASSERT_FALSE(failed.ok()) << kill.point << " did not fire";
    EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
    if (kill.batch_durable) {
      // The twin is the durable truth: it applies what reached the disk.
      ASSERT_TRUE(twin->ApplyUpdates(&ctx.keys, doomed).ok());
    }

    auto recovered = CrashAndRecover(w);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    const RecoveryReport& report = recovered.value();
    EXPECT_EQ(report.snapshot_version, w.build_version);
    EXPECT_EQ(report.wal_torn_tail, kill.torn_tail);
    EXPECT_EQ(report.wal_records_replayed, kill.batch_durable ? 4u : 3u);
    EXPECT_EQ(report.wal_records_skipped, 0u);
    EXPECT_EQ(report.recovered_version, twin->certificate().params.version)
        << "recovery must land exactly on the durable version";
    ExpectByteTransparent(*report.engine, *twin);
  }
}

TEST(RecoveryCampaignTest, TornCheckpointLeavesOlderSnapshotPlusReplay) {
  if (!FailPointsCompiledIn()) {
    GTEST_SKIP() << "built with -DSPAUTH_FAILPOINTS=OFF";
  }
  const auto& ctx = CoreTestContext::Get();
  const std::vector<UndirectedEdge> edges = CollectEdges(ctx.graph);
  World w = MakeWorld("kill_snapshot_write");
  ASSERT_NE(w.engine, nullptr);
  auto twin = ctx.MakeMethodEngine(MethodKind::kDij);
  ASSERT_NE(twin, nullptr);
  for (size_t i = 0; i < 3; ++i) {
    const auto batch = MakeBatch(edges, i);
    ASSERT_TRUE(w.engine->ApplyUpdates(&ctx.keys, batch).ok());
    ASSERT_TRUE(twin->ApplyUpdates(&ctx.keys, batch).ok());
  }

  // The checkpoint dies mid-write: a torn temp file, no rename, the store
  // still lists only the build snapshot.
  FailPointRegistry::Global().ArmOneShot("snapshot/write");
  Status torn = w.store->Write(*w.engine);
  FailPointRegistry::Global().Disarm("snapshot/write");
  ASSERT_FALSE(torn.ok());
  EXPECT_EQ(torn.code(), StatusCode::kUnavailable);
  ASSERT_EQ(w.store->ListVersions().size(), 1u)
      << "a torn checkpoint must never appear under the real name";

  // Recovery rides the old snapshot + full replay...
  {
    World crashed = MakeWorld("kill_snapshot_write_probe");
    crashed.store = std::make_unique<SnapshotStore>(w.dir);
    crashed.wal_path = w.wal_path;
    crashed.engine.reset();
    crashed.wal.reset();
    auto recovered =
        RecoverDijEngine(*crashed.store, crashed.wal_path,
                         CoreTestContext::DefaultOptions(MethodKind::kDij),
                         ctx.keys);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_EQ(recovered.value().snapshot_version, w.build_version);
    EXPECT_EQ(recovered.value().wal_records_replayed, 3u);
    ExpectByteTransparent(*recovered.value().engine, *twin);
  }

  // ...and once the fault clears, the retried checkpoint supersedes the
  // log: recovery now loads it directly and skips every absorbed record.
  ASSERT_TRUE(w.store->Write(*w.engine).ok());
  ASSERT_EQ(w.store->ListVersions().size(), 2u);
  auto recovered = CrashAndRecover(w);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered.value().snapshot_version,
            twin->certificate().params.version);
  EXPECT_EQ(recovered.value().wal_records_replayed, 0u);
  EXPECT_EQ(recovered.value().wal_records_skipped, 3u);
  ExpectByteTransparent(*recovered.value().engine, *twin);
}

// ---------------------------------------------------------------------------
// Checkpoint = snapshot publish + WAL truncate: the log stays bounded and
// every crash around the truncate still recovers byte-identical
// ---------------------------------------------------------------------------

TEST(RecoveryCampaignTest, CheckpointTruncatesTheWalAndRecoversByteIdentical) {
  const auto& ctx = CoreTestContext::Get();
  const std::vector<UndirectedEdge> edges = CollectEdges(ctx.graph);
  World w = MakeWorld("checkpoint_truncate");
  ASSERT_NE(w.engine, nullptr);
  auto twin = ctx.MakeMethodEngine(MethodKind::kDij);
  ASSERT_NE(twin, nullptr);
  for (size_t i = 0; i < 3; ++i) {
    const auto batch = MakeBatch(edges, i);
    ASSERT_TRUE(w.engine->ApplyUpdates(&ctx.keys, batch).ok());
    ASSERT_TRUE(twin->ApplyUpdates(&ctx.keys, batch).ok());
  }
  ASSERT_EQ(Wal::Read(w.wal_path).value().records.size(), 3u);

  // The checkpoint absorbs the log: snapshot published, WAL empty.
  ASSERT_TRUE(w.store->Checkpoint(*w.engine, w.wal.get()).ok());
  EXPECT_EQ(std::filesystem::file_size(w.wal_path), 0u)
      << "a successful checkpoint must leave an empty log";
  EXPECT_TRUE(Wal::Read(w.wal_path).value().records.empty());

  // Post-checkpoint updates land in the fresh log and replay on top of
  // the new snapshot.
  const auto tail = MakeBatch(edges, 3);
  ASSERT_TRUE(w.engine->ApplyUpdates(&ctx.keys, tail).ok());
  ASSERT_TRUE(twin->ApplyUpdates(&ctx.keys, tail).ok());
  const uint32_t checkpoint_version = twin->certificate().params.version -
                                      static_cast<uint32_t>(tail.size());

  auto recovered = CrashAndRecover(w);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered.value().snapshot_version, checkpoint_version);
  EXPECT_EQ(recovered.value().wal_records_replayed, 1u);
  EXPECT_EQ(recovered.value().wal_records_skipped, 0u)
      << "nothing to skip: the truncate already dropped the absorbed prefix";
  ExpectByteTransparent(*recovered.value().engine, *twin);
}

TEST(RecoveryCampaignTest, KillInsideTheTruncateStillRecoversByteIdentical) {
  if (!FailPointsCompiledIn()) {
    GTEST_SKIP() << "built with -DSPAUTH_FAILPOINTS=OFF";
  }
  const auto& ctx = CoreTestContext::Get();
  const std::vector<UndirectedEdge> edges = CollectEdges(ctx.graph);
  World w = MakeWorld("checkpoint_kill_reset");
  ASSERT_NE(w.engine, nullptr);
  auto twin = ctx.MakeMethodEngine(MethodKind::kDij);
  ASSERT_NE(twin, nullptr);
  for (size_t i = 0; i < 3; ++i) {
    const auto batch = MakeBatch(edges, i);
    ASSERT_TRUE(w.engine->ApplyUpdates(&ctx.keys, batch).ok());
    ASSERT_TRUE(twin->ApplyUpdates(&ctx.keys, batch).ok());
  }

  // The crash between publish and truncate: the snapshot is durable, the
  // stale full log survives next to it.
  FailPointRegistry::Global().ArmOneShot("wal/reset");
  Status killed = w.store->Checkpoint(*w.engine, w.wal.get());
  FailPointRegistry::Global().Disarm("wal/reset");
  ASSERT_FALSE(killed.ok());
  EXPECT_EQ(killed.code(), StatusCode::kUnavailable);
  EXPECT_EQ(Wal::Read(w.wal_path).value().records.size(), 3u)
      << "the kill point must leave the log untouched";
  ASSERT_EQ(w.store->ListVersions().size(), 2u)
      << "the snapshot publish itself must have survived";

  // One more batch lands in the (stale, never truncated) log.
  const auto tail = MakeBatch(edges, 3);
  ASSERT_TRUE(w.engine->ApplyUpdates(&ctx.keys, tail).ok());
  ASSERT_TRUE(twin->ApplyUpdates(&ctx.keys, tail).ok());

  // Recovery: newest snapshot + skip the absorbed prefix + replay the
  // tail — byte-identical to the twin, as if the truncate had finished.
  auto recovered = CrashAndRecover(w);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered.value().wal_records_skipped, 3u);
  EXPECT_EQ(recovered.value().wal_records_replayed, 1u);
  EXPECT_EQ(recovered.value().recovered_version,
            twin->certificate().params.version);
  ExpectByteTransparent(*recovered.value().engine, *twin);
}

// ---------------------------------------------------------------------------
// Retention GC: keep-last-N, never the newest verified snapshot
// ---------------------------------------------------------------------------

TEST(RecoveryCampaignTest, GcKeepsLastNAndNeverTheNewestVerifiedSnapshot) {
  const auto& ctx = CoreTestContext::Get();
  const std::vector<UndirectedEdge> edges = CollectEdges(ctx.graph);
  World w = MakeWorld("gc_retention");
  ASSERT_NE(w.engine, nullptr);
  for (size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        w.engine->ApplyUpdates(&ctx.keys, MakeBatch(edges, i)).ok());
    ASSERT_TRUE(w.store->Write(*w.engine).ok());
  }
  std::vector<uint32_t> versions = w.store->ListVersions();
  ASSERT_EQ(versions.size(), 5u);

  // CRC-corrupt the newest file: the newest *verified* snapshot is now the
  // second newest, and no sweep may ever delete it.
  {
    std::vector<uint8_t> bytes = ReadFileBytes(w.store->PathFor(versions[0]));
    bytes[bytes.size() / 2] ^= 0x20;
    WriteFileBytes(w.store->PathFor(versions[0]), bytes);
  }

  auto gc = w.store->GarbageCollect(/*keep_last_n=*/2, ctx.keys.public_key());
  ASSERT_TRUE(gc.ok()) << gc.status().ToString();
  EXPECT_EQ(gc.value().protected_version, versions[1]);
  EXPECT_EQ(gc.value().removed, 3u);
  EXPECT_EQ(gc.value().kept, 2u);
  EXPECT_EQ(w.store->ListVersions(),
            (std::vector<uint32_t>{versions[0], versions[1]}));

  // Load falls back across the corrupt newest onto the protected file.
  auto loaded = w.store->LoadNewest(ctx.keys.public_key());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().version, versions[1]);

  // keep_last_n = 1 would evict the verified file by count — the
  // protection clause must keep it anyway.
  gc = w.store->GarbageCollect(/*keep_last_n=*/1, ctx.keys.public_key());
  ASSERT_TRUE(gc.ok());
  EXPECT_EQ(gc.value().removed, 0u);
  EXPECT_EQ(w.store->ListVersions().size(), 2u);

  // When NO candidate verifies, the sweep must delete nothing at all.
  {
    std::vector<uint8_t> bytes = ReadFileBytes(w.store->PathFor(versions[1]));
    bytes[bytes.size() / 2] ^= 0x20;
    WriteFileBytes(w.store->PathFor(versions[1]), bytes);
  }
  gc = w.store->GarbageCollect(/*keep_last_n=*/1, ctx.keys.public_key());
  ASSERT_TRUE(gc.ok());
  EXPECT_EQ(gc.value().removed, 0u);
  EXPECT_EQ(gc.value().kept, 2u);
  EXPECT_EQ(w.store->ListVersions().size(), 2u)
      << "an all-damaged store needs forensics, not cleanup";

  EXPECT_FALSE(w.store->GarbageCollect(0, ctx.keys.public_key()).ok());
}

TEST(RecoveryCampaignTest, GcRacingFallbackLoadAlwaysLandsOnVerifiedState) {
  const auto& ctx = CoreTestContext::Get();
  const std::vector<UndirectedEdge> edges = CollectEdges(ctx.graph);
  World w = MakeWorld("gc_race");
  ASSERT_NE(w.engine, nullptr);
  for (size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        w.engine->ApplyUpdates(&ctx.keys, MakeBatch(edges, i)).ok());
    ASSERT_TRUE(w.store->Write(*w.engine).ok());
  }
  const std::vector<uint32_t> versions = w.store->ListVersions();
  ASSERT_EQ(versions.size(), 5u);
  // CRC-corrupt the two newest files so every load walks a fallback chain
  // — the window a concurrent delete could otherwise yank away.
  for (size_t i = 0; i < 2; ++i) {
    std::vector<uint8_t> bytes = ReadFileBytes(w.store->PathFor(versions[i]));
    bytes[bytes.size() / 2] ^= 0x20;
    WriteFileBytes(w.store->PathFor(versions[i]), bytes);
  }
  const uint32_t verified = versions[2];

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  std::atomic<size_t> loads{0};
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto loaded = w.store->LoadNewest(ctx.keys.public_key());
        ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
        EXPECT_EQ(loaded.value().version, verified)
            << "a racing sweep exposed an unverified fallback";
        loads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Sweep repeatedly while the readers hammer the fallback chain. The
  // protected file (the one every fallback terminates on) must survive
  // every pass by construction.
  for (int pass = 0; pass < 8; ++pass) {
    auto gc = w.store->GarbageCollect(/*keep_last_n=*/1, ctx.keys.public_key());
    ASSERT_TRUE(gc.ok()) << gc.status().ToString();
    EXPECT_EQ(gc.value().protected_version, verified);
  }
  stop.store(true);
  for (std::thread& t : readers) {
    t.join();
  }
  EXPECT_GT(loads.load(), 0u);
  const std::vector<uint32_t> survivors = w.store->ListVersions();
  EXPECT_TRUE(std::find(survivors.begin(), survivors.end(), verified) !=
              survivors.end());
}

// ---------------------------------------------------------------------------
// Corruption classes: CRC-level damage falls back, authenticated damage
// refuses
// ---------------------------------------------------------------------------

TEST(RecoveryCampaignTest, FlippedAndTruncatedCheckpointsFallBackNotLie) {
  const auto& ctx = CoreTestContext::Get();
  const std::vector<UndirectedEdge> edges = CollectEdges(ctx.graph);
  World w = MakeWorld("corrupt_fallback");
  ASSERT_NE(w.engine, nullptr);
  auto twin = ctx.MakeMethodEngine(MethodKind::kDij);
  ASSERT_NE(twin, nullptr);
  for (size_t i = 0; i < 2; ++i) {
    const auto batch = MakeBatch(edges, i);
    ASSERT_TRUE(w.engine->ApplyUpdates(&ctx.keys, batch).ok());
    ASSERT_TRUE(twin->ApplyUpdates(&ctx.keys, batch).ok());
  }
  ASSERT_TRUE(w.store->Write(*w.engine).ok());
  const auto versions = w.store->ListVersions();
  ASSERT_EQ(versions.size(), 2u);
  const std::string newest = w.store->PathFor(versions[0]);

  // Bit flip in the newest checkpoint: the CRC catches it, recovery falls
  // back to the build snapshot and replays the whole log — correctness
  // costs replay, never a wrong answer.
  std::vector<uint8_t> pristine = ReadFileBytes(newest);
  std::vector<uint8_t> flipped = pristine;
  flipped[flipped.size() / 2] ^= 0x40;
  WriteFileBytes(newest, flipped);
  {
    auto recovered =
        RecoverDijEngine(*w.store, w.wal_path,
                         CoreTestContext::DefaultOptions(MethodKind::kDij),
                         ctx.keys);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_EQ(recovered.value().snapshot_version, w.build_version);
    EXPECT_EQ(recovered.value().wal_records_replayed, 2u);
    ExpectByteTransparent(*recovered.value().engine, *twin);
  }

  // Truncation: same fallback.
  WriteFileBytes(newest, std::span<const uint8_t>(pristine.data(),
                                                  pristine.size() / 3));
  {
    auto recovered =
        RecoverDijEngine(*w.store, w.wal_path,
                         CoreTestContext::DefaultOptions(MethodKind::kDij),
                         ctx.keys);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_EQ(recovered.value().snapshot_version, w.build_version);
    ExpectByteTransparent(*recovered.value().engine, *twin);
  }

  // Every candidate damaged: an explicit, non-retryable refusal — not a
  // crash, not a silent serve of garbage.
  const std::string oldest = w.store->PathFor(versions[1]);
  std::vector<uint8_t> old_bytes = ReadFileBytes(oldest);
  old_bytes[old_bytes.size() / 2] ^= 0x01;
  WriteFileBytes(oldest, old_bytes);
  auto refused = CrashAndRecover(w);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kDataLoss)
      << refused.status().ToString();
  EXPECT_FALSE(IsRetryable(refused.status().code()))
      << "data loss must never be retried into a failover storm";
}

TEST(RecoveryCampaignTest, CrcPatchedTamperingNeverFalseAccepts) {
  const auto& ctx = CoreTestContext::Get();
  World w = MakeWorld("tamper_sweep");
  ASSERT_NE(w.engine, nullptr);
  const auto versions = w.store->ListVersions();
  ASSERT_EQ(versions.size(), 1u);
  const std::vector<uint8_t> pristine =
      ReadFileBytes(w.store->PathFor(versions[0]));
  ASSERT_TRUE(DecodeAndVerifySnapshot(pristine, ctx.keys.public_key()).ok());

  // File layout: magic u32, format u32, then one framed record (len u32,
  // crc u32, payload). A tamper that re-computes the CRC slips past every
  // checksum — only the authenticated verify-on-load stands between it
  // and a serving engine. Sweep flips across the payload: certificate
  // bytes break the signature, tuple bytes break the recomputed Merkle
  // root, order bytes break the leaf mapping; none may decode OK.
  constexpr size_t kHeader = 16;
  ASSERT_GT(pristine.size(), kHeader + 64);
  const size_t payload_size = pristine.size() - kHeader;
  size_t refusals = 0;
  for (size_t i = 0; i < 64; ++i) {
    std::vector<uint8_t> tampered = pristine;
    const size_t offset = kHeader + (payload_size * i) / 64;
    tampered[offset] ^= 0x10;
    const uint32_t crc = Crc32(
        std::span<const uint8_t>(tampered.data() + kHeader, payload_size));
    tampered[12] = static_cast<uint8_t>(crc);
    tampered[13] = static_cast<uint8_t>(crc >> 8);
    tampered[14] = static_cast<uint8_t>(crc >> 16);
    tampered[15] = static_cast<uint8_t>(crc >> 24);
    auto decoded = DecodeAndVerifySnapshot(tampered, ctx.keys.public_key());
    ASSERT_FALSE(decoded.ok())
        << "flip at offset " << offset << " was silently accepted";
    EXPECT_TRUE(decoded.status().code() == StatusCode::kDataLoss ||
                decoded.status().code() == StatusCode::kCorruption)
        << decoded.status().ToString();
    refusals += decoded.status().code() == StatusCode::kDataLoss;
  }
  // At least the tuple region (the bulk of the payload) must be caught by
  // the authenticated check, not by a structural accident.
  EXPECT_GT(refusals, 0u) << "no flip exercised verify-on-load";
}

TEST(RecoveryCampaignTest, StaleCertificateRollbackIsRefusedAsDataLoss) {
  const auto& ctx = CoreTestContext::Get();
  const std::vector<UndirectedEdge> edges = CollectEdges(ctx.graph);
  World w = MakeWorld("stale_rollback");
  ASSERT_NE(w.engine, nullptr);
  const auto batch = MakeBatch(edges, 0);
  ASSERT_TRUE(w.engine->ApplyUpdates(&ctx.keys, batch).ok());
  ASSERT_TRUE(w.store->Write(*w.engine).ok());
  const auto versions = w.store->ListVersions();
  ASSERT_EQ(versions.size(), 2u);

  // The rollback attack: overwrite the newest checkpoint with the older
  // one's bytes. CRC valid, signature valid, Merkle root valid — only the
  // file-name/certificate version cross-check catches that the store was
  // rolled back, and it must refuse immediately rather than fall back.
  const std::vector<uint8_t> stale = ReadFileBytes(w.store->PathFor(versions[1]));
  WriteFileBytes(w.store->PathFor(versions[0]), stale);
  auto refused = CrashAndRecover(w);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kDataLoss)
      << refused.status().ToString();
  EXPECT_FALSE(IsRetryable(refused.status().code()));
}

TEST(RecoveryCampaignTest, WalGapIsDataLossWalFlipKeepsTheValidPrefix) {
  const auto& ctx = CoreTestContext::Get();
  const std::vector<UndirectedEdge> edges = CollectEdges(ctx.graph);
  World w = MakeWorld("wal_damage");
  ASSERT_NE(w.engine, nullptr);
  auto twin = ctx.MakeMethodEngine(MethodKind::kDij);
  ASSERT_NE(twin, nullptr);
  const auto first = MakeBatch(edges, 0);
  const auto second = MakeBatch(edges, 1);
  ASSERT_TRUE(w.engine->ApplyUpdates(&ctx.keys, first).ok());
  ASSERT_TRUE(w.engine->ApplyUpdates(&ctx.keys, second).ok());
  ASSERT_TRUE(twin->ApplyUpdates(&ctx.keys, first).ok());
  const std::vector<uint8_t> log = ReadFileBytes(w.wal_path);

  // Flip a byte inside the second record: replay keeps the valid prefix
  // and recovery lands on exactly batch one.
  WalRecord probe;
  probe.base_version = 0;
  probe.updates.assign(first.begin(), first.end());
  ByteWriter probe_payload;
  probe.Serialize(&probe_payload);
  const size_t first_frame = FramedRecordSize(probe_payload.view().size());
  ASSERT_GT(log.size(), first_frame + 12);
  std::vector<uint8_t> flipped = log;
  flipped[first_frame + 10] ^= 0x08;
  WriteFileBytes(w.wal_path, flipped);
  {
    auto recovered =
        RecoverDijEngine(*w.store, w.wal_path,
                         CoreTestContext::DefaultOptions(MethodKind::kDij),
                         ctx.keys);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_TRUE(recovered.value().wal_torn_tail);
    EXPECT_EQ(recovered.value().wal_records_replayed, 1u);
    EXPECT_EQ(recovered.value().recovered_version,
              twin->certificate().params.version);
    ExpectByteTransparent(*recovered.value().engine, *twin);
  }

  // Drop the first record entirely: the log now starts past the snapshot
  // — a gap no replay can bridge, refused as data loss.
  WriteFileBytes(w.wal_path,
                 std::span<const uint8_t>(log.data() + first_frame,
                                          log.size() - first_frame));
  auto refused = CrashAndRecover(w);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kDataLoss)
      << refused.status().ToString();
  EXPECT_FALSE(IsRetryable(refused.status().code()));
}

// ---------------------------------------------------------------------------
// Owner-side replica heal: a torn group rotation self-repairs from a
// sibling without waiting for the next rotation
// ---------------------------------------------------------------------------

class ReplicaHealTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!FailPointsCompiledIn()) {
      GTEST_SKIP() << "built with -DSPAUTH_FAILPOINTS=OFF";
    }
    const auto& ctx = CoreTestContext::Get();
    FailoverOptions failover;
    failover.replicas_per_group = 2;
    EngineOptions options = CoreTestContext::DefaultOptions(MethodKind::kDij);
    auto fleet = ShardedEngine::BuildReplicated(ctx.graph, options,
                                                /*num_groups=*/1, ctx.keys,
                                                failover);
    ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
    fleet_ = std::move(fleet).value();
    edges_ = CollectEdges(ctx.graph);
  }

  /// Tears one rotation: replica 0 publishes the new version, replica 1's
  /// publish faults, leaving it one version behind its sibling.
  void TearRotation() {
    const auto& ctx = CoreTestContext::Get();
    const auto batch = MakeBatch(edges_, 0);
    FailPointRegistry::Global().ArmOneShot("engine/publish", /*after=*/1);
    auto torn = fleet_->ApplyUpdates(0, ctx.keys, batch);
    FailPointRegistry::Global().Disarm("engine/publish");
    ASSERT_FALSE(torn.ok()) << "the publish fault did not fire";
    // One rotation signs version + batch-size, so the laggard trails by
    // exactly the torn batch.
    ASSERT_EQ(Version(0), Version(1) + batch.size())
        << "replica 1 must be exactly one torn rotation behind";
  }

  uint32_t Version(size_t engine) const {
    return fleet_->shard(engine).certificate().params.version;
  }

  void ExpectReplicasByteTransparent() {
    for (const Query& q : CoreTestContext::Get().queries) {
      auto a = fleet_->shard(0).Answer(q);
      auto b = fleet_->shard(1).Answer(q);
      ASSERT_TRUE(a.ok() && b.ok());
      EXPECT_EQ(a.value().bytes, b.value().bytes);
    }
  }

  std::unique_ptr<ShardedEngine> fleet_;
  std::vector<UndirectedEdge> edges_;
};

TEST_F(ReplicaHealTest, FrozenReplicaHealsFromSiblingWithoutARotation) {
  TearRotation();
  const uint32_t target = Version(0);

  auto healed = fleet_->HealGroup(0);
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
  EXPECT_EQ(healed.value(), 1u);
  EXPECT_EQ(Version(1), target) << "the laggard must adopt the sibling's version";
  ExpectReplicasByteTransparent();

  const ShardedStats stats = fleet_->GetStats();
  EXPECT_EQ(stats.shards[1].resyncs, 1u);
  EXPECT_EQ(stats.shards[0].resyncs, 0u);
  EXPECT_EQ(stats.totals.resyncs, 1u);
  EXPECT_EQ(stats.totals.resync_failures, 0u);
  testing::ExpectShardStatsConserve(stats);

  // Idempotent: a lock-step group has nothing to heal.
  auto again = fleet_->Heal();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value(), 0u);
  EXPECT_EQ(fleet_->GetStats().totals.resyncs, 1u);
}

TEST_F(ReplicaHealTest, NextRotationAutoHealsBeforeApplying) {
  TearRotation();
  const auto& ctx = CoreTestContext::Get();

  // The very next rotation first converges the group, then applies — both
  // replicas land on one version signing one world.
  const auto batch = MakeBatch(edges_, 1);
  auto applied = fleet_->ApplyUpdates(0, ctx.keys, batch);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(Version(0), applied.value());
  EXPECT_EQ(Version(1), applied.value());
  ExpectReplicasByteTransparent();
  EXPECT_EQ(fleet_->GetStats().totals.resyncs, 1u);
}

TEST_F(ReplicaHealTest, ResyncFaultAbortsHealAndRotationRetryably) {
  TearRotation();
  const auto& ctx = CoreTestContext::Get();
  const uint32_t lagging = Version(1);
  const uint32_t ahead = Version(0);

  FailPointSpec spec;
  spec.mode = FailPointMode::kProbability;
  spec.probability = 1.0;
  spec.has_match_arg = true;
  spec.match_arg = 1;  // engine index of the laggard
  {
    ScopedFailPoint resync_down("replica/resync", spec);
    auto healed = fleet_->HealGroup(0);
    ASSERT_FALSE(healed.ok());
    EXPECT_EQ(healed.status().code(), StatusCode::kUnavailable);
    EXPECT_TRUE(IsRetryable(healed.status().code()));
    EXPECT_EQ(Version(1), lagging) << "a failed heal must not move the replica";

    // The rotation aborts on the failed pre-heal instead of compounding
    // the divergence.
    auto applied =
        fleet_->ApplyUpdates(0, ctx.keys, MakeBatch(edges_, 1));
    ASSERT_FALSE(applied.ok());
    EXPECT_EQ(applied.status().code(), StatusCode::kUnavailable);
    EXPECT_EQ(Version(0), ahead);
    EXPECT_EQ(Version(1), lagging);
  }
  EXPECT_EQ(fleet_->GetStats().totals.resync_failures, 2u);

  // Fault cleared: the retry heals and the group converges.
  auto healed = fleet_->HealGroup(0);
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
  EXPECT_EQ(healed.value(), 1u);
  EXPECT_EQ(Version(1), Version(0));
  ExpectReplicasByteTransparent();
  const ShardedStats stats = fleet_->GetStats();
  EXPECT_EQ(stats.totals.resyncs, 1u);
  EXPECT_EQ(stats.totals.resync_failures, 2u);
  testing::ExpectShardStatsConserve(stats);
}

// ---------------------------------------------------------------------------
// Mid-fleet kill point: a crash partway through a FLEET rotation recovers
// shards into mixed certificate versions; ReconcileFleetEpoch must roll
// the laggards forward so the next forest publish covers one uniform
// epoch instead of certifying a fleet that never existed.
// ---------------------------------------------------------------------------

TEST(RecoveryCampaignTest, MidFleetKillRecoversMixedEpochsAndReconciles) {
  const auto& ctx = CoreTestContext::Get();
  const std::vector<UndirectedEdge> edges = CollectEdges(ctx.graph);
  const auto batch0 = MakeBatch(edges, 40);
  const auto batch1 = MakeBatch(edges, 41);

  // Three durable worlds — a replicated fleet, each shard with its own
  // snapshot store + WAL. Batch 0 lands fleet-wide; the "fleet rotation"
  // of batch 1 dies after shard 0 and shard 1 absorbed it, before shard 2.
  World worlds[3] = {MakeWorld("fleet_w0"), MakeWorld("fleet_w1"),
                     MakeWorld("fleet_w2")};
  for (World& w : worlds) {
    ASSERT_TRUE(w.engine->ApplyUpdates(&ctx.keys, batch0).ok());
  }
  ASSERT_TRUE(worlds[0].engine->ApplyUpdates(&ctx.keys, batch1).ok());
  ASSERT_TRUE(worlds[1].engine->ApplyUpdates(&ctx.keys, batch1).ok());

  // Crash the whole fleet; recover every shard from its own disk.
  std::vector<std::unique_ptr<MethodEngine>> recovered;
  for (World& w : worlds) {
    auto r = CrashAndRecover(w);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    recovered.push_back(std::move(r.value().engine));
  }

  // The durable truth IS mixed: two shards a batch ahead of the third
  // (versions advance by the batch's update count).
  const uint32_t ahead = recovered[0]->certificate().params.version;
  EXPECT_EQ(recovered[1]->certificate().params.version, ahead);
  EXPECT_LT(recovered[2]->certificate().params.version, ahead);

  // Reconcile: the laggard adopts the most advanced recovered snapshot.
  std::vector<MethodEngine*> fleet = {recovered[0].get(), recovered[1].get(),
                                      recovered[2].get()};
  auto rolled = ReconcileFleetEpoch(fleet);
  ASSERT_TRUE(rolled.ok()) << rolled.status().ToString();
  EXPECT_EQ(rolled.value(), 1u);
  for (MethodEngine* engine : fleet) {
    EXPECT_EQ(engine->certificate().params.version, ahead);
  }

  // The reconciled fleet serves byte-for-byte what a never-crashed twin
  // that applied both batches serves — from every shard.
  auto twin = ctx.MakeMethodEngine(MethodKind::kDij);
  ASSERT_NE(twin, nullptr);
  ASSERT_TRUE(twin->ApplyUpdates(&ctx.keys, batch0).ok());
  ASSERT_TRUE(twin->ApplyUpdates(&ctx.keys, batch1).ok());
  for (MethodEngine* engine : fleet) {
    ExpectByteTransparent(*engine, *twin);
  }

  // A forest built over the reconciled fleet certifies one uniform epoch:
  // every shard's answer authenticates through its path.
  std::vector<Digest> leaves;
  for (MethodEngine* engine : fleet) {
    leaves.push_back(engine->certificate().BodyDigest());
  }
  ForestParams params;
  params.fleet_epoch = 1;
  params.num_shards = static_cast<uint32_t>(leaves.size());
  auto forest = BuildForestCertificate(ctx.keys, params, leaves);
  ASSERT_TRUE(forest.ok()) << forest.status().ToString();
  for (size_t s = 0; s < fleet.size(); ++s) {
    EXPECT_TRUE(CheckForestPath(forest.value().certificate,
                                forest.value().paths[s], leaves[s])
                    .ok());
  }

  // Idempotent: an already uniform fleet reconciles to zero rolls.
  EXPECT_EQ(ReconcileFleetEpoch(fleet).value(), 0u);
}

// ---------------------------------------------------------------------------
// Typed WAL records: unknown kinds refuse, mid-log damage is not a tail
// tear, and structural batches replay byte-identically
// ---------------------------------------------------------------------------

/// Deterministic structural batch: add a vertex at a seeded coordinate and
/// wire it to a seeded anchor. `next_id` is the graph's node count at
/// apply time (ids stay dense).
std::vector<StructuralUpdate> MakeStructuralBatch(NodeId next_id, size_t i) {
  Rng rng(0x57a7 + i * 104729);
  return {
      StructuralUpdate::AddVertex(rng.NextDoubleIn(0.0, 4500.0),
                                  rng.NextDoubleIn(0.0, 4500.0)),
      StructuralUpdate::AddEdge(next_id,
                                static_cast<NodeId>(rng.NextBounded(next_id)),
                                rng.NextDoubleIn(10.0, 400.0)),
  };
}

TEST(WalTypedRecordTest, UnknownRecordKindIsDataLossNeverSkipped) {
  const auto& ctx = CoreTestContext::Get();
  const std::vector<UndirectedEdge> edges = CollectEdges(ctx.graph);
  const std::string dir = FreshDir("wal_unknown_kind");
  const std::string path = dir + "/updates.wal";
  {
    auto wal = Wal::Open(path);
    ASSERT_TRUE(wal.ok());
    WalRecord record;
    record.base_version = 0;
    const auto batch = MakeBatch(edges, 0);
    record.updates.assign(batch.begin(), batch.end());
    ASSERT_TRUE(wal.value().Append(record).ok());
  }
  const std::vector<uint8_t> log = ReadFileBytes(path);

  // A CRC-clean frame whose payload leads with a kind this build does not
  // know — a future format, not a crash artifact. The frame is whole, so
  // this is NOT a torn tail; and it must never be silently skipped, even
  // with a perfectly valid record sitting behind it.
  std::vector<uint8_t> future_kind = {0x63, 0, 0, 0, 0, 0, 0, 0, 0};
  std::vector<uint8_t> damaged = log;
  AppendFramedRecord(future_kind, &damaged);
  damaged.insert(damaged.end(), log.begin(), log.end());  // valid bytes after
  WriteFileBytes(path, damaged);

  auto refused = Wal::Read(path);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kDataLoss)
      << refused.status().ToString();

  // The same unknown-kind frame at the very END is still kDataLoss: the
  // CRC passed, so the frame was written whole — a tear breaks the CRC.
  std::vector<uint8_t> at_tail = log;
  AppendFramedRecord(future_kind, &at_tail);
  WriteFileBytes(path, at_tail);
  auto tail_refused = Wal::Read(path);
  ASSERT_FALSE(tail_refused.ok());
  EXPECT_EQ(tail_refused.status().code(), StatusCode::kDataLoss);
}

TEST(WalTypedRecordTest, MidLogDamageIsDataLossOnlyTheTailMayTear) {
  const auto& ctx = CoreTestContext::Get();
  const std::vector<UndirectedEdge> edges = CollectEdges(ctx.graph);
  const std::string dir = FreshDir("wal_mid_log");
  const std::string path = dir + "/updates.wal";
  std::vector<size_t> frame_ends;  // cumulative end offset of each record
  {
    auto wal = Wal::Open(path);
    ASSERT_TRUE(wal.ok());
    uint32_t version = 0;
    for (size_t i = 0; i < 3; ++i) {
      WalRecord record;
      record.base_version = version;
      const auto batch = MakeBatch(edges, 10 + i);
      record.updates.assign(batch.begin(), batch.end());
      ASSERT_TRUE(wal.value().Append(record).ok());
      version += static_cast<uint32_t>(batch.size());
      ByteWriter payload;
      record.Serialize(&payload);
      const size_t frame = FramedRecordSize(payload.view().size());
      frame_ends.push_back(frame_ends.empty() ? frame
                                              : frame_ends.back() + frame);
    }
  }
  const std::vector<uint8_t> log = ReadFileBytes(path);
  ASSERT_EQ(log.size(), frame_ends[2]);

  // Flip a byte inside the MIDDLE record: there are committed bytes behind
  // the damage, so this cannot be a crash tail — refuse, do not truncate
  // away a committed suffix.
  std::vector<uint8_t> mid_flip = log;
  mid_flip[frame_ends[0] + 10] ^= 0x40;
  WriteFileBytes(path, mid_flip);
  auto refused = Wal::Read(path);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kDataLoss)
      << refused.status().ToString();

  // The SAME flip in the last record is a genuine crash shape: a tear at
  // the tail. Replay keeps the two whole records and reports the tear.
  std::vector<uint8_t> tail_flip = log;
  tail_flip[frame_ends[1] + 10] ^= 0x40;
  WriteFileBytes(path, tail_flip);
  auto torn = Wal::Read(path);
  ASSERT_TRUE(torn.ok()) << torn.status().ToString();
  EXPECT_TRUE(torn.value().torn_tail);
  EXPECT_EQ(torn.value().records.size(), 2u);
  EXPECT_EQ(torn.value().valid_bytes, frame_ends[1]);

  // A truncated tail record — the classic torn write — is also accepted.
  WriteFileBytes(path, std::span<const uint8_t>(log.data(),
                                                frame_ends[1] + 7));
  auto truncated = Wal::Read(path);
  ASSERT_TRUE(truncated.ok()) << truncated.status().ToString();
  EXPECT_TRUE(truncated.value().torn_tail);
  EXPECT_EQ(truncated.value().records.size(), 2u);
}

TEST(WalTypedRecordTest, EveryOpKindRoundTripsExactly) {
  const std::string dir = FreshDir("wal_structural_roundtrip");
  const std::string path = dir + "/updates.wal";
  WalRecord record;
  record.base_version = 5;
  record.updates = {
      StructuralUpdate::AddEdge(3, 9, 42.5),
      StructuralUpdate::RemoveEdge(1, 2),
      StructuralUpdate::AddVertex(-12.25, 900.75),
      StructuralUpdate::SetWeight(4, 7, 0.125),
  };
  // One record kind for every batch: kind byte, base version, op count,
  // then 33 bytes per op whatever its kind.
  ByteWriter payload;
  record.Serialize(&payload);
  ASSERT_EQ(payload.view().size(), 9u + 33u * record.updates.size());
  EXPECT_EQ(payload.view()[0], static_cast<uint8_t>(WalRecordKind::kUpdates));
  {
    auto wal = Wal::Open(path);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal.value().Append(record).ok());
  }
  auto replay = Wal::Read(path);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  ASSERT_EQ(replay.value().records.size(), 1u);
  const WalRecord& read = replay.value().records[0];
  EXPECT_EQ(read.base_version, 5u);
  ASSERT_EQ(read.updates.size(), 4u);
  EXPECT_EQ(read.updates[0].kind, StructuralOpKind::kAddEdge);
  EXPECT_EQ(read.updates[0].u, 3u);
  EXPECT_EQ(read.updates[0].v, 9u);
  EXPECT_DOUBLE_EQ(read.updates[0].weight, 42.5);
  EXPECT_EQ(read.updates[1].kind, StructuralOpKind::kRemoveEdge);
  EXPECT_EQ(read.updates[2].kind, StructuralOpKind::kAddVertex);
  EXPECT_DOUBLE_EQ(read.updates[2].x, -12.25);
  EXPECT_DOUBLE_EQ(read.updates[2].y, 900.75);
  EXPECT_EQ(read.updates[3].kind, StructuralOpKind::kSetWeight);
  EXPECT_EQ(read.updates[3].u, 4u);
  EXPECT_EQ(read.updates[3].v, 7u);
  EXPECT_DOUBLE_EQ(read.updates[3].weight, 0.125);
}

/// A re-weight record in the layout written before every update became
/// one op kind: kind byte 1, base version, count, then (u32 u, u32 v,
/// f64 weight) per update — 16 bytes per op, no op kind byte.
std::vector<uint8_t> LegacyWeightRecord(
    uint32_t base_version, std::span<const StructuralUpdate> reweights) {
  ByteWriter out;
  out.WriteU8(1);
  out.WriteU32(base_version);
  out.WriteU32(static_cast<uint32_t>(reweights.size()));
  for (const StructuralUpdate& op : reweights) {
    out.WriteU32(op.u);
    out.WriteU32(op.v);
    out.WriteF64(op.weight);
  }
  return {out.view().begin(), out.view().end()};
}

TEST(WalTypedRecordTest, LegacyWeightRecordsReplayAsSetWeightOps) {
  const auto& ctx = CoreTestContext::Get();
  const std::vector<UndirectedEdge> edges = CollectEdges(ctx.graph);
  World w = MakeWorld("wal_legacy_weights");
  ASSERT_NE(w.engine, nullptr);
  auto twin = ctx.MakeMethodEngine(MethodKind::kDij);
  ASSERT_NE(twin, nullptr);

  // A log left on disk by an older build: two kind-1 records, then a
  // kind-2 record the current writer appended behind them.
  const auto batch0 = MakeBatch(edges, 50);
  const auto batch1 = MakeBatch(edges, 51);
  const auto grown =
      MakeStructuralBatch(static_cast<NodeId>(ctx.graph.num_nodes()), 52);
  std::vector<uint8_t> log;
  AppendFramedRecord(LegacyWeightRecord(0, batch0), &log);
  AppendFramedRecord(
      LegacyWeightRecord(static_cast<uint32_t>(batch0.size()), batch1), &log);
  WalRecord current;
  current.base_version = static_cast<uint32_t>(batch0.size() + batch1.size());
  current.updates = grown;
  ByteWriter current_payload;
  current.Serialize(&current_payload);
  AppendFramedRecord(current_payload.view(), &log);
  w.engine.reset();
  w.wal.reset();
  WriteFileBytes(w.wal_path, log);

  auto read = Wal::Read(w.wal_path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_EQ(read.value().records.size(), 3u);
  ASSERT_EQ(read.value().records[0].updates.size(), batch0.size());
  for (size_t i = 0; i < batch0.size(); ++i) {
    const StructuralUpdate& op = read.value().records[0].updates[i];
    EXPECT_EQ(op.kind, StructuralOpKind::kSetWeight);
    EXPECT_EQ(op.u, batch0[i].u);
    EXPECT_EQ(op.v, batch0[i].v);
    EXPECT_EQ(op.weight, batch0[i].weight);
  }

  // Replay lands exactly where SetWeight ops through the live path land.
  ASSERT_TRUE(twin->ApplyUpdates(&ctx.keys, batch0).ok());
  ASSERT_TRUE(twin->ApplyUpdates(&ctx.keys, batch1).ok());
  ASSERT_TRUE(twin->ApplyUpdates(&ctx.keys, grown).ok());
  auto recovered = RecoverDijEngine(
      *w.store, w.wal_path, CoreTestContext::DefaultOptions(MethodKind::kDij),
      ctx.keys);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered.value().wal_records_replayed, 3u);
  EXPECT_EQ(recovered.value().recovered_version,
            twin->certificate().params.version);
  ExpectByteTransparent(*recovered.value().engine, *twin);
}

TEST(WalTypedRecordTest, UnknownOpKindIsDataLoss) {
  const std::string dir = FreshDir("wal_unknown_op_kind");
  const std::string path = dir + "/updates.wal";
  WalRecord record;
  record.updates = {StructuralUpdate::SetWeight(1, 2, 3.0)};
  ByteWriter payload;
  record.Serialize(&payload);
  std::vector<uint8_t> bytes(payload.view().begin(), payload.view().end());
  ASSERT_EQ(bytes[9], static_cast<uint8_t>(StructuralOpKind::kSetWeight));
  bytes[9] = 5;  // the first op kind after kSetWeight: unknown to this build
  std::vector<uint8_t> log;
  AppendFramedRecord(bytes, &log);
  WriteFileBytes(path, log);
  auto refused = Wal::Read(path);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kDataLoss)
      << refused.status().ToString();
}

TEST(WalTypedRecordTest, MixedStructuralLogReplaysByteIdentically) {
  const auto& ctx = CoreTestContext::Get();
  const std::vector<UndirectedEdge> edges = CollectEdges(ctx.graph);
  World w = MakeWorld("structural_replay");
  ASSERT_NE(w.engine, nullptr);
  auto twin = ctx.MakeMethodEngine(MethodKind::kDij);
  ASSERT_NE(twin, nullptr);

  // weight | structural | weight — batches of different op kinds
  // interleave in one log, and the version arithmetic (base_version +
  // ops) must stay consistent across them.
  const auto weights0 = MakeBatch(edges, 20);
  const auto structural =
      MakeStructuralBatch(static_cast<NodeId>(ctx.graph.num_nodes()), 20);
  const auto weights1 = MakeBatch(edges, 21);
  ASSERT_TRUE(w.engine->ApplyUpdates(&ctx.keys, weights0).ok());
  ASSERT_TRUE(w.engine->ApplyUpdates(&ctx.keys, structural).ok());
  ASSERT_TRUE(w.engine->ApplyUpdates(&ctx.keys, weights1).ok());
  ASSERT_TRUE(twin->ApplyUpdates(&ctx.keys, weights0).ok());
  ASSERT_TRUE(twin->ApplyUpdates(&ctx.keys, structural).ok());
  ASSERT_TRUE(twin->ApplyUpdates(&ctx.keys, weights1).ok());

  auto recovered = CrashAndRecover(w);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  const RecoveryReport& report = recovered.value();
  EXPECT_EQ(report.wal_records_replayed, 3u);
  EXPECT_FALSE(report.wal_torn_tail);
  EXPECT_EQ(report.recovered_version, twin->certificate().params.version);
  // The replayed engine grew the same vertex the live one did.
  EXPECT_EQ(report.engine->CurrentState()->graph->num_nodes(),
            ctx.graph.num_nodes() + 1);
  ExpectByteTransparent(*report.engine, *twin);
}

TEST(WalTypedRecordTest, StructuralKillPointsRecoverTheDurablePrefix) {
  if (!FailPointsCompiledIn()) {
    GTEST_SKIP() << "built with -DSPAUTH_FAILPOINTS=OFF";
  }
  const auto& ctx = CoreTestContext::Get();
  const std::vector<UndirectedEdge> edges = CollectEdges(ctx.graph);
  struct Kill {
    const char* point;
    const char* scratch;
    bool batch_durable;
    bool torn_tail;
  };
  const Kill kills[] = {
      {"wal/append", "kill_structural_append", false, false},
      {"wal/fsync", "kill_structural_fsync", false, true},
      {"engine/publish", "kill_structural_publish", true, false},
  };
  for (const Kill& kill : kills) {
    SCOPED_TRACE(kill.point);
    World w = MakeWorld(kill.scratch);
    ASSERT_NE(w.engine, nullptr);
    auto twin = ctx.MakeMethodEngine(MethodKind::kDij);
    ASSERT_NE(twin, nullptr);

    // A healthy weight batch, then the doomed STRUCTURAL batch.
    const auto healthy = MakeBatch(edges, 30);
    ASSERT_TRUE(w.engine->ApplyUpdates(&ctx.keys, healthy).ok());
    ASSERT_TRUE(twin->ApplyUpdates(&ctx.keys, healthy).ok());

    const auto doomed =
        MakeStructuralBatch(static_cast<NodeId>(ctx.graph.num_nodes()), 31);
    FailPointRegistry::Global().ArmOneShot(kill.point);
    auto failed = w.engine->ApplyUpdates(&ctx.keys, doomed);
    FailPointRegistry::Global().Disarm(kill.point);
    ASSERT_FALSE(failed.ok()) << kill.point << " did not fire";
    EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
    if (kill.batch_durable) {
      ASSERT_TRUE(twin->ApplyUpdates(&ctx.keys, doomed).ok());
    }

    auto recovered = CrashAndRecover(w);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    const RecoveryReport& report = recovered.value();
    EXPECT_EQ(report.wal_torn_tail, kill.torn_tail);
    EXPECT_EQ(report.wal_records_replayed, kill.batch_durable ? 2u : 1u);
    EXPECT_EQ(report.recovered_version, twin->certificate().params.version);
    // A durable structural batch replays to the grown shape; a lost one
    // leaves the original network.
    EXPECT_EQ(report.engine->CurrentState()->graph->num_nodes(),
              ctx.graph.num_nodes() + (kill.batch_durable ? 1 : 0));
    ExpectByteTransparent(*report.engine, *twin);
  }
}

}  // namespace
}  // namespace spauth
