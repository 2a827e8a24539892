// Workload `write_mix`: owner writes beside verified reads.
//
// DIJ on a 28,867-node network (the paper's DE node count, coordinates in
// [0, 10000]^2, query range 2000): 1 shard, proof cache on, a write-ahead
// log attached with fsync on every append. One owner thread sends seeded
// edge re-weightings open loop at kUpdateRate through EnableUpdateQueues /
// EnqueueWeightUpdate / PollUpdateQueues on the real clock; two reader
// threads run a closed loop of ShardedEngine::Answer plus verification
// through a version-watermarking Client. Every rotation signs, clones,
// rehashes, appends to the WAL and retires the proof cache.
//
// Update visibility runs from an update's scheduled arrival until the
// queue call that flushed it returns (the rotation carrying it is
// published inside that call).
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <thread>

#include "core/sharded_engine.h"
#include "core/verify_workspace.h"
#include "core/wal.h"
#include "crypto/digest.h"
#include "graph/dijkstra.h"
#include "graph/generator.h"
#include "graph/search_workspace.h"
#include "harness.h"

namespace perfbench {
namespace {

using namespace spauth;

constexpr double kRange = 2000;
constexpr double kUpdateRate = 200;  // updates per second, open loop
constexpr size_t kReaders = 2;
// Queue triggers: at kUpdateRate the 50 ms staleness bound fires before the
// count, so a flush carries about 14 updates and a rotation (~20 ms, mostly
// the RSA signature) leaves the owner idle about two thirds of the time; a
// host twice as slow still does not saturate it.
constexpr size_t kMaxBatch = 16;
constexpr uint64_t kStalenessMicros = 50'000;

uint64_t NowMicros() {
  static const Clock::time_point epoch = Clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            epoch)
          .count());
}

struct WriteState {
  std::unique_ptr<RsaKeyPair> keys;
  std::unique_ptr<Graph> graph;
  std::vector<PoolQuery> pool;
  std::vector<EdgeWeightUpdate> updates;  // the seeded arrival stream
  std::string wal_dir;
  std::unique_ptr<Wal> wal;  // declared before the engine: outlives it
  std::unique_ptr<ShardedEngine> engine;
  size_t next_update = 0;  // updates [0, next_update) were enqueued
  double keygen_s = 0, graph_s = 0, workload_s = 0;

  ~WriteState() {
    engine.reset();
    wal.reset();
    std::error_code ec;
    std::filesystem::remove_all(wal_dir, ec);
  }
};

struct WindowResult {
  double seconds = 0;
  std::vector<std::vector<double>> visible_slices;  // ms, by arrival slice
  std::vector<double> rotation_ms;  // wall time of each flushing call
  double owner_busy_s = 0;
  std::vector<double> read_ms;      // Answer only
  std::vector<double> slice_reads;  // verified reads by time slice
  uint64_t reads = 0;
  double read_bytes = 0;
  uint64_t updates = 0;
  size_t live_snapshots_max = 0;
  uint64_t rsa_sign_ops = 0, rsa_verify_ops = 0;
  ShardedStats before, after;
  UpdateQueueStats queue_before, queue_after;

  double visible(double q) const {
    std::vector<double> per_slice;
    for (const auto& slice : visible_slices) {
      if (!slice.empty()) {
        per_slice.push_back(Percentile(slice, q));
      }
    }
    return Median(per_slice);
  }
  /// Verified reads per second: the median over time slices.
  double read_qps() const {
    std::vector<double> per_slice;
    for (double n : slice_reads) {
      per_slice.push_back(n * static_cast<double>(slice_reads.size()) /
                          seconds);
    }
    return Median(per_slice);
  }
  uint64_t rotations() const {
    return queue_after.rotations - queue_before.rotations;
  }
};

std::unique_ptr<WriteState> Setup(const Options& opt, int repeat,
                                  RunResult* out) {
  auto st = std::make_unique<WriteState>();
  auto t = Clock::now();
  st->keys = std::make_unique<RsaKeyPair>(GenerateOwnerKeys());
  st->keygen_s = SecondsBetween(t, Clock::now());

  t = Clock::now();
  RoadNetworkOptions graph_options;  // paper normalization: [0, 10000]^2
  graph_options.num_nodes = opt.tiny ? 2000 : 28867;
  graph_options.edge_factor = 30429.0 / 28867.0;
  graph_options.seed = DatasetOptions(Dataset::kDE).seed;
  auto graph = GenerateRoadNetwork(graph_options);
  if (!graph.ok()) {
    out->Fail("graph: " + graph.status().ToString());
    return nullptr;
  }
  st->graph = std::make_unique<Graph>(std::move(graph).value());
  st->graph_s = SecondsBetween(t, Clock::now());

  t = Clock::now();
  const double ranges[] = {opt.tiny ? kRange / 4 : kRange};
  st->pool = MakeQueryPool(*st->graph, opt.tiny ? 32 : 1024, ranges,
                           Mix(opt.seed, 2));
  std::vector<EdgeWeightUpdate> edges;
  for (NodeId u = 0; u < st->graph->num_nodes(); ++u) {
    for (const Edge& e : st->graph->Neighbors(u)) {
      if (e.to > u) {
        edges.push_back({u, e.to, e.weight});
      }
    }
  }
  Rng rng(Mix(opt.seed, 3));
  const size_t count =
      static_cast<size_t>(kUpdateRate * (opt.seconds + 2)) + 64;
  for (size_t i = 0; i < count; ++i) {
    const EdgeWeightUpdate& e = edges[rng.NextBounded(edges.size())];
    st->updates.push_back({e.u, e.v, e.new_weight * rng.NextDoubleIn(0.6, 1.8)});
  }
  st->workload_s = SecondsBetween(t, Clock::now());

  EngineOptions engine_options;
  engine_options.method = MethodKind::kDij;
  engine_options.enable_proof_cache = true;
  auto engine = ShardedEngine::BuildReplicated(*st->graph, engine_options, 1,
                                               *st->keys);
  if (!engine.ok()) {
    out->Fail("engine: " + engine.status().ToString());
    return nullptr;
  }
  st->engine = std::move(engine).value();

  // Flush policy: fsync on every append, in a scratch directory.
  st->wal_dir = opt.work_dir + "/wal-" + std::to_string(::getpid()) + "-" +
                std::to_string(repeat);
  std::error_code ec;
  std::filesystem::remove_all(st->wal_dir, ec);
  std::filesystem::create_directories(st->wal_dir, ec);
  auto wal = Wal::Open(st->wal_dir + "/updates.wal");
  if (!wal.ok()) {
    out->Fail("wal: " + wal.status().ToString());
    return nullptr;
  }
  st->wal = std::make_unique<Wal>(std::move(wal).value());
  st->engine->shard(0).AttachWal(st->wal.get());
  UpdateQueueOptions queue_options;
  queue_options.max_batch = kMaxBatch;
  queue_options.max_staleness_micros = kStalenessMicros;
  if (Status s = st->engine->EnableUpdateQueues(queue_options); !s.ok()) {
    out->Fail("queues: " + s.ToString());
    return nullptr;
  }

  // Warm-up: a few verified reads and a few rotations.
  Client client(st->keys->public_key());
  SearchWorkspace ws;
  for (const PoolQuery& pq : std::span(st->pool).first(16)) {
    auto bundle = st->engine->Answer(pq.query, ws);
    if (!bundle.ok() || !AnswerIsRight(pq, client.Verify(pq.query,
                                                         bundle.value()->bytes))) {
      out->Fail("warm-up read failed verification");
      return nullptr;
    }
  }
  for (int r = 0; r < 3; ++r) {
    for (int k = 0; k < 4; ++k) {
      if (!st->engine
               ->EnqueueWeightUpdate(0, *st->keys,
                                     st->updates[st->next_update++],
                                     NowMicros())
               .ok()) {
        out->Fail("warm-up update failed");
        return nullptr;
      }
    }
    if (!st->engine->DrainUpdateQueues(*st->keys, NowMicros()).ok()) {
      out->Fail("warm-up rotation failed");
      return nullptr;
    }
  }
  return st;
}

/// One window: the owner's open-loop update stream beside kReaders
/// closed-loop readers, for `seconds`.
WindowResult RunWindow(WriteState* st, double seconds, size_t num_slices,
                       uint64_t read_seed, bool tamper, RunResult* out) {
  WindowResult w;
  w.seconds = seconds;
  w.visible_slices.resize(num_slices);
  ShardedEngine& engine = *st->engine;
  w.before = engine.GetStats();
  w.queue_before = engine.update_queue_stats(0);
  const uint64_t sign_before = RsaSignOps();
  const uint64_t verify_before = RsaVerifyOps();

  std::atomic<bool> stop{false};
  std::atomic<bool> tampered{!tamper};
  const auto window_start = Clock::now();
  struct ReaderOut {
    std::vector<double> read_ms;
    std::vector<double> slice_reads;
    uint64_t reads = 0, failed = 0;
    double bytes = 0;
    size_t live_max = 0;
    std::string error;
  };
  ReaderOut reader_out[kReaders];
  auto reader = [&](size_t id) {
    ReaderOut& r = reader_out[id];
    r.slice_reads.assign(num_slices, 0);
    Client client(st->keys->public_key());
    client.TrackShardVersions(engine.num_groups());
    SearchWorkspace ws;
    Rng rng(Mix(read_seed, id));
    while (!stop.load(std::memory_order_relaxed)) {
      const size_t i = rng.NextBounded(st->pool.size());
      const Query& q = st->pool[i].query;
      ScopedSpan read_span("bench.read", i);
      const auto asked = Clock::now();
      auto bundle = [&] {
        ScopedSpan span("core.answer", i);
        return engine.Answer(q, ws);
      }();
      const auto answered = Clock::now();
      r.reads++;
      if (!bundle.ok()) {
        r.failed++;
        r.error = "read: " + bundle.status().ToString();
        continue;
      }
      std::span<const uint8_t> bytes = bundle.value()->bytes;
      std::vector<uint8_t> corrupted;
      if (!tampered.exchange(true)) {
        corrupted.assign(bytes.begin(), bytes.end());
        corrupted[corrupted.size() / 2] ^= 0x5a;
        bytes = corrupted;
      }
      WireVerification v = [&] {
        ScopedSpan span("core.verify", i);
        return client.Verify(q, bytes, engine.RouteOf(q));
      }();
      if (!v.outcome.accepted || v.path.empty() ||
          v.path.source() != q.source || v.path.target() != q.target ||
          !(v.distance > 0) || !std::isfinite(v.distance)) {
        r.failed++;
        r.error = "read of query " + std::to_string(i) +
                  " failed verification: " + v.outcome.ToString();
        continue;
      }
      r.read_ms.push_back(MsBetween(asked, answered));
      r.slice_reads[std::min(
          num_slices - 1,
          static_cast<size_t>(SecondsBetween(window_start, answered) / seconds *
                              num_slices))] += 1;
      r.bytes += static_cast<double>(bytes.size());
      r.live_max = std::max(r.live_max, engine.shard(0).live_snapshots());
    }
  };
  std::vector<std::thread> readers;
  for (size_t id = 0; id < kReaders; ++id) {
    readers.emplace_back(reader, id);
  }

  // Owner: open-loop arrivals. Every flush drains the whole queue, so the
  // call that flushed publishes every pending arrival.
  const auto end = window_start + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(seconds));
  const auto gap = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / kUpdateRate));
  std::vector<Clock::time_point> pending;  // scheduled arrivals not yet out
  Clock::time_point oldest_enqueued;
  auto next_due = [&] {
    return window_start + gap * static_cast<int64_t>(w.updates);
  };
  auto more = [&] {
    return next_due() < end && st->next_update < st->updates.size();
  };
  // Books one owner call; `flushed` says whether it published.
  auto owner_call = [&](Clock::time_point call, Result<bool> flushed) {
    if (!flushed.ok()) {
      out->failed++;
      out->Fail("owner: " + flushed.status().ToString());
      stop = true;
      return;
    }
    if (!flushed.value()) {
      return;
    }
    const auto now = Clock::now();
    w.owner_busy_s += SecondsBetween(call, now);
    w.rotation_ms.push_back(MsBetween(call, now));
    for (const Clock::time_point due : pending) {
      const size_t slice = std::min(
          num_slices - 1, static_cast<size_t>(SecondsBetween(window_start, due) /
                                              seconds * num_slices));
      w.visible_slices[slice].push_back(MsBetween(due, now));
    }
    pending.clear();
  };
  while (!stop && more()) {
    while (!stop && more() && next_due() <= Clock::now()) {
      ScopedSpan span("owner.enqueue", st->next_update);
      if (pending.empty()) {
        oldest_enqueued = Clock::now();
      }
      pending.push_back(next_due());
      w.updates++;
      const auto call = Clock::now();
      owner_call(call, engine.EnqueueWeightUpdate(
                           0, *st->keys, st->updates[st->next_update++],
                           NowMicros()));
    }
    if (!stop && !pending.empty()) {
      ScopedSpan span("owner.poll", 0);
      const auto call = Clock::now();
      auto drained = engine.PollUpdateQueues(*st->keys, NowMicros());
      owner_call(call, drained.ok() ? Result<bool>(drained.value() > 0)
                                    : Result<bool>(drained.status()));
    }
    auto wake = next_due();
    if (!pending.empty()) {
      wake = std::min(wake, oldest_enqueued + std::chrono::microseconds(
                                                  kStalenessMicros));
    }
    std::this_thread::sleep_until(wake);
  }
  if (!stop && !pending.empty()) {
    ScopedSpan span("owner.drain", 0);
    const auto call = Clock::now();
    auto drained = engine.DrainUpdateQueues(*st->keys, NowMicros());
    owner_call(call, drained.ok() ? Result<bool>(true)
                                  : Result<bool>(drained.status()));
  }
  std::this_thread::sleep_until(end);
  stop = true;
  for (std::thread& t : readers) {
    t.join();
  }

  w.slice_reads.assign(num_slices, 0);
  for (const ReaderOut& r : reader_out) {
    w.read_ms.insert(w.read_ms.end(), r.read_ms.begin(), r.read_ms.end());
    for (size_t i = 0; i < num_slices; ++i) {
      w.slice_reads[i] += r.slice_reads[i];
    }
    w.reads += r.reads - r.failed;
    w.read_bytes += r.bytes;
    w.live_snapshots_max = std::max(w.live_snapshots_max, r.live_max);
    out->attempted += r.reads;
    out->failed += r.failed;
    if (!r.error.empty()) {
      out->Fail(r.error);
    }
  }
  out->attempted += w.updates;
  w.rsa_sign_ops = RsaSignOps() - sign_before;
  w.rsa_verify_ops = RsaVerifyOps() - verify_before;
  w.after = engine.GetStats();
  w.queue_after = engine.update_queue_stats(0);
  if (w.rotations() > 0 && w.rsa_sign_ops != w.rotations()) {
    out->Fail("rotations signed " + std::to_string(w.rsa_sign_ops) +
              " times for " + std::to_string(w.rotations()) + " rotations");
  }
  return w;
}

void ReportWindow(const WindowResult& w, Metrics* m) {
  m->Set("read_ms.p50", Percentile(w.read_ms, 0.5), "ms");
  m->Set("read_ms.p99", Percentile(w.read_ms, 0.99), "ms");
  const ProofCacheStats& a = w.before.totals.cache;
  const ProofCacheStats& b = w.after.totals.cache;
  const double hits = static_cast<double>(b.hits - a.hits);
  const double misses = static_cast<double>(b.misses - a.misses);
  m->Set("cache.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0,
         "ratio");
  m->Set("cache.hits", hits, "count");
  m->Set("cache.misses", misses, "count");
  const double queries =
      static_cast<double>(w.after.totals.queries - w.before.totals.queries);
  m->Set("shard.answer_us_mean",
         queries > 0 ? (w.after.totals.answer_micros -
                        w.before.totals.answer_micros) /
                           queries
                     : 0,
         "us");
  m->Set("shard.load_skew", queries > 0 ? 1.0 : 0, "ratio");
  const double rotations = static_cast<double>(w.rotations());
  m->Set("owner.rotation_ms.p50", Percentile(w.rotation_ms, 0.5), "ms");
  m->Set("owner.rotation_ms.p99", Percentile(w.rotation_ms, 0.99), "ms");
  m->Set("owner.busy_frac", w.owner_busy_s / w.seconds, "ratio");
  m->Set("owner.rotations", rotations, "count");
  const double flushed = static_cast<double>(w.queue_after.flushed_ops -
                                             w.queue_before.flushed_ops);
  m->Set("owner.coalescing_ratio", rotations > 0 ? flushed / rotations : 0,
         "ratio");
  m->Set("owner.clone_bytes_per_rotation",
         rotations > 0 ? (w.after.totals.rotation_clone_bytes -
                          w.before.totals.rotation_clone_bytes) /
                             rotations
                       : 0,
         "B");
  m->Set("owner.live_snapshots_max", static_cast<double>(w.live_snapshots_max),
         "count");
  m->Set("crypto.sign_ops_per_rotation",
         rotations > 0 ? w.rsa_sign_ops / rotations : 0, "count");
  m->Set("crypto.verify_ops_per_answer",
         w.reads > 0 ? static_cast<double>(w.rsa_verify_ops) / w.reads : 0,
         "count");
}

/// Median milliseconds of a standalone fsync'd Wal::Append of a record
/// holding `batch` re-weightings, in a scratch file.
double ProbeWalAppendMs(const std::string& dir, size_t batch,
                        const std::vector<EdgeWeightUpdate>& updates) {
  ScopedSpan span("wal.append_probe", 0);
  auto wal = Wal::Open(dir + "/probe.wal");
  if (!wal.ok()) {
    return 0;
  }
  WalRecord record;
  record.updates.assign(updates.begin(),
                        updates.begin() + std::min(batch, updates.size()));
  std::vector<double> ms;
  for (int i = 0; i < 21; ++i) {
    record.base_version = static_cast<uint32_t>(i * batch);
    const auto t0 = Clock::now();
    if (!wal.value().Append(record).ok()) {
      return 0;
    }
    ms.push_back(MsBetween(t0, Clock::now()));
  }
  return Median(ms);
}

}  // namespace

void RunWriteMix(const Options& opt, RunResult* out) {
  std::vector<double> setup_s;
  std::unique_ptr<WriteState> st;
  for (int r = 0; r < kSetupRepeats; ++r) {
    st.reset();
    const auto t0 = Clock::now();
    st = Setup(opt, r, out);
    if (st == nullptr) {
      return;
    }
    setup_s.push_back(SecondsBetween(t0, Clock::now()));
  }

  const double window_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  const size_t slices = std::max<size_t>(1, window_s / 5);
  const WindowResult plain =
      RunWindow(st.get(), window_s, slices, Mix(opt.seed, 10), opt.tamper, out);
  Metrics& e2e = out->end_to_end;
  e2e.Set("setup_s", Median(setup_s), "s");
  e2e.Set("latency_p50_ms", plain.visible(0.5), "ms");
  e2e.Set("throughput_qps", plain.read_qps(), "1/s");
  e2e.Set("proof_kb_mean",
          plain.reads > 0 ? plain.read_bytes / plain.reads / 1024 : 0, "KB");
  out->detail.Set("update_visible_p50_ms", plain.visible(0.5), "ms");
  out->detail.Set("update_visible_p90_ms", plain.visible(0.90), "ms");
  out->detail.Set("update_visible_p99_ms", plain.visible(0.99), "ms");
  out->detail.Set("updates", static_cast<double>(plain.updates), "count");
  Metrics view;
  ReportWindow(plain, &view);
  for (const Metrics::Entry& e : view.entries()) {
    out->detail.Set(e.name, e.value, e.unit);
  }

  if (opt.trace) {
    Metrics& layer = out->per_layer;
    Tracer::SetEnabled(true);
    const WindowResult traced =
        RunWindow(st.get(), window_s, slices, Mix(opt.seed, 11), false, out);
    ReportSelfTime(window_s, &layer);
    ReportWindow(traced, &layer);
    layer.Set("trace.overhead.latency_p50_ms",
              traced.visible(0.5) / plain.visible(0.5) - 1, "ratio");
    layer.Set("trace.overhead.throughput_qps",
              traced.read_qps() / plain.read_qps() - 1, "ratio");
    layer.Set("setup.keygen_s", st->keygen_s, "s");
    layer.Set("setup.graph_s", st->graph_s, "s");
    layer.Set("setup.workload_s", st->workload_s, "s");
    layer.Set("setup.ads_s.dij", st->engine->shard(0).construction_seconds(),
              "s");
    const double coalescing = layer.Find("owner.coalescing_ratio")->value;
    layer.Set("wal.append_fsync_ms",
              ProbeWalAppendMs(st->wal_dir,
                               std::max<size_t>(1, std::lround(coalescing)),
                               st->updates),
              "ms");
    layer.Set("crypto.rsa_sign_ms", ProbeRsaSignMs(*st->keys, 5), "ms");
    auto sample = st->engine->Answer(st->pool.front().query);
    if (sample.ok()) {
      layer.Set("crypto.rsa_verify_us",
                ProbeRsaVerifyUs(st->keys->public_key(),
                                 sample.value()->bytes, 50),
                "us");
    }
    layer.Set("merkle.level_rehash_us",
              ProbeMerkleLevelUs(st->graph->num_nodes(), 9), "us");
    layer.Set("graph.search_ms.p50",
              ProbeGraphSearchMs(*st->graph, std::span(st->pool).first(
                                                 std::min<size_t>(
                                                     64, st->pool.size()))),
              "ms");
  }

  // Final gate: drain, check the version arithmetic, and compare a final
  // pass with a quiesced twin that applied the same update log at once.
  if (!st->engine->DrainUpdateQueues(*st->keys, NowMicros()).ok()) {
    out->Fail("final drain failed");
    return;
  }
  const uint32_t version = st->engine->shard(0).certificate().params.version;
  if (version != st->next_update) {
    out->Fail("final version " + std::to_string(version) + " != " +
              std::to_string(st->next_update) + " updates applied");
  }
  std::error_code ec;
  std::uintmax_t wal_bytes =
      std::filesystem::file_size(st->wal_dir + "/updates.wal", ec);
  if (opt.trace && !ec && st->next_update > 0) {
    out->per_layer.Set("wal.bytes_per_update",
                       static_cast<double>(wal_bytes) / st->next_update, "B");
  }
  EngineOptions twin_options;
  twin_options.method = MethodKind::kDij;
  auto twin = MakeEngine(*st->graph, twin_options, *st->keys);
  if (!twin.ok() ||
      !twin.value()
           ->ApplyEdgeWeightUpdates(
               *st->keys, std::span(st->updates).first(st->next_update))
           .ok()) {
    out->Fail("quiesced twin could not apply the update log");
    return;
  }
  const auto twin_state = twin.value()->CurrentState();
  SearchWorkspace ws;
  VerifyWorkspace vws;
  WireVerification verified;
  Hasher live_hash(HashAlgorithm::kSha1), twin_hash(HashAlgorithm::kSha1);
  const size_t subset = std::min<size_t>(64, st->pool.size());
  for (size_t i = 0; i < subset; ++i) {
    const Query& q = st->pool[i].query;
    out->attempted++;
    auto live = st->engine->Answer(q, ws);
    auto quiesced = twin.value()->Answer(q, ws);
    if (!live.ok() || !quiesced.ok()) {
      out->failed++;
      out->Fail("final pass answer failed");
      continue;
    }
    live_hash.Update(live.value()->bytes.data(), live.value()->bytes.size());
    twin_hash.Update(quiesced.value().bytes.data(),
                     quiesced.value().bytes.size());
    VerifyWireAnswer(st->keys->public_key(), q, live.value()->bytes, vws,
                     &verified);
    const PathSearchResult truth =
        DijkstraShortestPath(*twin_state->graph, q.source, q.target);
    if (!AnswerIsRight({q, truth.distance}, verified) ||
        verified.version != version) {
      out->failed++;
      out->Fail("final pass answer to query " + std::to_string(i) +
                " is not the verified shortest path at version " +
                std::to_string(version));
    }
  }
  const std::string live_hex = live_hash.Finish().ToHex();
  if (live_hex != twin_hash.Finish().ToHex()) {
    out->Fail("final pass differs from the quiesced twin");
  }
  std::printf("# answers_sha1 %s\n", live_hex.c_str());
}

}  // namespace perfbench
