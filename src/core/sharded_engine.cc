#include "core/sharded_engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <utility>

#include "util/failpoint.h"
#include "util/hash_mix.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace spauth {

namespace {

// Fleet repair, written once: finds the engine holding the newest
// certificate version in `engines` (the first one on ties), then runs
// `adopt(i, source)` for every engine i that lags it, in index order. The
// step adopts the source's snapshot, wrapped in the caller's fail point and
// books. Adopting the newest snapshot never invents state: it replays the
// newest publish the owner actually produced. The first failed step aborts
// the walk. Returns the number of engines rolled forward.
template <typename Engines, typename Adopt>
Result<size_t> RollLaggardsForward(const Engines& engines, const Adopt& adopt) {
  if (engines.empty()) {
    return size_t{0};
  }
  const auto version = [&](size_t i) {
    return engines[i]->CurrentState()->certificate.params.version;
  };
  size_t source = 0;
  uint32_t source_version = version(0);
  for (size_t i = 1; i < engines.size(); ++i) {
    const uint32_t v = version(i);
    if (v > source_version) {
      source = i;
      source_version = v;
    }
  }
  size_t rolled = 0;
  for (size_t i = 0; i < engines.size(); ++i) {
    if (i == source || version(i) >= source_version) {
      continue;  // already in lock-step
    }
    SPAUTH_RETURN_IF_ERROR(adopt(i, *engines[source]));
    ++rolled;
  }
  return rolled;
}

}  // namespace

size_t HashSourceRouter::Route(const Query& query, size_t num_shards) const {
  // Source ids are dense and correlated, so spread them before the modulo.
  const uint64_t h = SplitMix64Finalize(query.source);
  return num_shards == 0 ? 0 : h % num_shards;
}

size_t ExplicitMapRouter::Route(const Query& query,
                                size_t num_shards) const {
  if (num_shards == 0) {
    return 0;
  }
  const uint32_t shard = query.source < shard_of_source_.size()
                             ? shard_of_source_[query.source]
                             : fallback_shard_;
  return shard % num_shards;
}

ShardedEngine::ShardedEngine(std::vector<std::unique_ptr<MethodEngine>> shards,
                             std::unique_ptr<ShardRouter> router,
                             FailoverOptions failover)
    : shards_(std::move(shards)),
      router_(std::move(router)),
      failover_(failover),
      num_groups_(shards_.size() / failover_.replicas_per_group),
      live_(std::make_unique<LiveCounters[]>(shards_.size())) {
  if (failover_.enable_breakers) {
    health_.reserve(shards_.size());
    for (size_t i = 0; i < shards_.size(); ++i) {
      health_.push_back(std::make_unique<ShardHealth>(failover_.breaker));
    }
  }
}

Result<std::unique_ptr<ShardedEngine>> ShardedEngine::Build(
    std::span<const ShardSpec> specs, std::unique_ptr<ShardRouter> router,
    const RsaKeyPair& keys, const FailoverOptions& failover) {
  if (specs.empty()) {
    return Status::InvalidArgument("a sharded engine needs at least 1 shard");
  }
  if (failover.replicas_per_group == 0 || failover.max_attempts == 0) {
    return Status::InvalidArgument(
        "failover needs at least 1 replica per group and 1 attempt");
  }
  if (specs.size() % failover.replicas_per_group != 0) {
    return Status::InvalidArgument(
        "replicas_per_group must divide the shard count");
  }
  std::vector<std::unique_ptr<MethodEngine>> shards;
  shards.reserve(specs.size());
  for (const ShardSpec& spec : specs) {
    if (spec.graph == nullptr) {
      return Status::InvalidArgument("shard spec has a null graph");
    }
    if (spec.options.method != specs.front().options.method) {
      return Status::InvalidArgument(
          "all shards of one engine must share the method");
    }
    SPAUTH_ASSIGN_OR_RETURN(std::unique_ptr<MethodEngine> engine,
                            MakeEngine(*spec.graph, spec.options, keys));
    shards.push_back(std::move(engine));
  }
  if (router == nullptr) {
    router = std::make_unique<HashSourceRouter>();
  }
  auto engine = std::unique_ptr<ShardedEngine>(
      new ShardedEngine(std::move(shards), std::move(router), failover));
  // A fleet built over one graph pointer is replicated: every engine
  // serves the same network, so adopting another group's snapshot is as
  // sound as adopting a sibling's. Region fleets (distinct graphs) must
  // never cross-adopt — their snapshots answer different worlds.
  engine->replicated_fleet_ = std::all_of(
      specs.begin(), specs.end(),
      [&](const ShardSpec& s) { return s.graph == specs.front().graph; });
  return engine;
}

Result<std::unique_ptr<ShardedEngine>> ShardedEngine::BuildReplicated(
    const Graph& g, const EngineOptions& options, size_t num_shards,
    const RsaKeyPair& keys, std::unique_ptr<ShardRouter> router) {
  return BuildReplicated(g, options, num_shards, keys, FailoverOptions{},
                         std::move(router));
}

Result<std::unique_ptr<ShardedEngine>> ShardedEngine::BuildReplicated(
    const Graph& g, const EngineOptions& options, size_t num_groups,
    const RsaKeyPair& keys, const FailoverOptions& failover,
    std::unique_ptr<ShardRouter> router) {
  if (failover.replicas_per_group == 0) {
    return Status::InvalidArgument("replicas_per_group must be >= 1");
  }
  std::vector<ShardSpec> specs(
      std::max<size_t>(num_groups, 1) * failover.replicas_per_group,
      ShardSpec{&g, options});
  return Build(specs, std::move(router), keys, failover);
}

Result<std::shared_ptr<const ProofBundle>> ShardedEngine::Answer(
    const Query& query) const {
  SearchWorkspace ws;
  return Answer(query, ws);
}

Result<std::shared_ptr<const ProofBundle>> ShardedEngine::Answer(
    const Query& query, SearchWorkspace& ws) const {
  return AnswerPinned(query, ws, {});
}

Result<std::shared_ptr<const ProofBundle>> ShardedEngine::AttemptOnEngine(
    size_t engine, const Query& query, SearchWorkspace& ws,
    std::span<std::shared_ptr<const EngineState>> snaps) const {
  Result<std::shared_ptr<const ProofBundle>> result =
      SPAUTH_FAILPOINT_TRIGGERED_ARG("shard/answer", engine)
          ? Result<std::shared_ptr<const ProofBundle>>(
                Status::Unavailable("fail point fired: shard/answer"))
          : (snaps.empty()
                 ? shards_[engine]->AnswerShared(query, ws)
                 : shards_[engine]->AnswerShared(query, ws, &snaps[engine]));
  if (!health_.empty()) {
    // Only a retryable error indicts the replica; an OK answer or a
    // client error (bad query) proves it responded and must not trip the
    // breaker.
    if (!result.ok() && IsRetryable(result.status().code())) {
      health_[engine]->RecordFailure();
    } else {
      health_[engine]->RecordSuccess();
    }
  }
  return result;
}

Result<std::shared_ptr<const ProofBundle>> ShardedEngine::AnswerPinned(
    const Query& query, SearchWorkspace& ws,
    std::span<std::shared_ptr<const EngineState>> snaps) const {
  const size_t group = RouteOf(query);
  const size_t replicas = failover_.replicas_per_group;
  const size_t base = group * replicas;
  WallTimer timer;
  // Preferred replica: a second, independent source hash (the router
  // already consumed SplitMix64(source) % groups), so client sessions
  // spread across a group's replica caches but each source stays pinned
  // to one hot cache.
  const size_t preferred =
      replicas == 1
          ? 0
          : SplitMix64Finalize(query.source + 0x632be59bd9b4e019ull) % replicas;
  size_t last_engine = base + preferred;  // books the query if no attempt runs
  Result<std::shared_ptr<const ProofBundle>> result =
      Status::Unavailable("no serving attempt made");
  size_t cursor = preferred;
  double backoff_us = static_cast<double>(failover_.backoff_base_us);
  for (size_t attempt = 0; attempt < failover_.max_attempts; ++attempt) {
    if (failover_.deadline_us > 0 &&
        static_cast<uint64_t>(timer.ElapsedSeconds() * 1e6) >=
            failover_.deadline_us) {
      result = Status::DeadlineExceeded("per-query deadline budget exhausted");
      // Book the deadline hit against the routed group's preferred replica:
      // last_engine may be a spill target in another group (or, on an
      // attempt-0 expiry, a replica that never served an attempt), and
      // charging the budget miss there skews the foreign group's counters.
      StatAdd(live_[base + preferred].books.deadline_exceeded);
      break;
    }
    // Next admitted replica from the cursor; open breakers are skipped,
    // half-open ones admit this query as a probe. With cross-group
    // failover enabled, a fully breaker-denied group spills over to the
    // next group's replicas (replicated fleets serve the same network
    // everywhere, so the answer stays byte-identical).
    const size_t group_span =
        failover_.cross_group_failover ? num_groups_ : 1;
    size_t chosen = replicas;
    size_t chosen_base = base;
    for (size_t g = 0; g < group_span && chosen == replicas; ++g) {
      const size_t scan_base = ((group + g) % num_groups_) * replicas;
      for (size_t k = 0; k < replicas; ++k) {
        const size_t replica = (cursor + k) % replicas;
        const size_t engine = scan_base + replica;
        if (!health_.empty() && !health_[engine]->AllowRequest()) {
          StatAdd(live_[engine].books.breaker_skips);
          continue;
        }
        chosen = replica;
        chosen_base = scan_base;
        break;
      }
    }
    if (chosen == replicas) {
      result = Status::Unavailable("all replicas unavailable: breakers open");
      break;
    }
    const size_t engine = chosen_base + chosen;
    last_engine = engine;
    if (attempt > 0) {
      StatAdd(live_[engine].books.retries);
    }
    result = AttemptOnEngine(engine, query, ws, snaps);
    if (result.ok()) {
      if (attempt > 0) {
        StatAdd(live_[engine].books.failovers);
      }
      if (engine / replicas != group) {
        StatAdd(live_[engine].books.cross_group_serves);
      }
      break;
    }
    if (!IsRetryable(result.status().code())) {
      break;  // a client error will not improve on another replica
    }
    cursor = (chosen + 1) % replicas;  // prefer a sibling next attempt
    if (attempt + 1 < failover_.max_attempts && backoff_us > 0.0) {
      // Deterministic jitter: up to +50%, drawn from a stream seeded by
      // (jitter_seed, source, target, attempt) — a chaos run replays its
      // exact backoff schedule from the printed seed.
      Rng jitter(SplitMix64Finalize(
          failover_.jitter_seed ^
          ((static_cast<uint64_t>(query.source) << 32) | query.target) ^
          (attempt * 0x9e3779b97f4a7c15ull)));
      // Every sleep is capped at max_backoff_us BEFORE the integral cast:
      // with deadline_us == 0 nothing else bounds backoff_us, and a large
      // multiplier would push it past what uint64_t can represent — the
      // cast of such a double is undefined behavior, not saturation.
      const double cap_us = static_cast<double>(
          failover_.max_backoff_us > 0 ? failover_.max_backoff_us
                                       : uint64_t{1'000'000});
      double sleep_us =
          std::min(backoff_us * (1.0 + 0.5 * jitter.NextDouble()), cap_us);
      if (failover_.deadline_us > 0) {
        const double remaining_us =
            static_cast<double>(failover_.deadline_us) -
            timer.ElapsedSeconds() * 1e6;
        sleep_us = std::min(sleep_us, std::max(remaining_us, 0.0));
      }
      if (sleep_us > 0.0) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(static_cast<uint64_t>(sleep_us)));
      }
      // Clamp the growth too, so backoff_us itself cannot reach +inf and
      // poison the next round's arithmetic.
      backoff_us = std::min(backoff_us * failover_.backoff_multiplier, cap_us);
    }
  }
  LiveCounters& live = live_[last_engine];
  StatAdd(live.answer_nanos,
          static_cast<uint64_t>(timer.ElapsedSeconds() * 1e9));
  StatAdd(live.books.queries);
  if (!result.ok()) {
    StatAdd(live.books.failures);
  }
  return result;
}

Result<uint32_t> ShardedEngine::RotateGroup(
    size_t group, const RsaKeyPair& keys,
    std::span<const StructuralUpdate> ops) {
  if (group >= num_groups_) {
    return Status::InvalidArgument("group index out of range");
  }
  // Self-repair first: an earlier torn rotation may have left part of the
  // group behind. Rotating on top of diverged bases would compound the
  // split (different versions signing different worlds forever), so bring
  // every laggard to the most advanced sibling's snapshot before touching
  // anything (a shape change on diverged bases would split the group's
  // shape, not just its version). A failed heal aborts the rotation with a
  // retryable error — better a stale lock-step group than a fresh
  // diverged one.
  if (failover_.replicas_per_group > 1) {
    SPAUTH_ASSIGN_OR_RETURN(size_t healed, HealGroup(group));
    (void)healed;
  }
  // Lock-step across the group's replicas: a failed replica aborts the
  // walk immediately, leaving it (and any replicas after it) on the old
  // snapshot — zero torn state per engine, bounded staleness per group.
  uint32_t version = 0;
  for (size_t replica = 0; replica < failover_.replicas_per_group; ++replica) {
    const size_t engine = group * failover_.replicas_per_group + replica;
    // Forest mode: the per-shard RSA signature is dead weight (the forest
    // root's one signature authenticates the certificate body), so the
    // replicas rotate defer-signed and the caller publishes the forest.
    Result<uint32_t> applied =
        shards_[engine]->ApplyUpdates(forest_enabled_ ? nullptr : &keys, ops);
    ShardStats& books = live_[engine].books;
    if (!applied.ok()) {
      StatAdd(books.update_failures);
      return applied;
    }
    StatAdd(books.updates, ops.size());
    version = applied.value();
  }
  return version;
}

Result<uint32_t> ShardedEngine::ApplyUpdates(
    size_t group, const RsaKeyPair& keys,
    std::span<const StructuralUpdate> ops) {
  SPAUTH_ASSIGN_OR_RETURN(uint32_t version, RotateGroup(group, keys, ops));
  if (forest_enabled_) {
    // One group moved, so the old epoch's leaf for it went stale: publish
    // the next epoch (one signature) covering the fleet as it stands.
    SPAUTH_RETURN_IF_ERROR(PublishForest(keys));
  }
  return version;
}

Status ShardedEngine::ResyncEngine(size_t engine, const MethodEngine& source) {
  ShardStats& books = live_[engine].books;
  if (SPAUTH_FAILPOINT_TRIGGERED_ARG("replica/resync", engine)) {
    StatAdd(books.resync_failures);
    return Status::Unavailable("fail point fired: replica/resync");
  }
  Result<uint32_t> adopted = shards_[engine]->AdoptStateFrom(source);
  if (!adopted.ok()) {
    StatAdd(books.resync_failures);
    return adopted.status();
  }
  StatAdd(books.resyncs);
  return Status::Ok();
}

Result<size_t> ShardedEngine::HealGroup(size_t group) {
  if (group >= num_groups_) {
    return Status::InvalidArgument("group index out of range");
  }
  const size_t base = group * failover_.replicas_per_group;
  return RollLaggardsForward(
      std::span(shards_).subspan(base, failover_.replicas_per_group),
      [&](size_t replica, const MethodEngine& source) {
        return ResyncEngine(base + replica, source);
      });
}

Result<size_t> ShardedEngine::Heal() {
  size_t healed = 0;
  for (size_t group = 0; group < num_groups_; ++group) {
    SPAUTH_ASSIGN_OR_RETURN(size_t h, HealGroup(group));
    healed += h;
  }
  return healed;
}

Result<size_t> ShardedEngine::RollFleetForward() {
  if (!replicated_fleet_) {
    return Status::FailedPrecondition(
        "cross-group roll-forward needs a replicated fleet: the groups "
        "serve different networks, so adoption would answer the wrong one");
  }
  return RollLaggardsForward(
      shards_, [&](size_t engine, const MethodEngine& source) -> Status {
        SPAUTH_RETURN_IF_ERROR(ResyncEngine(engine, source));
        StatAdd(live_[engine].books.fleet_rollforwards);
        return Status::Ok();
      });
}

Status ShardedEngine::EnableForestCertificates(const RsaKeyPair& keys,
                                               uint32_t forest_fanout) {
  if (forest_fanout < 2) {
    return Status::InvalidArgument("forest fanout must be >= 2");
  }
  if (forest_enabled_) {
    return Status::FailedPrecondition("forest certificates already enabled");
  }
  // The forest certifies replica 0's certificate per group, so the
  // siblings must serve the same certificate bytes before the first epoch
  // covers them — heal any laggards from earlier torn rotations first.
  if (failover_.replicas_per_group > 1) {
    SPAUTH_ASSIGN_OR_RETURN(size_t healed, Heal());
    (void)healed;
  }
  forest_fanout_ = forest_fanout;
  forest_enabled_ = true;
  const Status published = PublishForest(keys);
  if (!published.ok()) {
    // Stay in per-shard mode: every certificate out there is still signed,
    // so serving continues exactly as before the call.
    forest_enabled_ = false;
    return published;
  }
  return Status::Ok();
}

std::shared_ptr<const FleetCertificate> ShardedEngine::forest() const {
  std::lock_guard<std::mutex> lock(forest_mu_);
  return fleet_;
}

Status ShardedEngine::PublishForest(const RsaKeyPair& keys) {
  const size_t replicas = failover_.replicas_per_group;
  // One leaf per routing group: lock-step rotations (plus the heals above
  // every rotation) keep the replicas byte-identical, so the group's
  // replica 0 speaks for all of them.
  std::vector<Digest> leaves(num_groups_);
  for (size_t group = 0; group < num_groups_; ++group) {
    leaves[group] =
        shards_[group * replicas]->CurrentState()->certificate.BodyDigest();
  }
  ForestParams params;
  params.fleet_epoch = fleet_epoch_.load(std::memory_order_acquire) + 1;
  params.num_shards = static_cast<uint32_t>(num_groups_);
  params.fanout = forest_fanout_;
  params.alg = shards_[0]->CurrentState()->certificate.params.alg;
  SPAUTH_ASSIGN_OR_RETURN(ForestBuild build,
                          BuildForestCertificate(keys, params, leaves));
  // Pre-encode once per epoch: the serving tier attaches a path to every
  // answer, and that must be a memcpy of these bytes, not an encode.
  auto fleet = std::make_shared<FleetCertificate>();
  fleet->certificate = std::move(build.certificate);
  fleet->paths = std::move(build.paths);
  ByteWriter cert_writer;
  cert_writer.Reserve(fleet->certificate.SerializedSize());
  fleet->certificate.Serialize(&cert_writer);
  fleet->encoded_certificate = cert_writer.TakeBytes();
  fleet->encoded_paths.resize(fleet->paths.size());
  for (size_t i = 0; i < fleet->paths.size(); ++i) {
    ByteWriter path_writer;
    path_writer.Reserve(fleet->paths[i].SerializedSize());
    fleet->paths[i].Serialize(&path_writer);
    fleet->encoded_paths[i] = path_writer.TakeBytes();
  }
  {
    std::lock_guard<std::mutex> lock(forest_mu_);
    fleet_ = std::move(fleet);
  }
  fleet_epoch_.store(params.fleet_epoch, std::memory_order_release);
  return Status::Ok();
}

Result<uint32_t> ShardedEngine::ApplyUpdatesAllShards(
    const RsaKeyPair& keys, std::span<const StructuralUpdate> ops) {
  // Every group gets its attempt even after one fails: aborting mid-walk
  // (the old behavior) left the tail of the fleet on the previous version
  // for no reason — one bad group's failure is not a reason to starve the
  // groups after it.
  uint32_t version = 0;
  Status first_error = Status::Ok();
  for (size_t group = 0; group < num_groups_; ++group) {
    Result<uint32_t> rotated = RotateGroup(group, keys, ops);
    if (rotated.ok()) {
      version = std::max(version, rotated.value());
    } else if (first_error.ok()) {
      first_error = rotated.status();
    }
  }
  if (!first_error.ok() && replicated_fleet_) {
    // Repair before reporting: the failed (or torn) groups roll forward
    // to the fleet's most advanced snapshot, so the caller gets back a
    // uniform fleet plus the root cause — not a split-brain fleet. Only
    // sound on replicated fleets; region fleets keep the failed group
    // stale until the owner retries it.
    Result<size_t> rolled = RollFleetForward();
    (void)rolled;  // best-effort: the rotation error below is the root cause
  }
  if (forest_enabled_) {
    // ONE forest signature for the whole fleet rotation, after the repair,
    // so the published epoch always certifies the fleet as it now serves.
    const Status published = PublishForest(keys);
    if (first_error.ok()) {
      SPAUTH_RETURN_IF_ERROR(published);
    }
  }
  if (!first_error.ok()) {
    return first_error;
  }
  return version;
}

Status ShardedEngine::EnableUpdateQueues(const UpdateQueueOptions& options,
                                         bool fleet_lock_step) {
  if (!queues_.empty()) {
    return Status::FailedPrecondition("update queues already enabled");
  }
  if (fleet_lock_step && !replicated_fleet_) {
    return Status::FailedPrecondition(
        "a fleet-lock-step queue needs a replicated fleet: on region "
        "partitions it would apply every region's ops to every region");
  }
  const size_t count = fleet_lock_step ? 1 : num_groups_;
  queues_.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    queues_.push_back(std::make_unique<OwnerQueue>(options));
  }
  queues_fleet_lock_step_ = fleet_lock_step;
  return Status::Ok();
}

Result<bool> ShardedEngine::Enqueue(size_t queue, const RsaKeyPair& keys,
                                    const StructuralUpdate& op,
                                    uint64_t now_micros) {
  if (queue >= queues_.size()) {
    return queues_.empty()
               ? Status::FailedPrecondition("update queues are not enabled")
               : Status::InvalidArgument("queue index out of range");
  }
  bool trigger = false;
  {
    std::lock_guard<std::mutex> lock(queues_[queue]->mu);
    trigger = queues_[queue]->queue.Enqueue(op, now_micros);
  }
  const size_t preferred =
      queues_fleet_lock_step_ ? 0 : queue * failover_.replicas_per_group;
  StatAdd(live_[preferred].books.enqueued_updates);
  if (!trigger) {
    return false;
  }
  SPAUTH_ASSIGN_OR_RETURN(size_t drained, FlushQueue(queue, keys, now_micros));
  return drained > 0;
}

Result<size_t> ShardedEngine::PollUpdateQueues(const RsaKeyPair& keys,
                                               uint64_t now_micros) {
  if (queues_.empty()) {
    return Status::FailedPrecondition("update queues are not enabled");
  }
  size_t drained = 0;
  for (size_t i = 0; i < queues_.size(); ++i) {
    bool due = false;
    {
      std::lock_guard<std::mutex> lock(queues_[i]->mu);
      due = queues_[i]->queue.ShouldFlush(now_micros);
    }
    if (due) {
      SPAUTH_ASSIGN_OR_RETURN(size_t d, FlushQueue(i, keys, now_micros));
      drained += d;
    }
  }
  return drained;
}

Result<size_t> ShardedEngine::DrainUpdateQueues(const RsaKeyPair& keys,
                                                uint64_t now_micros) {
  if (queues_.empty()) {
    return Status::FailedPrecondition("update queues are not enabled");
  }
  size_t drained = 0;
  for (size_t i = 0; i < queues_.size(); ++i) {
    SPAUTH_ASSIGN_OR_RETURN(size_t d, FlushQueue(i, keys, now_micros));
    drained += d;
  }
  return drained;
}

UpdateQueueStats ShardedEngine::update_queue_stats(size_t queue) const {
  if (queue >= queues_.size()) {
    return UpdateQueueStats{};
  }
  std::lock_guard<std::mutex> lock(queues_[queue]->mu);
  return queues_[queue]->queue.stats();
}

Result<size_t> ShardedEngine::FlushQueue(size_t queue, const RsaKeyPair& keys,
                                         uint64_t now_micros) {
  OwnerQueue& oq = *queues_[queue];
  std::lock_guard<std::mutex> lock(oq.mu);
  const UpdateQueueStats before = oq.queue.stats();
  const Status flushed = oq.queue.Flush(
      now_micros, [&](std::span<const StructuralUpdate> run) {
        return queues_fleet_lock_step_
                   ? ApplyUpdatesAllShards(keys, run).status()
                   : ApplyUpdates(queue, keys, run).status();
      });
  // Book what actually drained (a failed flush may still have rotated its
  // leading runs) on the queue's preferred engine, then surface the error.
  const UpdateQueueStats& after = oq.queue.stats();
  const size_t preferred =
      queues_fleet_lock_step_ ? 0 : queue * failover_.replicas_per_group;
  ShardStats& books = live_[preferred].books;
  StatAdd(books.coalesced_rotations, after.rotations - before.rotations);
  StatRaise(books.update_lag_micros, after.max_lag_micros);
  SPAUTH_RETURN_IF_ERROR(flushed);
  return after.flushed_ops - before.flushed_ops;
}

std::vector<Result<std::shared_ptr<const ProofBundle>>>
ShardedEngine::AnswerBatch(std::span<const Query> queries,
                           size_t num_threads) const {
  std::vector<Result<std::shared_ptr<const ProofBundle>>> results(
      queries.size(), Status::Internal("query not answered"));
  struct Worker {
    SearchWorkspace ws;  // per-worker scratch, hot for the whole stream
    // One pinned snapshot per shard per worker: the steady-state read path
    // is an epoch load, not a slot acquire.
    std::vector<std::shared_ptr<const EngineState>> snaps;
  };
  ParallelFor(
      queries.size(), num_threads,
      [this] { return Worker{{}, decltype(Worker::snaps)(shards_.size())}; },
      [&](size_t i, Worker& w) {
        results[i] = AnswerPinned(queries[i], w.ws, w.snaps);
      });
  return results;
}

ShardedStats ShardedEngine::GetStats() const {
  ShardedStats stats;
  stats.shards.resize(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    ShardStats& s = stats.shards[i];
    s = StatSnapshot(live_[i].books);
    s.answer_micros = StatLoad(live_[i].answer_nanos) / 1000;
    if (!health_.empty()) {
      s.breaker_opens = health_[i]->opens();
      s.breaker_state = health_[i]->state();
    }
    s.rotation_clone_bytes = shards_[i]->rotation_clone_bytes();
    s.live_snapshots = shards_[i]->live_snapshots();
    // Read off the pinned snapshot rather than certificate(), which would
    // copy the whole certificate (signature included) for one field.
    s.certificate_version =
        shards_[i]->CurrentState()->certificate.params.version;
    s.cache = shards_[i]->proof_cache_stats();
    MergeStats(stats.totals, s);
  }
  return stats;
}

Result<size_t> ReconcileFleetEpoch(std::span<MethodEngine* const> engines) {
  return RollLaggardsForward(
      engines, [&](size_t i, const MethodEngine& source) {
        return engines[i]->AdoptStateFrom(source).status();
      });
}

}  // namespace spauth
