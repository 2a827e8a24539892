// ShardedEngine — the scale-out serving layer above MethodEngine.
//
// One outsourced server cannot serve millions of users; a deployment runs
// N engines side by side — replicas of one network behind a balancing
// router, or region partitions behind an explicit placement map — and a
// front door routes every query to the shard that owns it. ShardedEngine
// is that front door: it owns N independent MethodEngine instances (each
// with its own ADS, proof cache and certificate), routes queries through a
// pluggable ShardRouter, fans batches across shards on the worker pool,
// and aggregates per-shard serving/cache statistics.
//
// Serving is zero-copy end to end: every answer is a shared_ptr to the
// bundle resident in the owning shard's proof cache (or a freshly
// assembled one when caching is off), so a cache hit never copies the
// wire bytes and the encode path writes straight from the shared bundle.
// Replicas of one network produce byte-identical answers regardless of
// which shard serves them (same graph, seed and keys build the same ADS),
// which is what lets tests and CI compare a 4-shard run against a
// single-engine run digest for digest.
#ifndef SPAUTH_CORE_SHARDED_ENGINE_H_
#define SPAUTH_CORE_SHARDED_ENGINE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <span>
#include <string_view>
#include <tuple>
#include <vector>

#include "core/engine.h"
#include "core/forest_certificate.h"
#include "core/shard_health.h"
#include "core/update_queue.h"
#include "util/stat_fields.h"

namespace spauth {

/// One fleet epoch's published forest: the signed certificate, one
/// root-to-leaf path per routing group, and their pre-encoded wire bytes
/// (the serving tier attaches paths per answer; encoding them once per
/// epoch keeps the per-answer cost at a memcpy). Immutable once published —
/// readers hold it by shared_ptr exactly like an EngineState snapshot.
struct FleetCertificate {
  ForestCertificate certificate;
  std::vector<ForestPath> paths;  // indexed by routing group
  std::vector<uint8_t> encoded_certificate;
  std::vector<std::vector<uint8_t>> encoded_paths;
};

/// Deterministic query → shard placement policy. Implementations must be
/// pure functions of the query (no internal state mutation): the same
/// query must land on the same shard for the whole lifetime of the
/// engine, or per-shard caches would cool and region routing would break.
class ShardRouter {
 public:
  virtual ~ShardRouter() = default;

  /// The shard in [0, num_shards) that owns `query`.
  virtual size_t Route(const Query& query, size_t num_shards) const = 0;

  virtual std::string_view name() const = 0;
};

/// Balancing policy for replicated shards: splitmix64(source) % N. Queries
/// are keyed by source only, so a client session pinned to one source node
/// keeps hitting one shard's hot cache.
class HashSourceRouter : public ShardRouter {
 public:
  size_t Route(const Query& query, size_t num_shards) const override;
  std::string_view name() const override { return "hash-source"; }
};

/// Placement policy for region partitions: an explicit source-node → shard
/// map (e.g. from a graph partitioner). Sources beyond the map fall back
/// to `fallback_shard`.
class ExplicitMapRouter : public ShardRouter {
 public:
  explicit ExplicitMapRouter(std::vector<uint32_t> shard_of_source,
                             uint32_t fallback_shard = 0)
      : shard_of_source_(std::move(shard_of_source)),
        fallback_shard_(fallback_shard) {}

  size_t Route(const Query& query, size_t num_shards) const override;
  std::string_view name() const override { return "explicit-map"; }

 private:
  std::vector<uint32_t> shard_of_source_;
  uint32_t fallback_shard_;
};

/// One shard's build recipe: the graph it serves (a region partition or a
/// replica of the full network; must outlive the engine) and its engine
/// options. All specs in one ShardedEngine must agree on the method.
struct ShardSpec {
  const Graph* graph = nullptr;
  EngineOptions options;
};

/// Failover policy for replicated groups. The defaults reproduce the
/// pre-failover engine exactly: one replica per group, one attempt, no
/// deadline, no breakers.
struct FailoverOptions {
  /// Engines per routing group. The flat shard list is laid out
  /// group-major: engine index = group * replicas_per_group + replica.
  size_t replicas_per_group = 1;
  /// Total attempts per query (first try + retries across replicas).
  size_t max_attempts = 1;
  /// First retry's backoff; 0 retries immediately. Each further retry
  /// multiplies by backoff_multiplier, plus up to 50% deterministic
  /// jitter drawn from a Rng seeded by (jitter_seed, source, target,
  /// attempt) — replayable, never wall-clock or random_device.
  uint64_t backoff_base_us = 0;
  double backoff_multiplier = 2.0;
  /// Hard ceiling on any single backoff sleep. Without it, deadline_us == 0
  /// plus a large multiplier grows backoff_us without bound and the cast to
  /// the sleep's integral microseconds overflows (UB). Clamping the growth
  /// keeps unbounded-deadline retry loops sane; 0 is normalized to 1s.
  uint64_t max_backoff_us = 1'000'000;
  /// Per-query wall budget across ALL attempts and backoffs; 0 = none.
  /// Queries that exhaust it return kDeadlineExceeded.
  uint64_t deadline_us = 0;
  uint64_t jitter_seed = 1;
  /// When true each engine gets a ShardHealth breaker: retryable failures
  /// trip it, the attempt loop skips open replicas and probes half-open
  /// ones.
  bool enable_breakers = false;
  CircuitBreakerOptions breaker;
  /// When true, a query whose routed group has every replica
  /// breaker-denied spills over to the next group's replicas instead of
  /// failing outright. Only sound on replicated fleets (every group
  /// serves the same network); never enable it on region partitions,
  /// where another group serves a different graph.
  bool cross_group_failover = false;
};

/// One shard's serving counters plus its proof-cache counters. How each
/// field aggregates across shards is stated once, in kFields at the end.
struct ShardStats {
  uint64_t queries = 0;         // answers routed to this shard
  uint64_t failures = 0;        // answers that returned an error Status
  uint64_t answer_micros = 0;   // total wall time spent answering
  uint64_t updates = 0;         // update ops absorbed (rotations may batch)
  uint64_t update_failures = 0; // update calls that returned an error Status
  uint64_t rotation_clone_bytes = 0;  // CoW bytes rotations actually copied
  // Coalescing-queue books (zero unless EnableUpdateQueues). Booked on the
  // queue's preferred engine: the group's first replica (engine 0 for a
  // fleet-lock-step queue), so summing shards still conserves.
  uint64_t enqueued_updates = 0;    // ops accepted into this engine's queue
  uint64_t coalesced_rotations = 0; // rotations queue flushes performed
  // Gauges: point-in-time or high-water readings, not event counts.
  uint64_t update_lag_micros = 0;  // worst queue staleness at flush
  size_t live_snapshots = 0;    // published + retired-but-undrained
  uint32_t certificate_version = 0;  // current signed version
  // Failover-plane counters. A query is counted (queries/failures) exactly
  // once, on the engine that served it or was attempted last; retries /
  // failovers / breaker_skips accrue on the engines involved.
  uint64_t retries = 0;            // extra attempts after a retryable error
  uint64_t failovers = 0;          // queries served OK on a non-first attempt
  // Queries that ran out of budget. Booked on the routed group's preferred
  // replica — the engine the query belongs to — never on a spill-target
  // engine in another group (which may not even have attempted it).
  uint64_t deadline_exceeded = 0;
  uint64_t breaker_skips = 0;      // attempts denied by this engine's breaker
  uint64_t breaker_opens = 0;      // times this engine's breaker tripped
  BreakerState breaker_state = BreakerState::kClosed;  // gauge
  // Heal-plane counters (owner-side replica resync, see HealGroup).
  uint64_t resyncs = 0;          // times this replica adopted a sibling's state
  uint64_t resync_failures = 0;  // heal attempts on this replica that failed
  uint64_t cross_group_serves = 0;  // OK answers served here for another group
  // Times this engine was rolled forward across groups after a partial
  // fleet rotation (ApplyUpdatesAllShards' self-repair).
  uint64_t fleet_rollforwards = 0;
  ProofCacheStats cache;

  // Gauges take the max across shards: summing point-in-time readings
  // would report a number no shard observed.
  static constexpr auto kFields = std::tuple{
      StatSum("queries", &ShardStats::queries),
      StatSum("failures", &ShardStats::failures),
      StatSum("answer_micros", &ShardStats::answer_micros),
      StatSum("updates", &ShardStats::updates),
      StatSum("update_failures", &ShardStats::update_failures),
      StatSum("rotation_clone_bytes", &ShardStats::rotation_clone_bytes),
      StatSum("enqueued_updates", &ShardStats::enqueued_updates),
      StatSum("coalesced_rotations", &ShardStats::coalesced_rotations),
      StatMax("update_lag_micros", &ShardStats::update_lag_micros),
      StatMax("live_snapshots", &ShardStats::live_snapshots),
      StatMax("certificate_version", &ShardStats::certificate_version),
      StatSum("retries", &ShardStats::retries),
      StatSum("failovers", &ShardStats::failovers),
      StatSum("deadline_exceeded", &ShardStats::deadline_exceeded),
      StatSum("breaker_skips", &ShardStats::breaker_skips),
      StatSum("breaker_opens", &ShardStats::breaker_opens),
      StatMostSevere("breaker_state", &ShardStats::breaker_state),
      StatSum("resyncs", &ShardStats::resyncs),
      StatSum("resync_failures", &ShardStats::resync_failures),
      StatSum("cross_group_serves", &ShardStats::cross_group_serves),
      StatSum("fleet_rollforwards", &ShardStats::fleet_rollforwards),
      StatNested("cache", &ShardStats::cache),
  };
};

/// Per-shard stats plus their aggregate, from one consistent pass over the
/// shards: `totals` merges the shards per ShardStats::kFields.
struct ShardedStats {
  std::vector<ShardStats> shards;
  ShardStats totals;
};

class ShardedEngine {
 public:
  /// Builds one MethodEngine per spec (timed per shard, like MakeEngine)
  /// behind `router` (HashSourceRouter when null). InvalidArgument on an
  /// empty spec list, a null graph, specs that mix methods, or a failover
  /// policy whose replicas_per_group does not divide the spec count. The
  /// spec list is group-major: specs [g*R, (g+1)*R) are group g's replicas
  /// and must serve identical graphs/options for failover transparency.
  static Result<std::unique_ptr<ShardedEngine>> Build(
      std::span<const ShardSpec> specs, std::unique_ptr<ShardRouter> router,
      const RsaKeyPair& keys, const FailoverOptions& failover = {});

  /// `num_shards` replicas of one network: every shard builds the same ADS
  /// from the same options and keys, so any shard's answer is
  /// byte-identical to any other's (and to a standalone MakeEngine's).
  static Result<std::unique_ptr<ShardedEngine>> BuildReplicated(
      const Graph& g, const EngineOptions& options, size_t num_shards,
      const RsaKeyPair& keys, std::unique_ptr<ShardRouter> router = nullptr);

  /// `num_groups` routing groups of failover.replicas_per_group replicas
  /// each, all serving the same network. The router balances across
  /// groups; within a group the failover policy picks and retries
  /// replicas.
  static Result<std::unique_ptr<ShardedEngine>> BuildReplicated(
      const Graph& g, const EngineOptions& options, size_t num_groups,
      const RsaKeyPair& keys, const FailoverOptions& failover,
      std::unique_ptr<ShardRouter> router = nullptr);

  size_t num_shards() const { return shards_.size(); }
  /// Routing groups (== num_shards unless replicas_per_group > 1).
  size_t num_groups() const { return num_groups_; }
  size_t replicas_per_group() const { return failover_.replicas_per_group; }
  const FailoverOptions& failover_options() const { return failover_; }
  const MethodEngine& shard(size_t i) const { return *shards_[i]; }
  /// Owner-side access for direct per-shard maintenance.
  MethodEngine& shard(size_t i) { return *shards_[i]; }
  const ShardRouter& router() const { return *router_; }

  /// The routing group `query` routes to (deterministic). With one
  /// replica per group this is the serving shard index; with more, the
  /// failover policy picks the replica inside the group per attempt.
  size_t RouteOf(const Query& query) const {
    return router_->Route(query, num_groups_);
  }

  /// The group an update to edge (u, v) routes to: the same placement as a
  /// query sourced at `u` targeting `v`, so in a region deployment the
  /// shard that serves a source also absorbs its updates.
  size_t RouteOfUpdate(const EdgeWeightUpdate& update) const {
    return router_->Route(Query{update.u, update.v}, num_groups_);
  }

  /// Owner-side live batch update on one routing group: absorbs the whole
  /// op batch into ONE snapshot rotation per replica (one structural
  /// clone, one signature at version + k each, applied lock-step in
  /// replica order) while the group's traffic keeps serving (see
  /// MethodEngine::ApplyUpdates), then publishes the next forest epoch in
  /// forest mode. Returns the group's new certificate version;
  /// InvalidArgument for an out-of-range group. On a failed replica the
  /// error returns immediately and later replicas stay on the old version
  /// — a real mid-rotation fault, which bounded-staleness clients
  /// (Client::SetStalenessBound) are built to ride out. Before rotating,
  /// any replica left lagging by an earlier torn rotation is first healed
  /// from its most advanced sibling (HealGroup), so the lock-step
  /// invariant self-repairs instead of compounding. DIJ fleets only;
  /// FULL/LDM/HYP shards return FailedPrecondition.
  Result<uint32_t> ApplyUpdates(size_t group, const RsaKeyPair& keys,
                                std::span<const StructuralUpdate> ops);

  /// Owner-side heal of one routing group: any replica whose certificate
  /// version lags the group's most advanced sibling (the signature a torn
  /// rotation leaves behind) adopts that sibling's live snapshot via
  /// MethodEngine::AdoptStateFrom — a pointer-shared install, no rebuild,
  /// no re-sign, no waiting for the next full rotation. Serving continues
  /// throughout (the install is one epoch publish). Returns the number of
  /// replicas healed (0 when the group is already in lock-step); the
  /// first failed resync aborts with its (retryable) error. Fail point
  /// "replica/resync" fails the install (arg = engine index).
  /// Every group rotation calls this first so a torn group converges
  /// instead of diverging batch by batch.
  Result<size_t> HealGroup(size_t group);

  /// HealGroup over every group; returns the total replicas healed.
  Result<size_t> Heal();

  /// Replicated deployments: absorbs the batch on *every* shard (one
  /// rotation each) so the replicas stay byte-transparent, and returns the
  /// common new version. A failed group does not abort the walk: every
  /// group is attempted, and on a replicated fleet any group the rotation
  /// left behind is rolled FORWARD to the most advanced group's snapshot
  /// (cross-group AdoptStateFrom) before the first error returns — the
  /// fleet is in lock-step either way, the caller just learns the batch
  /// needed repair. Roll-forwards are booked per engine in
  /// ShardStats::fleet_rollforwards (and resyncs). Under forest mode the
  /// fleet signs ONE forest certificate for the whole rotation, after the
  /// roll-forward, so the published epoch always covers a uniform fleet.
  Result<uint32_t> ApplyUpdatesAllShards(const RsaKeyPair& keys,
                                         std::span<const StructuralUpdate> ops);

  /// Installs a coalescing UpdateQueue (core/update_queue.h) in front of
  /// the rotation paths. Per-group mode (fleet_lock_step == false): one
  /// queue per routing group, a flush rotates that group only — the
  /// region-partition shape, matching RouteOfUpdate's placement.
  /// Fleet-lock-step mode: ONE queue for the whole fleet, a flush drives
  /// the AllShards rotations so replicas stay byte-transparent; requires a
  /// replicated fleet (on region partitions a fleet-wide batch would apply
  /// every region's ops to every region). Call once, before enqueuing;
  /// FailedPrecondition on a second call.
  Status EnableUpdateQueues(const UpdateQueueOptions& options,
                            bool fleet_lock_step = false);

  bool update_queues_enabled() const { return !queues_.empty(); }
  /// Queues installed: num_groups(), or 1 in fleet-lock-step mode.
  size_t num_update_queues() const { return queues_.size(); }

  /// Buffers one op into queue `queue` (a group index; 0 in fleet mode)
  /// and flushes immediately if a trigger fired — the returned bool says
  /// whether a flush ran. `now_micros` is the caller's clock (synthetic in
  /// tests/benchmarks); it feeds the staleness trigger and the lag gauge.
  Result<bool> Enqueue(size_t queue, const RsaKeyPair& keys,
                       const StructuralUpdate& op, uint64_t now_micros);

  /// Enqueue of a bare re-weight (a kSetWeight op).
  Result<bool> EnqueueWeightUpdate(size_t queue, const RsaKeyPair& keys,
                                   const EdgeWeightUpdate& update,
                                   uint64_t now_micros) {
    return Enqueue(queue, keys, update, now_micros);
  }

  /// Staleness sweep: flushes every queue whose trigger fired (the owner's
  /// timer tick). Returns the number of ops drained.
  Result<size_t> PollUpdateQueues(const RsaKeyPair& keys, uint64_t now_micros);

  /// Unconditional flush of every queue (owner shutdown / barrier).
  /// Returns the number of ops drained.
  Result<size_t> DrainUpdateQueues(const RsaKeyPair& keys,
                                   uint64_t now_micros);

  /// The queue's own books (enqueued/rotations/lag); zero-value stats for
  /// an out-of-range index or when queues are disabled.
  UpdateQueueStats update_queue_stats(size_t queue) const;

  /// Routes and answers one query on the owning shard's zero-copy path.
  /// The workspace form reuses the caller's scratch (workspaces resize per
  /// shard graph, so one workspace serves a mixed-shard stream); the plain
  /// form wraps it with a throwaway one.
  Result<std::shared_ptr<const ProofBundle>> Answer(const Query& query) const;
  Result<std::shared_ptr<const ProofBundle>> Answer(const Query& query,
                                                    SearchWorkspace& ws) const;

  /// Fans a query stream across shards on the worker pool (one hot
  /// SearchWorkspace per worker, num_threads == 0 picks a host default).
  /// The result vector is parallel to `queries`; per-query failures
  /// surface as error Results without aborting the batch.
  std::vector<Result<std::shared_ptr<const ProofBundle>>> AnswerBatch(
      std::span<const Query> queries, size_t num_threads = 0) const;

  /// Per-shard and aggregate serving/cache counters.
  ShardedStats GetStats() const;

  /// Switches the fleet to forest certificates: from now on per-shard
  /// rotations defer their RSA signature and every rotation (group or
  /// fleet-wide) publishes ONE signed forest certificate over all group
  /// certificate digests — fleet epoch + 1 per publish, one signature per
  /// rotation regardless of fleet size. Publishes the first forest (epoch
  /// 1, one signature) immediately; the groups must be in lock-step, so
  /// replicated fleets are healed first. Requires fanout >= 2; call once,
  /// before serving answers that clients verify through the forest.
  Status EnableForestCertificates(const RsaKeyPair& keys,
                                  uint32_t forest_fanout = 2);

  bool forest_enabled() const { return forest_enabled_; }
  /// The current fleet epoch (0 until EnableForestCertificates).
  uint32_t fleet_epoch() const {
    return fleet_epoch_.load(std::memory_order_acquire);
  }
  /// The current epoch's forest publication (nullptr before forest mode).
  /// Immutable; safe to hold across rotations like an EngineState.
  std::shared_ptr<const FleetCertificate> forest() const;

  /// Rolls every engine that lags the fleet's most advanced certificate
  /// version forward by adopting that snapshot (cross-group on replicated
  /// fleets). Books ShardStats::fleet_rollforwards per engine healed and
  /// returns the count. This is the repair ApplyUpdatesAllShards runs
  /// after a partial failure; exposed for owner tooling and tests.
  /// FailedPrecondition on region fleets (another group's snapshot serves
  /// a different graph — adoption would be unsound).
  Result<size_t> RollFleetForward();

 private:
  // One engine's live counters: `books` is a ShardStats written only
  // through StatAdd/StatRaise (relaxed atomic_ref), so AnswerBatch workers
  // never contend on a lock; cache counters live in each shard's cache.
  // Time accumulates in nanoseconds: cache hits finish well under a
  // microsecond, and truncating each one to micros would count the whole
  // hit path as free. GetStats converts once. Each engine's block starts
  // on its own cache line, with the per-query fields (answer_nanos,
  // queries, failures) together in that first line, so workers serving
  // different engines never write the same line.
  struct alignas(64) LiveCounters {
    uint64_t answer_nanos = 0;
    ShardStats books;
  };

  ShardedEngine(std::vector<std::unique_ptr<MethodEngine>> shards,
                std::unique_ptr<ShardRouter> router, FailoverOptions failover);

  /// Routes, times and serves one query, retrying across the routed
  /// group's replicas per the failover policy. `snaps` (one slot per
  /// engine, empty to opt out) lets a batch worker keep pinned snapshots
  /// so the steady-state read path is a single epoch load per query
  /// instead of a slot acquire; Answer() passes empty.
  Result<std::shared_ptr<const ProofBundle>> AnswerPinned(
      const Query& query, SearchWorkspace& ws,
      std::span<std::shared_ptr<const EngineState>> snaps) const;

  /// One serving attempt on `engine`; feeds the engine's breaker.
  Result<std::shared_ptr<const ProofBundle>> AttemptOnEngine(
      size_t engine, const Query& query, SearchWorkspace& ws,
      std::span<std::shared_ptr<const EngineState>> snaps) const;

  /// One repair adopt: `engine` takes `source`'s live snapshot. Fail point
  /// "replica/resync" (arg = engine index) fails it; books resyncs or
  /// resync_failures on `engine`.
  Status ResyncEngine(size_t engine, const MethodEngine& source);

  /// One group's rotation WITHOUT the forest publish (the callers decide
  /// whether the publish covers one group or the whole fleet): heals
  /// laggards, then lock-step rotations, defer-signed in forest mode.
  Result<uint32_t> RotateGroup(size_t group, const RsaKeyPair& keys,
                               std::span<const StructuralUpdate> ops);

  /// One queue's flush under its mutex: drains max_batch runs into the
  /// group (or AllShards) rotation path and books the queue counters on
  /// the preferred engine. Returns the number of ops drained.
  Result<size_t> FlushQueue(size_t queue, const RsaKeyPair& keys,
                            uint64_t now_micros);

  /// Builds and atomically publishes the next fleet epoch's forest over
  /// the groups' current certificate digests. Exactly one RSA signature.
  Status PublishForest(const RsaKeyPair& keys);

  // One installed coalescing queue (EnableUpdateQueues). The mutex guards
  // the queue itself; the rotations a flush performs take the engines'
  // own update locks as usual.
  struct OwnerQueue {
    explicit OwnerQueue(const UpdateQueueOptions& options) : queue(options) {}
    std::mutex mu;
    UpdateQueue queue;
  };

  std::vector<std::unique_ptr<MethodEngine>> shards_;
  std::unique_ptr<ShardRouter> router_;
  FailoverOptions failover_;
  size_t num_groups_ = 0;
  mutable std::unique_ptr<LiveCounters[]> live_;
  // One breaker per engine (empty unless failover_.enable_breakers).
  std::vector<std::unique_ptr<ShardHealth>> health_;
  // True when every shard serves the same graph (Build saw one graph
  // pointer) — the precondition for cross-group adoption.
  bool replicated_fleet_ = false;
  // Forest-certificate state. forest_mu_ guards the publication swap;
  // readers copy the shared_ptr under the same lock (uncontended in
  // steady state — one acquire per answer encode, one swap per rotation).
  bool forest_enabled_ = false;
  uint32_t forest_fanout_ = 2;
  std::atomic<uint32_t> fleet_epoch_{0};
  mutable std::mutex forest_mu_;
  std::shared_ptr<const FleetCertificate> fleet_;
  // Coalescing queues (empty until EnableUpdateQueues): one per group, or
  // one fleet-wide in lock-step mode.
  std::vector<std::unique_ptr<OwnerQueue>> queues_;
  bool queues_fleet_lock_step_ = false;
};

/// Post-recovery fleet repair (the durability seam of forest mode): rolls
/// every engine below the set's most advanced certificate version forward
/// by adopting that engine's snapshot. A crash mid-fleet-rotation recovers
/// shards into MIXED epochs — each verifies standalone, but a forest built
/// over them would certify a fleet that never existed; reconciling first
/// makes the next forest publish cover one uniform epoch. All engines must
/// serve the same replicated network (AdoptStateFrom enforces it). Returns
/// the number of engines rolled forward.
Result<size_t> ReconcileFleetEpoch(std::span<MethodEngine* const> engines);

}  // namespace spauth

#endif  // SPAUTH_CORE_SHARDED_ENGINE_H_
