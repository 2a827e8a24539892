// MethodEngine — the uniform three-party facade over the four verification
// methods. One engine owns the whole pipeline for a (graph, method,
// parameters) triple:
//
//   owner:    BuildXxxAds (timed; the "offline construction" of Figure 8c)
//             + ApplyUpdates (one ordered op batch per live snapshot
//             rotation, DIJ only)
//   provider: Answer(query) -> serialized ProofBundle with size accounting
//   client:   Verify(query, bundle) -> VerifyOutcome (only public key used)
//
// The bundle's bytes are the real wire message (certificate + answer); the
// benches report exactly these sizes. One engine class serves all four
// methods: what differs per method (ADS, provider, answer layout, proof
// accounting) is described once in core/method_traits.h, and Verify is the
// standalone client's wire verifier (core/client.h) pinned to the engine's
// method.
//
// Serving is snapshot-based (core/engine_state.h): every query serves
// from an acquired immutable EngineState, so owner-side updates rotate in
// a new snapshot *while shards serve traffic* — no quiesce anywhere, no
// mutex on any read path. Batch workers pin one snapshot per worker and
// revalidate by epoch (a single acquire load per query in steady state);
// the single-query surfaces pay the slot's two-instruction spinlock.
#ifndef SPAUTH_CORE_ENGINE_H_
#define SPAUTH_CORE_ENGINE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/algosp.h"
#include "core/certificate.h"
#include "core/dij.h"
#include "core/engine_state.h"
#include "core/verify_outcome.h"
#include "graph/generator.h"
#include "graph/path.h"
#include "graph/workload.h"
#include "hints/landmarks.h"
#include "util/proof_cache.h"
#include "util/status.h"

namespace spauth {

struct VerifyWorkspace;  // core/verify_workspace.h
class Wal;               // core/wal.h

/// Size/item accounting split into shortest-path proof (S-prf) and
/// integrity proof (T-prf) per the paper's Figure 8a/8b convention. S-prf
/// is what proves the path shortest: the searched subgraph's tuples
/// (DIJ/LDM/HYP, plus HYP's hyper-edge entries) or FULL's authenticated
/// distance entries with their B-tree digests. T-prf is what proves the
/// rest authentic: the certificate, the network Merkle digests, HYP's
/// hyper-edge digests and, for FULL, the path tuples themselves.
struct ProofStats {
  size_t sp_bytes = 0;
  size_t t_bytes = 0;
  size_t sp_items = 0;  // tuples + distance entries
  size_t t_items = 0;   // Merkle digests
  size_t total_bytes() const { return sp_bytes + t_bytes; }
};

/// One query's reply: the result path/distance, the full wire bytes
/// (certificate + proof), and the accounting.
struct ProofBundle {
  Path path;
  double distance = 0;
  std::vector<uint8_t> bytes;
  ProofStats stats;
};

struct EngineOptions {
  MethodKind method = MethodKind::kDij;
  NodeOrdering ordering = NodeOrdering::kHilbert;
  uint32_t fanout = 2;
  HashAlgorithm alg = HashAlgorithm::kSha1;
  uint64_t seed = 1;
  // LDM.
  uint32_t num_landmarks = 40;
  int quantization_bits = 12;
  double compression_xi = 50;
  LandmarkStrategy landmark_strategy = LandmarkStrategy::kFarthest;
  // HYP.
  uint32_t num_cells = 49;
  uint32_t distance_fanout = 2;
  // FULL.
  bool full_use_floyd_warshall = true;
  /// The provider's algosp choice (Algorithm 1); does not affect proofs.
  SpAlgorithm provider_algorithm = SpAlgorithm::kDijkstra;

  /// Server-side proof cache: memoizes assembled bundles by canonical
  /// query, so a repeated query is served the exact bytes assembled the
  /// first time (byte-identical by construction — the answer path is
  /// deterministic). Each snapshot owns a fresh cache; rotation retires
  /// the old snapshot's cache wholesale with the snapshot.
  bool enable_proof_cache = false;
  size_t proof_cache_capacity = 4096;  // total entries across shards
  size_t proof_cache_shards = 8;
};

class MethodEngine {
 public:
  virtual ~MethodEngine();

  virtual MethodKind kind() const = 0;
  std::string_view name() const { return ToString(kind()); }

  /// Wall-clock seconds the owner spent building the ADS + hints.
  double construction_seconds() const { return construction_seconds_; }
  /// Called by MakeEngine after the timed build; not part of the API.
  void set_construction_seconds(double seconds) {
    construction_seconds_ = seconds;
  }

  /// Bytes of ADS + hints stored at the provider (current snapshot).
  virtual size_t storage_bytes() const = 0;

  /// The provider's algosp choice (EngineOptions::provider_algorithm).
  SpAlgorithm provider_algorithm() const { return algosp_; }

  /// The current published snapshot: graph, ADS, certificate and proof
  /// cache, all consistent with each other. Readers that need more than
  /// one look at engine state across a possible rotation should acquire
  /// once and use the handle. The handle must not outlive the engine.
  /// (Batch workers use the epoch-revalidated fast path internally and
  /// only pay this acquire after an actual rotation.)
  std::shared_ptr<const EngineState> CurrentState() const {
    return slot_.Acquire();
  }

  /// The current snapshot's certificate, by value: a reference into the
  /// snapshot could dangle the moment a rotation retires it, and this is
  /// a public accessor on an engine whose whole point is update-while-
  /// serve. Hot readers needing the certificate without the copy acquire
  /// CurrentState() and read it off the pinned snapshot.
  Certificate certificate() const { return CurrentState()->certificate; }

  /// Monotone snapshot counter (initial build publishes epoch 1).
  uint64_t current_epoch() const { return CurrentState()->epoch; }

  /// Snapshots currently alive: the published one plus retired snapshots
  /// still pinned by in-flight readers (or held handles). 1 when fully
  /// drained; the excess over 1 is the snapshot-drain depth the
  /// bench_throughput --update-rate mode reports.
  size_t live_snapshots() const {
    return static_cast<size_t>(live_states_.load(std::memory_order_acquire));
  }

  /// Provider role. The workspace form is the query-serving fast path: a
  /// caller keeps one SearchWorkspace per serving thread and the engine
  /// reuses its scratch arrays across the query stream. The plain form
  /// wraps it with a throwaway workspace. When the proof cache is enabled
  /// a repeated query returns the memoized bundle without touching the
  /// workspace.
  Result<ProofBundle> Answer(const Query& query) const;
  Result<ProofBundle> Answer(const Query& query, SearchWorkspace& ws) const;

  /// Zero-copy provider role: the returned bundle is shared with the proof
  /// cache, so a cache hit never copies the assembled wire bytes — every
  /// repeat of a query yields the *same* ProofBundle object until a
  /// snapshot rotation retires the cache, and callers encode straight from
  /// `bundle->bytes`. With the cache disabled each call returns a freshly
  /// assembled bundle (still shared so consumers are uniform). Answer() is
  /// the value-semantics wrapper over this.
  Result<std::shared_ptr<const ProofBundle>> AnswerShared(
      const Query& query) const;
  Result<std::shared_ptr<const ProofBundle>> AnswerShared(
      const Query& query, SearchWorkspace& ws) const;

  /// The batch-serving fast path: revalidates the caller-pinned snapshot
  /// `*snap` against the published epoch (one acquire load when no
  /// rotation landed — no lock, no refcount traffic) and serves from it.
  /// Callers keep one pinned snapshot per worker next to the
  /// SearchWorkspace; both engine and sharded batch loops use this.
  Result<std::shared_ptr<const ProofBundle>> AnswerShared(
      const Query& query, SearchWorkspace& ws,
      std::shared_ptr<const EngineState>* snap) const;

  /// Answers a query stream on a small internal worker pool, one reused
  /// workspace per worker (num_threads == 0 picks a host default). The
  /// result vector is parallel to `queries`; per-query failures surface as
  /// error Results without aborting the batch.
  std::vector<Result<ProofBundle>> AnswerBatch(std::span<const Query> queries,
                                               size_t num_threads = 0) const;

  /// Client role: VerifyWireAnswer (core/client.h) over the wire bytes
  /// with the owner's public key. A bundle whose certificate names another
  /// method rejects as kBadCertificate unless it is already malformed. The
  /// workspace form is the verification fast path (one VerifyWorkspace per
  /// verifying thread); the plain form wraps it with a throwaway one.
  VerifyOutcome Verify(const Query& query, const ProofBundle& bundle) const;
  VerifyOutcome Verify(const Query& query, const ProofBundle& bundle,
                       VerifyWorkspace& ws) const;

  /// Owner-side live maintenance: absorbs an ordered batch of update ops
  /// (re-weights and shape changes alike, core/updates.h) into ONE
  /// copy-on-write rotation — a structural clone of the current snapshot's
  /// graph and ADS (pointer spines only; every chunk is shared until
  /// touched), the affected tuples refreshed or appended with their Merkle
  /// paths incrementally re-hashed, one WAL record, ONE certificate
  /// signature at version + k, one atomic publish. Concurrent AnswerBatch
  /// streams keep serving the old snapshot (and its shape) until they pick
  /// up the new one; the old snapshot (and its whole proof cache) drains
  /// when its last in-flight reader finishes — retired snapshots alias the
  /// chunks the new one shares, which stay immutable for as long as anyone
  /// holds them. `keys` == nullptr is forest mode: the new certificate is
  /// left UNSIGNED because ShardedEngine signs the forest root once per
  /// epoch and the client authenticates the certificate body through its
  /// forest path (core/forest_certificate.h) — never serve an unsigned
  /// certificate without a forest publish following it (durable recovery,
  /// core/snapshot_store.h, re-signs on WAL replay). Returns the newly
  /// published certificate version (the current version for an empty
  /// batch, which publishes nothing). FailedPrecondition for methods whose
  /// hints require a rebuild (FULL/LDM/HYP) — the published snapshot and
  /// its cache are left untouched. Writers may call this concurrently;
  /// rotations serialize internally.
  virtual Result<uint32_t> ApplyUpdates(const RsaKeyPair* keys,
                                        std::span<const StructuralUpdate> ops);

  /// Signed re-weight-only batch: each update becomes a kSetWeight op.
  Result<uint32_t> ApplyEdgeWeightUpdates(
      const RsaKeyPair& keys, std::span<const EdgeWeightUpdate> updates) {
    return ApplyUpdates(&keys, std::vector<StructuralUpdate>(updates.begin(),
                                                             updates.end()));
  }

  /// Attaches a write-ahead log (core/wal.h): every subsequent update
  /// batch is appended — and flushed to stable storage — BEFORE its
  /// rotation publishes, so a crash never loses an acknowledged update.
  /// Non-owning (`wal` must outlive the engine or be detached with
  /// nullptr); effective for DIJ, the only method that takes updates.
  /// Attach/detach while no update is in flight.
  void AttachWal(Wal* wal) { wal_.store(wal, std::memory_order_release); }

  /// Serializes the current snapshot's durable image (signed certificate,
  /// every extended-tuple, the leaf order) — the payload the snapshot
  /// store (core/snapshot_store.h) frames, checksums and publishes
  /// atomically. FailedPrecondition for non-DIJ methods.
  virtual Status SerializeDurableState(ByteWriter* out) const;

  /// Owner-side heal: re-publishes `source`'s current snapshot on THIS
  /// engine. The adopted state is pointer-shared (graph blocks, tuple
  /// chunks, Merkle levels, the proof-cache-free spine), so the cost is a
  /// spine copy, not a payload clone — which is what lets ShardedEngine
  /// re-sync a replica frozen by a torn rotation from a healthy sibling
  /// without waiting for the next full rotation. No-op (returning the
  /// current version) when this engine is already at or past `source`'s
  /// version. Both engines must serve the same certified DIJ network;
  /// FailedPrecondition otherwise.
  virtual Result<uint32_t> AdoptStateFrom(const MethodEngine& source);

  /// Cumulative payload bytes the rotations' copy-on-write clones actually
  /// duplicated (adjacency blocks + tuple chunks + Merkle path chunks, in
  /// the same units as Graph::MemoryFootprintBytes / storage_bytes).
  /// Structural sharing keeps this O(f log_f V) per rotation; the bench's
  /// rotation_clone_bytes metric compares it against the full-clone
  /// baseline of graph footprint + ADS storage.
  uint64_t rotation_clone_bytes() const {
    return rotation_clone_bytes_.load(std::memory_order_relaxed);
  }

  bool proof_cache_enabled() const { return CurrentState()->cache != nullptr; }
  /// Aggregate hit/miss/byte counters: the current snapshot's cache plus
  /// the folded books of every drained snapshot's cache. At any quiescent
  /// point (all retired snapshots drained) the books conserve:
  /// insertions == evictions + cleared + entries.
  ProofCacheStats proof_cache_stats() const;

 protected:
  /// Captures the owner key, the provider algorithm and the proof-cache
  /// configuration before the derived constructor publishes the initial
  /// snapshot, so every snapshot (the first included) is born with its
  /// cache attached — published snapshots are never mutated, not even at
  /// setup.
  MethodEngine(const EngineOptions& options, RsaPublicKey owner_key);

  /// The uncached provider answer, served entirely from `state` (the
  /// engine downcasts to its method's AdsState).
  virtual Result<ProofBundle> AnswerUncached(const EngineState& state,
                                             const Query& query,
                                             SearchWorkspace& ws) const = 0;

  /// Serializes snapshot rotations: a writer holds this from reading the
  /// current snapshot through PublishState so concurrent updates compose
  /// instead of losing each other's changes.
  std::unique_lock<std::mutex> LockForUpdate() {
    return std::unique_lock<std::mutex>(update_mu_);
  }

  /// Stamps the epoch, attaches a fresh proof cache when caching is
  /// enabled, and atomically publishes `state` as the current snapshot
  /// (release semantics). The previous snapshot starts draining.
  void PublishState(std::unique_ptr<EngineState> state);

  /// Folds one successful rotation's copy-on-write byte count into the
  /// engine's cumulative rotation_clone_bytes().
  void AddRotationCloneBytes(size_t bytes) {
    rotation_clone_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }

  /// The attached write-ahead log, or nullptr (derived update paths
  /// append to it before publishing).
  Wal* attached_wal() const { return wal_.load(std::memory_order_acquire); }

 private:
  struct StateRetirer;  // shared_ptr deleter: folds cache books on drain

  Result<std::shared_ptr<const ProofBundle>> AnswerOnState(
      const EngineState& state, const Query& query, SearchWorkspace& ws) const;
  /// Value-semantics serving from an already-acquired snapshot (the batch
  /// fast path pins one snapshot per worker and revalidates by epoch).
  Result<ProofBundle> AnswerOn(const EngineState& state, const Query& query,
                               SearchWorkspace& ws) const;

  /// Drain hook: the last reference to a snapshot dropped. Folds its
  /// cache's counters into retired_ (resident entries count as cleared —
  /// the rotation retired them wholesale) and decrements the live count.
  void OnStateDrained(const EngineState& state) const;

  double construction_seconds_ = 0;
  RsaPublicKey owner_key_;
  SpAlgorithm algosp_;

  // Proof-cache configuration applied to every published snapshot.
  bool cache_enabled_ = false;
  size_t cache_capacity_ = 0;
  size_t cache_shards_ = 0;

  std::atomic<Wal*> wal_{nullptr};          // non-owning durability hook
  std::mutex update_mu_;                    // serializes rotations
  std::atomic<uint64_t> epoch_{0};          // last published epoch
  std::atomic<uint64_t> rotation_clone_bytes_{0};
  mutable std::atomic<int64_t> live_states_{0};
  mutable std::mutex retired_mu_;
  mutable ProofCacheStats retired_;         // folded drained-cache books

  // Declared last so it is destroyed first: releasing the final snapshot
  // runs OnStateDrained, which touches the members above.
  EngineStateSlot slot_;
};

/// Builds the ADS/hints for `options.method` over `g` (which must outlive
/// the engine) and returns the ready three-party engine.
Result<std::unique_ptr<MethodEngine>> MakeEngine(const Graph& g,
                                                 const EngineOptions& options,
                                                 const RsaKeyPair& keys);

/// Builds a DIJ engine directly from already-verified recovered state
/// (core/snapshot_store.h) instead of re-deriving the ADS from the graph —
/// the recovery path. `options.method` must be kDij.
Result<std::unique_ptr<MethodEngine>> MakeDijEngineFromState(
    const EngineOptions& options, std::shared_ptr<const Graph> graph,
    DijAds ads, RsaPublicKey owner_key);

/// All four methods in the paper's presentation order.
inline constexpr MethodKind kAllMethods[] = {MethodKind::kDij,
                                             MethodKind::kFull,
                                             MethodKind::kLdm,
                                             MethodKind::kHyp};

}  // namespace spauth

#endif  // SPAUTH_CORE_ENGINE_H_
