#include "core/engine.h"

#include <algorithm>
#include <atomic>
#include <string>
#include <utility>

#include "core/client.h"
#include "core/method_traits.h"
#include "core/snapshot_store.h"
#include "core/updates.h"
#include "core/wal.h"
#include "core/verify_workspace.h"
#include "util/failpoint.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace spauth {

// ---------------------------------------------------------------------------
// Snapshot plumbing
// ---------------------------------------------------------------------------

/// shared_ptr deleter for published snapshots: the last in-flight reader
/// (or the engine replacing/destroying the snapshot) triggers the drain
/// hook before the state is freed.
struct MethodEngine::StateRetirer {
  const MethodEngine* engine;
  void operator()(const EngineState* state) const {
    engine->OnStateDrained(*state);
    delete state;
  }
};

MethodEngine::MethodEngine(const EngineOptions& options,
                           RsaPublicKey owner_key)
    : owner_key_(std::move(owner_key)),
      algosp_(options.provider_algorithm),
      cache_enabled_(options.enable_proof_cache),
      cache_capacity_(options.proof_cache_capacity),
      cache_shards_(options.proof_cache_shards) {}

MethodEngine::~MethodEngine() = default;

void MethodEngine::PublishState(std::unique_ptr<EngineState> state) {
  state->epoch = epoch_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (cache_enabled_ && state->cache == nullptr) {
    ProofCache<ProofBundle>::Options options;
    options.capacity = cache_capacity_;
    options.shards = cache_shards_;
    state->cache = std::make_shared<ProofCache<ProofBundle>>(options);
  }
  live_states_.fetch_add(1, std::memory_order_acq_rel);
  std::shared_ptr<const EngineState> published(state.release(),
                                               StateRetirer{this});
  // The slot's release/acquire pairing guarantees a reader that acquires
  // the new snapshot sees every write that built it (cloned graph/ADS,
  // re-signed certificate, fresh cache).
  slot_.Store(std::move(published));
}

void MethodEngine::OnStateDrained(const EngineState& state) const {
  if (state.cache != nullptr) {
    ProofCacheStats s = state.cache->GetStats();
    // Rotation retired the resident entries wholesale; account them as
    // cleared so the books conserve across snapshot lifetimes.
    s.cleared += std::exchange(s.entries, 0);
    std::lock_guard<std::mutex> lock(retired_mu_);
    MergeStats(retired_, s);
  }
  live_states_.fetch_sub(1, std::memory_order_acq_rel);
}

Result<uint32_t> MethodEngine::ApplyUpdates(
    const RsaKeyPair* /*keys*/, std::span<const StructuralUpdate> ops) {
  if (ops.empty()) {
    // An empty batch is a no-op for every method, per the header contract.
    return CurrentState()->certificate.params.version;
  }
  return Status::FailedPrecondition(
      "method hints require a rebuild on graph updates");
}

Status MethodEngine::SerializeDurableState(ByteWriter* /*out*/) const {
  return Status::FailedPrecondition(
      "durable snapshots are implemented for DIJ only");
}

Result<uint32_t> MethodEngine::AdoptStateFrom(const MethodEngine& /*source*/) {
  return Status::FailedPrecondition(
      "state adoption is implemented for DIJ only");
}

ProofCacheStats MethodEngine::proof_cache_stats() const {
  ProofCacheStats stats;
  {
    std::lock_guard<std::mutex> lock(retired_mu_);
    stats = retired_;
  }
  const std::shared_ptr<const EngineState> state = CurrentState();
  if (state->cache != nullptr) {
    MergeStats(stats, state->cache->GetStats());
  }
  return stats;
}

// ---------------------------------------------------------------------------
// Serving
// ---------------------------------------------------------------------------

Result<ProofBundle> MethodEngine::Answer(const Query& query) const {
  SearchWorkspace ws;
  return Answer(query, ws);
}

Result<ProofBundle> MethodEngine::Answer(const Query& query,
                                         SearchWorkspace& ws) const {
  const std::shared_ptr<const EngineState> state = CurrentState();
  return AnswerOn(*state, query, ws);
}

Result<ProofBundle> MethodEngine::AnswerOn(const EngineState& state,
                                           const Query& query,
                                           SearchWorkspace& ws) const {
  if (state.cache == nullptr) {
    return AnswerUncached(state, query, ws);
  }
  SPAUTH_ASSIGN_OR_RETURN(std::shared_ptr<const ProofBundle> shared,
                          AnswerOnState(state, query, ws));
  return *shared;
}

Result<std::shared_ptr<const ProofBundle>> MethodEngine::AnswerShared(
    const Query& query) const {
  SearchWorkspace ws;
  return AnswerShared(query, ws);
}

Result<std::shared_ptr<const ProofBundle>> MethodEngine::AnswerShared(
    const Query& query, SearchWorkspace& ws) const {
  // One acquire pins the whole snapshot for this query: graph, ADS,
  // certificate and cache stay mutually consistent even if an owner
  // update publishes a newer snapshot mid-answer.
  const std::shared_ptr<const EngineState> state = CurrentState();
  return AnswerOnState(*state, query, ws);
}

Result<std::shared_ptr<const ProofBundle>> MethodEngine::AnswerShared(
    const Query& query, SearchWorkspace& ws,
    std::shared_ptr<const EngineState>* snap) const {
  slot_.Refresh(snap);
  return AnswerOnState(**snap, query, ws);
}

Result<std::shared_ptr<const ProofBundle>> MethodEngine::AnswerOnState(
    const EngineState& state, const Query& query, SearchWorkspace& ws) const {
  SPAUTH_FAILPOINT_RETURN("engine/answer");
  if (state.cache == nullptr) {
    SPAUTH_FAILPOINT_RETURN("engine/assemble");
    SPAUTH_ASSIGN_OR_RETURN(ProofBundle bundle,
                            AnswerUncached(state, query, ws));
    return std::make_shared<const ProofBundle>(std::move(bundle));
  }
  // Cached bundles certify this snapshot's root; no cross-snapshot
  // invalidation is needed because the cache lives and dies with the
  // snapshot.
  const uint64_t key =
      (static_cast<uint64_t>(query.source) << 32) | query.target;
  if (std::shared_ptr<const ProofBundle> hit = state.cache->Lookup(key)) {
    return hit;
  }
  SPAUTH_FAILPOINT_RETURN("engine/assemble");
  SPAUTH_ASSIGN_OR_RETURN(ProofBundle bundle, AnswerUncached(state, query, ws));
  auto shared = std::make_shared<const ProofBundle>(std::move(bundle));
  // A fired cache_insert point drops only the memoization; the answer is
  // served either way.
  if (!SPAUTH_FAILPOINT_TRIGGERED("engine/cache_insert")) {
    state.cache->Insert(key, shared, shared->bytes.size());
  }
  return shared;
}

VerifyOutcome MethodEngine::Verify(const Query& query,
                                   const ProofBundle& bundle) const {
  VerifyWorkspace ws;
  return Verify(query, bundle, ws);
}

VerifyOutcome MethodEngine::Verify(const Query& query,
                                   const ProofBundle& bundle,
                                   VerifyWorkspace& ws) const {
  WireVerification wire;
  VerifyWireAnswer(owner_key_, query, bundle.bytes, ws, &wire);
  // The wire verifier follows whichever method the certificate names; an
  // engine vouches for its own method only.
  if (wire.method != kind() &&
      wire.outcome.failure != VerifyFailure::kMalformedProof) {
    return VerifyOutcome::Reject(
        VerifyFailure::kBadCertificate,
        "certificate is for " + std::string(ToString(wire.method)) +
            ", not " + std::string(name()));
  }
  return std::move(wire.outcome);
}

std::vector<Result<ProofBundle>> MethodEngine::AnswerBatch(
    std::span<const Query> queries, size_t num_threads) const {
  std::vector<Result<ProofBundle>> results(
      queries.size(), Status::Internal("query not answered"));
  struct Worker {
    SearchWorkspace ws;  // per-worker scratch, hot for the whole stream
    std::shared_ptr<const EngineState> snap;  // per-worker snapshot pin
  };
  ParallelFor(
      queries.size(), num_threads, [] { return Worker{}; },
      [&](size_t i, Worker& w) {
        slot_.Refresh(&w.snap);  // one acquire load unless a rotation landed
        results[i] = AnswerOn(*w.snap, queries[i], w.ws);
      });
  return results;
}

namespace {

/// The one engine: serves method M's snapshots through M's provider.
/// Owner-side updates, durable snapshots and adoption are DIJ-only
/// (DijEngine below); every other method keeps the base class's
/// FailedPrecondition answers.
template <typename M>
class AdsEngine : public MethodEngine {
 public:
  using Snapshot = AdsState<typename M::Ads>;

  AdsEngine(const EngineOptions& options, std::shared_ptr<const Graph> g,
            typename M::Ads ads, RsaPublicKey owner_key)
      : MethodEngine(options, std::move(owner_key)) {
    PublishState(NewSnapshot(std::move(g), std::move(ads)));
  }

  MethodKind kind() const override { return M::kKind; }
  size_t storage_bytes() const override {
    return M::StorageBytes(Current()->ads);
  }

 protected:
  Result<ProofBundle> AnswerUncached(const EngineState& state,
                                     const Query& query,
                                     SearchWorkspace& ws) const override {
    const Snapshot& s = static_cast<const Snapshot&>(state);
    const typename M::Provider provider(s.graph.get(), &s.ads,
                                        provider_algorithm());
    SPAUTH_ASSIGN_OR_RETURN(typename M::Answer answer,
                            provider.Answer(query, ws));
    return MakeBundle<M>(s.certificate, s.cert_size, answer);
  }

  /// A snapshot serving `ads` over `g`, its certificate mirrored out of
  /// the ADS.
  static std::unique_ptr<Snapshot> NewSnapshot(std::shared_ptr<const Graph> g,
                                               typename M::Ads ads) {
    auto state = std::make_unique<Snapshot>(std::move(ads));
    state->graph = std::move(g);
    state->certificate = state->ads.certificate;
    state->cert_size = state->certificate.SerializedSize();
    return state;
  }

  std::shared_ptr<const Snapshot> Current() const {
    return std::static_pointer_cast<const Snapshot>(CurrentState());
  }
};

/// DIJ's ADS absorbs updates incrementally (core/updates.h), so only DIJ
/// rotates, persists and adopts snapshots.
class DijEngine final : public AdsEngine<DijMethod> {
 public:
  using AdsEngine::AdsEngine;

  Result<uint32_t> ApplyUpdates(
      const RsaKeyPair* keys,
      std::span<const StructuralUpdate> ops) override {
    std::unique_lock<std::mutex> rotation = LockForUpdate();
    const std::shared_ptr<const Snapshot> cur = Current();
    if (ops.empty()) {
      return cur->certificate.params.version;  // nothing to absorb
    }
    // Copy-on-write rotation: the graph/ADS "clones" share every chunk
    // with the published snapshot (pointer spines only); absorbing the
    // batch path-copies just the touched adjacency blocks, tuple chunks
    // and Merkle path chunks — the CSR splices and the tree grows a leaf
    // per added vertex when the shape changes — then signs ONCE at
    // version + k (or defers the signature in forest mode). A failed
    // batch publishes nothing.
    size_t copied_bytes = 0;
    auto graph = std::make_shared<Graph>(*cur->graph);
    DijAds ads = cur->ads;
    SPAUTH_RETURN_IF_ERROR(
        spauth::ApplyUpdates(graph.get(), &ads, keys, ops, &copied_bytes));
    std::unique_ptr<Snapshot> next =
        NewSnapshot(std::move(graph), std::move(ads));
    const uint32_t version = next->certificate.params.version;
    // Durability barrier: the batch reaches the write-ahead log (and the
    // disk) before anything can observe the new snapshot. A crash after
    // this line re-drives the batch on recovery; deterministic signing
    // reproduces the exact certificate built above.
    if (Wal* wal = attached_wal()) {
      WalRecord record;
      record.base_version = cur->certificate.params.version;
      record.updates.assign(ops.begin(), ops.end());
      SPAUTH_RETURN_IF_ERROR(wal->Append(record));
    }
    // Last fallible step before the publish: a fired point here discards
    // the fully-built clone and leaves the old snapshot serving.
    SPAUTH_FAILPOINT_RETURN("engine/publish");
    AddRotationCloneBytes(copied_bytes);
    PublishState(std::move(next));
    return version;
  }

  Status SerializeDurableState(ByteWriter* out) const override {
    EncodeSnapshotPayload(Current()->ads, out);
    return Status::Ok();
  }

  Result<uint32_t> AdoptStateFrom(const MethodEngine& source) override {
    if (source.kind() != MethodKind::kDij || &source == this) {
      return Status::FailedPrecondition(
          "state adoption requires a distinct DIJ sibling");
    }
    std::unique_lock<std::mutex> rotation = LockForUpdate();
    const auto src =
        std::static_pointer_cast<const Snapshot>(source.CurrentState());
    const std::shared_ptr<const Snapshot> cur = Current();
    if (cur->certificate.params.version >= src->certificate.params.version) {
      return cur->certificate.params.version;  // already caught up
    }
    // The adopted snapshot shares the sibling's chunks outright — the same
    // structural sharing a rotation exploits, except nothing is copied but
    // the spines. The sibling's future rotations copy-on-write away from
    // these chunks, never through them.
    std::unique_ptr<Snapshot> next = NewSnapshot(src->graph, src->ads);
    const uint32_t version = next->certificate.params.version;
    PublishState(std::move(next));
    return version;
  }
};

/// The engine class serving method M.
template <typename M>
struct EngineFor {
  using type = AdsEngine<M>;
};
template <>
struct EngineFor<DijMethod> {
  using type = DijEngine;
};

}  // namespace

Result<DijAds> DijMethod::Build(const Graph& g, const EngineOptions& options,
                                const RsaKeyPair& keys) {
  DijOptions o;
  o.ordering = options.ordering;
  o.fanout = options.fanout;
  o.alg = options.alg;
  o.seed = options.seed;
  return BuildDijAds(g, o, keys);
}

Result<FullAds> FullMethod::Build(const Graph& g,
                                  const EngineOptions& options,
                                  const RsaKeyPair& keys) {
  FullOptions o;
  o.ordering = options.ordering;
  o.fanout = options.fanout;
  o.distance_fanout = options.distance_fanout;
  o.alg = options.alg;
  o.use_floyd_warshall = options.full_use_floyd_warshall;
  o.seed = options.seed;
  return BuildFullAds(g, o, keys);
}

Result<LdmAds> LdmMethod::Build(const Graph& g, const EngineOptions& options,
                                const RsaKeyPair& keys) {
  LdmOptions o;
  o.ordering = options.ordering;
  o.fanout = options.fanout;
  o.alg = options.alg;
  o.num_landmarks = options.num_landmarks;
  o.quantization_bits = options.quantization_bits;
  o.compression_xi = options.compression_xi;
  o.strategy = options.landmark_strategy;
  o.seed = options.seed;
  return BuildLdmAds(g, o, keys);
}

Result<HypAds> HypMethod::Build(const Graph& g, const EngineOptions& options,
                                const RsaKeyPair& keys) {
  HypOptions o;
  o.ordering = options.ordering;
  o.fanout = options.fanout;
  o.distance_fanout = options.distance_fanout;
  o.alg = options.alg;
  o.num_cells = options.num_cells;
  o.seed = options.seed;
  return BuildHypAds(g, o, keys);
}

Result<std::unique_ptr<MethodEngine>> MakeEngine(const Graph& g,
                                                 const EngineOptions& options,
                                                 const RsaKeyPair& keys) {
  WallTimer timer;
  std::unique_ptr<MethodEngine> engine;
  SPAUTH_RETURN_IF_ERROR(VisitMethod(options.method, [&](auto method) {
    using M = decltype(method);
    SPAUTH_ASSIGN_OR_RETURN(typename M::Ads ads, M::Build(g, options, keys));
    engine = std::make_unique<typename EngineFor<M>::type>(
        options, UnownedGraph(g), std::move(ads), keys.public_key());
    return Status::Ok();
  }));
  // Record the owner's offline construction time (Figures 8c, 9b, 12b, 13b).
  engine->set_construction_seconds(timer.ElapsedSeconds());
  return engine;
}

Result<std::unique_ptr<MethodEngine>> MakeDijEngineFromState(
    const EngineOptions& options, std::shared_ptr<const Graph> graph,
    DijAds ads, RsaPublicKey owner_key) {
  if (options.method != MethodKind::kDij) {
    return Status::InvalidArgument(
        "recovered-state construction is DIJ only");
  }
  if (graph == nullptr ||
      graph->num_nodes() != ads.network.num_nodes()) {
    return Status::InvalidArgument(
        "recovered graph does not match the recovered ADS");
  }
  std::unique_ptr<MethodEngine> engine = std::make_unique<DijEngine>(
      options, std::move(graph), std::move(ads), std::move(owner_key));
  return engine;
}

}  // namespace spauth
