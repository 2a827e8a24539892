#include "core/engine.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <unordered_set>

#include "core/dij.h"
#include "core/full.h"
#include "core/hyp.h"
#include "core/ldm.h"
#include "core/snapshot_store.h"
#include "core/updates.h"
#include "core/wal.h"
#include "core/verify_workspace.h"
#include "graph/dijkstra.h"
#include "util/failpoint.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace spauth {

std::string_view ToString(TamperKind kind) {
  switch (kind) {
    case TamperKind::kSuboptimalPath:
      return "suboptimal-path";
    case TamperKind::kTamperWeight:
      return "tamper-weight";
    case TamperKind::kDropTuple:
      return "drop-tuple";
    case TamperKind::kForgeDistanceValue:
      return "forge-distance";
    case TamperKind::kBogusSignature:
      return "bogus-signature";
    case TamperKind::kPhantomEdge:
      return "phantom-edge";
  }
  return "?";
}

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

MethodEngine::MethodEngine(const EngineOptions& options)
    : cache_enabled_(options.enable_proof_cache),
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
    const ProofCacheStats s = state.cache->GetStats();
    std::lock_guard<std::mutex> lock(retired_mu_);
    retired_.hits += s.hits;
    retired_.misses += s.misses;
    retired_.insertions += s.insertions;
    retired_.evictions += s.evictions;
    // Rotation retired the resident entries wholesale; account them as
    // cleared so the books conserve across snapshot lifetimes.
    retired_.cleared += s.cleared + s.entries;
    retired_.hit_bytes += s.hit_bytes;
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
    const ProofCacheStats live = state->cache->GetStats();
    stats.hits += live.hits;
    stats.misses += live.misses;
    stats.insertions += live.insertions;
    stats.evictions += live.evictions;
    stats.cleared += live.cleared;
    stats.hit_bytes += live.hit_bytes;
    stats.entries += live.entries;
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

std::vector<Result<ProofBundle>> MethodEngine::AnswerBatch(
    std::span<const Query> queries, size_t num_threads) const {
  std::vector<Result<ProofBundle>> results(
      queries.size(), Status::Internal("query not answered"));
  if (queries.empty()) {
    return results;
  }
  if (num_threads == 0) {
    num_threads = ThreadPool::DefaultThreads(queries.size());
  }
  num_threads = std::min(num_threads, queries.size());
  if (num_threads <= 1) {
    SearchWorkspace ws;
    std::shared_ptr<const EngineState> snap;
    for (size_t i = 0; i < queries.size(); ++i) {
      slot_.Refresh(&snap);  // one acquire load unless a rotation landed
      results[i] = AnswerOn(*snap, queries[i], ws);
    }
    return results;
  }
  ThreadPool pool(num_threads);
  std::atomic<size_t> next{0};
  for (size_t w = 0; w < num_threads; ++w) {
    pool.Submit([this, &queries, &results, &next] {
      SearchWorkspace ws;  // per-worker scratch, hot for the whole stream
      std::shared_ptr<const EngineState> snap;  // per-worker snapshot pin
      for (size_t i = next.fetch_add(1); i < queries.size();
           i = next.fetch_add(1)) {
        slot_.Refresh(&snap);
        results[i] = AnswerOn(*snap, queries[i], ws);
      }
    });
  }
  pool.Wait();
  return results;
}

namespace {

/// Wire layout shared by all engines: certificate followed by the answer.
/// `cert_size` is the (per-snapshot constant) certificate wire size;
/// together with Answer::SerializedSize() it pre-sizes the buffer so
/// assembly never reallocates.
template <typename Answer>
std::vector<uint8_t> EncodeBundle(const Certificate& cert,
                                  const Answer& answer, size_t cert_size) {
  ByteWriter w;
  const size_t expected = cert_size + answer.SerializedSize();
  w.Reserve(expected);
  cert.Serialize(&w);
  answer.Serialize(&w);
  assert(w.size() == expected && "SerializedSize out of sync with Serialize");
  return w.TakeBytes();
}

/// Decodes a bundle into workspace scratch (certificate + answer), reusing
/// the scratch capacity across bundles.
template <typename Answer>
Status DecodeBundleInto(std::span<const uint8_t> bytes, Certificate* cert,
                        Answer* answer) {
  ByteReader r(bytes);
  SPAUTH_RETURN_IF_ERROR(Certificate::DeserializeInto(&r, cert));
  SPAUTH_RETURN_IF_ERROR(Answer::DeserializeInto(&r, answer));
  if (!r.AtEnd()) {
    return Status::Malformed("trailing bytes after answer");
  }
  return Status::Ok();
}

/// Flips one bit inside the certificate's signature region of a bundle.
/// The signature is the last length-prefixed field of the certificate,
/// which is the first structure in the bundle — rather than tracking
/// offsets, re-encode with a corrupted certificate.
template <typename Answer>
std::vector<uint8_t> EncodeWithBogusSignature(Certificate cert,
                                              const Answer& answer) {
  if (!cert.signature.empty()) {
    cert.signature[cert.signature.size() / 2] ^= 0x40;
  }
  return EncodeBundle(cert, answer, cert.SerializedSize());
}

/// Computes a strictly-longer alternative path by deleting one edge of the
/// true shortest path at a time. NotFound if every alternative ties or the
/// target becomes unreachable.
Result<PathSearchResult> FindSuboptimalPath(const Graph& g,
                                            const Query& query) {
  PathSearchResult best = DijkstraShortestPath(g, query.source, query.target);
  if (!best.reachable) {
    return Status::NotFound("unreachable");
  }
  for (size_t hop = 1; hop < best.path.nodes.size(); ++hop) {
    const NodeId u = best.path.nodes[hop - 1];
    const NodeId v = best.path.nodes[hop];
    // Rebuild the graph without edge (u, v).
    GraphBuilder builder;
    for (NodeId n = 0; n < g.num_nodes(); ++n) {
      builder.AddNode(g.x(n), g.y(n));
    }
    for (NodeId n = 0; n < g.num_nodes(); ++n) {
      for (const Edge& e : g.Neighbors(n)) {
        if (n < e.to && !(n == std::min(u, v) && e.to == std::max(u, v))) {
          Status s = builder.AddEdge(n, e.to, e.weight);
          if (!s.ok()) {
            return s;
          }
        }
      }
    }
    auto reduced = builder.Build();
    if (!reduced.ok()) {
      return reduced.status();
    }
    PathSearchResult alt =
        DijkstraShortestPath(reduced.value(), query.source, query.target);
    if (alt.reachable &&
        alt.distance > best.distance + 10 * VerifySlack(best.distance)) {
      return alt;
    }
  }
  return Status::NotFound("no strictly longer alternative path");
}

/// Picks a tuple inside `proof` (by node id) and perturbs one of its edge
/// weights without re-hashing — the tampered-weight attack.
Status CorruptOneTupleWeight(TupleSetProof* proof) {
  for (ExtendedTuple& t : proof->tuples) {
    if (!t.neighbors.empty()) {
      t.neighbors[0].weight += 1.0;
      return Status::Ok();
    }
  }
  return Status::NotFound("no tuple with neighbors to corrupt");
}

// ---------------------------------------------------------------------------
// DIJ engine
// ---------------------------------------------------------------------------

/// DIJ snapshot: the network ADS (its certificate mirrors
/// EngineState::certificate by construction).
struct DijState final : EngineState {
  explicit DijState(DijAds a) : ads(std::move(a)) {}
  DijAds ads;
};

class DijEngine : public MethodEngine {
 public:
  DijEngine(const EngineOptions& options,
            std::shared_ptr<const Graph> g, DijAds ads,
            RsaPublicKey owner_key)
      : MethodEngine(options),
        owner_key_(std::move(owner_key)),
        algosp_(options.provider_algorithm) {
    auto state = std::make_unique<DijState>(std::move(ads));
    state->graph = std::move(g);
    state->certificate = state->ads.certificate;
    state->cert_size = state->certificate.SerializedSize();
    PublishState(std::move(state));
  }

  MethodKind kind() const override { return MethodKind::kDij; }
  size_t storage_bytes() const override {
    return State()->ads.network.StorageBytes();
  }

  Result<ProofBundle> AnswerUncached(const EngineState& state,
                                     const Query& query,
                                     SearchWorkspace& ws) const override {
    const DijState& s = static_cast<const DijState&>(state);
    DijProvider provider(s.graph.get(), &s.ads, algosp_);
    SPAUTH_ASSIGN_OR_RETURN(DijAnswer answer, provider.Answer(query, ws));
    return MakeBundle(s, answer);
  }

  Result<uint32_t> ApplyUpdates(
      const RsaKeyPair* keys,
      std::span<const StructuralUpdate> ops) override {
    std::unique_lock<std::mutex> rotation = LockForUpdate();
    const std::shared_ptr<const DijState> cur = State();
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
    auto next = std::make_unique<DijState>(cur->ads);
    SPAUTH_RETURN_IF_ERROR(spauth::ApplyUpdates(graph.get(), &next->ads, keys,
                                                ops, &copied_bytes));
    next->graph = std::move(graph);
    next->certificate = next->ads.certificate;
    next->cert_size = next->certificate.SerializedSize();
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
    EncodeSnapshotPayload(State()->ads, out);
    return Status::Ok();
  }

  Result<uint32_t> AdoptStateFrom(const MethodEngine& source) override {
    if (source.kind() != MethodKind::kDij || &source == this) {
      return Status::FailedPrecondition(
          "state adoption requires a distinct DIJ sibling");
    }
    std::unique_lock<std::mutex> rotation = LockForUpdate();
    const auto src = std::static_pointer_cast<const DijState>(
        source.CurrentState());
    const std::shared_ptr<const DijState> cur = State();
    if (cur->certificate.params.version >= src->certificate.params.version) {
      return cur->certificate.params.version;  // already caught up
    }
    // The adopted snapshot shares the sibling's chunks outright — the same
    // structural sharing a rotation exploits, except nothing is copied but
    // the spines. The sibling's future rotations copy-on-write away from
    // these chunks, never through them.
    auto next = std::make_unique<DijState>(src->ads);
    next->graph = src->graph;
    next->certificate = next->ads.certificate;
    next->cert_size = next->certificate.SerializedSize();
    const uint32_t version = next->certificate.params.version;
    PublishState(std::move(next));
    return version;
  }

  Result<ProofBundle> TamperedAnswer(const Query& query,
                                     TamperKind kind) const override {
    const std::shared_ptr<const DijState> s = State();
    const Graph& g = *s->graph;
    DijProvider provider(s->graph.get(), &s->ads, algosp_);
    switch (kind) {
      case TamperKind::kSuboptimalPath: {
        SPAUTH_ASSIGN_OR_RETURN(PathSearchResult alt,
                                FindSuboptimalPath(g, query));
        // "Honest" proof generation relative to the longer distance.
        BallResult ball = DijkstraBall(g, query.source,
                                       alt.distance +
                                           ProviderSlack(alt.distance));
        DijAnswer answer;
        answer.path = std::move(alt.path);
        answer.distance = alt.distance;
        SPAUTH_ASSIGN_OR_RETURN(answer.subgraph,
                                s->ads.network.ProveTuples(ball.nodes));
        return MakeBundle(*s, answer);
      }
      case TamperKind::kTamperWeight: {
        SPAUTH_ASSIGN_OR_RETURN(DijAnswer answer, provider.Answer(query));
        SPAUTH_RETURN_IF_ERROR(CorruptOneTupleWeight(&answer.subgraph));
        return MakeBundle(*s, answer);
      }
      case TamperKind::kDropTuple: {
        SPAUTH_ASSIGN_OR_RETURN(DijAnswer answer, provider.Answer(query));
        BallResult ball = DijkstraBall(g, query.source,
                                       answer.distance +
                                           ProviderSlack(answer.distance));
        std::unordered_set<NodeId> path_nodes(answer.path.nodes.begin(),
                                              answer.path.nodes.end());
        NodeId victim = kInvalidNode;
        std::vector<NodeId> kept;
        for (size_t i = 0; i < ball.nodes.size(); ++i) {
          const NodeId v = ball.nodes[i];
          if (victim == kInvalidNode && !path_nodes.contains(v) &&
              ball.dist[i] > 0 && ball.dist[i] < answer.distance * 0.8) {
            victim = v;  // interior node the client's Dijkstra must expand
            continue;
          }
          kept.push_back(v);
        }
        if (victim == kInvalidNode) {
          return Status::NotFound("no droppable interior tuple");
        }
        SPAUTH_ASSIGN_OR_RETURN(answer.subgraph,
                                s->ads.network.ProveTuples(kept));
        return MakeBundle(*s, answer);
      }
      case TamperKind::kBogusSignature: {
        SPAUTH_ASSIGN_OR_RETURN(DijAnswer answer, provider.Answer(query));
        ProofBundle bundle = MakeBundle(*s, answer);
        bundle.bytes = EncodeWithBogusSignature(s->ads.certificate, answer);
        return bundle;
      }
      case TamperKind::kPhantomEdge: {
        SPAUTH_ASSIGN_OR_RETURN(DijAnswer answer, provider.Answer(query));
        answer.path.nodes = {query.source, query.target};
        return MakeBundle(*s, answer);
      }
      case TamperKind::kForgeDistanceValue:
        return Status::FailedPrecondition("DIJ has no distance entries");
    }
    return Status::Internal("unhandled tamper kind");
  }

  using MethodEngine::Verify;
  VerifyOutcome Verify(const Query& query, const ProofBundle& bundle,
                       VerifyWorkspace& ws) const override {
    if (Status s = DecodeBundleInto<DijAnswer>(bundle.bytes, &ws.cert,
                                               &ws.dij);
        !s.ok()) {
      return VerifyOutcome::Reject(VerifyFailure::kMalformedProof,
                                   s.message());
    }
    return VerifyDijAnswer(owner_key_, ws.cert, query, ws.dij, ws);
  }

 private:
  std::shared_ptr<const DijState> State() const {
    return std::static_pointer_cast<const DijState>(CurrentState());
  }

  ProofBundle MakeBundle(const DijState& s, const DijAnswer& answer) const {
    ProofBundle bundle;
    bundle.path = answer.path;
    bundle.distance = answer.distance;
    bundle.bytes = EncodeBundle(s.ads.certificate, answer, s.cert_size);
    bundle.stats.sp_bytes = answer.subgraph.TupleBytes();
    bundle.stats.t_bytes = answer.subgraph.IntegrityBytes() + s.cert_size;
    bundle.stats.sp_items = answer.subgraph.tuples.size();
    bundle.stats.t_items = answer.subgraph.proof.num_digests();
    return bundle;
  }

  RsaPublicKey owner_key_;
  SpAlgorithm algosp_;
};

// ---------------------------------------------------------------------------
// FULL engine
// ---------------------------------------------------------------------------

struct FullState final : EngineState {
  explicit FullState(FullAds a) : ads(std::move(a)) {}
  FullAds ads;
};

class FullEngine : public MethodEngine {
 public:
  FullEngine(const EngineOptions& options,
            std::shared_ptr<const Graph> g, FullAds ads,
            RsaPublicKey owner_key)
      : MethodEngine(options),
        owner_key_(std::move(owner_key)),
        algosp_(options.provider_algorithm) {
    auto state = std::make_unique<FullState>(std::move(ads));
    state->graph = std::move(g);
    state->certificate = state->ads.certificate;
    state->cert_size = state->certificate.SerializedSize();
    PublishState(std::move(state));
  }

  MethodKind kind() const override { return MethodKind::kFull; }
  size_t storage_bytes() const override {
    const std::shared_ptr<const FullState> s = State();
    return s->ads.network.StorageBytes() + s->ads.distances.StorageBytes();
  }

  Result<ProofBundle> AnswerUncached(const EngineState& state,
                                     const Query& query,
                                     SearchWorkspace& ws) const override {
    const FullState& s = static_cast<const FullState&>(state);
    FullProvider provider(s.graph.get(), &s.ads, algosp_);
    SPAUTH_ASSIGN_OR_RETURN(FullAnswer answer, provider.Answer(query, ws));
    return MakeBundle(s, answer);
  }

  Result<ProofBundle> TamperedAnswer(const Query& query,
                                     TamperKind kind) const override {
    const std::shared_ptr<const FullState> s = State();
    const Graph& g = *s->graph;
    FullProvider provider(s->graph.get(), &s->ads, algosp_);
    switch (kind) {
      case TamperKind::kSuboptimalPath: {
        SPAUTH_ASSIGN_OR_RETURN(PathSearchResult alt,
                                FindSuboptimalPath(g, query));
        SPAUTH_ASSIGN_OR_RETURN(FullAnswer answer, provider.Answer(query));
        answer.distance = alt.distance;
        answer.path = alt.path;
        SPAUTH_ASSIGN_OR_RETURN(
            answer.path_tuples,
            s->ads.network.ProveTuples(answer.path.nodes));
        return MakeBundle(*s, answer);
      }
      case TamperKind::kTamperWeight: {
        SPAUTH_ASSIGN_OR_RETURN(FullAnswer answer, provider.Answer(query));
        SPAUTH_RETURN_IF_ERROR(CorruptOneTupleWeight(&answer.path_tuples));
        return MakeBundle(*s, answer);
      }
      case TamperKind::kDropTuple: {
        SPAUTH_ASSIGN_OR_RETURN(FullAnswer answer, provider.Answer(query));
        if (answer.path.nodes.size() < 3) {
          return Status::NotFound("path too short to drop a tuple");
        }
        std::vector<NodeId> kept = answer.path.nodes;
        kept.erase(kept.begin() + static_cast<ptrdiff_t>(kept.size() / 2));
        SPAUTH_ASSIGN_OR_RETURN(answer.path_tuples,
                                s->ads.network.ProveTuples(kept));
        return MakeBundle(*s, answer);
      }
      case TamperKind::kForgeDistanceValue: {
        SPAUTH_ASSIGN_OR_RETURN(FullAnswer answer, provider.Answer(query));
        answer.distance_proof.entries[0].value *= 1.1;
        return MakeBundle(*s, answer);
      }
      case TamperKind::kBogusSignature: {
        SPAUTH_ASSIGN_OR_RETURN(FullAnswer answer, provider.Answer(query));
        auto bundle = MakeBundle(*s, answer);
        if (!bundle.ok()) {
          return bundle;
        }
        bundle.value().bytes =
            EncodeWithBogusSignature(s->ads.certificate, answer);
        return bundle;
      }
      case TamperKind::kPhantomEdge: {
        SPAUTH_ASSIGN_OR_RETURN(FullAnswer answer, provider.Answer(query));
        answer.path.nodes = {query.source, query.target};
        return MakeBundle(*s, answer);
      }
    }
    return Status::Internal("unhandled tamper kind");
  }

  using MethodEngine::Verify;
  VerifyOutcome Verify(const Query& query, const ProofBundle& bundle,
                       VerifyWorkspace& ws) const override {
    if (Status s = DecodeBundleInto<FullAnswer>(bundle.bytes, &ws.cert,
                                                &ws.full);
        !s.ok()) {
      return VerifyOutcome::Reject(VerifyFailure::kMalformedProof,
                                   s.message());
    }
    return VerifyFullAnswer(owner_key_, ws.cert, query, ws.full, ws);
  }

 private:
  std::shared_ptr<const FullState> State() const {
    return std::static_pointer_cast<const FullState>(CurrentState());
  }

  Result<ProofBundle> MakeBundle(const FullState& s,
                                 const FullAnswer& answer) const {
    ProofBundle bundle;
    bundle.path = answer.path;
    bundle.distance = answer.distance;
    bundle.bytes = EncodeBundle(s.ads.certificate, answer, s.cert_size);
    // Gamma_S: the authenticated distance tuple and its B-tree digests.
    bundle.stats.sp_bytes = answer.distance_proof.SerializedSize();
    bundle.stats.sp_items = answer.distance_proof.entries.size() +
                            answer.distance_proof.tree_proof.num_digests();
    // Gamma_T: the path tuples and the network digests.
    bundle.stats.t_bytes = answer.path_tuples.TupleBytes() +
                           answer.path_tuples.IntegrityBytes() + s.cert_size;
    bundle.stats.t_items = answer.path_tuples.tuples.size() +
                           answer.path_tuples.proof.num_digests();
    return bundle;
  }

  RsaPublicKey owner_key_;
  SpAlgorithm algosp_;
};

// ---------------------------------------------------------------------------
// LDM engine
// ---------------------------------------------------------------------------

struct LdmState final : EngineState {
  explicit LdmState(LdmAds a) : ads(std::move(a)) {}
  LdmAds ads;
};

class LdmEngine : public MethodEngine {
 public:
  LdmEngine(const EngineOptions& options,
            std::shared_ptr<const Graph> g, LdmAds ads,
            RsaPublicKey owner_key)
      : MethodEngine(options),
        owner_key_(std::move(owner_key)),
        algosp_(options.provider_algorithm) {
    auto state = std::make_unique<LdmState>(std::move(ads));
    state->graph = std::move(g);
    state->certificate = state->ads.certificate;
    state->cert_size = state->certificate.SerializedSize();
    PublishState(std::move(state));
  }

  MethodKind kind() const override { return MethodKind::kLdm; }
  size_t storage_bytes() const override {
    const std::shared_ptr<const LdmState> s = State();
    return s->ads.network.StorageBytes() + s->ads.ref.size() * 12;
  }

  Result<ProofBundle> AnswerUncached(const EngineState& state,
                                     const Query& query,
                                     SearchWorkspace& ws) const override {
    const LdmState& s = static_cast<const LdmState&>(state);
    LdmProvider provider(s.graph.get(), &s.ads, algosp_);
    SPAUTH_ASSIGN_OR_RETURN(LdmAnswer answer, provider.Answer(query, ws));
    return MakeBundle(s, answer);
  }

  Result<ProofBundle> TamperedAnswer(const Query& query,
                                     TamperKind kind) const override {
    const std::shared_ptr<const LdmState> s = State();
    const Graph& g = *s->graph;
    LdmProvider provider(s->graph.get(), &s->ads, algosp_);
    switch (kind) {
      case TamperKind::kSuboptimalPath: {
        SPAUTH_ASSIGN_OR_RETURN(PathSearchResult alt,
                                FindSuboptimalPath(g, query));
        // Re-issue the provider's proof against the inflated distance by
        // answering a fake "claim": rebuild Gamma_S around alt.distance.
        SPAUTH_ASSIGN_OR_RETURN(LdmAnswer honest, provider.Answer(query));
        LdmAnswer answer;
        answer.path = std::move(alt.path);
        answer.distance = alt.distance;
        // A superset proof (radius alt.distance) keeps the Merkle part
        // valid while the path is suboptimal.
        BallResult ball = DijkstraBall(g, query.source,
                                       alt.distance +
                                           ProviderSlack(alt.distance));
        std::vector<NodeId> nodes = ball.nodes;
        const size_t direct = nodes.size();
        for (size_t i = 0; i < direct; ++i) {
          for (const Edge& e : g.Neighbors(nodes[i])) {
            nodes.push_back(e.to);
          }
        }
        const size_t with_neighbors = nodes.size();
        for (size_t i = 0; i < with_neighbors; ++i) {
          nodes.push_back(s->ads.ref[nodes[i]]);
        }
        nodes.push_back(query.source);
        nodes.push_back(query.target);
        nodes.push_back(s->ads.ref[query.source]);
        nodes.push_back(s->ads.ref[query.target]);
        SPAUTH_ASSIGN_OR_RETURN(answer.subgraph,
                                s->ads.network.ProveTuples(nodes));
        (void)honest;
        return MakeBundle(*s, answer);
      }
      case TamperKind::kTamperWeight: {
        SPAUTH_ASSIGN_OR_RETURN(LdmAnswer answer, provider.Answer(query));
        SPAUTH_RETURN_IF_ERROR(CorruptOneTupleWeight(&answer.subgraph));
        return MakeBundle(*s, answer);
      }
      case TamperKind::kDropTuple: {
        SPAUTH_ASSIGN_OR_RETURN(LdmAnswer answer, provider.Answer(query));
        if (answer.path.nodes.size() < 3) {
          return Status::NotFound("path too short to drop a tuple");
        }
        // Drop a middle path node from the proof (it is certainly needed).
        const NodeId victim =
            answer.path.nodes[answer.path.nodes.size() / 2];
        std::vector<NodeId> kept;
        for (const ExtendedTuple& t : answer.subgraph.tuples) {
          if (t.id != victim) {
            kept.push_back(t.id);
          }
        }
        SPAUTH_ASSIGN_OR_RETURN(answer.subgraph,
                                s->ads.network.ProveTuples(kept));
        return MakeBundle(*s, answer);
      }
      case TamperKind::kBogusSignature: {
        SPAUTH_ASSIGN_OR_RETURN(LdmAnswer answer, provider.Answer(query));
        auto bundle = MakeBundle(*s, answer);
        if (!bundle.ok()) {
          return bundle;
        }
        bundle.value().bytes =
            EncodeWithBogusSignature(s->ads.certificate, answer);
        return bundle;
      }
      case TamperKind::kPhantomEdge: {
        SPAUTH_ASSIGN_OR_RETURN(LdmAnswer answer, provider.Answer(query));
        answer.path.nodes = {query.source, query.target};
        return MakeBundle(*s, answer);
      }
      case TamperKind::kForgeDistanceValue:
        return Status::FailedPrecondition("LDM has no distance entries");
    }
    return Status::Internal("unhandled tamper kind");
  }

  using MethodEngine::Verify;
  VerifyOutcome Verify(const Query& query, const ProofBundle& bundle,
                       VerifyWorkspace& ws) const override {
    if (Status s = DecodeBundleInto<LdmAnswer>(bundle.bytes, &ws.cert,
                                               &ws.ldm);
        !s.ok()) {
      return VerifyOutcome::Reject(VerifyFailure::kMalformedProof,
                                   s.message());
    }
    return VerifyLdmAnswer(owner_key_, ws.cert, query, ws.ldm, ws);
  }

 private:
  std::shared_ptr<const LdmState> State() const {
    return std::static_pointer_cast<const LdmState>(CurrentState());
  }

  Result<ProofBundle> MakeBundle(const LdmState& s,
                                 const LdmAnswer& answer) const {
    ProofBundle bundle;
    bundle.path = answer.path;
    bundle.distance = answer.distance;
    bundle.bytes = EncodeBundle(s.ads.certificate, answer, s.cert_size);
    bundle.stats.sp_bytes = answer.subgraph.TupleBytes();
    bundle.stats.t_bytes = answer.subgraph.IntegrityBytes() + s.cert_size;
    bundle.stats.sp_items = answer.subgraph.tuples.size();
    bundle.stats.t_items = answer.subgraph.proof.num_digests();
    return bundle;
  }

  RsaPublicKey owner_key_;
  SpAlgorithm algosp_;
};

// ---------------------------------------------------------------------------
// HYP engine
// ---------------------------------------------------------------------------

struct HypState final : EngineState {
  explicit HypState(HypAds a) : ads(std::move(a)) {}
  HypAds ads;
};

class HypEngine : public MethodEngine {
 public:
  HypEngine(const EngineOptions& options,
            std::shared_ptr<const Graph> g, HypAds ads,
            RsaPublicKey owner_key)
      : MethodEngine(options),
        owner_key_(std::move(owner_key)),
        algosp_(options.provider_algorithm) {
    auto state = std::make_unique<HypState>(std::move(ads));
    state->graph = std::move(g);
    state->certificate = state->ads.certificate;
    state->cert_size = state->certificate.SerializedSize();
    PublishState(std::move(state));
  }

  MethodKind kind() const override { return MethodKind::kHyp; }
  size_t storage_bytes() const override {
    const std::shared_ptr<const HypState> s = State();
    return s->ads.network.StorageBytes() + s->ads.distances.StorageBytes();
  }

  Result<ProofBundle> AnswerUncached(const EngineState& state,
                                     const Query& query,
                                     SearchWorkspace& ws) const override {
    const HypState& s = static_cast<const HypState&>(state);
    HypProvider provider(s.graph.get(), &s.ads, algosp_);
    SPAUTH_ASSIGN_OR_RETURN(HypAnswer answer, provider.Answer(query, ws));
    return MakeBundle(s, answer);
  }

  Result<ProofBundle> TamperedAnswer(const Query& query,
                                     TamperKind kind) const override {
    const std::shared_ptr<const HypState> s = State();
    const Graph& g = *s->graph;
    HypProvider provider(s->graph.get(), &s->ads, algosp_);
    switch (kind) {
      case TamperKind::kSuboptimalPath: {
        SPAUTH_ASSIGN_OR_RETURN(PathSearchResult alt,
                                FindSuboptimalPath(g, query));
        SPAUTH_ASSIGN_OR_RETURN(HypAnswer answer, provider.Answer(query));
        answer.distance = alt.distance;
        answer.path = alt.path;
        // Tuple proof must still cover the (new) path nodes.
        std::vector<NodeId> nodes;
        for (const ExtendedTuple& t : answer.tuples.tuples) {
          nodes.push_back(t.id);
        }
        nodes.insert(nodes.end(), alt.path.nodes.begin(),
                     alt.path.nodes.end());
        SPAUTH_ASSIGN_OR_RETURN(answer.tuples,
                                s->ads.network.ProveTuples(nodes));
        return MakeBundle(*s, answer);
      }
      case TamperKind::kTamperWeight: {
        SPAUTH_ASSIGN_OR_RETURN(HypAnswer answer, provider.Answer(query));
        SPAUTH_RETURN_IF_ERROR(CorruptOneTupleWeight(&answer.tuples));
        return MakeBundle(*s, answer);
      }
      case TamperKind::kDropTuple: {
        SPAUTH_ASSIGN_OR_RETURN(HypAnswer answer, provider.Answer(query));
        // Drop a source-cell tuple that is not on the path: the client's
        // cell count check must catch it.
        const uint32_t cell_s =
            s->ads.hiti.partition().CellOf(query.source);
        std::unordered_set<NodeId> path_nodes(answer.path.nodes.begin(),
                                              answer.path.nodes.end());
        NodeId victim = kInvalidNode;
        std::vector<NodeId> kept;
        for (const ExtendedTuple& t : answer.tuples.tuples) {
          if (victim == kInvalidNode && t.cell == cell_s &&
              !path_nodes.contains(t.id) && t.id != query.source) {
            victim = t.id;
            continue;
          }
          kept.push_back(t.id);
        }
        if (victim == kInvalidNode) {
          return Status::NotFound("no droppable cell tuple");
        }
        SPAUTH_ASSIGN_OR_RETURN(answer.tuples,
                                s->ads.network.ProveTuples(kept));
        return MakeBundle(*s, answer);
      }
      case TamperKind::kForgeDistanceValue: {
        SPAUTH_ASSIGN_OR_RETURN(HypAnswer answer, provider.Answer(query));
        if (!answer.has_hyper_edges || answer.hyper_edges.entries.empty()) {
          return Status::NotFound("no hyper-edge entries to forge");
        }
        answer.hyper_edges.entries[0].value *= 1.1;
        return MakeBundle(*s, answer);
      }
      case TamperKind::kBogusSignature: {
        SPAUTH_ASSIGN_OR_RETURN(HypAnswer answer, provider.Answer(query));
        auto bundle = MakeBundle(*s, answer);
        if (!bundle.ok()) {
          return bundle;
        }
        bundle.value().bytes =
            EncodeWithBogusSignature(s->ads.certificate, answer);
        return bundle;
      }
      case TamperKind::kPhantomEdge: {
        SPAUTH_ASSIGN_OR_RETURN(HypAnswer answer, provider.Answer(query));
        answer.path.nodes = {query.source, query.target};
        return MakeBundle(*s, answer);
      }
    }
    return Status::Internal("unhandled tamper kind");
  }

  using MethodEngine::Verify;
  VerifyOutcome Verify(const Query& query, const ProofBundle& bundle,
                       VerifyWorkspace& ws) const override {
    if (Status s = DecodeBundleInto<HypAnswer>(bundle.bytes, &ws.cert,
                                               &ws.hyp);
        !s.ok()) {
      return VerifyOutcome::Reject(VerifyFailure::kMalformedProof,
                                   s.message());
    }
    return VerifyHypAnswer(owner_key_, ws.cert, query, ws.hyp, ws);
  }

 private:
  std::shared_ptr<const HypState> State() const {
    return std::static_pointer_cast<const HypState>(CurrentState());
  }

  Result<ProofBundle> MakeBundle(const HypState& s,
                                 const HypAnswer& answer) const {
    ProofBundle bundle;
    bundle.path = answer.path;
    bundle.distance = answer.distance;
    bundle.bytes = EncodeBundle(s.ads.certificate, answer, s.cert_size);
    // Gamma_S: tuples + hyper-edge entries; Gamma_T: all digests + indices.
    const size_t hyper_entry_bytes =
        answer.has_hyper_edges ? 4 + answer.hyper_edges.entries.size() * 20
                               : 0;
    const size_t hyper_digest_bytes =
        answer.has_hyper_edges
            ? answer.hyper_edges.tree_proof.SerializedSize()
            : 0;
    bundle.stats.sp_bytes = answer.tuples.TupleBytes() + hyper_entry_bytes;
    bundle.stats.t_bytes = answer.tuples.IntegrityBytes() +
                           hyper_digest_bytes + s.cert_size;
    bundle.stats.sp_items =
        answer.tuples.tuples.size() +
        (answer.has_hyper_edges ? answer.hyper_edges.entries.size() : 0);
    bundle.stats.t_items =
        answer.tuples.proof.num_digests() +
        (answer.has_hyper_edges ? answer.hyper_edges.tree_proof.num_digests()
                                : 0);
    return bundle;
  }

  RsaPublicKey owner_key_;
  SpAlgorithm algosp_;
};

}  // namespace

Result<std::unique_ptr<MethodEngine>> MakeEngine(const Graph& g,
                                                 const EngineOptions& options,
                                                 const RsaKeyPair& keys) {
  WallTimer timer;
  std::unique_ptr<MethodEngine> engine;
  switch (options.method) {
    case MethodKind::kDij: {
      DijOptions o;
      o.ordering = options.ordering;
      o.fanout = options.fanout;
      o.alg = options.alg;
      o.seed = options.seed;
      SPAUTH_ASSIGN_OR_RETURN(DijAds ads, BuildDijAds(g, o, keys));
      engine = std::make_unique<DijEngine>(options, UnownedGraph(g),
                                           std::move(ads),
                                           keys.public_key());
      break;
    }
    case MethodKind::kFull: {
      FullOptions o;
      o.ordering = options.ordering;
      o.fanout = options.fanout;
      o.distance_fanout = options.distance_fanout;
      o.alg = options.alg;
      o.use_floyd_warshall = options.full_use_floyd_warshall;
      o.seed = options.seed;
      SPAUTH_ASSIGN_OR_RETURN(FullAds ads, BuildFullAds(g, o, keys));
      engine = std::make_unique<FullEngine>(options, UnownedGraph(g),
                                           std::move(ads),
                                           keys.public_key());
      break;
    }
    case MethodKind::kLdm: {
      LdmOptions o;
      o.ordering = options.ordering;
      o.fanout = options.fanout;
      o.alg = options.alg;
      o.num_landmarks = options.num_landmarks;
      o.quantization_bits = options.quantization_bits;
      o.compression_xi = options.compression_xi;
      o.strategy = options.landmark_strategy;
      o.seed = options.seed;
      SPAUTH_ASSIGN_OR_RETURN(LdmAds ads, BuildLdmAds(g, o, keys));
      engine = std::make_unique<LdmEngine>(options, UnownedGraph(g),
                                           std::move(ads),
                                           keys.public_key());
      break;
    }
    case MethodKind::kHyp: {
      HypOptions o;
      o.ordering = options.ordering;
      o.fanout = options.fanout;
      o.distance_fanout = options.distance_fanout;
      o.alg = options.alg;
      o.num_cells = options.num_cells;
      o.seed = options.seed;
      SPAUTH_ASSIGN_OR_RETURN(HypAds ads, BuildHypAds(g, o, keys));
      engine = std::make_unique<HypEngine>(options, UnownedGraph(g),
                                           std::move(ads),
                                           keys.public_key());
      break;
    }
  }
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
