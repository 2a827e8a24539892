// EngineState — the immutable published snapshot behind live-update serving.
//
// A MethodEngine no longer mutates its graph/ADS/certificate in place.
// Everything one query needs is bundled into an EngineState: the graph the
// snapshot serves, the method ADS (held by the derived AdsState<Ads>),
// the signed certificate over that ADS, and the snapshot's private proof
// cache. Readers acquire the current snapshot with one atomic
// shared_ptr load per query and serve entirely from it; owners build a new
// snapshot off to the side (copy-on-write: clone the tuples, incrementally
// re-hash the touched Merkle leaves, re-sign at version + 1) and publish it
// with release semantics. A retired snapshot stays alive until the last
// in-flight query that acquired it finishes — there is no locking anywhere
// on the read path and no quiesce anywhere on the write path.
//
// Snapshots are structurally shared, not deep copies: graph adjacency
// blocks, ADS tuple chunks and Merkle level chunks live behind shared_ptr,
// and a rotation's "clone" copies only the pointer spines plus the chunks
// the update actually rewrites (O(f log_f V) bytes, reported as
// rotation_clone_bytes). A retired snapshot therefore *aliases* chunks of
// the live one; that is safe because a shared chunk is never written in
// place — writers copy-on-write any chunk whose use_count shows another
// owner. Drain accounting is unchanged: the retire hook runs when the last
// snapshot handle drops, regardless of how many chunks the snapshot still
// shares with its successors.
//
// Lifetime rules:
//  - A snapshot never changes after publish — the cache pointer included
//    (it is attached by PublishState before the snapshot becomes visible).
//    The cache *object* is internally thread-safe; the snapshot only ever
//    hands out the same pointer.
//  - Snapshot handles must not outlive their engine: the engine's retire
//    hook (cache-stat folding, drain accounting) runs when the last handle
//    drops. ProofBundles are independently owned and may outlive both.
#ifndef SPAUTH_CORE_ENGINE_STATE_H_
#define SPAUTH_CORE_ENGINE_STATE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>
#include <utility>

#include "core/certificate.h"
#include "graph/graph.h"
#include "util/proof_cache.h"

namespace spauth {

struct ProofBundle;  // core/engine.h

struct EngineState {
  /// Monotone snapshot counter, assigned at publish (initial build = 1).
  uint64_t epoch = 0;

  /// The graph this snapshot serves. The initial snapshot aliases the
  /// caller's graph (non-owning); snapshots produced by updates own their
  /// copy-on-write clone.
  std::shared_ptr<const Graph> graph;

  /// The signed certificate for this snapshot's ADS roots. Derived states
  /// keep the same certificate inside their method ADS; this mirror lets
  /// the base serving/update plumbing read it without downcasting.
  Certificate certificate;
  /// Cached wire size of `certificate` (pre-sizes bundle buffers).
  size_t cert_size = 0;

  /// The snapshot's private proof cache (null when caching is disabled),
  /// attached at publish and never reassigned. Every rotation starts a
  /// fresh cache — a cached bundle certifies this snapshot's root, so
  /// retiring the snapshot retires the cache wholesale.
  std::shared_ptr<ProofCache<ProofBundle>> cache;

  virtual ~EngineState() = default;
};

/// A method's snapshot: the common state plus the method ADS, whose own
/// certificate EngineState::certificate mirrors.
template <typename Ads>
struct AdsState final : EngineState {
  explicit AdsState(Ads a) : ads(std::move(a)) {}
  Ads ads;
};

/// A non-owning shared_ptr view of a caller-owned graph, for the initial
/// snapshot (the caller's graph must outlive the engine, as before).
inline std::shared_ptr<const Graph> UnownedGraph(const Graph& g) {
  return std::shared_ptr<const Graph>(&g, [](const Graph*) {});
}

/// The published-snapshot slot readers acquire from and writers rotate.
///
/// Not std::atomic<std::shared_ptr>: libstdc++'s _Sp_atomic unlocks its
/// internal lock bit with relaxed ordering (the mutual exclusion is real,
/// but there is no release/acquire edge over the pointer field), which
/// ThreadSanitizer rightly reports — and this subsystem's test campaign
/// runs under TSan. This slot uses a two-instruction spinlock with proper
/// acquire/release pairing (TSan-clean by construction) plus a monotone
/// published-epoch signal: a hot reader (the Refresh fast path the batch
/// loops use) revalidates its cached snapshot with a single acquire load
/// and touches neither the lock nor any refcount until a rotation
/// actually happens — cheaper per query than atomic<shared_ptr>'s two
/// RMWs. Acquire() itself does take the spinlock for one pointer copy
/// (so single-query callers pay it, like they would with
/// atomic<shared_ptr>'s internal lock bit); only the epoch-revalidated
/// path is lock-free.
class EngineStateSlot {
 public:
  EngineStateSlot() = default;
  EngineStateSlot(const EngineStateSlot&) = delete;
  EngineStateSlot& operator=(const EngineStateSlot&) = delete;

  /// A pinned reference to the published snapshot (never null once the
  /// engine constructor published the initial state).
  std::shared_ptr<const EngineState> Acquire() const {
    Lock();
    std::shared_ptr<const EngineState> copy = state_;
    Unlock();
    return copy;
  }

  /// The serving fast path: keeps `cached` pinned to the published
  /// snapshot, re-acquiring only when the published epoch moved — one
  /// acquire load per call in the steady state. A reader may serve one
  /// query from the outgoing snapshot while a rotation is mid-publish;
  /// that is indistinguishable from the query having arrived a moment
  /// earlier, which is the snapshot model's whole point.
  void Refresh(std::shared_ptr<const EngineState>* cached) const {
    const uint64_t published = epoch_.load(std::memory_order_acquire);
    if (*cached == nullptr || (*cached)->epoch != published) {
      *cached = Acquire();
    }
  }

  /// Publishes `state` (callers serialize rotations; the engine's update
  /// mutex does) and releases the previous snapshot outside the critical
  /// section, so a drain hook never runs under the slot lock.
  void Store(std::shared_ptr<const EngineState> state) {
    const uint64_t epoch = state->epoch;
    Lock();
    state_.swap(state);
    Unlock();
    epoch_.store(epoch, std::memory_order_release);
  }

  /// The published snapshot's epoch (readers poll this to notice
  /// rotations without pinning anything).
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

 private:
  void Lock() const {
    while (lock_.exchange(1, std::memory_order_acquire) != 0) {
      // The holder is copying one shared_ptr; on an oversubscribed core,
      // yielding beats burning the rest of the quantum.
      std::this_thread::yield();
    }
  }
  void Unlock() const { lock_.store(0, std::memory_order_release); }

  mutable std::atomic<uint32_t> lock_{0};
  std::shared_ptr<const EngineState> state_;
  std::atomic<uint64_t> epoch_{0};
};

}  // namespace spauth

#endif  // SPAUTH_CORE_ENGINE_STATE_H_
