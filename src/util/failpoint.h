// Named, seeded, deterministic fail points — the injection side of the
// fault-tolerance plane.
//
// A fail point is a compiled-in hook at a hot seam (RSA signing, Merkle
// leaf update, proof-bundle assembly, proof-cache insert, snapshot
// publish, per-shard answer dispatch, and every durability seam of the
// WAL + snapshot store) that tests, benches and chaos campaigns arm at
// runtime to make that seam fail on a deterministic, seed-replayable
// schedule.
//
// Complete fail-point registry (name | seam | failure surfaced as):
//
//   certificate/sign     MakeCertificate, before RSA signing   kUnavailable
//   rsa/crt_fault        RsaKeyPair::Sign, corrupts the mod-p
//                        CRT half; the public-key check
//                        before release must catch it          kInternal
//   ads/update_tuple     NetworkAds::UpdateTuple (Merkle path
//                        rebuild)                              kUnavailable
//   engine/answer        MethodEngine serving, before cache
//                        lookup                                kUnavailable
//   engine/assemble      MethodEngine serving, after a cache
//                        miss, before proof-bundle assembly    kUnavailable
//   engine/cache_insert  proof-cache insert (skip-only: the
//                        answer is still served, the
//                        memoization is dropped)               (silent skip)
//   engine/publish       DIJ rotation, after signing, before
//                        the snapshot publish in
//                        EngineStateSlot                       kUnavailable
//   shard/answer         ShardedEngine per-attempt dispatch
//                        (arg = engine index, so one replica
//                        can be failed in isolation)           kUnavailable
//   wal/append           Wal::Append, before the record bytes
//                        reach the log (crash before append)   kUnavailable
//   wal/fsync            Wal::Append, after the bytes are
//                        written, before the flush barrier —
//                        models a crash that tears the tail
//                        record (the record is truncated
//                        mid-payload, replay must stop there)  kUnavailable
//   snapshot/write       SnapshotStore::Write, before the
//                        atomic rename publishes the file (a
//                        torn temp file is left behind and
//                        must be ignored by Load)              kUnavailable
//   snapshot/load        SnapshotStore recovery read path,
//                        before decoding (models an
//                        unreadable snapshot file; recovery
//                        falls back to the previous one)       kUnavailable
//   replica/resync       ShardedEngine owner-side heal, before
//                        installing a sibling's state into a
//                        lagging replica (arg = engine index)  kUnavailable
//   wal/reset            Wal::Reset, before the truncate — the
//                        crash between a snapshot publish and
//                        the checkpoint truncate (a stale full
//                        log survives next to the snapshot
//                        that absorbed it)                     kUnavailable
//   net/accept           SpauthServer accept path: the fresh
//                        connection is closed instead of
//                        registered                            (conn refused)
//   net/read             SpauthServer per-connection read:
//                        caps one read at a single byte (arg =
//                        connection id) — a short-read storm    (short read)
//   net/write            SpauthServer per-connection write:
//                        writes a torn prefix of the queued
//                        bytes, then kills the connection
//                        (arg = connection id)                 (torn write)
//   net/conn_kill        SpauthServer event loop, on conn
//                        readiness: closes the connection
//                        outright (arg = connection id)        (conn killed)
//
// Determinism: an armed point decides fire/pass from (seed, hit index)
// alone — probability mode hashes the hit index through a seeded
// SplitMix64-derived Rng stream, every-Nth and one-shot modes use the hit
// counter directly. Hit indices are handed out with an atomic fetch_add,
// so for a given number of hits the SET of fired indices is exactly
// reproducible from the seed even under concurrency (which thread draws
// which index is scheduling-dependent; how many fire is not). No
// wall-clock, no std::random_device anywhere.
//
// Cost when compiled in but not armed: one relaxed atomic load and a
// predicted-not-taken branch per seam. Building with
// -DSPAUTH_FAILPOINTS=OFF compiles every hook to nothing.
#ifndef SPAUTH_UTIL_FAILPOINT_H_
#define SPAUTH_UTIL_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "util/status.h"

namespace spauth {

/// Whether the fail-point hooks were compiled into this build.
constexpr bool FailPointsCompiledIn() {
#if defined(SPAUTH_FAILPOINTS_OFF)
  return false;
#else
  return true;
#endif
}

/// How an armed fail point decides to fire.
enum class FailPointMode {
  /// Fires each hit independently with probability `probability`, decided
  /// by a seeded hash of the hit index (replayable from the seed).
  kProbability,
  /// Fires on every `n`-th hit (hit indices n-1, 2n-1, ...).
  kEveryNth,
  /// Fires exactly once, on hit index `after` (0 = the next hit).
  kOneShot,
};

/// An armed fail point's schedule.
struct FailPointSpec {
  FailPointMode mode = FailPointMode::kProbability;
  double probability = 1.0;  // kProbability
  uint64_t n = 1;            // kEveryNth
  uint64_t after = 0;        // kOneShot: fire on this hit index
  uint64_t seed = 1;         // kProbability decision stream
  /// When set, the point only fires for hits whose argument equals this
  /// value (e.g. one engine index out of a replica group). Hits with a
  /// different argument pass through without consuming a hit index.
  bool has_match_arg = false;
  uint64_t match_arg = 0;
};

/// Cumulative per-point counters (what the chaos assertions reconcile).
struct FailPointStats {
  uint64_t hits = 0;   // evaluations that matched the arg filter
  uint64_t fires = 0;  // hits that failed
};

/// Process-wide registry of named fail points. Arm/disarm are test- and
/// bench-side; ShouldFail sits on the seams. All methods are thread-safe.
class FailPointRegistry {
 public:
  static FailPointRegistry& Global();

  /// Arms (or re-arms, resetting counters) `name` with `spec`.
  void Arm(std::string name, FailPointSpec spec);
  /// Convenience wrappers for the three modes.
  void ArmProbability(std::string name, double probability, uint64_t seed);
  void ArmEveryNth(std::string name, uint64_t n);
  void ArmOneShot(std::string name, uint64_t after = 0);

  void Disarm(std::string_view name);
  void DisarmAll();

  /// True when the seam named `name` should fail this hit. `arg` feeds the
  /// spec's match filter (pass 0 from seams without a natural argument).
  bool ShouldFail(std::string_view name, uint64_t arg = 0);

  /// Counters for an armed point ({0, 0} for unknown names; counters reset
  /// when a point is re-armed).
  FailPointStats GetStats(std::string_view name) const;

  /// The single relaxed load the disarmed fast path performs.
  bool AnyArmed() const {
    return armed_count_.load(std::memory_order_relaxed) > 0;
  }

 private:
  struct Point {
    FailPointSpec spec;
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> fires{0};
  };

  FailPointRegistry() = default;

  std::atomic<uint64_t> armed_count_{0};
  mutable std::mutex mu_;
  // shared_ptr so a ShouldFail in flight keeps its point alive across a
  // concurrent Disarm from another thread.
  std::unordered_map<std::string, std::shared_ptr<Point>> points_;
};

/// RAII helper: arms a fail point for the current scope, disarms on exit
/// (tests stay hermetic even when an assertion fails mid-scope).
class ScopedFailPoint {
 public:
  ScopedFailPoint(std::string name, FailPointSpec spec) : name_(name) {
    FailPointRegistry::Global().Arm(std::move(name), spec);
  }
  ~ScopedFailPoint() { FailPointRegistry::Global().Disarm(name_); }
  ScopedFailPoint(const ScopedFailPoint&) = delete;
  ScopedFailPoint& operator=(const ScopedFailPoint&) = delete;

 private:
  std::string name_;
};

}  // namespace spauth

#if defined(SPAUTH_FAILPOINTS_OFF)

#define SPAUTH_FAILPOINT_TRIGGERED(name) false
#define SPAUTH_FAILPOINT_TRIGGERED_ARG(name, arg) false

#else

/// Boolean expression: true when the armed point fires this hit. Use
/// directly for seams with non-Status failure handling (e.g. skipping a
/// cache insert).
#define SPAUTH_FAILPOINT_TRIGGERED(name) \
  SPAUTH_FAILPOINT_TRIGGERED_ARG(name, 0)

#define SPAUTH_FAILPOINT_TRIGGERED_ARG(name, arg)          \
  (::spauth::FailPointRegistry::Global().AnyArmed() &&     \
   ::spauth::FailPointRegistry::Global().ShouldFail((name), (arg)))

#endif  // SPAUTH_FAILPOINTS_OFF

/// Statement: returns Status::Unavailable out of the enclosing function
/// (works for Status- and Result<T>-returning functions) when the point
/// fires. Compiles to nothing with -DSPAUTH_FAILPOINTS=OFF.
#define SPAUTH_FAILPOINT_RETURN(name)                                \
  do {                                                               \
    if (SPAUTH_FAILPOINT_TRIGGERED(name)) {                          \
      return ::spauth::Status::Unavailable(                          \
          std::string("fail point fired: ") + (name));               \
    }                                                                \
  } while (false)

#define SPAUTH_FAILPOINT_RETURN_ARG(name, arg)                       \
  do {                                                               \
    if (SPAUTH_FAILPOINT_TRIGGERED_ARG(name, arg)) {                 \
      return ::spauth::Status::Unavailable(                          \
          std::string("fail point fired: ") + (name));               \
    }                                                                \
  } while (false)

#endif  // SPAUTH_UTIL_FAILPOINT_H_
