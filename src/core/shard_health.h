// Per-shard health tracking: a sliding window of request outcomes feeding
// a closed / open / half-open circuit breaker.
//
// The breaker protects the failover path in ShardedEngine from burning its
// retry budget on a replica that is known-bad: once the recent failure
// fraction crosses the threshold the breaker OPENS and AllowRequest denies
// traffic, letting the router skip straight to a sibling replica. After a
// cooldown (measured in AllowRequest ticks, not wall-clock time, so chaos
// runs replay deterministically from their seed) the breaker moves to
// HALF-OPEN and lets a bounded number of probe requests through; a run of
// consecutive probe successes closes it again, any probe failure reopens
// it and restarts the cooldown.
//
// Only *retryable* outcomes (kUnavailable, kDeadlineExceeded — see
// IsRetryable in util/status.h) should be recorded as failures: a client
// error like kInvalidArgument says nothing about replica health, and
// callers must not let it trip the breaker.
#ifndef SPAUTH_CORE_SHARD_HEALTH_H_
#define SPAUTH_CORE_SHARD_HEALTH_H_

#include <cstdint>
#include <mutex>
#include <vector>

namespace spauth {

/// Circuit-breaker tuning. Defaults are sized for test/chaos workloads
/// (tens of requests flip the breaker); production would widen the window.
struct CircuitBreakerOptions {
  /// Outcomes remembered by the sliding window.
  uint32_t window = 32;
  /// Minimum outcomes in the window before the breaker may open (a single
  /// early failure must not open a cold breaker).
  uint32_t min_samples = 8;
  /// Open when window failure fraction reaches this value.
  double failure_threshold = 0.5;
  /// AllowRequest denials to sit out while open before probing again.
  /// Ticks, not wall time: determinism under chaos replay.
  uint32_t open_cooldown = 16;
  /// Consecutive probe successes needed to close from half-open.
  uint32_t half_open_probes = 2;
};

enum class BreakerState : uint8_t {
  kClosed,    // healthy, all traffic admitted
  kOpen,      // tripped, traffic denied until the cooldown elapses
  kHalfOpen,  // probing: a bounded number of requests admitted
};

const char* ToString(BreakerState state);

/// Severity order for aggregation (StatAgg::kMostSevere): open (denying) >
/// half-open (probing) > closed (healthy). The enum's numeric order
/// differs, so a plain max would be wrong.
int StatSeverity(BreakerState state);

/// One shard's health. Thread-safe; every method is a short critical
/// section (the serving path calls AllowRequest once per attempt).
class ShardHealth {
 public:
  explicit ShardHealth(CircuitBreakerOptions options = {});

  /// True when a request may be sent to this shard now. In the open state
  /// each denied call counts one cooldown tick; the call that finds the
  /// cooldown spent flips to half-open and is admitted as the first probe.
  bool AllowRequest();

  /// Record the outcome of an admitted request.
  void RecordSuccess();
  void RecordFailure();

  BreakerState state() const;
  /// Times the breaker has tripped (closed/half-open -> open).
  uint64_t opens() const;
  /// Failure fraction over the current window (0 when empty).
  double failure_fraction() const;

 private:
  void TripLocked();

  const CircuitBreakerOptions options_;
  mutable std::mutex mu_;
  BreakerState state_ = BreakerState::kClosed;
  // Sliding window as a ring of outcome bits (true = failure).
  std::vector<bool> window_;
  uint32_t window_pos_ = 0;
  uint32_t window_count_ = 0;
  uint32_t window_failures_ = 0;
  uint32_t cooldown_ticks_ = 0;   // denials seen while open
  uint32_t probes_admitted_ = 0;  // half-open probes let through
  uint32_t probe_successes_ = 0;  // consecutive half-open successes
  uint64_t opens_ = 0;
};

}  // namespace spauth

#endif  // SPAUTH_CORE_SHARD_HEALTH_H_
