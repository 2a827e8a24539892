// UpdateQueue — the coalescing owner queue in front of snapshot rotations.
//
// Every rotation costs a copy-on-write clone walk plus one RSA signature,
// so an owner that rotates per arriving update pays the fixed cost K times
// for K updates. This queue absorbs an ordered stream of update ops of any
// kind (re-weights and shape changes alike) and releases them as BATCHES:
// a flush drains the buffer in arrival order in runs of at most max_batch
// ops, each run = one ApplyUpdates rotation = one signature. A storm of K
// ops collapses into ceil(K / max_batch) rotations — the coalescing ratio
// (flushed ops per rotation) is the win, the staleness lag (age of the
// oldest buffered op at flush time) is the price.
//
// Two triggers bound that price:
//   - count: the buffer reaching `max_batch` ops requests a flush;
//   - staleness: the oldest buffered op aging past `max_staleness_micros`
//     requests a flush (the bounded-staleness knob — 0 disables it and the
//     queue coalesces purely by count).
// The queue never reads a clock: callers pass `now_micros` into every
// entry point, so tests and benchmarks drive it with a synthetic clock and
// replay deterministically.
//
// The queue is externally synchronized — it holds no lock of its own.
// ShardedEngine wraps each per-group instance in a mutex; a single-owner
// benchmark drives it from one thread. A failed flush keeps the failed
// run and everything behind it buffered (already-applied runs ahead of it
// are gone — they rotated), so a retry resumes exactly where the fault
// hit, preserving arrival order.
#ifndef SPAUTH_CORE_UPDATE_QUEUE_H_
#define SPAUTH_CORE_UPDATE_QUEUE_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "util/status.h"

namespace spauth {

struct UpdateQueueOptions {
  /// Count trigger: a buffer of this many ops requests a flush. Also the
  /// upper bound on any single rotation's batch size.
  size_t max_batch = 64;
  /// Staleness trigger: the oldest buffered op aging past this requests a
  /// flush. 0 disables the time trigger (coalesce by count only).
  uint64_t max_staleness_micros = 0;
};

struct UpdateQueueStats {
  uint64_t enqueued = 0;        // ops accepted
  uint64_t flushes = 0;         // Flush calls that drained at least one op
  uint64_t rotations = 0;       // runs applied (one signature each)
  uint64_t flushed_ops = 0;     // ops drained into rotations
  uint64_t max_lag_micros = 0;  // worst age of the oldest op at flush (gauge)

  /// Ops absorbed per rotation — the queue's reason to exist. > 1 means
  /// the queue saved signatures; == 1 means every op rotated alone.
  double CoalescingRatio() const {
    return rotations == 0
               ? 0.0
               : static_cast<double>(flushed_ops) /
                     static_cast<double>(rotations);
  }
};

class UpdateQueue {
 public:
  /// A run drains into one ApplyUpdates rotation.
  using FlushFn = std::function<Status(std::span<const StructuralUpdate>)>;

  explicit UpdateQueue(const UpdateQueueOptions& options)
      : options_(options) {
    if (options_.max_batch == 0) {
      options_.max_batch = 1;  // a zero batch could never flush
    }
  }

  /// Buffers one op; returns true when a trigger now requests a flush.
  bool Enqueue(const StructuralUpdate& op, uint64_t now_micros) {
    pending_.push_back(Pending{op, now_micros});
    ++stats_.enqueued;
    return ShouldFlush(now_micros);
  }

  /// True when either trigger fires: the buffer holds max_batch ops, or
  /// the oldest buffered op has waited max_staleness_micros.
  bool ShouldFlush(uint64_t now_micros) const {
    if (pending_.empty()) {
      return false;
    }
    if (pending_.size() >= options_.max_batch) {
      return true;
    }
    return options_.max_staleness_micros != 0 &&
           now_micros - pending_.front().enqueued_micros >=
               options_.max_staleness_micros;
  }

  size_t pending() const { return pending_.size(); }
  const UpdateQueueOptions& options() const { return options_; }
  const UpdateQueueStats& stats() const { return stats_; }

  /// Drains the whole buffer in arrival order as runs of at most
  /// max_batch ops each. A failed run stays buffered (with everything
  /// behind it) and its error returns; runs already applied before the
  /// fault are rotated and booked. The lag gauge records the age of the
  /// oldest op drained by this call.
  Status Flush(uint64_t now_micros, const FlushFn& flush) {
    if (pending_.empty()) {
      return Status::Ok();
    }
    const uint64_t lag = now_micros - pending_.front().enqueued_micros;
    bool drained_any = false;
    while (!pending_.empty()) {
      const size_t run = std::min(pending_.size(), options_.max_batch);
      run_.clear();
      for (size_t i = 0; i < run; ++i) {
        run_.push_back(pending_[i].op);
      }
      const Status applied = flush(run_);
      if (!applied.ok()) {
        // The failed run keeps its place at the front; the next flush
        // retries it before anything newer.
        if (drained_any) {
          ++stats_.flushes;
          stats_.max_lag_micros = std::max(stats_.max_lag_micros, lag);
        }
        return applied;
      }
      pending_.erase(pending_.begin(),
                     pending_.begin() + static_cast<ptrdiff_t>(run));
      ++stats_.rotations;
      stats_.flushed_ops += run;
      drained_any = true;
    }
    ++stats_.flushes;
    stats_.max_lag_micros = std::max(stats_.max_lag_micros, lag);
    return Status::Ok();
  }

 private:
  struct Pending {
    StructuralUpdate op;
    uint64_t enqueued_micros = 0;
  };

  UpdateQueueOptions options_;
  std::deque<Pending> pending_;
  UpdateQueueStats stats_;
  std::vector<StructuralUpdate> run_;  // run scratch, reused across flushes
};

}  // namespace spauth

#endif  // SPAUTH_CORE_UPDATE_QUEUE_H_
