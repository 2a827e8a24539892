#include "core/shard_health.h"

namespace spauth {

const char* ToString(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half_open";
  }
  return "?";
}

int StatSeverity(BreakerState state) {
  switch (state) {
    case BreakerState::kOpen:
      return 2;
    case BreakerState::kHalfOpen:
      return 1;
    case BreakerState::kClosed:
      return 0;
  }
  return 0;
}

ShardHealth::ShardHealth(CircuitBreakerOptions options)
    : options_(options), window_(options_.window == 0 ? 1 : options_.window) {}

bool ShardHealth::AllowRequest() {
  std::lock_guard<std::mutex> lock(mu_);
  switch (state_) {
    case BreakerState::kClosed:
      return true;
    case BreakerState::kOpen:
      if (++cooldown_ticks_ < options_.open_cooldown) {
        return false;
      }
      // Cooldown spent: this caller becomes the first half-open probe.
      state_ = BreakerState::kHalfOpen;
      probes_admitted_ = 1;
      probe_successes_ = 0;
      return true;
    case BreakerState::kHalfOpen:
      // Outcomes may still be outstanding for admitted probes; cap what
      // is in flight so a dead shard sees at most half_open_probes
      // requests per cooldown cycle.
      if (probes_admitted_ < options_.half_open_probes) {
        ++probes_admitted_;
        return true;
      }
      return false;
  }
  return true;
}

void ShardHealth::RecordSuccess() {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ == BreakerState::kHalfOpen) {
    if (++probe_successes_ >= options_.half_open_probes) {
      // Recovered: close with a fresh window so stale failures from the
      // outage cannot immediately re-trip.
      state_ = BreakerState::kClosed;
      window_count_ = 0;
      window_failures_ = 0;
      window_pos_ = 0;
    }
    return;
  }
  if (state_ != BreakerState::kClosed) {
    return;  // stale outcome from before the trip
  }
  if (window_count_ == window_.size()) {
    window_failures_ -= window_[window_pos_] ? 1 : 0;
  } else {
    ++window_count_;
  }
  window_[window_pos_] = false;
  window_pos_ = (window_pos_ + 1) % window_.size();
}

void ShardHealth::RecordFailure() {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ == BreakerState::kHalfOpen) {
    TripLocked();  // a failed probe reopens immediately
    return;
  }
  if (state_ != BreakerState::kClosed) {
    return;  // stale outcome from before the trip
  }
  if (window_count_ == window_.size()) {
    window_failures_ -= window_[window_pos_] ? 1 : 0;
  } else {
    ++window_count_;
  }
  window_[window_pos_] = true;
  ++window_failures_;
  window_pos_ = (window_pos_ + 1) % window_.size();
  if (window_count_ >= options_.min_samples &&
      static_cast<double>(window_failures_) >=
          options_.failure_threshold * static_cast<double>(window_count_)) {
    TripLocked();
  }
}

void ShardHealth::TripLocked() {
  state_ = BreakerState::kOpen;
  cooldown_ticks_ = 0;
  probes_admitted_ = 0;
  probe_successes_ = 0;
  window_count_ = 0;
  window_failures_ = 0;
  window_pos_ = 0;
  ++opens_;
}

BreakerState ShardHealth::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

uint64_t ShardHealth::opens() const {
  std::lock_guard<std::mutex> lock(mu_);
  return opens_;
}

double ShardHealth::failure_fraction() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (window_count_ == 0) {
    return 0.0;
  }
  return static_cast<double>(window_failures_) /
         static_cast<double>(window_count_);
}

}  // namespace spauth
