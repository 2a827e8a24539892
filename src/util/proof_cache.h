// Sharded LRU cache for assembled proof bundles (or any value addressed by
// a 64-bit canonical key).
//
// The serving fast path memoizes whole wire messages: a repeated query is
// answered with the exact bytes assembled the first time, skipping the
// graph search, proof generation and bundle encoding entirely. Entries are
// held through shared_ptr so a hit never copies under the shard lock and a
// concurrent Clear() cannot invalidate a bundle a reader still holds.
// Sharding by key hash keeps the per-lookup critical section short when a
// worker pool serves one cache.
//
// The cache is deliberately value-agnostic (templated) so util/ stays below
// core/ in the layering; MethodEngine instantiates it with ProofBundle.
#ifndef SPAUTH_UTIL_PROOF_CACHE_H_
#define SPAUTH_UTIL_PROOF_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "util/hash_mix.h"
#include "util/stat_fields.h"

namespace spauth {

/// Aggregated hit/miss/byte counters across all shards.
struct ProofCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  /// Entries dropped by Clear() (owner-side invalidation). Together with
  /// evictions this makes the counters conserve:
  /// insertions == evictions + cleared + entries at any quiescent point.
  uint64_t cleared = 0;
  /// Total payload bytes served from cache hits.
  uint64_t hit_bytes = 0;
  /// Entries currently resident.
  size_t entries = 0;

  static constexpr auto kFields = std::tuple{
      StatSum("hits", &ProofCacheStats::hits),
      StatSum("misses", &ProofCacheStats::misses),
      StatSum("insertions", &ProofCacheStats::insertions),
      StatSum("evictions", &ProofCacheStats::evictions),
      StatSum("cleared", &ProofCacheStats::cleared),
      StatSum("hit_bytes", &ProofCacheStats::hit_bytes),
      StatSum("entries", &ProofCacheStats::entries),
  };

  double hit_rate() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

template <typename Value>
class ProofCache {
 public:
  struct Options {
    size_t capacity = 4096;  // total entries across shards
    size_t shards = 8;
  };

  explicit ProofCache(Options options) {
    const size_t shards = options.shards == 0 ? 1 : options.shards;
    per_shard_capacity_ =
        options.capacity <= shards ? 1 : options.capacity / shards;
    shards_.reserve(shards);
    for (size_t i = 0; i < shards; ++i) {
      shards_.push_back(std::make_unique<Shard>());
    }
  }

  /// The cached value for `key`, or nullptr. A hit refreshes recency.
  std::shared_ptr<const Value> Lookup(uint64_t key) {
    Shard& shard = ShardOf(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it == shard.index.end()) {
      ++shard.books.misses;
      return nullptr;
    }
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    ++shard.books.hits;
    shard.books.hit_bytes += it->second->bytes;
    return it->second->value;
  }

  /// Caches `value` under `key` (replacing any previous entry), evicting
  /// the least-recently-used entry when the shard is full. `bytes` is the
  /// payload size attributed to hit-byte accounting.
  void Insert(uint64_t key, std::shared_ptr<const Value> value,
              size_t bytes) {
    Shard& shard = ShardOf(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      it->second->value = std::move(value);
      it->second->bytes = bytes;
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      return;
    }
    shard.lru.push_front(Entry{key, std::move(value), bytes});
    shard.index[key] = shard.lru.begin();
    ++shard.books.insertions;
    while (shard.lru.size() > per_shard_capacity_) {
      shard.index.erase(shard.lru.back().key);
      shard.lru.pop_back();
      ++shard.books.evictions;
    }
  }

  /// Drops every entry (counters survive). Used when the ADS root changes:
  /// every cached bundle certifies a stale root.
  void Clear() {
    for (auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      shard->books.cleared += shard->lru.size();
      shard->lru.clear();
      shard->index.clear();
    }
  }

  ProofCacheStats GetStats() const {
    ProofCacheStats stats;
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      ProofCacheStats books = shard->books;
      books.entries = shard->lru.size();
      MergeStats(stats, books);
    }
    return stats;
  }

 private:
  struct Entry {
    uint64_t key;
    std::shared_ptr<const Value> value;
    size_t bytes;
  };
  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  // front = most recently used
    std::unordered_map<uint64_t, typename std::list<Entry>::iterator> index;
    ProofCacheStats books;  // entries stays 0; GetStats reads lru.size()
  };

  Shard& ShardOf(uint64_t key) const {
    return *shards_[SplitMix64Finalize(key) % shards_.size()];
  }

  size_t per_shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace spauth

#endif  // SPAUTH_UTIL_PROOF_CACHE_H_
