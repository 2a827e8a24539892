// One field list per stats struct. A stats struct S lists its fields once,
// in declaration order, with each field's export name and how it
// aggregates:
//
//   static constexpr auto kFields = std::tuple{
//       StatSum("queries", &S::queries),
//       StatMax("live_snapshots", &S::live_snapshots), ...};
//
// Everything that walks the fields follows from that list: the merge across
// shards or snapshot lifetimes (MergeStats), the relaxed snapshot of a
// struct used as a bank of live counters (StatSnapshot), and every
// name/value export (ForEachStatField). A new counter costs one line.
#ifndef SPAUTH_UTIL_STAT_FIELDS_H_
#define SPAUTH_UTIL_STAT_FIELDS_H_

#include <algorithm>
#include <atomic>
#include <string_view>
#include <tuple>
#include <type_traits>

namespace spauth {

/// How a field aggregates.
enum class StatAgg {
  kSum,         // an event count: totals add
  kMax,         // a gauge: the highest reading any part observed, never a sum
  kMostSevere,  // a state gauge: the value with the highest StatSeverity()
  kNested,      // a stats struct with its own kFields, merged field by field
};

template <StatAgg Agg, typename S, typename T>
struct StatField {
  static constexpr StatAgg agg = Agg;
  std::string_view name;
  T S::*member;
};

template <typename S, typename T>
constexpr StatField<StatAgg::kSum, S, T> StatSum(std::string_view name,
                                                 T S::*member) {
  return {name, member};
}

template <typename S, typename T>
constexpr StatField<StatAgg::kMax, S, T> StatMax(std::string_view name,
                                                 T S::*member) {
  return {name, member};
}

/// `T` needs a StatSeverity(T) overload found by argument-dependent lookup.
template <typename S, typename T>
constexpr StatField<StatAgg::kMostSevere, S, T> StatMostSevere(
    std::string_view name, T S::*member) {
  return {name, member};
}

template <typename S, typename T>
constexpr StatField<StatAgg::kNested, S, T> StatNested(std::string_view name,
                                                       T S::*member) {
  return {name, member};
}

/// Calls `fn(field)` for every entry of S::kFields, in declaration order.
/// `field.name`, `field.member` and the compile-time `field.agg` describe
/// it.
template <typename S, typename Fn>
void ForEachStatField(Fn&& fn) {
  std::apply([&](const auto&... field) { (fn(field), ...); }, S::kFields);
}

/// Folds `from` into `into`: sums add, gauges keep the max, state gauges the
/// most severe value, nested structs merge recursively.
template <typename S>
void MergeStats(S& into, const S& from) {
  ForEachStatField<S>([&](const auto& field) {
    auto& acc = into.*field.member;
    const auto& value = from.*field.member;
    constexpr StatAgg agg = std::decay_t<decltype(field)>::agg;
    if constexpr (agg == StatAgg::kSum) {
      acc += value;
    } else if constexpr (agg == StatAgg::kMax) {
      acc = std::max(acc, value);
    } else if constexpr (agg == StatAgg::kMostSevere) {
      if (StatSeverity(value) > StatSeverity(acc)) {
        acc = value;
      }
    } else {
      MergeStats(acc, value);
    }
  });
}

// Live counters: a plain stats struct shared by concurrent writers, every
// access a relaxed std::atomic_ref operation. Readers take StatSnapshot;
// no field is ever read or written plainly while writers run.

/// Relaxed `slot += n`.
template <typename T>
void StatAdd(T& slot, std::type_identity_t<T> n = 1) {
  std::atomic_ref<T>(slot).fetch_add(n, std::memory_order_relaxed);
}

/// Relaxed high-water update: `slot = max(slot, value)`.
template <typename T>
void StatRaise(T& slot, std::type_identity_t<T> value) {
  std::atomic_ref<T> ref(slot);
  T cur = ref.load(std::memory_order_relaxed);
  while (cur < value &&
         !ref.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

/// Relaxed load of one live counter.
template <typename T>
T StatLoad(T& slot) {
  return std::atomic_ref<T>(slot).load(std::memory_order_relaxed);
}

/// Relaxed field-by-field copy of a live stats struct.
template <typename S>
S StatSnapshot(S& live) {
  S out;
  ForEachStatField<S>([&](const auto& field) {
    if constexpr (std::decay_t<decltype(field)>::agg == StatAgg::kNested) {
      out.*field.member = StatSnapshot(live.*field.member);
    } else {
      out.*field.member = StatLoad(live.*field.member);
    }
  });
  return out;
}

}  // namespace spauth

#endif  // SPAUTH_UTIL_STAT_FIELDS_H_
