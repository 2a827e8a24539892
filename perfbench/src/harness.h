// Shared plumbing of the perfbench harness: run options, metric sinks,
// in-memory span tracing, seeded query pools and the layer probes every
// workload can run.
//
// The harness talks to libspauth only through its public headers. It
// times layers from the outside: a span around each call it makes into a
// layer, plus the counters the library already exports.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/client.h"
#include "crypto/rsa.h"
#include "graph/graph.h"
#include "graph/workload.h"
#include "util/rng.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return SecondsBetween(a, b) * 1000.0;
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Tiny sizes for the self-test: small graphs and pools, short windows.
  bool tiny = false;
  // Corrupts one answer before it is verified; the run must then fail.
  // The self-test uses it to prove each workload's correctness gate runs.
  bool tamper = false;
  // Scratch space inside the checkout (WAL files, span dumps).
  std::string work_dir = ".bench_build/perfbench/work";
};

/// An ordered list of named, unit-carrying values.
class Metrics {
 public:
  struct Entry {
    std::string name;
    double value = 0;
    std::string unit;
  };
  void Set(const std::string& name, double value, const std::string& unit);
  const std::vector<Entry>& entries() const { return entries_; }
  const Entry* Find(const std::string& name) const;

 private:
  std::vector<Entry> entries_;
};

/// What one workload run produced.
struct RunResult {
  Metrics end_to_end;  // the BENCHMARK.json end_to_end set
  Metrics per_layer;   // the BENCHMARK.json per_layer set (traced runs)
  Metrics detail;      // workload-specific readings, printed for humans
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Peak RSS to report, read where the workload's measurement ends; 0
  // means at exit.
  double rss_mb = 0;
  std::vector<std::string> errors;  // correctness-gate failures

  void Fail(const std::string& why);
  bool correct() const { return errors.empty(); }
};

/// Nearest-rank percentile (p in [0, 1]) of an unsorted sample; 0 when
/// empty.
double Percentile(std::vector<double> values, double p);

/// Set-up repeats per run; setup_s reports their median.
inline constexpr int kSetupRepeats = 3;
double Median(std::vector<double> values);

/// Peak resident set size of this process, in MB.
double PeakRssMb();

/// Derives an independent stream seed from the run seed.
uint64_t Mix(uint64_t seed, uint64_t salt);

/// The data owner's 1024-bit key pair. The key seed is fixed (it is the
/// owner's identity, not a workload input), so key generation is the same
/// work on every run.
spauth::RsaKeyPair GenerateOwnerKeys();

// ---------------------------------------------------------------------------
// Query pools with ground truth.
// ---------------------------------------------------------------------------

struct PoolQuery {
  spauth::Query query;
  double truth = 0;  // exact shortest-path distance (plain Dijkstra)
};

/// `count` queries on `g`: query i has range ranges[i % ranges.size()], a
/// uniformly drawn source, and a target drawn uniformly among the nodes
/// whose network distance lies within 10% of the range (the farthest node
/// within 1.1 x range when none does). Distinct pairs are plentiful, so
/// pools can exceed the proof-cache capacity.
std::vector<PoolQuery> MakeQueryPool(const spauth::Graph& g, size_t count,
                                     std::span<const double> ranges,
                                     uint64_t seed);

/// True when a verified answer is accepted, joins the query's endpoints
/// and has the exact ground-truth distance.
bool AnswerIsRight(const PoolQuery& pq, const spauth::WireVerification& v);

/// Zipf(s) over ranks [0, n): rank r has weight 1 / (r + 1)^s.
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t Draw(spauth::Rng* rng) const;

 private:
  std::vector<double> cdf_;
};

// ---------------------------------------------------------------------------
// Tracing: spans kept in memory, written out at exit.
// ---------------------------------------------------------------------------

/// One recorded span. Spans nest per thread; `parent` indexes the same
/// thread's span list (-1 for a root). Spans of one request share `req`.
struct SpanRecord {
  const char* name = "";  // "<layer>.<call>", a string literal
  int64_t parent = -1;
  uint64_t req = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class Tracer {
 public:
  static void SetEnabled(bool on);
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }

  /// Opens a span on the calling thread; returns its index, or -1 when
  /// tracing is off.
  static int64_t Begin(const char* name, uint64_t req);
  static void End(int64_t index);

  /// Self time per layer (span time minus its children's), in seconds,
  /// over every span recorded so far; layer = name up to the first '.'.
  static std::vector<std::pair<std::string, double>> SelfSecondsByLayer();
  static size_t SpanCount();
  /// Writes every span as tab-separated text; false on I/O failure.
  static bool WriteTsv(const std::string& path);

  struct ThreadLog;  // one per recording thread

 private:
  static ThreadLog* Local();
  static std::atomic<bool> enabled_;
};

class ScopedSpan {
 public:
  ScopedSpan(const char* name, uint64_t req)
      : index_(Tracer::enabled() ? Tracer::Begin(name, req) : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) {
      Tracer::End(index_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int64_t index_;
};

/// Per-layer self time of the spans recorded during a traced window, as
/// layer milliseconds per second of that window (`self_ms_per_s.<layer>`),
/// plus the span count.
void ReportSelfTime(double window_s, Metrics* per_layer);

// ---------------------------------------------------------------------------
// Layer probes (traced runs).
// ---------------------------------------------------------------------------

/// Warm RSA sign of a digest: median milliseconds over `reps`.
double ProbeRsaSignMs(const spauth::RsaKeyPair& keys, int reps);
/// Warm RSA verify of the certificate carried by `wire_bytes`: median
/// microseconds over `reps`. 0 when the certificate does not decode.
double ProbeRsaVerifyUs(const spauth::RsaPublicKey& key,
                        std::span<const uint8_t> wire_bytes, int reps);
/// HashInternalLevel over `leaves` SHA-1 digests (fanout 2): median
/// microseconds over `reps`.
double ProbeMerkleLevelUs(size_t leaves, int reps);
/// Plain graph/dijkstra.h search on each query: median milliseconds.
double ProbeGraphSearchMs(const spauth::Graph& g,
                          std::span<const PoolQuery> queries);

/// Sets every per-layer metric to 0, so each traced run emits the full
/// BENCHMARK.json per_layer set even where a layer did no work.
void ZeroPerLayer(Metrics* per_layer);

/// Method names in the paper's order, as used in metric suffixes.
inline constexpr const char* kMethodNames[] = {"dij", "full", "ldm", "hyp"};

// Workload entry points. Each fills `out` and returns normally; gate
// failures are recorded with RunResult::Fail.
void RunNetRead(const Options& options, RunResult* out);
void RunMethods(const Options& options, RunResult* out);
void RunWriteMix(const Options& options, RunResult* out);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
