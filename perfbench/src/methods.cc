// Workload `methods`: the paper's evaluation as a serving loop.
//
// In process, single threaded, closed loop, no proof cache and no updates.
// DIJ, FULL, LDM and HYP each serve the DE stand-in (1,200 nodes) with the
// 500/2000/8000 range mix. Every query is answered with
// MethodEngine::Answer on a reused SearchWorkspace and checked with
// VerifyWireAnswer on a reused VerifyWorkspace. The methods take turns in
// chunks of the same queries, so each sees the same inputs and the same
// share of any host noise.
#include <cmath>
#include <memory>

#include "core/engine.h"
#include "core/verify_workspace.h"
#include "graph/generator.h"
#include "graph/search_workspace.h"
#include "harness.h"

namespace perfbench {
namespace {

using namespace spauth;

constexpr double kRanges[] = {500, 2000, 8000};
constexpr size_t kNumMethods = std::size(kAllMethods);

struct MethodsState {
  std::unique_ptr<RsaKeyPair> keys;
  std::unique_ptr<Graph> graph;
  std::vector<PoolQuery> pool;
  std::unique_ptr<MethodEngine> engines[kNumMethods];
  double keygen_s = 0, graph_s = 0, workload_s = 0;
};

EngineOptions PaperOptions(MethodKind method) {
  EngineOptions options;  // Table II defaults: hbt, fanout 2, c=40, b=12,
  options.method = method;  // xi=50, p=49, SHA-1
  // Repeated Dijkstra yields FULL's exact distance matrix faster than
  // Floyd-Warshall on these sparse graphs.
  options.full_use_floyd_warshall = false;
  return options;
}

std::unique_ptr<MethodsState> Setup(const Options& opt, RunResult* out) {
  auto st = std::make_unique<MethodsState>();
  auto t = Clock::now();
  st->keys = std::make_unique<RsaKeyPair>(GenerateOwnerKeys());
  st->keygen_s = SecondsBetween(t, Clock::now());

  t = Clock::now();
  RoadNetworkOptions graph_options = DatasetOptions(Dataset::kDE);
  if (opt.tiny) {
    graph_options.num_nodes = 300;
  }
  auto graph = GenerateRoadNetwork(graph_options);
  if (!graph.ok()) {
    out->Fail("graph: " + graph.status().ToString());
    return nullptr;
  }
  st->graph = std::make_unique<Graph>(std::move(graph).value());
  st->graph_s = SecondsBetween(t, Clock::now());

  t = Clock::now();
  st->pool = MakeQueryPool(*st->graph, opt.tiny ? 30 : 4500, kRanges,
                           Mix(opt.seed, 2));
  st->workload_s = SecondsBetween(t, Clock::now());

  for (size_t m = 0; m < kNumMethods; ++m) {
    auto engine = MakeEngine(*st->graph, PaperOptions(kAllMethods[m]),
                             *st->keys);
    if (!engine.ok()) {
      out->Fail(std::string("build ") + kMethodNames[m] + ": " +
                engine.status().ToString());
      return nullptr;
    }
    st->engines[m] = std::move(engine).value();
    // Warm-up: fault in the engine's arrays and the verifier's code.
    SearchWorkspace ws;
    for (size_t i = 0; i < std::min<size_t>(8, st->pool.size()); ++i) {
      auto bundle = st->engines[m]->Answer(st->pool[i].query, ws);
      if (!bundle.ok() ||
          !AnswerIsRight(st->pool[i],
                         VerifyWireAnswer(st->keys->public_key(),
                                          st->pool[i].query,
                                          bundle.value().bytes))) {
        out->Fail(std::string("warm-up ") + kMethodNames[m]);
        return nullptr;
      }
    }
  }
  return st;
}

struct MethodSamples {
  std::vector<double> answer_ms, verify_ms, total_ms;
  // Per time slice of the window: answers verified and seconds spent.
  std::vector<double> slice_ops, slice_busy_s;
  double bytes = 0, sp_items = 0, t_items = 0;
  std::vector<uint8_t> sample_bytes;  // one answer, for the RSA probe

  /// Answers verified per second of this method's own time: the median
  /// over time slices, so a stall of a shared host moves one slice only.
  double VerifiedQps() const {
    std::vector<double> qps;
    for (size_t i = 0; i < slice_ops.size(); ++i) {
      if (slice_busy_s[i] > 0) {
        qps.push_back(slice_ops[i] / slice_busy_s[i]);
      }
    }
    return Median(qps);
  }
};

struct WindowResult {
  MethodSamples per_method[kNumMethods];
  double latency_p50_ms = 0, latency_p90_ms = 0, latency_p99_ms = 0;
  double throughput_qps = 0;
  uint64_t verifies = 0, rsa_verify_ops = 0;
};

/// One closed-loop window: rounds of `chunk` queries per method until
/// `seconds` have passed.
WindowResult RunWindow(const MethodsState& st, double seconds, bool tamper,
                       RunResult* out) {
  WindowResult w;
  SearchWorkspace ws[kNumMethods];
  VerifyWorkspace vws[kNumMethods];
  WireVerification result[kNumMethods];
  const size_t chunk = 25;
  const uint64_t rsa_before = RsaVerifyOps();
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  const size_t num_slices = std::max<size_t>(1, seconds / 2);
  for (MethodSamples& s : w.per_method) {
    s.slice_ops.assign(num_slices, 0);
    s.slice_busy_s.assign(num_slices, 0);
  }
  const auto start = Clock::now();
  size_t cursor = 0;
  std::vector<double> all_ms;
  while (Clock::now() < deadline) {
    const size_t slice = std::min(
        num_slices - 1, static_cast<size_t>(SecondsBetween(start, Clock::now()) /
                                            seconds * num_slices));
    for (size_t m = 0; m < kNumMethods; ++m) {
      MethodSamples& s = w.per_method[m];
      for (size_t k = 0; k < chunk; ++k) {
        const size_t i = (cursor + k) % st.pool.size();
        const PoolQuery& pq = st.pool[i];
        ScopedSpan query_span("bench.query", i);
        out->attempted++;
        const auto t0 = Clock::now();
        Result<ProofBundle> bundle = [&] {
          ScopedSpan span("core.answer", i);
          return st.engines[m]->Answer(pq.query, ws[m]);
        }();
        const auto t1 = Clock::now();
        if (!bundle.ok()) {
          out->failed++;
          out->Fail(std::string(kMethodNames[m]) + " answer: " +
                    bundle.status().ToString());
          continue;
        }
        std::vector<uint8_t>& bytes = bundle.value().bytes;
        if (tamper && m == 0 && k == 0 && cursor == 0) {
          bytes[bytes.size() / 2] ^= 0x5a;
        }
        {
          ScopedSpan span("core.verify", i);
          VerifyWireAnswer(st.keys->public_key(), pq.query, bytes, vws[m],
                           &result[m]);
        }
        const auto t2 = Clock::now();
        w.verifies++;
        if (!AnswerIsRight(pq, result[m])) {
          out->failed++;
          out->Fail(std::string(kMethodNames[m]) + " answer to query " +
                    std::to_string(i) + " failed verification: " +
                    result[m].outcome.ToString());
          continue;
        }
        s.answer_ms.push_back(MsBetween(t0, t1));
        s.verify_ms.push_back(MsBetween(t1, t2));
        s.total_ms.push_back(MsBetween(t0, t2));
        all_ms.push_back(s.total_ms.back());
        s.slice_ops[slice] += 1;
        s.slice_busy_s[slice] += SecondsBetween(t0, t2);
        s.bytes += static_cast<double>(bytes.size());
        s.sp_items += static_cast<double>(bundle.value().stats.sp_items);
        s.t_items += static_cast<double>(bundle.value().stats.t_items);
        if (s.sample_bytes.empty()) {
          s.sample_bytes = bytes;
        }
      }
    }
    cursor += chunk;
  }
  w.rsa_verify_ops = RsaVerifyOps() - rsa_before;
  w.latency_p50_ms = Percentile(all_ms, 0.50);
  w.latency_p90_ms = Percentile(all_ms, 0.90);
  w.latency_p99_ms = Percentile(all_ms, 0.99);
  double log_sum = 0;
  for (const MethodSamples& s : w.per_method) {
    log_sum += std::log(std::max(s.VerifiedQps(), 1e-9));
  }
  w.throughput_qps = std::exp(log_sum / kNumMethods);
  return w;
}

void ReportMethods(const WindowResult& w, Metrics* m, bool layer) {
  double kb_sum = 0;
  for (size_t i = 0; i < kNumMethods; ++i) {
    const MethodSamples& s = w.per_method[i];
    const std::string name = kMethodNames[i];
    const double n = std::max<double>(1, s.total_ms.size());
    kb_sum += s.bytes / n / 1024.0;
    m->Set("verified_qps." + name, s.VerifiedQps(), "1/s");
    m->Set("answer_ms.p50." + name, Percentile(s.answer_ms, 0.5), "ms");
    m->Set("verify_ms.p50." + name, Percentile(s.verify_ms, 0.5), "ms");
    if (layer) {
      m->Set("proof.sp_items." + name, s.sp_items / n, "count");
      m->Set("proof.t_items." + name, s.t_items / n, "count");
    } else {
      m->Set("proof_kb_mean." + name, s.bytes / n / 1024.0, "KB");
    }
  }
  if (!layer) {
    m->Set("proof_kb_mean", kb_sum / kNumMethods, "KB");
  }
}

}  // namespace

void RunMethods(const Options& opt, RunResult* out) {
  std::vector<double> setup_s;
  std::unique_ptr<MethodsState> st;
  for (int r = 0; r < kSetupRepeats; ++r) {
    st.reset();
    const auto t0 = Clock::now();
    st = Setup(opt, out);
    if (st == nullptr) {
      return;
    }
    setup_s.push_back(SecondsBetween(t0, Clock::now()));
  }

  const double window_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  const WindowResult plain = RunWindow(*st, window_s, opt.tamper, out);

  Metrics& e2e = out->end_to_end;
  e2e.Set("setup_s", Median(setup_s), "s");
  e2e.Set("latency_p50_ms", plain.latency_p50_ms, "ms");
  out->detail.Set("latency_p90_ms", plain.latency_p90_ms, "ms");
  out->detail.Set("latency_p99_ms", plain.latency_p99_ms, "ms");
  e2e.Set("throughput_qps", plain.throughput_qps, "1/s");
  Metrics scratch;
  ReportMethods(plain, &scratch, false);
  e2e.Set("proof_kb_mean", scratch.Find("proof_kb_mean")->value, "KB");
  for (const Metrics::Entry& e : scratch.entries()) {
    if (e.name != "proof_kb_mean") {
      out->detail.Set(e.name, e.value, e.unit);
    }
  }

  if (opt.trace) {
    Metrics& layer = out->per_layer;
    Tracer::SetEnabled(true);
    const WindowResult traced = RunWindow(*st, window_s, false, out);
    ReportSelfTime(window_s, &layer);
    ReportMethods(traced, &layer, true);
    layer.Set("trace.overhead.latency_p50_ms",
              traced.latency_p50_ms / plain.latency_p50_ms - 1, "ratio");
    layer.Set("trace.overhead.throughput_qps",
              traced.throughput_qps / plain.throughput_qps - 1, "ratio");
    layer.Set("crypto.verify_ops_per_answer",
              traced.verifies > 0 ? static_cast<double>(traced.rsa_verify_ops) /
                                        traced.verifies
                                  : 0,
              "count");
    for (size_t m = 0; m < kNumMethods; ++m) {
      const std::string name = kMethodNames[m];
      const double rsa_us = ProbeRsaVerifyUs(
          st->keys->public_key(), traced.per_method[m].sample_bytes, 50);
      const double verify_ms = layer.Find("verify_ms.p50." + name)->value;
      layer.Set("verify.rsa_share." + name,
                verify_ms > 0 ? rsa_us / 1000.0 / verify_ms : 0, "ratio");
      layer.Set("setup.ads_s." + name, st->engines[m]->construction_seconds(),
                "s");
      if (m == 0) {
        layer.Set("crypto.rsa_verify_us", rsa_us, "us");
      }
    }
    layer.Set("crypto.rsa_sign_ms", ProbeRsaSignMs(*st->keys, 5), "ms");
    layer.Set("merkle.level_rehash_us", ProbeMerkleLevelUs(28867, 9), "us");
    layer.Set("graph.search_ms.p50",
              ProbeGraphSearchMs(*st->graph,
                                 std::span(st->pool).first(
                                     std::min<size_t>(300, st->pool.size()))),
              "ms");
    layer.Set("setup.keygen_s", st->keygen_s, "s");
    layer.Set("setup.graph_s", st->graph_s, "s");
    layer.Set("setup.workload_s", st->workload_s, "s");
  }
  out->detail.Set("pool_queries", static_cast<double>(st->pool.size()),
                  "count");
}

}  // namespace perfbench
