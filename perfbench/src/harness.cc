#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "core/certificate.h"
#include "crypto/digest.h"
#include "graph/dijkstra.h"
#include "graph/search_workspace.h"
#include "merkle/merkle_tree.h"
#include "util/byte_buffer.h"

namespace perfbench {

using namespace spauth;

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

const Metrics::Entry* Metrics::Find(const std::string& name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) {
      return &e;
    }
  }
  return nullptr;
}

void RunResult::Fail(const std::string& why) {
  if (errors.size() < 20) {
    errors.push_back(why);
  }
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

RsaKeyPair GenerateOwnerKeys() {
  Rng rng(20100301);
  auto keys = RsaKeyPair::Generate(1024, &rng);
  if (!keys.ok()) {
    std::fprintf(stderr, "key generation failed: %s\n",
                 keys.status().ToString().c_str());
    std::abort();
  }
  return std::move(keys).value();
}

std::vector<PoolQuery> MakeQueryPool(const Graph& g, size_t count,
                                     std::span<const double> ranges,
                                     uint64_t seed) {
  Rng rng(seed);
  SearchWorkspace ws;
  BallResult ball;
  std::vector<PoolQuery> pool;
  pool.reserve(count);
  std::vector<size_t> band;
  while (pool.size() < count) {
    const double range = ranges[pool.size() % ranges.size()];
    const NodeId source = static_cast<NodeId>(rng.NextBounded(g.num_nodes()));
    DijkstraBall(g, source, 1.1 * range, ws, &ball);
    if (ball.nodes.size() < 2) {
      continue;
    }
    band.clear();
    size_t farthest = 1;
    for (size_t i = 1; i < ball.nodes.size(); ++i) {
      if (ball.dist[i] >= 0.9 * range) {
        band.push_back(i);
      }
      if (ball.dist[i] > ball.dist[farthest]) {
        farthest = i;
      }
    }
    const size_t pick =
        band.empty() ? farthest : band[rng.NextBounded(band.size())];
    pool.push_back({Query{source, ball.nodes[pick]}, ball.dist[pick]});
  }
  return pool;
}

bool AnswerIsRight(const PoolQuery& pq, const WireVerification& v) {
  if (!v.outcome.accepted || v.path.empty() ||
      v.path.source() != pq.query.source ||
      v.path.target() != pq.query.target) {
    return false;
  }
  return std::fabs(v.distance - pq.truth) <=
         1e-9 * std::max(1.0, std::fabs(pq.truth));
}

Zipf::Zipf(size_t n, double s) : cdf_(n) {
  double total = 0;
  for (size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = total;
  }
  for (double& c : cdf_) {
    c /= total;
  }
}

size_t Zipf::Draw(Rng* rng) const {
  const double u = rng->NextDouble();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<size_t>(static_cast<size_t>(it - cdf_.begin()),
                          cdf_.size() - 1);
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

struct Tracer::ThreadLog {
  std::vector<SpanRecord> spans;
  std::vector<int64_t> open;  // stack of open span indices
};

namespace {

std::mutex g_logs_mu;
std::vector<std::unique_ptr<Tracer::ThreadLog>>& Logs() {
  static auto* logs = new std::vector<std::unique_ptr<Tracer::ThreadLog>>();
  return *logs;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::atomic<bool> Tracer::enabled_{false};

void Tracer::SetEnabled(bool on) {
  enabled_.store(on, std::memory_order_relaxed);
}

Tracer::ThreadLog* Tracer::Local() {
  // Logs outlive their threads: spans are read after the workers join.
  thread_local ThreadLog* log = [] {
    std::lock_guard<std::mutex> lock(g_logs_mu);
    Logs().push_back(std::make_unique<ThreadLog>());
    Logs().back()->spans.reserve(1 << 14);
    return Logs().back().get();
  }();
  return log;
}

int64_t Tracer::Begin(const char* name, uint64_t req) {
  ThreadLog* log = Local();
  SpanRecord rec;
  rec.name = name;
  rec.req = req;
  rec.parent = log->open.empty() ? -1 : log->open.back();
  rec.start_ns = NowNs();
  log->spans.push_back(rec);
  const int64_t index = static_cast<int64_t>(log->spans.size()) - 1;
  log->open.push_back(index);
  return index;
}

void Tracer::End(int64_t index) {
  ThreadLog* log = Local();
  log->spans[static_cast<size_t>(index)].end_ns = NowNs();
  if (!log->open.empty() && log->open.back() == index) {
    log->open.pop_back();
  }
}

std::vector<std::pair<std::string, double>> Tracer::SelfSecondsByLayer() {
  std::vector<std::pair<std::string, double>> layers;
  auto add = [&](const std::string& layer, double s) {
    for (auto& [name, total] : layers) {
      if (name == layer) {
        total += s;
        return;
      }
    }
    layers.emplace_back(layer, s);
  };
  std::lock_guard<std::mutex> lock(g_logs_mu);
  for (const auto& log : Logs()) {
    std::vector<int64_t> child_ns(log->spans.size(), 0);
    for (const SpanRecord& s : log->spans) {
      if (s.parent >= 0 && s.end_ns > 0) {
        child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    for (size_t i = 0; i < log->spans.size(); ++i) {
      const SpanRecord& s = log->spans[i];
      if (s.end_ns == 0) {
        continue;  // still open
      }
      const std::string name(s.name);
      add(name.substr(0, name.find('.')),
          static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-9);
    }
  }
  return layers;
}

size_t Tracer::SpanCount() {
  std::lock_guard<std::mutex> lock(g_logs_mu);
  size_t n = 0;
  for (const auto& log : Logs()) {
    n += log->spans.size();
  }
  return n;
}

bool Tracer::WriteTsv(const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  out << "thread\tindex\tparent\treq\tname\tstart_ns\tend_ns\n";
  std::lock_guard<std::mutex> lock(g_logs_mu);
  for (size_t t = 0; t < Logs().size(); ++t) {
    const auto& spans = Logs()[t]->spans;
    for (size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& s = spans[i];
      out << t << '\t' << i << '\t' << s.parent << '\t' << s.req << '\t'
          << s.name << '\t' << s.start_ns << '\t' << s.end_ns << '\n';
    }
  }
  return static_cast<bool>(out);
}

void ReportSelfTime(double window_s, Metrics* per_layer) {
  for (const auto& [layer, seconds] : Tracer::SelfSecondsByLayer()) {
    per_layer->Set("self_ms_per_s." + layer,
                   window_s > 0 ? seconds * 1000.0 / window_s : 0, "ms/s");
  }
  per_layer->Set("trace.spans", static_cast<double>(Tracer::SpanCount()),
                 "count");
}

// ---------------------------------------------------------------------------
// Probes
// ---------------------------------------------------------------------------

double ProbeRsaSignMs(const RsaKeyPair& keys, int reps) {
  ScopedSpan span("crypto.rsa_sign", 0);
  const std::vector<uint8_t> msg = {'p', 'e', 'r', 'f'};
  const Digest digest = Hasher::Hash(HashAlgorithm::kSha1, msg);
  if (!keys.Sign(digest).ok()) {  // warm-up
    return 0;
  }
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    auto sig = keys.Sign(digest);
    ms.push_back(MsBetween(t0, Clock::now()));
    if (!sig.ok()) {
      return 0;
    }
  }
  return Median(ms);
}

double ProbeRsaVerifyUs(const RsaPublicKey& key,
                        std::span<const uint8_t> wire_bytes, int reps) {
  ScopedSpan span("crypto.rsa_verify", 0);
  ByteReader reader(wire_bytes);
  auto cert = Certificate::Deserialize(&reader);
  if (!cert.ok() || !VerifyCertificate(key, cert.value())) {
    return 0;
  }
  std::vector<double> us;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    const bool ok = VerifyCertificate(key, cert.value());
    us.push_back(MsBetween(t0, Clock::now()) * 1000.0);
    if (!ok) {
      return 0;
    }
  }
  return Median(us);
}

double ProbeMerkleLevelUs(size_t leaves, int reps) {
  ScopedSpan span("merkle.level_rehash", 0);
  std::vector<Digest> below;
  below.reserve(leaves);
  for (size_t i = 0; i < leaves; ++i) {
    const uint64_t word = Mix(i, 7);
    below.push_back(Hasher::Hash(
        HashAlgorithm::kSha1,
        std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(&word),
                                 sizeof(word))));
  }
  std::vector<Digest> level;
  HashInternalLevel(HashAlgorithm::kSha1, below, 2, &level);  // warm-up
  std::vector<double> us;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    HashInternalLevel(HashAlgorithm::kSha1, below, 2, &level);
    us.push_back(MsBetween(t0, Clock::now()) * 1000.0);
  }
  return Median(us);
}

double ProbeGraphSearchMs(const Graph& g, std::span<const PoolQuery> queries) {
  SearchWorkspace ws;
  std::vector<double> ms;
  ms.reserve(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ScopedSpan span("graph.search", i);
    const auto t0 = Clock::now();
    const PathSearchResult r = DijkstraShortestPath(
        g, queries[i].query.source, queries[i].query.target, ws);
    ms.push_back(MsBetween(t0, Clock::now()));
    if (!r.reachable) {
      return 0;
    }
  }
  return Median(ms);
}

void ZeroPerLayer(Metrics* m) {
  struct Named {
    const char* name;
    const char* unit;
  };
  static const Named kFixed[] = {
      {"failed_frac", "ratio"},
      {"net.batch_coalescing", "ratio"},
      {"net.queries_received", "count"},
      {"net.batches_dispatched", "count"},
      {"net.bytes_per_answer", "B"},
      {"net.backpressure_stalls", "count"},
      {"net.proof_bytes_copied", "B"},
      {"gen.late_p99_ms", "ms"},
      {"gen.verify_ms.p50", "ms"},
      {"cache.hit_ratio", "ratio"},
      {"cache.hits", "count"},
      {"cache.misses", "count"},
      {"shard.answer_us_mean", "us"},
      {"shard.load_skew", "ratio"},
      {"read_ms.p50", "ms"},
      {"read_ms.p99", "ms"},
      {"crypto.rsa_verify_us", "us"},
      {"crypto.rsa_sign_ms", "ms"},
      {"crypto.sign_ops_per_rotation", "count"},
      {"crypto.verify_ops_per_answer", "count"},
      {"merkle.level_rehash_us", "us"},
      {"graph.search_ms.p50", "ms"},
      {"setup.keygen_s", "s"},
      {"setup.graph_s", "s"},
      {"setup.workload_s", "s"},
      {"owner.rotation_ms.p50", "ms"},
      {"owner.rotation_ms.p99", "ms"},
      {"owner.busy_frac", "ratio"},
      {"owner.coalescing_ratio", "ratio"},
      {"owner.rotations", "count"},
      {"owner.clone_bytes_per_rotation", "B"},
      {"owner.live_snapshots_max", "count"},
      {"wal.bytes_per_update", "B"},
      {"wal.append_fsync_ms", "ms"},
      {"self_ms_per_s.bench", "ms/s"},
      {"self_ms_per_s.net", "ms/s"},
      {"self_ms_per_s.core", "ms/s"},
      {"self_ms_per_s.crypto", "ms/s"},
      {"self_ms_per_s.merkle", "ms/s"},
      {"self_ms_per_s.graph", "ms/s"},
      {"self_ms_per_s.owner", "ms/s"},
      {"trace.spans", "count"},
      {"trace.overhead.latency_p50_ms", "ratio"},
      {"trace.overhead.throughput_qps", "ratio"},
  };
  for (const Named& n : kFixed) {
    m->Set(n.name, 0, n.unit);
  }
  for (const char* method : kMethodNames) {
    const std::string s(method);
    m->Set("answer_ms.p50." + s, 0, "ms");
    m->Set("verify_ms.p50." + s, 0, "ms");
    m->Set("verified_qps." + s, 0, "1/s");
    m->Set("verify.rsa_share." + s, 0, "ratio");
    m->Set("proof.sp_items." + s, 0, "count");
    m->Set("proof.t_items." + s, 0, "count");
    m->Set("setup.ads_s." + s, 0, "s");
  }
}

}  // namespace perfbench
