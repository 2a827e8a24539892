// Micro benchmarks for the cryptographic substrate: hash throughput,
// RSA sign/verify latency, modular exponentiation, and the client's wire
// verify with a cold and a warm certificate memo.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <memory>

#include "core/client.h"
#include "core/engine.h"
#include "core/verify_workspace.h"
#include "crypto/bigint.h"
#include "crypto/digest.h"
#include "crypto/rsa.h"
#include "crypto/sha_multibuf.h"
#include "graph/generator.h"
#include "graph/workload.h"
#include "util/rng.h"

namespace spauth {
namespace {

void BM_Hash(benchmark::State& state, HashAlgorithm alg) {
  const size_t size = static_cast<size_t>(state.range(0));
  std::vector<uint8_t> data(size);
  Rng rng(1);
  rng.FillBytes(data.data(), data.size());
  for (auto _ : state) {
    Digest d = Hasher::Hash(alg, data);
    benchmark::DoNotOptimize(d);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(size));
}
BENCHMARK_CAPTURE(BM_Hash, sha1, HashAlgorithm::kSha1)
    ->Arg(64)
    ->Arg(1024)
    ->Arg(65536);
BENCHMARK_CAPTURE(BM_Hash, sha256, HashAlgorithm::kSha256)
    ->Arg(64)
    ->Arg(1024)
    ->Arg(65536);

const RsaKeyPair& BenchKeys() {
  static const RsaKeyPair* keys = [] {
    Rng rng(42);
    return new RsaKeyPair(RsaKeyPair::Generate(1024, &rng).value());
  }();
  return *keys;
}

// Both RSA benchmarks fetch the key before their timed loop: BenchKeys()
// generates it on first use, and a 1024-bit keygen inside the first
// iteration would dominate a short run.
//
// Signing is CRT: two half-width exponentiations plus the public-key check
// that guards against a faulty half, all inside this row.
void BM_RsaSign(benchmark::State& state) {
  const RsaKeyPair& keys = BenchKeys();
  Digest d = Hasher::Hash(HashAlgorithm::kSha1,
                          {reinterpret_cast<const uint8_t*>("root"), 4});
  for (auto _ : state) {
    auto sig = keys.Sign(d);
    benchmark::DoNotOptimize(sig);
  }
  state.SetLabel("crt+guard");
}
BENCHMARK(BM_RsaSign);

void BM_RsaVerify(benchmark::State& state) {
  const RsaKeyPair& keys = BenchKeys();
  Digest d = Hasher::Hash(HashAlgorithm::kSha1,
                          {reinterpret_cast<const uint8_t*>("root"), 4});
  auto sig = keys.Sign(d).value();
  for (auto _ : state) {
    bool ok = RsaVerify(keys.public_key(), d, sig);
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_RsaVerify);

// ---------------------------------------------------------------------------
// Client wire verify, cold vs warm. Cold: a fresh VerifyWorkspace per
// answer, so the certificate's RSA verify runs every time (plus the
// workspace's allocations). Warm: one workspace across the stream, so the
// certificate memo leaves one RSA verify per certificate version. DIJ has
// the smallest RSA share of verify time, FULL the largest.
// ---------------------------------------------------------------------------

struct WireSetup {
  std::unique_ptr<MethodEngine> engine;
  std::vector<Query> queries;
  std::vector<std::vector<uint8_t>> wires;
};

const Graph& WireGraph() {
  static const Graph* g = [] {
    RoadNetworkOptions options;
    options.num_nodes = 600;
    options.seed = 17;
    return new Graph(GenerateRoadNetwork(options).value());
  }();
  return *g;
}

const WireSetup& GetWireSetup(MethodKind method) {
  static std::unique_ptr<WireSetup> setups[5];
  std::unique_ptr<WireSetup>& setup = setups[static_cast<size_t>(method)];
  if (setup == nullptr) {
    setup = std::make_unique<WireSetup>();
    EngineOptions options;
    options.method = method;
    auto engine = MakeEngine(WireGraph(), options, BenchKeys());
    if (!engine.ok()) {
      std::abort();
    }
    setup->engine = std::move(engine).value();
    WorkloadOptions workload;
    workload.count = 16;
    workload.query_range = 2000;
    workload.seed = 3;
    setup->queries = GenerateWorkload(WireGraph(), workload).value();
    for (const Query& q : setup->queries) {
      auto bundle = setup->engine->Answer(q);
      if (!bundle.ok() || !VerifyWireAnswer(BenchKeys().public_key(), q,
                                            bundle.value().bytes)
                               .outcome.accepted) {
        std::abort();
      }
      setup->wires.push_back(std::move(bundle.value().bytes));
    }
  }
  return *setup;
}

void BM_VerifyWireAnswer(benchmark::State& state, MethodKind method,
                         bool warm) {
  const WireSetup& setup = GetWireSetup(method);
  const RsaPublicKey& key = BenchKeys().public_key();
  VerifyWorkspace reused;
  WireVerification result;
  size_t i = 0;
  for (auto _ : state) {
    const size_t j = i++ % setup.queries.size();
    if (warm) {
      VerifyWireAnswer(key, setup.queries[j], setup.wires[j], reused,
                       &result);
    } else {
      result = VerifyWireAnswer(key, setup.queries[j], setup.wires[j]);
    }
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK_CAPTURE(BM_VerifyWireAnswer, dij_cold, MethodKind::kDij, false);
BENCHMARK_CAPTURE(BM_VerifyWireAnswer, dij_warm, MethodKind::kDij, true);
BENCHMARK_CAPTURE(BM_VerifyWireAnswer, full_cold, MethodKind::kFull, false);
BENCHMARK_CAPTURE(BM_VerifyWireAnswer, full_warm, MethodKind::kFull, true);

void BM_BigIntModPow(benchmark::State& state) {
  Rng rng(7);
  const int bits = static_cast<int>(state.range(0));
  BigInt modulus = BigInt::GeneratePrime(bits, &rng);
  BigInt base = BigInt::RandomBelow(modulus, &rng);
  BigInt exponent = BigInt::RandomWithBits(bits, &rng);
  for (auto _ : state) {
    auto r = BigInt::ModPow(base, exponent, modulus);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_BigIntModPow)->Arg(256)->Arg(512)->Arg(1024);

void BM_BigIntMul(benchmark::State& state) {
  Rng rng(9);
  BigInt a = BigInt::RandomWithBits(static_cast<int>(state.range(0)), &rng);
  BigInt b = BigInt::RandomWithBits(static_cast<int>(state.range(0)), &rng);
  for (auto _ : state) {
    BigInt p = BigInt::Mul(a, b);
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_BigIntMul)->Arg(512)->Arg(1024)->Arg(2048);

// ---------------------------------------------------------------------------
// Multi-buffer SHA: the Merkle level-rebuild shape — many equal-length
// messages hashed as a batch. Compare BM_ShaMany (SIMD lanes when built
// with SPAUTH_SHA_MULTIBUF=ON) against BM_ShaScalarLoop on the same
// workload; the ratio is the multi-buffer speedup the rotation path sees.
// ---------------------------------------------------------------------------

/// `count` messages of `size` bytes each, the layout ShaHashMany consumes.
struct ShaBatch {
  std::vector<uint8_t> arena;
  std::vector<const uint8_t*> ptrs;
  std::vector<size_t> sizes;

  ShaBatch(size_t count, size_t size) : arena(count * size) {
    Rng rng(7);
    rng.FillBytes(arena.data(), arena.size());
    for (size_t i = 0; i < count; ++i) {
      ptrs.push_back(arena.data() + i * size);
      sizes.push_back(size);
    }
  }
};

void BM_ShaMany(benchmark::State& state, HashAlgorithm alg) {
  const size_t count = static_cast<size_t>(state.range(0));
  const size_t size = static_cast<size_t>(state.range(1));
  ShaBatch batch(count, size);
  std::vector<Digest> out(count);
  for (auto _ : state) {
    ShaHashMany(alg, count, batch.ptrs.data(), batch.sizes.data(), out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(count * size));
  state.SetLabel(ShaMultiBufEnabled() ? "multibuf" : "scalar-fallback");
}
// {messages, bytes each}: 64-byte nodes are the internal-level rebuild
// shape, 256-byte payloads the leaf-hash shape.
BENCHMARK_CAPTURE(BM_ShaMany, sha1, HashAlgorithm::kSha1)
    ->Args({1024, 64})
    ->Args({1024, 256})
    ->Args({8192, 64});
BENCHMARK_CAPTURE(BM_ShaMany, sha256, HashAlgorithm::kSha256)
    ->Args({1024, 64})
    ->Args({8192, 64});

void BM_ShaScalarLoop(benchmark::State& state, HashAlgorithm alg) {
  const size_t count = static_cast<size_t>(state.range(0));
  const size_t size = static_cast<size_t>(state.range(1));
  ShaBatch batch(count, size);
  std::vector<Digest> out(count);
  for (auto _ : state) {
    for (size_t i = 0; i < count; ++i) {
      out[i] = Hasher::Hash(alg, {batch.ptrs[i], batch.sizes[i]});
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(count * size));
}
BENCHMARK_CAPTURE(BM_ShaScalarLoop, sha1, HashAlgorithm::kSha1)
    ->Args({1024, 64})
    ->Args({1024, 256})
    ->Args({8192, 64});
BENCHMARK_CAPTURE(BM_ShaScalarLoop, sha256, HashAlgorithm::kSha256)
    ->Args({1024, 64})
    ->Args({8192, 64});

}  // namespace
}  // namespace spauth

BENCHMARK_MAIN();
