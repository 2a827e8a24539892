// Micro benchmarks for the cryptographic substrate: hash throughput,
// RSA sign/verify latency and modular exponentiation.
#include <benchmark/benchmark.h>

#include "crypto/bigint.h"
#include "crypto/digest.h"
#include "crypto/rsa.h"
#include "crypto/sha_multibuf.h"
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
void BM_RsaSign(benchmark::State& state) {
  const RsaKeyPair& keys = BenchKeys();
  Digest d = Hasher::Hash(HashAlgorithm::kSha1,
                          {reinterpret_cast<const uint8_t*>("root"), 4});
  for (auto _ : state) {
    auto sig = keys.Sign(d);
    benchmark::DoNotOptimize(sig);
  }
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
