// Message digests and the streaming hash interface.
//
// The paper uses SHA-1 (20-byte digests); spauth implements both SHA-1 and
// SHA-256 from scratch and defaults to SHA-1 so that integrity-proof byte
// counts are comparable with the paper's. Digest is a small value type that
// carries its algorithm's length (20 or 32 bytes).
#ifndef SPAUTH_CRYPTO_DIGEST_H_
#define SPAUTH_CRYPTO_DIGEST_H_

#include <array>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>

#include "util/status.h"

namespace spauth {

/// Hash functions available to the owner when building an ADS.
enum class HashAlgorithm : uint8_t {
  kSha1 = 1,    // 20-byte digests (paper default)
  kSha256 = 2,  // 32-byte digests
};

/// Digest length in bytes for `alg`.
constexpr size_t DigestSize(HashAlgorithm alg) {
  return alg == HashAlgorithm::kSha1 ? 20 : 32;
}

std::string_view HashAlgorithmName(HashAlgorithm alg);
Result<HashAlgorithm> ParseHashAlgorithm(uint8_t wire);

/// A fixed-capacity hash output. Only the first size() bytes are meaningful;
/// trailing bytes are zero so equality can compare the whole array.
class Digest {
 public:
  static constexpr size_t kMaxSize = 32;

  Digest() : size_(0) { bytes_.fill(0); }

  static Digest FromBytes(std::span<const uint8_t> data) {
    Digest d;
    d.size_ = data.size() <= kMaxSize ? data.size() : kMaxSize;
    std::memcpy(d.bytes_.data(), data.data(), d.size_);
    return d;
  }

  const uint8_t* data() const { return bytes_.data(); }
  uint8_t* mutable_data() { return bytes_.data(); }
  size_t size() const { return size_; }
  void set_size(size_t size) { size_ = size; }
  bool empty() const { return size_ == 0; }

  std::span<const uint8_t> view() const { return {bytes_.data(), size_}; }

  std::string ToHex() const;

  bool operator==(const Digest& other) const {
    return size_ == other.size_ && bytes_ == other.bytes_;
  }
  bool operator!=(const Digest& other) const { return !(*this == other); }

 private:
  std::array<uint8_t, kMaxSize> bytes_;
  size_t size_;
};

/// Which compression function a Hasher runs. Every choice yields the same
/// digests. kAuto takes the SHA-NI instructions when the build compiled
/// them in (SPAUTH_SHA_HW=ON on x86-64) and cpuid reports them, and the
/// scalar rounds otherwise. kShaNi falls back to scalar where SHA-NI is
/// unavailable, so it is always safe to ask for; kScalar is the oracle the
/// differential tests and the scalar micro-benchmarks pin.
enum class ShaImpl : uint8_t { kAuto, kScalar, kShaNi };

/// True when kAuto runs SHA-NI: compiled in and reported by this CPU.
bool ShaNiAvailable();

/// Streaming hasher; create, Update() any number of times, Finish() once.
class Hasher {
 public:
  explicit Hasher(HashAlgorithm alg, ShaImpl impl = ShaImpl::kAuto);

  Hasher& Update(std::span<const uint8_t> data);
  Hasher& Update(const void* data, size_t size) {
    return Update({static_cast<const uint8_t*>(data), size});
  }

  /// Finalizes and returns the digest. The hasher must not be reused.
  Digest Finish();

  /// One-shot hash of a contiguous message. A message under 56 bytes (a
  /// fanout-2 SHA-1 Merkle node, a tuple leaf) is padded in place and
  /// compressed as one block, with no streaming bookkeeping.
  static Digest Hash(HashAlgorithm alg, std::span<const uint8_t> data,
                     ShaImpl impl = ShaImpl::kAuto);

 private:
  HashAlgorithm alg_;
  bool use_sha_ni_;
  // Unified state block large enough for either algorithm.
  uint32_t h_[8];
  uint64_t total_bytes_;
  uint8_t block_[64];
  size_t block_fill_;

  /// Runs the compression function over `count` consecutive 64-byte blocks.
  void ProcessBlocks(const uint8_t* blocks, size_t count);
  /// Assembles the Merkle-Damgard padding for `bit_length` in block_
  /// (starting at block_fill_) and processes the final one or two blocks.
  void FinishBlocks(uint64_t bit_length);
  /// Serializes the chaining state into a Digest.
  Digest ExtractDigest() const;
};

}  // namespace spauth

#endif  // SPAUTH_CRYPTO_DIGEST_H_
