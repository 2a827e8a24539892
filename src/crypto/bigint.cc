#include "crypto/bigint.h"

#include <algorithm>
#include <cassert>

namespace spauth {

namespace {

constexpr int kLimbBits = 32;

// Small primes for trial division before Miller-Rabin.
constexpr uint32_t kSmallPrimes[] = {
    3,   5,   7,   11,  13,  17,  19,  23,  29,  31,  37,  41,  43,  47,  53,
    59,  61,  67,  71,  73,  79,  83,  89,  97,  101, 103, 107, 109, 113, 127,
    131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199,
    211, 223, 227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283,
    293, 307, 311, 313, 317, 331, 337, 347, 349, 353, 359, 367, 373, 379, 383,
    389, 397, 401, 409, 419, 421, 431, 433, 439, 443, 449, 457, 461, 463, 467,
    479, 487, 491, 499, 503, 509, 521, 523, 541, 547, 557, 563, 569, 571, 577,
    587, 593, 599, 601, 607, 613, 617, 619, 631, 641, 643, 647, 653, 659, 661,
    673, 677, 683, 691, 701, 709, 719, 727, 733, 739, 743, 751, 757, 761, 769,
    773, 787, 797, 809, 811, 821, 823, 827, 829, 839, 853, 857, 859, 863, 877,
    881, 883, 887, 907, 911, 919, 929, 937, 941, 947, 953, 967, 971, 977, 983,
    991, 997};

// Montgomery multiplication modulo an odd m of n 64-bit words (pairs of
// 32-bit limbs), R = 2^(64n), in the CIOS form (coarsely integrated operand
// scanning): each outer step adds one word's partial product and then one
// reduction multiple of m, in 128-bit accumulators, so the running sum
// stays n + 2 words wide. 64-bit words quarter the inner-loop count of
// 32-bit limbs; the carry chain, not the multiplier, bounds both.
class Montgomery {
 public:
  __extension__ using Wide = unsigned __int128;

  explicit Montgomery(std::vector<uint64_t> m)
      : m_(std::move(m)), t_(m_.size() + 2) {
    // Newton iteration for m^-1 mod 2^64: m0 is its own inverse mod 8,
    // and each step doubles the number of correct low bits.
    const uint64_t m0 = m_[0];
    uint64_t inv = m0;
    for (int i = 0; i < 5; ++i) {
      inv *= 2 - m0 * inv;
    }
    m_neg_inv_ = 0 - inv;
  }

  /// out = a * b * R^-1 mod m. a, b < m, n words each; out may alias them.
  void Mul(const uint64_t* a, const uint64_t* b, uint64_t* out) {
    const size_t n = m_.size();
    uint64_t* t = t_.data();
    std::fill(t_.begin(), t_.end(), 0);
    for (size_t i = 0; i < n; ++i) {
      const uint64_t bi = b[i];
      uint64_t carry = 0;
      for (size_t j = 0; j < n; ++j) {
        const Wide sum = static_cast<Wide>(a[j]) * bi + t[j] + carry;
        t[j] = static_cast<uint64_t>(sum);
        carry = static_cast<uint64_t>(sum >> 64);
      }
      Wide sum = static_cast<Wide>(t[n]) + carry;
      t[n] = static_cast<uint64_t>(sum);
      t[n + 1] = static_cast<uint64_t>(sum >> 64);

      // Add q*m with q chosen so the low word cancels, then shift one word.
      const uint64_t q = t[0] * m_neg_inv_;
      carry = static_cast<uint64_t>(
          (static_cast<Wide>(q) * m_[0] + t[0]) >> 64);
      for (size_t j = 1; j < n; ++j) {
        sum = static_cast<Wide>(q) * m_[j] + t[j] + carry;
        t[j - 1] = static_cast<uint64_t>(sum);
        carry = static_cast<uint64_t>(sum >> 64);
      }
      sum = static_cast<Wide>(t[n]) + carry;
      t[n - 1] = static_cast<uint64_t>(sum);
      t[n] = t[n + 1] + static_cast<uint64_t>(sum >> 64);
    }
    // t < 2m here; one conditional subtraction finishes the reduction.
    bool subtract = t[n] != 0;
    if (!subtract) {
      subtract = true;  // t == m also subtracts
      for (size_t j = n; j-- > 0;) {
        if (t[j] != m_[j]) {
          subtract = t[j] > m_[j];
          break;
        }
      }
    }
    if (!subtract) {
      std::copy(t, t + n, out);
      return;
    }
    uint64_t borrow = 0;
    for (size_t j = 0; j < n; ++j) {
      const Wide diff = static_cast<Wide>(t[j]) - m_[j] - borrow;
      out[j] = static_cast<uint64_t>(diff);
      borrow = static_cast<uint64_t>(diff >> 64) & 1;
    }
  }

 private:
  std::vector<uint64_t> m_;
  uint64_t m_neg_inv_ = 0;  // -m^-1 mod 2^64
  std::vector<uint64_t> t_;
};

// Packs 32-bit limbs into `words` 64-bit words, zero-padded.
std::vector<uint64_t> ToWords(const std::vector<uint32_t>& limbs,
                              size_t words) {
  std::vector<uint64_t> out(words, 0);
  for (size_t i = 0; i < limbs.size(); ++i) {
    out[i / 2] |= static_cast<uint64_t>(limbs[i]) << (32 * (i % 2));
  }
  return out;
}

// Fixed-window width for an exponent of `bits` bits: wider windows trade a
// 2^w-entry table for fewer multiplications (thresholds as in OpenSSL's
// BN_window_bits_for_exponent_size). Short public exponents such as 65537
// get plain left-to-right binary.
int WindowBits(int bits) {
  return bits > 671 ? 6 : bits > 239 ? 5 : bits > 79 ? 4 : bits > 23 ? 3 : 1;
}

// Bits [lo, lo + w) of `e` as an integer.
uint32_t ExponentWindow(const BigInt& e, int lo, int w) {
  uint32_t v = 0;
  for (int i = w - 1; i >= 0; --i) {
    v = (v << 1) | (e.GetBit(lo + i) ? 1u : 0u);
  }
  return v;
}

}  // namespace

void BigInt::Normalize() {
  while (!limbs_.empty() && limbs_.back() == 0) {
    limbs_.pop_back();
  }
}

BigInt BigInt::FromU64(uint64_t v) {
  BigInt out;
  if (v != 0) {
    out.limbs_.push_back(static_cast<uint32_t>(v));
    if (v >> 32) {
      out.limbs_.push_back(static_cast<uint32_t>(v >> 32));
    }
  }
  return out;
}

uint64_t BigInt::LowU64() const {
  uint64_t v = limbs_.empty() ? 0 : limbs_[0];
  if (limbs_.size() > 1) {
    v |= static_cast<uint64_t>(limbs_[1]) << 32;
  }
  return v;
}

BigInt BigInt::FromBytesBigEndian(std::span<const uint8_t> bytes) {
  BigInt out;
  out.limbs_.assign((bytes.size() + 3) / 4, 0);
  for (size_t i = 0; i < bytes.size(); ++i) {
    // bytes[i] is the (bytes.size()-1-i)-th least significant byte.
    size_t byte_index = bytes.size() - 1 - i;
    out.limbs_[byte_index / 4] |= static_cast<uint32_t>(bytes[i])
                                  << (8 * (byte_index % 4));
  }
  out.Normalize();
  return out;
}

std::vector<uint8_t> BigInt::ToBytesBigEndian() const {
  size_t bytes = (BitLength() + 7) / 8;
  if (bytes == 0) {
    bytes = 1;
  }
  auto result = ToBytesBigEndian(bytes);
  assert(result.ok());
  return std::move(result).value();
}

Result<std::vector<uint8_t>> BigInt::ToBytesBigEndian(size_t size) const {
  size_t needed = (BitLength() + 7) / 8;
  if (needed > size) {
    return Status::OutOfRange("BigInt does not fit in requested byte width");
  }
  std::vector<uint8_t> out(size, 0);
  for (size_t byte_index = 0; byte_index < needed; ++byte_index) {
    uint32_t limb = limbs_[byte_index / 4];
    out[size - 1 - byte_index] =
        static_cast<uint8_t>(limb >> (8 * (byte_index % 4)));
  }
  return out;
}

int BigInt::BitLength() const {
  if (limbs_.empty()) {
    return 0;
  }
  int bits = static_cast<int>(limbs_.size() - 1) * kLimbBits;
  uint32_t top = limbs_.back();
  while (top != 0) {
    ++bits;
    top >>= 1;
  }
  return bits;
}

bool BigInt::GetBit(int i) const {
  size_t limb = static_cast<size_t>(i) / kLimbBits;
  if (limb >= limbs_.size()) {
    return false;
  }
  return (limbs_[limb] >> (i % kLimbBits)) & 1;
}

int BigInt::Compare(const BigInt& a, const BigInt& b) {
  if (a.limbs_.size() != b.limbs_.size()) {
    return a.limbs_.size() < b.limbs_.size() ? -1 : 1;
  }
  for (size_t i = a.limbs_.size(); i-- > 0;) {
    if (a.limbs_[i] != b.limbs_[i]) {
      return a.limbs_[i] < b.limbs_[i] ? -1 : 1;
    }
  }
  return 0;
}

BigInt BigInt::Add(const BigInt& a, const BigInt& b) {
  BigInt out;
  const size_t n = std::max(a.limbs_.size(), b.limbs_.size());
  out.limbs_.resize(n + 1, 0);
  uint64_t carry = 0;
  for (size_t i = 0; i < n; ++i) {
    uint64_t sum = carry;
    if (i < a.limbs_.size()) sum += a.limbs_[i];
    if (i < b.limbs_.size()) sum += b.limbs_[i];
    out.limbs_[i] = static_cast<uint32_t>(sum);
    carry = sum >> 32;
  }
  out.limbs_[n] = static_cast<uint32_t>(carry);
  out.Normalize();
  return out;
}

BigInt BigInt::Sub(const BigInt& a, const BigInt& b) {
  assert(Compare(a, b) >= 0 && "Sub requires a >= b");
  BigInt out;
  out.limbs_.resize(a.limbs_.size(), 0);
  int64_t borrow = 0;
  for (size_t i = 0; i < a.limbs_.size(); ++i) {
    int64_t diff = static_cast<int64_t>(a.limbs_[i]) - borrow;
    if (i < b.limbs_.size()) diff -= b.limbs_[i];
    if (diff < 0) {
      diff += (int64_t{1} << 32);
      borrow = 1;
    } else {
      borrow = 0;
    }
    out.limbs_[i] = static_cast<uint32_t>(diff);
  }
  out.Normalize();
  return out;
}

BigInt BigInt::Mul(const BigInt& a, const BigInt& b) {
  if (a.IsZero() || b.IsZero()) {
    return BigInt();
  }
  BigInt out;
  out.limbs_.assign(a.limbs_.size() + b.limbs_.size(), 0);
  for (size_t i = 0; i < a.limbs_.size(); ++i) {
    uint64_t carry = 0;
    uint64_t ai = a.limbs_[i];
    for (size_t j = 0; j < b.limbs_.size(); ++j) {
      uint64_t cur = out.limbs_[i + j] + ai * b.limbs_[j] + carry;
      out.limbs_[i + j] = static_cast<uint32_t>(cur);
      carry = cur >> 32;
    }
    out.limbs_[i + b.limbs_.size()] += static_cast<uint32_t>(carry);
  }
  out.Normalize();
  return out;
}

Result<BigIntDivMod> BigInt::DivMod(const BigInt& a, const BigInt& b) {
  if (b.IsZero()) {
    return Status::InvalidArgument("division by zero");
  }
  if (Compare(a, b) < 0) {
    return BigIntDivMod{BigInt(), a};
  }
  if (b.limbs_.size() == 1) {
    // Short division by a single limb.
    BigInt q;
    q.limbs_.resize(a.limbs_.size());
    uint64_t rem = 0;
    uint64_t divisor = b.limbs_[0];
    for (size_t i = a.limbs_.size(); i-- > 0;) {
      uint64_t cur = (rem << 32) | a.limbs_[i];
      q.limbs_[i] = static_cast<uint32_t>(cur / divisor);
      rem = cur % divisor;
    }
    q.Normalize();
    return BigIntDivMod{std::move(q), FromU64(rem)};
  }

  // Knuth TAOCP vol. 2, Algorithm D, base 2^32.
  const int shift = kLimbBits - (b.BitLength() % kLimbBits == 0
                                     ? kLimbBits
                                     : b.BitLength() % kLimbBits);
  BigInt u = a.ShiftLeft(shift);  // normalized dividend
  BigInt v = b.ShiftLeft(shift);  // normalized divisor, top bit of top limb set
  const size_t n = v.limbs_.size();
  const size_t m = u.limbs_.size() >= n ? u.limbs_.size() - n : 0;
  u.limbs_.resize(a.limbs_.size() + 1 + (shift > 0 ? 1 : 0), 0);
  if (u.limbs_.size() < n + m + 1) {
    u.limbs_.resize(n + m + 1, 0);
  }

  BigInt q;
  q.limbs_.assign(m + 1, 0);
  const uint64_t v_top = v.limbs_[n - 1];
  const uint64_t v_second = n >= 2 ? v.limbs_[n - 2] : 0;

  for (size_t j = m + 1; j-- > 0;) {
    // Estimate q_hat = (u[j+n]*B + u[j+n-1]) / v[n-1].
    uint64_t numerator =
        (static_cast<uint64_t>(u.limbs_[j + n]) << 32) | u.limbs_[j + n - 1];
    uint64_t q_hat = numerator / v_top;
    uint64_t r_hat = numerator % v_top;
    if (q_hat > 0xffffffffULL) {
      q_hat = 0xffffffffULL;
      r_hat = numerator - q_hat * v_top;
    }
    while (r_hat <= 0xffffffffULL &&
           q_hat * v_second > ((r_hat << 32) | (j + n >= 2 ? u.limbs_[j + n - 2]
                                                           : 0))) {
      --q_hat;
      r_hat += v_top;
    }

    // Multiply-and-subtract: u[j..j+n] -= q_hat * v.
    int64_t borrow = 0;
    uint64_t carry = 0;
    for (size_t i = 0; i < n; ++i) {
      uint64_t product = q_hat * v.limbs_[i] + carry;
      carry = product >> 32;
      int64_t diff = static_cast<int64_t>(u.limbs_[j + i]) -
                     static_cast<int64_t>(product & 0xffffffffULL) - borrow;
      if (diff < 0) {
        diff += (int64_t{1} << 32);
        borrow = 1;
      } else {
        borrow = 0;
      }
      u.limbs_[j + i] = static_cast<uint32_t>(diff);
    }
    int64_t top_diff = static_cast<int64_t>(u.limbs_[j + n]) -
                       static_cast<int64_t>(carry) - borrow;
    bool negative = top_diff < 0;
    u.limbs_[j + n] = static_cast<uint32_t>(top_diff);

    if (negative) {
      // q_hat was one too large (rare); add the divisor back.
      --q_hat;
      uint64_t add_carry = 0;
      for (size_t i = 0; i < n; ++i) {
        uint64_t sum = static_cast<uint64_t>(u.limbs_[j + i]) + v.limbs_[i] +
                       add_carry;
        u.limbs_[j + i] = static_cast<uint32_t>(sum);
        add_carry = sum >> 32;
      }
      u.limbs_[j + n] =
          static_cast<uint32_t>(u.limbs_[j + n] + add_carry);
    }
    q.limbs_[j] = static_cast<uint32_t>(q_hat);
  }

  q.Normalize();
  u.limbs_.resize(n);
  u.Normalize();
  BigInt r = u.ShiftRight(shift);
  return BigIntDivMod{std::move(q), std::move(r)};
}

Result<BigInt> BigInt::Mod(const BigInt& a, const BigInt& m) {
  SPAUTH_ASSIGN_OR_RETURN(BigIntDivMod dm, DivMod(a, m));
  return dm.remainder;
}

Result<BigInt> BigInt::ModMul(const BigInt& a, const BigInt& b,
                              const BigInt& m) {
  return Mod(Mul(a, b), m);
}

Result<BigInt> BigInt::ModPow(const BigInt& base, const BigInt& exp,
                              const BigInt& m) {
  if (m.IsZero()) {
    return Status::InvalidArgument("modulus must be non-zero");
  }
  if (m == FromU64(1)) {
    return BigInt();
  }
  if (exp.IsZero()) {
    return FromU64(1);
  }
  BigInt a = base;
  if (!(base < m)) {
    SPAUTH_ASSIGN_OR_RETURN(a, Mod(base, m));
  }
  if (!m.IsOdd()) {
    // Montgomery reduction needs an odd modulus: right-to-left square and
    // multiply with a full division per step.
    BigInt acc = a;
    BigInt result = FromU64(1);
    const int bits = exp.BitLength();
    for (int i = 0; i < bits; ++i) {
      if (exp.GetBit(i)) {
        SPAUTH_ASSIGN_OR_RETURN(result, ModMul(result, acc, m));
      }
      if (i + 1 < bits) {
        SPAUTH_ASSIGN_OR_RETURN(acc, ModMul(acc, acc, m));
      }
    }
    return result;
  }

  // Fixed-window exponentiation in the Montgomery domain. Every operand is
  // an n-word array below m; table[k] holds a^k * R mod m.
  const size_t n = (m.limbs_.size() + 1) / 2;
  Montgomery mont(ToWords(m.limbs_, n));
  SPAUTH_ASSIGN_OR_RETURN(
      BigInt r2, Mod(FromU64(1).ShiftLeft(128 * static_cast<int>(n)), m));
  const int bits = exp.BitLength();
  const int w = WindowBits(bits);
  std::vector<uint64_t> table((size_t{1} << w) * n);
  const auto entry = [&](size_t k) { return table.data() + k * n; };
  mont.Mul(ToWords(a.limbs_, n).data(), ToWords(r2.limbs_, n).data(),
           entry(1));
  for (size_t k = 2; k < (size_t{1} << w); ++k) {
    mont.Mul(entry(k - 1), entry(1), entry(k));
  }
  const int top = (bits - 1) / w * w;
  const uint64_t* first = entry(ExponentWindow(exp, top, w));
  std::vector<uint64_t> acc(first, first + n);
  for (int lo = top - w; lo >= 0; lo -= w) {
    for (int i = 0; i < w; ++i) {
      mont.Mul(acc.data(), acc.data(), acc.data());
    }
    if (const uint32_t window = ExponentWindow(exp, lo, w); window != 0) {
      mont.Mul(acc.data(), entry(window), acc.data());
    }
  }
  // Leave the Montgomery domain: acc * 1 * R^-1.
  std::vector<uint64_t> one(n, 0);
  one[0] = 1;
  mont.Mul(acc.data(), one.data(), acc.data());
  BigInt result;
  result.limbs_.resize(2 * n);
  for (size_t i = 0; i < result.limbs_.size(); ++i) {
    result.limbs_[i] = static_cast<uint32_t>(acc[i / 2] >> (32 * (i % 2)));
  }
  result.Normalize();
  return result;
}

BigInt BigInt::Gcd(BigInt a, BigInt b) {
  while (!b.IsZero()) {
    auto dm = DivMod(a, b);
    assert(dm.ok());
    a = std::move(b);
    b = std::move(dm.value().remainder);
  }
  return a;
}

Result<BigInt> BigInt::ModInverse(const BigInt& a, const BigInt& m) {
  // Extended Euclid, tracking coefficients as (sign, magnitude) pairs since
  // BigInt is unsigned.
  BigInt old_r = a, r = m;
  BigInt old_s = FromU64(1), s;
  bool old_s_neg = false, s_neg = false;
  while (!r.IsZero()) {
    SPAUTH_ASSIGN_OR_RETURN(BigIntDivMod dm, DivMod(old_r, r));
    BigInt q = dm.quotient;
    BigInt new_r = dm.remainder;
    old_r = std::move(r);
    r = std::move(new_r);

    // new_s = old_s - q * s
    BigInt qs = Mul(q, s);
    BigInt new_s;
    bool new_s_neg;
    if (old_s_neg == s_neg) {
      if (Compare(old_s, qs) >= 0) {
        new_s = Sub(old_s, qs);
        new_s_neg = old_s_neg;
      } else {
        new_s = Sub(qs, old_s);
        new_s_neg = !old_s_neg;
      }
    } else {
      new_s = Add(old_s, qs);
      new_s_neg = old_s_neg;
    }
    old_s = std::move(s);
    old_s_neg = s_neg;
    s = std::move(new_s);
    s_neg = new_s_neg;
  }
  if (!(old_r == FromU64(1))) {
    return Status::InvalidArgument("values are not coprime; no inverse");
  }
  if (old_s_neg) {
    SPAUTH_ASSIGN_OR_RETURN(BigInt reduced, Mod(old_s, m));
    if (reduced.IsZero()) {
      return reduced;
    }
    return Sub(m, reduced);
  }
  return Mod(old_s, m);
}

BigInt BigInt::ShiftLeft(int bits) const {
  if (IsZero() || bits == 0) {
    return *this;
  }
  const int limb_shift = bits / kLimbBits;
  const int bit_shift = bits % kLimbBits;
  BigInt out;
  out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (size_t i = 0; i < limbs_.size(); ++i) {
    uint64_t v = static_cast<uint64_t>(limbs_[i]) << bit_shift;
    out.limbs_[i + limb_shift] |= static_cast<uint32_t>(v);
    out.limbs_[i + limb_shift + 1] |= static_cast<uint32_t>(v >> 32);
  }
  out.Normalize();
  return out;
}

BigInt BigInt::ShiftRight(int bits) const {
  if (IsZero() || bits == 0) {
    return *this;
  }
  const size_t limb_shift = static_cast<size_t>(bits) / kLimbBits;
  const int bit_shift = bits % kLimbBits;
  if (limb_shift >= limbs_.size()) {
    return BigInt();
  }
  BigInt out;
  out.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (size_t i = 0; i < out.limbs_.size(); ++i) {
    uint64_t v = limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift > 0 && i + limb_shift + 1 < limbs_.size()) {
      v |= static_cast<uint64_t>(limbs_[i + limb_shift + 1])
           << (kLimbBits - bit_shift);
    }
    out.limbs_[i] = static_cast<uint32_t>(v);
  }
  out.Normalize();
  return out;
}

BigInt BigInt::RandomBelow(const BigInt& bound, Rng* rng) {
  assert(!bound.IsZero());
  const int bits = bound.BitLength();
  const size_t bytes = (static_cast<size_t>(bits) + 7) / 8;
  std::vector<uint8_t> buf(bytes);
  for (;;) {
    rng->FillBytes(buf.data(), buf.size());
    // Mask excess high bits so the rejection rate stays below 50%.
    int excess = static_cast<int>(bytes * 8) - bits;
    buf[0] &= static_cast<uint8_t>(0xff >> excess);
    BigInt candidate = FromBytesBigEndian(buf);
    if (Compare(candidate, bound) < 0) {
      return candidate;
    }
  }
}

BigInt BigInt::RandomWithBits(int bits, Rng* rng) {
  assert(bits > 0);
  const size_t bytes = (static_cast<size_t>(bits) + 7) / 8;
  std::vector<uint8_t> buf(bytes);
  rng->FillBytes(buf.data(), buf.size());
  int excess = static_cast<int>(bytes * 8) - bits;
  buf[0] &= static_cast<uint8_t>(0xff >> excess);
  buf[0] |= static_cast<uint8_t>(0x80 >> excess);  // force the top bit
  return FromBytesBigEndian(buf);
}

bool BigInt::IsProbablePrime(const BigInt& n, int rounds, Rng* rng) {
  if (n.BitLength() <= 6) {
    uint64_t v = n.LowU64();
    if (v < 2) return false;
    for (uint64_t d = 2; d * d <= v; ++d) {
      if (v % d == 0) return false;
    }
    return true;
  }
  if (!n.IsOdd()) {
    return false;
  }
  for (uint32_t p : kSmallPrimes) {
    auto dm = DivMod(n, FromU64(p));
    assert(dm.ok());
    if (dm.value().remainder.IsZero()) {
      return n == FromU64(p);
    }
  }

  // Write n-1 = d * 2^s with d odd.
  const BigInt one = FromU64(1);
  const BigInt n_minus_1 = Sub(n, one);
  BigInt d = n_minus_1;
  int s = 0;
  while (!d.IsOdd()) {
    d = d.ShiftRight(1);
    ++s;
  }

  const BigInt two = FromU64(2);
  const BigInt n_minus_3 = Sub(n, FromU64(3));
  for (int round = 0; round < rounds; ++round) {
    BigInt a = Add(RandomBelow(n_minus_3, rng), two);  // a in [2, n-2]
    auto x_result = ModPow(a, d, n);
    assert(x_result.ok());
    BigInt x = std::move(x_result).value();
    if (x == one || x == n_minus_1) {
      continue;
    }
    bool composite = true;
    for (int i = 0; i < s - 1; ++i) {
      auto sq = ModMul(x, x, n);
      assert(sq.ok());
      x = std::move(sq).value();
      if (x == n_minus_1) {
        composite = false;
        break;
      }
    }
    if (composite) {
      return false;
    }
  }
  return true;
}

Result<BigInt> BigInt::GeneratePrime(int bits, Rng* rng) {
  return GeneratePrime(bits, rng, 64 * bits);
}

Result<BigInt> BigInt::GeneratePrime(int bits, Rng* rng, int max_candidates) {
  assert(bits >= 8);
  for (int tried = 0; tried < max_candidates; ++tried) {
    BigInt candidate = RandomWithBits(bits, rng);
    if (!candidate.IsOdd()) {
      candidate = Add(candidate, FromU64(1));
    }
    if (IsProbablePrime(candidate, /*rounds=*/24, rng)) {
      return candidate;
    }
  }
  return Status::Internal("no probable prime within the candidate bound");
}

std::string BigInt::ToHexString() const {
  if (IsZero()) {
    return "0";
  }
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (size_t i = limbs_.size(); i-- > 0;) {
    for (int nibble = 7; nibble >= 0; --nibble) {
      out.push_back(kDigits[(limbs_[i] >> (4 * nibble)) & 0xf]);
    }
  }
  size_t first = out.find_first_not_of('0');
  return out.substr(first);
}

Result<BigInt> BigInt::FromHexString(std::string_view hex) {
  BigInt out;
  if (hex.empty()) {
    return Status::InvalidArgument("empty hex string");
  }
  for (char c : hex) {
    int v;
    if (c >= '0' && c <= '9') {
      v = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      v = c - 'a' + 10;
    } else if (c >= 'A' && c <= 'F') {
      v = c - 'A' + 10;
    } else {
      return Status::InvalidArgument("invalid hex digit");
    }
    out = Add(out.ShiftLeft(4), FromU64(static_cast<uint64_t>(v)));
  }
  return out;
}

}  // namespace spauth
