// AVX2 KernelSet. Compiled with -mavx2 -mpopcnt (CMake sets per-file
// flags); only ever *executed* after runtime dispatch confirms the CPU
// supports both, so the rest of the library keeps its baseline ISA.
//
// Bit-identity notes:
//  * u64 -> double uses the split high/low magic-constant form: both
//    roundings are exact except the final add, so the result is the
//    correctly-rounded value — identical to a scalar static_cast for the
//    full 64-bit range.
//  * score kernels use separate mul/sub intrinsics (never FMA), matching
//    the scalar reference compiled with -ffp-contract=off.
//  * sample_u32 computes sixteen Philox blocks per refill as two
//    interleaved 8-block groups, stages them in stream order with an
//    unpack/permute transpose, and maps eight staged values per step,
//    committing the draws before the first Lemire rejection and skipping
//    the rejected value, as the scalar stepper does; the last few draws
//    go through that stepper over the same staged values. The consumed
//    32-bit sequence is identical.
#include "kernels/kernel_set.hpp"

#if defined(__x86_64__) && defined(__AVX2__) && defined(__POPCNT__)

#include <immintrin.h>

#include <cstring>

#include "kernels/kernels_common.hpp"

namespace pooled {

namespace {

using std::size_t;
using std::uint32_t;
using std::uint64_t;

// -- exact integer -> double conversion -------------------------------------

/// Exact u64 -> f64 for all inputs (Mysticial's construction): the high
/// 32 bits ride in a 2^84-scaled double, the low 32 bits in a 2^52-scaled
/// one; the subtraction is exact and the single final add rounds once.
inline __m256d u64_to_f64(__m256i v) {
  const __m256d exp84 = _mm256_set1_pd(19342813113834066795298816.0);  // 2^84
  const __m256d exp52 = _mm256_set1_pd(4503599627370496.0);            // 2^52
  const __m256d exp84_52 = _mm256_set1_pd(19342813118337666422669312.0);
  __m256i hi = _mm256_srli_epi64(v, 32);
  hi = _mm256_or_si256(hi, _mm256_castpd_si256(exp84));
  __m256i lo = _mm256_blend_epi32(v, _mm256_castpd_si256(exp52), 0b10101010);
  const __m256d f = _mm256_sub_pd(_mm256_castsi256_pd(hi), exp84_52);
  return _mm256_add_pd(f, _mm256_castsi256_pd(lo));
}

/// Exact u32 -> f64 (values fit the 2^52 mantissa window directly).
inline __m256d u32_to_f64(__m128i v) {
  const __m256d exp52 = _mm256_set1_pd(4503599627370496.0);  // 2^52
  __m256i wide = _mm256_cvtepu32_epi64(v);
  wide = _mm256_or_si256(wide, _mm256_castpd_si256(exp52));
  return _mm256_sub_pd(_mm256_castsi256_pd(wide), exp52);
}

// -- scores -----------------------------------------------------------------

void avx2_score_centered(const uint64_t* psi, const uint32_t* delta_star,
                         size_t lo, size_t hi, double center, double* out) {
  const __m256d center_v = _mm256_set1_pd(center);
  size_t i = lo;
  for (; i + 4 <= hi; i += 4) {
    const __m256d p =
        u64_to_f64(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(psi + i)));
    const __m256d d = u32_to_f64(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(delta_star + i)));
    _mm256_storeu_pd(out + i, _mm256_sub_pd(p, _mm256_mul_pd(d, center_v)));
  }
  kernels::scalar_score_centered(psi, delta_star, i, hi, center, out);
}

void avx2_score_raw(const uint64_t* psi, size_t lo, size_t hi, double* out) {
  size_t i = lo;
  for (; i + 4 <= hi; i += 4) {
    _mm256_storeu_pd(out + i, u64_to_f64(_mm256_loadu_si256(
                                  reinterpret_cast<const __m256i*>(psi + i))));
  }
  kernels::scalar_score_raw(psi, i, hi, out);
}

void avx2_score_normalized(const uint64_t* psi, const uint32_t* delta_star,
                           size_t lo, size_t hi, double* out) {
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d zero = _mm256_setzero_pd();
  size_t i = lo;
  for (; i + 4 <= hi; i += 4) {
    const __m256d p =
        u64_to_f64(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(psi + i)));
    const __m256d d = u32_to_f64(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(delta_star + i)));
    const __m256d is_zero = _mm256_cmp_pd(d, zero, _CMP_EQ_OQ);
    // Divide by 1 in the zero lanes (avoids spurious FP flags), then mask.
    const __m256d safe = _mm256_blendv_pd(d, one, is_zero);
    const __m256d q = _mm256_div_pd(p, safe);
    _mm256_storeu_pd(out + i, _mm256_andnot_pd(is_zero, q));
  }
  kernels::scalar_score_normalized(psi, delta_star, i, hi, out);
}

void avx2_score_multiedge(const uint64_t* psi_multi, const uint64_t* delta,
                          size_t lo, size_t hi, double center, double* out) {
  const __m256d center_v = _mm256_set1_pd(center);
  size_t i = lo;
  for (; i + 4 <= hi; i += 4) {
    const __m256d p = u64_to_f64(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(psi_multi + i)));
    const __m256d d = u64_to_f64(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(delta + i)));
    _mm256_storeu_pd(out + i, _mm256_sub_pd(p, _mm256_mul_pd(d, center_v)));
  }
  kernels::scalar_score_multiedge(psi_multi, delta, i, hi, center, out);
}

// -- Philox sampling --------------------------------------------------------

/// 32x32 -> 64 mulhi/mullo on all eight u32 lanes.
inline void mulhilo8(__m256i m, __m256i v, __m256i& hi, __m256i& lo) {
  const __m256i pe = _mm256_mul_epu32(v, m);  // products of lanes 0,2,4,6
  const __m256i po = _mm256_mul_epu32(_mm256_srli_epi64(v, 32), m);
  hi = _mm256_blend_epi32(_mm256_srli_epi64(pe, 32), po, 0b10101010);
  lo = _mm256_blend_epi32(pe, _mm256_slli_epi64(po, 32), 0b10101010);
}

/// One Philox4x32-10 round on eight blocks (one per lane of c0..c3).
inline void philox_round8(__m256i m0, __m256i m1, __m256i k0, __m256i k1,
                          __m256i& c0, __m256i& c1, __m256i& c2, __m256i& c3) {
  __m256i hi0, lo0, hi1, lo1;
  mulhilo8(m0, c0, hi0, lo0);
  mulhilo8(m1, c2, hi1, lo1);
  c0 = _mm256_xor_si256(_mm256_xor_si256(hi1, c1), k0);
  c1 = lo1;
  c2 = _mm256_xor_si256(_mm256_xor_si256(hi0, c3), k1);
  c3 = lo0;
}

/// Transposes eight blocks held word-per-register (lane b of c_w is word
/// w of block b) into the stream's consumption order, block-major and
/// word-minor, with four aligned 32-byte stores.
inline void stage_blocks8(__m256i c0, __m256i c1, __m256i c2, __m256i c3,
                          uint32_t* out) {
  // Per 128-bit half: interleave words 0/1 and 2/3, then pair the 64-bit
  // halves so u_b holds whole blocks b (low half) and b+4 (high half).
  const __m256i t0 = _mm256_unpacklo_epi32(c0, c1);
  const __m256i t1 = _mm256_unpackhi_epi32(c0, c1);
  const __m256i t2 = _mm256_unpacklo_epi32(c2, c3);
  const __m256i t3 = _mm256_unpackhi_epi32(c2, c3);
  const __m256i u0 = _mm256_unpacklo_epi64(t0, t2);  // blocks 0 | 4
  const __m256i u1 = _mm256_unpackhi_epi64(t0, t2);  // blocks 1 | 5
  const __m256i u2 = _mm256_unpacklo_epi64(t1, t3);  // blocks 2 | 6
  const __m256i u3 = _mm256_unpackhi_epi64(t1, t3);  // blocks 3 | 7
  auto* dst = reinterpret_cast<__m256i*>(out);
  _mm256_store_si256(dst + 0, _mm256_permute2x128_si256(u0, u1, 0x20));
  _mm256_store_si256(dst + 1, _mm256_permute2x128_si256(u2, u3, 0x20));
  _mm256_store_si256(dst + 2, _mm256_permute2x128_si256(u0, u1, 0x31));
  _mm256_store_si256(dst + 3, _mm256_permute2x128_si256(u2, u3, 0x31));
}

/// Sixteen Philox4x32-10 blocks per refill, computed as two independent
/// eight-block groups whose rounds are interleaved: a round's multiplies
/// wait on the previous round of the same group only, so the second
/// group fills the first one's multiply latency. Outputs are staged in
/// the scalar stream's 32-bit consumption order.
struct PhiloxStage16 {
  static constexpr size_t kValues = 64;  // 16 blocks x 4 words
  static constexpr int kRounds = 10;

  PhiloxStage16(uint32_t key0, uint32_t key1, uint64_t s) : stream(s) {
    // The key schedule is the same for every refill: broadcast it once.
    for (int round = 0; round < kRounds; ++round) {
      round_keys[2 * round] = _mm256_set1_epi32(static_cast<int>(key0));
      round_keys[2 * round + 1] = _mm256_set1_epi32(static_cast<int>(key1));
      key0 += 0x9E3779B9u;
      key1 += 0xBB67AE85u;
    }
  }

  __m256i round_keys[2 * kRounds];
  uint64_t stream;
  uint64_t next_block = 0;
  alignas(32) uint32_t vals[kValues] = {};
  size_t pos = kValues;  // consumed entries

  void refill() {
    const __m256i m0 = _mm256_set1_epi32(static_cast<int>(0xD2511F53u));
    const __m256i m1 = _mm256_set1_epi32(static_cast<int>(0xCD9E8D57u));
    const __m256i base =
        _mm256_set1_epi32(static_cast<int>(static_cast<uint32_t>(next_block)));
    // Group a holds blocks next_block+0..7, group b next_block+8..15.
    __m256i a0 = _mm256_add_epi32(base, _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    __m256i b0 =
        _mm256_add_epi32(base, _mm256_setr_epi32(8, 9, 10, 11, 12, 13, 14, 15));
    __m256i a1 = _mm256_setzero_si256();  // caller guarantees block < 2^32
    __m256i b1 = a1;
    __m256i a2 = _mm256_set1_epi32(static_cast<int>(static_cast<uint32_t>(stream)));
    __m256i b2 = a2;
    __m256i a3 =
        _mm256_set1_epi32(static_cast<int>(static_cast<uint32_t>(stream >> 32)));
    __m256i b3 = a3;
    for (int round = 0; round < kRounds; ++round) {
      const __m256i k0 = round_keys[2 * round];
      const __m256i k1 = round_keys[2 * round + 1];
      philox_round8(m0, m1, k0, k1, a0, a1, a2, a3);
      philox_round8(m0, m1, k0, k1, b0, b1, b2, b3);
    }
    stage_blocks8(a0, a1, a2, a3, vals);
    stage_blocks8(b0, b1, b2, b3, vals + 32);
    pos = 0;
    next_block += 16;
  }

  uint32_t next() {
    if (pos == kValues) refill();
    return vals[pos++];
  }
};

void avx2_sample_u32(uint32_t key0, uint32_t key1, uint64_t stream, uint32_t n,
                     uint32_t threshold, size_t count, uint32_t* out) {
  if (count > (size_t{1} << 33)) {
    // Keeps the 32-bit block counters of the vector path valid; a pool
    // this large never occurs (gamma <= n <= 2^32).
    kernels::scalar_sample_u32(key0, key1, stream, n, threshold, count, out);
    return;
  }
  PhiloxStage16 stage{key0, key1, stream};
  const __m256i n_v = _mm256_set1_epi32(static_cast<int>(n));
  const __m256i bias = _mm256_set1_epi32(static_cast<int>(0x80000000u));
  const __m256i threshold_b =
      _mm256_xor_si256(_mm256_set1_epi32(static_cast<int>(threshold)), bias);
  size_t produced = 0;
  while (produced < count) {
    if (stage.pos == PhiloxStage16::kValues) stage.refill();
    if (stage.pos + 8 <= PhiloxStage16::kValues && produced + 8 <= count) {
      // Eight candidates at once. The lanes before the first rejected one
      // are accepted draws; the rejected value is consumed, exactly as the
      // sequential stepper skips it, and the next attempt starts after it.
      // loadu: a rejection leaves pos unaligned until the next refill.
      const __m256i x = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(stage.vals + stage.pos));
      __m256i hi, lo;
      mulhilo8(n_v, x, hi, lo);
      const __m256i reject = _mm256_cmpgt_epi32(
          threshold_b, _mm256_xor_si256(lo, bias));  // lo <u threshold
      const auto rejected = static_cast<unsigned>(
          _mm256_movemask_ps(_mm256_castsi256_ps(reject)));
      // All eight lanes are stored; those past the first rejection are
      // overwritten by later draws (produced + 8 <= count keeps it in bounds).
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + produced), hi);
      if (rejected == 0) {
        stage.pos += 8;
        produced += 8;
      } else {
        const auto accepted = static_cast<size_t>(__builtin_ctz(rejected));
        stage.pos += accepted + 1;
        produced += accepted;
      }
      continue;
    }
    // Tail path (the last < 8 draws, or a refill's last < 8 values after a
    // rejection): one draw via the sequential stepper over the staged
    // values, so the ordering is preserved exactly.
    uint64_t m = static_cast<uint64_t>(stage.next()) * n;
    while (static_cast<uint32_t>(m) < threshold) {
      m = static_cast<uint64_t>(stage.next()) * n;
    }
    out[produced++] = static_cast<uint32_t>(m >> 32);
  }
}

// -- bit-packed pool words --------------------------------------------------

void avx2_or_words(uint64_t* dst, const uint64_t* src, size_t words) {
  size_t w = 0;
  for (; w + 4 <= words; w += 4) {
    const __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + w));
    const __m256i b = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + w));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + w),
                        _mm256_or_si256(a, b));
  }
  kernels::scalar_or_words(dst + w, src + w, words - w);
}

/// Per-byte popcount via the nibble LUT, horizontally summed with SAD.
inline __m256i popcount_bytes(__m256i v) {
  const __m256i lut = _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3,
                                       3, 4, 0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3,
                                       2, 3, 3, 4);
  const __m256i nibble = _mm256_set1_epi8(0x0F);
  const __m256i lo = _mm256_and_si256(v, nibble);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), nibble);
  return _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                         _mm256_shuffle_epi8(lut, hi));
}

inline uint64_t hsum_epi64(__m256i v) {
  const __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  const __m128i sum = _mm_add_epi64(lo, hi);
  return static_cast<uint64_t>(_mm_cvtsi128_si64(sum)) +
         static_cast<uint64_t>(_mm_extract_epi64(sum, 1));
}

template <typename Combine>
inline uint64_t popcount_combined(const uint64_t* a, const uint64_t* b,
                                  size_t words, Combine&& combine,
                                  uint64_t (*scalar_tail)(const uint64_t*,
                                                          const uint64_t*, size_t)) {
  __m256i acc = _mm256_setzero_si256();
  const __m256i zero = _mm256_setzero_si256();
  size_t w = 0;
  for (; w + 4 <= words; w += 4) {
    const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + w));
    const __m256i vb = b == nullptr
                           ? _mm256_setzero_si256()
                           : _mm256_loadu_si256(
                                 reinterpret_cast<const __m256i*>(b + w));
    acc = _mm256_add_epi64(acc, _mm256_sad_epu8(popcount_bytes(combine(va, vb)),
                                                zero));
  }
  uint64_t total = hsum_epi64(acc);
  total += scalar_tail(a + w, b == nullptr ? nullptr : b + w, words - w);
  return total;
}

uint64_t avx2_popcount_words(const uint64_t* a, size_t words) {
  return popcount_combined(
      a, nullptr, words, [](__m256i va, __m256i) { return va; },
      [](const uint64_t* ta, const uint64_t*, size_t tw) {
        return kernels::scalar_popcount_words(ta, tw);
      });
}

uint64_t avx2_andnot_popcount(const uint64_t* a, const uint64_t* mask,
                              size_t words) {
  return popcount_combined(
      a, mask, words,
      [](__m256i va, __m256i vm) { return _mm256_andnot_si256(vm, va); },
      kernels::scalar_andnot_popcount);
}

uint64_t avx2_and_popcount(const uint64_t* a, const uint64_t* b, size_t words) {
  return popcount_combined(
      a, b, words, [](__m256i va, __m256i vb) { return _mm256_and_si256(va, vb); },
      kernels::scalar_and_popcount);
}

// -- top-k scans ------------------------------------------------------------

size_t avx2_count_greater(const double* scores, size_t n, double pivot) {
  const __m256d pivot_v = _mm256_set1_pd(pivot);
  size_t count = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d x = _mm256_loadu_pd(scores + i);
    const int mask = _mm256_movemask_pd(_mm256_cmp_pd(x, pivot_v, _CMP_GT_OQ));
    count += static_cast<size_t>(__builtin_popcount(static_cast<unsigned>(mask)));
  }
  count += kernels::scalar_count_greater(scores + i, n - i, pivot);
  return count;
}

void avx2_topk_fill(const double* scores, size_t n, double pivot, size_t ties,
                    uint32_t* out, size_t k) {
  const __m256d pivot_v = _mm256_set1_pd(pivot);
  size_t taken = 0;
  size_t ties_taken = 0;
  size_t i = 0;
  for (; i + 4 <= n && taken < k; i += 4) {
    const __m256d x = _mm256_loadu_pd(scores + i);
    const int gt = _mm256_movemask_pd(_mm256_cmp_pd(x, pivot_v, _CMP_GT_OQ));
    const int eq = _mm256_movemask_pd(_mm256_cmp_pd(x, pivot_v, _CMP_EQ_OQ));
    if ((gt | eq) == 0) continue;  // the common skip: k << n
    for (size_t j = 0; j < 4 && taken < k; ++j) {
      if ((gt >> j) & 1) {
        out[taken++] = static_cast<uint32_t>(i + j);
      } else if (((eq >> j) & 1) != 0 && ties_taken < ties) {
        out[taken++] = static_cast<uint32_t>(i + j);
        ++ties_taken;
      }
    }
  }
  // Scalar tail continues with the shared accept logic.
  for (; i < n && taken < k; ++i) {
    const double s = scores[i];
    if (s > pivot) {
      out[taken++] = static_cast<uint32_t>(i);
    } else if (s == pivot && ties_taken < ties) {
      out[taken++] = static_cast<uint32_t>(i);
      ++ties_taken;
    }
  }
}

}  // namespace

const KernelSet* avx2_kernels_impl() {
  static const KernelSet set = {
      KernelIsa::Avx2,
      avx2_score_centered,
      avx2_score_raw,
      avx2_score_normalized,
      avx2_score_multiedge,
      kernels::scalar_accumulate_query,           // gather/scatter: shared scalar
      kernels::scalar_accumulate_query_distinct,  // gather/scatter: shared scalar
      avx2_sample_u32,
      avx2_or_words,
      avx2_popcount_words,
      avx2_andnot_popcount,
      avx2_and_popcount,
      avx2_count_greater,
      avx2_topk_fill,
  };
  return &set;
}

}  // namespace pooled

#else  // !(x86-64 with AVX2+POPCNT flags)

namespace pooled {
const KernelSet* avx2_kernels_impl() { return nullptr; }
}  // namespace pooled

#endif
