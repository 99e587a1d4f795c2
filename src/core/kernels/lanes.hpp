// Lane policies: the one place that fixes precision and vector width.
//
// A gate body (kernels/gates.hpp) is written once on lane values V and
// instantiated per policy: ScalarLane (W=1), Avx2Lane (W=4) and
// Avx512Lane (W=8). Bodies use the built-in arithmetic operators, which
// every V supports; the value ops here (load/store/splat/...) serve the
// strategies' loads and the batched engine's own arithmetic, the
// mask/blend ops its divergent measure/reset, and the lane moves
// (perm/permute/permute2/store_mask, and AVX2's transpose4) the solo SIMD
// strategy, which loads whole W-aligned vectors, moves a pair's or
// quadruple's amplitudes into matching lanes in registers and stores only
// the lanes a gate owns: the paper's Listing 2 builds the same lanes from
// lane-wise index maps and gathers.
#pragma once

#include <cstdint>

#if (defined(__AVX2__) || defined(__AVX512F__)) && !defined(SVSIM_FORCE_SCALAR)
#include <immintrin.h>
#endif

#include "common/config.hpp"
#include "common/types.hpp"

namespace svsim::kernels {

struct ScalarLane {
  static constexpr IdxType W = 1;
  static constexpr SimdLevel kLevel = SimdLevel::kScalar;
  using V = ValType;
  using M = bool;
  static V load(const ValType* p) { return *p; }
  static void store(ValType* p, V v) { *p = v; }
  static V splat(ValType x) { return x; }
  static V zero() { return 0; }
  static V add(V a, V b) { return a + b; }
  static V sub(V a, V b) { return a - b; }
  static V mul(V a, V b) { return a * b; }
  static V neg(V a) { return -a; }
  /// Mask from 0 / ~0 words: one word per member.
  static M mask(const std::uint64_t* w) { return *w != 0; }
  /// b where the mask is set, a elsewhere.
  static V blend(V a, V b, M m) { return m ? b : a; }
};

#if defined(__AVX2__) && !defined(SVSIM_FORCE_SCALAR)
struct Avx2Lane {
  static constexpr IdxType W = 4;
  static constexpr SimdLevel kLevel = SimdLevel::kAvx2;
  using V = __m256d;
  using M = __m256d; // sign bit per member drives blendv
  static V load(const ValType* p) { return _mm256_loadu_pd(p); }
  static void store(ValType* p, V v) { _mm256_storeu_pd(p, v); }
  static V splat(ValType x) { return _mm256_set1_pd(x); }
  static V zero() { return _mm256_setzero_pd(); }
  static V add(V a, V b) { return _mm256_add_pd(a, b); }
  static V sub(V a, V b) { return _mm256_sub_pd(a, b); }
  static V mul(V a, V b) { return _mm256_mul_pd(a, b); }
  static V neg(V a) { return _mm256_xor_pd(a, _mm256_set1_pd(-0.0)); }
  static M mask(const std::uint64_t* w) {
    return _mm256_castsi256_pd(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w)));
  }
  static V blend(V a, V b, M m) { return _mm256_blendv_pd(a, b, m); }
  /// A lane permutation: lane l takes element lanes[l] of a (lanes[l] <
  /// W) or element lanes[l] - W of b. AVX2 has no two-source double
  /// permute, so each source moves through the 32-bit-lane permute and
  /// `hi` picks b's lanes.
  struct Perm {
    __m256i idx; // 32-bit lane pairs (2e, 2e+1), e = lanes[l] mod 4
    M hi;        // lanes[l] >= 4
  };
  static Perm perm(const IdxType* lanes) {
    alignas(32) int idx[8];
    alignas(32) std::uint64_t hi[4];
    for (int l = 0; l < 4; ++l) {
      idx[2 * l] = static_cast<int>(2 * (lanes[l] & 3));
      idx[2 * l + 1] = idx[2 * l] + 1;
      hi[l] = lanes[l] >= 4 ? ~std::uint64_t{0} : 0;
    }
    return {_mm256_load_si256(reinterpret_cast<const __m256i*>(idx)),
            mask(hi)};
  }
  static V permute(V a, const Perm& p) {
    return _mm256_castps_pd(
        _mm256_permutevar8x32_ps(_mm256_castpd_ps(a), p.idx));
  }
  static V permute2(V a, V b, const Perm& p) {
    return blend(permute(a, p), permute(b, p), p.hi);
  }
  /// Store the lanes of v where m is set; leave the others' bytes.
  static void store_mask(ValType* p, V v, M m) {
    _mm256_maskstore_pd(p, _mm256_castpd_si256(m), v);
  }
  /// The 4x4 lane transpose: lane l of v[m] moves to lane m of v[l].
  static void transpose4(V (&v)[4]) {
    const V t0 = _mm256_unpacklo_pd(v[0], v[1]); // v0.0 v1.0 v0.2 v1.2
    const V t1 = _mm256_unpackhi_pd(v[0], v[1]); // v0.1 v1.1 v0.3 v1.3
    const V t2 = _mm256_unpacklo_pd(v[2], v[3]);
    const V t3 = _mm256_unpackhi_pd(v[2], v[3]);
    v[0] = _mm256_permute2f128_pd(t0, t2, 0x20);
    v[1] = _mm256_permute2f128_pd(t1, t3, 0x20);
    v[2] = _mm256_permute2f128_pd(t0, t2, 0x31);
    v[3] = _mm256_permute2f128_pd(t1, t3, 0x31);
  }
  /// Rows O (1 or 2) and 3 of that transpose, half its moves: lane O of
  /// v[m] to lane m of a, lane 3 of v[m] to lane m of b.
  template <int O>
  static void transpose_rows(const V (&v)[4], V& a, V& b) {
    static_assert(O == 1 || O == 2);
    if constexpr (O == 1) {
      const V t0 = _mm256_unpackhi_pd(v[0], v[1]); // v0.1 v1.1 v0.3 v1.3
      const V t1 = _mm256_unpackhi_pd(v[2], v[3]); // v2.1 v3.1 v2.3 v3.3
      a = _mm256_permute2f128_pd(t0, t1, 0x20);
      b = _mm256_permute2f128_pd(t0, t1, 0x31);
    } else {
      // v0.2 v0.3 v2.2 v2.3 and v1.2 v1.3 v3.2 v3.3
      const V t0 = _mm256_permute2f128_pd(v[0], v[2], 0x31);
      const V t1 = _mm256_permute2f128_pd(v[1], v[3], 0x31);
      a = _mm256_unpacklo_pd(t0, t1);
      b = _mm256_unpackhi_pd(t0, t1);
    }
  }
  /// The inverse of transpose_rows<O>: a and b back into lanes O and 3 of
  /// v[m]; v's other lanes keep their values.
  template <int O>
  static void untranspose_rows(V (&v)[4], V a, V b) {
    static_assert(O == 1 || O == 2);
    if constexpr (O == 1) {
      const V t0 = _mm256_permute2f128_pd(a, b, 0x20); // v0.1 v1.1 v0.3 v1.3
      const V t1 = _mm256_permute2f128_pd(a, b, 0x31); // v2.1 v3.1 v2.3 v3.3
      v[0] = _mm256_shuffle_pd(v[0], t0, 0x0);
      v[1] = _mm256_shuffle_pd(v[1], t0, 0xA);
      v[2] = _mm256_shuffle_pd(v[2], t1, 0x0);
      v[3] = _mm256_shuffle_pd(v[3], t1, 0xA);
    } else {
      const V t0 = _mm256_unpacklo_pd(a, b); // v0.2 v0.3 v2.2 v2.3
      const V t1 = _mm256_unpackhi_pd(a, b); // v1.2 v1.3 v3.2 v3.3
      v[0] = _mm256_permute2f128_pd(v[0], t0, 0x20);
      v[1] = _mm256_permute2f128_pd(v[1], t1, 0x20);
      v[2] = _mm256_blend_pd(v[2], t0, 0xC);
      v[3] = _mm256_blend_pd(v[3], t1, 0xC);
    }
  }
};
#endif

#if defined(__AVX512F__) && !defined(SVSIM_FORCE_SCALAR)
struct Avx512Lane {
  static constexpr IdxType W = 8;
  static constexpr SimdLevel kLevel = SimdLevel::kAvx512;
  using V = __m512d;
  using M = __mmask8;
  static V load(const ValType* p) { return _mm512_loadu_pd(p); }
  static void store(ValType* p, V v) { _mm512_storeu_pd(p, v); }
  static V splat(ValType x) { return _mm512_set1_pd(x); }
  static V zero() { return _mm512_setzero_pd(); }
  static V add(V a, V b) { return _mm512_add_pd(a, b); }
  static V sub(V a, V b) { return _mm512_sub_pd(a, b); }
  static V mul(V a, V b) { return _mm512_mul_pd(a, b); }
  static V neg(V a) {
    return _mm512_castsi512_pd(_mm512_xor_si512(
        _mm512_castpd_si512(a),
        _mm512_castpd_si512(_mm512_set1_pd(-0.0))));
  }
  static M mask(const std::uint64_t* w) {
    const __m512i v =
        _mm512_loadu_si512(reinterpret_cast<const void*>(w));
    return _mm512_test_epi64_mask(v, v);
  }
  static V blend(V a, V b, M m) { return _mm512_mask_blend_pd(m, a, b); }
  /// A lane permutation: lane l takes element lanes[l] of a (lanes[l] <
  /// W) or element lanes[l] - W of b.
  using Perm = __m512i;
  static Perm perm(const IdxType* lanes) {
    return _mm512_loadu_si512(reinterpret_cast<const void*>(lanes));
  }
  /// The zero-masking form with every lane kept: the plain form passes
  /// GCC 12 a self-initialized "undefined" merge source that it reports
  /// as -Wmaybe-uninitialized (GCC bug 105593). Both are one vpermpd.
  static V permute(V a, Perm p) {
    return _mm512_maskz_permutexvar_pd(0xFF, p, a);
  }
  static V permute2(V a, V b, Perm p) {
    return _mm512_permutex2var_pd(a, p, b);
  }
  /// Store the lanes of v where m is set; leave the others' bytes.
  static void store_mask(ValType* p, V v, M m) {
    _mm512_mask_storeu_pd(p, m, v);
  }
};
#endif

/// Calls f.template operator()<L>() with the lane policy of `level`.
/// Returns false when this build carries no such policy.
template <class F>
bool with_lane(SimdLevel level, F&& f) {
  switch (level) {
    case SimdLevel::kScalar:
      f.template operator()<ScalarLane>();
      return true;
    case SimdLevel::kAvx2:
#if defined(__AVX2__) && !defined(SVSIM_FORCE_SCALAR)
      f.template operator()<Avx2Lane>();
      return true;
#else
      return false;
#endif
    case SimdLevel::kAvx512:
#if defined(__AVX512F__) && !defined(SVSIM_FORCE_SCALAR)
      f.template operator()<Avx512Lane>();
      return true;
#else
      return false;
#endif
  }
  return false;
}

/// Walk a batch of members: full W-wide chunks through lane policy L,
/// remainder through ScalarLane. `body` is a generic lambda taking the
/// lane policy as its explicit template argument and the member offset.
template <class L, class Body>
inline void for_members(IdxType batch, Body&& body) {
  IdxType b = 0;
  for (; b + L::W <= batch; b += L::W) {
    body.template operator()<L>(b);
  }
  for (; b < batch; ++b) {
    body.template operator()<ScalarLane>(b);
  }
}

} // namespace svsim::kernels
