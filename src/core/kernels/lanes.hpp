// Lane policies: the one place that fixes precision and vector width.
//
// A gate body (kernels/gates.hpp) is written once on lane values V and
// instantiated per policy: ScalarLane (W=1), Avx2Lane (W=4) and
// Avx512Lane (W=8). Bodies use the built-in arithmetic operators, which
// every V supports; the value ops here (load/store/splat/...) serve the
// strategies' loads and the batched engine's own arithmetic, the
// mask/blend ops its divergent measure/reset, and the index ops plus
// gather/scatter the solo SIMD strategy, which carries W consecutive
// work items per vector and addresses their amplitudes through the
// Eq. (1)/(2) maps computed lane-wise — the paper's Listing 2
// construction.
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
  using I = IdxType;
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
  /// Index lanes: work items i, i+1, ..., i+W-1 and the amplitude
  /// indices the index maps derive from them. The vector policies shift
  /// by a splatted per-lane count: on x86 that form is one uop, the
  /// shift-by-xmm-count form two.
  static I iota(IdxType i) { return i; }
  static I splat_i(IdxType x) { return x; }
  static I add_i(I a, I b) { return a + b; }
  static I and_i(I a, I b) { return a & b; }
  static I or_i(I a, I b) { return a | b; }
  static I shr_i(I a, IdxType s) { return a >> s; }
  static I shl_i(I a, IdxType s) { return a << s; }
};

#if defined(__AVX2__) && !defined(SVSIM_FORCE_SCALAR)
struct Avx2Lane {
  static constexpr IdxType W = 4;
  static constexpr SimdLevel kLevel = SimdLevel::kAvx2;
  using V = __m256d;
  using M = __m256d; // sign bit per member drives blendv
  using I = __m256i;
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
  static I iota(IdxType i) {
    return _mm256_add_epi64(_mm256_set1_epi64x(i),
                            _mm256_setr_epi64x(0, 1, 2, 3));
  }
  static I splat_i(IdxType x) { return _mm256_set1_epi64x(x); }
  static I add_i(I a, I b) { return _mm256_add_epi64(a, b); }
  static I and_i(I a, I b) { return _mm256_and_si256(a, b); }
  static I or_i(I a, I b) { return _mm256_or_si256(a, b); }
  static I shr_i(I a, IdxType s) {
    return _mm256_srlv_epi64(a, _mm256_set1_epi64x(s));
  }
  static I shl_i(I a, IdxType s) {
    return _mm256_sllv_epi64(a, _mm256_set1_epi64x(s));
  }
  static V gather(const ValType* p, I i) {
    return _mm256_i64gather_pd(p, i, 8);
  }
  /// AVX2 has gathers but no scatters: store through a lane buffer.
  static void scatter(ValType* p, I i, V v) {
    alignas(32) long long idx[4];
    alignas(32) ValType val[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(idx), i);
    _mm256_store_pd(val, v);
    for (int l = 0; l < 4; ++l) p[idx[l]] = val[l];
  }
};
#endif

#if defined(__AVX512F__) && !defined(SVSIM_FORCE_SCALAR)
struct Avx512Lane {
  static constexpr IdxType W = 8;
  static constexpr SimdLevel kLevel = SimdLevel::kAvx512;
  using V = __m512d;
  using M = __mmask8;
  using I = __m512i;
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
  static I iota(IdxType i) {
    return _mm512_add_epi64(_mm512_set1_epi64(i),
                            _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7));
  }
  static I splat_i(IdxType x) { return _mm512_set1_epi64(x); }
  static I add_i(I a, I b) { return _mm512_add_epi64(a, b); }
  static I and_i(I a, I b) { return _mm512_and_si512(a, b); }
  static I or_i(I a, I b) { return _mm512_or_si512(a, b); }
  static I shr_i(I a, IdxType s) {
    return _mm512_srlv_epi64(a, _mm512_set1_epi64(s));
  }
  static I shl_i(I a, IdxType s) {
    return _mm512_sllv_epi64(a, _mm512_set1_epi64(s));
  }
  static V gather(const ValType* p, I i) {
    return _mm512_i64gather_pd(i, p, 8);
  }
  static void scatter(ValType* p, I i, V v) {
    _mm512_i64scatter_pd(p, i, v, 8);
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
