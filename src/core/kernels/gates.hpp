// Gate kernels as pattern × body (§3.2.1, Listings 2-5).
//
// Every unitary op is one *pattern* — the Eq. (1)/(2) index map plus the
// amplitudes of each pair/quadruple the gate must touch — times one
// *body*, the gate's arithmetic written once on lane values. The
// specialization of the paper lives in the pattern: T, S, Z and the phase
// gates touch only the |1> half (Listings 2/3), CZ and CU1 only |11>,
// controlled gates only the control-set half, SWAP only (|01>, |10>), RZZ
// only the middle pair of singles. The bodies are shared by every
// execution strategy, which differ only in the loop that feeds them:
//
//   * solo scalar — one work item at a time through any Space's
//     get_/set_real/imag (single device, peer pointer array, SHMEM
//     one-sided get/put: Listings 3-5), so every tier routes and counts
//     the same element accesses;
//   * solo SIMD  — W consecutive work items per vector. When the lowest
//     operand qubit is at least log2 W and the range starts W-aligned, a
//     vector's W lanes address W consecutive amplitudes per site, which
//     move by one plain vector load and store; below log2 W the lanes
//     gather and scatter through the lane-wise index maps (Listing 2).
//     The ragged tail goes through the solo scalar loop;
//   * batched    — lanes across batch members (kernels/batched.hpp).
//
// A body's coefficients (cos/sin pairs, dense 2×2 entries) are filled
// once per uploaded gate by fill_coef: stride 1 for a solo gate, stride B
// for a batched gate's member columns.
#pragma once

#include <array>
#include <cmath>
#include <type_traits>

#include "common/bits.hpp"
#include "common/types.hpp"
#include "core/kernels/lanes.hpp"
#include "ir/gate.hpp"

namespace svsim::kernels {

/// An uploaded gate: the frontend gate plus its coefficient rows. Row r of
/// column b lives at coef[r*stride + b] — stride 1 for a solo gate, one
/// column per member (stride B) for a batched gate, so a lane chunk of
/// members loads each row contiguously.
struct UGate {
  Gate g;
  const ValType* coef = nullptr;
  IdxType stride = 1;
};

// ---------------------------------------------------------------------------
// Bodies. Pair bodies map (a0, a1) and single bodies map one amplitude a,
// each split into real/imag lanes; c holds the body's kRows coefficient
// rows already loaded into lanes, and kFlops counts the real adds, subs,
// muls and negations of one application. The arithmetic is written with the
// built-in operators, which GCC and Clang define on the vector lane types
// as well: every lane then evaluates the reference scalar expression in
// the same order, and the compiler's FMA contraction fuses the same
// products — so the blocked phase tables, which multiply the same way,
// agree with the kernels bit for bit.
// ---------------------------------------------------------------------------

struct BodyX {
  static constexpr int kRows = 0;
  static constexpr int kFlops = 0; // a swap: no arithmetic
  template <class L, class V>
  static void pair(const V*, V& r0, V& i0, V& r1, V& i1) {
    const V r = r0;
    const V i = i0;
    r0 = r1;
    i0 = i1;
    r1 = r;
    i1 = i;
  }
};

/// Y = [[0,-i],[i,0]]: a0' = -i*a1, a1' = i*a0.
struct BodyY {
  static constexpr int kRows = 0;
  static constexpr int kFlops = 2; // two negations
  template <class L, class V>
  static void pair(const V*, V& r0, V& i0, V& r1, V& i1) {
    const V nr0 = i1;
    const V ni0 = -r1;
    r1 = -i0;
    i1 = r0;
    r0 = nr0;
    i0 = ni0;
  }
};

struct BodyH {
  static constexpr int kRows = 0;
  static constexpr int kFlops = 8; // 4 adds/subs and 4 muls
  template <class L, class V>
  static void pair(const V*, V& r0, V& i0, V& r1, V& i1) {
    const V s2i = L::splat(S2I);
    const V nr0 = s2i * (r0 + r1);
    const V ni0 = s2i * (i0 + i1);
    r1 = s2i * (r0 - r1);
    i1 = s2i * (i0 - i1);
    r0 = nr0;
    i0 = ni0;
  }
};

/// RX = [[c, -is], [-is, c]] with c = cos(t/2), s = sin(t/2).
struct BodyRX {
  static constexpr int kRows = 2;
  static constexpr int kFlops = 12; // 2 muls and 1 add/sub per output
  template <class L, class V>
  static void pair(const V* c, V& r0, V& i0, V& r1, V& i1) {
    const V nr0 = c[0] * r0 + c[1] * i1;
    const V ni0 = c[0] * i0 - c[1] * r1;
    const V nr1 = c[0] * r1 + c[1] * i0;
    i1 = c[0] * i1 - c[1] * r0;
    r0 = nr0;
    i0 = ni0;
    r1 = nr1;
  }
};

/// RY = [[c, -s], [s, c]] — an all-real rotation.
struct BodyRY {
  static constexpr int kRows = 2;
  static constexpr int kFlops = 12; // 2 muls and 1 add/sub per output
  template <class L, class V>
  static void pair(const V* c, V& r0, V& i0, V& r1, V& i1) {
    const V nr0 = c[0] * r0 - c[1] * r1;
    const V ni0 = c[0] * i0 - c[1] * i1;
    r1 = c[1] * r0 + c[0] * r1;
    i1 = c[1] * i0 + c[0] * i1;
    r0 = nr0;
    i0 = ni0;
  }
};

/// RZ: a0 *= e^{-it/2}, a1 *= e^{+it/2}.
struct BodyRZ {
  static constexpr int kRows = 2;
  static constexpr int kFlops = 12; // 2 muls and 1 add/sub per output
  template <class L, class V>
  static void pair(const V* c, V& r0, V& i0, V& r1, V& i1) {
    const V nr0 = c[0] * r0 + c[1] * i0;
    i0 = c[0] * i0 - c[1] * r0;
    const V nr1 = c[0] * r1 - c[1] * i1;
    i1 = c[0] * i1 + c[1] * r1;
    r0 = nr0;
    r1 = nr1;
  }
};

/// Dense 2×2: rows (r00, i00, r01, i01, r10, i10, r11, i11),
/// a0' = m00*a0 + m01*a1, a1' = m10*a0 + m11*a1.
struct BodyDense {
  static constexpr int kRows = 8;
  static constexpr int kFlops = 28; // 4 muls and 3 adds/subs per output
  template <class L, class V>
  static void pair(const V* m, V& r0, V& i0, V& r1, V& i1) {
    const V nr0 = m[0] * r0 - m[1] * i0 + m[2] * r1 - m[3] * i1;
    const V ni0 = m[0] * i0 + m[1] * r0 + m[2] * i1 + m[3] * r1;
    const V nr1 = m[4] * r0 - m[5] * i0 + m[6] * r1 - m[7] * i1;
    i1 = m[4] * i0 + m[5] * r0 + m[6] * i1 + m[7] * r1;
    r0 = nr0;
    i0 = ni0;
    r1 = nr1;
  }
};

struct BodyNeg {
  static constexpr int kRows = 0;
  static constexpr int kFlops = 2; // two negations
  template <class L, class V>
  static void one(const V*, V& r, V& i) {
    r = -r;
    i = -i;
  }
};

/// a *= i.
struct BodyS {
  static constexpr int kRows = 0;
  static constexpr int kFlops = 1; // one negation
  template <class L, class V>
  static void one(const V*, V& r, V& i) {
    const V nr = -i;
    i = r;
    r = nr;
  }
};

/// a *= -i.
struct BodySdg {
  static constexpr int kRows = 0;
  static constexpr int kFlops = 1; // one negation
  template <class L, class V>
  static void one(const V*, V& r, V& i) {
    const V nr = i;
    i = -r;
    r = nr;
  }
};

/// a *= (1+i)/sqrt(2): the Listing 2/3 body.
struct BodyT {
  static constexpr int kRows = 0;
  static constexpr int kFlops = 4; // 2 adds/subs and 2 muls
  template <class L, class V>
  static void one(const V*, V& r, V& i) {
    const V s2i = L::splat(S2I);
    const V nr = s2i * (r - i);
    i = s2i * (r + i);
    r = nr;
  }
};

/// a *= (1-i)/sqrt(2).
struct BodyTdg {
  static constexpr int kRows = 0;
  static constexpr int kFlops = 4; // 2 adds/subs and 2 muls
  template <class L, class V>
  static void one(const V*, V& r, V& i) {
    const V s2i = L::splat(S2I);
    const V nr = s2i * (r + i);
    i = s2i * (i - r);
    r = nr;
  }
};

/// a *= cr + i*ci (rows cos, sin of the gate angle).
struct BodyPhase {
  static constexpr int kRows = 2;
  static constexpr int kFlops = 6; // 4 muls and 2 adds/subs
  template <class L, class V>
  static void one(const V* c, V& r, V& i) {
    const V nr = c[0] * r - c[1] * i;
    i = c[0] * i + c[1] * r;
    r = nr;
  }
};

// ---------------------------------------------------------------------------
// Patterns: which amplitudes of work item i a gate touches. 1-qubit
// patterns enumerate pairs by Eq. (1), 2-qubit patterns quadruples by
// Eq. (2) over (p, q) = (min, max) of the operands; each touches one or
// two sites — a pair for a pair body, one amplitude for a single body.
// ---------------------------------------------------------------------------

enum class Pat {
  kPair1q,   // (s, s+2^q)
  kOne1q,    // s+2^q: the |1> half only
  kCtrlPair, // (s+2^c, s+2^c+2^t): the control-set half only
  kOne11,    // s+2^p+2^q: |11> only
  kPair0110, // (s+2^p, s+2^q)
  kRxx,      // (s, s+2^p+2^q) and (s+2^p, s+2^q)
  kRzz,      // s+2^p and s+2^q
};

template <Pat P>
struct Pattern {
  static constexpr bool kTwoQubit = P != Pat::kPair1q && P != Pat::kOne1q;
  static constexpr bool kPair = P == Pat::kPair1q || P == Pat::kCtrlPair ||
                                P == Pat::kPair0110 || P == Pat::kRxx;
  static constexpr int kSites = P == Pat::kRxx || P == Pat::kRzz ? 2 : 1;
  /// Amplitudes one work item reads and writes.
  static constexpr int kTouched = kSites * (kPair ? 2 : 1);

  IdxType p = 0;            // the qubit (1q) or the lower operand (2q)
  IdxType q = 0;            // the higher operand (2q)
  IdxType off[kSites][2]{}; // site offsets from the base index

  explicit Pattern(const Gate& g) {
    if constexpr (!kTwoQubit) {
      p = g.qb0;
      off[0][0] = P == Pat::kPair1q ? 0 : pow2(p);
      off[0][1] = pow2(p);
    } else {
      p = g.qb0 < g.qb1 ? g.qb0 : g.qb1;
      q = g.qb0 < g.qb1 ? g.qb1 : g.qb0;
      const IdxType lo = pow2(p);
      const IdxType hi = pow2(q);
      if constexpr (P == Pat::kCtrlPair) {
        off[0][0] = pow2(g.qb0);
        off[0][1] = pow2(g.qb0) + pow2(g.qb1);
      } else if constexpr (P == Pat::kOne11) {
        off[0][0] = lo + hi;
      } else if constexpr (P == Pat::kPair0110) {
        off[0][0] = lo;
        off[0][1] = hi;
      } else if constexpr (P == Pat::kRxx) {
        off[0][1] = lo + hi;
        off[1][0] = lo;
        off[1][1] = hi;
      } else { // kRzz
        off[0][0] = lo;
        off[1][0] = hi;
      }
    }
  }

  /// Base amplitude index of work items `i` (Eq. (1) or (2), lane-wise).
  template <class L>
  typename L::I base(typename L::I i) const {
    if constexpr (!kTwoQubit) {
      return L::or_i(L::shl_i(L::shr_i(i, p), p + 1),
                     L::and_i(i, L::splat_i(pow2(p) - 1)));
    } else {
      const auto ip = L::shr_i(i, p);
      const auto low = L::and_i(i, L::splat_i(pow2(p) - 1));
      const auto hi = L::shr_i(ip, q - p - 1);
      const auto mid = L::and_i(ip, L::splat_i(pow2(q - p - 1) - 1));
      return L::or_i(L::or_i(L::shl_i(hi, q + 1), L::shl_i(mid, p + 1)), low);
    }
  }
};

// ---------------------------------------------------------------------------
// The op → (pattern, body) list every kernel table is built from.
// ---------------------------------------------------------------------------

/// Visits v.template operator()<op, pattern, Body>() once per unitary op.
/// ID and BARRIER have no amplitude work; the non-unitary ops have their
/// own protocols (nonunitary.hpp, batched.hpp).
template <class Visit>
void for_each_unitary(Visit&& v) {
  v.template operator()<OP::U3, Pat::kPair1q, BodyDense>();
  v.template operator()<OP::U2, Pat::kPair1q, BodyDense>();
  v.template operator()<OP::U1, Pat::kOne1q, BodyPhase>();
  v.template operator()<OP::X, Pat::kPair1q, BodyX>();
  v.template operator()<OP::Y, Pat::kPair1q, BodyY>();
  v.template operator()<OP::Z, Pat::kOne1q, BodyNeg>();
  v.template operator()<OP::H, Pat::kPair1q, BodyH>();
  v.template operator()<OP::S, Pat::kOne1q, BodyS>();
  v.template operator()<OP::SDG, Pat::kOne1q, BodySdg>();
  v.template operator()<OP::T, Pat::kOne1q, BodyT>();
  v.template operator()<OP::TDG, Pat::kOne1q, BodyTdg>();
  v.template operator()<OP::RX, Pat::kPair1q, BodyRX>();
  v.template operator()<OP::RY, Pat::kPair1q, BodyRY>();
  v.template operator()<OP::RZ, Pat::kPair1q, BodyRZ>();
  v.template operator()<OP::CX, Pat::kCtrlPair, BodyX>();
  v.template operator()<OP::CY, Pat::kCtrlPair, BodyY>();
  v.template operator()<OP::CZ, Pat::kOne11, BodyNeg>();
  v.template operator()<OP::CH, Pat::kCtrlPair, BodyDense>();
  v.template operator()<OP::SWAP, Pat::kPair0110, BodyX>();
  v.template operator()<OP::CRX, Pat::kCtrlPair, BodyDense>();
  v.template operator()<OP::CRY, Pat::kCtrlPair, BodyDense>();
  v.template operator()<OP::CRZ, Pat::kCtrlPair, BodyRZ>();
  v.template operator()<OP::CU1, Pat::kOne11, BodyPhase>();
  v.template operator()<OP::CU3, Pat::kCtrlPair, BodyDense>();
  v.template operator()<OP::RXX, Pat::kRxx, BodyRX>();
  v.template operator()<OP::RZZ, Pat::kRzz, BodyPhase>();
}

// ---------------------------------------------------------------------------
// Footprints: what one work item of each op's kernel costs, read off the
// list above. Every counter prices from here: the roofline and cost models
// (obs/perfmodel), the progress board, the batched combining pass.
// ---------------------------------------------------------------------------

/// One op's footprint per work item of its kernel.
struct Footprint {
  int qubits = 0;  // operands of a pattern × body op; 0 for every other op
  int rows = 0;    // coefficient rows the body reads
  int touched = 0; // amplitudes it reads or writes
  int flops = 0;   // real adds, subs, muls and negations
};

/// Footprint of `op`'s kernel. The pattern × body ops read theirs off
/// for_each_unitary. Measure and reset collapse both amplitudes of each
/// pair and measure-all reads one amplitude per item (nonunitary.hpp);
/// ID, BARRIER and the compound ops touch nothing.
inline const Footprint& footprint(OP op) {
  static const std::array<Footprint, kNumOps> table = [] {
    std::array<Footprint, kNumOps> t{};
    for_each_unitary([&]<OP o, Pat P, class B>() {
      using Pt = Pattern<P>;
      t[static_cast<std::size_t>(o)] = {Pt::kTwoQubit ? 2 : 1, B::kRows,
                                        Pt::kTouched, Pt::kSites * B::kFlops};
    });
    t[static_cast<std::size_t>(OP::M)].touched = 2;
    t[static_cast<std::size_t>(OP::RESET)].touched = 2;
    t[static_cast<std::size_t>(OP::MA)].touched = 1;
    return t;
  }();
  return table[static_cast<std::size_t>(op)];
}

/// Work items of `g`'s kernel over a span of 2^lg amplitudes, the state
/// (lg = n) or one 2^b block: pairs for one operand, quadruples for two,
/// amplitudes for measure-all, none for a barrier.
inline IdxType gate_work_items(const Gate& g, IdxType lg) {
  if (g.op == OP::BARRIER) return 0;
  if (g.op == OP::MA) return pow2(lg);
  return pow2(lg - (g.qb1 >= 0 ? 2 : 1));
}

// ---------------------------------------------------------------------------
// Coefficients.
// ---------------------------------------------------------------------------

/// Most coefficient rows any body reads (the dense 2×2).
inline constexpr int kMaxCoefRows = 8;

/// Coefficient rows the body of `op` reads (0 for constant gates and the
/// non-unitary ops, whose divergence is runtime state, not parameters).
inline int coef_rows(OP op) { return footprint(op).rows; }

/// Dense rows of U3(theta, phi, lam).
inline std::array<ValType, 8> u3_rows(ValType theta, ValType phi,
                                      ValType lam) {
  const ValType c = std::cos(theta / 2);
  const ValType s = std::sin(theta / 2);
  return {c,
          0,
          -std::cos(lam) * s,
          -std::sin(lam) * s,
          std::cos(phi) * s,
          std::sin(phi) * s,
          std::cos(phi + lam) * c,
          std::sin(phi + lam) * c};
}

/// Fill column b of gate g's coefficient rows (row r at coef[r*stride+b]).
/// The only place a gate's angles become body coefficients.
inline void fill_coef(const Gate& g, ValType* coef, IdxType stride,
                      IdxType b) {
  const auto rows = [&](std::array<ValType, 8> m) {
    for (int r = 0; r < 8; ++r) coef[r * stride + b] = m[r];
  };
  switch (g.op) {
    case OP::U3:
    case OP::CU3:
      rows(u3_rows(g.theta, g.phi, g.lam));
      break;
    case OP::U2:
      rows(u3_rows(PI / 2, g.phi, g.lam));
      break;
    case OP::CRX: {
      const ValType c = std::cos(g.theta / 2);
      const ValType s = std::sin(g.theta / 2);
      rows({c, 0, 0, -s, 0, -s, c, 0});
      break;
    }
    case OP::CRY: {
      const ValType c = std::cos(g.theta / 2);
      const ValType s = std::sin(g.theta / 2);
      rows({c, 0, -s, 0, s, 0, c, 0});
      break;
    }
    case OP::CH:
      rows({S2I, 0, S2I, 0, S2I, 0, -S2I, 0});
      break;
    case OP::U1:
    case OP::CU1:
    case OP::RZZ:
      coef[b] = std::cos(g.theta);
      coef[stride + b] = std::sin(g.theta);
      break;
    case OP::RZ:
    case OP::RX:
    case OP::RY:
    case OP::CRZ:
    case OP::RXX:
      coef[b] = std::cos(g.theta / 2);
      coef[stride + b] = std::sin(g.theta / 2);
      break;
    default:
      break; // constant / non-unitary: no rows
  }
}

// ---------------------------------------------------------------------------
// Solo strategies.
// ---------------------------------------------------------------------------

namespace solo_detail {

/// Pattern P × body B over work items [begin, end), L::W items per step.
/// ScalarLane reaches amplitudes through the Space's element access;
/// wider lanes work on its raw arrays (LocalSpace only). When the lowest
/// operand's stride 2^p is at least W and `begin` is W-aligned, every
/// vector's W work items lie in one run of 2^p consecutive items, so each
/// site's W amplitudes are consecutive too: one plain load and store per
/// array from the first lane's index. Otherwise the lanes gather and
/// scatter through their own indices.
template <Pat P, class B, class L, class Space>
inline void run(const UGate& ug, const Space& sp, IdxType begin,
                IdxType end) {
  using V = typename L::V;
  using I = typename L::I;
  using Pt = Pattern<P>;
  const Pt pat(ug.g);
  V c[B::kRows > 0 ? B::kRows : 1]{};
  for (int r = 0; r < B::kRows; ++r) c[r] = L::splat(ug.coef[r * ug.stride]);
  // A site address is lane-wise indices (I) or, on the unit-stride path
  // of a vector policy, the first of W consecutive indices (IdxType).
  const auto re = [&](const auto at) {
    if constexpr (L::W == 1) {
      return sp.get_real(at);
    } else if constexpr (std::is_same_v<decltype(at), const IdxType>) {
      return L::load(sp.real + at);
    } else {
      return L::gather(sp.real, at);
    }
  };
  const auto im = [&](const auto at) {
    if constexpr (L::W == 1) {
      return sp.get_imag(at);
    } else if constexpr (std::is_same_v<decltype(at), const IdxType>) {
      return L::load(sp.imag + at);
    } else {
      return L::gather(sp.imag, at);
    }
  };
  const auto set = [&](const auto at, V r, V i) {
    if constexpr (L::W == 1) {
      sp.set_real(at, r);
      sp.set_imag(at, i);
    } else if constexpr (std::is_same_v<decltype(at), const IdxType>) {
      L::store(sp.real + at, r);
      L::store(sp.imag + at, i);
    } else {
      L::scatter(sp.real, at, r);
      L::scatter(sp.imag, at, i);
    }
  };
  // One vector's sites from its base address `s`, with offsets `o` in the
  // index policy X that `s` is in.
  const auto sites = [&]<class X>(const typename X::I s,
                                  const typename X::I (&o)[Pt::kSites][2]) {
    for (int k = 0; k < Pt::kSites; ++k) {
      const auto a = X::add_i(s, o[k][0]);
      V r0 = re(a);
      V i0 = im(a);
      if constexpr (Pt::kPair) {
        const auto b = X::add_i(s, o[k][1]);
        V r1 = re(b);
        V i1 = im(b);
        B::template pair<L>(c, r0, i0, r1, i1);
        set(a, r0, i0);
        set(b, r1, i1);
      } else {
        B::template one<L>(c, r0, i0);
        set(a, r0, i0);
      }
    }
  };
  if constexpr (L::W > 1) {
    if (pow2(pat.p) >= L::W && begin % L::W == 0) {
      for (IdxType i = begin; i < end; i += L::W) {
        sites.template operator()<ScalarLane>(
            pat.template base<ScalarLane>(i), pat.off);
      }
      return;
    }
  }
  I off[Pt::kSites][2];
  for (int k = 0; k < Pt::kSites; ++k) {
    off[k][0] = L::splat_i(pat.off[k][0]);
    off[k][1] = L::splat_i(pat.off[k][1]);
  }
  const I step = L::splat_i(L::W);
  I iv = L::iota(begin);
  for (IdxType i = begin; i < end; i += L::W, iv = L::add_i(iv, step)) {
    sites.template operator()<L>(pat.template base<L>(iv), off);
  }
}

} // namespace solo_detail

/// One gate on one state vector, work items [begin, end): W at a time
/// through lane policy L (the solo SIMD strategy), the ragged tail — and
/// everything when L is ScalarLane — one at a time (the solo scalar
/// strategy, valid over any Space). Never inlined: the partitioned
/// tables' range kernels call the very instance SingleSim's table holds,
/// so the tiers share one copy of each vector loop.
template <Pat P, class B, class L, class Space>
[[gnu::noinline]] void solo_kernel(const UGate& ug, const Space& sp,
                                   IdxType begin, IdxType end) {
  if constexpr (L::W > 1) {
    const IdxType full = begin + (end - begin) / L::W * L::W;
    solo_detail::run<P, B, L>(ug, sp, begin, full);
    begin = full;
  }
  solo_detail::run<P, B, ScalarLane>(ug, sp, begin, end);
}

/// ID and BARRIER: no amplitude work (the kernel loop issues the sync).
template <class Space>
void kern_nop(const UGate&, const Space&, IdxType, IdxType) {}

} // namespace svsim::kernels
