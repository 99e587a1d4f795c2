// Gate kernels as pattern × body (§3.2.1, Listings 2-5).
//
// Every unitary op is one *pattern* — the Eq. (1)/(2) index map plus the
// amplitudes of each pair/quadruple the gate must touch — times one
// *body*, the gate's arithmetic written once on lane values. The
// specialization of the paper lives in the pattern: T, S, Z and the phase
// gates touch only the |1> half (Listings 2/3), CZ and CU1 only |11>,
// controlled gates only the control-set half, SWAP only (|01>, |10>), RZZ
// only the middle pair of singles. The one unspecialized op is the fused
// DENSE2 (ir/fusion): the quad pattern, all four amplitudes of each
// quadruple, times a dense 4x4 body, so a run of gates on one qubit pair
// costs one sweep. The bodies are shared by every execution strategy,
// which differ only in the loop that feeds them:
//
//   * solo scalar — one work item at a time, each role (one of the
//     amplitudes a work item touches) read from its own array: the one
//     state on a single device, the role's partition on the peer and
//     SHMEM tiers (RoleBases). The same loop through a Space's
//     get_/set_real/imag is the per-element reference (element_kernel:
//     Listings 3-5's pointer array and one-sided get/put, routed and
//     counted per access);
//   * solo SIMD  — W consecutive work items per vector from the range's
//     first W-aligned item. Each step loads the whole W-aligned vectors
//     that hold its amplitudes and writes them back, masking the lanes
//     the gate does not own; where a pair's two amplitudes sit in
//     different lanes it permutes them into place in registers. When the
//     lowest operand qubit is at least log2 W every lane is owned and
//     nothing moves: plain loads and stores. At W = 4 with both operands
//     below log2 W a 4x4 lane transpose turns each step's four vectors
//     into one per quadruple offset instead (a controlled pair moves only
//     its two rows). Listing 2 reaches the same lanes by lane-wise index
//     maps and gather/scatter. The head before the first aligned item and
//     the ragged tail go through the solo scalar loop;
//   * batched    — lanes across batch members (kernels/batched.hpp).
//
// A body's coefficients (cos/sin pairs, dense 2×2 or 4×4 entries) are
// filled once per uploaded gate by fill_coef: stride 1 for a solo gate,
// stride B for a batched gate's member columns.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <span>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "common/types.hpp"
#include "core/kernels/lanes.hpp"
#include "ir/gate.hpp"
#include "ir/matrices.hpp"

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
// Bodies. Pair bodies map (a0, a1), single bodies one amplitude a and the
// quad body a whole quadruple, each split into real/imag lanes; c holds
// the body's kRows coefficient rows already loaded into lanes, and kFlops
// counts the real adds, subs, muls and negations of one application. The
// arithmetic is written with the built-in operators, which GCC and Clang
// define on the vector lane types as well: every lane then evaluates the
// reference scalar expression in the same order, and the compiler's FMA
// contraction fuses the same products — so the blocked phase tables,
// which multiply the same way, agree with the kernels bit for bit.
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

/// Dense 4×4 over a quadruple's four amplitudes, in the quad pattern's
/// role order (|00>, |01>, |10>, |11> of (p, q)): row i's entries j at
/// rows 8i + 2j (real) and 8i + 2j + 1 (imag), as BodyDense lays out its
/// 2×2; a'_i = sum_j m_ij a_j.
struct BodyDense4 {
  static constexpr int kRows = 32;
  static constexpr int kFlops = 120; // 8 muls and 7 adds/subs per output
  template <class L, class V>
  static void quad(const V* m, V (&r)[4], V (&i)[4]) {
    V nr[4];
    V ni[4];
    for (int k = 0; k < 4; ++k) {
      // One product at a time onto a sum that starts at zero: each
      // statement holds one product, so every instance — any Space, lane
      // policy or strategy — contracts the same products into the same
      // FMAs, and the lanes agree with the scalar strategy bit for bit.
      const V* e = m + 8 * k;
      V sr = L::zero();
      V si = L::zero();
      for (int j = 0; j < 4; ++j) {
        sr = sr + e[2 * j] * r[j];
        sr = sr - e[2 * j + 1] * i[j];
        si = si + e[2 * j] * i[j];
        si = si + e[2 * j + 1] * r[j];
      }
      nr[k] = sr;
      ni[k] = si;
    }
    for (int k = 0; k < 4; ++k) {
      r[k] = nr[k];
      i[k] = ni[k];
    }
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
// two sites — a pair for a pair body, one amplitude for a single body,
// the whole quadruple for the quad body.
// ---------------------------------------------------------------------------

enum class Pat {
  kPair1q,   // (s, s+2^q)
  kOne1q,    // s+2^q: the |1> half only
  kCtrlPair, // (s+2^c, s+2^c+2^t): the control-set half only
  kOne11,    // s+2^p+2^q: |11> only
  kPair0110, // (s+2^p, s+2^q)
  kRxx,      // (s, s+2^p+2^q) and (s+2^p, s+2^q)
  kRzz,      // s+2^p and s+2^q
  kQuad,     // (s, s+2^q, s+2^p, s+2^p+2^q): all four
};

template <Pat P>
struct Pattern {
  static constexpr bool kTwoQubit = P != Pat::kPair1q && P != Pat::kOne1q;
  static constexpr bool kPair = P == Pat::kPair1q || P == Pat::kCtrlPair ||
                                P == Pat::kPair0110 || P == Pat::kRxx;
  /// Amplitudes of one site: 4 for the quad body, 2 for a pair, 1 else.
  static constexpr int kElems = P == Pat::kQuad ? 4 : kPair ? 2 : 1;
  static constexpr int kSites = P == Pat::kRxx || P == Pat::kRzz ? 2 : 1;
  /// Amplitudes one work item reads and writes.
  static constexpr int kTouched = kSites * kElems;

  IdxType p = 0;                 // the qubit (1q) or the lower operand (2q)
  IdxType q = 0;                 // the higher operand (2q)
  IdxType off[kSites][kElems]{}; // site offsets from the base index

  constexpr explicit Pattern(const Gate& g) {
    if constexpr (!kTwoQubit) {
      p = g.qb0;
      off[0][kElems - 1] = pow2(p); // the |1> element; kPair1q's |0> is 0
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
      } else if constexpr (P == Pat::kQuad) {
        // Role r = 2·bit(p) + bit(q): with p the more significant bit, a
        // low p (below log2 W) leaves roles r and r + 1 in different
        // vectors, so run_permuted's groups r mod 2 stay two.
        off[0][1] = hi;
        off[0][2] = lo;
        off[0][3] = lo + hi;
      } else { // kRzz
        off[0][0] = lo;
        off[1][0] = hi;
      }
    }
  }

  /// Role r's offset from the base index: site r / kElems's element
  /// r % kElems. A role is one of the kTouched amplitudes of a work item.
  constexpr IdxType role(int r) const { return off[r / kElems][r % kElems]; }

  /// Base amplitude index of work item `i` (Eq. (1) or (2)).
  constexpr IdxType base(IdxType i) const {
    if constexpr (!kTwoQubit) {
      return pair_base(i, p);
    } else {
      return quad_base(i, p, q);
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
  v.template operator()<OP::DENSE2, Pat::kQuad, BodyDense4>();
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

/// Most coefficient rows any body reads (the dense 4×4).
inline constexpr int kMaxCoefRows = BodyDense4::kRows;

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
/// The only place a gate's angles become body coefficients. A DENSE2
/// gate's rows come from its matrix, entry g.cbit of `dense`, the dense
/// table of g's circuit (Circuit::dense_table()), laid out in the quad
/// pattern's role order: a gate written with qb0 > qb1 has its |01> and
/// |10> exchanged.
inline void fill_coef(const Gate& g, std::span<const Mat4> dense,
                      ValType* coef, IdxType stride, IdxType b) {
  const auto rows = [&](std::array<ValType, 8> m) {
    for (int r = 0; r < 8; ++r) coef[r * stride + b] = m[r];
  };
  switch (g.op) {
    case OP::DENSE2: {
      SVSIM_CHECK(g.cbit >= 0 && static_cast<std::size_t>(g.cbit) <
                                     dense.size(),
                  "fill_coef: dense2 gate without a matrix in its table");
      const Mat4& m = dense[static_cast<std::size_t>(g.cbit)];
      const int flip[4] = {0, 2, 1, 3};
      for (int i = 0; i < 4; ++i) {
        for (int j = 0; j < 4; ++j) {
          const Complex e = g.qb0 > g.qb1 ? m[flip[i] * 4 + flip[j]]
                                          : m[i * 4 + j];
          coef[(8 * i + 2 * j) * stride + b] = e.real();
          coef[(8 * i + 2 * j + 1) * stride + b] = e.imag();
        }
      }
      break;
    }
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

/// Body B on one site's E amplitudes (real parts r, imag parts i) through
/// lane policy L: B's one, pair or quad, by the site's size.
template <class B, class L, class V, int E>
inline void apply_site(const V* c, V (&r)[E], V (&i)[E]) {
  if constexpr (E == 1) {
    B::template one<L>(c, r[0], i[0]);
  } else if constexpr (E == 2) {
    B::template pair<L>(c, r[0], i[0], r[1], i[1]);
  } else {
    B::template quad<L>(c, r, i);
  }
}

/// Most roles any pattern touches per work item (the quad's four).
inline constexpr int kMaxRoles = 4;

/// Where the roles of a range's work items live: role r of work item i
/// (Pattern::role) is amplitude (base(i) + role(r)) & mask of the arrays
/// re[r] and im[r]. The range counts its items so that base(i) <= mask. A
/// single state is one array for every role (RoleBases::one); the
/// partitioned tiers pass a range one run at a time, each role in its
/// partition (KernelTable::on_range).
struct RoleBases {
  ValType* re[kMaxRoles]{};
  ValType* im[kMaxRoles]{};
  IdxType mask = 0; // an array's amplitudes, less one

  /// Every role in the one state of `dim` amplitudes at (re, im).
  static RoleBases one(ValType* re, ValType* im, IdxType dim) {
    RoleBases at;
    for (int r = 0; r < kMaxRoles; ++r) {
      at.re[r] = re;
      at.im[r] = im;
    }
    at.mask = dim - 1;
    return at;
  }
};

namespace solo_detail {

/// The solo scalar strategy's access to role r of the work item at base
/// index s through a range's RoleBases: each role's array, advanced by the
/// role's offset, resolved once per call.
template <Pat P>
struct RoleAccess {
  static constexpr int kRoles = Pattern<P>::kTouched;
  ValType* re[kRoles];
  ValType* im[kRoles];

  RoleAccess(const Pattern<P>& pat, const RoleBases& at) {
    for (int r = 0; r < kRoles; ++r) {
      const IdxType x = pat.role(r) & at.mask;
      re[r] = at.re[r] + x;
      im[r] = at.im[r] + x;
    }
  }

  ValType get_real(int r, IdxType s) const { return re[r][s]; }
  ValType get_imag(int r, IdxType s) const { return im[r][s]; }
  void set_real(int r, IdxType s, ValType v) const { re[r][s] = v; }
  void set_imag(int r, IdxType s, ValType v) const { im[r][s] = v; }
};

/// The same access through a Space's own element access, amplitude
/// s + role(r), which the partitioned Spaces route and count one access
/// at a time: the per-element reference (element_kernel).
template <Pat P, class Space>
struct ElementAccess {
  const Pattern<P>& pat;
  const Space& sp;

  ValType get_real(int r, IdxType s) const {
    return sp.get_real(s + pat.role(r));
  }
  ValType get_imag(int r, IdxType s) const {
    return sp.get_imag(s + pat.role(r));
  }
  void set_real(int r, IdxType s, ValType v) const {
    sp.set_real(s + pat.role(r), v);
  }
  void set_imag(int r, IdxType s, ValType v) const {
    sp.set_imag(s + pat.role(r), v);
  }
};

/// The solo scalar strategy: pattern P × body B over work items
/// [begin, end), one at a time, each role through `at` (RoleAccess or
/// ElementAccess).
template <Pat P, class B, class Access>
inline void run_scalar(const UGate& ug, const Pattern<P>& pat,
                       const Access& at, IdxType begin, IdxType end) {
  using Pt = Pattern<P>;
  constexpr int E = Pt::kElems;
  ValType c[B::kRows > 0 ? B::kRows : 1]{};
  for (int r = 0; r < B::kRows; ++r) c[r] = ug.coef[r * ug.stride];
  for (IdxType i = begin; i < end; ++i) {
    const IdxType s = pat.base(i);
    for (int k = 0; k < Pt::kSites; ++k) {
      // Pair and single sites keep named scalars: held in arrays, an
      // -O2 ASan build rounded the counted-access (ShmemSpace) instance
      // of the 2x2 bodies differently from the raw-array one.
      if constexpr (E == 4) {
        ValType re[4];
        ValType im[4];
        for (int j = 0; j < 4; ++j) {
          re[j] = at.get_real(4 * k + j, s);
          im[j] = at.get_imag(4 * k + j, s);
        }
        B::template quad<ScalarLane>(c, re, im);
        for (int j = 0; j < 4; ++j) {
          at.set_real(4 * k + j, s, re[j]);
          at.set_imag(4 * k + j, s, im[j]);
        }
      } else if constexpr (E == 2) {
        const int a = 2 * k;
        const int b = 2 * k + 1;
        ValType r0 = at.get_real(a, s);
        ValType i0 = at.get_imag(a, s);
        ValType r1 = at.get_real(b, s);
        ValType i1 = at.get_imag(b, s);
        B::template pair<ScalarLane>(c, r0, i0, r1, i1);
        at.set_real(a, s, r0);
        at.set_imag(a, s, i0);
        at.set_real(b, s, r1);
        at.set_imag(b, s, i1);
      } else {
        ValType r0 = at.get_real(k, s);
        ValType i0 = at.get_imag(k, s);
        B::template one<ScalarLane>(c, r0, i0);
        at.set_real(k, s, r0);
        at.set_imag(k, s, i0);
      }
    }
  }
}

/// Where one step of the solo SIMD strategy finds its amplitudes.
///
/// A role is one of the pattern's kTouched amplitudes per work item: site
/// k's element j is role k·E + j (E = Pattern::kElems: 4 for the quad
/// body, 2 for a pair body, 1 for a single).
/// Eq. (1)/(2) only spread a work item's bits around the operand
/// positions, so for a W-aligned work item i and a lane l < W,
/// base(i + l) = base(i) + base(l): role r of lane l sits at
/// base(i) + base(l) + off_r. A role's W amplitudes therefore lie in 2^k
/// W-aligned vectors, k being the number of operands below log2 W. Vector
/// m holds lanes l in [m·W/2^k, (m+1)·W/2^k) and sits at base(i) plus the
/// offset's bits at or above log2 W plus hop[m] = base(m·W/2^k); in every
/// one of them the role takes the same lanes. A strategy resolves each
/// role's or vector's pointer from those bits once per call, in the
/// role's array (RoleBases): a step adds only base(i).
///
/// When all elements of every site take the same lanes (they differ only
/// in bits at or above log2 W; always so for a single body), the vectors
/// line up lane for lane: run_aligned runs the body on whole vectors and
/// stores only the site's lanes. Otherwise a site straddles lanes of one
/// vector, and run_permuted moves each role's lanes out of the vectors
/// and back in registers (StraddleLayout). The layout holds for every
/// step, so it is computed once per kernel call, and at k = 0 it is just
/// the offsets.
template <Pat P, IdxType W>
struct TileLayout {
  using Pt = Pattern<P>;
  static constexpr int kRoles = Pt::kTouched;
  static constexpr int kElems = Pt::kElems;

  int k = 0;              // operands below log2 W
  bool aligned = true;    // every site's elements take the same lanes
  IdxType hop[4]{};       // vector m of a role, past base(i) + its high bits
  IdxType high[kRoles]{}; // role r's offset bits at or above log2 W
  /// Sites run_aligned visits, and (k >= 1) each one's lanes in its
  /// vectors. Every site of a single body applies the same body, so sites
  /// whose vectors coincide merge into the first: one pass, their lanes
  /// together.
  int sites = Pt::kSites;
  std::uint64_t lanes[Pt::kSites][W]{};

  explicit TileLayout(const Pt& pat) {
    constexpr IdxType lg_w = log2_exact(W);
    k = (pat.p < lg_w ? 1 : 0) + (Pt::kTwoQubit && pat.q < lg_w ? 1 : 0);
    for (int r = 0; r < kRoles; ++r) high[r] = pat.role(r) & ~(W - 1);
    if (k == 0) return; // every lane owned: the vectors are the offsets
    const IdxType per_vec = W >> k; // lanes of one role per vector
    for (IdxType m = 0; m < pow2(k); ++m) hop[m] = pat.base(m * per_vec);
    if (!Pt::kPair && Pt::kSites == 2 && high[1] == high[0]) sites = 1;
    for (int st = 0; st < Pt::kSites; ++st) {
      const IdxType a0 = pat.role(st * kElems);
      for (int e = 1; e < kElems; ++e) {
        aligned = aligned && ((a0 ^ pat.role(st * kElems + e)) & (W - 1)) == 0;
      }
      for (IdxType j = 0; j < per_vec; ++j) {
        lanes[st < sites ? st : 0][(pat.base(j) + a0) & (W - 1)] =
            ~std::uint64_t{0};
      }
    }
  }
};

/// What run_permuted needs on top of a TileLayout, for a pair or quad body
/// whose elements straddle lanes (k >= 1). Roles whose vectors coincide
/// form a group; for every pattern role r's group is r mod G, and
/// G·2^k <= 4.
/// Group g's vector m is v = g·2^k + m.
template <Pat P, IdxType W>
struct StraddleLayout {
  using Tile = TileLayout<P, W>;
  static constexpr int kRoles = Tile::kRoles;

  int groups = 1; // G
  /// Per vector v and lane x: the role lane it takes — j·W + l from the
  /// group's member roles j = 0, 1, the same from members 2, 3 where
  /// from_hi is set — and whether one of its roles owns the lane.
  IdxType to_vec[4][W]{};
  std::uint64_t from_hi[4][W]{};
  std::uint64_t owned[4][W]{};
  /// Per role and lane: its position in the group's vectors, mod 2W (the
  /// second pair of vectors feeds lanes l >= W/2 when k = 2).
  IdxType to_role[kRoles][W]{};
  std::uint64_t upper[W]{}; // lanes l >= W/2

  StraddleLayout(const Pattern<P>& pat, const Tile& lay) {
    constexpr std::uint64_t kAll = ~std::uint64_t{0};
    const IdxType per_vec = W >> lay.k;
    while (groups < kRoles && lay.high[groups] != lay.high[0]) ++groups;
    for (int r = 0; r < kRoles; ++r) {
      const int g = r % groups;
      const int j = r / groups;
      for (IdxType l = 0; l < W; ++l) {
        const IdxType m = l / per_vec;
        const IdxType x = (pat.base(l) + pat.role(r)) & (W - 1);
        const IdxType v = g * pow2(lay.k) + m;
        to_role[r][l] = (m & 1) * W + x;
        to_vec[v][x] = (j & 1) * W + l;
        from_hi[v][x] = j >= 2 ? kAll : 0;
        owned[v][x] = kAll;
      }
    }
    for (IdxType l = W / 2; l < W; ++l) upper[l] = kAll;
  }
};

/// The solo SIMD strategy where every site's elements take the same lanes,
/// at K operands below log2 W: W-aligned work items [begin, end), W per
/// step. For each site and each of its 2^K vectors per element, a step
/// loads whole vectors, runs the body on every lane and stores the site's
/// lanes — at K = 0 all of them, by the plain stores of the unit-stride
/// path. No lane moves, and no vector is loaded after a masked store to
/// it in the same step (merged sites), which would stall store
/// forwarding.
template <int K, Pat P, class B, class L>
inline void run_aligned(const Pattern<P>& pat, const TileLayout<P, L::W>& lay,
                        const typename L::V* c, const RoleBases& at,
                        IdxType begin, IdxType end) {
  using V = typename L::V;
  using Pt = Pattern<P>;
  constexpr int N = 1 << K;
  constexpr int E = Pt::kElems;
  ValType* pr[Pt::kSites][E][N];
  ValType* pi[Pt::kSites][E][N];
  typename L::M lanes[Pt::kSites]{};
  for (int k = 0; k < Pt::kSites; ++k) {
    if constexpr (K > 0) lanes[k] = L::mask(lay.lanes[k]);
    for (int j = 0; j < E; ++j) {
      const int r = k * E + j;
      for (int m = 0; m < N; ++m) {
        const IdxType x = (lay.high[r] + lay.hop[m]) & at.mask;
        pr[k][j][m] = at.re[r] + x;
        pi[k][j][m] = at.im[r] + x;
      }
    }
  }
  const auto put = [&](ValType* p, V v, typename L::M m) {
    if constexpr (K == 0) {
      L::store(p, v);
    } else {
      L::store_mask(p, v, m);
    }
  };
  const int sites = lay.sites;
  for (IdxType i = begin; i < end; i += L::W) {
    const IdxType s = pat.base(i);
    for (int k = 0; k < Pt::kSites && k < sites; ++k) {
      for (int m = 0; m < N; ++m) {
        V re[E];
        V im[E];
        for (int j = 0; j < E; ++j) {
          re[j] = L::load(pr[k][j][m] + s);
          im[j] = L::load(pi[k][j][m] + s);
        }
        apply_site<B, L>(c, re, im);
        for (int j = E - 1; j >= 0; --j) {
          put(pr[k][j][m] + s, re[j], lanes[k]);
          put(pi[k][j][m] + s, im[j], lanes[k]);
        }
      }
    }
  }
}

/// Lanes from S sources by one permutation: one source, a pair, or two
/// pairs with `hi` choosing the second pair's lanes.
template <class L, int S>
inline typename L::V pick(const typename L::V (&src)[S],
                          const typename L::Perm& p, typename L::M hi) {
  if constexpr (S == 1) {
    return L::permute(src[0], p);
  } else if constexpr (S == 2) {
    return L::permute2(src[0], src[1], p);
  } else {
    return L::blend(L::permute2(src[0], src[1], p),
                    L::permute2(src[2], src[3], p), hi);
  }
}

/// The solo SIMD strategy for a pair or quad body whose elements straddle
/// lanes, at K >= 1 operands below log2 W and G role groups: W-aligned work
/// items [begin, end), W per step. Each step loads its groups' vectors once,
/// permutes every role's lanes out of them, runs the body, and writes
/// each vector back from its roles' lanes: a plain store when they own
/// every lane, a masked store otherwise.
template <int K, int G, Pat P, class B, class L>
inline void run_permuted(const Pattern<P>& pat,
                         const TileLayout<P, L::W>& lay,
                         const StraddleLayout<P, L::W>& st,
                         const typename L::V* c, const RoleBases& at,
                         IdxType begin, IdxType end) {
  using V = typename L::V;
  using Pt = Pattern<P>;
  constexpr int kRoles = Pt::kTouched;
  constexpr int N = 1 << K;     // vectors per group
  constexpr int M = kRoles / G; // roles per group
  static_assert(K >= 1 && G * N <= 4 && M <= N);
  // Group g's vectors hold roles g, g + G, ...: one array, role g's.
  ValType* vr[G * N];
  ValType* vi[G * N];
  typename L::Perm to_vec[G * N]{};
  typename L::M from_hi[G * N]{};
  typename L::M owned[G * N]{};
  for (int v = 0; v < G * N; ++v) {
    const IdxType x = (lay.high[v / N] + lay.hop[v % N]) & at.mask;
    vr[v] = at.re[v / N] + x;
    vi[v] = at.im[v / N] + x;
    to_vec[v] = L::perm(st.to_vec[v]);
    from_hi[v] = L::mask(st.from_hi[v]);
    owned[v] = L::mask(st.owned[v]);
  }
  typename L::Perm to_role[kRoles]{};
  for (int r = 0; r < kRoles; ++r) to_role[r] = L::perm(st.to_role[r]);
  const typename L::M upper = L::mask(st.upper);
  for (IdxType i = begin; i < end; i += L::W) {
    const IdxType s = pat.base(i);
    V re[kRoles];
    V im[kRoles];
    for (int g = 0; g < G; ++g) {
      V tr[N];
      V ti[N];
      for (int m = 0; m < N; ++m) {
        tr[m] = L::load(vr[g * N + m] + s);
        ti[m] = L::load(vi[g * N + m] + s);
      }
      for (int j = 0; j < M; ++j) {
        const int r = g + j * G;
        re[r] = pick<L, N>(tr, to_role[r], upper);
        im[r] = pick<L, N>(ti, to_role[r], upper);
      }
    }
    for (int k = 0; k < Pt::kSites; ++k) {
      constexpr int E = Pt::kElems;
      V sr[E];
      V si[E];
      for (int j = 0; j < E; ++j) {
        sr[j] = re[k * E + j];
        si[j] = im[k * E + j];
      }
      apply_site<B, L>(c, sr, si);
      for (int j = 0; j < E; ++j) {
        re[k * E + j] = sr[j];
        im[k * E + j] = si[j];
      }
    }
    for (int g = 0; g < G; ++g) {
      V sr[M];
      V si[M];
      for (int j = 0; j < M; ++j) {
        sr[j] = re[g + j * G];
        si[j] = im[g + j * G];
      }
      for (int m = 0; m < N; ++m) {
        const int v = g * N + m;
        ValType* const pr = vr[v] + s;
        ValType* const pi = vi[v] + s;
        if constexpr (M == N) {
          L::store(pr, pick<L, M>(sr, to_vec[v], from_hi[v]));
          L::store(pi, pick<L, M>(si, to_vec[v], from_hi[v]));
        } else {
          L::store_mask(pr, pick<L, M>(sr, to_vec[v], from_hi[v]), owned[v]);
          L::store_mask(pi, pick<L, M>(si, to_vec[v], from_hi[v]), owned[v]);
        }
      }
    }
  }
}

/// The solo SIMD strategy at W = 4 for a pair or quad body with both
/// operands below log2 W = 2 — qubits 0 and 1, qb0 = Q0 — over W-aligned
/// work items [begin, end). Four consecutive work items own the four
/// consecutive vectors at base(i) = 4i, vector m holding item i + m's
/// quadruple. A 4x4 lane transpose turns them into one vector per
/// quadruple offset o, lane l holding item i + l's amplitude at o; the
/// body runs on its roles' offsets, the others ride along, and the
/// transpose back goes out by plain stores. A controlled pair's offsets
/// (1 or 2, and 3) take only their two rows of the transpose, and back.
/// Every role lies in one array (its operands are below any partition's
/// qubits), role 0's.
template <IdxType Q0, Pat P, class B, class L>
inline void run_transposed(const typename L::V* c, const RoleBases& at,
                           IdxType begin, IdxType end) {
  using V = typename L::V;
  using Pt = Pattern<P>;
  static_assert(L::W == 4 && Pt::kTwoQubit);
  constexpr int E = Pt::kElems;
  constexpr Pt kPat = [] {
    Gate g;
    g.qb0 = Q0;
    g.qb1 = 1 - Q0;
    return Pt(g);
  }();
  for (IdxType i = begin; i < end; i += L::W) {
    ValType* const pr = at.re[0] + 4 * i;
    ValType* const pi = at.im[0] + 4 * i;
    V re[4];
    V im[4];
    for (int m = 0; m < 4; ++m) {
      re[m] = L::load(pr + 4 * m);
      im[m] = L::load(pi + 4 * m);
    }
    if constexpr (Pt::kSites == 1 && E == 2 && kPat.off[0][1] == 3) {
      // A controlled pair, (1, 3) or (2, 3): only its two rows move.
      constexpr int O = static_cast<int>(kPat.off[0][0]);
      V sr[2];
      V si[2];
      L::template transpose_rows<O>(re, sr[0], sr[1]);
      L::template transpose_rows<O>(im, si[0], si[1]);
      apply_site<B, L>(c, sr, si);
      L::template untranspose_rows<O>(re, sr[0], sr[1]);
      L::template untranspose_rows<O>(im, si[0], si[1]);
    } else {
      L::transpose4(re);
      L::transpose4(im);
      for (int k = 0; k < Pt::kSites; ++k) {
        V sr[E];
        V si[E];
        for (int j = 0; j < E; ++j) {
          sr[j] = re[kPat.off[k][j]];
          si[j] = im[kPat.off[k][j]];
        }
        apply_site<B, L>(c, sr, si);
        for (int j = 0; j < E; ++j) {
          re[kPat.off[k][j]] = sr[j];
          im[kPat.off[k][j]] = si[j];
        }
      }
      L::transpose4(re);
      L::transpose4(im);
    }
    for (int m = 0; m < 4; ++m) {
      L::store(pr + 4 * m, re[m]);
      L::store(pi + 4 * m, im[m]);
    }
  }
}

/// Pattern P × body B over W-aligned work items [begin, end), a multiple
/// of W of them, through lane policy L on the arrays `at` names.
template <Pat P, class B, class L>
inline void run_simd(const UGate& ug, const Pattern<P>& pat,
                     const RoleBases& at, IdxType begin, IdxType end) {
  using Pt = Pattern<P>;
  constexpr int kRoles = Pt::kTouched;
  typename L::V c[B::kRows > 0 ? B::kRows : 1]{};
  for (int r = 0; r < B::kRows; ++r) c[r] = L::splat(ug.coef[r * ug.stride]);
  const TileLayout<P, L::W> lay(pat);
  if (lay.aligned) {
    if (lay.k == 0) {
      run_aligned<0, P, B, L>(pat, lay, c, at, begin, end);
    } else if (lay.k == 1) {
      run_aligned<1, P, B, L>(pat, lay, c, at, begin, end);
    } else if constexpr (Pt::kTwoQubit) {
      run_aligned<2, P, B, L>(pat, lay, c, at, begin, end);
    }
  } else if constexpr (Pt::kElems > 1) {
    // Straddling sites: k >= 1. Two vectors per group at k = 1 hold one
    // group of at most two roles, or two groups.
    if (lay.k == 1) {
      const StraddleLayout<P, L::W> st(pat, lay);
      if constexpr (kRoles <= 2) {
        if (st.groups == 1) {
          return run_permuted<1, 1, P, B, L>(pat, lay, st, c, at, begin,
                                             end);
        }
      }
      if constexpr (kRoles >= 2) {
        run_permuted<1, 2, P, B, L>(pat, lay, st, c, at, begin, end);
      }
    } else if constexpr (Pt::kTwoQubit && L::W == 4) {
      if (ug.g.qb0 == 0) {
        run_transposed<0, P, B, L>(c, at, begin, end);
      } else {
        run_transposed<1, P, B, L>(c, at, begin, end);
      }
    } else if constexpr (Pt::kTwoQubit) {
      const StraddleLayout<P, L::W> st(pat, lay);
      run_permuted<2, 1, P, B, L>(pat, lay, st, c, at, begin, end);
    }
  }
}

} // namespace solo_detail

/// One gate on one range of work items [begin, end) whose roles live where
/// `at` says: W at a time through lane policy L (the solo SIMD strategy)
/// from the first W-aligned item, the head before it and the ragged tail —
/// and everything when L is ScalarLane — one at a time (the solo scalar
/// strategy). Never inlined: every tier's kernel table calls this one
/// instance per (pattern, body, lane) — SingleSim's with one array for
/// every role, the partitioned tiers' run by run (KernelTable::on_range) —
/// so the tiers share one copy of each vector loop.
template <Pat P, class B, class L>
[[gnu::noinline]] void solo_kernel(const UGate& ug, const RoleBases& at,
                                   IdxType begin, IdxType end) {
  const Pattern<P> pat(ug.g);
  const solo_detail::RoleAccess<P> roles(pat, at);
  if constexpr (L::W > 1) {
    const IdxType first = std::min(end, (begin + L::W - 1) / L::W * L::W);
    const IdxType last = first + (end - first) / L::W * L::W;
    solo_detail::run_scalar<P, B>(ug, pat, roles, begin, first);
    if (first < last) {
      solo_detail::run_simd<P, B, L>(ug, pat, at, first, last);
    }
    begin = last;
  }
  solo_detail::run_scalar<P, B>(ug, pat, roles, begin, end);
}

/// Pattern P × body B over work items [begin, end), one at a time through
/// the Space's own element access: the per-element reference, which the
/// partitioned Spaces route and count access by access (Listings 4/5).
/// No simulator path runs it; the range seam and the footprints are
/// tested against it.
template <Pat P, class B, class Space>
void element_kernel(const UGate& ug, const Space& sp, IdxType begin,
                    IdxType end) {
  const Pattern<P> pat(ug.g);
  solo_detail::run_scalar<P, B>(
      ug, pat, solo_detail::ElementAccess<P, Space>{pat, sp}, begin, end);
}

/// ID and BARRIER: no amplitude work (the kernel loop issues the sync).
template <class Space>
void kern_nop(const UGate&, const Space&, IdxType, IdxType) {}

} // namespace svsim::kernels
