#include "ir/fusion.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

namespace svsim {

namespace {

const Mat2 kId2 = {Complex{1, 0}, Complex{0, 0}, Complex{0, 0},
                   Complex{1, 0}};

bool is_identity_up_to_phase(const Mat2& m) {
  return mat_distance(m, kId2, /*up_to_phase=*/true) < 1e-12;
}

/// Angle tolerance for inverse-pair detection, matching the matrix
/// tolerance of is_identity_up_to_phase (exact float equality would miss
/// angles that differ by one rounding step, e.g. a parser-evaluated
/// expression against its negation).
constexpr ValType kAngleTol = 1e-12;

bool angles_cancel(ValType a, ValType b) { return std::abs(a + b) < kAngleTol; }

/// True if g2 undoes g1 (same operands, mutually inverse parameters).
/// Symmetric ops (cz, swap, cu1, rzz, rxx) cancel with the operands
/// written in either order.
bool is_inverse_pair(const Gate& g1, const Gate& g2) {
  if (g1.op != g2.op) return false;
  const bool same_order = g1.qb0 == g2.qb0 && g1.qb1 == g2.qb1;
  const bool swapped = g1.qb0 == g2.qb1 && g1.qb1 == g2.qb0;
  if (!same_order && !(swapped && is_symmetric_2q(g1.op))) return false;
  switch (g1.op) {
    case OP::CX:
    case OP::CZ:
    case OP::CY:
    case OP::CH:
    case OP::SWAP:
      return true; // self-inverse
    case OP::CRX:
    case OP::CRY:
    case OP::CRZ:
    case OP::CU1:
    case OP::RXX:
    case OP::RZZ:
      return angles_cancel(g1.theta, g2.theta);
    case OP::CU3:
      return angles_cancel(g1.theta, g2.theta) &&
             angles_cancel(g1.phi, g2.lam) && angles_cancel(g1.lam, g2.phi);
    default:
      return false;
  }
}

/// `m` with basis states |01> and |10> exchanged: the same 2-qubit
/// unitary with its operands written the other way round.
Mat4 swap_operands(const Mat4& m) {
  constexpr int kSwap[4] = {0, 2, 1, 3};
  Mat4 r{};
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) r[kSwap[i] * 4 + kSwap[j]] = m[i * 4 + j];
  }
  return r;
}

/// A block's accumulated 4x4 over |lo hi> (lo the more significant bit),
/// real and imaginary parts apart, so the products run on plain doubles
/// rather than through std::complex's checked multiply (with that, and a
/// whole 4x4 product per 1-qubit member, the pass took about 3x as long).
struct BlockMatrix {
  double re[16] = {1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1};
  double im[16] = {};

  /// this <- M(g)·this for member `g` of circuit `c`. A 1-qubit member
  /// mixes, in each column, the two rows that differ only in its qubit's
  /// bit: half the products of a 4x4 one.
  void apply(const Circuit& c, const Gate& g, IdxType lo) {
    if (g.n_qubits() == 2) {
      const Mat4 u4 = c.unitary_2q(g);
      const Mat4& u = g.qb0 == lo ? u4 : swap_operands(u4);
      double r[16] = {};
      double i[16] = {};
      for (int row = 0; row < 4; ++row) {
        for (int k = 0; k < 4; ++k) {
          const double ur = u[row * 4 + k].real();
          const double ui = u[row * 4 + k].imag();
          for (int j = 0; j < 4; ++j) {
            r[row * 4 + j] += ur * re[k * 4 + j] - ui * im[k * 4 + j];
            i[row * 4 + j] += ur * im[k * 4 + j] + ui * re[k * 4 + j];
          }
        }
      }
      std::copy(r, r + 16, re);
      std::copy(i, i + 16, im);
      return;
    }
    const Mat2 u = matrix_1q(g);
    const int step = g.qb0 == lo ? 2 : 1; // row offset of the |1> partner
    for (const int r0 : {0, 3 - step}) {
      double* const r0r = re + r0 * 4;
      double* const r0i = im + r0 * 4;
      double* const r1r = re + (r0 + step) * 4;
      double* const r1i = im + (r0 + step) * 4;
      for (int j = 0; j < 4; ++j) {
        const double ar = r0r[j], ai = r0i[j], br = r1r[j], bi = r1i[j];
        r0r[j] = u[0].real() * ar - u[0].imag() * ai + u[1].real() * br -
                 u[1].imag() * bi;
        r0i[j] = u[0].real() * ai + u[0].imag() * ar + u[1].real() * bi +
                 u[1].imag() * br;
        r1r[j] = u[2].real() * ar - u[2].imag() * ai + u[3].real() * br -
                 u[3].imag() * bi;
        r1i[j] = u[2].real() * ai + u[2].imag() * ar + u[3].real() * bi +
                 u[3].imag() * br;
      }
    }
  }

  Mat4 matrix() const {
    Mat4 m;
    for (int e = 0; e < 16; ++e) m[e] = Complex{re[e], im[e]};
    return m;
  }
};

/// A run of 1-qubit gates pending on one qubit.
struct Pending {
  Mat2 m = kId2;
  int count = 0;
  Gate first; // emitted verbatim when the run has length 1
};

} // namespace

Gate u3_from_matrix(const Mat2& u, IdxType qubit) {
  SVSIM_CHECK(is_unitary(u, 1e-8), "u3_from_matrix: input is not unitary");
  const ValType a00 = std::abs(u[0]);
  const ValType a10 = std::abs(u[2]);
  const ValType theta = 2.0 * std::atan2(a10, a00);

  ValType phi = 0, lam = 0;
  if (a00 > 1e-12 && a10 > 1e-12) {
    // Strip the global phase so u00 becomes real positive.
    const Complex g = std::conj(u[0]) / a00;
    phi = std::arg(g * u[2]);
    lam = std::arg(-g * u[1]);
  } else if (a00 > 1e-12) {
    // theta ~ 0: diagonal. u3(0, phi, lam) = diag(1, e^{i(phi+lam)}).
    const Complex g = std::conj(u[0]) / a00;
    phi = 0;
    lam = std::arg(g * u[3]);
  } else {
    // theta ~ pi: anti-diagonal. u3(pi, phi, lam) = [[0,-e^{il}],[e^{ip},0]].
    const Complex g = std::conj(u[2]) / a10;
    phi = 0;
    lam = std::arg(-g * u[1]);
  }

  Gate g = make_gate(OP::U3, qubit);
  g.theta = theta;
  g.phi = phi;
  g.lam = lam;
  return g;
}

Circuit fuse_gates(const Circuit& in, FusionStats* stats) {
  FusionStats local;
  local.gates_before = in.n_gates();

  const IdxType n = in.n_qubits();
  std::vector<std::optional<Pending>> pending(static_cast<std::size_t>(n));
  std::vector<Gate> out;
  out.reserve(in.gates().size());
  std::vector<bool> alive;
  alive.reserve(in.gates().size());
  // Index into `out` of the last emitted gate touching each qubit; -1
  // blocks 2-qubit cancellation across it.
  std::vector<long> last2q(static_cast<std::size_t>(n), -1);

  auto emit = [&](const Gate& g) -> long {
    out.push_back(g);
    alive.push_back(true);
    return static_cast<long>(out.size()) - 1;
  };

  auto flush = [&](IdxType q) {
    auto& p = pending[static_cast<std::size_t>(q)];
    if (!p.has_value()) return;
    if (is_identity_up_to_phase(p->m)) {
      local.dropped_identity += p->count;
    } else if (p->count == 1) {
      last2q[static_cast<std::size_t>(q)] = emit(p->first);
    } else {
      local.fused_1q += p->count;
      last2q[static_cast<std::size_t>(q)] = emit(u3_from_matrix(p->m, q));
    }
    p.reset();
  };

  auto flush_all = [&] {
    for (IdxType q = 0; q < n; ++q) flush(q);
  };

  for (const Gate& g : in.gates()) {
    const OpInfo& info = op_info(g.op);
    if (!is_unitary_op(g.op)) {
      // Barrier / measure / reset: hard boundary for both fusion and
      // cancellation.
      flush_all();
      std::fill(last2q.begin(), last2q.end(), -1);
      emit(g);
      continue;
    }
    if (info.n_qubits == 1) {
      if (g.op == OP::ID) {
        ++local.dropped_identity;
        continue;
      }
      auto& p = pending[static_cast<std::size_t>(g.qb0)];
      if (!p.has_value()) {
        p = Pending{};
        p->first = g;
      }
      p->m = matmul(matrix_1q(g), p->m); // later gates multiply on the left
      ++p->count;
      continue;
    }
    // 2-qubit unitary.
    flush(g.qb0);
    flush(g.qb1);
    const long ka = last2q[static_cast<std::size_t>(g.qb0)];
    const long kb = last2q[static_cast<std::size_t>(g.qb1)];
    if (ka >= 0 && ka == kb && alive[static_cast<std::size_t>(ka)] &&
        is_inverse_pair(out[static_cast<std::size_t>(ka)], g)) {
      alive[static_cast<std::size_t>(ka)] = false;
      local.cancelled_2q += 2;
      // Conservative: block further cancellation through this site.
      last2q[static_cast<std::size_t>(g.qb0)] = -1;
      last2q[static_cast<std::size_t>(g.qb1)] = -1;
      continue;
    }
    const long idx = emit(g);
    last2q[static_cast<std::size_t>(g.qb0)] = idx;
    last2q[static_cast<std::size_t>(g.qb1)] = idx;
  }
  flush_all();

  Circuit result(n, CompoundMode::kNative, in.n_cbits());
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (alive[i]) result.append(out[i]);
  }
  local.gates_after = result.n_gates();
  if (stats != nullptr) *stats = local;
  return result;
}

Circuit fuse_pairs(const Circuit& in, IdxType lg_part, SweepAmps amps,
                   FusionStats* stats) {
  const IdxType n = in.n_qubits();
  const auto& gates = in.gates();
  const auto at = [](IdxType q) { return static_cast<std::size_t>(q); };
  /// The open block on the pair (lo, hi), kept at index lo: its members
  /// (input indices in program order) and their summed modeled
  /// amplitudes. Each qubit's slot and pending list keep their storage
  /// from block to block.
  struct Block {
    IdxType hi = -1;
    std::vector<std::size_t> members;
    double amps = 0;
  };
  std::vector<Block> blocks(at(n));
  std::vector<IdxType> block_of(at(n), -1); // lo of q's open block
  std::vector<std::vector<std::size_t>> pending(at(n));
  Circuit out(n, CompoundMode::kNative, in.n_cbits());
  const double dense_sweep =
      n >= 2 ? amps(make_gate(OP::DENSE2, 0, 1), n) : 0;

  const auto emit = [&](std::size_t k) {
    const Gate& g = gates[k];
    if (g.op == OP::DENSE2) {
      out.dense2(in.dense_matrix(g), g.qb0, g.qb1);
    } else {
      out.append_raw(g);
    }
  };
  const auto flush = [&](IdxType q) {
    for (const std::size_t k : pending[at(q)]) emit(k);
    pending[at(q)].clear();
  };
  const auto join = [&](Block& blk, std::size_t k) {
    blk.members.push_back(k);
    blk.amps += amps(gates[k], n);
  };
  const auto close = [&](IdxType q) {
    const IdxType lo = block_of[at(q)];
    if (lo < 0) return;
    Block& blk = blocks[at(lo)];
    block_of[at(lo)] = -1;
    block_of[at(blk.hi)] = -1;
    if (blk.members.size() >= 2 && blk.amps >= kDenseSweeps * dense_sweep) {
      // Program order g1; g2 composes as M(g2)·M(g1).
      BlockMatrix m;
      for (const std::size_t k : blk.members) m.apply(in, gates[k], lo);
      out.dense2(m.matrix(), lo, blk.hi);
      if (stats != nullptr) {
        ++stats->dense_blocks;
        stats->dense_absorbed += static_cast<IdxType>(blk.members.size());
      }
    } else {
      for (const std::size_t k : blk.members) emit(k);
    }
    blk.members.clear();
    blk.amps = 0;
  };

  for (std::size_t k = 0; k < gates.size(); ++k) {
    const Gate& g = gates[k];
    if (!is_unitary_op(g.op)) {
      for (IdxType q = 0; q < n; ++q) {
        close(q);
        flush(q);
      }
      out.append_raw(g);
      continue;
    }
    const IdxType id = block_of[at(g.qb0)];
    if (g.n_qubits() == 1) {
      if (id >= 0) {
        join(blocks[at(id)], k);
      } else {
        pending[at(g.qb0)].push_back(k);
      }
      continue;
    }
    if (id >= 0 && id == block_of[at(g.qb1)]) {
      join(blocks[at(id)], k);
      continue;
    }
    close(g.qb0);
    close(g.qb1);
    if (g.qb0 >= lg_part || g.qb1 >= lg_part) {
      flush(g.qb0);
      flush(g.qb1);
      emit(k);
      continue;
    }
    // Open a block on the pair with the 1-qubit gates held on either
    // qubit, merged into program order.
    const IdxType lo = std::min(g.qb0, g.qb1);
    const IdxType hi = std::max(g.qb0, g.qb1);
    Block& blk = blocks[at(lo)];
    blk.hi = hi;
    auto& on_lo = pending[at(lo)];
    auto& on_hi = pending[at(hi)];
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < on_lo.size() || j < on_hi.size()) {
      const bool take_lo =
          j == on_hi.size() || (i < on_lo.size() && on_lo[i] < on_hi[j]);
      join(blk, take_lo ? on_lo[i++] : on_hi[j++]);
    }
    on_lo.clear();
    on_hi.clear();
    join(blk, k);
    block_of[at(lo)] = lo;
    block_of[at(hi)] = lo;
  }
  for (IdxType q = 0; q < n; ++q) {
    close(q);
    flush(q);
  }
  return out;
}

} // namespace svsim
