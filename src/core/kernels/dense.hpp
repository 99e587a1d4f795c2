// The one generic dense body of the two baselines: a 2^K x 2^K complex
// matrix (K = 1, 2; row-major over the basis |q0 q1> of ir/matrices.hpp,
// q0 the more significant bit) applied to every operand group of one
// 2^lg-amplitude partition by gather, dense multiply and scatter, with no
// specialization by gate kind (the contrast the paper's §3.2.1 draws).
//
// GeneralizedSim runs it on its one partition (lg = n). A CoarseMsgSim
// rank runs it on its own partition after the whole-partition exchange:
// an operand at or above lg is a rank-index bit, fixed across the
// partition, so a group's amplitudes whose rank bits differ from this
// partition's are read from the copy received from that rank, and only
// the rows this partition owns are written.
#pragma once

#include <array>
#include <cstddef>
#include <utility>

#include "common/bits.hpp"
#include "common/types.hpp"

namespace svsim::kernels {

/// Combination k of a K-operand gate sets operand j when bit K-1-j of k
/// is set. The combination bits of the operands at or above lg: the
/// partitions `part` exchanges with are those reached by flipping the
/// rank bits of a non-empty subset f of them (dense_partner).
template <std::size_t K>
int dense_remote_bits(const std::array<IdxType, K>& q, IdxType lg) {
  int bits = 0;
  for (std::size_t j = 0; j < K; ++j) {
    if (q[j] >= lg) bits |= 1 << (K - 1 - j);
  }
  return bits;
}

/// The partition reached from `part` by flipping the rank bits of the
/// operands in combination bits `f` (all at or above lg).
template <std::size_t K>
IdxType dense_partner(const std::array<IdxType, K>& q, IdxType lg,
                      IdxType part, int f) {
  for (std::size_t j = 0; j < K; ++j) {
    if ((f >> (K - 1 - j)) & 1) part ^= pow2(q[j] - lg);
  }
  return part;
}

/// Apply `m` to distinct operands `q` of partition `part` (storage
/// `re`/`im`, updated in place). `copy_re[f]`/`copy_im[f]` (f >= 1) hold
/// the partition dense_partner(q, lg, part, f) for every non-empty subset
/// f of dense_remote_bits(q, lg); with every operand below lg none is read.
template <std::size_t K>
void apply_dense(const std::array<Complex, (std::size_t{1} << (2 * K))>& m,
                 const std::array<IdxType, K>& q, IdxType lg, IdxType part,
                 ValType* re, ValType* im,
                 const std::array<const ValType*, (1 << K)>& copy_re = {},
                 const std::array<const ValType*, (1 << K)>& copy_im = {}) {
  constexpr int D = 1 << K;
  const int remote = dense_remote_bits(q, lg);
  int mine = 0; // this partition's values of the remote operands' bits
  IdxType low[2] = {};
  int n_low = 0;
  for (std::size_t j = 0; j < K; ++j) {
    if (q[j] >= lg) {
      if (qubit_set(part, q[j] - lg)) mine |= 1 << (K - 1 - j);
    } else {
      low[n_low++] = q[j];
    }
  }
  if (n_low == 2 && low[0] > low[1]) std::swap(low[0], low[1]);
  // Combination k's amplitude sits at offset off[k] from its group's base
  // in the copy from[k] (0 = this partition), which owns row k when 0.
  IdxType off[D] = {};
  int from[D];
  const ValType* src_re[D];
  const ValType* src_im[D];
  for (int k = 0; k < D; ++k) {
    for (std::size_t j = 0; j < K; ++j) {
      if (q[j] < lg && ((k >> (K - 1 - j)) & 1)) off[k] += pow2(q[j]);
    }
    from[k] = (k ^ mine) & remote;
    src_re[k] = from[k] == 0 ? re : copy_re[static_cast<std::size_t>(from[k])];
    src_im[k] = from[k] == 0 ? im : copy_im[static_cast<std::size_t>(from[k])];
  }
  const IdxType groups = pow2(lg - n_low);
  for (IdxType i = 0; i < groups; ++i) {
    const IdxType s = n_low == 0   ? i
                      : n_low == 1 ? pair_base(i, low[0])
                                   : quad_base(i, low[0], low[1]);
    Complex v[D];
    for (int k = 0; k < D; ++k) {
      v[k] = Complex{src_re[k][s + off[k]], src_im[k][s + off[k]]};
    }
    for (int r = 0; r < D; ++r) {
      if (from[r] != 0) continue; // its owner writes that row
      Complex acc = 0;
      for (int c = 0; c < D; ++c) {
        acc += m[static_cast<std::size_t>(r * D + c)] * v[c];
      }
      re[s + off[r]] = acc.real();
      im[s + off[r]] = acc.imag();
    }
  }
}

} // namespace svsim::kernels
