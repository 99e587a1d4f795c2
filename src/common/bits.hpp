// Bit/index arithmetic for state-vector addressing.
//
// These implement the strided index maps of the paper's Eq. (1) and
// Eq. (2): for a 1-qubit gate on qubit q, the i-th amplitude *pair* lives
// at (s_i, s_i + 2^q); for a 2-qubit gate on p < q, the i-th quadruple
// lives at (s_i, s_i+2^p, s_i+2^q, s_i+2^p+2^q). Every backend (single
// device, peer scale-up, SHMEM scale-out) uses the same maps — only the
// address space behind the index differs.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace svsim {

/// log2 of a power-of-two value.
inline constexpr IdxType log2_exact(IdxType v) {
  return static_cast<IdxType>(std::countr_zero(static_cast<std::uint64_t>(v)));
}

inline constexpr bool is_pow2(IdxType v) {
  return v > 0 && (v & (v - 1)) == 0;
}

/// 2^e as an IdxType.
inline constexpr IdxType pow2(IdxType e) { return IdxType{1} << e; }

/// Eq. (1): base index of the i-th amplitude pair for a 1-qubit gate on
/// qubit q. i ranges over [0, 2^(n-1)); the pair is (s, s + 2^q).
///   s_i = floor(i / 2^q) * 2^(q+1) + (i mod 2^q)
inline constexpr IdxType pair_base(IdxType i, IdxType q) {
  const IdxType mask = pow2(q) - 1;
  return ((i >> q) << (q + 1)) | (i & mask);
}

/// Eq. (2): base index of the i-th amplitude quadruple for a 2-qubit gate
/// on qubits p < q. i ranges over [0, 2^(n-2)); the quadruple is
/// (s, s+2^p, s+2^q, s+2^p+2^q).
///   s_i = floor(floor(i/2^p) / 2^(q-p-1)) * 2^(q+1)
///       + (floor(i/2^p) mod 2^(q-p-1)) * 2^(p+1)
///       + (i mod 2^p)
inline constexpr IdxType quad_base(IdxType i, IdxType p, IdxType q) {
  const IdxType ip = i >> p;                   // floor(i / 2^p)
  const IdxType low = i & (pow2(p) - 1);       // i mod 2^p
  const IdxType midbits = q - p - 1;
  const IdxType hi = ip >> midbits;            // floor(ip / 2^(q-p-1))
  const IdxType mid = ip & (pow2(midbits) - 1);
  return (hi << (q + 1)) | (mid << (p + 1)) | low;
}

/// True if amplitude index `idx` has qubit `q` set (i.e. the basis state
/// has |1> on that qubit).
inline constexpr bool qubit_set(IdxType idx, IdxType q) {
  return ((idx >> q) & 1) != 0;
}

/// Number of amplitude pairs a 1-qubit gate touches in an n-qubit register.
inline constexpr IdxType half_dim(IdxType n) { return pow2(n - 1); }

/// Scatter the bits of an n-bit index through a qubit permutation:
/// bit b of `index` lands at position layout[b] of the result. With
/// layout[logical] = physical this maps a logical basis state to the
/// physical amplitude index that holds it.
inline constexpr IdxType permute_bits(IdxType index, const IdxType* layout,
                                      IdxType n) {
  IdxType out = 0;
  for (IdxType b = 0; b < n; ++b) {
    if ((index >> b) & 1) out |= pow2(layout[b]);
  }
  return out;
}

/// permute_bits by table, for sweeps that permute every index under one
/// layout: table k maps byte k of the index (bits [8k, 8k+8)) to those
/// bits already scattered through the layout, so one permutation is
/// ⌈n/8⌉ lookups and ORs instead of n bit tests. Equal to
/// permute_bits(index, layout, n) for every index < 2^n. The tables'
/// images share no bit, so a sweep in order can split the index at its
/// lowest byte: index (hi << kLowBits) | lo maps to
/// (*this)(hi << kLowBits) | low()[lo], one permutation per 256 indices.
class BitPermutation {
public:
  static constexpr IdxType kLowBits = 8;

  BitPermutation(const IdxType* layout, IdxType n)
      : tables_(static_cast<std::size_t>((n + 7) / 8)) {
    for (std::size_t k = 0; k < tables_.size(); ++k) {
      std::array<IdxType, 256>& tab = tables_[k];
      tab[0] = 0;
      for (unsigned v = 1; v < 256; ++v) {
        // v's lowest set bit added to the entry of v without it.
        const auto b = static_cast<IdxType>(8 * k) + std::countr_zero(v);
        tab[v] = tab[v & (v - 1)] | (b < n ? pow2(layout[b]) : 0);
      }
    }
  }

  IdxType operator()(IdxType index) const {
    IdxType out = 0;
    for (std::size_t k = 0; k < tables_.size(); ++k) {
      out |= tables_[k][static_cast<std::size_t>(index >> (8 * k)) & 0xff];
    }
    return out;
  }

  /// The lowest byte's table: low()[lo] = (*this)(lo) for lo < 256.
  const IdxType* low() const { return tables_[0].data(); }

private:
  std::vector<std::array<IdxType, 256>> tables_;
};

/// Number of amplitude quadruples a 2-qubit gate touches.
inline constexpr IdxType quarter_dim(IdxType n) { return pow2(n - 2); }

} // namespace svsim
