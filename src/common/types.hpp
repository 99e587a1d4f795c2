// Fundamental value types shared by every SV-Sim subsystem.
//
// The paper stores the state vector as two separate double arrays
// (sv_real / sv_imag, a structure-of-arrays layout) rather than an array of
// std::complex, because the specialized gate kernels frequently touch only
// one component and SoA keeps every SIMD lane one amplitude's real or
// imaginary part, so whole vectors load and permute per array. We keep the
// paper's type names: ValType for amplitudes, IdxType for indices.
#pragma once

#include <complex>
#include <cstdint>

namespace svsim {

/// Amplitude component type (the paper uses double precision throughout:
/// a 2^n state vector costs 16 * 2^n bytes).
using ValType = double;

/// Index type: amplitude indices go up to 2^n and must survive shifts by
/// the qubit position, so a 64-bit signed integer matching the paper.
using IdxType = std::int64_t;

/// Convenience alias for frontend-facing complex amplitudes.
using Complex = std::complex<ValType>;

/// 1/sqrt(2), the constant the paper calls S2I (used by H, T, TDG, U2...).
inline constexpr ValType S2I = 0.70710678118654752440;

/// Pi to full double precision (OpenQASM expressions use it heavily).
inline constexpr ValType PI = 3.14159265358979323846;

/// Default tolerance for floating-point comparisons in tests and
/// verification helpers (norm checks, unitarity checks).
inline constexpr ValType EPS = 1e-10;

} // namespace svsim
