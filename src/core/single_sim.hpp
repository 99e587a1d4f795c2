// SingleSim: the single-device backend (§3.2.1).
//
// Homogeneous execution: the whole circuit runs as one simulation-kernel
// loop of preloaded function pointers; specialized kernels per gate; and
// optionally the AVX2/AVX-512 kernel table (Listing 2: the same gate
// bodies, W work items per vector by gather/scatter) selected at
// construction.
#pragma once

#include "common/aligned.hpp"
#include "common/config.hpp"
#include "common/rng.hpp"
#include "core/dispatch.hpp"
#include "core/simulator.hpp"
#include "core/space.hpp"

namespace svsim {

/// Kernel table for LocalSpace at a given SIMD level: every unitary op
/// through that level's lane policy, the non-unitary ops scalar. Throws
/// when the build lacks the level.
const KernelTable<LocalSpace>::Table& local_kernel_table(SimdLevel level);

class SingleSim final : public Simulator {
public:
  explicit SingleSim(IdxType n_qubits, SimConfig cfg = {});

  const char* name() const override { return "single"; }
  IdxType n_qubits() const override { return n_; }
  void reset_state() override;
  void run(const Circuit& circuit) override;

  /// Direct (mutable) access to the amplitude arrays — used by tests that
  /// prepare arbitrary states and by the micro-benchmarks.
  ValType* real() { return real_.data(); }
  ValType* imag() { return imag_.data(); }
  IdxType dim() const { return dim_; }

  SimdLevel simd_level() const { return cfg_.simd; }

private:
  LocalSpace make_space();

  IdxType n_;
  IdxType dim_;
  obs::TrackedBuffer<ValType> real_;
  obs::TrackedBuffer<ValType> imag_;
  Rng rng_;
  const KernelTable<LocalSpace>::Table* table_; // preloaded at construction
};

} // namespace svsim
