// SingleSim: the single-device backend (§3.2.1).
//
// Homogeneous execution: the whole circuit runs as one simulation-kernel
// loop of preloaded function pointers; specialized kernels per gate; and
// the kernel table of the resolved lane level (RunSwitches::simd, widest
// by default) selected at construction — at AVX2/AVX-512 the same gate
// bodies carry W work items per vector by gather/scatter (Listing 2).
#pragma once

#include "common/aligned.hpp"
#include "common/config.hpp"
#include "common/rng.hpp"
#include "core/dispatch.hpp"
#include "core/simulator.hpp"
#include "core/space.hpp"

namespace svsim {

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

  SimdLevel simd_level() const { return sw_.simd; }

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
