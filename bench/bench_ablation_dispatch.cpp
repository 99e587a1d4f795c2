// Ablation: gate dispatch strategies (google-benchmark).
//
// The paper's core single-device design decision (Listing 1) is
// function-pointer dispatch preloaded at upload time, versus (a) a runtime
// switch on the gate kind per execution ("parse & branch in the kernel",
// the forced HIP path), and (b) classic virtual dispatch (unavailable in
// CUDA/HIP, shown for reference). All three run the identical kernel
// bodies over the identical circuit.
#include <benchmark/benchmark.h>

#include <memory>

#include "circuits/qasmbench.hpp"
#include "core/dispatch.hpp"
#include "core/space.hpp"

namespace {

using namespace svsim;

constexpr IdxType kQubits = 6; // small state: dispatch cost visible vs kernel work

struct Fixture {
  Fixture()
      : circuit(circuits::random_circuit(kQubits, 4000, 99)),
        real(static_cast<std::size_t>(pow2(kQubits))),
        imag(static_cast<std::size_t>(pow2(kQubits))) {
    real[0] = 1.0;
  }

  LocalSpace space() {
    LocalSpace sp;
    sp.real = real.data();
    sp.imag = imag.data();
    sp.dim = pow2(kQubits);
    return sp;
  }

  /// The state as the solo kernels address it: one array for every role.
  kernels::RoleBases roles() {
    return kernels::RoleBases::one(real.data(), imag.data(), pow2(kQubits));
  }

  Circuit circuit;
  AlignedBuffer<ValType> real;
  AlignedBuffer<ValType> imag;
};

// --- (1) function-pointer dispatch: the Listing 1 design ---
void BM_dispatch_function_pointer(benchmark::State& state) {
  Fixture fx;
  const auto dev =
      upload_circuit<LocalSpace>(fx.circuit, KernelTable<LocalSpace>::get());
  const LocalSpace sp = fx.space();
  for (auto _ : state) {
    for (const auto& dg : dev.gates) {
      dg.fn(dg.ug, sp, 0, dg.work);
    }
    benchmark::DoNotOptimize(fx.real[1]);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(dev.gates.size()));
}
BENCHMARK(BM_dispatch_function_pointer);

// --- (2) runtime branch on the gate kind per gate ("parse & branch") ---
void BM_dispatch_runtime_switch(benchmark::State& state) {
  Fixture fx;
  // Uploaded only for the coefficient rows; the kernel is chosen per
  // execution by comparing the op against the pattern × body list.
  const auto dev =
      upload_circuit<LocalSpace>(fx.circuit, KernelTable<LocalSpace>::get());
  const auto at = fx.roles();
  for (auto _ : state) {
    for (const auto& dg : dev.gates) {
      kernels::for_each_unitary([&]<OP op, kernels::Pat P, class B>() {
        if (dg.ug.g.op == op) {
          kernels::solo_kernel<P, B, kernels::ScalarLane>(dg.ug, at, 0,
                                                          dg.work);
        }
      });
    }
    benchmark::DoNotOptimize(fx.real[1]);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(dev.gates.size()));
}
BENCHMARK(BM_dispatch_runtime_switch);

// --- (3) virtual dispatch (reference point; impossible on GPU) ---
struct VirtualGate {
  virtual ~VirtualGate() = default;
  virtual void exec(const kernels::RoleBases& at, IdxType work) const = 0;
};

template <kernels::Pat P, class B>
struct VirtualGateImpl final : VirtualGate {
  explicit VirtualGateImpl(const UGate& g) : gate(g) {}
  void exec(const kernels::RoleBases& at, IdxType work) const override {
    kernels::solo_kernel<P, B, kernels::ScalarLane>(gate, at, 0, work);
  }
  UGate gate;
};

std::unique_ptr<VirtualGate> make_virtual(const UGate& ug) {
  std::unique_ptr<VirtualGate> out;
  kernels::for_each_unitary([&]<OP op, kernels::Pat P, class B>() {
    if (ug.g.op == op) {
      out = std::make_unique<VirtualGateImpl<P, B>>(ug);
    }
  });
  return out;
}

void BM_dispatch_virtual(benchmark::State& state) {
  Fixture fx;
  const auto dev =
      upload_circuit<LocalSpace>(fx.circuit, KernelTable<LocalSpace>::get());
  std::vector<std::unique_ptr<VirtualGate>> vgates;
  std::vector<IdxType> works;
  for (const auto& dg : dev.gates) {
    auto vg = make_virtual(dg.ug);
    if (vg) {
      vgates.push_back(std::move(vg));
      works.push_back(dg.work);
    }
  }
  const auto at = fx.roles();
  for (auto _ : state) {
    for (std::size_t i = 0; i < vgates.size(); ++i) {
      vgates[i]->exec(at, works[i]);
    }
    benchmark::DoNotOptimize(fx.real[1]);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(vgates.size()));
}
BENCHMARK(BM_dispatch_virtual);

} // namespace

BENCHMARK_MAIN();
