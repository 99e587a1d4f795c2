#include "core/shmem_sim.hpp"

#include "core/pipeline.hpp"

namespace svsim {

namespace {
std::size_t default_heap_bytes(IdxType n_qubits, int n_pes) {
  // Two ValType arrays of 2^n / n_pes amplitudes each, plus slack for
  // alignment.
  const std::size_t per_pe =
      static_cast<std::size_t>(pow2(n_qubits)) / static_cast<std::size_t>(n_pes);
  return per_pe * 2 * sizeof(ValType) + (1u << 16);
}
} // namespace

ShmemSim::ShmemSim(IdxType n_qubits, int n_pes, SimConfig cfg,
                   std::size_t heap_bytes)
    : Simulator(n_qubits, cfg),
      n_(n_qubits),
      dim_(obs::admit_dim("shmem", n_qubits, n_pes, 1, sw_.mem_limit)),
      n_pes_(n_pes),
      runtime_(n_pes, heap_bytes != 0 ? heap_bytes
                                      : default_heap_bytes(n_qubits, n_pes)) {
  SVSIM_CHECK(dim_ >= n_pes, "more PEs than amplitudes");
  parts_.lg_part = n_ - log2_exact(n_pes);

  // The state planes live inside the symmetric-heap arenas; register
  // each PE's whole arena (the shmem layer itself cannot link obs).
  mem_ids_.reserve(static_cast<std::size_t>(n_pes_));
  for (int pe = 0; pe < n_pes_; ++pe) {
    mem_ids_.push_back(obs::MemRegistry::global().track(
        obs::MemTag::kShmemHeap, runtime_.arena_base(pe),
        runtime_.heap_bytes(), pe));
  }

  parts_.real.assign(static_cast<std::size_t>(n_pes_), nullptr);
  parts_.imag.assign(static_cast<std::size_t>(n_pes_), nullptr);
  rngs_.assign(static_cast<std::size_t>(n_pes_), Rng(cfg.seed));
  tallies_ = WorkerRows(n_pes_, 2 * static_cast<std::size_t>(n_pes_));

  // Setup "job": symmetric allocation of the partitioned state vector
  // (Listing 5 lines 23-24) and |0...0> initialization. PE 0 resolves
  // every PE's partition once through Ctx::ptr (the shmem_ptr analogue):
  // the bases every gate range addresses directly.
  const auto per_pe = static_cast<std::size_t>(pow2(parts_.lg_part));
  runtime_.run([&](shmem::Ctx& ctx) {
    ValType* r = ctx.malloc_sym<ValType>(per_pe);
    ValType* i = ctx.malloc_sym<ValType>(per_pe);
    if (ctx.pe() == 0) {
      for (int pe = 0; pe < n_pes_; ++pe) {
        parts_.real[static_cast<std::size_t>(pe)] = ctx.ptr(r, pe, per_pe);
        parts_.imag[static_cast<std::size_t>(pe)] = ctx.ptr(i, pe, per_pe);
      }
      r[0] = 1.0;
    }
    ctx.barrier_all();
  });
}

ShmemSim::~ShmemSim() {
  for (const std::uint64_t id : mem_ids_) {
    obs::MemRegistry::global().untrack(id);
  }
}

void ShmemSim::reset_state() {
  reset_partitions();
  for (auto& rng : rngs_) rng.reseed(cfg_.seed);
}

void ShmemSim::run(const Circuit& circuit) {
  static obs::Counter& runs = obs::Registry::global().counter("runs.shmem");
  run_dispatch<ShmemSpace>(
      circuit, runs, Shape{n_pes_, true},
      kernel_table<ShmemSpace>(sw_.simd),
      [&](const auto& body) {
        runtime_.run([&](shmem::Ctx& ctx) {
          ShmemSpace sp;
          sp.ctx = &ctx;
          sp.real_sym = parts_.real[static_cast<std::size_t>(ctx.pe())];
          sp.imag_sym = parts_.imag[static_cast<std::size_t>(ctx.pe())];
          sp.real_parts = parts_.real.data();
          sp.imag_parts = parts_.imag.data();
          sp.lg_part = parts_.lg_part;
          sp.tally = tallies_.row(ctx.pe());
          sp.dim = dim_;
          sp.mctx = &mctx_;
          sp.rng = &rngs_[static_cast<std::size_t>(ctx.pe())];
          body(sp);
        });
      },
      [&](obs::RunReport& rep) {
        last_traffic_ = runtime_.aggregate_traffic();
        rep.comm.add_shmem(last_traffic_);
        rep.matrix.n = n_pes_;
        rep.matrix.bytes = runtime_.traffic_matrix();
      });
}

} // namespace svsim
