#include "core/pipeline.hpp"

#include <algorithm>
#include <optional>

#include "common/bits.hpp"
#include "machine/model.hpp"
#include "obs/memtrack.hpp"
#include "obs/trace.hpp"
#include "obs/waitstate.hpp"

namespace svsim {

void start_report(obs::RunReport& rep, const char* backend, IdxType n_qubits,
                  int n_workers, const Circuit& circuit, IdxType batch) {
  rep = obs::RunReport{};
  rep.backend = backend;
  rep.n_qubits = n_qubits;
  rep.n_workers = n_workers;
  rep.batch = static_cast<int>(batch);
  obs::tally_gates(rep, circuit);
}

LoopBracket::LoopBracket(obs::RunReport& rep, bool roofline,
                         obs::ProgressBoard* progress, const Circuit& exec,
                         const Schedule* sched, IdxType batch,
                         const std::vector<obs::SlotCost>* slots)
    : rep_(rep),
      progress_(progress),
      roofline_(roofline),
      model_(!roofline_ && progress_ == nullptr ? obs::RunModel{}
             : slots != nullptr
                 ? obs::model_run_batched(exec, sched, batch, *slots)
                 : obs::model_run(exec, sched)),
      counters_(roofline_) {
  if (progress_ != nullptr) {
    progress_->begin_run(rep.backend.c_str(), rep.n_qubits, rep.n_workers,
                         model_.bytes_prefix, model_.amps_prefix, batch);
  }
}

void LoopBracket::mark_rss() {
  if (!obs::Trace::global().enabled()) return;
  const std::uint64_t rss = obs::MemRegistry::global().sample_rss();
  if (rss != 0) {
    obs::Trace::global().flush_counter("mem", "rss_mb", obs::trace_now_us(),
                                       static_cast<double>(rss) / 1e6);
  }
}

void LoopBracket::fold_roofline() {
  if (!roofline_) return;
  obs::fold_roofline(rep_, model_, counters_.sample(),
                     machine::host_peak_gbps(rep_.n_workers),
                     rep_.backend.c_str(), t0_us_, obs::trace_now_us());
}

void LoopBracket::end() {
  if (progress_ != nullptr) progress_->end_run(obs::to_json(rep_));
}

Simulator::Run::Run(Simulator& sim, const Circuit& circuit,
                    obs::Counter& runs, Shape shape)
    : sim_(sim),
      circuit_(circuit),
      shape_(shape),
      progress_(obs::maybe_start_httpd(sim.sw_.http_port,
                                       sim.sw_.progress)) {
  SVSIM_CHECK(circuit.n_qubits() == sim.n_qubits(),
              "circuit width != simulator width");
  runs.add();
  start_report(sim.report_, sim.name(), sim.n_qubits(), shape.n_workers,
               circuit);
  sim.flight_workers_ = 0;
  // Legal QASM may declare more classical bits than qubits (`creg c[6]`
  // on two qubits, or several cregs): widen the register, zero-filled,
  // and never shrink it.
  if (circuit.n_cbits() > static_cast<IdxType>(sim.cbits_.size())) {
    sim.cbits_.resize(static_cast<std::size_t>(circuit.n_cbits()), 0);
    sim.mctx_.cbits = sim.cbits_.data();
  }

  // Communication-avoiding remap (ir/remap) on partitioned backends, when
  // the pass resolves on (RunSwitches::remap_on: auto = multi-PE) and
  // applies (more than one PE, at least two node-local index bits):
  // hot qubits move below lg_part so gates run PE-local, seeded with the
  // persistent layout; readout is virtually permuted through the
  // per-measure-all layout snapshots instead of physically restored.
  sim.ma_layouts_.clear();
  const IdxType local_bits = sim.parts_.lg_part;
  const RunSwitches& sw = sim.sw_;
  if (shape.partitioned && sw.remap_on(shape.n_workers)) {
    obs::RemapStats& st = sim.report_.remap;
    st.enabled = true;
    if (shape.n_workers > 1 && local_bits >= 2) {
      rm_ = std::make_unique<RemapResult>(remap_for_partition(
          circuit, local_bits, 64,
          sim.layout_.empty() ? nullptr : &sim.layout_));
      sim.layout_ = rm_->layout;
      sim.ma_layouts_ = std::move(rm_->ma_layouts);
      st.active = true;
      st.local_bits = static_cast<int>(local_bits);
      st.swaps_inserted = static_cast<std::uint64_t>(rm_->swaps_inserted);
      // The model prices both sides: the input under the identity layout,
      // and the emitted circuit with its swaps.
      st.modeled_remote_bytes_before = obs::remote_bytes(circuit, local_bits);
      st.modeled_remote_bytes_after =
          obs::remote_bytes(rm_->circuit, local_bits);
    }
  }
  sim.mctx_.ma_layouts =
      sim.ma_layouts_.empty() ? nullptr : sim.ma_layouts_.data();

  if (sw.profile) {
    rec_ = std::make_unique<obs::GateRecorder>(
        shape.n_workers, obs::Trace::global().enabled());
  }
  if (sw.health.every_n > 0) {
    health_ = std::make_unique<obs::HealthMonitor>(sw.health);
  }
  // The process flight recorder, unless the run's switch turned it off.
  if (sw.flight) {
    flight_ = &obs::FlightRecorder::global();
    flight_->begin_run(sim.name(), sim.n_qubits(), shape.n_workers);
  }
  if (shape.partitioned && sw.waitstats) {
    waits_ = std::make_unique<obs::WaitRecorder>(shape.n_workers);
  }
  planes_ =
      RunPlanes{rec_.get(), health_.get(), flight_, progress_, sw.simd};
}

// --- Simulator: the state surface shared by every backend ---------------

Simulator::Simulator(IdxType n_qubits, const SimConfig& cfg)
    : cfg_(cfg), sw_(resolve(cfg)),
      cbits_(static_cast<std::size_t>(n_qubits), 0) {
  mctx_.cbits = cbits_.data();
  mctx_.n_qubits = n_qubits;
}

void Simulator::reset_partitions() {
  const auto per = static_cast<std::size_t>(pow2(parts_.lg_part));
  for (std::size_t p = 0; p < parts_.real.size(); ++p) {
    std::fill(parts_.real[p], parts_.real[p] + per, ValType{0});
    std::fill(parts_.imag[p], parts_.imag[p] + per, ValType{0});
  }
  parts_.real[0][0] = 1.0;
  std::fill(cbits_.begin(), cbits_.end(), 0);
  layout_.clear();
}

StateVector Simulator::state() const {
  const IdxType n = n_qubits();
  StateVector sv(n);
  // Undo the remap layout virtually: physical amplitude index k holds
  // logical basis state permute_bits(k, inverse, n).
  std::optional<BitPermutation> to_logical;
  if (!layout_.empty()) {
    std::vector<IdxType> inv(static_cast<std::size_t>(n));
    for (IdxType l = 0; l < n; ++l) {
      inv[static_cast<std::size_t>(layout_[static_cast<std::size_t>(l)])] = l;
    }
    to_logical.emplace(inv.data(), n);
  }
  const IdxType per = pow2(parts_.lg_part);
  for (std::size_t p = 0; p < parts_.real.size(); ++p) {
    const ValType* re = parts_.real[p];
    const ValType* im = parts_.imag[p];
    const IdxType base = static_cast<IdxType>(p) * per;
    if (!to_logical) {
      Complex* out = sv.amps.data() + base;
      for (IdxType k = 0; k < per; ++k) out[k] = Complex{re[k], im[k]};
    } else {
      for (IdxType k = 0; k < per; ++k) {
        sv.amps[static_cast<std::size_t>((*to_logical)(base + k))] =
            Complex{re[k], im[k]};
      }
    }
  }
  return sv;
}

void Simulator::load_state(const StateVector& sv) {
  SVSIM_CHECK(sv.n_qubits == n_qubits(), "state width mismatch");
  layout_.clear(); // loaded amplitudes are in natural (logical) order
  const IdxType per = pow2(parts_.lg_part);
  for (std::size_t p = 0; p < parts_.real.size(); ++p) {
    const Complex* in = sv.amps.data() + static_cast<IdxType>(p) * per;
    ValType* re = parts_.real[p];
    ValType* im = parts_.imag[p];
    for (IdxType k = 0; k < per; ++k) {
      re[k] = in[k].real();
      im[k] = in[k].imag();
    }
  }
}

std::vector<IdxType> Simulator::sample(IdxType shots) {
  SVSIM_CHECK(shots >= 0, "shot count must be >= 0");
  results_.assign(static_cast<std::size_t>(shots), 0);
  mctx_.results = results_.data();
  mctx_.n_shots = shots;
  Circuit c(n_qubits());
  c.measure_all();
  run(c);
  mctx_.results = nullptr;
  mctx_.n_shots = 0;
  return results_;
}

const obs::RunReport& Simulator::last_report() const {
  if (flight_workers_ > 0) {
    report_.flight = obs::FlightRecorder::global().drain(flight_workers_);
    flight_workers_ = 0;
  }
  // Memory is folded lazily like the flight drain: the registry
  // snapshot + one synchronous RSS sample per report request, never
  // per run().
  if (!report_.backend.empty()) obs::fold_memory(report_);
  return report_;
}

} // namespace svsim
