#include "workloads.hpp"

#include <cmath>
#include <functional>

#include "common/bits.hpp"
#include "core/shmem_sim.hpp"
#include "core/single_sim.hpp"
#include "inputs.hpp"
#include "ir/remap.hpp"
#include "qasm/parser.hpp"
#include "testing/oracle.hpp"
#include "vqa/ansatz.hpp"
#include "vqa/batched.hpp"

namespace perfbench {

namespace {

using svsim::Circuit;
using svsim::ShmemSim;
using svsim::SingleSim;

constexpr IdxType kShots = 1024;

// --- helpers shared by the workloads ---

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 0x100000001b3ULL;
  }
  template <class T> void add(const T& v) { add(&v, sizeof v); }
};

std::uint64_t digest(const Circuit& c) {
  Fnv f;
  for (const svsim::Gate& g : c.gates()) {
    f.add(g.op);
    f.add(g.qb0);
    f.add(g.qb1);
    f.add(g.theta);
    f.add(g.phi);
    f.add(g.lam);
  }
  return f.h;
}

ReportRead read_report(const svsim::obs::RunReport& r, int members) {
  ReportRead o;
  o.loop_s = r.wall_seconds;
  o.gates = r.total_gates;
  o.n_qubits = static_cast<int>(r.n_qubits);
  o.members = members;
  o.sched_windows = r.sched.windows;
  o.sched_windowed_gates = r.sched.windowed_gates;
  o.remap_swaps = r.remap.swaps_inserted;
  if (r.remap.modeled_remote_bytes_before > 0) {
    o.remap_bytes_ratio =
        static_cast<double>(r.remap.modeled_remote_bytes_after) /
        static_cast<double>(r.remap.modeled_remote_bytes_before);
  }
  o.remote_bytes = r.matrix.empty() ? 0 : r.matrix.remote_total();
  o.remote_ops = r.comm.remote_ops;
  o.local_ops = r.comm.local_ops;
  o.barriers = r.comm.barriers;
  o.wait_frac = r.waitstate.wait_fraction;
  o.imbalance = r.waitstate.imbalance;
  o.tracked_peak = r.memory.tracked_peak;
  return o;
}

std::string check_samples(const std::vector<IdxType>& s, IdxType n) {
  if (s.size() != static_cast<std::size_t>(kShots)) {
    return "expected " + std::to_string(kShots) + " samples, got " +
           std::to_string(s.size());
  }
  for (const IdxType x : s) {
    if (x < 0 || x >= svsim::pow2(n)) {
      return "sample " + std::to_string(x) + " outside [0, 2^n)";
    }
  }
  return "";
}

/// The diff harness's allowance (src/testing/diff.cpp): with equal seeds
/// the draws are identical, so outcomes may differ only where a draw
/// lands within the amplitude tolerance of a cumulative boundary.
std::string compare_samples(const std::vector<IdxType>& got,
                            const std::vector<IdxType>& want) {
  IdxType mismatches = 0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (i >= got.size() || got[i] != want[i]) ++mismatches;
  }
  const IdxType allowed = 2 + static_cast<IdxType>(want.size()) / 512;
  if (mismatches <= allowed) return "";
  return "samples differ from the oracle on " + std::to_string(mismatches) +
         "/" + std::to_string(want.size()) + " shots";
}

std::vector<IdxType> oracle_samples(const Circuit& c) {
  svsim::testing::OracleSim oracle(c.n_qubits());
  oracle.run(c);
  return oracle.sample(kShots);
}

/// The single-thread baseline: `circuits` one after another on a default
/// SingleSim of their own (it does not outlive the call, so the memtrack
/// sampler restarts as it does in the jobs); gate loops only, in ms.
double baseline_loop_ms(Tracer* t, const std::vector<Circuit>& circuits) {
  SingleSim sim(circuits.front().n_qubits());
  double ms = 0;
  for (const Circuit& c : circuits) {
    traced(t, "baseline:run_fresh", [&] { sim.run_fresh(c); });
    ms += sim.last_report().wall_seconds * 1e3;
  }
  return ms;
}

// --- qasm_rand16: QASM text -> samples on a fresh SingleSim ---

class QasmRand16 final : public Workload {
public:
  const char* name() const override { return "qasm_rand16"; }
  double nominal_job_s() const override { return 0.07; }
  int oracle_every() const override { return 16; }

  std::uint64_t make_input(std::uint64_t seed) override {
    text_ = random_qasm(kQubits, kStatements, seed);
    Fnv f;
    f.add(text_.data(), text_.size());
    return f.h;
  }

  JobOutput job(Tracer* t, ReportRead* rep) override {
    const Circuit c = traced(t, "parse_qasm",
                             [&] { return svsim::qasm::parse_qasm(text_); });
    std::unique_ptr<SingleSim> sim;
    traced(t, "SingleSim::SingleSim",
           [&] { sim = std::make_unique<SingleSim>(kQubits); });
    traced(t, "run", [&] { sim->run(c); });
    if (rep != nullptr) {
      traced(t, "last_report", [&] { rep->add(read_report(sim->last_report(), 1)); });
    }
    JobOutput out;
    out.samples = traced(t, "sample", [&] { return sim->sample(kShots); });
    traced(t, "SingleSim::~SingleSim", [&] { sim.reset(); });
    return out;
  }

  std::string check(const JobOutput& out) const override {
    return check_samples(out.samples, kQubits);
  }

  std::string oracle_check(const JobOutput& out) override {
    return compare_samples(out.samples,
                           oracle_samples(svsim::qasm::parse_qasm(text_)));
  }

  double single_loop_ms(Tracer* t) override {
    return baseline_loop_ms(t, {svsim::qasm::parse_qasm(text_)});
  }

private:
  static constexpr IdxType kQubits = 16;
  static constexpr int kStatements = 250;
  std::string text_;
};

// --- qv16_shmem2: QV-style circuits on one long-lived 2-PE ShmemSim ---

class Qv16Shmem2 final : public Workload {
public:
  const char* name() const override { return "qv16_shmem2"; }
  double nominal_job_s() const override { return 0.25; }
  int oracle_every() const override { return 4; }

  void setup(Tracer* t) override {
    traced(t, "ShmemSim::ShmemSim",
           [&] { sim_ = std::make_unique<ShmemSim>(kQubits, kPes); });
  }
  void teardown(Tracer* t) override {
    if (sim_) traced(t, "ShmemSim::~ShmemSim", [&] { sim_.reset(); });
  }

  std::uint64_t make_input(std::uint64_t seed) override {
    c_ = qv_circuit(kQubits, kLayers, seed);
    return digest(c_);
  }

  JobOutput job(Tracer* t, ReportRead* rep) override {
    traced(t, "reset_state", [&] { sim_->reset_state(); });
    traced(t, "run", [&] { sim_->run(c_); });
    if (rep != nullptr) {
      traced(t, "last_report",
             [&] { rep->add(read_report(sim_->last_report(), 1)); });
    }
    JobOutput out;
    out.samples = traced(t, "sample", [&] { return sim_->sample(kShots); });
    return out;
  }

  std::string check(const JobOutput& out) const override {
    return check_samples(out.samples, kQubits);
  }

  std::string oracle_check(const JobOutput& out) override {
    return compare_samples(out.samples, oracle_samples(c_));
  }

  std::string direct_calls(Tracer* t) override {
    // The remap pass run() applies internally, timed on its own.
    traced(t, "remap_for_partition", [&] {
      return svsim::remap_for_partition(c_, kQubits - 1);
    });
    return "";
  }

  double single_loop_ms(Tracer* t) override { return baseline_loop_ms(t, {c_}); }

private:
  static constexpr IdxType kQubits = 16;
  static constexpr int kPes = 2;
  static constexpr int kLayers = 6;
  Circuit c_{kQubits};
  std::unique_ptr<ShmemSim> sim_;
};

// --- vqe12_objective: batched energy_objective calls ---

class Vqe12Objective final : public Workload {
public:
  const char* name() const override { return "vqe12_objective"; }
  double nominal_job_s() const override { return 0.0056 * kCalls; }
  int oracle_every() const override { return 64; }

  void setup(Tracer*) override {
    objective_ = svsim::vqa::energy_objective(kQubits, ansatz_, h_, kBatch);
  }

  std::uint64_t make_input(std::uint64_t seed) override {
    const auto all = param_group(kCalls * kBatch, ansatz_.n_params(), seed);
    Fnv f;
    for (int c = 0; c < kCalls; ++c) {
      groups_[c].assign(all.begin() + c * kBatch, all.begin() + (c + 1) * kBatch);
    }
    for (const auto& p : all) f.add(p.data(), p.size() * sizeof(ValType));
    return f.h;
  }

  JobOutput job(Tracer* t, ReportRead* rep) override {
    JobOutput out;
    for (const auto& group : groups_) {
      const std::vector<ValType> e =
          (t == nullptr && rep == nullptr) ? objective_(group) : reenact(t, rep, group);
      out.energies.insert(out.energies.end(), e.begin(), e.end());
    }
    return out;
  }

  std::string check(const JobOutput& out) const override {
    if (out.energies.size() != static_cast<std::size_t>(kCalls * kBatch)) {
      return "expected " + std::to_string(kCalls * kBatch) + " energies, got " +
             std::to_string(out.energies.size());
    }
    for (const ValType e : out.energies) {
      if (!std::isfinite(e) || std::abs(e) > norm_bound_) {
        return "energy " + std::to_string(e) + " outside +-sum|c_k|";
      }
    }
    return "";
  }

  std::string oracle_check(const JobOutput& out) override {
    if (out.energies.size() != static_cast<std::size_t>(kCalls * kBatch)) {
      return "no energies to check";
    }
    std::size_t k = 0;
    for (const auto& group : groups_) {
      for (const auto& p : group) {
        svsim::testing::OracleSim oracle(kQubits);
        oracle.run(ansatz_.bind(p));
        const ValType want = h_.expectation(oracle.state());
        if (!(std::abs(out.energies[k] - want) <= 1e-9)) {
          return "member " + std::to_string(k) + " energy " +
                 std::to_string(out.energies[k]) + " vs oracle " +
                 std::to_string(want);
        }
        ++k;
      }
    }
    return "";
  }

  std::string direct_calls(Tracer* t) override {
    // The real call and its re-enactment back to back, both without inner
    // spans, so they meet the same memtrack sampler state.
    const auto& group = groups_[0];
    const std::vector<ValType> real =
        traced(t, "energy_objective", [&] { return objective_(group); });
    const std::vector<ValType> again =
        traced(t, "reenacted", [&] { return reenact(nullptr, nullptr, group); });
    return real == again ? ""
                         : "re-enacted energies differ from energy_objective's";
  }

  double single_loop_ms(Tracer* t) override {
    std::vector<Circuit> members;
    for (const auto& group : groups_) {
      for (const auto& p : group) members.push_back(ansatz_.bind(p));
    }
    return baseline_loop_ms(t, members);
  }

private:
  /// batched_energy_sweep's sequence for one full batch, call by call
  /// through the public vqa::BatchedSim; adds the run's counts to `rep`.
  std::vector<ValType> reenact(Tracer* t, ReportRead* rep,
                               const std::vector<std::vector<ValType>>& group) {
    std::unique_ptr<svsim::vqa::BatchedSim> sim;
    traced(t, "vqa::BatchedSim::BatchedSim", [&] {
      sim = std::make_unique<svsim::vqa::BatchedSim>(kQubits, kBatch);
    });
    traced(t, "run_fresh", [&] { sim->run_fresh(ansatz_, group); });
    if (rep != nullptr) {
      traced(t, "last_report", [&] {
        rep->add(read_report(sim->engine().last_report(), kBatch));
      });
    }
    std::vector<ValType> e =
        traced(t, "expectations", [&] { return sim->expectations(h_); });
    traced(t, "vqa::BatchedSim::~BatchedSim", [&] { sim.reset(); });
    return e;
  }

  static constexpr IdxType kQubits = 12;
  static constexpr int kLayers = 4;
  static constexpr int kBatch = 8;
  // Calls per job: the sum of a few calls keeps p90 off the 5 ms steps of
  // the memtrack sampler restart (README, "Steadiness").
  static constexpr int kCalls = 8;
  svsim::vqa::ParamCircuit ansatz_ =
      svsim::vqa::hardware_efficient_ansatz(kQubits, kLayers);
  svsim::vqa::Hamiltonian h_ = tfi_hamiltonian(kQubits);
  ValType norm_bound_ = [this] {
    ValType s = std::abs(h_.constant);
    for (const auto& term : h_.terms) s += std::abs(term.coeff);
    return s;
  }();
  svsim::vqa::BatchObjective objective_;
  std::vector<std::vector<ValType>> groups_[kCalls];
};

} // namespace

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "qasm_rand16") return std::make_unique<QasmRand16>();
  if (name == "qv16_shmem2") return std::make_unique<Qv16Shmem2>();
  if (name == "vqe12_objective") return std::make_unique<Vqe12Objective>();
  return nullptr;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"qasm_rand16", "qv16_shmem2",
                                                 "vqe12_objective"};
  return names;
}

} // namespace perfbench
