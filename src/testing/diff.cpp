#include "testing/diff.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/batched_sim.hpp"
#include "core/coarse_msg_sim.hpp"
#include "core/generalized_sim.hpp"
#include "core/peer_sim.hpp"
#include "core/shmem_sim.hpp"
#include "core/single_sim.hpp"
#include "ir/fusion.hpp"

namespace svsim::testing {

namespace {

/// The circuit the backend actually executes: identical to `c` except for
/// the optional perturbation seam (used to prove the harness detects and
/// localizes an injected divergence).
Circuit backend_circuit(const Circuit& c, const DiffSpec& spec) {
  Circuit out(c.n_qubits(), CompoundMode::kNative, c.n_cbits());
  long i = 0;
  for (const Gate& g : c.gates()) {
    Gate h = g;
    if (i == spec.perturb_gate) h.theta += 1e-2;
    out.append(h);
    ++i;
  }
  return out;
}

/// The backends whose kernel tables run at the lane level: the diff
/// sweeps them at several levels (default_sweep). The coarse baseline's
/// dense body is scalar at any level.
bool has_lane_axis(const std::string& backend) {
  return backend == "single" || backend == "peer" || backend == "shmem";
}

Circuit prefix_of(const Circuit& c, IdxType k) {
  Circuit p(c.n_qubits(), CompoundMode::kNative, c.n_cbits());
  for (IdxType i = 0; i < k; ++i) {
    p.append(c.gates()[static_cast<std::size_t>(i)]);
  }
  return p;
}

ValType state_diff(const Circuit& exec, const DiffSpec& spec,
                   const StateVector& want) {
  auto sim = make_backend(spec, exec.n_qubits());
  if (spec.fusion) {
    sim->run_fused(exec);
  } else {
    sim->run(exec);
  }
  return sim->state().max_diff_up_to_phase(want);
}

/// Smallest prefix length whose final state already diverges. Prefix
/// re-execution is deterministic (fresh backend + oracle, same seed, so
/// every mid-circuit measure re-draws the same uniforms).
long localize(const Circuit& exec, const Circuit& ref, const DiffSpec& spec) {
  IdxType lo = 1, hi = exec.n_gates();
  while (lo < hi) {
    const IdxType mid = lo + (hi - lo) / 2;
    OracleSim oracle(ref.n_qubits(), spec.seed);
    oracle.run(prefix_of(ref, mid));
    if (state_diff(prefix_of(exec, mid), spec, oracle.state()) > spec.tol) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return static_cast<long>(lo);
}

/// Batched axis: member b of the SPMD batched engine vs a solo SingleSim
/// run at seed+b, both at the widest lanes. The oracle is not consulted
/// directly — the solo engine is anchored to it by the single specs at
/// either lane level, so member-vs-solo equality transitively proves the
/// batched engine. Fusion specs fuse once here and run the identical
/// fused circuit through both engines, keeping the bit-for-bit claim
/// exact (internal run_fused would re-fuse per engine).
DiffResult diff_run_batched(const Circuit& c, const DiffSpec& spec) {
  DiffResult res;
  res.config = spec.label();
  const Circuit perturbed = backend_circuit(c, spec);
  const Circuit exec = spec.fusion ? fuse_gates(perturbed) : perturbed;
  const auto B = static_cast<IdxType>(spec.batch);

  SimConfig bcfg;
  bcfg.seed = spec.seed;
  bcfg.sched_window = spec.sched ? -1 : 0;
  svsim::BatchedSim bsim(c.n_qubits(), B, bcfg);
  bsim.run(exec);

  // Snapshot per-member state and classical bits before the sampling
  // pass: sample_members() pushes a measure-all circuit through the
  // engine, which re-initializes the classical register.
  std::vector<StateVector> states;
  std::vector<std::vector<IdxType>> cbits;
  states.reserve(static_cast<std::size_t>(B));
  cbits.reserve(static_cast<std::size_t>(B));
  for (IdxType b = 0; b < B; ++b) {
    states.push_back(bsim.state(b));
    cbits.push_back(bsim.member_cbits(b));
  }
  std::vector<std::vector<IdxType>> samples;
  if (spec.shots > 0) samples = bsim.sample_members(spec.shots);

  std::ostringstream detail;
  for (IdxType b = 0; b < B; ++b) {
    SimConfig scfg;
    scfg.seed = spec.seed + static_cast<std::uint64_t>(b);
    scfg.sched_window = spec.sched ? -1 : 0;
    SingleSim solo(c.n_qubits(), scfg);
    solo.run(exec);

    const ValType d = states[static_cast<std::size_t>(b)].max_diff(
        solo.state());
    res.max_diff = std::max(res.max_diff, d);
    if (d > spec.tol) {
      res.ok = false;
      if (detail.tellp() > 0) detail << "; ";
      detail << "member " << b << " state diverged from solo seed+" << b
             << " (max |Δamp| = " << d << ")";
    }

    // Per-member RNG lockstep: member b and the solo run at seed+b draw
    // the same uniforms in the same order, so mid-circuit measure/reset
    // outcomes must match bit-for-bit.
    if (cbits[static_cast<std::size_t>(b)] != solo.cbits()) {
      res.ok = false;
      if (detail.tellp() > 0) detail << "; ";
      detail << "member " << b << " classical bits diverged:";
      const auto& got = cbits[static_cast<std::size_t>(b)];
      for (std::size_t i = 0; i < got.size(); ++i) {
        if (got[i] != solo.cbits()[i]) {
          detail << " c[" << i << "]=" << got[i] << " (solo "
                 << solo.cbits()[i] << ")";
        }
      }
    }

    if (spec.shots > 0) {
      const std::vector<IdxType> solo_samples = solo.sample(spec.shots);
      const auto& got = samples[static_cast<std::size_t>(b)];
      IdxType mismatches = 0;
      for (std::size_t i = 0; i < solo_samples.size(); ++i) {
        if (got[i] != solo_samples[i]) ++mismatches;
      }
      // Identical draw streams; an outcome can flip only when a draw
      // lands within FP-contraction distance of a cumulative boundary.
      const auto allowed =
          static_cast<IdxType>(2 + static_cast<IdxType>(spec.shots) / 512);
      if (mismatches > allowed) {
        res.ok = false;
        if (detail.tellp() > 0) detail << "; ";
        detail << "member " << b << " samples diverged on " << mismatches
               << "/" << spec.shots << " shots";
      }
    }
  }
  if (!res.ok) res.detail = detail.str();
  return res;
}

} // namespace

std::string DiffSpec::label() const {
  std::ostringstream os;
  if (batch > 0) {
    os << "batched B=" << batch;
  } else {
    os << backend;
    if (has_lane_axis(backend)) os << ' ' << to_string(simd);
    if (backend != "single" && backend != "generalized") os << " x" << workers;
  }
  os << (fusion ? " fusion=on" : " fusion=off");
  if (!sched) {
    os << " sched=off";
  } else if (backend == "single" && batch == 0) {
    os << " sched=n-2"; // the exponent make_backend pins
  } else {
    os << " sched=on";
  }
  if (remap) os << " remap=on";
  return os.str();
}

std::unique_ptr<Simulator> make_backend(const DiffSpec& spec,
                                        IdxType n_qubits) {
  SimConfig cfg;
  cfg.seed = spec.seed;
  cfg.sched_window = spec.sched ? -1 : 0; // -1 = auto (engine on), 0 = off
  if (spec.sched && spec.backend == "single") {
    // Auto would run a register that fits one L2-sized block (the default
    // 6 qubits, say) per gate: pin b = max(2, n - 2) so blocks run.
    cfg.sched_window = static_cast<int>(std::max<IdxType>(2, n_qubits - 2));
  }
  // Pin the remap pass both ways: auto (-1) would turn it on for every
  // multi-worker spec and no leg would cover the unremapped baseline.
  cfg.remap = spec.remap ? 1 : 0;
  cfg.simd = spec.simd;
  if (spec.backend == "single") {
    return std::make_unique<SingleSim>(n_qubits, cfg);
  }
  if (spec.backend == "peer") {
    return std::make_unique<PeerSim>(n_qubits, spec.workers, cfg);
  }
  if (spec.backend == "shmem") {
    return std::make_unique<ShmemSim>(n_qubits, spec.workers, cfg);
  }
  if (spec.backend == "coarse") {
    return std::make_unique<CoarseMsgSim>(n_qubits, spec.workers, cfg);
  }
  if (spec.backend == "generalized") {
    return std::make_unique<GeneralizedSim>(n_qubits, cfg);
  }
  throw Error("diff: unknown backend: " + spec.backend);
}

OracleResult oracle_run(const Circuit& c, std::uint64_t seed, IdxType shots) {
  OracleSim oracle(c.n_qubits(), seed);
  oracle.run(c);
  OracleResult r;
  r.state = oracle.state();
  r.cbits = oracle.cbits();
  if (shots > 0) r.samples = oracle.sample(shots);
  return r;
}

DiffResult diff_run(const Circuit& c, const OracleResult& oracle,
                    const DiffSpec& spec) {
  if (spec.batch > 0) return diff_run_batched(c, spec);
  DiffResult res;
  res.config = spec.label();
  const Circuit exec = backend_circuit(c, spec);

  auto sim = make_backend(spec, c.n_qubits());
  if (spec.fusion) {
    sim->run_fused(exec);
  } else {
    sim->run(exec);
  }
  const StateVector got = sim->state();
  // Up-to-phase: 1q fusion re-synthesizes u3 gates from matrix products,
  // which preserves the state only up to a global phase. Relative phases
  // (the observable ones) are still fully checked.
  res.max_diff = got.max_diff_up_to_phase(oracle.state);

  std::ostringstream detail;
  if (res.max_diff > spec.tol) {
    res.ok = false;
    res.first_divergence = localize(exec, c, spec);
    const Gate& g =
        c.gates()[static_cast<std::size_t>(res.first_divergence - 1)];
    detail << "state diverged (max |Δamp| = " << res.max_diff
           << "), first divergent prefix = " << res.first_divergence
           << ", gate[" << (res.first_divergence - 1) << "] = " << g.str();
  }

  // Mid-circuit measurement outcomes are in RNG lockstep with the oracle,
  // so the classical registers must match bit-for-bit.
  if (sim->cbits() != oracle.cbits) {
    res.ok = false;
    if (detail.tellp() > 0) detail << "; ";
    detail << "classical bits diverged:";
    for (std::size_t i = 0; i < oracle.cbits.size(); ++i) {
      if (sim->cbits()[i] != oracle.cbits[i]) {
        detail << " c[" << i << "]=" << sim->cbits()[i] << " (oracle "
               << oracle.cbits[i] << ")";
      }
    }
  }

  // Sampling-distribution equivalence under the shared seed: the draw
  // streams are identical, so outcomes differ only when a draw lands
  // within the amplitude tolerance of a cumulative boundary — allow a
  // couple of such boundary shots, fail on anything systematic.
  if (!oracle.samples.empty() && res.ok) {
    const std::vector<IdxType> got_samples =
        sim->sample(static_cast<IdxType>(oracle.samples.size()));
    IdxType mismatches = 0;
    for (std::size_t i = 0; i < oracle.samples.size(); ++i) {
      if (got_samples[i] != oracle.samples[i]) ++mismatches;
    }
    const auto allowed = static_cast<IdxType>(
        2 + static_cast<IdxType>(oracle.samples.size()) / 512);
    if (mismatches > allowed) {
      res.ok = false;
      if (detail.tellp() > 0) detail << "; ";
      detail << "sampled outcomes diverged on " << mismatches << "/"
             << oracle.samples.size() << " shots";
    }
  }

  if (!res.ok) {
    // Attach the run-report header so a failure line is self-describing
    // (backend, width, workers, gate tally) without re-running anything.
    const obs::RunReport& rep = sim->last_report();
    detail << " [report: backend=" << rep.backend
           << " n_qubits=" << rep.n_qubits << " workers=" << rep.n_workers
           << " gates=" << rep.total_gates
           << " fused=" << rep.fusion.fused_1q + rep.fusion.cancelled_2q
           << "]";
    res.detail = detail.str();
  }
  return res;
}

std::vector<DiffSpec> default_sweep(int workers, std::uint64_t seed,
                                    IdxType shots, ValType tol) {
  std::vector<DiffSpec> specs;
  for (const char* backend : {"single", "peer", "shmem", "coarse"}) {
    const bool partitioned = std::string(backend) != "single";
    // The lane axis: single runs every level the build carries, so each
    // lane policy's permutes get a circuit-level check; the partitioned
    // backends run the widest lanes and scalar (one point on a
    // scalar-only build), to hold the sweep's time.
    std::vector<SimdLevel> levels = {max_simd_level()};
    if (has_lane_axis(backend)) {
      for (const SimdLevel lower : {SimdLevel::kAvx2, SimdLevel::kScalar}) {
        if (lower < levels[0] &&
            (!partitioned || lower == SimdLevel::kScalar)) {
          levels.push_back(lower);
        }
      }
    }
    for (const bool fusion : {false, true}) {
      for (const bool sched : {false, true}) {
        // The remap axis only exists on partitioned backends; single
        // covers the remap=off point implicitly.
        for (const bool remap : {false, true}) {
          if (remap && !partitioned) continue;
          for (const SimdLevel simd : levels) {
            DiffSpec s;
            s.backend = backend;
            s.workers = partitioned ? workers : 1;
            s.fusion = fusion;
            s.sched = sched;
            s.remap = remap;
            s.simd = simd;
            s.seed = seed;
            s.shots = shots;
            s.tol = tol;
            specs.push_back(std::move(s));
          }
        }
      }
    }
  }
  // The generalized baseline has no scheduler and no partition: only the
  // fusion axis applies to it.
  for (const bool fusion : {false, true}) {
    DiffSpec s;
    s.backend = "generalized";
    s.fusion = fusion;
    s.seed = seed;
    s.shots = shots;
    s.tol = tol;
    specs.push_back(std::move(s));
  }
  // Batched axis: a lane-width multiple (8) and a ragged batch (5, which
  // exercises the scalar tail after full SIMD chunks), each with the
  // blocked scheduler off and on, plus one fused point.
  for (const int batch : {8, 5}) {
    for (const bool sched : {false, true}) {
      DiffSpec s;
      s.batch = batch;
      s.sched = sched;
      s.seed = seed;
      s.shots = shots;
      s.tol = tol;
      specs.push_back(std::move(s));
    }
  }
  {
    DiffSpec s;
    s.batch = 8;
    s.fusion = true;
    s.seed = seed;
    s.shots = shots;
    s.tol = tol;
    specs.push_back(std::move(s));
  }
  return specs;
}

} // namespace svsim::testing
