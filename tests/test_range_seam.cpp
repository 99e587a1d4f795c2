// The partitioned tiers' range seam. ShmemSim and PeerSim run every
// range of a unitary op through the solo kernel SingleSim's table calls,
// at the run's lane level, on the raw partitions: the range is cut into
// runs within which each role (an amplitude a work item touches) stays in
// one partition, and each run books its traffic once. A blocked window's
// diagonal run also addresses the raw partition. The measure-all readout
// walks the raw partitions in logical runs of 256 states, and measure and
// reset go through the raw view of all partitions (RawView); each books a
// call's traffic once.
//
// Each case is pinned against the per-element reference: a kernel table
// whose every entry reaches amplitudes through the Space's own element
// access (element_kernel<P, B, Space> for the unitary ops, kern_measure /
// kern_measure_all / kern_reset<Space> for the others) and the diagonal
// runs through that access too, driven by the same remap, window
// schedule and syncs — and the same fuse stage, which the blocked runs
// apply (the per-gate runs have the plan off). Covered on both backends,
// at every lane level the build carries, × PE count {1, 2, 4} ×
// {per-gate, blocked}: every unitary op (DENSE2 with a random unitary) ×
// operand placement (below lg_part, one operand on a partition qubit,
// both on partition qubits); measure and reset on a qubit below lg_part
// and on a partition qubit; and measure-all with and without a remap
// layout snapshot, on 7 qubits (one run of the readout sweep) and, per
// gate on 2 and 4 PEs with 1, 3 and 300 shots, on 11 (eight runs, the
// snapshot with logical qubit 0 on a partition qubit, the walk stopping
// inside a run). Amplitudes must match bit for bit, cbits and samples
// exactly, and TrafficStats, PeerTraffic and the PE×PE traffic matrix
// exactly, run by run. The per-gate runs without measure or reset must
// also leave SingleSim's state at the same lane level bit for bit. On the
// 11-qubit circuit with remap on, CoarseMsgSim's samples must equal
// SingleSim's.
//
// The range entries themselves (RangeSeamRuns) are pinned on ranges that
// start mid-vector and cross run boundaries, cut among the workers, which
// call them at once: against the per-element table on the same pieces,
// amplitudes bit for bit and counts exactly, call by call.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/coarse_msg_sim.hpp"
#include "core/peer_sim.hpp"
#include "core/pipeline.hpp"
#include "core/shmem_sim.hpp"
#include "core/single_sim.hpp"
#include "ir/remap.hpp"
#include "testing/rand_circuit.hpp"

namespace svsim {
namespace {

constexpr IdxType kN = 7;
constexpr int kBlockExp = 3; // several blocks per partition at every PE count
constexpr IdxType kShots = 300;

StateVector random_state(IdxType n, std::uint64_t seed) {
  Rng rng(seed);
  StateVector sv(n);
  ValType norm = 0;
  for (auto& a : sv.amps) {
    a = Complex{rng.next_gaussian(), rng.next_gaussian()};
    norm += std::norm(a);
  }
  const ValType inv = 1.0 / std::sqrt(norm);
  for (auto& a : sv.amps) a *= inv;
  return sv;
}

std::vector<SimdLevel> carried_levels() {
  std::vector<SimdLevel> levels{SimdLevel::kScalar};
  if (max_simd_level() >= SimdLevel::kAvx2) levels.push_back(SimdLevel::kAvx2);
  if (max_simd_level() >= SimdLevel::kAvx512) {
    levels.push_back(SimdLevel::kAvx512);
  }
  return levels;
}

template <auto Kern, class Space>
void per_element_gate(const UGate& ug, const Space& sp, IdxType begin,
                      IdxType end) {
  Kern(ug.g, sp, begin, end);
}

/// Space's per-element kernel table: every entry reaches amplitudes
/// through the Space's own element access.
template <class Space>
const typename KernelTable<Space>::Table& per_element_table() {
  static const typename KernelTable<Space>::Table table = [] {
    namespace k = kernels;
    typename KernelTable<Space>::Table t{};
    k::for_each_unitary([&]<OP op, k::Pat P, class B>() {
      t[static_cast<int>(op)] = &k::element_kernel<P, B, Space>;
    });
    t[static_cast<int>(OP::ID)] = &k::kern_nop<Space>;
    t[static_cast<int>(OP::BARRIER)] = &k::kern_nop<Space>;
    t[static_cast<int>(OP::M)] =
        &per_element_gate<&k::kern_measure<Space>, Space>;
    t[static_cast<int>(OP::MA)] =
        &per_element_gate<&k::kern_measure_all<Space>, Space>;
    t[static_cast<int>(OP::RESET)] =
        &per_element_gate<&k::kern_reset<Space>, Space>;
    return t;
  }();
  return table;
}

/// One worker's share of the reference run: simulation_kernel_sched's
/// window walk and syncs, without the observability planes.
template <class Space>
void reference_worker(const DeviceCircuit<Space>& dc,
                      const kernels::SchedExec<Space>& ex, const Space& sp) {
  const IdxType nw = sp.n_workers();
  const IdxType me = sp.worker();
  std::vector<Window> windows = ex.sched.windows;
  if (!ex.active) {
    windows.assign(1, Window{});
    windows[0].n_gates = static_cast<IdxType>(dc.gates.size());
  }
  for (std::size_t wi = 0; wi < windows.size(); ++wi) {
    const Window& w = windows[wi];
    if (!w.blocked) {
      for (IdxType k = 0; k < w.n_gates; ++k) {
        const DeviceGate<Space>& dg =
            dc.gates[static_cast<std::size_t>(w.first_gate + k)];
        const IdxType per = (dg.work + nw - 1) / nw;
        const IdxType begin = std::min(per * me, dg.work);
        dg.fn(dg.ug, sp, begin, std::min(begin + per, dg.work));
        sp.sync();
      }
      continue;
    }
    const IdxType b = ex.block_exp;
    const IdxType blocks = sp.local_count() >> b;
    for (IdxType blk = me * blocks; blk < (me + 1) * blocks; ++blk) {
      for (const kernels::WindowAction<Space>& a : ex.actions[wi]) {
        if (a.kind == kernels::WindowAction<Space>::Kind::kGate) {
          const DeviceGate<Space>& dg =
              dc.gates[static_cast<std::size_t>(a.gate_index)];
          dg.fn(dg.ug, sp, blk * a.work_per_block,
                (blk + 1) * a.work_per_block);
        } else {
          kernels::blocked_detail::apply_diag_run(sp, a, blk << b, blk << b,
                                                  b);
        }
      }
    }
    sp.sync();
  }
}

/// One case: `circuit` run on the loaded state, then, when `shots` > 0,
/// a sample() of that many shots. `remap` pins the remap pass on; off, it
/// keeps every operand where the case placed it.
struct Job {
  Circuit circuit;
  IdxType shots = 0;
  bool remap = false;
};

/// One run's traffic: each worker's counters as text, and the PE×PE
/// byte matrix.
struct Counts {
  std::vector<std::string> workers;
  std::vector<std::uint64_t> matrix;
};

/// What a job leaves behind: the logical state, the classical register,
/// the samples, and the counts of every run (the circuit's, then the
/// sample's).
struct Outcome {
  StateVector state;
  std::vector<IdxType> cbits;
  std::vector<IdxType> samples;
  std::vector<Counts> runs;
  std::uint64_t windows = 0; // blocked windows of the circuit's run
};

SimConfig seam_config(SimdLevel level, bool blocked, bool remap) {
  SimConfig cfg;
  cfg.simd = level;
  cfg.sched_window = blocked ? kBlockExp : 0;
  cfg.remap = remap ? 1 : 0;
  return cfg;
}

std::string peer_text(const PeerTraffic& t) {
  return std::to_string(t.local_access) + " local / " +
         std::to_string(t.remote_access) + " remote";
}

Counts counts_of(const ShmemSim& sim) {
  Counts c;
  for (const shmem::TrafficStats& t : sim.per_pe_traffic()) {
    c.workers.push_back(t.summary());
  }
  c.matrix = sim.last_report().matrix.bytes;
  return c;
}

Counts counts_of(const PeerSim& sim) {
  Counts c;
  for (const PeerTraffic& t : sim.per_device_traffic()) {
    c.workers.push_back(peer_text(t));
  }
  c.matrix = sim.last_report().matrix.bytes;
  return c;
}

template <class Sim>
Outcome run_backend(const Job& job, const StateVector& init, int parts,
                    const SimConfig& cfg) {
  Sim sim(init.n_qubits, parts, cfg);
  sim.load_state(init);
  sim.run(job.circuit);
  Outcome out;
  out.windows = sim.last_report().sched.windows;
  out.runs.push_back(counts_of(sim));
  out.cbits = sim.cbits();
  if (job.shots > 0) {
    out.samples = sim.sample(job.shots);
    out.runs.push_back(counts_of(sim));
  }
  out.state = sim.state();
  return out;
}

/// Amplitudes of partitions `re`/`im` in index order.
StateVector gather(const std::vector<std::vector<ValType>>& re,
                   const std::vector<std::vector<ValType>>& im) {
  const std::size_t per = re[0].size();
  StateVector sv(log2_exact(static_cast<IdxType>(per * re.size())));
  for (std::size_t k = 0; k < sv.amps.size(); ++k) {
    sv.amps[k] = Complex{re[k / per][k % per], im[k / per][k % per]};
  }
  return sv;
}

/// The partitions of `init` for `n_parts` workers.
std::pair<std::vector<std::vector<ValType>>, std::vector<std::vector<ValType>>>
split(const StateVector& init, int n_parts) {
  const std::size_t per = init.amps.size() / static_cast<std::size_t>(n_parts);
  std::vector<std::vector<ValType>> re(static_cast<std::size_t>(n_parts));
  std::vector<std::vector<ValType>> im(static_cast<std::size_t>(n_parts));
  for (std::size_t k = 0; k < init.amps.size(); ++k) {
    re[k / per].push_back(init.amps[k].real());
    im[k / per].push_back(init.amps[k].imag());
  }
  return {re, im};
}

/// What a backend of `n` qubits keeps across runs besides its
/// partitions: the RNG replicas, the classical register, the measure
/// context and the remap layout with this run's snapshots.
struct RefContext {
  RefContext(IdxType n, int parts, std::uint64_t seed)
      : n(n),
        lg(n - log2_exact(parts)),
        rngs(static_cast<std::size_t>(parts), Rng(seed)),
        cbits(static_cast<std::size_t>(n), 0) {
    mctx.cbits = cbits.data();
    mctx.n_qubits = n;
  }

  /// The pipeline's remap and fuse stages: the circuit the workers
  /// execute, with the layout snapshots its measure-alls read.
  Circuit prepare(const Circuit& c, bool remap, const SimConfig& cfg) {
    const int parts = static_cast<int>(rngs.size());
    if (c.n_cbits() > static_cast<IdxType>(cbits.size())) {
      cbits.resize(static_cast<std::size_t>(c.n_cbits()), 0);
      mctx.cbits = cbits.data();
    }
    ma_layouts.clear();
    Circuit exec = c;
    if (remap && parts > 1) {
      RemapResult rm = remap_for_partition(
          c, lg, 64, layout.empty() ? nullptr : &layout);
      layout = rm.layout;
      ma_layouts = std::move(rm.ma_layouts);
      exec = std::move(rm.circuit);
    }
    if (auto fused = fuse_stage(exec, resolve(cfg), lg)) {
      exec = std::move(*fused);
    }
    mctx.ma_layouts = ma_layouts.empty() ? nullptr : ma_layouts.data();
    return exec;
  }

  /// `phys` in logical order, as Simulator::state() undoes the layout.
  StateVector logical(const StateVector& phys) const {
    if (layout.empty()) return phys;
    std::vector<IdxType> inv(static_cast<std::size_t>(n));
    for (IdxType l = 0; l < n; ++l) {
      inv[static_cast<std::size_t>(layout[static_cast<std::size_t>(l)])] = l;
    }
    const BitPermutation to_logical(inv.data(), n);
    StateVector sv(n);
    for (std::size_t k = 0; k < phys.amps.size(); ++k) {
      sv.amps[static_cast<std::size_t>(
          to_logical(static_cast<IdxType>(k)))] = phys.amps[k];
    }
    return sv;
  }

  IdxType n;
  IdxType lg;
  std::vector<Rng> rngs;
  std::vector<IdxType> cbits;
  std::vector<IdxType> results;
  std::vector<IdxType> layout;
  std::vector<IdxType> ma_layouts;
  MeasureCtx mctx;
};

/// The per-element reference PEs: symmetric partitions on their own
/// shmem::Runtime, each run through reference_worker over ShmemSpace's
/// one-sided get/put.
class ShmemTeam {
public:
  ShmemTeam(const StateVector& init, int parts)
      : parts_(parts),
        per_(init.amps.size() / static_cast<std::size_t>(parts)),
        rt_(parts, per_ * 2 * sizeof(ValType) + (1u << 16)),
        re_sym_(static_cast<std::size_t>(parts)),
        im_sym_(static_cast<std::size_t>(parts)) {
    auto [re, im] = split(init, parts);
    rt_.run([&](shmem::Ctx& ctx) {
      const auto pe = static_cast<std::size_t>(ctx.pe());
      re_sym_[pe] = ctx.malloc_sym<ValType>(per_);
      im_sym_[pe] = ctx.malloc_sym<ValType>(per_);
      std::copy(re[pe].begin(), re[pe].end(), re_sym_[pe]);
      std::copy(im[pe].begin(), im[pe].end(), im_sym_[pe]);
    });
  }

  Counts run(const Circuit& exec, const SimConfig& cfg, RefContext& rc) {
    const auto dc =
        upload_circuit<ShmemSpace>(exec, per_element_table<ShmemSpace>());
    const auto ex = kernels::prepare_sched<ShmemSpace>(
        exec, dc.gates, resolve(cfg).block_exp, rc.lg, false);
    return launch(rc, [&](const ShmemSpace& sp) {
      reference_worker(dc, ex, sp);
    });
  }

  /// `body` on every PE's Space: the one-sided get/put of the reference
  /// and the raw partition bases (the symmetric allocations, as
  /// ShmemSim's Ctx::ptr resolves them) of the range entries. Returns the
  /// traffic it booked.
  template <class Body>
  Counts launch(RefContext& rc, Body&& body) {
    rt_.run([&](shmem::Ctx& ctx) {
      const auto pe = static_cast<std::size_t>(ctx.pe());
      ShmemSpace sp;
      sp.real_parts = re_sym_.data();
      sp.imag_parts = im_sym_.data();
      sp.ctx = &ctx;
      sp.real_sym = re_sym_[pe];
      sp.imag_sym = im_sym_[pe];
      sp.lg_part = rc.lg;
      sp.dim = pow2(rc.n);
      sp.mctx = &rc.mctx;
      sp.rng = &rc.rngs[pe];
      body(sp);
    });
    Counts c;
    for (const shmem::TrafficStats& t : rt_.per_pe_traffic()) {
      c.workers.push_back(t.summary());
    }
    c.matrix = rt_.traffic_matrix();
    return c;
  }

  StateVector physical() const {
    std::vector<std::vector<ValType>> re;
    std::vector<std::vector<ValType>> im;
    for (int pe = 0; pe < parts_; ++pe) {
      const auto p = static_cast<std::size_t>(pe);
      re.emplace_back(re_sym_[p], re_sym_[p] + per_);
      im.emplace_back(im_sym_[p], im_sym_[p] + per_);
    }
    return gather(re, im);
  }

private:
  int parts_;
  std::size_t per_;
  shmem::Runtime rt_;
  std::vector<ValType*> re_sym_;
  std::vector<ValType*> im_sym_;
};

/// The per-element reference devices: partitions behind a pointer array,
/// each run through reference_worker over PeerSpace's counted access.
class PeerTeam {
public:
  PeerTeam(const StateVector& init, int parts) : parts_(parts) {
    std::tie(re_, im_) = split(init, parts);
    for (std::size_t d = 0; d < re_.size(); ++d) {
      re_ptr_.push_back(re_[d].data());
      im_ptr_.push_back(im_[d].data());
    }
  }

  Counts run(const Circuit& exec, const SimConfig& cfg, RefContext& rc) {
    const auto dc =
        upload_circuit<PeerSpace>(exec, per_element_table<PeerSpace>());
    const auto ex = kernels::prepare_sched<PeerSpace>(
        exec, dc.gates, resolve(cfg).block_exp, rc.lg, false);
    return launch(rc, [&](const PeerSpace& sp) {
      reference_worker(dc, ex, sp);
    });
  }

  /// `body` on every device's Space; returns the traffic it booked.
  template <class Body>
  Counts launch(RefContext& rc, Body&& body) {
    const auto n = static_cast<std::size_t>(parts_);
    std::vector<PeerTraffic> traffic(n);
    std::vector<std::vector<std::uint64_t>> per_dest(
        n, std::vector<std::uint64_t>(n, 0));
    std::vector<ValType> scratch(n, 0);
    shmem::Barrier grid(parts_);
    launch_team(parts_, [&](int d) {
      const auto i = static_cast<std::size_t>(d);
      traffic[i].per_dest = per_dest[i].data();
      PeerSpace sp;
      sp.real_parts = re_ptr_.data();
      sp.imag_parts = im_ptr_.data();
      sp.lg_part = rc.lg;
      sp.dim = pow2(rc.n);
      sp.mctx = &rc.mctx;
      sp.rng = &rc.rngs[i];
      sp.worker_id = d;
      sp.num_workers = parts_;
      sp.barrier = &grid;
      sp.scratch = scratch.data();
      sp.traffic = &traffic[i];
      body(sp);
    });
    Counts c;
    for (std::size_t d = 0; d < n; ++d) {
      c.workers.push_back(peer_text(traffic[d]));
      for (const std::uint64_t accesses : per_dest[d]) {
        c.matrix.push_back(accesses * sizeof(ValType));
      }
    }
    return c;
  }

  StateVector physical() const { return gather(re_, im_); }

private:
  int parts_;
  std::vector<std::vector<ValType>> re_;
  std::vector<std::vector<ValType>> im_;
  std::vector<ValType*> re_ptr_;
  std::vector<ValType*> im_ptr_;
};

/// `job` through the per-element reference: the pipeline's remap,
/// upload, schedule and team launch for the circuit, then for sample()'s
/// measure-all circuit.
template <class Team>
Outcome run_reference(const Job& job, const StateVector& init, int parts,
                      const SimConfig& cfg) {
  Team team(init, parts);
  RefContext rc(init.n_qubits, parts, cfg.seed);
  Outcome out;
  out.runs.push_back(
      team.run(rc.prepare(job.circuit, job.remap, cfg), cfg, rc));
  out.cbits = rc.cbits;
  if (job.shots > 0) {
    rc.results.assign(static_cast<std::size_t>(job.shots), 0);
    rc.mctx.results = rc.results.data();
    rc.mctx.n_shots = job.shots;
    Circuit ma(init.n_qubits);
    ma.measure_all();
    out.runs.push_back(team.run(rc.prepare(ma, job.remap, cfg), cfg, rc));
    out.samples = rc.results;
    if (job.remap && parts > 1) {
      // The case is meant to read through a non-identity snapshot.
      EXPECT_TRUE(
          kernels::readout_permutation(rc.ma_layouts.data(), rc.n, 0)
              .has_value())
          << "the remap left the identity layout";
    }
  }
  out.state = rc.logical(team.physical());
  return out;
}

void expect_bitwise_equal(const StateVector& got, const StateVector& want,
                          const std::string& what) {
  ASSERT_EQ(got.amps.size(), want.amps.size()) << what;
  EXPECT_EQ(std::memcmp(got.amps.data(), want.amps.data(),
                        got.amps.size() * sizeof(Complex)),
            0)
      << what << ": amplitudes differ (max |diff| "
      << got.max_diff(want) << ")";
}

/// Whether a run of `c` must leave SingleSim's state bit for bit: a
/// per-gate run (the plan off: no fuse stage, whose blocks form below each
/// backend's own lg_part, and no windows) of a circuit without measure or
/// reset, which renormalize by a norm every PE count sums in its own
/// order.
bool single_comparable(const Circuit& c, bool blocked) {
  if (blocked) return false;
  return std::none_of(c.gates().begin(), c.gates().end(), [](const Gate& g) {
    return g.op == OP::M || g.op == OP::RESET;
  });
}

/// `job` on backend Sim at every carried lane level against one
/// per-element reference run on Team and, where single_comparable, against
/// SingleSim at the same level.
template <class Sim, class Team>
void check(const Job& job, const StateVector& init, int parts, bool blocked,
           const std::string& what) {
  const Outcome want = run_reference<Team>(
      job, init, parts, seam_config(SimdLevel::kScalar, blocked, job.remap));
  for (const SimdLevel level : carried_levels()) {
    const std::string at = what + " simd " + to_string(level);
    const SimConfig cfg = seam_config(level, blocked, job.remap);
    const Outcome got = run_backend<Sim>(job, init, parts, cfg);
    if (blocked) {
      ASSERT_GT(got.windows, 0u) << at;
    }
    expect_bitwise_equal(got.state, want.state, at);
    if (single_comparable(job.circuit, blocked)) {
      SingleSim single(init.n_qubits, cfg);
      single.load_state(init);
      single.run(job.circuit);
      expect_bitwise_equal(got.state, single.state(), at + " vs SingleSim");
    }
    EXPECT_EQ(got.cbits, want.cbits) << at;
    EXPECT_EQ(got.samples, want.samples) << at;
    ASSERT_EQ(got.runs.size(), want.runs.size()) << at;
    for (std::size_t r = 0; r < got.runs.size(); ++r) {
      EXPECT_EQ(got.runs[r].workers, want.runs[r].workers)
          << at << " run " << r;
      EXPECT_EQ(got.runs[r].matrix, want.runs[r].matrix)
          << at << " run " << r;
    }
  }
}

std::string case_label(const std::string& what, int parts, bool blocked) {
  return what + " x" + std::to_string(parts) +
         (blocked ? " blocked" : " per-gate");
}

/// Operand placements of a `width`-qubit op on `n_parts` partitions:
/// every operand below lg_part (inside and above the block exponent),
/// one operand on a partition qubit, both on partition qubits.
std::vector<std::pair<IdxType, IdxType>> placements(int width, int n_parts) {
  const IdxType lg = kN - log2_exact(n_parts);
  std::set<std::pair<IdxType, IdxType>> out;
  if (width == 1) {
    out.insert({1, -1});
    out.insert({lg - 1, -1});
    if (n_parts > 1) {
      out.insert({lg, -1});
      out.insert({kN - 1, -1});
    }
  } else {
    out.insert({0, 2});
    out.insert({lg - 1, 1});
    if (n_parts > 1) {
      out.insert({1, kN - 1});
      out.insert({kN - 1, 1});
    }
    if (n_parts > 2) {
      out.insert({kN - 2, kN - 1});
      out.insert({kN - 1, kN - 2});
    }
  }
  return {out.begin(), out.end()};
}

/// `g` between low non-diagonal gates, once alone and once in a run of
/// two: blocked runs then form windows around it, its diagonal forms take
/// both the lone-gate and the collapsed-run path, and a gate that cannot
/// join a window still leaves blocked windows on either side.
Circuit seam_circuit(const Gate& g) {
  Rng rng(31);
  const Mat4 u = testing::random_unitary_2q(rng);
  Circuit c(kN);
  const auto add = [&] {
    if (g.op == OP::DENSE2) {
      c.dense2(u, g.qb0, g.qb1);
    } else {
      c.append(g);
    }
  };
  c.h(0).h(1);
  add();
  c.h(2);
  add();
  add();
  c.h(0).h(1);
  return c;
}

template <class Sim, class Team>
void for_every_unitary_case(OP op) {
  const StateVector init = random_state(kN, 4242);
  for (const int parts : {1, 2, 4}) {
    for (const auto& [a, b] : placements(op_info(op).n_qubits, parts)) {
      Gate g = b < 0 ? make_gate(op, a) : make_gate(op, a, b);
      g.theta = 0.613;
      g.phi = -0.35;
      g.lam = 1.2;
      for (const bool blocked : {false, true}) {
        check<Sim, Team>(Job{seam_circuit(g)}, init, parts, blocked,
                         case_label(std::string(op_name(op)) + " (" +
                                        std::to_string(a) + "," +
                                        std::to_string(b) + ")",
                                    parts, blocked));
      }
    }
  }
}

std::vector<OP> unitary_ops() {
  std::vector<OP> ops;
  kernels::for_each_unitary(
      [&]<OP op, kernels::Pat, class>() { ops.push_back(op); });
  return ops;
}

class RangeSeamTest : public ::testing::TestWithParam<OP> {};

TEST_P(RangeSeamTest, ShmemMatchesPerElementReference) {
  for_every_unitary_case<ShmemSim, ShmemTeam>(GetParam());
}

TEST_P(RangeSeamTest, PeerMatchesPerElementReference) {
  for_every_unitary_case<PeerSim, PeerTeam>(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllUnitaryOps, RangeSeamTest,
                         ::testing::ValuesIn(unitary_ops()),
                         [](const ::testing::TestParamInfo<OP>& info) {
                           return std::string(op_name(info.param));
                         });

/// Measure (into cbits 3, 4, 5) or reset of qubit `q` three times, the
/// first on the loaded state (a random outcome), the second after an X
/// on `q` (certain: for reset, the branch that moves the |1> half down),
/// between low non-diagonal gates that form blocked windows.
Circuit nonunitary_circuit(OP op, IdxType q) {
  Circuit c(kN);
  IdxType cbit = 3;
  const auto apply = [&] {
    if (op == OP::M) {
      c.measure(q, cbit++);
    } else {
      c.reset(q);
    }
  };
  c.h(0).h(1);
  apply();
  c.x(q);
  apply();
  c.h(2);
  apply();
  c.h(0).h(1);
  return c;
}

/// Measure and reset on a qubit below lg_part and on a partition qubit.
template <class Sim, class Team>
void for_every_measure_reset_case() {
  const StateVector init = random_state(kN, 2718);
  for (const OP op : {OP::M, OP::RESET}) {
    for (const int parts : {1, 2, 4}) {
      std::vector<IdxType> qubits{1};
      if (parts > 1) qubits.push_back(kN - 1);
      for (const IdxType q : qubits) {
        for (const bool blocked : {false, true}) {
          check<Sim, Team>(
              Job{nonunitary_circuit(op, q)}, init, parts, blocked,
              case_label(std::string(op_name(op)) + " q" + std::to_string(q),
                         parts, blocked));
        }
      }
    }
  }
}

/// Measure-all after gates on partition qubits: read in physical order
/// (remap off) and, on more than one PE, through the layout snapshot the
/// remap pass leaves once it has moved those qubits below lg_part.
template <class Sim, class Team>
void for_every_measure_all_case() {
  const StateVector init = random_state(kN, 1618);
  Circuit c(kN);
  c.h(0).h(1);
  c.h(kN - 1).cx(kN - 1, 0).cx(kN - 2, kN - 1).rz(0.4, kN - 2);
  c.h(2).h(1);
  c.h(kN - 1).cx(kN - 2, 2);
  c.h(0).h(1);
  for (const int parts : {1, 2, 4}) {
    for (const bool remap : {false, true}) {
      if (remap && parts == 1) continue; // one PE: the pass never applies
      for (const bool blocked : {false, true}) {
        check<Sim, Team>(Job{c, kShots, remap}, init, parts, blocked,
                         case_label(remap ? "measure_all remap=on"
                                          : "measure_all remap=off",
                                    parts, blocked));
      }
    }
  }
}

TEST(RangeSeamNonUnitary, ShmemMeasureResetMatchPerElementReference) {
  for_every_measure_reset_case<ShmemSim, ShmemTeam>();
}

TEST(RangeSeamNonUnitary, PeerMeasureResetMatchPerElementReference) {
  for_every_measure_reset_case<PeerSim, PeerTeam>();
}

TEST(RangeSeamNonUnitary, ShmemMeasureAllMatchesPerElementReference) {
  for_every_measure_all_case<ShmemSim, ShmemTeam>();
}

TEST(RangeSeamNonUnitary, PeerMeasureAllMatchesPerElementReference) {
  for_every_measure_all_case<PeerSim, PeerTeam>();
}

/// The multi-run readout cases' width: 2^11 amplitudes make eight of the
/// sweep's runs of 256 logical states, and each partition holds two or
/// four of them.
constexpr IdxType kRunsN = 11;

/// A circuit whose remap layout at `lg` local qubits ends with logical
/// qubit 0 on a partition qubit: qubit 0's last use comes first, then a
/// gate on every partition qubit, after which every other qubit below lg
/// is used again, so each swap the pass inserts evicts qubit 0 or a
/// partition qubit it has just brought in. X and CX only: they move
/// amplitudes without rounding them, so every backend's arithmetic
/// leaves the same state.
Circuit multi_run_circuit(IdxType lg) {
  Circuit c(kRunsN);
  c.x(0);
  for (IdxType q = 1; q < lg; ++q) c.x(q);
  for (IdxType q = lg; q < kRunsN; ++q) c.cx(q, 1);
  for (IdxType q = 1; q < lg; ++q) c.x(q);
  return c;
}

/// Measure-all across runs, on 2 and 4 PEs: in physical order (remap
/// off) and through a snapshot with logical qubit 0 on a partition qubit
/// (remap on), so every run's low table spans partitions; with 1, 3 and
/// 300 shots, so the walk stops inside a run.
template <class Sim, class Team>
void for_every_multi_run_case() {
  const StateVector init = random_state(kRunsN, 1732);
  for (const int parts : {2, 4}) {
    const IdxType lg = kRunsN - log2_exact(parts);
    const Circuit c = multi_run_circuit(lg);
    ASSERT_GE(remap_for_partition(c, lg).layout[0], lg) << "x" << parts;
    for (const bool remap : {false, true}) {
      for (const IdxType shots : {1, 3, 300}) {
        check<Sim, Team>(
            Job{c, shots, remap}, init, parts, false,
            case_label("measure_all n=" + std::to_string(kRunsN) +
                           (remap ? " remap=on" : " remap=off") + " shots " +
                           std::to_string(shots),
                       parts, false));
      }
    }
  }
}

TEST(RangeSeamNonUnitary, ShmemMultiRunMeasureAllMatchesPerElementReference) {
  for_every_multi_run_case<ShmemSim, ShmemTeam>();
}

TEST(RangeSeamNonUnitary, PeerMultiRunMeasureAllMatchesPerElementReference) {
  for_every_multi_run_case<PeerSim, PeerTeam>();
}

/// CoarseMsgSim's rank-0 sweep walks the same runs over its gathered
/// partitions: on the multi-run circuit with remap on, its samples equal
/// SingleSim's, which never remaps, on 2 and 4 ranks.
TEST(RangeSeamNonUnitary, CoarseMultiRunSamplesMatchSingleSim) {
  const StateVector init = random_state(kRunsN, 1732);
  for (const int parts : {2, 4}) {
    const Circuit c = multi_run_circuit(kRunsN - log2_exact(parts));
    SimConfig cfg;
    cfg.remap = 1;
    CoarseMsgSim coarse(kRunsN, parts, cfg);
    coarse.load_state(init);
    coarse.run(c);
    ASSERT_GT(coarse.last_report().remap.swaps_inserted, 0u) << "x" << parts;
    SingleSim single(kRunsN);
    single.load_state(init);
    single.run(c);
    for (const IdxType shots : {1, 3, 300}) {
      EXPECT_EQ(coarse.sample(shots), single.sample(shots))
          << "x" << parts << " shots " << shots;
    }
  }
}

/// Operand placements of a `width`-qubit op for the range calls on
/// `n_parts` partitions: in-vector operands at every lane width (0, 1,
/// 2), operands at and above it (3), below lg_part, and on the partition
/// qubits.
std::vector<std::pair<IdxType, IdxType>> range_placements(int width,
                                                          int n_parts) {
  const IdxType lg = kN - log2_exact(n_parts);
  std::set<std::pair<IdxType, IdxType>> out;
  if (width == 1) {
    for (const IdxType q : {IdxType{0}, IdxType{1}, IdxType{3}, lg - 1, lg,
                            kN - 1}) {
      out.insert({q, -1});
    }
  } else {
    out.insert({0, 1});
    out.insert({1, 0});
    out.insert({0, 2});
    out.insert({3, lg - 1});
    for (const IdxType low : {IdxType{0}, IdxType{1}, IdxType{3}}) {
      out.insert({low, kN - 1});
      out.insert({kN - 1, low});
      out.insert({low, lg});
    }
    if (lg < kN - 1) {
      out.insert({lg, kN - 1});
      out.insert({kN - 1, lg});
    }
  }
  return {out.begin(), out.end()};
}

/// Work ranges over `work` items in runs of `run` items: the whole range,
/// and ranges that start mid-vector and cross run boundaries.
std::vector<std::pair<IdxType, IdxType>> ranges(IdxType work, IdxType run) {
  const auto clamp = [&](IdxType b, IdxType e) {
    b = std::min(std::max(b, IdxType{0}), work);
    return std::make_pair(b, std::min(std::max(e, b), work));
  };
  return {clamp(0, work),           clamp(1, work - 1),
          clamp(3, run + 5),        clamp(run - 3, 2 * run + 1),
          clamp(run / 2 + 1, work - 2), clamp(5, 6)};
}

/// The cuts of [begin, end) among `n_parts` workers: the even split with
/// every other inner bound one item later, so pieces start mid-vector.
std::vector<IdxType> cuts(IdxType begin, IdxType end, int n_parts) {
  std::vector<IdxType> at{begin};
  for (int w = 1; w < n_parts; ++w) {
    const IdxType c = begin + (end - begin) * w / n_parts + (w % 2 == 1);
    at.push_back(std::min(std::max(c, at.back()), end));
  }
  at.push_back(end);
  return at;
}

/// Space's kernel-table range entries, at every carried lane level, on
/// the ranges above, each cut among the workers (every worker calls the
/// entry on its piece at once, so pieces of one run store into one
/// partition side by side), against the per-element table on the same
/// pieces: every unitary op × range placement × PE count {2, 4}.
/// Amplitudes must match bit for bit and each worker's counts and the
/// PE×PE matrix exactly, call by call.
template <class Space, class Team>
void for_every_range_call() {
  const StateVector init = random_state(kN, 1414);
  for (const SimdLevel level : carried_levels()) {
    kernels::with_lane(level, [&]<class L>() {
      const auto& table = KernelTable<Space>::template get<L>();
      kernels::for_each_unitary([&]<OP op, kernels::Pat P, class B>() {
        using Pt = kernels::Pattern<P>;
        for (const int parts : {2, 4}) {
          const IdxType lg = kN - log2_exact(parts);
          Team got(init, parts);
          Team want(init, parts);
          RefContext rc(kN, parts, 1);
          for (const auto& [a, b] :
               range_placements(op_info(op).n_qubits, parts)) {
            Gate g = b < 0 ? make_gate(op, a) : make_gate(op, a, b);
            g.theta = 0.613;
            g.phi = -0.35;
            g.lam = 1.2;
            Circuit owner(kN);
            if (op == OP::DENSE2) {
              Rng rng(static_cast<std::uint64_t>(3 * a + b));
              owner.dense2(testing::random_unitary_2q(rng), a, b);
              g = owner.gates().back();
            }
            ValType coef[kernels::kMaxCoefRows] = {};
            kernels::fill_coef(g, owner.dense_table(), coef, 1, 0);
            const UGate ug{g, coef, 1};
            const Pt pat(g);
            const IdxType below =
                (pat.p < lg ? 1 : 0) + (Pt::kTwoQubit && pat.q < lg ? 1 : 0);
            const IdxType work = gate_work_items(g, kN);
            for (const auto& [begin, end] : ranges(work, pow2(lg - below))) {
              const std::vector<IdxType> cut = cuts(begin, end, parts);
              const auto piece = [&](const auto& entries, const Space& sp) {
                const auto w = static_cast<std::size_t>(sp.worker());
                entries[static_cast<int>(op)](ug, sp, cut[w], cut[w + 1]);
              };
              const Counts gc = got.launch(
                  rc, [&](const Space& sp) { piece(table, sp); });
              const Counts wc = want.launch(rc, [&](const Space& sp) {
                piece(per_element_table<Space>(), sp);
              });
              const std::string at = std::string(op_name(op)) + " simd " +
                                     to_string(level) + " x" +
                                     std::to_string(parts) + " (" +
                                     std::to_string(a) + "," +
                                     std::to_string(b) + ") [" +
                                     std::to_string(begin) + "," +
                                     std::to_string(end) + ")";
              expect_bitwise_equal(got.physical(), want.physical(), at);
              EXPECT_EQ(gc.workers, wc.workers) << at;
              EXPECT_EQ(gc.matrix, wc.matrix) << at;
            }
          }
        }
      });
    });
  }
}

TEST(RangeSeamRuns, ShmemRangesMatchPerElementTable) {
  for_every_range_call<ShmemSpace, ShmemTeam>();
}

TEST(RangeSeamRuns, PeerRangesMatchPerElementTable) {
  for_every_range_call<PeerSpace, PeerTeam>();
}

} // namespace
} // namespace svsim
