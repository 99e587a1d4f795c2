// The partitioned tiers' range seam. ShmemSim and PeerSim run a range that
// stays inside one partition through the LocalSpace kernel on the raw
// partition, and a blocked window's diagonal run on the raw partition,
// counting the traffic of each once. Everything else goes element by
// element through the Space.
//
// Each case is pinned against the per-element reference: every unitary
// op's solo_kernel<P, B, ScalarLane, Space> and the diagonal runs through
// the Space's own element access, driven by the same window schedule and
// the same syncs. Covered: every unitary op × operand placement (below
// lg_part, one operand on a partition qubit, both on partition qubits) ×
// PE count {1, 2, 4} × {per-gate, blocked}, on both backends. Amplitudes
// must match bit for bit; TrafficStats, PeerTraffic and the PE×PE traffic
// matrix must match exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/peer_sim.hpp"
#include "core/pipeline.hpp"
#include "core/shmem_sim.hpp"

namespace svsim {
namespace {

constexpr IdxType kN = 7;
constexpr int kBlockExp = 3; // several blocks per partition at every PE count

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

/// Space's kernel table with every unitary entry replaced by the
/// per-element strategy: solo_kernel<P, B, ScalarLane, Space>.
template <class Space>
const typename KernelTable<Space>::Table& per_element_table() {
  static const typename KernelTable<Space>::Table table = [] {
    typename KernelTable<Space>::Table t = KernelTable<Space>::get();
    kernels::for_each_unitary([&]<OP op, kernels::Pat P, class B>() {
      t[static_cast<int>(op)] =
          &kernels::solo_kernel<P, B, kernels::ScalarLane, Space>;
    });
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

SimConfig seam_config(bool blocked) {
  SimConfig cfg;
  cfg.sched_window = blocked ? kBlockExp : 0;
  cfg.remap = 0; // keep every operand where the case placed it
  return cfg;
}

/// Amplitudes of partitions `re`/`im` (2^lg each) in index order.
StateVector gather(const std::vector<std::vector<ValType>>& re,
                   const std::vector<std::vector<ValType>>& im) {
  StateVector sv(kN);
  for (std::size_t k = 0; k < sv.amps.size(); ++k) {
    const std::size_t per = re[0].size();
    sv.amps[k] = Complex{re[k / per][k % per], im[k / per][k % per]};
  }
  return sv;
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

void check_shmem(const Circuit& c, const StateVector& init, int n_pes,
                 bool blocked, const std::string& what) {
  const SimConfig cfg = seam_config(blocked);
  ShmemSim sim(kN, n_pes, cfg);
  sim.load_state(init);
  sim.run(c);
  if (blocked) {
    ASSERT_GT(sim.last_report().sched.windows, 0u) << what;
  }

  const IdxType lg = kN - log2_exact(n_pes);
  const auto per = static_cast<std::size_t>(pow2(lg));
  shmem::Runtime rt(n_pes, per * 2 * sizeof(ValType) + (1u << 16));
  auto [re, im] = split(init, n_pes);
  std::vector<ValType*> re_sym(static_cast<std::size_t>(n_pes));
  std::vector<ValType*> im_sym(static_cast<std::size_t>(n_pes));
  rt.run([&](shmem::Ctx& ctx) {
    const auto pe = static_cast<std::size_t>(ctx.pe());
    re_sym[pe] = ctx.malloc_sym<ValType>(per);
    im_sym[pe] = ctx.malloc_sym<ValType>(per);
    std::copy(re[pe].begin(), re[pe].end(), re_sym[pe]);
    std::copy(im[pe].begin(), im[pe].end(), im_sym[pe]);
  });
  const auto dc = upload_circuit<ShmemSpace>(c, per_element_table<ShmemSpace>());
  const auto ex = kernels::prepare_sched<ShmemSpace>(
      c, dc.gates, resolve(cfg).block_exp, lg, false);
  rt.run([&](shmem::Ctx& ctx) {
    ShmemSpace sp;
    sp.ctx = &ctx;
    sp.real_sym = re_sym[static_cast<std::size_t>(ctx.pe())];
    sp.imag_sym = im_sym[static_cast<std::size_t>(ctx.pe())];
    sp.lg_part = lg;
    reference_worker(dc, ex, sp);
  });
  for (int pe = 0; pe < n_pes; ++pe) {
    const auto p = static_cast<std::size_t>(pe);
    std::copy(re_sym[p], re_sym[p] + per, re[p].begin());
    std::copy(im_sym[p], im_sym[p] + per, im[p].begin());
  }

  expect_bitwise_equal(sim.state(), gather(re, im), what);
  for (int pe = 0; pe < n_pes; ++pe) {
    EXPECT_EQ(sim.per_pe_traffic()[static_cast<std::size_t>(pe)].summary(),
              rt.per_pe_traffic()[static_cast<std::size_t>(pe)].summary())
        << what << " PE " << pe;
  }
  EXPECT_EQ(sim.last_report().matrix.bytes, rt.traffic_matrix()) << what;
}

void check_peer(const Circuit& c, const StateVector& init, int n_dev,
                bool blocked, const std::string& what) {
  const SimConfig cfg = seam_config(blocked);
  PeerSim sim(kN, n_dev, cfg);
  sim.load_state(init);
  sim.run(c);
  if (blocked) {
    ASSERT_GT(sim.last_report().sched.windows, 0u) << what;
  }

  const IdxType lg = kN - log2_exact(n_dev);
  const auto n = static_cast<std::size_t>(n_dev);
  auto [re, im] = split(init, n_dev);
  std::vector<ValType*> re_ptr;
  std::vector<ValType*> im_ptr;
  for (std::size_t d = 0; d < n; ++d) {
    re_ptr.push_back(re[d].data());
    im_ptr.push_back(im[d].data());
  }
  std::vector<PeerTraffic> traffic(n);
  std::vector<std::vector<std::uint64_t>> per_dest(
      n, std::vector<std::uint64_t>(n, 0));
  const auto dc = upload_circuit<PeerSpace>(c, per_element_table<PeerSpace>());
  const auto ex = kernels::prepare_sched<PeerSpace>(
      c, dc.gates, resolve(cfg).block_exp, lg, false);
  shmem::Barrier grid(n_dev);
  launch_team(n_dev, [&](int d) {
    const auto i = static_cast<std::size_t>(d);
    traffic[i].per_dest = per_dest[i].data();
    PeerSpace sp;
    sp.real_parts = re_ptr.data();
    sp.imag_parts = im_ptr.data();
    sp.lg_part = lg;
    sp.worker_id = d;
    sp.num_workers = n_dev;
    sp.barrier = &grid;
    sp.traffic = &traffic[i];
    reference_worker(dc, ex, sp);
  });

  expect_bitwise_equal(sim.state(), gather(re, im), what);
  std::vector<std::uint64_t> matrix;
  for (std::size_t d = 0; d < n; ++d) {
    const PeerTraffic& got = sim.per_device_traffic()[d];
    EXPECT_EQ(got.local_access, traffic[d].local_access) << what << " dev " << d;
    EXPECT_EQ(got.remote_access, traffic[d].remote_access)
        << what << " dev " << d;
    for (const std::uint64_t accesses : per_dest[d]) {
      matrix.push_back(accesses * sizeof(ValType));
    }
  }
  EXPECT_EQ(sim.last_report().matrix.bytes, matrix) << what;
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
  Circuit c(kN);
  c.h(0).h(1);
  c.append(g);
  c.h(2);
  c.append(g);
  c.append(g);
  c.h(0).h(1);
  return c;
}

template <class Check>
void for_every_case(OP op, Check&& check) {
  const StateVector init = random_state(kN, 4242);
  for (const int parts : {1, 2, 4}) {
    for (const auto& [a, b] : placements(op_info(op).n_qubits, parts)) {
      Gate g = b < 0 ? make_gate(op, a) : make_gate(op, a, b);
      g.theta = 0.613;
      g.phi = -0.35;
      g.lam = 1.2;
      for (const bool blocked : {false, true}) {
        check(seam_circuit(g), init, parts, blocked,
              std::string(op_name(op)) + " (" + std::to_string(a) + "," +
                  std::to_string(b) + ") x" + std::to_string(parts) +
                  (blocked ? " blocked" : " per-gate"));
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
  for_every_case(GetParam(), check_shmem);
}

TEST_P(RangeSeamTest, PeerMatchesPerElementReference) {
  for_every_case(GetParam(), check_peer);
}

INSTANTIATE_TEST_SUITE_P(AllUnitaryOps, RangeSeamTest,
                         ::testing::ValuesIn(unitary_ops()),
                         [](const ::testing::TestParamInfo<OP>& info) {
                           return std::string(op_name(info.param));
                         });

} // namespace
} // namespace svsim
