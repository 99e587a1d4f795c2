#include "ir/remap.hpp"

#include <algorithm>
#include <numeric>

namespace svsim {

namespace {

/// First gate index >= from where logical qubit l is an operand, bounded
/// by `until`; returns `until` if not found in the window.
std::size_t next_use(const std::vector<Gate>& gates, std::size_t from,
                     std::size_t until, IdxType logical) {
  for (std::size_t i = from; i < until; ++i) {
    const Gate& g = gates[i];
    const int nq = op_info(g.op).n_qubits;
    if ((nq >= 1 && g.qb0 == logical) || (nq >= 2 && g.qb1 == logical)) {
      return i;
    }
  }
  return until;
}

} // namespace

RemapResult remap_for_partition(const Circuit& in, IdxType local_bits,
                                int lookahead,
                                const std::vector<IdxType>* initial_layout) {
  const IdxType n = in.n_qubits();
  SVSIM_CHECK(local_bits >= 1 && local_bits <= n,
              "local_bits out of range");
  SVSIM_CHECK(local_bits >= 2 || n == 1,
              "need at least two local slots to host a 2-qubit gate");

  RemapResult res{Circuit(n, CompoundMode::kNative, in.n_cbits()), {}, {},
                  0};
  std::vector<IdxType>& layout = res.layout; // logical -> physical
  layout.resize(static_cast<std::size_t>(n));
  if (initial_layout != nullptr) {
    SVSIM_CHECK(static_cast<IdxType>(initial_layout->size()) == n,
                "initial_layout width != circuit width");
    layout = *initial_layout;
  } else {
    std::iota(layout.begin(), layout.end(), 0);
  }
  std::vector<IdxType> inverse(static_cast<std::size_t>(n));
  for (IdxType l = 0; l < n; ++l) {
    inverse[static_cast<std::size_t>(layout[static_cast<std::size_t>(l)])] = l;
  }

  const auto& gates = in.gates();

  // Recency of use per logical qubit (gate index + 1 of the last gate
  // that touched it); the LRU eviction tie-break below.
  std::vector<std::size_t> last_use(static_cast<std::size_t>(n), 0);

  auto do_swap = [&](IdxType pa, IdxType pb) {
    res.circuit.swap(pa, pb);
    ++res.swaps_inserted;
    const IdxType la = inverse[static_cast<std::size_t>(pa)];
    const IdxType lb = inverse[static_cast<std::size_t>(pb)];
    std::swap(inverse[static_cast<std::size_t>(pa)],
              inverse[static_cast<std::size_t>(pb)]);
    layout[static_cast<std::size_t>(la)] = pb;
    layout[static_cast<std::size_t>(lb)] = pa;
  };

  for (std::size_t gi = 0; gi < gates.size(); ++gi) {
    const Gate& g = gates[gi];
    const int nq = op_info(g.op).n_qubits;

    if (g.op == OP::MA) {
      // Virtual readout: snapshot the live layout so the sampling kernel
      // can sweep in logical order; the row index travels in the MA
      // gate's otherwise-unused cbit field.
      const IdxType row =
          static_cast<IdxType>(res.ma_layouts.size() /
                               static_cast<std::size_t>(n));
      res.ma_layouts.insert(res.ma_layouts.end(), layout.begin(),
                            layout.end());
      Gate ma = g;
      ma.cbit = row;
      res.circuit.append_raw(ma);
      continue;
    }

    // Bring every remote operand of a *unitary* gate into the local
    // region. Measure/reset are global reductions either way — swapping
    // their operand local would add traffic, not remove it — so they are
    // only operand-rewritten below.
    const IdxType operands[2] = {g.qb0, g.qb1};
    if (is_unitary_op(g.op)) {
      for (int oi = 0; oi < std::min(nq, 2); ++oi) {
        const IdxType logical = operands[oi];
        if (layout[static_cast<std::size_t>(logical)] < local_bits) continue;

        // Eviction victim: the local slot whose occupant's next use is
        // the farthest away (and which is not an operand of this gate);
        // among equally-distant candidates, the least recently used —
        // strict greater-than alone always re-evicted slot 0 when every
        // occupant's next use fell past the window, thrashing one slot
        // on QFT-style ladders.
        const std::size_t window =
            std::min(gates.size(), gi + static_cast<std::size_t>(lookahead));
        IdxType victim = -1;
        std::size_t best = 0;
        std::size_t best_last = 0;
        for (IdxType v = 0; v < local_bits; ++v) {
          const IdxType occupant = inverse[static_cast<std::size_t>(v)];
          bool is_operand = false;
          for (int oj = 0; oj < std::min(nq, 2); ++oj) {
            if (operands[oj] == occupant) is_operand = true;
          }
          if (is_operand) continue;
          const std::size_t use = next_use(gates, gi + 1, window, occupant);
          const std::size_t last =
              last_use[static_cast<std::size_t>(occupant)];
          if (victim < 0 || use > best || (use == best && last < best_last)) {
            victim = v;
            best = use;
            best_last = last;
          }
        }
        SVSIM_CHECK(victim >= 0, "no evictable local slot");
        do_swap(layout[static_cast<std::size_t>(logical)], victim);
      }
    }

    for (int oi = 0; oi < std::min(nq, 2); ++oi) {
      last_use[static_cast<std::size_t>(operands[oi])] = gi + 1;
    }

    // Emit the gate with physical operands.
    Gate mapped = g;
    if (nq >= 1 && g.qb0 >= 0) {
      mapped.qb0 = layout[static_cast<std::size_t>(g.qb0)];
    }
    if (nq >= 2 && g.qb1 >= 0) {
      mapped.qb1 = layout[static_cast<std::size_t>(g.qb1)];
    }
    res.circuit.append(mapped);
  }
  return res;
}

void restore_layout(Circuit& c, std::vector<IdxType> layout) {
  const auto n = static_cast<IdxType>(layout.size());
  std::vector<IdxType> inverse(static_cast<std::size_t>(n));
  for (IdxType l = 0; l < n; ++l) {
    inverse[static_cast<std::size_t>(layout[static_cast<std::size_t>(l)])] = l;
  }
  for (IdxType q = 0; q < n; ++q) {
    const IdxType p = layout[static_cast<std::size_t>(q)];
    if (p == q) continue;
    // Move logical q from physical p to physical q.
    c.swap(p, q);
    const IdxType displaced = inverse[static_cast<std::size_t>(q)];
    layout[static_cast<std::size_t>(displaced)] = p;
    layout[static_cast<std::size_t>(q)] = q;
    inverse[static_cast<std::size_t>(p)] = displaced;
    inverse[static_cast<std::size_t>(q)] = q;
  }
}

} // namespace svsim
