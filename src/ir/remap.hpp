// Communication-avoiding qubit remapping for partitioned execution.
//
// §6 of the paper describes the competing technique used by JUQCS and by
// Li & Yuan: instead of paying remote traffic for every gate on a
// high-order qubit, *swap* the hot logical qubit into the node-local
// index range and keep executing locally. This pass implements that
// transformation on top of SV-Sim's circuits: given a partitioning with
// `local_bits` node-local index bits, it greedily relocates logical
// qubits that are about to be used out of the remote region, rewriting
// all operands through the evolving layout.
//
// Readout is *virtual*: the pass never un-permutes the state. Per-qubit
// measure/reset operands are rewritten through the live layout like any
// other gate, and each measure_all records a snapshot of the layout at
// that point (RemapResult::ma_layouts) so the sampling kernel can sweep
// the distribution in logical order — reading the amplitude for logical
// basis state k at physical index permute_bits(k, snapshot, n) — and
// report logical bitstrings. cbits and samples therefore match the
// unremapped run without the O(n) restore-swap epilogue that would
// re-pay exactly the global traffic the pass exists to avoid.
//
// The pass is a pure layout rewrite and prices nothing: the run
// pipeline prices its input and its emitted circuit (swaps included)
// with the run model (obs::remote_bytes) for the report's remap section.
//
// restore_layout() is retained for state-equivalence tests: it appends
// the physical swaps that return a layout to identity.
#pragma once

#include <vector>

#include "ir/circuit.hpp"

namespace svsim {

struct RemapResult {
  Circuit circuit;                 // rewritten circuit (physical operands)
  std::vector<IdxType> layout;     // layout[logical] = physical, at the end
  /// One n_qubits-entry layout snapshot per OP::MA in the input, in
  /// circuit order, flattened row-major. The emitted MA gate carries its
  /// row index in the (otherwise unused for MA) cbit field.
  std::vector<IdxType> ma_layouts;
  IdxType swaps_inserted = 0;
};

/// Remap `in` for a partitioning where physical qubits [0, local_bits)
/// are node-local. `lookahead` bounds how far the pass scans to pick the
/// eviction victim (the local qubit whose next use is farthest away;
/// ties broken least-recently-used). `initial_layout`, when non-null,
/// seeds the pass with a pre-existing permutation (layout[logical] =
/// physical) instead of identity — used by backends whose state is
/// already permuted from a previous execute().
RemapResult remap_for_partition(const Circuit& in, IdxType local_bits,
                                int lookahead = 64,
                                const std::vector<IdxType>* initial_layout =
                                    nullptr);

/// Append swaps to `c` that return `layout` to the identity permutation
/// (so the final state matches the unremapped circuit exactly).
void restore_layout(Circuit& c, std::vector<IdxType> layout);

} // namespace svsim
