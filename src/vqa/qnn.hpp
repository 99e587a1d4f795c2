// Variational quantum neural network for binary classification — the
// Fig 1 circuit and the §5 power-grid contingency use case.
//
// Four qubits: two data qubits carry the angle-encoded features, two
// weight qubits carry trainable rotations, controlled rotations entangle
// weights into data, and the probability of reading |0> on qubit 0 is the
// class score. Training re-synthesizes the circuit for every sample and
// every SPSA probe — the 28k-circuits-per-epoch pattern the paper times.
#pragma once

#include <array>
#include <vector>

#include "core/single_sim.hpp"
#include "vqa/optimizer.hpp"

namespace svsim::vqa {

struct QnnSample {
  std::array<ValType, 4> features; // gen P, gen Q, load P, load Q (in [0,1])
  int label = 0;                   // 1 = contingency violation
};

/// Synthetic IEEE-30-bus-style contingency dataset (see DESIGN.md §2:
/// substitution for the proprietary power-grid traces): features drawn
/// from plausible normalized ranges, label from a smooth nonlinear
/// violation rule.
std::vector<QnnSample> make_powergrid_dataset(int n_samples,
                                              std::uint64_t seed);

class QnnClassifier {
public:
  explicit QnnClassifier(std::uint64_t seed = 11);

  /// P(class = violation) for one sample: runs the Fig 1 circuit.
  ValType predict(const QnnSample& s) const;

  /// Fraction of samples classified correctly at threshold 0.5.
  ValType accuracy(const std::vector<QnnSample>& data) const;

  /// Mean cross-entropy loss over the dataset.
  ValType loss(const std::vector<QnnSample>& data) const;

  struct TrainStats {
    std::vector<ValType> loss_trace;      // per epoch
    std::vector<ValType> accuracy_trace;  // per epoch
    long circuit_evaluations = 0;         // circuits synthesized + run
    double total_ms = 0;                  // wall time in the simulator
  };

  /// SPSA training: `iters_per_epoch` SPSA steps per epoch, each costing
  /// 2 dataset sweeps.
  TrainStats train(const std::vector<QnnSample>& data, int epochs,
                   int iters_per_epoch = 25);

  long circuit_evaluations() const { return evals_; }

private:
  Circuit build_circuit(const QnnSample& s,
                        const std::vector<ValType>& w) const;
  ValType predict_with(const QnnSample& s,
                       const std::vector<ValType>& w) const;

  static constexpr IdxType kQubits = 4;
  std::vector<ValType> weights_; // 8 trainable rotation angles
  mutable SingleSim sim_;
  mutable long evals_ = 0;
  mutable double total_seconds_ = 0;
};

} // namespace svsim::vqa
