// CoarseMsgSim: the traditional MPI-style distributed baseline (§2.1/§6).
//
// This is the communication model the paper argues *against*: the state
// vector is partitioned across ranks, and whenever a gate touches a qubit
// above the partition boundary, ranks pack their whole partition into a
// message, exchange with the XOR partner(s) in a two-sided send/recv, and
// unpack before computing — coarse-grained transfers, per-gate
// synchronization, and no fine-grained overlap. Gates are applied as
// generic dense matrices with runtime dispatch (the Aer-style execution
// model distributed simulators of §6 use).
//
// Ranks are host threads connected by buffered mailboxes (the stand-in for
// MPI point-to-point; see DESIGN.md). Message counters record the traffic
// the machine model prices when contrasting coarse messaging with
// fine-grained SHMEM (bench_ablation_comm).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "common/aligned.hpp"
#include "common/config.hpp"
#include "common/rng.hpp"
#include "core/simulator.hpp"
#include "ir/matrices.hpp"

namespace svsim {

/// Buffered point-to-point channel set for one receiving rank: messages
/// from each source are FIFO-ordered, like MPI with per-peer ordering.
class Mailbox {
public:
  /// `owner` is the receiving rank — the PE in-flight payload bytes are
  /// attributed to in the memory registry.
  explicit Mailbox(int n_ranks, int owner = -1)
      : owner_(owner), queues_(static_cast<std::size_t>(n_ranks)) {}

  ~Mailbox() {
    // Return any payloads still queued (a run torn down by an
    // exception) so the transient accounting balances.
    for (const auto& q : queues_) {
      for (const auto& buf : q) {
        obs::MemRegistry::global().adjust(
            obs::MemTag::kMailbox,
            -static_cast<std::int64_t>(buf.size() * sizeof(ValType)), owner_);
      }
    }
  }

  void send(int src, std::vector<ValType>&& buf) {
    // In-flight payload bytes live in this mailbox until the matching
    // recv; transient accounting (no stable address to NUMA-sample).
    obs::MemRegistry::global().adjust(
        obs::MemTag::kMailbox,
        static_cast<std::int64_t>(buf.size() * sizeof(ValType)), owner_);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queues_[static_cast<std::size_t>(src)].push_back(std::move(buf));
    }
    cv_.notify_all();
  }

  std::vector<ValType> recv(int src) {
    // Blocked two-sided receive: the coarse tier's dominant wait. One
    // kTransfer span per message (inert when the thread isn't bound).
    obs::WaitScope wait(obs::WaitKind::kTransfer);
    std::unique_lock<std::mutex> lock(mutex_);
    auto& q = queues_[static_cast<std::size_t>(src)];
    cv_.wait(lock, [&] { return !q.empty(); });
    std::vector<ValType> buf = std::move(q.front());
    q.pop_front();
    lock.unlock();
    obs::MemRegistry::global().adjust(
        obs::MemTag::kMailbox,
        -static_cast<std::int64_t>(buf.size() * sizeof(ValType)), owner_);
    return buf;
  }

private:
  int owner_ = -1;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<std::deque<std::vector<ValType>>> queues_;
};

/// Aggregate message-passing statistics for one run.
struct MsgStats {
  std::uint64_t messages = 0;     // point-to-point sends
  std::uint64_t bytes = 0;        // payload bytes sent
  std::uint64_t exchange_gates = 0; // gates that required communication
  std::uint64_t local_gates = 0;    // gates computed purely locally
  /// Payload bytes sent per destination rank (one row of the PE×PE
  /// traffic matrix; its sum equals `bytes`). Empty until a run sizes it.
  std::vector<std::uint64_t> per_dest_bytes;
};

class CoarseMsgSim final : public Simulator {
public:
  CoarseMsgSim(IdxType n_qubits, int n_ranks, SimConfig cfg = {});

  const char* name() const override { return "coarse-msg"; }
  IdxType n_qubits() const override { return n_; }
  int n_ranks() const { return n_ranks_; }
  void reset_state() override;
  void run(const Circuit& circuit) override;

  MsgStats stats() const;

private:
  class Rank; // per-rank execution context (defined in the .cpp)

  IdxType n_;
  IdxType dim_;
  int n_ranks_;

  std::vector<obs::TrackedBuffer<ValType>> real_parts_;
  std::vector<obs::TrackedBuffer<ValType>> imag_parts_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;

  std::vector<Rng> rngs_;
  std::vector<MsgStats> stats_;
};

} // namespace svsim
