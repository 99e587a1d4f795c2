#include "inputs.hpp"

#include <cmath>
#include <cstdio>
#include <numeric>
#include <utility>

#include "common/rng.hpp"

namespace perfbench {

namespace {

std::uint64_t mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// An angle printed with every digit, so the parsed value is the drawn one.
std::string angle(svsim::Rng& rng) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", rng.uniform(-svsim::PI, svsim::PI));
  return buf;
}

/// `k` distinct qubits of [0, n).
std::vector<IdxType> distinct(svsim::Rng& rng, IdxType n, int k) {
  std::vector<IdxType> q;
  while (static_cast<int>(q.size()) < k) {
    const auto c = static_cast<IdxType>(rng.next_below(static_cast<std::uint64_t>(n)));
    bool fresh = true;
    for (const IdxType x : q) fresh = fresh && x != c;
    if (fresh) q.push_back(c);
  }
  return q;
}

std::string operand(IdxType q) { return "q[" + std::to_string(q) + "]"; }

} // namespace

std::uint64_t input_seed(std::uint64_t seed, std::uint64_t stream,
                         std::uint64_t index) {
  return mix64(mix64(mix64(seed) ^ stream) + index);
}

std::string random_qasm(IdxType n, int statements, std::uint64_t seed) {
  // Every program holds the same multiset of statement kinds in a random
  // order, so jobs differ only in order, operands and angles: the lowered
  // gate count is the same for every job.
  enum Kind { kFixed1q, kRot1q, kU2, kU3, kFixed2q, kRot2q, kCu3, kCcx };
  static const char* const kFixed1qNames[] = {"x", "y", "z", "h", "s",
                                              "sdg", "t", "tdg"};
  static const char* const kRot1qNames[] = {"rx", "ry", "rz", "u1"};
  static const char* const kFixed2qNames[] = {"cx", "cz", "cy", "swap"};
  static const char* const kRot2qNames[] = {"cu1", "crz", "rzz"};
  // Shares of the statements: 55% one-qubit, 40% two-qubit, 5% ccx.
  const struct {
    Kind kind;
    double share;
    int names; // statements of this kind cycle through this many names
  } mix[] = {{kFixed1q, 0.275, 8}, {kRot1q, 0.165, 4}, {kU2, 0.055, 1},
             {kU3, 0.055, 1},      {kFixed2q, 0.22, 4}, {kRot2q, 0.12, 3},
             {kCu3, 0.06, 1},      {kCcx, 0.05, 1}};

  struct Stmt {
    Kind kind;
    int name;
  };
  std::vector<Stmt> stmts;
  for (const auto& m : mix) {
    const int count = static_cast<int>(std::lround(m.share * statements));
    for (int i = 0; i < count; ++i) stmts.push_back(Stmt{m.kind, i % m.names});
  }
  stmts.resize(static_cast<std::size_t>(statements), Stmt{kFixed1q, 0});

  svsim::Rng rng(seed);
  for (std::size_t i = stmts.size() - 1; i > 0; --i) {
    std::swap(stmts[i], stmts[rng.next_below(i + 1)]);
  }
  std::string s = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[" +
                  std::to_string(n) + "];\ncreg c[" + std::to_string(n) +
                  "];\n";
  for (const Stmt& st : stmts) {
    const int arity = st.kind == kCcx ? 3 : st.kind >= kFixed2q ? 2 : 1;
    const auto q = distinct(rng, n, arity);
    switch (st.kind) {
      case kFixed1q: s += kFixed1qNames[st.name]; break;
      case kRot1q: s += std::string(kRot1qNames[st.name]) + "(" + angle(rng) + ")"; break;
      case kU2: s += "u2(" + angle(rng) + "," + angle(rng) + ")"; break;
      case kU3:
      case kCu3:
        s += std::string(st.kind == kU3 ? "u3(" : "cu3(") + angle(rng) + "," +
             angle(rng) + "," + angle(rng) + ")";
        break;
      case kFixed2q: s += kFixed2qNames[st.name]; break;
      case kRot2q: s += std::string(kRot2qNames[st.name]) + "(" + angle(rng) + ")"; break;
      case kCcx: s += "ccx"; break;
    }
    for (int k = 0; k < arity; ++k) {
      s += k ? "," : " ";
      s += operand(q[static_cast<std::size_t>(k)]);
    }
    s += ";\n";
  }
  return s;
}

svsim::Circuit qv_circuit(IdxType n, int layers, std::uint64_t seed) {
  svsim::Rng rng(seed);
  svsim::Circuit c(n);
  std::vector<IdxType> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  const auto u3 = [&](IdxType q) {
    c.u3(rng.uniform(0, svsim::PI), rng.uniform(-svsim::PI, svsim::PI),
         rng.uniform(-svsim::PI, svsim::PI), q);
  };
  for (int l = 0; l < layers; ++l) {
    for (std::size_t i = perm.size() - 1; i > 0; --i) {
      std::swap(perm[i], perm[rng.next_below(i + 1)]);
    }
    for (std::size_t i = 0; i + 1 < perm.size(); i += 2) {
      const IdxType a = perm[i];
      const IdxType b = perm[i + 1];
      u3(a);
      u3(b);
      c.cx(a, b);
      u3(a);
      u3(b);
      c.cx(b, a);
    }
  }
  return c;
}

std::vector<std::vector<ValType>> param_group(int count, std::size_t n_params,
                                              std::uint64_t seed) {
  svsim::Rng rng(seed);
  std::vector<std::vector<ValType>> g(static_cast<std::size_t>(count),
                                      std::vector<ValType>(n_params));
  for (auto& p : g) {
    for (ValType& x : p) x = rng.uniform(-svsim::PI, svsim::PI);
  }
  return g;
}

svsim::vqa::Hamiltonian tfi_hamiltonian(IdxType n) {
  using svsim::vqa::PauliTerm;
  svsim::vqa::Hamiltonian h;
  const auto un = static_cast<std::size_t>(n);
  for (std::size_t q = 0; q < un; ++q) {
    std::string zz(un, 'I'), x(un, 'I');
    if (q + 1 < un) {
      zz[q] = 'Z';
      zz[q + 1] = 'Z';
      h.terms.push_back(PauliTerm::parse(-1.0, zz));
    }
    x[q] = 'X';
    h.terms.push_back(PauliTerm::parse(-0.7, x));
  }
  return h;
}

} // namespace perfbench
