#include "ir/op.hpp"

#include <array>
#include <unordered_map>

#include "common/error.hpp"

namespace svsim {

namespace {

constexpr std::array<OpInfo, kNumOps> kOpTable = {{
    // name        qubits params class
    {"u3", 1, 3, OpClass::kBasic},
    {"u2", 1, 2, OpClass::kBasic},
    {"u1", 1, 1, OpClass::kBasic},
    {"cx", 2, 0, OpClass::kBasic},
    {"id", 1, 0, OpClass::kBasic},
    {"x", 1, 0, OpClass::kStandard},
    {"y", 1, 0, OpClass::kStandard},
    {"z", 1, 0, OpClass::kStandard},
    {"h", 1, 0, OpClass::kStandard},
    {"s", 1, 0, OpClass::kStandard},
    {"sdg", 1, 0, OpClass::kStandard},
    {"t", 1, 0, OpClass::kStandard},
    {"tdg", 1, 0, OpClass::kStandard},
    {"rx", 1, 1, OpClass::kStandard},
    {"ry", 1, 1, OpClass::kStandard},
    {"rz", 1, 1, OpClass::kStandard},
    {"cz", 2, 0, OpClass::kCompound2Q},
    {"cy", 2, 0, OpClass::kCompound2Q},
    {"ch", 2, 0, OpClass::kCompound2Q},
    {"swap", 2, 0, OpClass::kCompound2Q},
    {"crx", 2, 1, OpClass::kCompound2Q},
    {"cry", 2, 1, OpClass::kCompound2Q},
    {"crz", 2, 1, OpClass::kCompound2Q},
    {"cu1", 2, 1, OpClass::kCompound2Q},
    {"cu3", 2, 3, OpClass::kCompound2Q},
    {"rxx", 2, 1, OpClass::kCompound2Q},
    {"rzz", 2, 1, OpClass::kCompound2Q},
    {"ccx", 3, 0, OpClass::kCompoundMulti},
    {"cswap", 3, 0, OpClass::kCompoundMulti},
    {"rccx", 3, 0, OpClass::kCompoundMulti},
    {"rc3x", 4, 0, OpClass::kCompoundMulti},
    {"c3x", 4, 0, OpClass::kCompoundMulti},
    {"c3sqrtx", 4, 0, OpClass::kCompoundMulti},
    {"c4x", 5, 0, OpClass::kCompoundMulti},
    {"measure", 1, 0, OpClass::kNonUnitary},
    {"measure_all", 0, 0, OpClass::kNonUnitary},
    {"reset", 1, 0, OpClass::kNonUnitary},
    {"barrier", 0, 0, OpClass::kNonUnitary},
    {"dense2", 2, 0, OpClass::kFused},
}};

} // namespace

const OpInfo& op_info(OP op) {
  const auto idx = static_cast<std::size_t>(op);
  SVSIM_CHECK(idx < kOpTable.size(), "invalid OP value");
  return kOpTable[idx];
}

OP op_from_name(const std::string& name) {
  static const std::unordered_map<std::string, OP> kByName = [] {
    std::unordered_map<std::string, OP> m;
    for (int i = 0; i < kNumOps; ++i) {
      m.emplace(kOpTable[static_cast<std::size_t>(i)].name,
                static_cast<OP>(i));
    }
    // OpenQASM 3 / Qiskit aliases seen in the wild.
    m.emplace("p", OP::U1);      // phase gate
    m.emplace("cp", OP::CU1);    // controlled phase
    m.emplace("u", OP::U3);
    m.emplace("toffoli", OP::CCX);
    m.emplace("fredkin", OP::CSWAP);
    return m;
  }();
  auto it = kByName.find(name);
  SVSIM_CHECK(it != kByName.end(), "unknown gate mnemonic: " + name);
  return it->second;
}

} // namespace svsim
