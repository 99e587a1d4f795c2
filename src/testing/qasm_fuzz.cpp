#include "testing/qasm_fuzz.hpp"

#include <cmath>
#include <sstream>
#include <vector>

#include "common/rng.hpp"
#include "qasm/lexer.hpp"
#include "qasm/parser.hpp"

namespace svsim::testing {

namespace {

// ---------------------------------------------------------------------------
// Valid-source generation
// ---------------------------------------------------------------------------

struct Reg {
  std::string name;
  IdxType size;
};

std::string fmt(double v) {
  std::ostringstream os;
  os.precision(12);
  os << v;
  return os.str();
}

/// prefix + s, built by appending: GCC 12 flags `"lit" + <temporary
/// string>` (the insert-at-front path) with a false -Wrestrict.
std::string prefixed(const char* prefix, const std::string& s) {
  std::string out(prefix);
  out += s;
  return out;
}

/// A random parameter expression exercising the grammar: literals, pi,
/// unary minus, + - * / ^, parentheses, and the unary functions — but
/// always numerically safe (no 1/0, ln(0), sqrt(<0)).
std::string rand_expr(Rng& rng, const std::vector<std::string>& params,
                      int depth = 0) {
  const double lit = rng.uniform(-2 * PI, 2 * PI);
  const auto d = 1 + rng.next_below(8);
  switch (rng.next_below(depth >= 2 ? 6 : 10)) {
    case 0: return fmt(lit);
    case 1: return prefixed("pi/", std::to_string(d));
    case 2: return prefixed("-pi/", std::to_string(d));
    case 3:
      return std::to_string(1 + rng.next_below(7)) + "*pi/" +
             std::to_string(d);
    case 4:
      if (!params.empty()) return params[rng.next_below(params.size())];
      return fmt(lit);
    case 5: return fmt(lit);
    case 6:
      return prefixed("sin(", rand_expr(rng, params, depth + 1)) + ")";
    case 7:
      return prefixed("cos(", rand_expr(rng, params, depth + 1)) + ")";
    case 8: {
      // Right operand first: the draw order GCC has always generated
      // these programs in, so a seed (and a recorded failure) keeps
      // naming the same program.
      const std::string rhs = rand_expr(rng, params, depth + 1);
      const std::string lhs = rand_expr(rng, params, depth + 1);
      return "(" + lhs + "+" + rhs + ")/2";
    }
    default:
      return prefixed("(", fmt(std::abs(lit) + 0.25)) + ")^0.5";
  }
}

const char* k1qNames[] = {"h",  "x",   "y", "z",   "s",  "sdg",
                          "t",  "tdg", "id"};
const char* k1q1pNames[] = {"rx", "ry", "rz", "u1"};
const char* k2qNames[] = {"cx", "cz", "cy", "ch", "swap"};
const char* k2q1pNames[] = {"crx", "cry", "crz", "cu1", "rxx", "rzz"};

} // namespace

std::string random_qasm(const QasmGenOptions& opt, std::uint64_t seed) {
  Rng rng(seed);
  std::ostringstream os;
  os << "OPENQASM 2.0;\n";
  os << "include \"qelib1.inc\";\n";

  // Registers: 1..max_qregs qregs splitting total_qubits, plus cregs
  // (mixed sizes so broadcast-form measures hit both shapes).
  std::vector<Reg> qregs, cregs;
  const auto n_qregs =
      1 + rng.next_below(static_cast<std::uint64_t>(opt.max_qregs));
  IdxType left = opt.total_qubits;
  for (std::uint64_t r = 0; r < n_qregs; ++r) {
    const IdxType remaining_regs = static_cast<IdxType>(n_qregs - r);
    IdxType size =
        r + 1 == n_qregs
            ? left
            : 1 + static_cast<IdxType>(rng.next_below(static_cast<std::uint64_t>(
                  left - remaining_regs + 1)));
    qregs.push_back({prefixed("q", std::to_string(r)), size});
    left -= size;
    os << "qreg q" << r << "[" << size << "];\n";
  }
  for (std::size_t r = 0; r < qregs.size(); ++r) {
    cregs.push_back({prefixed("c", std::to_string(r)), qregs[r].size});
    os << "creg c" << r << "[" << qregs[r].size << "];\n";
  }

  // User gate definitions: bodies over builtins (and earlier user gates),
  // with parameter expressions over the formals.
  std::vector<std::pair<std::string, int>> defs; // name, n_qargs
  const auto n_defs =
      rng.next_below(static_cast<std::uint64_t>(opt.max_gate_defs) + 1);
  for (std::uint64_t gi = 0; gi < n_defs; ++gi) {
    const std::string name = prefixed("gdef", std::to_string(gi));
    const int n_qargs = 2;
    const std::vector<std::string> params = {"p0", "p1"};
    os << "gate " << name << "(p0,p1) a,b {\n";
    const auto n_body = 2 + rng.next_below(4);
    for (std::uint64_t s = 0; s < n_body; ++s) {
      const char* qa = rng.next_below(2) == 0 ? "a" : "b";
      const char* qb = qa[0] == 'a' ? "b" : "a";
      switch (rng.next_below(5)) {
        case 0:
          os << "  " << k1qNames[rng.next_below(std::size(k1qNames))] << " "
             << qa << ";\n";
          break;
        case 1:
          os << "  " << k1q1pNames[rng.next_below(std::size(k1q1pNames))]
             << "(" << rand_expr(rng, params) << ") " << qa << ";\n";
          break;
        case 2:
          os << "  " << k2qNames[rng.next_below(std::size(k2qNames))] << " "
             << qa << "," << qb << ";\n";
          break;
        case 3:
          os << "  u3(" << rand_expr(rng, params) << ","
             << rand_expr(rng, params) << "," << rand_expr(rng, params)
             << ") " << qb << ";\n";
          break;
        default:
          os << "  barrier a,b;\n";
          break;
      }
    }
    os << "}\n";
    defs.emplace_back(name, n_qargs);
  }

  auto rand_reg = [&]() -> const Reg& {
    return qregs[rng.next_below(qregs.size())];
  };
  auto rand_bit = [&](const Reg& r) {
    return r.name + "[" +
           std::to_string(rng.next_below(static_cast<std::uint64_t>(r.size))) +
           "]";
  };
  // Two distinct single qubits drawn from the flattened qubit space (a
  // per-register draw could spin forever on a size-1 register).
  std::vector<std::string> all_bits;
  for (const Reg& r : qregs) {
    for (IdxType i = 0; i < r.size; ++i) {
      all_bits.push_back(r.name + "[" + std::to_string(i) + "]");
    }
  }
  auto two_distinct = [&]() {
    const std::size_t a = rng.next_below(all_bits.size());
    std::size_t b = rng.next_below(all_bits.size());
    while (b == a) b = rng.next_below(all_bits.size());
    return std::make_pair(all_bits[a], all_bits[b]);
  };

  const std::vector<std::string> no_params;
  for (int s = 0; s < opt.n_statements; ++s) {
    switch (rng.next_below(12)) {
      case 0: { // 1q on a single qubit
        os << k1qNames[rng.next_below(std::size(k1qNames))] << " "
           << rand_bit(rand_reg()) << ";\n";
        break;
      }
      case 1: { // 1q broadcast over a whole register
        os << k1qNames[rng.next_below(std::size(k1qNames))] << " "
           << rand_reg().name << ";\n";
        break;
      }
      case 2: { // parametric 1q
        os << k1q1pNames[rng.next_below(std::size(k1q1pNames))] << "("
           << rand_expr(rng, no_params) << ") " << rand_bit(rand_reg())
           << ";\n";
        break;
      }
      case 3: { // u2/u3 forms
        if (rng.next_below(2) == 0) {
          os << "u2(" << rand_expr(rng, no_params) << ","
             << rand_expr(rng, no_params) << ") " << rand_bit(rand_reg())
             << ";\n";
        } else {
          os << "u3(" << rand_expr(rng, no_params) << ","
             << rand_expr(rng, no_params) << "," << rand_expr(rng, no_params)
             << ") " << rand_bit(rand_reg()) << ";\n";
        }
        break;
      }
      case 4: { // 2q on distinct single qubits
        const auto [a, b] = two_distinct();
        os << k2qNames[rng.next_below(std::size(k2qNames))] << " " << a << ","
           << b << ";\n";
        break;
      }
      case 5: { // parametric 2q
        const auto [a, b] = two_distinct();
        os << k2q1pNames[rng.next_below(std::size(k2q1pNames))] << "("
           << rand_expr(rng, no_params) << ") " << a << "," << b << ";\n";
        break;
      }
      case 6: { // register-broadcast 2q: distinct equal-size registers,
                // or single-qubit control against a whole register.
        const Reg& ra = rand_reg();
        const Reg* rb = nullptr;
        for (const Reg& r : qregs) {
          if (r.name != ra.name && r.size == ra.size) rb = &r;
        }
        const char* op = k2qNames[rng.next_below(std::size(k2qNames))];
        if (rb != nullptr && rng.next_below(2) == 0) {
          os << op << " " << ra.name << "," << rb->name << ";\n";
        } else {
          const Reg* other = nullptr;
          for (const Reg& r : qregs) {
            if (r.name != ra.name) other = &r;
          }
          if (other == nullptr) { // one register: fall back to single pair
            if (ra.size < 2) break;
            const auto [a, b] = two_distinct();
            os << op << " " << a << "," << b << ";\n";
          } else {
            os << op << " " << rand_bit(*other) << "," << ra.name << ";\n";
          }
        }
        break;
      }
      case 7: { // user-defined gate call
        if (defs.empty()) break;
        const auto& [name, n_qargs] = defs[rng.next_below(defs.size())];
        const auto [a, b] = two_distinct();
        (void)n_qargs;
        os << name << "(" << rand_expr(rng, no_params) << ","
           << rand_expr(rng, no_params) << ") " << a << "," << b << ";\n";
        break;
      }
      case 8: { // measure: single-bit or whole-register form
        const auto r = rng.next_below(qregs.size());
        if (rng.next_below(2) == 0) {
          os << "measure " << rand_bit(qregs[r]) << " -> " << cregs[r].name
             << "["
             << rng.next_below(static_cast<std::uint64_t>(cregs[r].size))
             << "];\n";
        } else {
          os << "measure " << qregs[r].name << " -> " << cregs[r].name
             << ";\n";
        }
        break;
      }
      case 9: { // reset
        if (rng.next_below(2) == 0) {
          os << "reset " << rand_bit(rand_reg()) << ";\n";
        } else {
          os << "reset " << rand_reg().name << ";\n";
        }
        break;
      }
      case 10: { // barrier with an operand list
        os << "barrier " << rand_reg().name << "," << rand_bit(rand_reg())
           << ";\n";
        break;
      }
      default: { // CX/U builtin aliases
        const auto [a, b] = two_distinct();
        if (rng.next_below(2) == 0) {
          os << "CX " << a << "," << b << ";\n";
        } else {
          os << "U(" << rand_expr(rng, no_params) << ","
             << rand_expr(rng, no_params) << "," << rand_expr(rng, no_params)
             << ") " << a << ";\n";
        }
        break;
      }
    }
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// Round-trip
// ---------------------------------------------------------------------------

RoundTripResult roundtrip_once(const std::string& qasm_src) {
  RoundTripResult res;
  try {
    const Circuit a = qasm::parse_qasm(qasm_src, CompoundMode::kNative);
    const Circuit b = qasm::parse_qasm(a.to_qasm(), CompoundMode::kNative);
    if (a.n_qubits() != b.n_qubits() || a.n_gates() != b.n_gates()) {
      res.ok = false;
      res.detail = "shape mismatch: " + std::to_string(a.n_gates()) +
                   " gates -> " + std::to_string(b.n_gates());
      return res;
    }
    for (IdxType i = 0; i < a.n_gates(); ++i) {
      const Gate& ga = a.gates()[static_cast<std::size_t>(i)];
      const Gate& gb = b.gates()[static_cast<std::size_t>(i)];
      const bool same = ga.op == gb.op && ga.qb0 == gb.qb0 &&
                        ga.qb1 == gb.qb1 && ga.qb2 == gb.qb2 &&
                        ga.qb3 == gb.qb3 && ga.qb4 == gb.qb4 &&
                        ga.cbit == gb.cbit &&
                        std::abs(ga.theta - gb.theta) < 1e-12 &&
                        std::abs(ga.phi - gb.phi) < 1e-12 &&
                        std::abs(ga.lam - gb.lam) < 1e-12;
      if (!same) {
        res.ok = false;
        res.detail = "gate " + std::to_string(i) + ": " + ga.str() +
                     " != " + gb.str();
        return res;
      }
    }
  } catch (const Error& e) {
    res.ok = false;
    res.detail = std::string("parse failed: ") + e.what();
  }
  return res;
}

// ---------------------------------------------------------------------------
// Mutation fuzzing
// ---------------------------------------------------------------------------

namespace {

const char kAlphabet[] =
    "qcregmeasuretbarriegat01239[](){};,->*/+-^.\"pi \nxhz";

std::string mutate_chars(const std::string& base, Rng& rng) {
  std::string s = base;
  const auto n_edits = 1 + rng.next_below(4);
  for (std::uint64_t e = 0; e < n_edits && !s.empty(); ++e) {
    const std::size_t pos = rng.next_below(s.size());
    switch (rng.next_below(4)) {
      case 0: { // delete a small span
        const std::size_t len = 1 + rng.next_below(8);
        s.erase(pos, std::min(len, s.size() - pos));
        break;
      }
      case 1: // insert
        s.insert(pos, 1, kAlphabet[rng.next_below(std::size(kAlphabet) - 1)]);
        break;
      case 2: // replace
        s[pos] = kAlphabet[rng.next_below(std::size(kAlphabet) - 1)];
        break;
      default: { // duplicate a span
        const std::size_t len = 1 + rng.next_below(12);
        s.insert(pos, s.substr(pos, std::min(len, s.size() - pos)));
        break;
      }
    }
  }
  return s;
}

std::string render_token(const qasm::Token& t) {
  using qasm::Tok;
  switch (t.kind) {
    case Tok::kIdent: return t.text;
    case Tok::kReal: {
      std::ostringstream os;
      os.precision(17);
      os << t.num;
      return os.str();
    }
    case Tok::kInt: return std::to_string(static_cast<long long>(t.num));
    case Tok::kLBrace: return "{";
    case Tok::kRBrace: return "}";
    case Tok::kLParen: return "(";
    case Tok::kRParen: return ")";
    case Tok::kLBracket: return "[";
    case Tok::kRBracket: return "]";
    case Tok::kSemi: return ";";
    case Tok::kComma: return ",";
    case Tok::kArrow: return "->";
    case Tok::kEq: return "==";
    case Tok::kPlus: return "+";
    case Tok::kMinus: return "-";
    case Tok::kStar: return "*";
    case Tok::kSlash: return "/";
    case Tok::kCaret: return "^";
    case Tok::kString: return "\"" + t.text + "\"";
    case Tok::kEof: return "";
  }
  return "";
}

std::string mutate_tokens(const std::vector<qasm::Token>& base, Rng& rng) {
  std::vector<qasm::Token> toks = base;
  if (toks.size() > 2) {
    const auto n_edits = 1 + rng.next_below(3);
    for (std::uint64_t e = 0; e < n_edits; ++e) {
      const std::size_t pos = rng.next_below(toks.size() - 1); // keep EOF
      switch (rng.next_below(4)) {
        case 0:
          toks.erase(toks.begin() + static_cast<long>(pos));
          break;
        case 1:
          toks.insert(toks.begin() + static_cast<long>(pos), toks[pos]);
          break;
        case 2: {
          const std::size_t other = rng.next_below(toks.size() - 1);
          std::swap(toks[pos], toks[other]);
          break;
        }
        default: // blow up any numeric literal: huge/negative/zero sizes
          if (toks[pos].kind == qasm::Tok::kInt) {
            const double vals[] = {0, -1, 41, 4096, 9e18, 1e300};
            toks[pos].num = vals[rng.next_below(6)];
          }
          break;
      }
    }
  }
  std::string out;
  for (const auto& t : toks) {
    const std::string r = render_token(t);
    if (!r.empty()) {
      out += r;
      out += ' ';
    }
  }
  return out;
}

} // namespace

MutationFuzzStats mutation_fuzz(const std::string& base, int n_mutants,
                                std::uint64_t seed) {
  Rng rng(seed);
  MutationFuzzStats stats;
  stats.n_mutants = n_mutants;
  std::vector<qasm::Token> base_tokens;
  try {
    base_tokens = qasm::tokenize(base);
  } catch (const Error&) {
    // Unlexable base: character mutation still applies.
  }
  for (int i = 0; i < n_mutants; ++i) {
    std::string mutant;
    if (!base_tokens.empty() && rng.next_below(5) < 2) {
      mutant = mutate_tokens(base_tokens, rng);
    } else {
      mutant = mutate_chars(base, rng);
    }
    try {
      const Circuit c = qasm::parse_qasm(mutant, CompoundMode::kNative);
      (void)c;
      ++stats.parsed_ok;
    } catch (const Error&) {
      ++stats.rejected;
    }
    // Anything else (std::bad_alloc, std::out_of_range, UB trapped by a
    // sanitizer, a segfault) escapes: the fuzz driver fails loudly.
  }
  return stats;
}

} // namespace svsim::testing
