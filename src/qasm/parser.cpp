#include "qasm/parser.hpp"

#include <cmath>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "qasm/lexer.hpp"

namespace svsim::qasm {

namespace {

// ---------------------------------------------------------------------------
// Parameter expressions
// ---------------------------------------------------------------------------

struct Expr;
using ExprPtr = std::shared_ptr<const Expr>;

struct Expr {
  enum class Kind { kNum, kParam, kUnary, kBinary, kFunc };
  Kind kind;
  double num = 0;
  std::string name; // parameter or function name
  char op = 0;      // + - * / ^
  ExprPtr lhs, rhs; // binary; unary/func use lhs only

  double eval(const std::map<std::string, double>& env) const {
    switch (kind) {
      case Kind::kNum:
        return num;
      case Kind::kParam: {
        auto it = env.find(name);
        SVSIM_CHECK(it != env.end(), "unbound gate parameter: " + name);
        return it->second;
      }
      case Kind::kUnary:
        return -lhs->eval(env);
      case Kind::kBinary: {
        const double a = lhs->eval(env);
        const double b = rhs->eval(env);
        switch (op) {
          case '+': return a + b;
          case '-': return a - b;
          case '*': return a * b;
          case '/': return a / b;
          case '^': return std::pow(a, b);
        }
        throw Error("bad binary operator in qasm expression");
      }
      case Kind::kFunc: {
        const double a = lhs->eval(env);
        if (name == "sin") return std::sin(a);
        if (name == "cos") return std::cos(a);
        if (name == "tan") return std::tan(a);
        if (name == "exp") return std::exp(a);
        if (name == "ln") return std::log(a);
        if (name == "sqrt") return std::sqrt(a);
        throw Error("unknown function in qasm expression: " + name);
      }
    }
    throw Error("corrupt qasm expression");
  }
};

ExprPtr make_num(double v) {
  auto e = std::make_shared<Expr>();
  e->kind = Expr::Kind::kNum;
  e->num = v;
  return e;
}

// ---------------------------------------------------------------------------
// Gate definitions
// ---------------------------------------------------------------------------

/// One statement inside a `gate` body: a call to another gate (builtin or
/// user-defined) on formal qubit arguments, or a barrier (ignored).
struct BodyCall {
  std::string gate;
  std::vector<ExprPtr> params;
  std::vector<int> qargs; // indices into the enclosing definition's qargs
};

struct GateDef {
  std::vector<std::string> params;
  std::vector<std::string> qargs;
  std::vector<BodyCall> body;
};

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

class Parser {
public:
  Parser(std::string source, CompoundMode mode)
      : tokens_(tokenize(source)), mode_(mode) {}

  Circuit parse() {
    parse_header();
    // First pass over statements to find register sizes is unnecessary —
    // QASM requires declaration before use, so we build the circuit lazily
    // after the first qreg and validate as we go. To size the circuit we
    // scan ahead for all qreg/creg declarations first.
    scan_registers();
    SVSIM_CHECK(total_qubits_ > 0, "no qreg declared");
    circuit_ = std::make_unique<Circuit>(
        total_qubits_, mode_, total_cbits_ > 0 ? total_cbits_ : 1);
    while (!check(Tok::kEof)) {
      statement();
    }
    return std::move(*circuit_);
  }

private:
  // --- token helpers ---
  const Token& peek(int ahead = 0) const {
    const std::size_t i = pos_ + static_cast<std::size_t>(ahead);
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  bool check(Tok k) const { return peek().kind == k; }
  bool check_ident(const char* word) const {
    return peek().kind == Tok::kIdent && peek().text == word;
  }
  Token advance() { return tokens_[pos_++]; }
  Token expect(Tok k, const char* what) {
    if (!check(k)) {
      throw ParseError(std::string("expected ") + what + ", got '" +
                           peek().text + "'",
                       peek().line, peek().col);
    }
    return advance();
  }
  [[noreturn]] void fail(const std::string& msg) const {
    throw ParseError(msg, peek().line, peek().col);
  }

  // --- header / registers ---

  void parse_header() {
    if (check_ident("OPENQASM")) {
      advance();
      expect(Tok::kReal, "version number");
      expect(Tok::kSemi, "';'");
    }
  }

  void scan_registers() {
    // Pre-scan the token stream for qreg/creg to size the circuit; actual
    // statement parsing re-validates order.
    for (std::size_t i = 0; i + 4 < tokens_.size(); ++i) {
      const Token& t = tokens_[i];
      if (t.kind != Tok::kIdent || (t.text != "qreg" && t.text != "creg")) {
        continue;
      }
      // Only count tokens that actually form a declaration
      // (`qreg IDENT [ INT ]`): "qreg" can legally appear as a plain
      // identifier (e.g. a gate formal), and truncated/mutated inputs
      // must not have arbitrary neighbouring tokens read as the size.
      // Anything shape-invalid is left for statement() to diagnose.
      if (tokens_[i + 1].kind != Tok::kIdent ||
          tokens_[i + 2].kind != Tok::kLBracket ||
          tokens_[i + 3].kind != Tok::kInt ||
          tokens_[i + 4].kind != Tok::kRBracket) {
        continue;
      }
      const std::string& name = tokens_[i + 1].text;
      // Range-check the raw literal before the integer cast: casting a
      // double beyond IdxType's range is undefined behaviour.
      const double raw = tokens_[i + 3].num;
      if (!(raw >= 1 && raw <= 1e15)) {
        throw ParseError("register size must be a positive integer in "
                         "range: " +
                             name,
                         t.line, t.col);
      }
      const auto size = static_cast<IdxType>(raw);
      // OpenQASM 2.0 identifiers share one namespace; a duplicate would
      // silently shadow the first block while its qubits still count
      // toward the circuit width.
      if (qregs_.count(name) != 0 || cregs_.count(name) != 0) {
        throw ParseError("duplicate register declaration: " + name, t.line,
                         t.col);
      }
      if (t.text == "qreg") {
        qregs_[name] = {total_qubits_, size};
        total_qubits_ += size;
      } else {
        SVSIM_CHECK(size <= (IdxType{1} << 20),
                    "creg size out of supported range: " + name);
        cregs_[name] = {total_cbits_, size};
        total_cbits_ += size;
      }
    }
  }

  // --- statements ---

  void statement() {
    if (!check(Tok::kIdent)) fail("expected statement");
    const std::string& word = peek().text;
    if (word == "include") {
      advance();
      const Token file = expect(Tok::kString, "include file name");
      expect(Tok::kSemi, "';'");
      // qelib1 gates are builtins of the IR; other includes are not
      // resolvable in a self-contained parse.
      SVSIM_CHECK(file.text == "qelib1.inc",
                  "only qelib1.inc includes are supported, got " + file.text);
      return;
    }
    if (word == "qreg" || word == "creg") {
      // Already collected by scan_registers; just consume.
      advance();
      expect(Tok::kIdent, "register name");
      expect(Tok::kLBracket, "'['");
      expect(Tok::kInt, "register size");
      expect(Tok::kRBracket, "']'");
      expect(Tok::kSemi, "';'");
      return;
    }
    if (word == "gate") {
      parse_gate_def();
      return;
    }
    if (word == "opaque") {
      while (!check(Tok::kSemi) && !check(Tok::kEof)) advance();
      expect(Tok::kSemi, "';'");
      return;
    }
    if (word == "measure") {
      parse_measure();
      return;
    }
    if (word == "reset") {
      advance();
      const auto qubits = parse_qubit_args_one();
      expect(Tok::kSemi, "';'");
      for (const IdxType q : qubits) circuit_->reset(q);
      return;
    }
    if (word == "barrier") {
      advance();
      // Consume operand list; the IR barrier is global.
      while (!check(Tok::kSemi) && !check(Tok::kEof)) advance();
      expect(Tok::kSemi, "';'");
      circuit_->barrier();
      return;
    }
    if (word == "if") {
      fail("classical conditionals (`if`) are not supported by the SV-Sim "
           "circuit IR");
    }
    parse_gate_application();
  }

  // gate name(p0,p1) a,b,c { body }
  void parse_gate_def() {
    advance(); // 'gate'
    const std::string name = expect(Tok::kIdent, "gate name").text;
    GateDef def;
    if (check(Tok::kLParen)) {
      advance();
      if (!check(Tok::kRParen)) {
        def.params.push_back(expect(Tok::kIdent, "parameter name").text);
        while (check(Tok::kComma)) {
          advance();
          def.params.push_back(expect(Tok::kIdent, "parameter name").text);
        }
      }
      expect(Tok::kRParen, "')'");
    }
    def.qargs.push_back(expect(Tok::kIdent, "qubit argument").text);
    while (check(Tok::kComma)) {
      advance();
      def.qargs.push_back(expect(Tok::kIdent, "qubit argument").text);
    }
    expect(Tok::kLBrace, "'{'");
    while (!check(Tok::kRBrace)) {
      if (check_ident("barrier")) {
        // Barriers inside definitions are scheduling hints only.
        while (!check(Tok::kSemi)) advance();
        advance();
        continue;
      }
      BodyCall call;
      call.gate = expect(Tok::kIdent, "gate name").text;
      if (call.gate == "U") call.gate = "u3";
      if (call.gate == "CX") call.gate = "cx";
      if (check(Tok::kLParen)) {
        advance();
        if (!check(Tok::kRParen)) {
          call.params.push_back(parse_expr());
          while (check(Tok::kComma)) {
            advance();
            call.params.push_back(parse_expr());
          }
        }
        expect(Tok::kRParen, "')'");
      }
      auto qarg_index = [&](const std::string& formal) {
        for (std::size_t i = 0; i < def.qargs.size(); ++i) {
          if (def.qargs[i] == formal) return static_cast<int>(i);
        }
        fail("unknown qubit argument '" + formal + "' in gate body");
      };
      call.qargs.push_back(
          qarg_index(expect(Tok::kIdent, "qubit argument").text));
      while (check(Tok::kComma)) {
        advance();
        call.qargs.push_back(
            qarg_index(expect(Tok::kIdent, "qubit argument").text));
      }
      expect(Tok::kSemi, "';'");
      def.body.push_back(std::move(call));
    }
    expect(Tok::kRBrace, "'}'");
    gate_defs_[name] = std::move(def);
  }

  void parse_measure() {
    advance(); // 'measure'
    const auto qubits = parse_qubit_args_one();
    expect(Tok::kArrow, "'->'");
    const auto cbits = parse_cbit_args_one();
    expect(Tok::kSemi, "';'");
    SVSIM_CHECK(qubits.size() == cbits.size(),
                "measure operand sizes differ");
    for (std::size_t i = 0; i < qubits.size(); ++i) {
      circuit_->measure(qubits[i], cbits[i]);
    }
  }

  // gatename(params...) arg0, arg1, ...;
  void parse_gate_application() {
    const Token head = advance();
    std::string name = head.text;
    if (name == "U") name = "u3";
    if (name == "CX") name = "cx";

    std::vector<double> params;
    if (check(Tok::kLParen)) {
      advance();
      if (!check(Tok::kRParen)) {
        params.push_back(parse_expr()->eval({}));
        while (check(Tok::kComma)) {
          advance();
          params.push_back(parse_expr()->eval({}));
        }
      }
      expect(Tok::kRParen, "')'");
    }

    std::vector<std::vector<IdxType>> args;
    args.push_back(parse_qubit_args_one());
    while (check(Tok::kComma)) {
      advance();
      args.push_back(parse_qubit_args_one());
    }
    expect(Tok::kSemi, "';'");

    // Register broadcast: all multi-qubit operands must agree in length.
    // Empty operands cannot occur (register sizes are validated positive
    // at declaration) but would index out of bounds below, so reject them
    // here as well.
    std::size_t len = 1;
    for (const auto& a : args) {
      SVSIM_CHECK(!a.empty(), "empty register operand in gate application");
      if (a.size() > 1) {
        SVSIM_CHECK(len == 1 || len == a.size(),
                    "mismatched register sizes in broadcast application");
        len = a.size();
      }
    }
    for (std::size_t i = 0; i < len; ++i) {
      std::vector<IdxType> operands;
      operands.reserve(args.size());
      for (const auto& a : args) {
        operands.push_back(a.size() == 1 ? a[0] : a[i]);
      }
      apply_gate(name, params, operands);
    }
  }

  /// Apply one gate by name to concrete qubits: user definitions first,
  /// then the Table-1 builtins.
  void apply_gate(const std::string& name, const std::vector<double>& params,
                  const std::vector<IdxType>& qubits) {
    auto it = gate_defs_.find(name);
    if (it != gate_defs_.end()) {
      const GateDef& def = it->second;
      SVSIM_CHECK(params.size() == def.params.size(),
                  "wrong parameter count for gate " + name);
      SVSIM_CHECK(qubits.size() == def.qargs.size(),
                  "wrong operand count for gate " + name);
      std::map<std::string, double> env;
      for (std::size_t i = 0; i < params.size(); ++i) {
        env[def.params[i]] = params[i];
      }
      for (const BodyCall& call : def.body) {
        std::vector<double> sub_params;
        sub_params.reserve(call.params.size());
        for (const auto& e : call.params) sub_params.push_back(e->eval(env));
        std::vector<IdxType> sub_qubits;
        sub_qubits.reserve(call.qargs.size());
        for (const int qi : call.qargs) {
          sub_qubits.push_back(qubits[static_cast<std::size_t>(qi)]);
        }
        apply_gate(call.gate, sub_params, sub_qubits);
      }
      return;
    }

    const OP op = op_from_name(name); // throws on unknown
    const OpInfo& info = op_info(op);
    SVSIM_CHECK(info.cls != OpClass::kFused, "unknown gate mnemonic: " + name);
    SVSIM_CHECK(static_cast<int>(qubits.size()) == info.n_qubits,
                "wrong operand count for gate " + name);
    SVSIM_CHECK(static_cast<int>(params.size()) == info.n_params,
                "wrong parameter count for gate " + name);
    Gate g;
    g.op = op;
    IdxType* slots[5] = {&g.qb0, &g.qb1, &g.qb2, &g.qb3, &g.qb4};
    for (std::size_t i = 0; i < qubits.size(); ++i) *slots[i] = qubits[i];
    if (info.n_params == 1) {
      g.theta = params[0];
    } else if (info.n_params == 2) {
      g.phi = params[0];
      g.lam = params[1];
    } else if (info.n_params == 3) {
      g.theta = params[0];
      g.phi = params[1];
      g.lam = params[2];
    }
    circuit_->append(g);
  }

  // One operand: `name` (whole register) or `name[idx]` (single qubit).
  std::vector<IdxType> parse_qubit_args_one() {
    const std::string name = expect(Tok::kIdent, "register name").text;
    auto it = qregs_.find(name);
    if (it == qregs_.end()) fail("unknown qreg: " + name);
    const auto [offset, size] = it->second;
    if (check(Tok::kLBracket)) {
      advance();
      const double raw = expect(Tok::kInt, "index").num;
      expect(Tok::kRBracket, "']'");
      // Validate on the double before casting: out-of-range casts are UB.
      SVSIM_CHECK(raw >= 0 && raw < static_cast<double>(size),
                  "qubit index out of range");
      const auto idx = static_cast<IdxType>(raw);
      return {offset + idx};
    }
    std::vector<IdxType> all(static_cast<std::size_t>(size));
    for (IdxType i = 0; i < size; ++i) all[static_cast<std::size_t>(i)] = offset + i;
    return all;
  }

  std::vector<IdxType> parse_cbit_args_one() {
    const std::string name = expect(Tok::kIdent, "register name").text;
    auto it = cregs_.find(name);
    if (it == cregs_.end()) fail("unknown creg: " + name);
    const auto [offset, size] = it->second;
    if (check(Tok::kLBracket)) {
      advance();
      const double raw = expect(Tok::kInt, "index").num;
      expect(Tok::kRBracket, "']'");
      SVSIM_CHECK(raw >= 0 && raw < static_cast<double>(size),
                  "classical index out of range");
      const auto idx = static_cast<IdxType>(raw);
      return {offset + idx};
    }
    std::vector<IdxType> all(static_cast<std::size_t>(size));
    for (IdxType i = 0; i < size; ++i) all[static_cast<std::size_t>(i)] = offset + i;
    return all;
  }

  // --- expression grammar (precedence climbing) ---
  //   expr   := term (('+'|'-') term)*
  //   term   := factor (('*'|'/') factor)*
  //   factor := unary ('^' factor)?        (right associative)
  //   unary  := '-' unary | primary
  //   primary:= number | pi | ident | func '(' expr ')' | '(' expr ')'

  ExprPtr parse_expr() {
    ExprPtr lhs = parse_term();
    while (check(Tok::kPlus) || check(Tok::kMinus)) {
      const char op = advance().kind == Tok::kPlus ? '+' : '-';
      auto e = std::make_shared<Expr>();
      e->kind = Expr::Kind::kBinary;
      e->op = op;
      e->lhs = lhs;
      e->rhs = parse_term();
      lhs = e;
    }
    return lhs;
  }

  ExprPtr parse_term() {
    ExprPtr lhs = parse_factor();
    while (check(Tok::kStar) || check(Tok::kSlash)) {
      const char op = advance().kind == Tok::kStar ? '*' : '/';
      auto e = std::make_shared<Expr>();
      e->kind = Expr::Kind::kBinary;
      e->op = op;
      e->lhs = lhs;
      e->rhs = parse_factor();
      lhs = e;
    }
    return lhs;
  }

  ExprPtr parse_factor() {
    ExprPtr base = parse_unary();
    if (check(Tok::kCaret)) {
      advance();
      auto e = std::make_shared<Expr>();
      e->kind = Expr::Kind::kBinary;
      e->op = '^';
      e->lhs = base;
      e->rhs = parse_factor();
      return e;
    }
    return base;
  }

  ExprPtr parse_unary() {
    if (check(Tok::kMinus)) {
      advance();
      auto e = std::make_shared<Expr>();
      e->kind = Expr::Kind::kUnary;
      e->lhs = parse_unary();
      return e;
    }
    return parse_primary();
  }

  ExprPtr parse_primary() {
    if (check(Tok::kReal) || check(Tok::kInt)) {
      return make_num(advance().num);
    }
    if (check(Tok::kLParen)) {
      advance();
      ExprPtr e = parse_expr();
      expect(Tok::kRParen, "')'");
      return e;
    }
    if (check(Tok::kIdent)) {
      const Token id = advance();
      if (id.text == "pi") return make_num(PI);
      if (check(Tok::kLParen)) {
        advance();
        auto e = std::make_shared<Expr>();
        e->kind = Expr::Kind::kFunc;
        e->name = id.text;
        e->lhs = parse_expr();
        expect(Tok::kRParen, "')'");
        return e;
      }
      auto e = std::make_shared<Expr>();
      e->kind = Expr::Kind::kParam;
      e->name = id.text;
      return e;
    }
    fail("expected expression");
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  CompoundMode mode_;

  std::map<std::string, std::pair<IdxType, IdxType>> qregs_; // offset,size
  std::map<std::string, std::pair<IdxType, IdxType>> cregs_;
  IdxType total_qubits_ = 0;
  IdxType total_cbits_ = 0;
  std::unordered_map<std::string, GateDef> gate_defs_;
  std::unique_ptr<Circuit> circuit_;
};

} // namespace

Circuit parse_qasm(const std::string& source, CompoundMode mode) {
  Parser parser(source, mode);
  return parser.parse();
}

Circuit parse_qasm_file(const std::string& path, CompoundMode mode) {
  std::ifstream in(path);
  SVSIM_CHECK(in.good(), "cannot open qasm file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_qasm(buf.str(), mode);
}

} // namespace svsim::qasm
