// svsim_diffcheck: differential correctness driver.
//
// Phases (all seeded, all reproducible from the command line):
//   diff      N random circuits -> dense-matrix oracle vs every point of
//             {single, peer, shmem, coarse} x {fusion} x {sched};
//             divergences print the spec, the first diverging gate index,
//             and the offending circuit as QASM.
//   roundtrip M random QASM programs -> parse -> print -> reparse ->
//             gate-for-gate comparison.
//   mutate    K mutants of a random base program through the parser;
//             any escape that is not svsim::Error is a crash finding
//             (pair with -DSVSIM_SANITIZE=address / undefined).
//   corpus    every .qasm under --corpus DIR must parse, round-trip, and
//             match the oracle on the single backend.
//
// Exit status: 0 iff every phase is clean; 2 on a usage error (a malformed
// number or SVSIM_* variable included). A failing circuit is dumped so
// `svsim_diffcheck --replay dump.qasm` (or the printed seed) reproduces it.
#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "common/config.hpp"
#include "qasm/parser.hpp"
#include "testing/diff.hpp"
#include "testing/qasm_fuzz.hpp"
#include "testing/rand_circuit.hpp"

using namespace svsim;
using namespace svsim::testing;

namespace {

struct Options {
  int circuits = 100;
  std::uint64_t seed = 42;
  IdxType qubits = 6;
  IdxType gates = 100;
  int workers = 4;
  IdxType shots = 256;
  ValType tol = 1e-9;
  int roundtrips = 50;
  int mutants = 0;
  std::string corpus;
  std::string replay;
  bool verbose = false;
  /// Remap-focused campaign: boost mid-circuit measure/reset rates,
  /// append a trailing measure_all to every circuit, and sweep only the
  /// partitioned backends (where the remap axis exists) — the CI legs
  /// that prove the virtual readout permutation bit-for-bit.
  bool remap_stress = false;
};

void usage() {
  std::cout <<
      "svsim_diffcheck [options]\n"
      "  --circuits N    random circuits for the diff sweep (default 100)\n"
      "  --seed S        campaign seed (default 42)\n"
      "  --qubits N      qubits per random circuit (default 6)\n"
      "  --gates N       gates per random circuit (default 100)\n"
      "  --workers K     workers for peer/shmem/coarse (default 4)\n"
      "  --shots N       sampling-equivalence shots (default 256)\n"
      "  --tol T         amplitude tolerance (default 1e-9)\n"
      "  --roundtrips N  QASM round-trip fuzz programs (default 50)\n"
      "  --mutants N     parser mutation fuzz mutants (default 0)\n"
      "  --corpus DIR    also check every .qasm file under DIR\n"
      "  --replay FILE   diff-check one QASM file and exit\n"
      "  --remap-stress  adversarial remap campaign: heavy mid-circuit\n"
      "                  measure/reset + trailing measure_all, partitioned\n"
      "                  backends only (remap off AND on per spec)\n"
      "  --verbose       print every config checked\n";
}

/// Parse the command line into `opt`: false after an unknown option;
/// a malformed number is an svsim::Error naming the option.
bool parse_args(int argc, char** argv, Options& opt) {
  constexpr std::uint64_t kMaxInt = std::numeric_limits<int>::max();
  constexpr std::uint64_t kMaxIdx = std::numeric_limits<IdxType>::max();
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << a << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    auto count = [&](auto& field, std::uint64_t lo, std::uint64_t hi) {
      field = static_cast<std::decay_t<decltype(field)>>(
          uint_arg(a, next(), lo, hi));
    };
    if (a == "--circuits") count(opt.circuits, 0, kMaxInt);
    else if (a == "--seed") count(opt.seed, 0, ~std::uint64_t{0});
    else if (a == "--qubits") count(opt.qubits, 1, 62);
    else if (a == "--gates") count(opt.gates, 0, kMaxIdx);
    else if (a == "--workers") count(opt.workers, 1, kMaxInt);
    else if (a == "--shots") count(opt.shots, 0, kMaxIdx);
    else if (a == "--tol") opt.tol = real_arg(a, next());
    else if (a == "--roundtrips") count(opt.roundtrips, 0, kMaxInt);
    else if (a == "--mutants") count(opt.mutants, 0, kMaxInt);
    else if (a == "--corpus") opt.corpus = next();
    else if (a == "--replay") opt.replay = next();
    else if (a == "--remap-stress") opt.remap_stress = true;
    else if (a == "--verbose") opt.verbose = true;
    else if (a == "--help" || a == "-h") { usage(); std::exit(0); }
    else {
      std::cerr << "unknown option: " << a << "\n";
      usage();
      return false;
    }
  }
  return true;
}

/// Diff one circuit against the oracle across the whole sweep. Returns
/// the number of diverging configs; prints a DIVERGE line for each.
/// The sweep a campaign runs per circuit: the full default sweep, or —
/// under --remap-stress — only the partitioned-backend specs, where the
/// remap axis (off and on) actually exists.
std::vector<DiffSpec> campaign_sweep(const Options& opt) {
  std::vector<DiffSpec> specs =
      default_sweep(opt.workers, opt.seed, opt.shots, opt.tol);
  if (opt.remap_stress) {
    specs.erase(std::remove_if(specs.begin(), specs.end(),
                               [](const DiffSpec& s) {
                                 return s.batch > 0 || s.backend == "single" ||
                                        s.backend == "generalized";
                               }),
                specs.end());
  }
  return specs;
}

int diff_one(const Circuit& c, const std::string& tag, const Options& opt) {
  int failures = 0;
  const OracleResult oracle = oracle_run(c, opt.seed, opt.shots);
  for (const DiffSpec& spec : campaign_sweep(opt)) {
    const DiffResult r = diff_run(c, oracle, spec);
    if (opt.verbose) {
      std::cout << "  [" << tag << "] " << spec.label()
                << (r.ok ? " ok" : " DIVERGE") << " max_diff=" << r.max_diff
                << "\n";
    }
    if (!r.ok) {
      ++failures;
      std::cout << "DIVERGE " << tag << " config=(" << r.config
                << ") first_gate=" << r.first_divergence << " " << r.detail
                << "\n";
    }
  }
  if (failures > 0) {
    const std::string dump = "diffcheck_fail_" + tag + ".qasm";
    std::ofstream out(dump);
    out << c.to_qasm();
    std::cout << "  circuit dumped to " << dump << " (replay with --replay)\n";
  }
  return failures;
}

} // namespace

int main(int argc, char** argv) {
  Options opt;
  int failures = 0;

  try {
    Env::process().check();
    if (!parse_args(argc, argv, opt)) return 2;
    if (!opt.replay.empty()) {
      const Circuit c =
          qasm::parse_qasm_file(opt.replay, CompoundMode::kNative);
      failures += diff_one(c, "replay", opt);
      std::cout << (failures == 0 ? "replay clean\n" : "replay diverged\n");
      return failures == 0 ? 0 : 1;
    }

    // Phase 1: random-circuit differential sweep.
    CircuitGenOptions gen;
    gen.n_qubits = opt.qubits;
    gen.n_gates = opt.gates;
    if (opt.remap_stress) {
      gen.p_measure = 0.08;
      gen.p_reset = 0.05;
    }
    for (int i = 0; i < opt.circuits; ++i) {
      Circuit c = random_circuit(gen, mix_seed(opt.seed, i));
      // Trailing measure_all exercises the layout-snapshot readout that
      // the quarantined pass used to hard-throw on.
      if (opt.remap_stress) c.measure_all();
      const std::string index = std::to_string(i);
      failures += diff_one(c, "c" + index, opt);
    }
    std::cout << "diff: " << opt.circuits << " circuits x "
              << campaign_sweep(opt).size() << " configs, " << failures
              << " divergence(s)\n";

    // Phase 2: QASM round-trip fuzzing.
    int rt_failures = 0;
    for (int i = 0; i < opt.roundtrips; ++i) {
      const std::string src = random_qasm({}, mix_seed(opt.seed ^ 0x5a5a, i));
      const RoundTripResult r = roundtrip_once(src);
      if (!r.ok) {
        ++rt_failures;
        std::cout << "ROUNDTRIP-FAIL seed=" << mix_seed(opt.seed ^ 0x5a5a, i)
                  << ": " << r.detail << "\n--- source ---\n" << src
                  << "--------------\n";
      }
    }
    std::cout << "roundtrip: " << opt.roundtrips << " programs, "
              << rt_failures << " failure(s)\n";
    failures += rt_failures;

    // Phase 3: parser mutation fuzzing (crash-safety; meant for sanitizer
    // builds — a finding is a non-svsim exception or a sanitizer abort).
    if (opt.mutants > 0) {
      const std::string base = random_qasm({}, mix_seed(opt.seed, 9001));
      const MutationFuzzStats st =
          mutation_fuzz(base, opt.mutants, opt.seed ^ 0xf022ULL);
      std::cout << "mutate: " << st.n_mutants << " mutants, " << st.parsed_ok
                << " parsed, " << st.rejected << " rejected, 0 crashes\n";
    }

    // Phase 4: checked-in corpus.
    if (!opt.corpus.empty()) {
      int corpus_failures = 0;
      int n_files = 0;
      std::vector<std::filesystem::path> files;
      for (const auto& e :
           std::filesystem::recursive_directory_iterator(opt.corpus)) {
        if (e.path().extension() == ".qasm") files.push_back(e.path());
      }
      std::sort(files.begin(), files.end());
      for (const auto& path : files) {
        ++n_files;
        std::ifstream in(path);
        std::stringstream ss;
        ss << in.rdbuf();
        const RoundTripResult rt = roundtrip_once(ss.str());
        if (!rt.ok) {
          ++corpus_failures;
          std::cout << "CORPUS-FAIL " << path << ": " << rt.detail << "\n";
          continue;
        }
        const Circuit c = qasm::parse_qasm(ss.str(), CompoundMode::kNative);
        corpus_failures += diff_one(c, path.stem().string(), opt);
      }
      std::cout << "corpus: " << n_files << " files, " << corpus_failures
                << " failure(s)\n";
      failures += corpus_failures;
    }
  } catch (const std::exception& e) {
    std::cerr << "diffcheck: fatal: " << e.what() << "\n";
    return 2;
  }

  std::cout << (failures == 0 ? "ALL CLEAN\n" : "FAILURES DETECTED\n");
  return failures == 0 ? 0 : 1;
}
