// svbench — the repo benchmark (see README.md).
//
//   svbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--trace-out <chrome-trace.json>]
//
// One client thread runs a closed loop of jobs with fresh seeded inputs.
// The job count is fixed by --seconds and the workload's nominal job
// time, so a seed always names the same job list. A run sets up (backend
// plus ~1 s of warm-up jobs) several times, times the jobs untraced, and
// checks a seeded subset against the dense-matrix oracle. --trace 0
// prints the end-to-end metrics; --trace 1 then runs a traced pass over
// the same jobs, an untraced repeat whose exact counts must match, and
// the single-thread baselines, and prints the per-layer metrics. The last
// stdout line is one JSON object: {"correct", "attempted", "failed",
// "metrics"}.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "inputs.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr int kMinJobs = 100; // so at least 10 jobs lie beyond p90
// setup_s is the median of kSetupReps set-ups: one before the timed jobs
// and the others at evenly spaced points after them, so the median
// samples the same stretch of host time as the jobs.
constexpr int kSetupReps = 5;
constexpr double kWarmupSeconds = 1.0;
// Traced runs time the direct calls and the single-thread baseline on
// at most this many evenly spaced jobs.
constexpr int kMaxExtraJobs = 50;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "svbench: %s\nusage: svbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <path>]\nworkloads:",
               why.c_str());
  for (const auto& n : workload_names()) std::fprintf(stderr, " %s", n.c_str());
  std::fputc('\n', stderr);
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0' || v[0] == '-') usage("bad --seed " + v);
      have_seed = true;
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(o.seconds > 0 && o.seconds <= 600)) {
        usage("bad --seconds " + v);
      }
    } else if (a == "--trace") {
      if (v != "0" && v != "1") usage("bad --trace " + v);
      o.trace = v == "1";
    } else if (a == "--trace-out") {
      o.trace_out = v;
    } else {
      usage("unknown argument " + a);
    }
  }
  if (o.workload.empty() || !have_seed || o.seconds <= 0 || o.trace < 0) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  return o;
}

/// Linear interpolation between order statistics (p in [0, 100]).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return percentile(v, 50); }

/// The process's resident high-water mark (VmHWM), in MiB; 0 if unreadable.
double vm_hwm_mib() {
  std::ifstream f("/proc/self/status");
  std::string key;
  while (f >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      f >> kb;
      return kb / 1024.0;
    }
    f.ignore(1 << 12, '\n');
  }
  return 0;
}

/// `k` distinct job indices of [0, n), drawn from `seed`.
std::set<int> pick_jobs(int n, int k, std::uint64_t seed) {
  svsim::Rng rng(seed);
  std::vector<int> idx(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) idx[static_cast<std::size_t>(i)] = i;
  for (int i = 0; i < k; ++i) {
    const auto j = static_cast<std::size_t>(i) +
                   rng.next_below(static_cast<std::uint64_t>(n - i));
    std::swap(idx[static_cast<std::size_t>(i)], idx[j]);
  }
  return std::set<int>(idx.begin(), idx.begin() + k);
}

/// Jobs attempted and failed, with the first few reasons for stderr.
struct Tally {
  std::uint64_t attempted = 0;
  std::set<std::pair<int, int>> failed; // (pass, job)
  std::vector<std::string> reasons;

  void fail(int pass, int job, const std::string& why) {
    if (failed.insert({pass, job}).second && reasons.size() < 8) {
      reasons.push_back("pass " + std::to_string(pass) + " job " +
                        std::to_string(job) + ": " + why);
    }
  }
};

enum Pass { kSetupPass = 0, kTimedPass = 1, kTracedPass = 2, kRepeatPass = 3 };

/// Run the workload's current input as job `job` of `pass`: time the
/// call, then check its output. Returns the job's wall time in ms.
double run_job(Workload& w, Tracer* t, ReportRead* rep, JobOutput* out,
               Tally& tally, int pass, int job) {
  ++tally.attempted;
  std::string err;
  const double t0 = now_us();
  try {
    Scope root(t, "job");
    *out = w.job(t, rep);
  } catch (const std::exception& e) {
    err = std::string("threw: ") + e.what();
  }
  const double ms = (now_us() - t0) / 1e3;
  if (err.empty()) err = w.check(*out);
  if (!err.empty()) tally.fail(pass, job, err);
  return ms;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string json_result(bool correct, const Tally& tally,
                        const std::vector<Metric>& metrics) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(tally.attempted);
  s += ", \"failed\": " + std::to_string(tally.failed.size());
  s += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    s += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
         ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return s + "}}";
}

void print_table(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-26s %14.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
}

// --- per-layer aggregation of the traced pass ---

/// Spans whose self time is a layer metric; the others ("job", "run",
/// "run_fresh", baselines, "energy_objective") are read directly.
const char* span_metric(const std::string& name) {
  static const std::map<std::string, const char*> m = {
      {"parse_qasm", "qasm.parse_ms"},
      {"SingleSim::SingleSim", "core.ctor_ms"},
      {"ShmemSim::ShmemSim", "core.ctor_ms"},
      {"vqa::BatchedSim::BatchedSim", "core.ctor_ms"},
      {"SingleSim::~SingleSim", "core.teardown_ms"},
      {"ShmemSim::~ShmemSim", "core.teardown_ms"},
      {"vqa::BatchedSim::~BatchedSim", "core.teardown_ms"},
      {"reset_state", "core.reset_ms"},
      {"sample", "core.sample_ms"},
      {"expectations", "vqa.expect_ms"},
      {"last_report", "obs.report_ms"},
      {"remap_for_partition", "ir.remap_ms"},
  };
  const auto it = m.find(name);
  return it == m.end() ? nullptr : it->second;
}

/// Every per-layer metric, in BENCHMARK.json order. Layers a workload
/// does not call read 0.
const std::vector<std::pair<const char*, const char*>>& layer_metrics() {
  static const std::vector<std::pair<const char*, const char*>> m = {
      {"qasm.parse_ms", "ms"},
      {"core.ctor_ms", "ms"},
      {"core.prep_ms", "ms"},
      {"core.loop_ms", "ms"},
      {"core.ns_per_amp_gate", "ns"},
      {"core.single_loop_ms", "ms"},
      {"core.sample_ms", "ms"},
      {"core.reset_ms", "ms"},
      {"core.teardown_ms", "ms"},
      {"vqa.expect_ms", "ms"},
      {"vqa.reenact_gap_ms", "ms"},
      {"shmem.wait_frac", "fraction"},
      {"shmem.imbalance", "ratio"},
      {"shmem.remote_bytes", "bytes"},
      {"shmem.remote_ops", "count"},
      {"shmem.local_ops", "count"},
      {"shmem.barriers", "count"},
      {"ir.remap_ms", "ms"},
      {"ir.remap_swaps", "count"},
      {"ir.remap_bytes_ratio", "ratio"},
      {"ir.gates", "count"},
      {"ir.sched_windows", "count"},
      {"ir.sched_windowed_gates", "count"},
      {"obs.tracked_peak_mb", "MiB"},
      {"obs.report_ms", "ms"},
      {"trace.job_p50_ms", "ms"},
      {"trace.overhead_ms", "ms"},
      {"trace.selfsum_max_err", "fraction"},
  };
  return m;
}

struct LayerResult {
  std::vector<Metric> metrics;
  double selfsum_max_err = 0;
};

LayerResult aggregate_layers(const Tracer& tr,
                             const std::vector<ReportRead>& reps,
                             const std::vector<double>& single_loop_ms,
                             double untraced_p50_ms) {
  const auto& spans = tr.spans();
  const std::vector<double> self = tr.self_us();
  std::map<std::string, std::vector<double>> vals;

  // Span self times, summed per (job, metric) so a job contributes one
  // value per layer it called.
  std::map<std::pair<int, std::string>, double> per_job;
  std::vector<double> root_ms, real_call_ms, reenacted_ms;
  std::map<int, double> root_of_job, subtree_self, run_ms;
  for (std::size_t k = 0; k < spans.size(); ++k) {
    const Tracer::Span& s = spans[k];
    const std::string name = s.name;
    if (const char* m = span_metric(name)) per_job[{s.job, m}] += self[k] / 1e3;
    if (name == "job" && s.parent < 0) {
      root_ms.push_back(s.dur_us() / 1e3);
      root_of_job[s.job] = s.dur_us();
    }
    if (name == "energy_objective") real_call_ms.push_back(s.dur_us() / 1e3);
    if (name == "reenacted") reenacted_ms.push_back(s.dur_us() / 1e3);
    if ((name == "run" || name == "run_fresh") && s.job >= 0) run_ms[s.job] += s.dur_us() / 1e3;
    // Self time of everything under the job's root span.
    std::size_t top = k;
    while (spans[top].parent >= 0) top = static_cast<std::size_t>(spans[top].parent);
    if (std::string(spans[top].name) == "job") subtree_self[s.job] += self[k];
  }
  for (const auto& [key, ms] : per_job) vals[key.second].push_back(ms);
  for (const auto& [job, ms] : run_ms) {
    vals["core.prep_ms"].push_back(ms - reps[static_cast<std::size_t>(job)].loop_s * 1e3);
  }
  vals["core.single_loop_ms"] = single_loop_ms;

  LayerResult out;
  for (const auto& [job, dur] : root_of_job) {
    if (dur > 0) {
      out.selfsum_max_err = std::max(
          out.selfsum_max_err, std::abs(subtree_self[job] - dur) / dur);
    }
  }

  for (std::size_t i = 0; i < reps.size(); ++i) {
    const ReportRead& r = reps[i];
    const double amp_gates = static_cast<double>(r.gates) *
                             std::ldexp(1.0, r.n_qubits) * r.members;
    vals["core.loop_ms"].push_back(r.loop_s * 1e3);
    if (amp_gates > 0) vals["core.ns_per_amp_gate"].push_back(r.loop_s * 1e9 / amp_gates);
    vals["shmem.wait_frac"].push_back(r.wait_frac);
    vals["shmem.imbalance"].push_back(r.imbalance);
    vals["shmem.remote_bytes"].push_back(static_cast<double>(r.remote_bytes));
    vals["shmem.remote_ops"].push_back(static_cast<double>(r.remote_ops));
    vals["shmem.local_ops"].push_back(static_cast<double>(r.local_ops));
    vals["shmem.barriers"].push_back(static_cast<double>(r.barriers));
    vals["ir.remap_swaps"].push_back(static_cast<double>(r.remap_swaps));
    vals["ir.remap_bytes_ratio"].push_back(r.remap_bytes_ratio);
    vals["ir.gates"].push_back(static_cast<double>(r.gates));
    vals["ir.sched_windows"].push_back(static_cast<double>(r.sched_windows));
    vals["ir.sched_windowed_gates"].push_back(static_cast<double>(r.sched_windowed_gates));
    vals["obs.tracked_peak_mb"].push_back(static_cast<double>(r.tracked_peak) / (1 << 20));
  }
  const double traced_p50 = median(root_ms);
  vals["trace.job_p50_ms"] = {traced_p50};
  vals["trace.overhead_ms"] = {traced_p50 - untraced_p50_ms};
  if (!real_call_ms.empty()) {
    vals["vqa.reenact_gap_ms"] = {median(reenacted_ms) - median(real_call_ms)};
  }
  vals["trace.selfsum_max_err"] = {out.selfsum_max_err};

  for (const auto& [name, unit] : layer_metrics()) {
    out.metrics.push_back(Metric{name, median(vals[name]), unit});
  }
  return out;
}

/// Self time per span name over the traced jobs: calls, median, share.
void print_span_table(const Tracer& tr) {
  const auto& spans = tr.spans();
  const std::vector<double> self = tr.self_us();
  std::map<std::string, std::vector<double>> by_name;
  double total = 0;
  for (std::size_t k = 0; k < spans.size(); ++k) {
    by_name[spans[k].name].push_back(self[k] / 1e3);
    total += self[k] / 1e3;
  }
  std::printf("  %-30s %7s %12s %8s\n", "span (self time)", "calls",
              "median_ms", "share");
  for (const auto& [name, v] : by_name) {
    double sum = 0;
    for (const double x : v) sum += x;
    std::printf("  %-30s %7zu %12.4f %7.2f%%\n", name.c_str(), v.size(),
                median(v), total > 0 ? 100.0 * sum / total : 0.0);
  }
}

/// --trace 1, after the timed pass: a traced pass over the same jobs, back
/// to back, with the kept state rebuilt under the tracer; an untraced
/// repeat whose exact counts must match; then the calls timed outside any
/// job. Returns the per-layer metrics; `correct` is false when a
/// self-check failed.
std::vector<Metric> traced_run(Workload& w, const Options& o, int n_jobs,
                               double untraced_p50_ms, Tally& tally,
                               bool* correct) {
  Tracer tr(static_cast<std::size_t>(n_jobs) * 24 + 64);
  w.teardown(nullptr);
  tr.set_job(-1);
  w.setup(&tr);
  std::vector<ReportRead> reps(static_cast<std::size_t>(n_jobs));
  for (int i = 0; i < n_jobs; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    w.make_input(input_seed(o.seed, kTimed, ui));
    tr.set_job(i);
    JobOutput out;
    run_job(w, &tr, &reps[ui], &out, tally, kTracedPass, i);
  }
  int count_mismatches = 0;
  for (int i = 0; i < n_jobs; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    w.make_input(input_seed(o.seed, kTimed, ui));
    ReportRead again;
    JobOutput out;
    run_job(w, nullptr, &again, &out, tally, kRepeatPass, i);
    if (again.exact() != reps[ui].exact()) {
      ++count_mismatches;
      tally.fail(kRepeatPass, i, "exact counts differ from the traced pass");
    }
  }
  // Direct calls and baselines in loops of their own, so each call
  // follows one of its own kind, as the jobs do.
  std::vector<int> extra_jobs;
  const int stride = (n_jobs + kMaxExtraJobs - 1) / kMaxExtraJobs;
  for (int i = 0; i < n_jobs; i += stride) extra_jobs.push_back(i);
  for (const int i : extra_jobs) {
    w.make_input(input_seed(o.seed, kTimed, static_cast<std::uint64_t>(i)));
    tr.set_job(i);
    std::string err;
    try {
      err = w.direct_calls(&tr);
    } catch (const std::exception& e) {
      err = std::string("threw: ") + e.what();
    }
    if (!err.empty()) tally.fail(kTracedPass, i, err);
  }
  std::vector<double> single_ms;
  for (const int i : extra_jobs) {
    w.make_input(input_seed(o.seed, kTimed, static_cast<std::uint64_t>(i)));
    tr.set_job(i);
    try {
      single_ms.push_back(w.single_loop_ms(&tr));
    } catch (const std::exception& e) {
      tally.fail(kTracedPass, i, std::string("baseline threw: ") + e.what());
    }
  }
  // A different seed must give different inputs.
  int same_inputs = 0;
  for (int i = 0; i < std::min(n_jobs, 8); ++i) {
    const auto ui = static_cast<std::uint64_t>(i);
    same_inputs += w.make_input(input_seed(o.seed, kTimed, ui)) ==
                   w.make_input(input_seed(o.seed + 1, kTimed, ui));
  }
  tr.set_job(-1);
  w.teardown(&tr);

  const LayerResult lr = aggregate_layers(tr, reps, single_ms, untraced_p50_ms);
  *correct = count_mismatches == 0 && same_inputs == 0 &&
             lr.selfsum_max_err <= 0.05;
  print_span_table(tr);
  print_table(lr.metrics);
  std::printf("determinism: %d of %d jobs changed exact counts on repeat; "
              "%d of %d inputs equal under seed+1\n",
              count_mismatches, n_jobs, same_inputs, std::min(n_jobs, 8));
  if (!o.trace_out.empty()) {
    if (tr.write_chrome(o.trace_out)) {
      std::printf("spans: %zu written to %s\n", tr.spans().size(), o.trace_out.c_str());
    } else {
      std::fprintf(stderr, "svbench: cannot write %s\n", o.trace_out.c_str());
    }
  }
  return lr.metrics;
}

int run(const Options& o) {
  const std::unique_ptr<Workload> w = make_workload(o.workload);
  if (!w) usage("unknown workload " + o.workload);

  const double nominal = w->nominal_job_s();
  const int n_jobs =
      std::max(kMinJobs, static_cast<int>(std::lround(o.seconds / nominal)));
  const int n_warm =
      std::max(3, static_cast<int>(std::lround(kWarmupSeconds / nominal)));
  const int n_oracle = (n_jobs + w->oracle_every() - 1) / w->oracle_every();
  const std::set<int> oracle_jobs =
      pick_jobs(n_jobs, n_oracle, input_seed(o.seed, kCheckPick, 0));

  Tally tally;
  std::unordered_set<std::uint64_t> seen; // input digests of this run
  const auto next_input = [&](std::uint64_t stream, int i) {
    const std::uint64_t d = w->make_input(input_seed(o.seed, stream, static_cast<std::uint64_t>(i)));
    if (!seen.insert(d).second) {
      std::fprintf(stderr, "svbench: input %d of stream %llu repeats an earlier one\n",
                   i, static_cast<unsigned long long>(stream));
      std::exit(3);
    }
  };

  std::printf("svbench %s seed=%llu seconds=%g trace=%d\n", w->name(),
              static_cast<unsigned long long>(o.seed), o.seconds, o.trace);

  // One set-up: build what the workload keeps, then ~1 s of warm-up jobs
  // from a stream of their own.
  std::vector<double> setup_s;
  const auto set_up = [&](int r) {
    w->teardown(nullptr);
    const double t0 = now_us();
    w->setup(nullptr);
    for (int i = 0; i < n_warm; ++i) {
      next_input(kWarmup + static_cast<std::uint64_t>(r), i);
      JobOutput out;
      run_job(*w, nullptr, nullptr, &out, tally, kSetupPass, r * n_warm + i);
    }
    setup_s.push_back((now_us() - t0) / 1e6);
  };
  set_up(0);

  // Timed pass: inputs are made before each job's clock starts.
  std::vector<double> ms(static_cast<std::size_t>(n_jobs));
  std::map<int, JobOutput> kept;
  for (int i = 0; i < n_jobs; ++i) {
    next_input(kTimed, i);
    JobOutput out;
    ms[static_cast<std::size_t>(i)] =
        run_job(*w, nullptr, nullptr, &out, tally, kTimedPass, i);
    if (oracle_jobs.count(i)) kept.emplace(i, std::move(out));
    const int r = static_cast<int>(setup_s.size());
    if (r < kSetupReps - 1 && (i + 1) * (kSetupReps - 1) >= r * n_jobs) set_up(r);
  }
  const double peak_rss_mb = vm_hwm_mib();
  set_up(kSetupReps - 1);
  double sum_ms = 0;
  for (const double x : ms) sum_ms += x;
  const double p50 = percentile(ms, 50);

  // Oracle checks on the seeded subset, after the timed pass.
  const double oracle_t0 = now_us();
  for (const auto& [i, out] : kept) {
    w->make_input(input_seed(o.seed, kTimed, static_cast<std::uint64_t>(i)));
    std::string err;
    try {
      err = w->oracle_check(out);
    } catch (const std::exception& e) {
      err = std::string("oracle threw: ") + e.what();
    }
    if (!err.empty()) tally.fail(kTimedPass, i, err);
  }
  const double oracle_s = (now_us() - oracle_t0) / 1e6;

  std::printf("jobs: %d timed (closed loop, 1 client), set-up %d x %d warm-up, "
              "oracle-checked %zu in %.2f s\n",
              n_jobs, kSetupReps, n_warm, kept.size(), oracle_s);
  std::printf("job ms: p10 %.3f  p25 %.3f  p50 %.3f  p75 %.3f  p90 %.3f  "
              "p99 %.3f  max %.3f; set-up s:",
              percentile(ms, 10), percentile(ms, 25), p50, percentile(ms, 75),
              percentile(ms, 90), percentile(ms, 99), percentile(ms, 100));
  for (const double x : setup_s) std::printf(" %.3f", x);
  std::printf("\n");

  bool correct = true;
  std::vector<Metric> metrics;
  if (o.trace == 0) {
    w->teardown(nullptr);
    const double fail_frac =
        static_cast<double>(tally.failed.size()) / static_cast<double>(tally.attempted);
    metrics = {
        {"jobs_per_s", n_jobs / (sum_ms / 1e3), "1/s"},
        {"job_p50_ms", p50, "ms"},
        {"job_p90_ms", percentile(ms, 90), "ms"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mb", peak_rss_mb, "MiB"},
        {"ok_frac", 1.0 - fail_frac, "fraction"},
    };
    print_table(metrics);
    std::printf("  %-26s %14.6g fraction (%zu of %llu jobs)\n", "fail_frac",
                fail_frac, tally.failed.size(),
                static_cast<unsigned long long>(tally.attempted));
  } else {
    metrics = traced_run(*w, o, n_jobs, p50, tally, &correct);
  }

  for (const std::string& r : tally.reasons) std::fprintf(stderr, "FAILED %s\n", r.c_str());
  correct = correct && tally.failed.empty();
  std::printf("%s\n", json_result(correct, tally, metrics).c_str());
  return 0;
}

} // namespace
} // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "svbench: %s\n", e.what());
    return 1;
  }
}
