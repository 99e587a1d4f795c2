// MemRegistry implementation: tag accounting, the on-read /proc samples,
// the NUMA page-placement walk, the GET /memory document and the report
// fold.
//
// Locking: the one mutex `mu_` guards the records, every aggregate and
// the last sample. Samples run in the reader's thread under `mu_`, so a
// sample never sees a half-applied track()/untrack().
#include "obs/memtrack.hpp"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#if defined(__linux__)
#include <sys/syscall.h>
#include <unistd.h>
#endif

#include "common/config.hpp"
#include "obs/capacity.hpp"
#include "obs/jsonlite.hpp"
#include "obs/registry.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"

namespace svsim::obs {

namespace {

// Numbers the NUMA syscalls speak, local so no <numaif.h> (libnuma
// headers) is required: move_pages/get_mempolicy are raw syscalls here.
constexpr int kMpolFNode = 1;
constexpr int kMpolFAddr = 2;

/// Parse "<key>:   <n> kB" out of a /proc status-style text blob.
/// Returns false when the key is absent.
bool parse_kb(const std::string& text, const char* key, std::uint64_t* out) {
  const std::size_t pos = text.find(key);
  if (pos == std::string::npos) return false;
  const char* p = text.c_str() + pos + std::strlen(key);
  char* end = nullptr;
  const unsigned long long kb = std::strtoull(p, &end, 10);
  if (end == p) return false;
  *out = static_cast<std::uint64_t>(kb) * 1024;
  return true;
}

bool slurp_file(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream os;
  os << in.rdbuf();
  *out = os.str();
  return !out->empty();
}

} // namespace

const char* mem_tag_name(MemTag tag) {
  switch (tag) {
    case MemTag::kState: return "state";
    case MemTag::kBatch: return "batch";
    case MemTag::kShmemHeap: return "shmem_heap";
    case MemTag::kMailbox: return "mailbox";
    case MemTag::kPhaseTable: return "phase_table";
    case MemTag::kCoef: return "coef";
    case MemTag::kOracle: return "oracle";
    case MemTag::kOther: return "other";
  }
  return "other";
}

MemRegistry& MemRegistry::global() {
  static MemRegistry reg;
  return reg;
}

MemRegistry::MemRegistry()
    : enabled_(Env::process().memtrack.value_or(true)) {
  // Accounting also runs during static destruction: a static
  // TrackedBuffer is untracked there and a static's destructor may take a
  // sample, and both write Registry gauges. Statics are destroyed in
  // reverse order of construction, so Registry must finish constructing
  // before this registry does. Trace, which receives the rss_mb points
  // sampled here, is ordered the same way.
  Registry::global();
  Trace::global();
}

void MemRegistry::apply_delta_locked(MemTag tag, std::int64_t delta, int pe) {
  const auto apply = [delta](std::uint64_t* cur) {
    if (delta >= 0) {
      *cur += static_cast<std::uint64_t>(delta);
    } else {
      const std::uint64_t dec = static_cast<std::uint64_t>(-delta);
      *cur = *cur > dec ? *cur - dec : 0; // clamp: enable/disable races
    }
  };
  apply(&rec_.tracked_bytes);
  if (rec_.tracked_bytes > rec_.tracked_peak) {
    rec_.tracked_peak = rec_.tracked_bytes;
    rec_.peak_ts_us = trace_now_us();
  }
  MemoryStats::Tag& t = rec_.by_tag[static_cast<std::size_t>(tag)];
  apply(&t.current);
  if (t.current > t.peak) t.peak = t.current;
  if (pe >= 0) {
    MemoryStats::Pe& p = per_pe_[pe];
    p.pe = pe;
    apply(&p.current);
    if (p.current > p.peak) p.peak = p.current;
  }
  Registry::global().gauge("mem.tracked_bytes").set(
      static_cast<double>(rec_.tracked_bytes));
  Registry::global().gauge("mem.tracked_peak_bytes").set(
      static_cast<double>(rec_.tracked_peak));
}

std::uint64_t MemRegistry::track(MemTag tag, const void* ptr,
                                 std::size_t bytes, int pe) {
  if (!enabled() || bytes == 0) return 0;
  ensure_baseline();
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t id = next_id_++;
  live_[id] = Record{tag, ptr, bytes, pe, -1};
  apply_delta_locked(tag, static_cast<std::int64_t>(bytes), pe);
  return id;
}

void MemRegistry::untrack(std::uint64_t id) {
  if (id == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = live_.find(id);
  if (it == live_.end()) return;
  apply_delta_locked(it->second.tag,
                     -static_cast<std::int64_t>(it->second.bytes),
                     it->second.pe);
  live_.erase(it);
}

void MemRegistry::adjust(MemTag tag, std::int64_t delta, int pe) {
  if (!enabled() || delta == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  apply_delta_locked(tag, delta, pe);
}

void MemRegistry::ensure_baseline() {
  std::lock_guard<std::mutex> lock(mu_);
  if (baseline_done_) return;
  baseline_done_ = true;
  std::string text;
  if (slurp_file(proc_root_ + "/status", &text)) {
    parse_kb(text, "VmRSS:", &rec_.baseline_rss);
  }
}

void MemRegistry::sample_proc_locked(bool deep) {
  std::string text;
  if (!slurp_file(proc_root_ + "/status", &text)) {
    rec_.sampled = false;
    rec_.sample_error = "cannot read " + proc_root_ + "/status";
    return;
  }
  std::uint64_t rss = 0;
  std::uint64_t hwm = 0;
  if (!parse_kb(text, "VmRSS:", &rss)) {
    rec_.sampled = false;
    rec_.sample_error = "no VmRSS in " + proc_root_ + "/status";
    return;
  }
  parse_kb(text, "VmHWM:", &hwm);
  rec_.rss_bytes = rss;
  if (hwm > rec_.hwm_bytes) rec_.hwm_bytes = hwm;
  // smaps_rollup walks every VMA under mmap_lock and costs ~10x a status
  // read, so only deep samples pay for it (THP coverage moves slowly).
  // Its absence on older kernels is not an error.
  if (deep) {
    std::string rollup;
    if (slurp_file(proc_root_ + "/smaps_rollup", &rollup)) {
      parse_kb(rollup, "AnonHugePages:", &rec_.thp_bytes);
    }
  }
  rec_.sampled = true;
  rec_.sample_error.clear();
  ++rec_.samples;
  Registry::global().gauge("mem.rss_bytes").set(static_cast<double>(rss));
  Registry::global().gauge("mem.hwm_bytes").set(
      static_cast<double>(rec_.hwm_bytes));
  if (rec_.thp_bytes != 0) {
    Registry::global().gauge("mem.thp_bytes").set(
        static_cast<double>(rec_.thp_bytes));
  }
}

void MemRegistry::sample_numa_locked() {
  if (numa_forced_off_.load(std::memory_order_relaxed)) {
    rec_.numa = false;
    rec_.numa_error = "forced unavailable (test)";
    return;
  }
#if !defined(__linux__)
  rec_.numa = false;
  rec_.numa_error = "NUMA page queries need Linux";
#else
  if (live_.empty()) return;
  const long page = sysconf(_SC_PAGESIZE);
  if (page <= 0) return;
  std::vector<std::uint64_t> node_bytes;
  bool any = false;
  for (auto& [id, rec] : live_) {
    (void)id;
    if (rec.ptr == nullptr || rec.bytes < static_cast<std::uint64_t>(page)) {
      continue;
    }
    // Sample up to 16 evenly spaced pages of the buffer; the placement
    // estimate weights the buffer's bytes by the sampled distribution.
    constexpr int kMaxPages = 16;
    const std::uint64_t n_pages = rec.bytes / static_cast<std::uint64_t>(page);
    const int n = n_pages < kMaxPages ? static_cast<int>(n_pages) : kMaxPages;
    void* pages[kMaxPages];
    int status[kMaxPages];
    const char* base = static_cast<const char*>(rec.ptr);
    for (int i = 0; i < n; ++i) {
      const std::uint64_t pidx =
          n_pages * static_cast<std::uint64_t>(i) / static_cast<std::uint64_t>(n);
      pages[i] = const_cast<char*>(base) +
                 pidx * static_cast<std::uint64_t>(page);
    }
    long rc = -1;
#if defined(SYS_move_pages)
    rc = syscall(SYS_move_pages, 0, static_cast<unsigned long>(n), pages,
                 nullptr, status, 0);
#else
    errno = ENOSYS;
#endif
    if (rc != 0) {
      // Containers commonly deny move_pages; one get_mempolicy probe of
      // the first page is the cheaper fallback.
      int node = -1;
      long rc2 = -1;
#if defined(SYS_get_mempolicy)
      rc2 = syscall(SYS_get_mempolicy, &node, nullptr, 0, pages[0],
                    kMpolFNode | kMpolFAddr);
#endif
      if (rc2 != 0) {
        rec_.numa = false;
        rec_.numa_error =
            std::string("move_pages/get_mempolicy unavailable: ") +
            std::strerror(errno);
        return;
      }
      for (int i = 0; i < n; ++i) status[i] = node;
    }
    int counts[kMaxPages] = {}; // per-distinct-node page tallies
    int best_node = -1;
    int best_count = 0;
    int max_node = -1;
    for (int i = 0; i < n; ++i) {
      if (status[i] < 0) continue; // unmapped page (never touched)
      if (status[i] > max_node) max_node = status[i];
    }
    if (max_node >= 0) {
      if (static_cast<std::size_t>(max_node) + 1 > node_bytes.size()) {
        node_bytes.resize(static_cast<std::size_t>(max_node) + 1, 0);
      }
      int mapped = 0;
      for (int i = 0; i < n; ++i) {
        if (status[i] < 0) continue;
        ++mapped;
        const int slot = status[i] % kMaxPages;
        if (++counts[slot] > best_count) {
          best_count = counts[slot];
          best_node = status[i];
        }
      }
      for (int i = 0; i < n; ++i) {
        if (status[i] < 0) continue;
        node_bytes[static_cast<std::size_t>(status[i])] +=
            rec.bytes / static_cast<std::uint64_t>(mapped);
      }
      rec.node = best_node;
      any = true;
    }
  }
  if (any) {
    rec_.numa = true;
    rec_.numa_error.clear();
    rec_.node_bytes = std::move(node_bytes);
    for (auto& [pe, cnt] : per_pe_) {
      // Dominant node of the PE's largest live buffer wins.
      std::uint64_t best = 0;
      for (const auto& [id, rec] : live_) {
        (void)id;
        if (rec.pe == pe && rec.node >= 0 && rec.bytes > best) {
          best = rec.bytes;
          cnt.node = rec.node;
        }
      }
    }
  }
#endif
}

void MemRegistry::sample_now() {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  sample_proc_locked(true);
  sample_numa_locked();
}

std::uint64_t MemRegistry::sample_rss() {
  if (!enabled()) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  sample_proc_locked(false);
  return rec_.sampled ? rec_.rss_bytes : 0;
}

MemoryStats MemRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MemoryStats snap = rec_;
  snap.enabled = enabled();
  for (const auto& entry : per_pe_) snap.per_pe.push_back(entry.second);
  return snap;
}

void MemRegistry::reset_peaks_for_testing() {
  std::lock_guard<std::mutex> lock(mu_);
  rec_.tracked_peak = rec_.tracked_bytes;
  rec_.peak_ts_us = trace_now_us();
  for (auto& t : rec_.by_tag) t.peak = t.current;
  for (auto& [pe, cnt] : per_pe_) {
    (void)pe;
    cnt.peak = cnt.current;
  }
}

void MemRegistry::set_proc_root_for_testing(const std::string& root) {
  std::lock_guard<std::mutex> lock(mu_);
  proc_root_ = root;
  rec_.sampled = false;
  rec_.sample_error.clear();
  rec_.samples = 0;
}

void MemRegistry::force_numa_unavailable_for_testing(bool on) {
  numa_forced_off_.store(on, std::memory_order_relaxed);
}

std::string memory_json(const MemoryStats& snap) {
  jsonlite::Writer w;
  w.begin_object().field("schema", "svsim-memory-v1");
  write_fields(w, snap);
  return w.end_object().take();
}

void fold_memory(RunReport& report) {
  MemRegistry& reg = MemRegistry::global();
  if (!reg.enabled()) {
    report.memory = MemoryStats{};
    return;
  }
  reg.sample_now();
  report.memory = reg.snapshot();

  FootprintQuery q;
  q.backend = report.backend;
  q.n_qubits = report.n_qubits;
  q.workers = report.n_workers;
  q.batch = report.batch;
  q.gates = report.total_gates;
  report.memory.estimated_bytes =
      static_cast<double>(estimate_footprint(q).total_bytes);
}

} // namespace svsim::obs
