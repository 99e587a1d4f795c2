// Footprint pricing per backend + the memory-limit admission check.
#include "obs/capacity.hpp"

#include <cstdio>
#include <sstream>

#include "common/bits.hpp"
#include "common/config.hpp"
#include "common/error.hpp"
#include "common/types.hpp"
#include "obs/memtrack.hpp"

namespace svsim::obs {

namespace {

/// 64-byte allocation quantum, matching AlignedBuffer / TrackedBuffer.
std::uint64_t round64(std::uint64_t bytes) {
  return (bytes + 63) / 64 * 64;
}

std::string human_bytes_local(std::uint64_t b) {
  char buf[32];
  if (b >= (1ull << 30)) {
    std::snprintf(buf, sizeof(buf), "%.2f GiB",
                  static_cast<double>(b) / (1ull << 30));
  } else if (b >= (1ull << 20)) {
    std::snprintf(buf, sizeof(buf), "%.2f MiB",
                  static_cast<double>(b) / (1ull << 20));
  } else if (b >= (1ull << 10)) {
    std::snprintf(buf, sizeof(buf), "%.2f KiB",
                  static_cast<double>(b) / (1ull << 10));
  } else {
    std::snprintf(buf, sizeof(buf), "%llu B",
                  static_cast<unsigned long long>(b));
  }
  return buf;
}

} // namespace

FootprintEstimate estimate_footprint(const FootprintQuery& q,
                                     std::uint64_t limit) {
  FootprintEstimate est;
  const std::uint64_t dim = q.n_qubits > 0
                                ? static_cast<std::uint64_t>(pow2(q.n_qubits))
                                : 1;
  const std::uint64_t amp_bytes = 2 * sizeof(ValType); // split re/im
  const int workers = q.workers > 0 ? q.workers : 1;
  const std::uint64_t batch =
      q.batch > 1 ? static_cast<std::uint64_t>(q.batch) : 1;

  const bool batched = batch > 1 || q.backend.rfind("batched", 0) == 0;
  if (batched) {
    est.components.push_back(
        {"batched lanes (2^n x B amps, re+im)",
         round64(dim * batch * amp_bytes)});
    // One coefficient slab row per gate table entry, batch-wide; at most
    // 8 rows per gate in the upload format. Small next to the lanes, but
    // part of the tracked peak the estimate is validated against.
    est.components.push_back(
        {"coefficient slab", round64(q.gates * 8 * batch * sizeof(ValType))});
  } else if (q.backend.rfind("shmem", 0) == 0) {
    // Mirrors ShmemSim's default_heap_bytes: the state planes live
    // inside the per-PE symmetric-heap arenas.
    const std::uint64_t heap =
        q.shmem_heap_bytes != 0
            ? q.shmem_heap_bytes
            : (dim / static_cast<std::uint64_t>(workers)) * amp_bytes +
                  (1u << 16);
    est.components.push_back(
        {"symmetric heap (per-PE arena x W)",
         round64(heap) * static_cast<std::uint64_t>(workers)});
  } else if (q.backend.rfind("coarse", 0) == 0) {
    est.components.push_back(
        {"state planes (2^n amps, re+im)", round64(dim * amp_bytes)});
    // Worst-case in-flight exchange payloads: every rank's outgoing
    // partition copy plus the received copy, 2 x amp_bytes x 2^n total.
    est.components.push_back(
        {"mailbox payloads (transient)", 2 * dim * amp_bytes});
  } else if (q.backend.rfind("oracle", 0) == 0) {
    est.components.push_back(
        {"dense oracle state (2^n amps)", round64(dim * amp_bytes)});
  } else {
    // single / peer / generalized: one pair of re/im planes, split
    // across devices for peer but the same total.
    est.components.push_back(
        {"state planes (2^n amps, re+im)", round64(dim * amp_bytes)});
  }

  for (const FootprintEstimate::Component& c : est.components) {
    est.total_bytes += c.bytes;
  }
  est.avail_bytes = mem_available_bytes();
  est.limit_bytes = limit;
  if (est.limit_bytes != 0) {
    est.fits = est.total_bytes <= est.limit_bytes;
  } else if (est.avail_bytes != 0) {
    est.fits = est.total_bytes <= est.avail_bytes;
  }
  return est;
}

std::string FootprintEstimate::table() const {
  std::ostringstream os;
  os << "estimated resident footprint:\n";
  for (const Component& c : components) {
    char line[128];
    std::snprintf(line, sizeof(line), "  %-38s %14llu  (%s)\n",
                  c.name.c_str(), static_cast<unsigned long long>(c.bytes),
                  human_bytes_local(c.bytes).c_str());
    os << line;
  }
  char line[160];
  std::snprintf(line, sizeof(line), "  %-38s %14llu  (%s)\n", "total",
                static_cast<unsigned long long>(total_bytes),
                human_bytes_local(total_bytes).c_str());
  os << line;
  if (limit_bytes != 0) {
    std::snprintf(line, sizeof(line), "  limit: %s\n",
                  human_bytes_local(limit_bytes).c_str());
    os << line;
  }
  if (avail_bytes != 0) {
    std::snprintf(line, sizeof(line), "  host MemAvailable: %s\n",
                  human_bytes_local(avail_bytes).c_str());
    os << line;
  }
  os << "  verdict: " << (fits ? "fits" : "would NOT fit") << '\n';
  return os.str();
}

IdxType admit_dim(const char* backend, IdxType n_qubits, int workers,
                  IdxType batch, std::uint64_t limit) {
  // The RSS baseline must predate the allocations this check gates.
  MemRegistry::global().ensure_baseline();
  if (limit == 0) return pow2(n_qubits);
  FootprintQuery q;
  q.backend = backend;
  q.n_qubits = n_qubits;
  q.workers = workers;
  q.batch = batch;
  const FootprintEstimate est = estimate_footprint(q, limit);
  if (est.total_bytes <= limit) return pow2(n_qubits);
  char msg[256];
  std::snprintf(msg, sizeof(msg),
                "%s backend needs ~%s for n=%lld (W=%d, B=%lld), over the "
                "memory limit of %s — refusing to allocate "
                "(SVSIM_MEM_LIMIT / SimConfig::mem_limit)",
                backend, human_bytes_local(est.total_bytes).c_str(),
                static_cast<long long>(n_qubits), workers,
                static_cast<long long>(batch),
                human_bytes_local(limit).c_str());
  throw Error(msg);
}

} // namespace svsim::obs
