#include "shmem/shmem.hpp"

#include "common/bits.hpp"
#include "common/logging.hpp"

#include <algorithm>
#include <cstring>
#include <exception>
#include <sstream>
#include <thread>

namespace svsim::shmem {

std::string TrafficStats::summary() const {
  std::ostringstream os;
  os << "gets(local/remote)=" << local_gets << "/" << remote_gets
     << " puts(local/remote)=" << local_puts << "/" << remote_puts
     << " bytes(g/p)=" << bytes_got << "/" << bytes_put
     << " atomics=" << atomics << " barriers=" << barriers;
  return os.str();
}

// ---------------------------------------------------------------------------
// Ctx
// ---------------------------------------------------------------------------

Ctx::Ctx(Runtime* rt, int pe)
    : rt_(rt), pe_(pe),
      dest_bytes_(static_cast<std::size_t>(rt->n_pes_), 0) {}

int Ctx::n_pes() const { return rt_->n_pes_; }

void* Ctx::malloc_sym_bytes(std::size_t bytes, std::size_t align) {
  SVSIM_CHECK(align <= kBufferAlign, "over-aligned symmetric allocation");
  // Collective: the last PE to arrive performs the bump; everyone reads the
  // same offset after release. This also validates symmetry — if any PE
  // requested a different size the heap would desynchronize, so the bump is
  // done once centrally rather than per PE. Failure (heap exhaustion) is
  // signalled through a sentinel so every PE throws together instead of
  // one PE unwinding while the others wait at the barrier.
  constexpr std::size_t kFailed = static_cast<std::size_t>(-1);
  Runtime* rt = rt_;
  rt->barrier_.arrive_and_wait([rt, bytes] {
    std::size_t off = (rt->heap_brk_ + kBufferAlign - 1) / kBufferAlign *
                      kBufferAlign;
    if (off + bytes > rt->heap_bytes_) {
      rt->pending_offset_ = kFailed;
      return;
    }
    rt->pending_offset_ = off;
    rt->heap_brk_ = off + bytes;
  });
  const std::size_t offset = rt->pending_offset_;
  // A second barrier so no PE can start the *next* collective allocation
  // (overwriting pending_offset_) before everyone has read this one.
  rt->barrier_.arrive_and_wait();
  SVSIM_CHECK(offset != kFailed,
              "symmetric heap exhausted; construct Runtime with a larger "
              "heap_bytes");
  char* base = rt->arenas_[static_cast<std::size_t>(pe_)].data() + offset;
  std::memset(base, 0, bytes);
  // Third barrier: the collective returns only after *every* PE has zeroed
  // its partition, so a one-sided put issued right after malloc_sym can
  // never be wiped by the target PE's own (slower) zeroing.
  rt->barrier_.arrive_and_wait();
  return base;
}

char* Ctx::translate_bytes(const char* sym, std::size_t bytes,
                           int target_pe) const {
  SVSIM_CHECK(target_pe >= 0 && target_pe < rt_->n_pes_, "bad PE id");
  const char* my_base = rt_->arenas_[static_cast<std::size_t>(pe_)].data();
  const std::ptrdiff_t offset = sym - my_base;
  // The whole extent [offset, offset + bytes), not just its first byte.
  SVSIM_CHECK(offset >= 0 &&
                  static_cast<std::size_t>(offset) <= rt_->heap_bytes_ &&
                  bytes <= rt_->heap_bytes_ - static_cast<std::size_t>(offset),
              "access is not inside the symmetric heap");
  return rt_->arenas_[static_cast<std::size_t>(target_pe)].data() + offset;
}

void Ctx::barrier_all() {
  ++stats_.barriers;
  rt_->barrier_.arrive_and_wait();
}

ValType Ctx::all_reduce_sum(ValType v) {
  auto values = all_gather(v);
  ValType sum = 0;
  for (ValType x : values) sum += x;
  return sum;
}

ValType Ctx::all_reduce_max(ValType v) {
  auto values = all_gather(v);
  ValType m = values[0];
  for (ValType x : values) m = x > m ? x : m;
  return m;
}

ValType Ctx::all_reduce_min(ValType v) {
  auto values = all_gather(v);
  ValType m = values[0];
  for (ValType x : values) m = x < m ? x : m;
  return m;
}

std::int64_t Ctx::all_reduce_sum_i64(std::int64_t v) {
  auto values = all_gather(static_cast<ValType>(v));
  std::int64_t sum = 0;
  for (ValType x : values) sum += static_cast<std::int64_t>(x);
  return sum;
}

std::vector<ValType> Ctx::all_gather(ValType v) {
  // One kReduction span for the whole collective; the three inner
  // barriers' kBarrier scopes are suppressed by nesting.
  obs::WaitScope wait(obs::WaitKind::kReduction);
  Runtime* rt = rt_;
  // The gather table is rebuilt per call: the last PE to arrive at the
  // first barrier sizes it; each PE writes its slot; the second barrier
  // publishes all slots; each PE copies out; a third barrier allows the
  // table to be reused by the next collective.
  rt->barrier_.arrive_and_wait([rt] {
    rt->gather_table_.assign(static_cast<std::size_t>(rt->n_pes_), 0);
  });
  rt->gather_table_[static_cast<std::size_t>(pe_)] = v;
  rt->barrier_.arrive_and_wait();
  std::vector<ValType> out = rt->gather_table_;
  rt->barrier_.arrive_and_wait();
  return out;
}

// ---------------------------------------------------------------------------
// Runtime
// ---------------------------------------------------------------------------

Runtime::Runtime(int n_pes, std::size_t heap_bytes)
    : n_pes_(n_pes), heap_bytes_(heap_bytes), barrier_(n_pes) {
  SVSIM_CHECK(n_pes >= 1, "need at least one PE");
  SVSIM_CHECK(is_pow2(n_pes), "PE count must be a power of two (the state "
                              "vector partitions along qubit bits)");
  arenas_.reserve(static_cast<std::size_t>(n_pes));
  for (int i = 0; i < n_pes; ++i) {
    arenas_.emplace_back(heap_bytes);
  }
}

void Runtime::run(const std::function<void(Ctx&)>& pe_main) {
  heap_brk_ = 0;
  last_traffic_.assign(static_cast<std::size_t>(n_pes_), TrafficStats{});
  last_matrix_.assign(
      static_cast<std::size_t>(n_pes_) * static_cast<std::size_t>(n_pes_), 0);

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n_pes_ - 1));
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(n_pes_));

  auto body = [&](int pe) {
    set_log_pe(pe); // tag this PE's log lines for interleaved SPMD output
    Ctx ctx(this, pe);
    try {
      pe_main(ctx);
    } catch (...) {
      errors[static_cast<std::size_t>(pe)] = std::current_exception();
      // A PE that throws leaves its body here and never arrives at
      // another barrier, and nothing cancels the rest: the other PEs
      // block at their next barrier, and the joins below wait for them
      // forever. The error reaches the caller only when every PE throws
      // at the same point (the programming errors tests surface, where
      // all PEs fail the same check) or a PE throws after its last
      // barrier.
    }
    last_traffic_[static_cast<std::size_t>(pe)] = ctx.traffic();
    const std::vector<std::uint64_t>& row = ctx.dest_bytes();
    std::copy(row.begin(), row.end(),
              last_matrix_.begin() +
                  static_cast<std::ptrdiff_t>(pe) * n_pes_);
  };

  for (int pe = 1; pe < n_pes_; ++pe) {
    threads.emplace_back(body, pe);
  }
  body(0);
  for (auto& t : threads) t.join();
  set_log_pe(-1); // the calling thread served as PE 0

  for (auto& err : errors) {
    if (err) std::rethrow_exception(err);
  }
}

TrafficStats Runtime::aggregate_traffic() const {
  TrafficStats total;
  for (const auto& s : last_traffic_) total += s;
  return total;
}

} // namespace svsim::shmem
