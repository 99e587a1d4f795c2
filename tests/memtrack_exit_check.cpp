// Exit-time accounting check for the memory registry.
//
// Accounting also runs during static destruction: a static TrackedBuffer
// is untracked there, and a static's destructor may take a sample. Both
// write Registry gauges, so the Registry singleton must outlive every
// static that touched MemRegistry first; MemRegistry's constructor orders
// that. This program makes a wrong order show deterministically: a static
// constructed right after MemRegistry, before anything else touches the
// Registry, is destroyed after every later static (a Registry first built
// by the later track() included) and samples and snapshots the registry
// there. A use-after-free then crashes the process or, under
// -DSVSIM_SANITIZE=address, fails it with a heap-use-after-free report.
#include <cstdio>
#include <cstdlib>

#include "obs/memtrack.hpp"

namespace {

using svsim::obs::MemRegistry;

struct ExitSample {
  ExitSample() { MemRegistry::global(); }
  ~ExitSample() {
    MemRegistry::global().sample_now();
    const svsim::obs::MemoryStats snap = MemRegistry::global().snapshot();
    if (snap.tracked_bytes != 0) {
      std::fprintf(stderr, "memtrack exit check: %llu bytes still tracked\n",
                   static_cast<unsigned long long>(snap.tracked_bytes));
      std::fflush(stderr);
      std::_Exit(1);
    }
  }
};

} // namespace

int main() {
  static ExitSample sample;
  // Tracked until static destruction untracks it, before `sample` runs.
  static svsim::obs::TrackedBuffer<double> buf(1 << 12,
                                               svsim::obs::MemTag::kOther);
  std::puts("memtrack exit check: exiting with a tracked buffer live");
  return 0;
}
