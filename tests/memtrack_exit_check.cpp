// Exit-order check for the memory sampler thread.
//
// The sampler writes Registry gauges and Trace counters on every tick
// until ~MemRegistry joins it, so both singletons must be destroyed after
// MemRegistry. This program makes a wrong order show deterministically:
// a static constructed right after MemRegistry (and before anything
// main() touches) is destroyed right before it, and holds process exit
// there while a 1 ms sampler keeps ticking against every singleton
// destroyed earlier. A use-after-free then crashes the process or, under
// -DSVSIM_SANITIZE=address, fails it with a heap-use-after-free report.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "obs/memtrack.hpp"

namespace {

struct ExitHold {
  ExitHold() { svsim::obs::MemRegistry::global(); }
  ~ExitHold() { std::this_thread::sleep_for(std::chrono::milliseconds(200)); }
};

} // namespace

int main() {
  // Read by the MemRegistry constructor, which the hold below triggers.
  ::setenv("SVSIM_MEMTRACK_MS", "1", 1);
  static ExitHold hold;
  // Still tracked at exit, so the sampler is running through the hold.
  static std::vector<double> buf(1 << 12, 0.0);
  svsim::obs::MemRegistry::global().track(svsim::obs::MemTag::kOther,
                                          buf.data(),
                                          buf.size() * sizeof(double), -1);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::puts("memtrack exit-order check: exiting with the sampler running");
  return 0;
}
