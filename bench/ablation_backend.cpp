// Ablation: parallel runtime backend (native work-stealing vs sequential)
// on the core primitives. The algorithms only use
// par_do/parallel_for, so this isolates the scheduler's contribution.
//
// Uses the context API: one pp::context per backend column, activated
// around the timed section, so the same lambda runs under each backend
// without touching process-global state.
#include <cstdio>
#include <numeric>

#include "bench_common.h"
#include "core/context.h"
#include "parallel/primitives.h"
#include "parallel/random.h"
#include "parallel/sort.h"

namespace {

template <typename F>
void rowbench(const char* name, F f) {
  std::printf("%-18s", name);
  for (auto b : {pp::backend_kind::sequential, pp::backend_kind::native}) {
    pp::context ctx = bench::env_context().with_backend(b);
    pp::run_scope scope(ctx);  // activation + pool lease outside the clock
    std::printf(" %10.3f", bench::time_s(f));
  }
  std::printf("\n");
}

}  // namespace

int main() {
  bench::banner("Ablation: scheduler backend on primitives", "Sec. 2 computational model",
                bench::env_context());
  size_t n = bench::scaled(20'000'000);
  std::printf("n = %zu\n\n%-18s %10s %10s\n", n, "primitive", "seq(s)", "native(s)");

  std::vector<int64_t> xs(n);
  for (size_t i = 0; i < n; ++i) xs[i] = static_cast<int64_t>(pp::hash64(i) % 1000);

  rowbench("parallel_for", [&] {
    std::vector<int64_t> out(n);
    pp::parallel_for(0, n, [&](size_t i) { out[i] = xs[i] * 3 + 1; });
  });
  rowbench("reduce", [&] {
    volatile int64_t s = pp::reduce_add(std::span<const int64_t>(xs));
    (void)s;
  });
  rowbench("scan", [&] {
    auto copy = xs;
    pp::scan_exclusive_add(std::span<int64_t>(copy));
  });
  rowbench("pack", [&] {
    auto out = pp::pack(std::span<const int64_t>(xs), [&](size_t i) { return xs[i] % 3 == 0; });
  });
  rowbench("sort", [&] {
    auto copy = xs;
    pp::sort_inplace(std::span<int64_t>(copy));
  });
  std::printf("\nNative should beat sequential on multi-core machines for\n"
              "memory-light primitives.\n");
  return 0;
}
