// Shared driver for the LIS experiments (Fig. 8 / Fig. 9 / Table 2).
//
// Per output size, reports the exact columns of Table 2: classic
// sequential time, "ours sequential" (the parallel algorithm run under the
// sequential backend, i.e. 1 worker), "ours parallel", self-speedup, and
// the average number of wake-up attempts per object.
#pragma once

#include <cstdio>
#include <functional>
#include <vector>

#include "algos/lis.h"
#include "bench_common.h"

namespace bench {

inline void lis_table(const char* pattern_name,
                      const std::function<std::vector<int64_t>(size_t, size_t)>& make_input,
                      size_t n, const std::vector<size_t>& target_outputs) {
  std::printf("n = %zu, pattern = %s, pivot policy = rightmost (as in Sec. 6.4)\n\n", n,
              pattern_name);
  std::printf("%10s | %12s %12s %12s | %10s %12s | %8s\n", "output", "classic(s)", "ours-seq(s)",
              "ours-par(s)", "self-spd", "avg-wakeup", "rounds");
  for (size_t target : target_outputs) {
    auto a = make_input(n, target);
    pp::lis_result classic, ours_seq, ours_par;
    double tc = time_s([&] { classic = pp::lis_sequential(a); });
    double tos;
    {
      pp::scoped_context seq(pp::current_context().with_backend(pp::backend_kind::sequential));
      tos = time_s([&] { ours_seq = pp::lis_parallel(a, pp::pivot_policy::rightmost, 1); });
    }
    double top;
    {
      // Lease the run's pool once, outside the clock — round-heavy Type-2
      // solves would otherwise pay a lease per parallel region inside the
      // timed section.
      pp::scoped_scheduler sched(pp::current_context());
      top = time_s([&] { ours_par = pp::lis_parallel(a, pp::pivot_policy::rightmost, 1); });
    }
    if (classic.length != ours_par.length || ours_seq.length != ours_par.length) {
      std::printf("LIS LENGTH MISMATCH!\n");
      std::exit(1);
    }
    std::printf("%10lld | %12.3f %12.3f %12.3f | %10.2f %12.2f | %8zu\n",
                (long long)ours_par.length, tc, tos, top, tos / top,
                ours_par.stats.avg_wakeups(), ours_par.stats.rounds);
  }
  std::printf("\nShape check vs paper (Fig. 8/9, Tab. 2): parallel time grows with the\n"
              "output size; classic seq gets slightly faster; avg wake-ups stays well\n"
              "below log2(n); self-speedup bounded by the machine's %u workers.\n",
              pp::num_workers());
}

}  // namespace bench
