// trace_overhead: the disabled tracer must be free on the serving path.
//
// The serving benches (bench/serving_cache, bench/serving_async) time the
// engine path with trace emission points compiled in; this bench asserts
// the instrumented build costs <2% on that same path with tracing off —
// i.e. that core/trace.h delivers its "disabled cost ~ one branch"
// contract where it matters.
//
// Three measurements:
//   1. per-span disabled cost: a tight loop constructing a trace_span
//      (tracer off) vs the identical loop without one — the delta, per
//      iteration, is the cost each emission point adds to a PR 8 binary.
//   2. spans per request: tracing ON, drive the engine and count how many
//      records one request emits end to end (run + lease + rounds +
//      engine points).
//   3. request latency: tracing OFF, closed-loop requests through the
//      engine (the serving path the PR 8 baselines measured).
//
// PASS/FAIL (asserted, exit code): cost1 x count2 < 2% of latency3. This
// bound is schedule-independent — it never compares two noisy end-to-end
// wall-clock runs against each other, so it cannot flake on a loaded CI
// box while still failing loudly if the disabled path ever grows a lock,
// an allocation, or a clock read.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/registry.h"
#include "core/trace.h"
#include "serve/engine.h"

namespace {

// Minimum wall-clock seconds of f() over `reps` runs.
template <typename F>
double min_time_s(int reps, F f) {
  double best = 1e100;
  for (int r = 0; r < reps; ++r) {
    auto t0 = std::chrono::steady_clock::now();
    f();
    auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

volatile uint64_t g_sink = 0;

pp::serve::engine_options serve_opts(const pp::context& base) {
  pp::serve::engine_options o;
  o.max_inflight_runs = 1;
  o.workers_per_run = 2;
  o.cache_entries = 0;  // every request takes the full execution path
  o.ctx = base;
  return o;
}

// One closed-loop pass of `n` requests with distinct seeds (no cache, no
// dedup: each request pays queue + lease + solve + demux).
void drive(pp::serve::engine& eng, const std::string& solver, const pp::problem_input& input,
           size_t n, uint64_t seed_base) {
  for (size_t i = 0; i < n; ++i) {
    pp::serve::request req;
    req.solver = solver;
    req.input = input;
    req.seed = seed_base + i;
    auto r = eng.submit(std::move(req)).get();
    if (!r.ok()) {
      std::fprintf(stderr, "trace_overhead: request failed: %s\n", r.error.c_str());
      std::exit(1);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bool json = bench::has_flag(argc, argv, "--json");
  pp::context base = bench::env_context().with_backend(pp::backend_kind::native);
  const std::string solver = "sssp/phase_parallel";
  const size_t input_n = std::max<size_t>(200, bench::scaled(2'000));
  auto input = pp::registry::instance().make_input(
      pp::registry::instance().info(solver)->problem, input_n, base.seed);

  if (!json)
    bench::banner("trace_overhead: disabled-tracer cost on the serving path (<2% asserted)",
                  "observability layer overhead bound (vs PR 8 serving baselines)", base);

  // 1. Disabled per-span cost. The sink keeps the loop body from folding
  // away; both loops share it, so the delta isolates the span.
  pp::trace::set_enabled(false);
  constexpr uint64_t kIters = 8'000'000;
  double plain_s = min_time_s(3, [] {
    for (uint64_t i = 0; i < kIters; ++i) g_sink = g_sink + i;
  });
  double span_s = min_time_s(3, [] {
    for (uint64_t i = 0; i < kIters; ++i) {
      pp::trace_span s("bench/disabled", "i", i);
      g_sink = g_sink + i;
    }
  });
  double per_span_ns = std::max(0.0, (span_s - plain_s) / static_cast<double>(kIters) * 1e9);

  // 2. Spans per request, tracing on.
  double spans_per_req;
  {
    pp::serve::engine eng(serve_opts(base));
    drive(eng, solver, input, 3, base.seed + 100);  // warm the pool cache
    pp::trace::set_enabled(true);
    pp::trace::clear();
    constexpr size_t kTracedReqs = 16;
    drive(eng, solver, input, kTracedReqs, base.seed + 200);
    spans_per_req =
        static_cast<double>(pp::trace::record_count()) / static_cast<double>(kTracedReqs);
    pp::trace::set_enabled(false);
    pp::trace::clear();
  }

  // 3. Request latency, tracing off (the PR 8 serving path).
  const size_t reqs = std::max<size_t>(20, bench::scaled(60));
  double off_s;
  {
    pp::serve::engine eng(serve_opts(base));
    drive(eng, solver, input, 3, base.seed + 300);
    off_s = min_time_s(std::max(2, bench::repeats()),
                       [&] { drive(eng, solver, input, reqs, base.seed + 400); }) /
            static_cast<double>(reqs);
  }

  double per_req_ns = off_s * 1e9;
  double overhead_pct = per_req_ns == 0.0 ? 0.0 : per_span_ns * spans_per_req / per_req_ns * 100.0;
  bool pass = overhead_pct < 2.0;

  if (json) {
    pp::json::writer w;
    bench::begin_envelope(w, "trace_overhead", {"solver", "pass"}, {});
    w.member("solver", solver);
    w.member("input_n", static_cast<uint64_t>(input_n));
    w.member("disabled_span_ns", per_span_ns);
    w.member("spans_per_request", spans_per_req);
    w.member("request_usec_tracing_off", per_req_ns / 1e3);
    w.member("overhead_pct", overhead_pct);
    w.member("pass", pass);
    w.key("rows").begin_array().end_array();
    w.end_object();
    std::printf("%s\n", w.str().c_str());
  } else {
    std::printf("disabled span cost      %8.3f ns  (tight loop delta over %llu iters)\n",
                per_span_ns, static_cast<unsigned long long>(kIters));
    std::printf("spans per request       %8.1f     (tracing on, %s)\n", spans_per_req,
                solver.c_str());
    std::printf("request latency (off)   %8.1f us\n", per_req_ns / 1e3);
    std::printf("=> disabled-tracing overhead on the serving path: %.4f%% (bound: 2%%) -> %s\n",
                overhead_pct, pass ? "PASS" : "FAIL");
  }
  return pass ? 0 : 1;
}
