// serving_cache: result-cache hit rate and lease amortization under
// repeat traffic, cache ON vs OFF.
//
// The content-addressing question for the serving engine (src/serve/):
// serving traffic repeats — the same (solver, input, seed) triple arrives
// again and again — and every run is deterministic in that triple, so a
// repeat answered from the result cache is bit-identical to a re-execution
// at zero pool leases. This bench measures that amortization: one
// closed-loop client cycles R requests over D distinct inputs (D = the
// working-set size), cache on vs off, and reports hits, misses, pool
// leases (pool_cache::acquires delta — the honest "work actually executed"
// metric), and a score checksum proving cached
// envelopes carry the same answers the executions produced.
//
// The client is strictly sequential (submit, wait, repeat), so every
// counter is exact and deterministic: with the cache on, exactly D
// requests execute (leases == batches == D) and R-D are answered from the
// LRU; off, all R execute. The checksum is identical in both modes — the
// cache changes cost, never answers.
//
// Output: a human table, or with --json a single JSON envelope on stdout
// whose deterministic_top / deterministic_row lists tell the generic
// checker (tools/bench_baseline_check.py) which fields the committed
// baseline BENCH_serving_cache.json locks in CI (hits/misses/leases/
// checksum — NOT wall-clock). Regenerate it with
// `bench/serving_cache --json > BENCH_serving_cache.json` after an
// intentional change.
//
// Env: REPRO_SCALE scales the input size, PP_SEED the base seed.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "bench_common.h"
#include "core/json.h"
#include "core/registry.h"
#include "parallel/scheduler.h"
#include "serve/engine.h"

namespace {

constexpr const char* kSolver = "lis/parallel";
constexpr size_t kRequests = 48;
constexpr size_t kDistinct[] = {1, 4, 16};  // working-set sizes (divide kRequests)

struct cache_result {
  bool cache_on = false;
  size_t distinct = 0;
  uint64_t leases = 0;            // pool_cache::acquires delta across the run
  uint64_t cached_responses = 0;  // responses delivered with response::cached
  long long checksum = 0;         // sum of per-response scores
  double wall_s = 0.0;
  pp::serve::engine_stats stats;
};

cache_result run_mode(bool cache_on, size_t distinct, size_t n, const pp::context& base) {
  pp::serve::engine_options opt;
  opt.max_inflight_runs = 1;  // one executor: leases == executions, exactly
  opt.workers_per_run = 2;
  opt.queue_capacity = 64;
  opt.cache_entries = cache_on ? 256 : 0;
  opt.ctx = base;
  pp::serve::engine eng(opt);

  auto& reg = pp::registry::instance();
  std::vector<pp::problem_input> inputs;
  std::vector<uint64_t> seeds;
  for (size_t d = 0; d < distinct; ++d) {
    seeds.push_back(base.seed + 100 + d);
    inputs.push_back(reg.make_input("lis", n, seeds.back()));
  }

  auto& pool = pp::detail::pool_cache::instance();
  const uint64_t leases0 = pool.acquires();

  cache_result out;
  out.cache_on = cache_on;
  out.distinct = distinct;
  auto t0 = std::chrono::steady_clock::now();
  for (size_t i = 0; i < kRequests; ++i) {
    size_t d = i % distinct;
    pp::serve::request req;
    req.solver = kSolver;
    req.input = inputs[d];
    req.seed = seeds[d];  // a repeat is the identical (solver, fingerprint, seed)
    pp::serve::response r = eng.submit(std::move(req)).get();
    if (!r.ok()) {
      std::fprintf(stderr, "serving_cache: request %zu failed: %s\n", i, r.error.c_str());
      std::exit(1);
    }
    out.checksum += static_cast<long long>(pp::score_of(r.result.value));
    if (r.cached) ++out.cached_responses;
  }
  out.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  out.leases = pool.acquires() - leases0;  // futures resolved => all executions done
  out.stats = eng.stats();
  eng.stop(/*drain=*/false);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = bench::has_flag(argc, argv, "--json");
  pp::context ctx = bench::env_context().with_backend(pp::backend_kind::native);
  const size_t n = bench::scaled(2'000);

  if (!json) {
    bench::banner("serving_cache: repeat-traffic hit rate vs working-set size, cache on/off",
                  "serving extension (determinism => content-addressable results)", ctx);
    std::printf("%-6s %9s %9s %6s %8s %8s %8s %10s %14s %9s\n", "cache", "distinct", "requests",
                "hits", "misses", "leases", "hit%", "wall_ms", "checksum", "req/s");
  }

  std::vector<cache_result> rows;
  bool pass = true;
  for (size_t distinct : kDistinct) {
    long long checksum[2] = {0, 0};
    for (int on = 0; on <= 1; ++on) {
      cache_result r = run_mode(on != 0, distinct, n, ctx);
      checksum[on] = r.checksum;
      // The invariants the cache exists to deliver: with the cache on,
      // only the working set executes; off, everything does.
      uint64_t want_leases = on != 0 ? distinct : kRequests;
      pass = pass && r.leases == want_leases && r.stats.batches == want_leases &&
             r.cached_responses == r.stats.cache_hits &&
             r.stats.cache_hits == (on != 0 ? kRequests - distinct : 0);
      if (!json) {
        std::printf("%-6s %9zu %9zu %6llu %8llu %8llu %7.1f%% %10.2f %14lld %9.0f\n",
                    on != 0 ? "on" : "off", distinct, kRequests,
                    static_cast<unsigned long long>(r.stats.cache_hits),
                    static_cast<unsigned long long>(r.stats.cache_misses),
                    static_cast<unsigned long long>(r.leases),
                    100.0 * static_cast<double>(r.stats.cache_hits) /
                        static_cast<double>(kRequests),
                    r.wall_s * 1e3, r.checksum,
                    static_cast<double>(kRequests) / r.wall_s);
      }
      rows.push_back(std::move(r));
    }
    pass = pass && checksum[0] == checksum[1];  // the cache never changes answers
  }

  if (json) {
    pp::json::writer w;
    bench::begin_envelope(w, "serving_cache",
                          {"solver", "n", "requests", "pass"},
                          {"cache", "distinct", "cache_hits", "cache_misses", "deduped",
                           "submitted", "batches", "leases", "cached_responses",
                           "score_checksum"});
    w.member("solver", kSolver);
    w.member("n", static_cast<uint64_t>(n)).member("requests", static_cast<uint64_t>(kRequests));
    w.member("pass", pass);
    w.key("rows").begin_array();
    for (const auto& r : rows) {
      w.begin_object();
      w.member("cache", r.cache_on).member("distinct", static_cast<uint64_t>(r.distinct));
      w.member("cache_hits", r.stats.cache_hits).member("cache_misses", r.stats.cache_misses);
      w.member("deduped", r.stats.deduped).member("submitted", r.stats.submitted);
      w.member("batches", r.stats.batches).member("leases", r.leases);
      w.member("cached_responses", r.cached_responses);
      w.member("score_checksum", static_cast<int64_t>(r.checksum));
      // Timing is environment-dependent — reported, never baseline-compared.
      w.member("wall_seconds", r.wall_s);
      w.member("requests_per_s", static_cast<double>(kRequests) / r.wall_s);
      w.end_object();
    }
    w.end_array().end_object();
    std::printf("%s\n", w.str().c_str());
  } else {
    std::printf("invariants (leases == working set with cache on, == requests off, "
                "checksums equal) -> %s\n", pass ? "PASS" : "FAIL");
  }
  return pass ? 0 : 1;
}
