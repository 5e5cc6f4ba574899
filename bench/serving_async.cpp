// serving_async: throughput and latency of the async serving engine for N
// concurrent closed-loop clients.
//
// Each client thread submits one request at a time (closed loop: submit,
// wait, repeat), so N clients keep N requests in flight — the serving
// shape the pp::serve engine exists for. Every client count runs the same
// kind of request stream (same solver, per-request seeds, tiny n — many
// small requests is the traffic the ROADMAP north star describes); each
// request is its own execution and pool lease.
//
// Reported per client count: wall clock, requests/s, p50/p95 latency
// (submit -> future ready), pool leases, executions, and per-request
// dispatch overhead = (engine exec_seconds - sum of per-request solve
// seconds) / requests. exec_seconds is the summed wall clock of the
// executions themselves (engine_stats), so the metric isolates lease
// cycles + scope setup + fan-out from solve time — and stays meaningful
// with concurrent executors, where comparing against end-to-end wall
// clock would not (summed solve time exceeds wall).
//
// Output: the human table, or with --json a single JSON envelope whose
// deterministic_top / deterministic_row lists tell the generic checker
// (tools/bench_baseline_check.py) which fields the committed baseline
// BENCH_serving_async.json locks in CI: the per-row score folds and
// `pass` (every request answered ok). Leases, executions, and every
// latency number depend on timing, so they are reported, never compared.
// Regenerate with `bench/serving_async --json > BENCH_serving_async.json`
// after an intentional change.
//
// Env: REPRO_SCALE scales n (default 100 per request), PP_SEED the base
// seed, PP_BACKEND the execution backend. Engine executors default to 2
// with an even machine partition per run.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/json.h"
#include "core/registry.h"
#include "parallel/scheduler.h"
#include "serve/engine.h"

namespace {

constexpr const char* kSolver = "lis/parallel";
constexpr const char* kProblem = "lis";

struct load_result {
  double wall = 0;
  double solve = 0;  // summed per-request envelope seconds
  double exec = 0;   // summed engine execution wall clock (engine_stats)
  double p50_us = 0;
  double p95_us = 0;
  uint64_t leases = 0;
  uint64_t executions = 0;
  uint64_t failed = 0;  // responses that were not ok
  int64_t score_sum = 0;
};

load_result run_clients(size_t clients, size_t per_client, size_t n, const pp::context& base) {
  pp::serve::engine_options opt;
  opt.max_inflight_runs = 2;
  opt.workers_per_run = 0;  // partition the machine across the executors
  opt.queue_capacity = clients * 2 + 16;
  opt.ctx = base;
  pp::serve::engine eng(opt);

  // Pre-build every client's inputs so generation cost stays outside the
  // timed section. Client c request r uses seed derive_seed(base, c*R+r).
  std::vector<std::vector<pp::problem_input>> inputs(clients);
  auto& reg = pp::registry::instance();
  for (size_t c = 0; c < clients; ++c) {
    inputs[c].reserve(per_client);
    for (size_t r = 0; r < per_client; ++r)
      inputs[c].push_back(
          reg.make_input(kProblem, n, pp::derive_seed(base.seed, c * per_client + r)));
  }

  auto& cache = pp::detail::pool_cache::instance();
  uint64_t leases_before = cache.acquires();

  std::vector<double> latencies(clients * per_client, 0.0);
  std::vector<double> solve(clients, 0.0);
  std::vector<int64_t> score(clients, 0);
  std::vector<uint64_t> failed(clients, 0);
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (size_t r = 0; r < per_client; ++r) {
        pp::serve::request req;
        req.solver = kSolver;
        req.input = std::move(inputs[c][r]);
        req.seed = pp::derive_seed(base.seed, c * per_client + r);
        auto t0 = std::chrono::steady_clock::now();
        auto fut = eng.submit(std::move(req));
        pp::serve::response resp = fut.get();
        auto t1 = std::chrono::steady_clock::now();
        latencies[c * per_client + r] = std::chrono::duration<double>(t1 - t0).count();
        if (resp.ok()) {
          solve[c] += resp.result.seconds;
          score[c] += pp::score_of(resp.result.value);
        } else {
          ++failed[c];
        }
      }
    });
  }

  auto t0 = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  auto t1 = std::chrono::steady_clock::now();
  auto st = eng.stats();
  eng.stop();

  load_result out;
  out.wall = std::chrono::duration<double>(t1 - t0).count();
  out.exec = st.exec_seconds;
  for (double s : solve) out.solve += s;
  for (int64_t s : score) out.score_sum += s;
  for (uint64_t f : failed) out.failed += f;
  out.leases = cache.acquires() - leases_before;
  out.executions = st.batches;
  std::sort(latencies.begin(), latencies.end());
  auto pct = [&](size_t p) {
    size_t rank = (latencies.size() * p + 99) / 100;
    return latencies[rank == 0 ? 0 : rank - 1] * 1e6;
  };
  out.p50_us = pct(50);
  out.p95_us = pct(95);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = bench::has_flag(argc, argv, "--json");
  pp::context base = bench::env_context();

  const size_t n = bench::scaled(100);
  const size_t per_client = 32;
  const size_t client_counts[] = {1, 8, 32};

  if (!json) {
    bench::banner("serving_async: engine throughput/latency under closed-loop clients",
                  "ROADMAP: async serving engine (admission control)", base);
    std::printf("%s, n = %zu per request, %zu requests per client, closed loop\n"
                "overhead us/req = (engine exec seconds - sum of per-request solve seconds) / requests\n\n",
                kSolver, n, per_client);
    std::printf("%8s %10s %10s %10s %10s %9s %11s %16s\n", "clients", "wall s", "req/s",
                "p50 us", "p95 us", "leases", "executions", "overhead us/req");
  }

  struct json_row {
    size_t clients;
    load_result m;
  };
  std::vector<json_row> rows;
  bool pass = true;
  for (size_t clients : client_counts) {
    load_result m = run_clients(clients, per_client, n, base);
    pass = pass && m.failed == 0;
    const double reqs = static_cast<double>(clients * per_client);
    if (!json) {
      std::printf("%8zu %10.4f %10.0f %10.1f %10.1f %9llu %11llu %16.1f\n", clients, m.wall,
                  reqs / m.wall, m.p50_us, m.p95_us, static_cast<unsigned long long>(m.leases),
                  static_cast<unsigned long long>(m.executions), (m.exec - m.solve) / reqs * 1e6);
    }
    rows.push_back({clients, m});
  }

  if (json) {
    // Deterministic fields only cover WHAT was computed (same seeds ->
    // same score folds); leases, executions and every latency are timing
    // and stay uncompared.
    pp::json::writer w;
    bench::begin_envelope(w, "serving_async", {"solver", "n", "per_client", "pass"},
                          {"clients", "requests", "score_sum"});
    w.member("solver", kSolver);
    w.member("n", static_cast<uint64_t>(n));
    w.member("per_client", static_cast<uint64_t>(per_client));
    w.member("pass", pass);
    w.key("rows").begin_array();
    for (const auto& r : rows) {
      const double reqs = static_cast<double>(r.clients * per_client);
      w.begin_object();
      w.member("clients", static_cast<uint64_t>(r.clients));
      w.member("requests", static_cast<uint64_t>(r.clients * per_client));
      w.member("score_sum", r.m.score_sum);
      w.member("wall_seconds", r.m.wall).member("p50_us", r.m.p50_us);
      w.member("p95_us", r.m.p95_us).member("leases", r.m.leases);
      w.member("executions", r.m.executions);
      w.member("overhead_us_per_req", (r.m.exec - r.m.solve) / reqs * 1e6);
      w.end_object();
    }
    w.end_array().end_object();
    std::printf("%s\n", w.str().c_str());
  } else {
    std::printf("\nEvery request is its own execution: leases == executions == requests\n"
                "(no dedup or cache hits: every request has its own seed).\n");
  }
  return pass ? 0 : 1;
}
