// solve_suite — the paper's claim, offline, one caller.
//
// Each family's phase-parallel variant (plus the relaxed sssp solver) is
// solved on the native backend with nproc workers, round robin over the
// families until the window closes. The input sizes below are fixed so
// that every native solve takes the same order of time (tens of ms on a
// 4-core machine). Every answer is checked against the family's
// sequential reference computed during set-up; sssp/relaxed is also
// checked structurally with tests/checkers.h.
//
// End-to-end metrics (one pass solves every family once):
//   p50_ms                  median pass time: the suite's latency
//   rate_per_s              solves per second over the whole window
// and, ungated (see kGated):
//   tail_ms                 tail of the pass time
//   side_p50_ms / _tail_ms  the relaxed-paradigm solver (sssp/relaxed)
// The geometric mean over the families of each family's median is printed
// too; across runs on a shared 4-vCPU host it spread more than the pass
// time did.
// The traced pass adds, per family, the paper's D (rounds), the time per
// round, the work ratio against the sequential variant, the self-speedup
// over the sequential backend, wake-up yield and MultiQueue waste.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench.h"
#include "checkers.h"
#include "core/registry.h"

namespace pb {
namespace {

enum class depth_kind {
  rounds,      // stats.rounds: phase-synchronous rounds
  wake_depth,  // stats.substeps: longest TAS-tree wake-up chain
  none,        // asynchronous MultiQueue execution has no rounds
};

struct family {
  const char* key;        // metric infix
  const char* solver;     // the variant measured
  const char* problem;    // registry input factory
  size_t n;               // input size
  size_t smoke_n;         // input size under --smoke
  const char* reference;  // sequential variant: answers and work baseline
  depth_kind depth;
  bool wakeups;           // reports wakeup_attempts
};

constexpr family kFamilies[] = {
    {"lis", "lis/parallel", "lis", 250, 100, "lis/sequential", depth_kind::rounds, true},
    {"whac", "whac/parallel", "whac", 3'000, 300, "whac/sequential", depth_kind::rounds, true},
    {"activity", "activity/type1", "activity", 25'000, 2'000, "activity/sequential",
     depth_kind::rounds, false},
    {"knapsack", "knapsack/parallel", "knapsack", 30'000, 2'000, "knapsack/sequential",
     depth_kind::rounds, false},
    {"sssp_phase", "sssp/phase_parallel", "sssp", 1'000, 300, "sssp/dijkstra",
     depth_kind::rounds, false},
    {"sssp_relaxed", "sssp/relaxed", "sssp", 12'000, 1'000, "sssp/dijkstra", depth_kind::none,
     false},
    {"mis", "mis/tas", "graph", 30'000, 2'000, "mis/sequential", depth_kind::wake_depth, false},
    {"list_ranking", "list_ranking/parallel", "list", 150'000, 5'000, "list_ranking/sequential",
     depth_kind::rounds, false},
    {"huffman", "huffman/parallel", "huffman", 400'000, 10'000, "huffman/sequential",
     depth_kind::rounds, false},
};

struct prepared {
  pp::problem_input input;
  pp::solver_value reference;
  int64_t score = 0;
};

std::vector<prepared> set_up(const options& opt) {
  const pp::context seq = pp::context{}.with_backend(pp::backend_kind::sequential);
  std::vector<prepared> out;
  for (size_t i = 0; i < std::size(kFamilies); ++i) {
    const family& f = kFamilies[i];
    prepared p;
    p.input = pp::registry::instance().make_input(f.problem, opt.smoke ? f.smoke_n : f.n,
                                                  pp::derive_seed(opt.seed, i));
    auto ref = pp::registry::run(f.reference, p.input, seq);
    p.score = pp::score_of(ref.value);
    p.reference = std::move(ref.value);
    out.push_back(std::move(p));
  }
  return out;
}

// Check one answer: ok status, the sequential reference's score, and for
// the relaxed solver a structurally valid payload.
void check_answer(const family& f, const prepared& p, const pp::run_result<pp::solver_value>& r,
                  const char* where, report& rep) {
  std::string why;
  bool ok = r.status == pp::run_status::ok;
  if (!ok) why = std::string(f.solver) + " (" + where + "): cancelled";
  if (ok && pp::score_of(r.value) != p.score) {
    ok = false;
    why = std::string(f.solver) + " (" + where + "): score " +
          std::to_string(pp::score_of(r.value)) + " != reference " + std::to_string(p.score);
  }
  if (ok && f.depth == depth_kind::none &&
      !pp_check::structurally_valid(f.solver, p.input, r.value, p.reference, &why))
    ok = false;
  rep.check(ok, why);
}

double run_seconds_median(const family& f, const char* solver, const prepared& p,
                          const pp::context& ctx, int reps, bool check_it, report& rep) {
  std::vector<double> s;
  for (int k = 0; k < reps; ++k) {
    auto r = pp::registry::run(solver, p.input, ctx.with_seed(pp::derive_seed(ctx.seed, k)));
    if (check_it) check_answer(f, p, r, "sequential backend", rep);
    s.push_back(r.seconds * 1e3);
  }
  return median(std::move(s));
}

}  // namespace

void solve_suite(const options& opt, double seconds, int setup_reps, tracer* tr, report& rep) {
  std::vector<prepared> fam;
  std::vector<double> setup_s;
  for (int k = 0; k < setup_reps; ++k) {
    auto t0 = clock::now();
    fam = set_up(opt);
    setup_s.push_back(ms_between(t0, clock::now()) / 1e3);
  }

  const size_t nf = std::size(kFamilies);
  const pp::context native =
      pp::context{}.with_backend(pp::backend_kind::native).with_workers(opt.nproc);
  std::vector<std::vector<double>> wall_ms(nf), solve_ms(nf);
  std::vector<pp::phase_stats> last_stats(nf);
  std::vector<double> sweep_ms;  // one entry per pass over the families
  uint64_t req = 0;
  const auto start = clock::now();
  const auto deadline = start + std::chrono::duration<double>(seconds);
  for (size_t sweep = 0; sweep < 3 || clock::now() < deadline; ++sweep) {
    std::vector<double> pass;
    for (size_t i = 0; i < nf; ++i) {
      const family& f = kFamilies[i];
      auto t0 = clock::now();
      auto r = pp::registry::run(f.solver, fam[i].input,
                                 native.with_seed(pp::derive_seed(opt.seed, ++req)));
      auto t1 = clock::now();
      wall_ms[i].push_back(ms_between(t0, t1));
      solve_ms[i].push_back(r.seconds * 1e3);
      pass.push_back(ms_between(t0, t1));
      last_stats[i] = r.stats;
      if (tr != nullptr) {
        uint64_t id = tr->span("core", std::string("registry::run ") + f.solver, t0, t1, 0, req);
        tr->reported("algos", f.solver, t0, t1, r.seconds, id, req);
      }
      check_answer(f, fam[i], r, "native", rep);
    }
    double total = 0.0;
    for (double ms : pass) total += ms;
    sweep_ms.push_back(total);
  }

  std::vector<double> p50s;
  for (size_t i = 0; i < nf; ++i) {
    summary s = summarize(wall_ms[i]);
    p50s.push_back(s.p50);
    rep.note("solve_suite " + std::string(kFamilies[i].solver) + " n=" +
             std::to_string(opt.smoke ? kFamilies[i].smoke_n : kFamilies[i].n) +
             ": p50 " + std::to_string(s.p50) + " ms, tail p" + std::to_string(s.tail_pct) +
             " " + std::to_string(s.tail) + " ms over " + std::to_string(s.n) + " solves");
  }
  size_t relaxed = 0;  // the one relaxed-paradigm family
  while (kFamilies[relaxed].depth != depth_kind::none) ++relaxed;
  summary side = summarize(wall_ms[relaxed]);
  const double elapsed_s = ms_between(start, clock::now()) / 1e3;
  summary passes = summarize(sweep_ms);
  rep.e2e("setup_s", median(setup_s), "s");
  rep.e2e("p50_ms", passes.p50, "ms");
  rep.e2e("rate_per_s", static_cast<double>(req) / elapsed_s, "1/s");
  rep.e2e("tail_ms", passes.tail, "ms");
  rep.e2e("side_p50_ms", side.p50, "ms");
  rep.e2e("side_tail_ms", side.tail, "ms");
  rep.note("solve_suite: " + std::to_string(passes.n) + " passes over the families; pass time p50 " +
           std::to_string(passes.p50) + " ms, tail p" + std::to_string(passes.tail_pct) + " " +
           std::to_string(passes.tail) + " ms; geometric mean of the family medians " +
           std::to_string(geomean(p50s)) + " ms");
  if (tr == nullptr) return;

  // ---- per-layer metrics (traced pass) ----------------------------------------
  const pp::context seq = pp::context{}.with_backend(pp::backend_kind::sequential);
  char line[256];
  rep.note("paper claims (solve_suite, traced pass; nproc=" + std::to_string(opt.nproc) + "):");
  std::snprintf(line, sizeof line, "  %-22s %10s %11s %13s %10s", "solver", "rounds",
                "work_ratio", "self_speedup", "round_us");
  rep.note(line);
  for (size_t i = 0; i < nf; ++i) {
    const family& f = kFamilies[i];
    const std::string k = f.key;
    const double native_ms = median(solve_ms[i]);
    const double seq_backend_ms =
        run_seconds_median(f, f.solver, fam[i], seq.with_seed(opt.seed), 3, true, rep);
    const double reference_ms =
        run_seconds_median(f, f.reference, fam[i], seq.with_seed(opt.seed), 3, false, rep);
    const double work_ratio = seq_backend_ms / std::max(reference_ms, 1e-6);
    const double speedup = seq_backend_ms / std::max(native_ms, 1e-6);
    rep.layer("algos." + k + ".solve_ms", native_ms, "ms");
    rep.layer("algos." + k + ".work_ratio", work_ratio, "ratio");
    rep.layer("parallel." + k + ".self_speedup", speedup, "ratio");
    const pp::phase_stats& st = last_stats[i];
    const bool has_rounds = f.depth != depth_kind::none;
    const size_t rounds = f.depth == depth_kind::wake_depth ? st.substeps : st.rounds;
    const double round_us = native_ms * 1e3 / static_cast<double>(std::max<size_t>(rounds, 1));
    if (has_rounds) {
      rep.layer("algos." + k + ".rounds", static_cast<double>(rounds), "count");
      rep.layer("parallel." + k + ".round_us", round_us, "us");
    }
    if (f.wakeups)
      rep.layer("algos." + k + ".wakeup_yield",
                static_cast<double>(st.processed) /
                    static_cast<double>(std::max<size_t>(st.wakeup_attempts, 1)),
                "ratio");
    if (!has_rounds)
      rep.layer("mq." + k + ".wasted_ratio",
                static_cast<double>(st.wasted) /
                    static_cast<double>(std::max<size_t>(st.popped, 1)),
                "ratio");
    const std::string rounds_col = has_rounds ? std::to_string(rounds) : "-";
    const std::string round_us_col = has_rounds ? std::to_string(round_us) : "-";
    std::snprintf(line, sizeof line, "  %-22s %10s %11.3f %13.3f %10s", f.solver,
                  rounds_col.c_str(), work_ratio, speedup, round_us_col.c_str());
    rep.note(line);
  }
  const auto self = tr->self_ms();
  const double ops = static_cast<double>(std::max<uint64_t>(req, 1));
  rep.layer("self.solve_suite.core_ms", self.count("core") ? self.at("core") / ops : 0.0, "ms");
  rep.layer("self.solve_suite.algos_ms", self.count("algos") ? self.at("algos") / ops : 0.0,
            "ms");
}

}  // namespace pb
