// session_churn — writes beside reads on two sssp sessions, all in-process
// through session_table + engine (default engine options).
//
// One closed-loop writer takes the sessions in turn: it applies a delta,
// pins the new version, and solves it with sssp/incremental; an update is
// timed from the delta's issue to the answer for the new version. Most
// deltas are insertions of 1 to 256 edges, which keep the incremental
// hints; one in 32 removes edges, which invalidates them, so that
// version's solve falls back to a full Dijkstra. Readers (one open loop at
// a fixed Poisson rate) solve the current version of a random session; a
// read is timed from its due time, and repeats of a version hit the
// engine's cache by fingerprint.
//
// One writer rather than one per session, on sessions of moderate size:
// two concurrent writers copying the edge arrays of 100,000-vertex
// sessions made the update time swing between runs far more than the rest
// of the benchmark.
//
// Answers: every solve must succeed; every read's score must equal the
// writer's score for the same version; and sampled versions are re-solved
// with sssp/dijkstra on the pinned snapshot after the window, where their
// incremental distances must be bit-identical.
//
// End-to-end metrics: p50_ms = update latency, rate_per_s = updates per
// second; ungated (see kGated): tail_ms = update tail, side_p50_ms /
// side_tail_ms = read latency.
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "checkers.h"
#include "core/registry.h"
#include "serve/engine.h"
#include "serve/session.h"

namespace pb {
namespace {

constexpr size_t kSessions = 2;
constexpr size_t kVertices = 25'000;
constexpr size_t kSmokeVertices = 2'000;
constexpr double kReadsPerSecond = 40.0;
constexpr uint64_t kSolveSeed = 1;  // shared by reads and writes: one cache key per version
constexpr size_t kInsertSizes[] = {1, 4, 16, 64, 256};
// Update k is a removal when k % 32 == 3. An unhinted solve takes about 15
// applies' time, so this keeps most reads on versions already solved.
constexpr size_t kRemovalEvery = 32;
constexpr size_t kRemovedEdges = 4;
constexpr size_t kSampleEvery = 7;  // a session's update k is verified when k % 7 == 3 ...
constexpr size_t kMaxSamples = 4;   // ... up to this many per session

std::string session_name(size_t s) { return "road" + std::to_string(s); }

pp::serve::request solve_request(pp::snapshot_input snap, const std::string& session) {
  pp::serve::request r;
  r.solver = "sssp/incremental";
  r.input = std::move(snap);
  r.seed = kSolveSeed;
  r.session = session;
  return r;
}

clock::time_point after(clock::time_point t0, double seconds) {
  return t0 + std::chrono::duration_cast<clock::duration>(std::chrono::duration<double>(seconds));
}

// One serving deployment: the table, the engine, and each session's warm
// version 0 (solved once so later deltas have labels to build on).
struct deployment {
  std::unique_ptr<pp::serve::session_table> tab;
  std::unique_ptr<pp::serve::engine> eng;
  std::vector<int64_t> v0_score;
};

deployment set_up(const options& opt) {
  deployment d;
  d.tab = std::make_unique<pp::serve::session_table>(0);
  d.eng = std::make_unique<pp::serve::engine>(pp::serve::engine_options{});
  for (size_t s = 0; s < kSessions; ++s) {
    const size_t n = opt.smoke ? kSmokeVertices : kVertices;
    d.tab->create(session_name(s), pp::registry::instance().make_input(
                                       "sssp", n, pp::derive_seed(opt.seed, 100 + s)));
    pp::snapshot_input snap = d.tab->snapshot(session_name(s));
    uint64_t version = snap.version;
    pp::serve::response r =
        d.eng->submit(solve_request(std::move(snap), session_name(s))).get();
    if (!r.ok()) throw std::runtime_error("session_churn set-up solve failed: " + r.error);
    const auto& dist = std::get<pp::sssp_result>(r.result.value).dist;
    d.tab->note_solve(session_name(s), version, dist);
    d.v0_score.push_back(pp::score_of(r.result.value));
  }
  return d;
}

struct update_rec {
  double latency_ms, apply_ms, snapshot_us;
  double solve_ms;  // < 0 when answered from the cache
  double wait_ms;   // engine latency minus solve time (executed only)
  bool hinted, ok;
};

struct read_rec {
  size_t session;
  uint64_t version;
  double latency_ms, snapshot_us, solve_ms, wait_ms;
  bool cached, ok;
  int64_t score;
};

struct sample {
  size_t session;
  pp::snapshot_input snap;
  std::vector<int64_t> dist;
};

// Shared between the writers, the reader and the engine's callbacks.
struct shared_state {
  std::mutex m;
  std::map<std::pair<size_t, uint64_t>, int64_t> version_score;  // writer answers
  std::vector<read_rec> reads;
  size_t outstanding = 0;
  std::condition_variable drained;
};

}  // namespace

void session_churn(const options& opt, double seconds, int setup_reps, tracer* tr,
                   report& rep) {
  deployment dep;
  std::vector<double> setup_s;
  for (int k = 0; k < setup_reps; ++k) {
    auto t0 = clock::now();
    dep = deployment{};
    dep = set_up(opt);
    setup_s.push_back(ms_between(t0, clock::now()) / 1e3);
  }
  pp::serve::session_table& tab = *dep.tab;
  pp::serve::engine& eng = *dep.eng;
  const size_t n = opt.smoke ? kSmokeVertices : kVertices;

  shared_state sh;
  for (size_t s = 0; s < kSessions; ++s) sh.version_score[{s, 0}] = dep.v0_score[s];
  std::vector<update_rec> updates;
  std::vector<std::vector<sample>> samples(kSessions);
  std::atomic<uint64_t> req_ids{0};

  const auto start = clock::now();
  const auto deadline = after(start, seconds);

  auto writer = [&] {
    std::vector<rng> gens;
    std::vector<pp::snapshot_input> last;
    for (size_t s = 0; s < kSessions; ++s) {
      gens.emplace_back(pp::derive_seed(opt.seed, 200 + s));
      last.push_back(tab.snapshot(session_name(s)));
    }
    for (size_t i = 0; i < kSessions || clock::now() < deadline; ++i) {
      const size_t s = i % kSessions, k = i / kSessions;  // the session and its update count
      const std::string name = session_name(s);
      rng& g = gens[s];
      pp::serve::session_delta d;
      if (k % kRemovalEvery == 3) {
        const auto& graph = std::get<pp::sssp_input>(*last[s].base).g;
        for (size_t j = 0; j < kRemovedEdges; ++j) {
          auto u = static_cast<pp::vertex_t>(g.below(n));
          auto nbrs = graph.out_neighbors(u);
          if (!nbrs.empty()) d.remove_edges.push_back({u, nbrs[g.below(nbrs.size())]});
        }
      } else {
        size_t count = kInsertSizes[g.below(std::size(kInsertSizes))];
        for (size_t j = 0; j < count; ++j) {
          auto u = static_cast<pp::vertex_t>(g.below(n));
          auto v = static_cast<pp::vertex_t>(g.below(n));
          if (v == u) v = static_cast<pp::vertex_t>((v + 1) % n);
          d.add_edges.push_back({u, v, static_cast<uint32_t>(1 + g.below(1024))});
        }
      }
      const uint64_t req = ++req_ids;
      const auto t0 = clock::now();
      tab.apply(name, d);
      const auto t1 = clock::now();
      pp::snapshot_input snap = tab.snapshot(name);
      const auto t2 = clock::now();
      const bool hinted = snap.prior_dist != nullptr;
      const uint64_t version = snap.version;
      pp::serve::response r = eng.submit(solve_request(snap, name)).get();
      const auto t3 = clock::now();

      update_rec u{ms_between(t0, t3), ms_between(t0, t1), ms_between(t1, t2) * 1e3, -1.0, -1.0,
                   hinted, r.ok() && !r.result.cancelled()};
      if (u.ok && !r.cached) {
        u.solve_ms = r.result.seconds * 1e3;
        u.wait_ms = ms_between(t2, t3) - u.solve_ms;
      }
      if (tr != nullptr) {
        tr->span("session", "session_table::apply", t0, t1, 0, req);
        tr->span("session", "session_table::snapshot", t1, t2, 0, req);
        uint64_t id = tr->span("engine", "engine::submit sssp/incremental (write)", t2, t3, 0, req);
        if (u.solve_ms >= 0)
          tr->reported("algos", "sssp/incremental", t2, t3, r.result.seconds, id, req);
      }
      if (u.ok) {
        const auto& dist = std::get<pp::sssp_result>(r.result.value).dist;
        tab.note_solve(name, version, dist);
        {
          std::lock_guard<std::mutex> lk(sh.m);
          sh.version_score[{s, version}] = pp::score_of(r.result.value);
        }
        if (k % kSampleEvery == 3 && samples[s].size() < kMaxSamples)
          samples[s].push_back({s, snap, dist});
      }
      updates.push_back(u);
      last[s] = std::move(snap);
    }
  };

  auto reader = [&] {
    rng g(pp::derive_seed(opt.seed, 300));
    auto due = start;
    for (;;) {
      due = after(due, g.exponential(kReadsPerSecond));
      if (due >= deadline) break;
      std::this_thread::sleep_until(due);
      const size_t s = g.below(kSessions);
      const uint64_t req = ++req_ids;
      const auto t0 = clock::now();
      pp::snapshot_input snap = tab.snapshot(session_name(s));
      const auto t1 = clock::now();
      const uint64_t version = snap.version;
      {
        std::lock_guard<std::mutex> lk(sh.m);
        ++sh.outstanding;
      }
      if (tr != nullptr) tr->span("session", "session_table::snapshot", t0, t1, 0, req);
      eng.submit(solve_request(std::move(snap), session_name(s)),
                 [&, s, version, due, t0, t1, req](pp::serve::response r) {
                   const auto t2 = clock::now();
                   read_rec rr{s, version, ms_between(due, t2), ms_between(t0, t1) * 1e3, -1.0,
                               -1.0, r.cached, r.ok() && !r.result.cancelled(), 0};
                   if (rr.ok) rr.score = pp::score_of(r.result.value);
                   if (rr.ok && !r.cached) {
                     rr.solve_ms = r.result.seconds * 1e3;
                     rr.wait_ms = ms_between(t1, t2) - rr.solve_ms;
                   }
                   if (tr != nullptr) {
                     uint64_t id = tr->span("engine", "engine::submit sssp/incremental (read)",
                                            t1, t2, 0, req);
                     if (rr.solve_ms >= 0)
                       tr->reported("algos", "sssp/incremental", t1, t2, r.result.seconds, id,
                                    req);
                   }
                   std::lock_guard<std::mutex> lk(sh.m);
                   sh.reads.push_back(rr);
                   if (--sh.outstanding == 0) sh.drained.notify_all();
                 });
    }
    std::unique_lock<std::mutex> lk(sh.m);
    sh.drained.wait(lk, [&] { return sh.outstanding == 0; });
  };

  {
    std::thread w(writer), r(reader);
    w.join();
    r.join();
  }
  const double elapsed_s = ms_between(start, clock::now()) / 1e3;

  // ---- answers ------------------------------------------------------------------
  for (const auto& u : updates) rep.check(u.ok, "session_churn: update solve failed");
  for (const auto& r : sh.reads) {
    auto it = sh.version_score.find({r.session, r.version});
    bool ok = r.ok && it != sh.version_score.end() && it->second == r.score;
    rep.check(ok, "session_churn: read of " + session_name(r.session) + " v" +
                      std::to_string(r.version) + " disagrees with the writer's answer");
  }
  for (const auto& per : samples) {
    for (const auto& smp : per) {
      auto ref = pp::registry::run("sssp/dijkstra", smp.snap);
      const auto& want = std::get<pp::sssp_result>(ref.value).dist;
      rep.check(pp_check::sssp_distances_equal(smp.dist, want),
                "session_churn: " + session_name(smp.session) + " v" +
                    std::to_string(smp.snap.version) +
                    " incremental distances differ from sssp/dijkstra");
    }
  }

  // ---- end-to-end ----------------------------------------------------------------
  std::vector<double> upd_ms, read_ms;
  for (const auto& u : updates) upd_ms.push_back(u.latency_ms);
  for (const auto& r : sh.reads) read_ms.push_back(r.latency_ms);
  summary us = summarize(upd_ms), rs = summarize(read_ms);
  rep.e2e("setup_s", median(setup_s), "s");
  rep.e2e("p50_ms", us.p50, "ms");
  rep.e2e("rate_per_s", static_cast<double>(updates.size()) / elapsed_s, "1/s");
  rep.e2e("tail_ms", us.tail, "ms");
  rep.e2e("side_p50_ms", rs.p50, "ms");
  rep.e2e("side_tail_ms", rs.tail, "ms");
  rep.note("session_churn: " + std::to_string(kSessions) + " sessions of n=" + std::to_string(n) +
           ", updates p50 " + std::to_string(us.p50) + " ms tail p" + std::to_string(us.tail_pct) +
           " " + std::to_string(us.tail) + " ms over " + std::to_string(us.n) + "; reads p50 " +
           std::to_string(rs.p50) + " ms tail p" + std::to_string(rs.tail_pct) + " " +
           std::to_string(rs.tail) + " ms over " + std::to_string(rs.n) + "; verified " +
           std::to_string(samples[0].size() + samples[1].size()) + " sampled versions");
  if (tr == nullptr) return;

  // ---- per-layer (traced pass) ---------------------------------------------------
  std::vector<double> apply_ms, snap_us, solve_ms, wait_ms;
  size_t hinted = 0, read_hits = 0;
  for (const auto& u : updates) {
    apply_ms.push_back(u.apply_ms);
    snap_us.push_back(u.snapshot_us);
    hinted += u.hinted;
    if (u.solve_ms >= 0) {
      solve_ms.push_back(u.solve_ms);
      wait_ms.push_back(u.wait_ms);
    }
  }
  for (const auto& r : sh.reads) {
    snap_us.push_back(r.snapshot_us);
    read_hits += r.cached;
    if (r.solve_ms >= 0) wait_ms.push_back(r.wait_ms);
  }
  summary as = summarize(apply_ms), ss = summarize(solve_ms);
  rep.layer("session.apply_ms.p50", as.p50, "ms");
  rep.layer("session.apply_ms.tail", as.tail, "ms");
  rep.layer("session.snapshot_us.p50", median(snap_us), "us");
  rep.layer("session.hinted_share",
            static_cast<double>(hinted) /
                static_cast<double>(std::max<size_t>(updates.size(), 1)),
            "ratio");
  rep.layer("engine.read_hit_ratio",
            static_cast<double>(read_hits) /
                static_cast<double>(std::max<size_t>(sh.reads.size(), 1)),
            "ratio");
  rep.layer("algos.sssp_incremental.solve_ms.p50", ss.p50, "ms");
  rep.layer("algos.sssp_incremental.solve_ms.tail", ss.tail, "ms");
  rep.layer("engine.session_wait_ms.p50", median(wait_ms), "ms");
  const auto self = tr->self_ms();
  const double ops = static_cast<double>(std::max<size_t>(updates.size() + sh.reads.size(), 1));
  for (const char* layer : {"session", "engine", "algos"})
    rep.layer(std::string("self.session_churn.") + layer + "_ms",
              self.count(layer) ? self.at(layer) / ops : 0.0, "ms");
}

}  // namespace pb
