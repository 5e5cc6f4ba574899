// ppserve: JSON serving daemon over pp::serve::engine.
//
// Speaks newline-delimited JSON. Each request line names a solver and an
// input size; the daemon builds the input with the registry's per-problem
// factory, submits it to the async engine (admission control, dedup and
// result cache), and writes one response line per request, in request
// order per connection:
//
//   $ echo '{"solver":"lis/parallel","n":20000,"seed":3}' | ppserve
//   {"id": 0, "ok": true, "result": {"solver": "lis/parallel", ...}}
//
// request fields:
//   solver       (required unless "stats") registry name, e.g. "lis/parallel"
//   n            input size for the problem's default factory (default
//                20000, must be in [1, --max-n] — the cap keeps one greedy
//                request line from OOMing the daemon)
//   seed         execution + input seed; omitted = derive_seed(base, k) for
//                the k-th anonymous request DAEMON-wide (the engine's
//                admission counter, shared by every connection) — so an
//                anonymous stream is reproducible from --seed alone and two
//                concurrent connections can never collide on a seed
//   id           echoed back verbatim (default: the request's position
//                among this connection's non-blank lines)
//   deadline_ms  positive integer; the request expires this many ms after
//                it is parsed. Expired-while-queued requests resolve with
//                an "expired" error without taking a pool lease; a
//                deadline blown mid-run cancels the solve at the next
//                phase boundary ("cancelled" error)
//   priority     "interactive" (default) or "batch": interactive requests
//                pop first
//   stats        true: respond with the engine_stats counters (submitted /
//                completed / failed / expired / cancelled / batches / ...)
//                instead of running a solver
//   metrics      true: respond with the process-wide pp::metrics registry
//                rendered in Prometheus text exposition format, carried as
//                a JSON string member "metrics" (same text GET /metrics on
//                --metrics-port serves)
//
// response fields: id, ok, and either "result" (the run_result envelope
// pp::to_json emits), "stats" (for stats requests), or "error". Successful
// solver responses also carry "cached": true when the engine answered from
// its result cache (a repeat (solver, input-fingerprint, seed) triple —
// zero pool leases), false when the solve actually executed.
//
// Stateful sessions (src/serve/session.h): a "session" member selects a
// verb instead of the one-shot solver path. All verbs answer with a
// "session" object ({name, problem, version, fingerprint, elems, hints} —
// pp::serve::to_json(session_desc); drop adds "dropped"):
//
//   {"session":"create","name":"g","problem":"sssp","n":200000,"seed":7}
//       build the problem's default instance and register it at version 0
//       ("sssp" and "lis" instances are session-able)
//   {"session":"delta","name":"g","add_edges":[[u,v,w],...],
//    "remove_edges":[[u,v],...],"source":S,"append":[x,...],
//    "update":[[i,x],...]}
//       apply one atomic delta, installing version v+1 (graph fields on
//       sssp sessions, append/update on lis sessions). In-flight solves
//       keep reading the version they pinned.
//   {"session":"solve","name":"g","solver":"sssp/incremental", ...}
//       solve the CURRENT version (optional seed / deadline_ms / priority
//       as usual). Runs with engine session affinity: solves on one
//       session never reorder, and an ok sssp solve feeds its distances
//       back as incremental labels for later sssp/incremental solves.
//   {"session":"drop","name":"g"}
//       forget the instance ("dropped": false when the name was unknown)
//
// --max-sessions N (default 64) bounds the table: creating instance N+1
// evicts the least-recently-used one.
//
// Modes:
//   default       serve stdin, write stdout, exit at EOF
//   --port P      additionally accept TCP connections on P (NDJSON, one
//                 engine shared by all connections); stdin EOF still ends
//                 the process, so a TCP-only deployment uses  ppserve
//                 --port P < /dev/null  under a supervisor... or just
//                 keeps stdin open.
//   --metrics-port P
//                 loopback HTTP scrape endpoint: GET /metrics answers 200
//                 with the Prometheus text rendering of the pp::metrics
//                 registry; any other request answers 404. One request per
//                 connection (Connection: close).
//   --trace-dir DIR
//                 enable the in-process tracer (core/trace.h) and, as each
//                 response line is written, dump a Chrome trace-event JSON
//                 snapshot to DIR/<id>.json (id sanitized to
//                 [A-Za-z0-9._-]; later requests with the same id
//                 overwrite). Each file is the tracer's ring-buffer
//                 content at response time — in a concurrent daemon it
//                 shows the server timeline around that request, not that
//                 request alone. Load in Perfetto / chrome://tracing.
//
// Engine knobs: --max-inflight R, --workers-per-run W, --queue N,
// --backend B, --seed S, --max-n N,
// --relax-k K (k-MultiQueue relaxation factor for relaxed-paradigm solvers),
// --cache-entries N (result-cache capacity, default 256), --cache-off
// (disable the result cache; in-flight dedup stays on).
#include <algorithm>
#include <array>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <future>
#include <limits>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cli_args.h"
#include "core/annotations.h"
#include "core/json.h"
#include "core/metrics.h"
#include "core/registry.h"
#include "core/trace.h"
#include "parallel/scheduler.h"
#include "serve/engine.h"
#include "serve/session.h"

#if defined(__unix__) || defined(__APPLE__)
#define PPSERVE_HAS_TCP 1
#include <arpa/inet.h>
#include <csignal>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#else
#define PPSERVE_HAS_TCP 0
#endif

namespace {

struct daemon_options {
  pp::serve::engine_options eng;
  int port = -1;          // -1 = stdin/stdout only
  int metrics_port = -1;  // -1 = no HTTP scrape endpoint
  std::string trace_dir;  // empty = tracer off
  // Largest accepted request "n". The input factories allocate O(n) (the
  // graph ones ~8n edges); without a cap one request line could ask for
  // hundreds of GB and get the daemon OOM-killed instead of answering
  // "ok": false.
  size_t max_n = 10'000'000;
  // Session-table bound: creating instance N+1 evicts the LRU one.
  size_t max_sessions = 64;
};

size_t g_max_n = 10'000'000;
std::string g_trace_dir;  // set once before any session starts, read-only after

// Request ids become trace file names; ids are client-controlled raw JSON
// text, so strip the quotes of string ids and reduce to [A-Za-z0-9._-]
// (no separators, no traversal, no dotfiles).
std::string sanitize_id(std::string id) {
  if (id.size() >= 2 && id.front() == '"' && id.back() == '"')
    id = id.substr(1, id.size() - 2);
  if (id.empty()) id = "request";
  if (id.size() > 80) id.resize(80);
  for (char& c : id)
    if (std::isalnum(static_cast<unsigned char>(c)) == 0 && c != '-' && c != '_' && c != '.')
      c = '_';
  if (id[0] == '.') id[0] = '_';
  return id;
}

// Re-serialize a parsed JSON value (the verbatim-echo path for request
// ids: numbers, strings, bools, even structured ids survive unchanged).
void render(const pp::json::value& v, pp::json::writer& w) {
  if (v.is_null()) {
    w.value_raw("null");
  } else if (v.is_bool()) {
    w.value(v.as_bool());
  } else if (v.is_string()) {
    w.value(v.as_string());
  } else if (v.is_number()) {
    if (const int64_t* i = std::get_if<int64_t>(&v.raw()))
      w.value(*i);
    else if (const uint64_t* u = std::get_if<uint64_t>(&v.raw()))
      w.value(*u);
    else
      w.value(v.as_double());
  } else if (v.is_array()) {
    w.begin_array();
    for (const auto& e : v.as_array()) render(e, w);
    w.end_array();
  } else {
    w.begin_object();
    for (const auto& [k, e] : v.as_object()) {
      w.key(k);
      render(e, w);
    }
    w.end_object();
  }
}

// Wrong-typed members are errors, not silent fallbacks or truncation: a
// client that sent {"n": "500000"} or {"n": 2000.7} must not get an ok
// result for a different computation than it asked for.
bool integral(const pp::json::value& v) {
  if (const double* d = std::get_if<double>(&v.raw()))
    return std::isfinite(*d) && *d == std::floor(*d);
  return v.is_number();  // int64/uint64 alternatives are exact
}

// The per-solve fields a one-shot request and a session solve share
// (seed, deadline_ms, priority), parsed into `req`. Returns the error text
// for the first malformed one — it names the field — or "" when all parse.
std::string parse_solve_fields(const pp::json::value& doc, pp::serve::request& req) {
  if (const pp::json::value* v = doc.find("seed")) {
    if (!integral(*v)) return "request \"seed\" must be an integer";
    req.seed = v->as_uint64();
  }
  if (const pp::json::value* v = doc.find("deadline_ms")) {
    // Capped at 24h: an absurdly large value would overflow the
    // ms -> clock-duration (ns) conversion below into a time_point in
    // the past — the same silent-wrap class the flag validation rejects.
    constexpr int64_t kMaxDeadlineMs = 86'400'000;
    if (!integral(*v) || v->as_int64() < 1 || v->as_int64() > kMaxDeadlineMs)
      return "request \"deadline_ms\" must be an integer in [1, " +
             std::to_string(kMaxDeadlineMs) + "]";
    req.deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(v->as_int64());
  }
  if (const pp::json::value* v = doc.find("priority")) {
    auto p = v->is_string() ? pp::serve::parse_priority(v->as_string()) : std::nullopt;
    if (!p) return "request \"priority\" must be \"interactive\" or \"batch\"";
    req.prio = *p;
  }
  return {};
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--port P] [--metrics-port P] [--trace-dir DIR]\n"
               "          [--max-inflight R] [--workers-per-run W] [--queue N]\n"
               "          [--backend native|sequential] [--seed S] [--max-n N]\n"
               "          [--relax-k K] [--cache-entries N] [--cache-off]\n"
               "          [--max-sessions N]\n"
               "reads newline-delimited JSON requests on stdin (and TCP port P),\n"
               "writes one JSON response line per request.\n",
               argv0);
  return 2;
}

// One request line -> one response line, responses in request order. The
// reader thread parses and submits; a writer thread waits on each entry's
// future in turn and prints, so pipelined lines run concurrently in the
// engine while an interactive client still gets each response as soon as
// its execution lands (not only at the next input line).
struct session {
  session(pp::serve::engine& eng, pp::serve::session_table& tab) : eng_(eng), tab_(tab) {}

  // Parse + submit. Any problem with the line itself becomes an
  // immediately-queued error entry; well-formed requests queue a future
  // and respond when their execution completes.
  void feed_line(const std::string& line) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) return;  // blank: ignore
    // Count only real requests: a blank line must not consume a default-id
    // slot, or auto-assigned ids stop matching the request's position
    // among this connection's actual requests.
    uint64_t index = index_++;
    pp::json::value doc;
    std::string err;
    // `id` is kept as raw JSON text: the request index (a JSON number) by
    // default, or the request's own "id" member re-serialized.
    std::string id = std::to_string(index);
    if (!pp::json::parse(line, doc, &err)) {
      enqueue_error(id, "bad request JSON: " + err);
      return;
    }
    if (const pp::json::value* v = doc.find("id")) {
      // Echoed back verbatim, whatever its type (re-serialized so the
      // response line stays valid JSON).
      pp::json::writer w;
      render(*v, w);
      id = w.str();
    }
    if (const pp::json::value* v = doc.find("stats")) {
      if (!v->is_bool() || !v->as_bool()) {
        enqueue_error(id, "request \"stats\" must be true");
        return;
      }
      enqueue_stats(id);
      return;
    }
    if (const pp::json::value* v = doc.find("metrics")) {
      if (!v->is_bool() || !v->as_bool()) {
        enqueue_error(id, "request \"metrics\" must be true");
        return;
      }
      enqueue_metrics(id);
      return;
    }
    if (const pp::json::value* v = doc.find("session")) {
      if (!v->is_string()) {
        enqueue_error(id, "request \"session\" must be a verb string (create/delta/solve/drop)");
        return;
      }
      handle_session(std::move(id), v->as_string(), doc);
      return;
    }
    const pp::json::value* solver = doc.find("solver");
    if (solver == nullptr || !solver->is_string()) {
      enqueue_error(id, "request needs a string \"solver\" member");
      return;
    }
    int64_t n = 20'000;
    if (const pp::json::value* v = doc.find("n")) {
      if (!integral(*v)) {
        enqueue_error(id, "request \"n\" must be an integer");
        return;
      }
      n = v->as_int64();
    }
    if (n < 1 || static_cast<uint64_t>(n) > g_max_n) {
      enqueue_error(id, "request \"n\" must be in [1, " + std::to_string(g_max_n) +
                            "] (got " + std::to_string(n) + "; raise --max-n to serve larger)");
      return;
    }

    pp::serve::request req;
    req.solver = solver->as_string();
    if (std::string bad = parse_solve_fields(doc, req); !bad.empty()) {
      enqueue_error(id, std::move(bad));
      return;
    }

    // Build the input outside the engine (factory cost is the client's,
    // solve cost is the server's). Input seed = execution seed, the same
    // rule ppdriver batch uses. Anonymous seeds come from the engine's
    // daemon-wide counter — never from this session's line index, which
    // would collide across concurrent connections.
    const pp::solver_info* si = pp::registry::instance().info(req.solver);
    if (si == nullptr) {
      enqueue_error(id, "unknown solver '" + req.solver + "'");
      return;
    }
    uint64_t seed = req.seed ? *req.seed : eng_.reserve_anonymous_seed();
    req.seed = seed;
    try {
      req.input = pp::registry::instance().make_input(si->problem, static_cast<size_t>(n), seed);
    } catch (const std::exception& e) {
      enqueue_error(id, e.what());
      return;
    }
    entry e;
    e.id = std::move(id);
    e.fut = eng_.submit(std::move(req));
    push(std::move(e));
  }

  // Session verbs (create / delta / solve / drop) against the daemon-wide
  // session_table. create/delta/drop answer immediately (the table is the
  // source of truth, no solve happens); solve pins the current version as
  // a snapshot and rides the normal engine path with session affinity.
  void handle_session(std::string id, const std::string& verb, const pp::json::value& doc) {
    const pp::json::value* nv = doc.find("name");
    if (nv == nullptr || !nv->is_string() || nv->as_string().empty()) {
      enqueue_error(id, "session requests need a non-empty string \"name\" member");
      return;
    }
    const std::string name = nv->as_string();
    // [lo, hi]-checked integer member; writes an error entry and returns
    // false on a wrong type or out-of-range value.
    auto want_int = [&](const pp::json::value& v, const char* what, int64_t lo, int64_t hi,
                        int64_t& out) {
      if (!integral(v) || v.as_int64() < lo || v.as_int64() > hi) {
        enqueue_error(id, std::string("session ") + what + " must be an integer in [" +
                              std::to_string(lo) + ", " + std::to_string(hi) + "]");
        return false;
      }
      out = v.as_int64();
      return true;
    };
    try {
      if (verb == "create") {
        std::string problem = "sssp";
        if (const pp::json::value* v = doc.find("problem")) {
          if (!v->is_string()) {
            enqueue_error(id, "session \"problem\" must be a string");
            return;
          }
          problem = v->as_string();
        }
        // Before make_input: an unsupported kind must not first build a
        // (possibly huge) instance only to be refused by the table.
        pp::serve::require_session_kind(problem);
        int64_t n = 20'000;
        if (const pp::json::value* v = doc.find("n")) {
          if (!want_int(*v, "\"n\"", 1, static_cast<int64_t>(std::min<uint64_t>(
                                            g_max_n, std::numeric_limits<int64_t>::max())),
                        n))
            return;
        }
        uint64_t seed = eng_.reserve_anonymous_seed();
        if (const pp::json::value* v = doc.find("seed")) {
          if (!integral(*v)) {
            enqueue_error(id, "session \"seed\" must be an integer");
            return;
          }
          seed = v->as_uint64();
        }
        pp::problem_input base =
            pp::registry::instance().make_input(problem, static_cast<size_t>(n), seed);
        enqueue_session(std::move(id), pp::serve::to_json(tab_.create(name, std::move(base))));
        return;
      }
      if (verb == "delta") {
        pp::serve::session_delta d;
        // Triples [u, v, w] / pairs [u, v] / pairs [i, value]; every slot
        // type- and range-checked here so the table only ever validates
        // semantics (endpoint bounds, kind mismatches).
        auto rows = [&](const pp::json::value& v, const char* what, size_t width,
                        std::vector<std::array<int64_t, 3>>& out) {
          if (!v.is_array()) {
            enqueue_error(id, std::string("session ") + what + " must be an array of arrays");
            return false;
          }
          for (const auto& row : v.as_array()) {
            if (!row.is_array() || row.as_array().size() != width) {
              enqueue_error(id, std::string("session ") + what + " entries must be arrays of " +
                                    std::to_string(width) + " integers");
              return false;
            }
            std::array<int64_t, 3> r{0, 0, 0};
            for (size_t j = 0; j < width; ++j) {
              const pp::json::value& cell = row.as_array()[j];
              if (!integral(cell)) {
                enqueue_error(id, std::string("session ") + what + " entries must hold integers");
                return false;
              }
              r[j] = cell.as_int64();
            }
            out.push_back(r);
          }
          return true;
        };
        constexpr int64_t kVertMax = std::numeric_limits<pp::vertex_t>::max();
        constexpr int64_t kWeightMax = std::numeric_limits<uint32_t>::max();
        std::vector<std::array<int64_t, 3>> raw;
        if (const pp::json::value* v = doc.find("add_edges")) {
          if (!rows(*v, "\"add_edges\"", 3, raw)) return;
          for (const auto& r : raw) {
            if (r[0] < 0 || r[0] > kVertMax || r[1] < 0 || r[1] > kVertMax || r[2] < 1 ||
                r[2] > kWeightMax) {
              enqueue_error(id, "session \"add_edges\" entries must be [u, v, w] with w >= 1");
              return;
            }
            d.add_edges.push_back({static_cast<pp::vertex_t>(r[0]),
                                   static_cast<pp::vertex_t>(r[1]),
                                   static_cast<uint32_t>(r[2])});
          }
        }
        raw.clear();
        if (const pp::json::value* v = doc.find("remove_edges")) {
          if (!rows(*v, "\"remove_edges\"", 2, raw)) return;
          for (const auto& r : raw) {
            if (r[0] < 0 || r[0] > kVertMax || r[1] < 0 || r[1] > kVertMax) {
              enqueue_error(id, "session \"remove_edges\" entries must be [u, v]");
              return;
            }
            d.remove_edges.push_back(
                {static_cast<pp::vertex_t>(r[0]), static_cast<pp::vertex_t>(r[1])});
          }
        }
        if (const pp::json::value* v = doc.find("source")) {
          int64_t s = 0;
          if (!want_int(*v, "\"source\"", 0, kVertMax, s)) return;
          d.source = static_cast<pp::vertex_t>(s);
        }
        if (const pp::json::value* v = doc.find("append")) {
          if (!v->is_array()) {
            enqueue_error(id, "session \"append\" must be an array of integers");
            return;
          }
          for (const auto& cell : v->as_array()) {
            if (!integral(cell)) {
              enqueue_error(id, "session \"append\" must be an array of integers");
              return;
            }
            d.append.push_back(cell.as_int64());
          }
        }
        raw.clear();
        if (const pp::json::value* v = doc.find("update")) {
          if (!rows(*v, "\"update\"", 2, raw)) return;
          for (const auto& r : raw) {
            if (r[0] < 0) {
              enqueue_error(id, "session \"update\" entries must be [index, value]");
              return;
            }
            d.update.push_back({static_cast<size_t>(r[0]), r[1]});
          }
        }
        enqueue_session(std::move(id), pp::serve::to_json(tab_.apply(name, d)));
        return;
      }
      if (verb == "solve") {
        const pp::json::value* solver = doc.find("solver");
        if (solver == nullptr || !solver->is_string()) {
          enqueue_error(id, "session solve needs a string \"solver\" member");
          return;
        }
        pp::serve::request req;
        req.solver = solver->as_string();
        req.session = name;
        if (std::string bad = parse_solve_fields(doc, req); !bad.empty()) {
          enqueue_error(id, std::move(bad));
          return;
        }
        if (pp::registry::instance().info(req.solver) == nullptr) {
          enqueue_error(id, "unknown solver '" + req.solver + "'");
          return;
        }
        if (!req.seed) req.seed = eng_.reserve_anonymous_seed();
        // Pin the head: the solve reads THIS version even if deltas land
        // while it is queued, and answers with that version's descriptor.
        pp::serve::session_desc desc;
        pp::snapshot_input snap = tab_.snapshot(name, &desc);
        entry e;
        e.id = std::move(id);
        e.session_name = name;
        e.session_version = snap.version;
        e.session_json = pp::serve::to_json(desc);
        req.input = std::move(snap);
        e.fut = eng_.submit(std::move(req));
        push(std::move(e));
        return;
      }
      if (verb == "drop") {
        bool dropped = tab_.drop(name);
        pp::json::writer w;
        w.begin_object();
        w.member("name", name);
        w.member("dropped", dropped);
        w.end_object();
        enqueue_session(std::move(id), w.str());
        return;
      }
      enqueue_error(id, "unknown session verb '" + verb + "' (want create/delta/solve/drop)");
    } catch (const std::exception& e) {
      enqueue_error(id, e.what());
    }
  }

  // Writer side: pop entries in request order, wait, print. Runs until
  // finish() and the queue drains.
  void writer_loop(FILE* out) {
    for (;;) {
      entry e;
      {
        pp::sync::unique_lock<pp::sync::mutex> lk(m_);
        // Loop, not wait(lk, pred): the predicate reads m_-guarded state,
        // which -Wthread-safety only accepts inside the locked scope.
        while (!done_ && out_.empty()) cv_.wait(lk);
        if (out_.empty()) return;
        e = std::move(out_.front());
        out_.pop_front();
      }
      pp::json::writer w;
      w.begin_object();
      w.key("id").value_raw(e.id);
      if (e.fut.valid()) {
        pp::serve::response r = e.fut.get();
        w.member("ok", r.ok());
        if (r.ok()) {
          // Always present on solver responses so clients (and the CLI
          // test) can assert on it without membership checks: true only
          // when the engine's result cache answered without a solve.
          w.member("cached", r.cached);
          w.key("result").value_raw(pp::to_json(r.result));
          if (!e.session_name.empty()) {
            // Feed exact distances back as incremental labels for the
            // version this solve pinned (the table ignores stale feeds,
            // and a drop/eviction mid-flight is a no-op inside).
            if (const auto* sr = std::get_if<pp::sssp_result>(&r.result.value))
              tab_.note_solve(e.session_name, e.session_version, sr->dist);
          }
        } else {
          w.member("error", r.error);
        }
        if (!e.session_json.empty()) w.key("session").value_raw(e.session_json);
      } else if (!e.session_json.empty()) {
        w.member("ok", true);
        w.key("session").value_raw(e.session_json);
      } else if (!e.stats.empty()) {
        w.member("ok", true);
        w.key("stats").value_raw(e.stats);
      } else if (!e.metrics.empty()) {
        w.member("ok", true);
        // Prometheus text is not JSON — it rides as a string member.
        w.member("metrics", e.metrics);
      } else {
        w.member("ok", false);
        w.member("error", e.err);
      }
      w.end_object();
      std::fprintf(out, "%s\n", w.str().c_str());
      std::fflush(out);
      if (!g_trace_dir.empty())
        pp::trace::write_chrome_json(g_trace_dir + "/" + sanitize_id(e.id) + ".json");
    }
  }

  void finish() {
    {
      pp::sync::lock_guard<pp::sync::mutex> lk(m_);
      done_ = true;
    }
    cv_.notify_all();
  }

 private:
  struct entry {
    std::string id;  // raw JSON text (number or string)
    std::future<pp::serve::response> fut;  // invalid => a field below answers
    std::string stats;                     // raw JSON: engine_stats snapshot
    std::string metrics;                   // Prometheus text: metrics snapshot
    std::string err;
    // Session verbs: the response's "session" member (raw JSON). With a
    // valid fut this rides a solve; alone it IS the response payload.
    std::string session_json;
    std::string session_name;      // non-empty => feed distances back on ok
    uint64_t session_version = 0;  // the version the solve pinned
  };

  void push(entry e) {
    {
      pp::sync::lock_guard<pp::sync::mutex> lk(m_);
      out_.push_back(std::move(e));
    }
    cv_.notify_one();
  }

  void enqueue_error(std::string id, std::string err) {
    entry e;
    e.id = std::move(id);
    e.err = std::move(err);
    push(std::move(e));
  }

  // Point-in-time engine_stats snapshot (taken at parse time; printed in
  // request order like everything else).
  void enqueue_stats(std::string id) {
    entry e;
    e.id = std::move(id);
    e.stats = pp::serve::to_json(eng_.stats());
    push(std::move(e));
  }

  // Point-in-time Prometheus rendering of the process-wide metric registry.
  void enqueue_metrics(std::string id) {
    entry e;
    e.id = std::move(id);
    e.metrics = pp::metrics::render_prometheus();
    push(std::move(e));
  }

  // An immediately-answered session verb (create/delta/drop): the table
  // already did the work, the entry just carries the response payload.
  void enqueue_session(std::string id, std::string json) {
    entry e;
    e.id = std::move(id);
    e.session_json = std::move(json);
    push(std::move(e));
  }

  pp::serve::engine& eng_;
  pp::serve::session_table& tab_;
  pp::sync::mutex m_;
  std::condition_variable_any cv_;
  std::deque<entry> out_ PP_GUARDED_BY(m_);
  bool done_ PP_GUARDED_BY(m_) = false;
  uint64_t index_ = 0;  // reader-thread only; never shared
};

void serve_stream(pp::serve::engine& eng, pp::serve::session_table& tab, FILE* in, FILE* out) {
  session s(eng, tab);
  std::thread writer([&] { s.writer_loop(out); });
  std::string line;
  int c;
  while ((c = std::fgetc(in)) != EOF) {
    if (c == '\n') {
      s.feed_line(line);
      line.clear();
    } else {
      line += static_cast<char>(c);
    }
  }
  if (!line.empty()) s.feed_line(line);
  s.finish();
  writer.join();
}

#if PPSERVE_HAS_TCP
// Minimal loopback HTTP/1.0 scrape endpoint: GET /metrics -> 200 with the
// Prometheus text rendering, anything else -> 404. One request per
// connection, served sequentially — a scrape is a few KB of formatting,
// and Prometheus polls on the order of seconds.
void serve_metrics_http(int port) {
  std::signal(SIGPIPE, SIG_IGN);
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    std::perror("ppserve: metrics socket");
    return;
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, 16) < 0) {
    std::perror("ppserve: metrics bind/listen");
    ::close(fd);
    return;
  }
  std::fprintf(stderr, "ppserve: metrics on http://127.0.0.1:%d/metrics\n", port);
  for (;;) {
    int client = ::accept(fd, nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR || errno == ECONNABORTED || errno == EMFILE || errno == ENFILE) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      }
      std::perror("ppserve: metrics accept");
      break;
    }
    // The request line fits in one read for any real scraper; everything
    // past it (headers) is irrelevant to routing.
    char buf[2048];
    ssize_t got = ::recv(client, buf, sizeof(buf) - 1, 0);
    std::string head(buf, got > 0 ? static_cast<size_t>(got) : 0);
    bool found = head.rfind("GET /metrics", 0) == 0;
    std::string body = found ? pp::metrics::render_prometheus() : "not found\n";
    char hdr[256];
    std::snprintf(hdr, sizeof(hdr),
                  "HTTP/1.0 %s\r\n"
                  "Content-Type: %s\r\n"
                  "Content-Length: %zu\r\n"
                  "Connection: close\r\n\r\n",
                  found ? "200 OK" : "404 Not Found",
                  found ? "text/plain; version=0.0.4; charset=utf-8" : "text/plain",
                  body.size());
    (void)::send(client, hdr, std::strlen(hdr), 0);
    (void)::send(client, body.data(), body.size(), 0);
    ::close(client);
  }
  ::close(fd);
}

void serve_tcp(pp::serve::engine& eng, pp::serve::session_table& tab, int port) {
  // A client that disconnects before reading its response must not kill
  // the daemon: writes to its closed socket should fail with EPIPE, not
  // raise SIGPIPE (default disposition: terminate the whole process).
  std::signal(SIGPIPE, SIG_IGN);
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    std::perror("ppserve: socket");
    return;
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, 16) < 0) {
    std::perror("ppserve: bind/listen");
    ::close(fd);
    return;
  }
  std::fprintf(stderr, "ppserve: listening on 127.0.0.1:%d\n", port);
  for (;;) {
    int client = ::accept(fd, nullptr, nullptr);
    if (client < 0) {
      // Transient failures (fd exhaustion under a connection burst, a
      // connection aborted before accept, a signal) must not permanently
      // kill the TCP surface of an otherwise healthy daemon.
      if (errno == EINTR || errno == ECONNABORTED || errno == EMFILE || errno == ENFILE) {
        std::perror("ppserve: accept (transient)");
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      }
      std::perror("ppserve: accept");
      break;
    }
    std::thread([&eng, &tab, client] {
      // Every fd owns exactly one owner on every path: a failed fdopen
      // must not strand `client` (or the dup) open, or fd exhaustion
      // becomes permanent instead of transient.
      FILE* in = ::fdopen(client, "r");
      if (in == nullptr) {
        ::close(client);
        return;
      }
      int wfd = ::dup(client);
      FILE* out = wfd >= 0 ? ::fdopen(wfd, "w") : nullptr;
      if (out == nullptr) {
        if (wfd >= 0) ::close(wfd);
        std::fclose(in);
        return;
      }
      serve_stream(eng, tab, in, out);
      std::fclose(in);
      std::fclose(out);
    }).detach();
  }
  ::close(fd);
}
#endif

}  // namespace

int main(int argc, char** argv) {
  daemon_options opt;
  opt.eng.ctx = pp::default_context();
  for (int i = 1; i < argc; ++i) {
    auto need = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: missing value for %s\n", argv[0], flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--port") == 0) {
      opt.port = static_cast<int>(pp_cli::parse_int(argv[0], "--port", need("--port"), 1, 65535));
    } else if (std::strcmp(argv[i], "--metrics-port") == 0) {
      opt.metrics_port = static_cast<int>(
          pp_cli::parse_int(argv[0], "--metrics-port", need("--metrics-port"), 1, 65535));
    } else if (std::strcmp(argv[i], "--trace-dir") == 0) {
      opt.trace_dir = need("--trace-dir");
      if (opt.trace_dir.empty()) {
        std::fprintf(stderr, "%s: --trace-dir needs a non-empty directory\n", argv[0]);
        return 2;
      }
    } else if (std::strcmp(argv[i], "--max-inflight") == 0) {
      // 0 is clamped to one executor HERE, visibly, instead of relying on
      // the engine constructor's silent fixup.
      long long v = pp_cli::parse_int(argv[0], "--max-inflight", need("--max-inflight"), 0,
                              std::numeric_limits<unsigned>::max());
      if (v == 0) {
        std::fprintf(stderr, "%s: --max-inflight 0 clamped to 1 (at least one executor)\n",
                     argv[0]);
        v = 1;
      }
      opt.eng.max_inflight_runs = static_cast<unsigned>(v);
    } else if (std::strcmp(argv[i], "--workers-per-run") == 0) {
      // 0 keeps the engine's "partition the machine evenly" default.
      opt.eng.workers_per_run = static_cast<unsigned>(
          pp_cli::parse_int(argv[0], "--workers-per-run", need("--workers-per-run"), 0,
                            pp::detail::kMaxNativeWorkers));
    } else if (std::strcmp(argv[i], "--queue") == 0) {
      opt.eng.queue_capacity = static_cast<size_t>(
          pp_cli::parse_int(argv[0], "--queue", need("--queue"), 1, 100'000'000));
    } else if (std::strcmp(argv[i], "--cache-entries") == 0) {
      // Minimum 1: "0 entries" is spelled --cache-off, so a negative or
      // zero count here is a mistake, not a disable request.
      opt.eng.cache_entries = static_cast<size_t>(
          pp_cli::parse_int(argv[0], "--cache-entries", need("--cache-entries"), 1, 100'000'000));
    } else if (std::strcmp(argv[i], "--cache-off") == 0) {
      opt.eng.cache_entries = 0;  // dedup of in-flight duplicates stays on
    } else if (std::strcmp(argv[i], "--max-sessions") == 0) {
      // Minimum 1: a session-less daemon is the default behavior already,
      // and 0 would mean "every create immediately evicts itself".
      opt.max_sessions = static_cast<size_t>(
          pp_cli::parse_int(argv[0], "--max-sessions", need("--max-sessions"), 1, 1'000'000));
    } else if (std::strcmp(argv[i], "--max-n") == 0) {
      opt.max_n = static_cast<size_t>(pp_cli::parse_int(argv[0], "--max-n", need("--max-n"), 1,
                                                std::numeric_limits<long long>::max()));
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      opt.eng.ctx.seed = pp_cli::parse_u64(argv[0], "--seed", need("--seed"));
    } else if (std::strcmp(argv[i], "--relax-k") == 0) {
      // k-MultiQueue relaxation factor for relaxed-paradigm solvers; phase
      // and sequential solvers ignore it. Zero shards is nonsense -> min 1.
      opt.eng.ctx.relax_k = static_cast<unsigned>(
          pp_cli::parse_int(argv[0], "--relax-k", need("--relax-k"), 1,
                    std::numeric_limits<unsigned>::max()));
    } else if (std::strcmp(argv[i], "--backend") == 0) {
      const char* b = need("--backend");
      auto kind = pp::parse_backend(b);
      if (!kind) {
        std::fprintf(stderr, "%s: unknown backend '%s'\n", argv[0], b);
        return 2;
      }
      opt.eng.ctx.backend = *kind;
    } else {
      return usage(argv[0]);
    }
  }

  g_max_n = opt.max_n;
  if (!opt.trace_dir.empty()) {
    g_trace_dir = opt.trace_dir;
    pp::trace::set_enabled(true);
  }
  pp::serve::engine eng(opt.eng);
  pp::serve::session_table tab(opt.max_sessions);

#if PPSERVE_HAS_TCP
  std::thread tcp;
  if (opt.port >= 0) tcp = std::thread([&] { serve_tcp(eng, tab, opt.port); });
  // Detached: the scrape endpoint reads process-wide metrics only, and the
  // daemon must still exit at stdin EOF when --port was not given.
  if (opt.metrics_port >= 0)
    std::thread([p = opt.metrics_port] { serve_metrics_http(p); }).detach();
#else
  if (opt.port >= 0 || opt.metrics_port >= 0) {
    std::fprintf(stderr, "%s: --port/--metrics-port not supported on this platform\n", argv[0]);
    return 2;
  }
#endif

  serve_stream(eng, tab, stdin, stdout);

#if PPSERVE_HAS_TCP
  if (tcp.joinable()) {
    // stdin closed: a TCP-mode daemon keeps serving until killed.
    tcp.join();
  }
#endif
  eng.stop(/*drain=*/true);
  return 0;
}
