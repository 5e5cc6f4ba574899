// ppbench: the load driver behind perfbench/run.py.
//
//   ppbench --workload solve_suite|serve_mix|session_churn|all --seed N
//           --seconds S --trace 0|1 [--ppserve PATH] [--trace-out FILE]
//           [--log-dir DIR] [--smoke]
//
// Untraced (--trace 0): runs the named workload, sets it up three times
// (setup_s is the median), measures for S seconds, checks every answer,
// and prints its end-to-end metrics; the result line holds the gated ones
// (kGated). `all` runs the three workloads in turn and prefixes each
// metric with its workload.
//
// Traced (--trace 1): every per-layer metric of every workload. Each of
// the three workloads runs twice for S/6 seconds, untraced then traced;
// the traced pass records spans around the benchmark's calls into each
// layer and reports per-layer self time, and the p50_ms difference
// between the two passes is the tracing overhead. The untraced pass's
// ungated end-to-end figures are reported as e2e.<workload>.<name>. The
// spans are written as Chrome-trace JSON to --trace-out.
//
// Output: the run environment and human-readable lines first, then, as
// the last line, one JSON object {"correct", "attempted", "failed",
// "metrics"}. Exit code 0 only when every answer was correct.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "core/json.h"

namespace pb {

// ---- summaries and generator --------------------------------------------------

summary summarize(std::vector<double> v) {
  summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  s.p50 = v.size() % 2 == 1 ? v[v.size() / 2] : 0.5 * (v[v.size() / 2 - 1] + v[v.size() / 2]);
  if (v.size() >= 11) {
    s.tail = v[v.size() - 11];
    s.tail_pct = 100.0 * static_cast<double>(v.size() - 10) / static_cast<double>(v.size());
  } else {
    s.tail = v.back();
    s.tail_pct = 100.0;
  }
  return s;
}

double median(std::vector<double> v) { return summarize(std::move(v)).p50; }

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double acc = 0.0;
  for (double x : v) acc += std::log(std::max(x, 1e-12));
  return std::exp(acc / static_cast<double>(v.size()));
}

uint64_t rng::next() {
  s_ += 0x9e3779b97f4a7c15ull;
  uint64_t x = s_;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double rng::uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

uint64_t rng::below(uint64_t n) { return n == 0 ? 0 : next() % n; }

double rng::exponential(double rate) { return -std::log1p(-uniform()) / rate; }

// ---- report -----------------------------------------------------------------

void report::e2e(const std::string& name, double value, const std::string& unit) {
  e2e_metrics[name] = {std::isfinite(value) ? value : 0.0, unit};
}

void report::layer(const std::string& name, double value, const std::string& unit) {
  layer_metrics[name] = {std::isfinite(value) ? value : 0.0, unit};
}

void report::note(const std::string& line) { notes.push_back(line); }

void report::check(bool ok, const std::string& why) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 10) failures.push_back(why);
}

void report::merge(const report& other) {
  for (const auto& [k, m] : other.e2e_metrics) e2e_metrics[k] = m;
  for (const auto& [k, m] : other.layer_metrics) layer_metrics[k] = m;
  notes.insert(notes.end(), other.notes.begin(), other.notes.end());
  failures.insert(failures.end(), other.failures.begin(), other.failures.end());
  attempted += other.attempted;
  failed += other.failed;
}

// ---- tracer -----------------------------------------------------------------

uint64_t tracer::span(const char* layer, const std::string& name, clock::time_point t0,
                      clock::time_point t1, uint64_t parent, uint64_t req) {
  static thread_local uint32_t tid =
      static_cast<uint32_t>(std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0xffff);
  std::lock_guard<std::mutex> lk(m_);
  spans_.push_back({layer, name, t0, t1, parent, req, tid});
  return spans_.size();  // ids are 1-based positions; 0 means "no parent"
}

uint64_t tracer::reported(const char* layer, const std::string& name, clock::time_point t0,
                          clock::time_point t1, double seconds, uint64_t parent, uint64_t req) {
  auto len = std::chrono::duration_cast<clock::duration>(std::chrono::duration<double>(seconds));
  return span(layer, name, std::max(t0, t1 - len), t1, parent, req);
}

std::map<std::string, double> tracer::self_ms() const {
  std::lock_guard<std::mutex> lk(m_);
  std::vector<std::vector<size_t>> children(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].parent != 0) children[spans_[i].parent - 1].push_back(i);
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const rec& s = spans_[i];
    // Union of the children's intervals, clipped to the parent.
    std::vector<std::pair<clock::time_point, clock::time_point>> iv;
    for (size_t c : children[i])
      iv.emplace_back(std::max(spans_[c].t0, s.t0), std::min(spans_[c].t1, s.t1));
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    clock::time_point lo{}, hi{};
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (b <= a) continue;
      if (open && a <= hi) {
        hi = std::max(hi, b);
        continue;
      }
      if (open) covered += ms_between(lo, hi);
      lo = a;
      hi = b;
      open = true;
    }
    if (open) covered += ms_between(lo, hi);
    out[s.layer] += std::max(0.0, ms_between(s.t0, s.t1) - covered);
  }
  return out;
}

void tracer::append_events(std::string& out, int pid, clock::time_point epoch) const {
  std::lock_guard<std::mutex> lk(m_);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const rec& s = spans_[i];
    pp::json::writer w;
    w.begin_object();
    w.member("name", s.name).member("cat", s.layer).member("ph", "X");
    w.member("ts", std::chrono::duration<double, std::micro>(s.t0 - epoch).count());
    w.member("dur", std::chrono::duration<double, std::micro>(s.t1 - s.t0).count());
    w.member("pid", static_cast<int64_t>(pid)).member("tid", static_cast<uint64_t>(s.tid));
    w.key("args").begin_object();
    w.member("id", static_cast<uint64_t>(i + 1)).member("parent", s.parent);
    w.member("req", s.req).member("workload", workload_);
    w.end_object().end_object();
    if (!out.empty() && out.back() != '[') out += ",\n";
    out += w.str();
  }
}

bool write_chrome_trace(const std::string& path, const std::vector<const tracer*>& tracers,
                        clock::time_point epoch) {
  std::string events = "[";
  int pid = 1;
  for (const tracer* t : tracers) t->append_events(events, pid++, epoch);
  events += "]";
  std::ofstream f(path);
  f << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": " << events << "}\n";
  return static_cast<bool>(f);
}

}  // namespace pb

namespace {

using workload_fn = void (*)(const pb::options&, double, int, pb::tracer*, pb::report&);

struct workload_entry {
  const char* name;
  workload_fn fn;
};
constexpr workload_entry kWorkloads[] = {
    {"solve_suite", pb::solve_suite},
    {"serve_mix", pb::serve_mix},
    {"session_churn", pb::session_churn},
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload solve_suite|serve_mix|session_churn|all --seed N\n"
               "          --seconds S --trace 0|1 [--ppserve PATH] [--trace-out FILE]\n"
               "          [--log-dir DIR] [--smoke]\n",
               argv0);
  return 2;
}

// The run environment, as one JSON line; the load average is sampled
// again at the end so a run disturbed by other load can be recognised.
std::string environment(const pb::options& opt, double load_start, double load_end) {
  pp::json::writer w;
  w.begin_object();
  w.member("nproc", static_cast<uint64_t>(opt.nproc));
  w.member("l1d_bytes", static_cast<int64_t>(sysconf(_SC_LEVEL1_DCACHE_SIZE)));
  w.member("l2_bytes", static_cast<int64_t>(sysconf(_SC_LEVEL2_CACHE_SIZE)));
  w.member("l3_bytes", static_cast<int64_t>(sysconf(_SC_LEVEL3_CACHE_SIZE)));
  w.member("compiler", PB_COMPILER).member("build_type", PB_BUILD_TYPE);
  w.member("backend", "native");
  w.member("load_start", load_start).member("load_end", load_end);
  w.member("busy_at_start", load_start > 0.5 * opt.nproc);
  w.end_object();
  return w.str();
}

bool gated(const std::string& name) {
  for (const char* g : pb::kGated)
    if (name == g) return true;
  return false;
}

double load1() {
  double l[1] = {0.0};
  return getloadavg(l, 1) == 1 ? l[0] : -1.0;
}

}  // namespace

int main(int argc, char** argv) {
  pb::options opt;
  opt.nproc = std::max(1u, std::thread::hardware_concurrency());
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    auto need = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--workload") == 0) {
      opt.workload = need();
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      opt.seed = std::strtoull(need(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--seconds") == 0) {
      opt.seconds = std::strtod(need(), nullptr);
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      opt.trace = std::strcmp(need(), "0") != 0;
      have_trace = true;
    } else if (std::strcmp(argv[i], "--ppserve") == 0) {
      opt.ppserve = need();
    } else if (std::strcmp(argv[i], "--trace-out") == 0) {
      opt.trace_out = need();
    } else if (std::strcmp(argv[i], "--log-dir") == 0) {
      opt.log_dir = need();
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      opt.smoke = true;
    } else {
      return usage(argv[0]);
    }
  }
  bool known = opt.workload == "all";
  for (const auto& w : kWorkloads) known = known || opt.workload == w.name;
  if (!known || !have_trace || !(opt.seconds > 0.0)) return usage(argv[0]);

  const double load_start = load1();
  const auto epoch = pb::clock::now();
  pb::report out;
  std::vector<std::unique_ptr<pb::tracer>> tracers;
  try {
    if (!opt.trace) {
      for (const auto& w : kWorkloads) {
        if (opt.workload != "all" && opt.workload != w.name) continue;
        pb::report rep;
        w.fn(opt, opt.seconds, /*setup_reps=*/3, nullptr, rep);
        if (opt.workload == "all") {  // one command, three workloads: prefix by workload
          std::map<std::string, pb::report::metric> named;
          for (const auto& [k, m] : rep.e2e_metrics) named[std::string(w.name) + "." + k] = m;
          rep.e2e_metrics = std::move(named);
        }
        out.merge(rep);
      }
    } else {
      const double pass_s = opt.seconds / 6.0;
      for (const auto& w : kWorkloads) {
        pb::report plain;
        w.fn(opt, pass_s, /*setup_reps=*/1, nullptr, plain);
        tracers.push_back(std::make_unique<pb::tracer>(w.name));
        pb::report traced;
        w.fn(opt, pass_s, /*setup_reps=*/1, tracers.back().get(), traced);
        double base = plain.e2e_metrics["p50_ms"].value;
        double with = traced.e2e_metrics["p50_ms"].value;
        traced.layer(std::string("trace.") + w.name + ".overhead_pct",
                     base > 0 ? 100.0 * (with / base - 1.0) : 0.0, "%");
        for (const auto& [k, m] : plain.e2e_metrics)
          if (!gated(k)) traced.layer(std::string("e2e.") + w.name + "." + k, m.value, m.unit);
        traced.note(std::string(w.name) + ": tracing overhead on p50_ms: untraced " +
                    std::to_string(base) + " ms, traced " + std::to_string(with) + " ms");
        traced.e2e_metrics.clear();
        plain.e2e_metrics.clear();
        plain.notes.clear();
        out.merge(plain);
        out.merge(traced);
      }
      if (!opt.trace_out.empty()) {
        std::vector<const pb::tracer*> raw;
        for (const auto& t : tracers) raw.push_back(t.get());
        if (!pb::write_chrome_trace(opt.trace_out, raw, epoch))
          out.note("could not write the Chrome trace to " + opt.trace_out);
        else
          out.note("Chrome trace written to " + opt.trace_out);
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ppbench: %s\n", e.what());
    return 1;
  }

  const double load_end = load1();
  std::printf("env %s\n", environment(opt, load_start, load_end).c_str());
  if (load_start > 0.5 * opt.nproc)
    std::printf("WARNING: load average %.2f at start exceeds half of nproc (%u)\n", load_start,
                opt.nproc);
  for (const auto& n : out.notes) std::printf("%s\n", n.c_str());
  for (const auto& f : out.failures) std::printf("FAILED: %s\n", f.c_str());
  const auto& shown = opt.trace ? out.layer_metrics : out.e2e_metrics;
  for (const auto& [k, m] : shown)
    std::printf("%-44s %16.6f %s\n", k.c_str(), m.value, m.unit.c_str());
  std::map<std::string, pb::report::metric> metrics;  // the result line's
  for (const auto& [k, m] : shown)
    if (opt.trace || gated(k.substr(k.find('.') + 1))) metrics[k] = m;

  const bool correct = out.failed == 0 && out.attempted > 0;
  pp::json::writer w;
  w.begin_object();
  w.member("correct", correct);
  w.member("attempted", out.attempted).member("failed", out.failed);
  w.key("metrics").begin_object();
  for (const auto& [k, m] : metrics) {
    w.key(k).begin_object();
    w.member("value", m.value).member("unit", m.unit);
    w.end_object();
  }
  w.end_object().end_object();
  std::printf("%s\n", w.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
