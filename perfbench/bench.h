// perfbench shared pieces: clocks and sample summaries, the seeded
// generator, the per-run report, and the in-memory span recorder.
//
// The recorder lives here, in the benchmark, on purpose: spans are taken
// only around the benchmark's own calls into each layer's public surface
// (registry::run / make_input / fingerprint_of, engine::submit,
// session_table::apply / snapshot, the ppserve wire protocol). The
// program's built-in tracer (core/trace.h) stays off in every run.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace pb {

using clock = std::chrono::steady_clock;

inline double ms_between(clock::time_point a, clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// Median and tail of a sample. The tail is the highest percentile with at
// least ten samples beyond it: the 11th-largest value, which sits at
// percentile 100 * (n - 10) / n. Below 11 samples no percentile qualifies;
// the maximum stands in and tail_pct reads 100.
struct summary {
  double p50 = 0.0;
  double tail = 0.0;
  double tail_pct = 0.0;
  size_t n = 0;
};
summary summarize(std::vector<double> v);
double median(std::vector<double> v);
double geomean(const std::vector<double>& v);

// SplitMix64 stream for arrivals and deltas; inputs and streams are seeded
// from --seed through pp::derive_seed.
class rng {
 public:
  explicit rng(uint64_t seed) : s_(seed) {}
  uint64_t next();
  double uniform();                 // [0, 1)
  uint64_t below(uint64_t n);       // [0, n)
  double exponential(double rate);  // inter-arrival gap in seconds
 private:
  uint64_t s_;
};

struct options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;     // tiny inputs and windows: exercises every path fast
  unsigned nproc = 1;
  std::string ppserve;    // path of the daemon binary (serve_mix)
  std::string trace_out;  // Chrome-trace JSON written at exit (trace runs)
  std::string log_dir;    // where the daemon's stderr goes
};

// What one workload pass produced: end-to-end metrics (untraced runs),
// per-layer metrics (traced runs), human-readable lines, and the answer
// check tally. Every operation the benchmark issues is one `attempted`;
// a wrong answer, error, expiry or cancellation is one `failed`.
//
// End-to-end figures come in two kinds. The gated ones (kGated) are the
// result line of an untraced run. The others (tails, the side population)
// swing with the host more than a gate allows: they are printed with the
// human-readable lines, and a traced run reports them as `e2e.<workload>.*`.
inline constexpr const char* kGated[] = {"setup_s", "p50_ms", "rate_per_s"};

class report {
 public:
  void e2e(const std::string& name, double value, const std::string& unit);
  void layer(const std::string& name, double value, const std::string& unit);
  void note(const std::string& line);
  // Count one checked operation; a false `ok` is a failure, and the first
  // few reasons are kept for the log.
  void check(bool ok, const std::string& why);
  void merge(const report& other);

  struct metric {
    double value;
    std::string unit;
  };
  std::map<std::string, metric> e2e_metrics;
  std::map<std::string, metric> layer_metrics;
  std::vector<std::string> notes;
  std::vector<std::string> failures;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

// Spans at layer boundaries, held in memory and written at exit as
// Chrome trace-event JSON. A span names its layer, its start and end,
// the span that caused it (0 = none) and the request it belongs to.
// Thread-safe: engine callbacks record from executor threads.
class tracer {
 public:
  explicit tracer(std::string workload) : workload_(std::move(workload)) {}
  uint64_t span(const char* layer, const std::string& name, clock::time_point t0,
                clock::time_point t1, uint64_t parent = 0, uint64_t req = 0);
  // A child of span `parent` ([t0, t1]) whose length the program itself
  // reports (a solve's result.seconds). It is placed at the end of the
  // parent, where the answer was produced, and clipped to the parent: a
  // deduplicated request may have joined a solve already under way.
  uint64_t reported(const char* layer, const std::string& name, clock::time_point t0,
                    clock::time_point t1, double seconds, uint64_t parent, uint64_t req);
  // Per layer: total span time minus the part of it its child spans
  // cover, in milliseconds.
  std::map<std::string, double> self_ms() const;
  // Append this tracer's spans as trace events (pid = `pid`).
  void append_events(std::string& out, int pid, clock::time_point epoch) const;

 private:
  struct rec {
    const char* layer;
    std::string name;
    clock::time_point t0, t1;
    uint64_t parent, req;
    uint32_t tid;
  };
  std::string workload_;
  mutable std::mutex m_;
  std::vector<rec> spans_;
};

// Write every tracer's spans to one Chrome trace-event JSON file.
bool write_chrome_trace(const std::string& path, const std::vector<const tracer*>& tracers,
                        clock::time_point epoch);

// Workload entry points. Each sets itself up `setup_reps` times (the
// median set-up time is reported as setup_s), measures for `seconds`, and
// checks every answer. With a tracer it also records spans and reports
// its per-layer metrics.
void solve_suite(const options& opt, double seconds, int setup_reps, tracer* tr, report& rep);
void serve_mix(const options& opt, double seconds, int setup_reps, tracer* tr, report& rep);
void session_churn(const options& opt, double seconds, int setup_reps, tracer* tr,
                   report& rep);

}  // namespace pb
