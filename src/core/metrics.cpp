// The one place metric names live. tools/pplint.py's metrics-coverage
// rule extracts every `("pp_..."` literal below and requires it to appear
// in both the README metric catalog and the tests/test_trace.cpp
// Prometheus golden — add a metric here and the lint tells you where the
// docs and tests still owe it.
#include "core/metrics.h"

#include <cstdio>

namespace pp::metrics {

catalog::catalog()
    : serve_submitted("pp_serve_submitted_total",
                      "Requests admitted to the engine queue as entries"),
      serve_completed("pp_serve_completed_total",
                      "Responses delivered ok (cache hits and fanned-out waiters included)"),
      serve_failed("pp_serve_failed_total", "Responses delivered with a non-QoS error"),
      serve_expired("pp_serve_expired_total",
                    "Requests dropped because their deadline passed while queued"),
      serve_cancelled("pp_serve_cancelled_total",
                      "Requests whose solve was cancelled mid-run by a blown deadline"),
      serve_cache_hits("pp_serve_cache_hits_total",
                       "Requests answered from the result cache at admission"),
      serve_cache_misses("pp_serve_cache_misses_total",
                         "Cache lookups that held no entry for the key"),
      serve_deduped("pp_serve_deduped_total",
                    "Requests collapsed onto an identical in-flight execution"),
      serve_queue_depth("pp_serve_queue_depth", "Requests waiting in the admission queue"),
      serve_inflight("pp_serve_inflight_runs", "Engine executions running right now"),
      serve_latency_interactive("pp_serve_latency_interactive_usec",
                                "Submit-to-delivery latency, interactive class (microseconds)"),
      serve_latency_batch("pp_serve_latency_batch_usec",
                          "Submit-to-delivery latency, batch class (microseconds)"),
      trace_ring_overwrites("pp_trace_ring_overwrites_total",
                            "Trace records lost to per-thread ring wraparound (a nonzero "
                            "value means a timeline dump is missing its oldest spans)"),
      pool_leases("pp_pool_leases_total", "Work-stealing pool lease acquisitions"),
      mq_popped("pp_mq_popped_total", "Elements claimed from relaxed k-MultiQueues"),
      mq_wasted("pp_mq_wasted_total",
                "MultiQueue pops that were stale or already decided (relaxation cost)"),
      mq_retries("pp_mq_retries_total",
                 "MultiQueue empty best-of-two draws and not-yet-ready re-inserts") {
  counters_ = {&serve_submitted,  &serve_completed,    &serve_failed,
               &serve_expired,    &serve_cancelled,    &serve_cache_hits,
               &serve_cache_misses, &serve_deduped,    &trace_ring_overwrites,
               &pool_leases,      &mq_popped,          &mq_wasted,
               &mq_retries};
  gauges_ = {&serve_queue_depth, &serve_inflight};
  histograms_ = {&serve_latency_interactive, &serve_latency_batch};
}

catalog& catalog::get() {
  // Leaked: emission points may fire from detached threads during
  // process teardown, after static destructors.
  static catalog* c = new catalog;
  return *c;
}

namespace {

void append_u64(std::string& out, uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  out += buf;
}

void append_i64(std::string& out, int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  out += buf;
}

void header(std::string& out, const char* name, const char* help, const char* type) {
  out += "# HELP ";
  out += name;
  out += ' ';
  out += help;
  out += "\n# TYPE ";
  out += name;
  out += ' ';
  out += type;
  out += '\n';
}

}  // namespace

std::string render_prometheus() {
  const catalog& c = catalog::get();
  std::string out;
  out.reserve(4096);
  for (const counter* m : c.counters()) {
    header(out, m->name(), m->help(), "counter");
    out += m->name();
    out += ' ';
    append_u64(out, m->value());
    out += '\n';
  }
  for (const gauge* m : c.gauges()) {
    header(out, m->name(), m->help(), "gauge");
    out += m->name();
    out += ' ';
    append_i64(out, m->value());
    out += '\n';
  }
  for (const histogram* m : c.histograms()) {
    header(out, m->name(), m->help(), "histogram");
    uint64_t cum = 0;
    for (int i = 0; i < histogram::kFiniteBuckets; ++i) {
      cum += m->bucket(i);
      out += m->name();
      out += "_bucket{le=\"";
      append_u64(out, uint64_t{1} << i);
      out += "\"} ";
      append_u64(out, cum);
      out += '\n';
    }
    cum += m->bucket(histogram::kFiniteBuckets);
    out += m->name();
    out += "_bucket{le=\"+Inf\"} ";
    append_u64(out, cum);
    out += '\n';
    out += m->name();
    out += "_sum ";
    append_u64(out, m->sum());
    out += '\n';
    out += m->name();
    out += "_count ";
    append_u64(out, cum);
    out += '\n';
  }
  return out;
}

void reset_for_tests() {
  catalog& c = catalog::get();
  for (counter* m : c.counters()) m->reset();
  for (gauge* m : c.gauges()) m->reset();
  for (histogram* m : c.histograms()) m->reset();
}

}  // namespace pp::metrics
