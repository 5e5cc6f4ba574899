// pp::metrics — process-wide named counters, gauges, and fixed-bucket
// log-scale histograms, rendered in Prometheus text exposition format.
//
// Complement to the tracer (core/trace.h): traces answer "where did THIS
// run's time go", metrics answer "what is the process doing right now /
// since start". Every metric is a plain relaxed atomic — an increment is
// one fetch_add, there are no locks and no per-call allocation, so the
// serving hot path can bump them unconditionally.
//
// The full catalog is registered eagerly in one place (catalog's
// constructor, src/core/metrics.cpp — the only file where metric name
// literals live, which is what lets tools/pplint.py's metrics-coverage
// rule cross-check the README catalog and the test golden against the
// code). render_prometheus() therefore always emits every metric, zeroed
// or not, so scrapers see a stable schema from the first scrape.
//
// Exposed by ppserve as `{"metrics": true}` request lines (text carried
// in the JSON response) and as a loopback HTTP `GET /metrics` responder
// (`--metrics-port`).
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

namespace pp::metrics {

class counter {
 public:
  counter(const char* name, const char* help) : name_(name), help_(help) {}
  void inc(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }
  const char* name() const { return name_; }
  const char* help() const { return help_; }

 private:
  const char* name_;
  const char* help_;
  std::atomic<uint64_t> v_{0};
};

class gauge {
 public:
  gauge(const char* name, const char* help) : name_(name), help_(help) {}
  void set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(int64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }
  void sub(int64_t n) { v_.fetch_sub(n, std::memory_order_relaxed); }
  int64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }
  const char* name() const { return name_; }
  const char* help() const { return help_; }

 private:
  const char* name_;
  const char* help_;
  std::atomic<int64_t> v_{0};
};

// Fixed log-scale buckets: finite upper bounds 2^0, 2^1, ..., 2^30, then
// +Inf. One histogram shape for every unit keeps observe() branch-free
// beyond the bucket index.
class histogram {
 public:
  static constexpr int kFiniteBuckets = 31;  // le = 1, 2, 4, ..., 2^30

  histogram(const char* name, const char* help) : name_(name), help_(help) {}

  void observe(uint64_t v) {
    buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  // Raw (non-cumulative) count of bucket i; i == kFiniteBuckets is +Inf.
  uint64_t bucket(int i) const { return buckets_[i].load(std::memory_order_relaxed); }
  uint64_t count() const {
    uint64_t c = 0;
    for (const auto& b : buckets_) c += b.load(std::memory_order_relaxed);
    return c;
  }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  void reset() {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
  }
  const char* name() const { return name_; }
  const char* help() const { return help_; }

  // Smallest i with v <= 2^i, saturating into the +Inf bucket (index
  // kFiniteBuckets; finite bucket indices are 0..kFiniteBuckets-1).
  static int bucket_index(uint64_t v) {
    if (v <= 1) return 0;
    int w = 64 - std::countl_zero(v - 1);  // ceil(log2(v))
    return w >= kFiniteBuckets ? kFiniteBuckets : w;
  }

 private:
  const char* name_;
  const char* help_;
  std::atomic<uint64_t> buckets_[kFiniteBuckets + 1]{};
  std::atomic<uint64_t> sum_{0};
};

// The process catalog. Leaky singleton (same lifetime rule as the solver
// registry): emission points from any thread, at any point of shutdown,
// may still touch it.
struct catalog {
  // -- serving engine (src/serve/engine.cpp) --------------------------------
  counter serve_submitted;
  counter serve_completed;
  counter serve_failed;
  counter serve_expired;
  counter serve_cancelled;
  counter serve_cache_hits;
  counter serve_cache_misses;
  counter serve_deduped;
  gauge serve_queue_depth;
  gauge serve_inflight;
  histogram serve_latency_interactive;
  histogram serve_latency_batch;
  // -- tracer ring buffers (core/trace.h) -----------------------------------
  counter trace_ring_overwrites;
  // -- scheduler (src/parallel/scheduler.cpp) -------------------------------
  counter pool_leases;
  // -- relaxed k-MultiQueue (src/parallel/multiqueue.h) ---------------------
  counter mq_popped;
  counter mq_wasted;
  counter mq_retries;

  static catalog& get();

  // Registration-ordered views the renderer iterates.
  const std::vector<counter*>& counters() const { return counters_; }
  const std::vector<gauge*>& gauges() const { return gauges_; }
  const std::vector<histogram*>& histograms() const { return histograms_; }

 private:
  catalog();
  std::vector<counter*> counters_;
  std::vector<gauge*> gauges_;
  std::vector<histogram*> histograms_;
};

// Prometheus text exposition format (# HELP / # TYPE + samples; histogram
// as cumulative _bucket{le=...} series plus _sum/_count).
std::string render_prometheus();

// Zero every metric (tests only — production metrics are monotonic).
void reset_for_tests();

}  // namespace pp::metrics
