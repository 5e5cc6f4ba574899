// Lock-light span/event tracer: per-run timelines as Chrome trace-event
// JSON, loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.
//
// Design goals, in order:
//
//  1. Disabled cost ~ one branch. Every emission point first loads one
//     process-wide relaxed atomic; when tracing is off nothing else
//     happens — no clock read, no allocation, no thread-local buffer is
//     even created (bench/trace_overhead asserts this stays <2% of the
//     serving path).
//  2. Lock-light when enabled. Records land in per-thread ring buffers;
//     the only lock a recording thread ever takes is its own buffer's
//     (uncontended except while an export/clear snapshots it). There is
//     no global lock on the hot path.
//  3. Bounded memory. Each thread keeps the newest kRingCapacity records;
//     older ones are overwritten (wraparound), so a tracer left enabled
//     cannot grow without bound.
//
// Record shape is `{name, tid, t_start, t_end, args}` where `name` and
// the arg keys must be string literals (static storage duration — the
// buffer stores the pointers, not copies) and args are up to two u64
// key/value pairs (round index + frontier size, popped + wasted, ...).
//
// Emission points wired by the library: `run_scope` (whole run),
// `pool_lease` acquire+attach, every `phase_stats::record_frontier`
// round, `mq_run` worker loops, and the serve engine's queue-wait /
// flush / cache-hit / expired points. Export surfaces:
// `ppdriver run --trace out.json` and ppserve `--trace-dir`.
//
// Control-plane calls (set_enabled / snapshot / chrome_json / clear) are
// thread-safe; timestamps are steady_clock nanoseconds relative to one
// process-wide epoch (Chrome "ts"/"dur" are microseconds).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "core/json.h"
#include "core/metrics.h"

namespace pp::trace {

// Per-thread ring capacity, in records. Exceeding it overwrites the
// oldest records of that thread (newest-wins wraparound).
inline constexpr size_t kRingCapacity = 8192;

struct record {
  const char* name = nullptr;  // string literal
  uint32_t tid = 0;            // tracer-assigned thread id (dense, from 1)
  int64_t t_start_ns = 0;      // steady_clock, process-epoch relative
  int64_t t_end_ns = 0;
  const char* k1 = nullptr;  // optional args: up to two u64 pairs
  uint64_t v1 = 0;
  const char* k2 = nullptr;
  uint64_t v2 = 0;
};

namespace detail {

inline int64_t now_ns() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

// One thread's ring. Owner pushes under its own (uncontended) mutex;
// the collector takes the same mutex only to snapshot or clear.
class ring_buffer {
 public:
  explicit ring_buffer(uint32_t tid) : tid_(tid) { rec_.reserve(kRingCapacity); }

  void push(record r) {
    r.tid = tid_;
    std::lock_guard<std::mutex> lk(m_);
    if (rec_.size() < kRingCapacity) {
      rec_.push_back(r);
    } else {
      rec_[next_ % kRingCapacity] = r;  // overwrite the oldest
      // Lost-history signal: a timeline exported after this wrapped is
      // missing its oldest spans (pp_trace_ring_overwrites_total in the
      // README metric catalog).
      metrics::catalog::get().trace_ring_overwrites.inc();
    }
    ++next_;
  }

  void snapshot_into(std::vector<record>& out) const {
    std::lock_guard<std::mutex> lk(m_);
    out.insert(out.end(), rec_.begin(), rec_.end());
  }

  void clear() {
    std::lock_guard<std::mutex> lk(m_);
    rec_.clear();
    next_ = 0;
  }

  uint32_t tid() const { return tid_; }

 private:
  const uint32_t tid_;
  mutable std::mutex m_;
  std::vector<record> rec_;
  size_t next_ = 0;  // total pushes; next_ % capacity = overwrite slot
};

// Process-wide registry of live thread buffers plus the records of
// threads that already exited ("retired"). Leaked on purpose: thread
// destructors may run during process teardown, after function-local
// statics would have been destroyed.
class collector {
 public:
  static collector& instance() {
    static collector* c = new collector;
    return *c;
  }

  ring_buffer* create_buffer() {
    std::lock_guard<std::mutex> lk(m_);
    auto* b = new ring_buffer(next_tid_++);
    buffers_.push_back(b);
    ++buffers_created_;
    return b;
  }

  // Thread exit: keep its records, drop the buffer.
  void retire(ring_buffer* b) {
    std::lock_guard<std::mutex> lk(m_);
    b->snapshot_into(retired_);
    for (auto it = buffers_.begin(); it != buffers_.end(); ++it) {
      if (*it == b) {
        buffers_.erase(it);
        break;
      }
    }
    delete b;
  }

  std::vector<record> snapshot() const {
    std::lock_guard<std::mutex> lk(m_);
    std::vector<record> out = retired_;
    for (const ring_buffer* b : buffers_) b->snapshot_into(out);
    return out;
  }

  void clear() {
    std::lock_guard<std::mutex> lk(m_);
    retired_.clear();
    for (ring_buffer* b : buffers_) b->clear();
  }

  size_t record_count() const { return snapshot().size(); }

  // Buffers ever created — a disabled tracer must never move this
  // (the zero-allocation guarantee tests/test_trace.cpp pins).
  uint64_t buffers_created() const {
    std::lock_guard<std::mutex> lk(m_);
    return buffers_created_;
  }

 private:
  collector() = default;
  mutable std::mutex m_;
  std::vector<ring_buffer*> buffers_;
  std::vector<record> retired_;
  uint32_t next_tid_ = 1;
  uint64_t buffers_created_ = 0;
};

inline std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> f{false};
  return f;
}

// Thread-local handle; retires the buffer's records into the collector
// when the thread exits.
struct buffer_handle {
  ring_buffer* b = nullptr;
  ~buffer_handle() {
    if (b != nullptr) collector::instance().retire(b);
  }
};

inline ring_buffer*& tls_buffer() {
  thread_local buffer_handle h;
  return h.b;
}

inline void emit(const record& r) {
  ring_buffer*& b = tls_buffer();
  if (b == nullptr) b = collector::instance().create_buffer();
  b->push(r);
}

}  // namespace detail

// The single enabled check every emission point pays (relaxed load).
inline bool enabled() {
  return detail::enabled_flag().load(std::memory_order_relaxed);
}

inline void set_enabled(bool on) {
  detail::enabled_flag().store(on, std::memory_order_relaxed);
}

// Drop every recorded span (live buffers and retired threads).
inline void clear() { detail::collector::instance().clear(); }

// Records currently held across all threads (control-plane; snapshots).
inline size_t record_count() { return detail::collector::instance().record_count(); }

inline std::vector<record> snapshot() { return detail::collector::instance().snapshot(); }

inline uint64_t buffers_created() {
  return detail::collector::instance().buffers_created();
}

// Zero-duration event (a phase round, a cache hit): one record with
// t_start == t_end.
inline void instant(const char* name, const char* k1 = nullptr, uint64_t v1 = 0,
                    const char* k2 = nullptr, uint64_t v2 = 0) {
  if (!enabled()) return;
  record r;
  r.name = name;
  r.t_start_ns = r.t_end_ns = detail::now_ns();
  r.k1 = k1;
  r.v1 = v1;
  r.k2 = k2;
  r.v2 = v2;
  detail::emit(r);
}

// RAII span: records [construction, destruction) on the current thread.
// The enabled decision is taken once, at construction — a span that
// started disabled stays silent even if tracing flips on under it.
class span {
 public:
  explicit span(const char* name, const char* k1 = nullptr, uint64_t v1 = 0,
                const char* k2 = nullptr, uint64_t v2 = 0) {
    if (!enabled()) return;
    active_ = true;
    rec_.name = name;
    rec_.k1 = k1;
    rec_.v1 = v1;
    rec_.k2 = k2;
    rec_.v2 = v2;
    rec_.t_start_ns = detail::now_ns();
  }

  ~span() { end(); }

  // Close the span early (before scope exit); idempotent.
  void end() {
    if (!active_) return;
    active_ = false;
    rec_.t_end_ns = detail::now_ns();
    detail::emit(rec_);
  }

  // Set/replace the args late, once their values exist (e.g. a worker
  // loop's final popped/wasted counts).
  void args(const char* k1, uint64_t v1, const char* k2 = nullptr, uint64_t v2 = 0) {
    if (!active_) return;
    rec_.k1 = k1;
    rec_.v1 = v1;
    rec_.k2 = k2;
    rec_.v2 = v2;
  }

  span(const span&) = delete;
  span& operator=(const span&) = delete;

 private:
  record rec_{};
  bool active_ = false;
};

// Current records as Chrome trace-event JSON ("X" complete events, ts/dur
// in microseconds) — the format Perfetto and chrome://tracing load.
inline std::string chrome_json() {
  std::vector<record> recs = snapshot();
  json::writer w;
  w.begin_object();
  w.key("traceEvents").begin_array();
  for (const record& r : recs) {
    w.begin_object();
    w.member("name", r.name);
    w.member("cat", "pp");
    w.member("ph", "X");
    w.member("ts", static_cast<double>(r.t_start_ns) / 1000.0);
    w.member("dur", static_cast<double>(r.t_end_ns - r.t_start_ns) / 1000.0);
    w.member("pid", int64_t{1});
    w.member("tid", static_cast<uint64_t>(r.tid));
    if (r.k1 != nullptr || r.k2 != nullptr) {
      w.key("args").begin_object();
      if (r.k1 != nullptr) w.member(r.k1, r.v1);
      if (r.k2 != nullptr) w.member(r.k2, r.v2);
      w.end_object();
    }
    w.end_object();
  }
  w.end_array();
  w.member("displayTimeUnit", "ms");
  w.end_object();
  return w.str();
}

// Write chrome_json() to `path`; false (with errno intact) on I/O failure.
inline bool write_chrome_json(const std::string& path) {
  std::string body = chrome_json();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  size_t n = std::fwrite(body.data(), 1, body.size(), f);
  bool ok = (n == body.size());
  ok = (std::fclose(f) == 0) && ok;
  return ok;
}

}  // namespace pp::trace

namespace pp {
// The name the emission points use (ISSUE/README spelling).
using trace_span = trace::span;
}  // namespace pp
