// The observability layer (core/trace.h + core/metrics.{h,cpp}): span
// nesting/ordering, ring-buffer wraparound, the disabled-tracer
// zero-allocation guarantee, Chrome trace-event JSON validity (checked
// with the in-repo RFC 8259 reader), counter/gauge/histogram semantics,
// and the Prometheus text-format golden the pplint metrics-coverage rule
// cross-checks against the README catalog. This binary also runs under
// the TSan and ASan CI jobs, which is what makes the tracer's per-thread
// buffer discipline machine-checked.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/json.h"
#include "core/metrics.h"
#include "core/registry.h"
#include "core/trace.h"

namespace {

using pp::trace::record;

// Records with a given name from a full snapshot.
std::vector<record> records_named(const char* name) {
  std::vector<record> out;
  for (const record& r : pp::trace::snapshot())
    if (std::string(r.name) == name) out.push_back(r);
  return out;
}

// RAII: every test leaves the tracer disabled and empty.
struct tracer_guard {
  tracer_guard() {
    pp::trace::set_enabled(false);
    pp::trace::clear();
  }
  ~tracer_guard() {
    pp::trace::set_enabled(false);
    pp::trace::clear();
  }
};

TEST(Trace, SpanNestingAndOrdering) {
  tracer_guard g;
  pp::trace::set_enabled(true);
  {
    pp::trace_span outer("t/outer", "a", 1);
    {
      pp::trace_span inner("t/inner");
    }
  }
  auto outer = records_named("t/outer");
  auto inner = records_named("t/inner");
  ASSERT_EQ(outer.size(), 1u);
  ASSERT_EQ(inner.size(), 1u);
  // The inner span's interval nests inside the outer's, and both carry
  // monotone timestamps.
  EXPECT_LE(outer[0].t_start_ns, inner[0].t_start_ns);
  EXPECT_LE(inner[0].t_end_ns, outer[0].t_end_ns);
  EXPECT_LE(inner[0].t_start_ns, inner[0].t_end_ns);
  // Same thread, and args survive.
  EXPECT_EQ(outer[0].tid, inner[0].tid);
  ASSERT_NE(outer[0].k1, nullptr);
  EXPECT_EQ(std::string(outer[0].k1), "a");
  EXPECT_EQ(outer[0].v1, 1u);
}

TEST(Trace, EndIsIdempotentAndArgsCanBeSetLate) {
  tracer_guard g;
  pp::trace::set_enabled(true);
  {
    pp::trace_span s("t/late");
    s.args("popped", 7, "wasted", 2);
    s.end();
    s.end();  // second end must not emit a duplicate
  }
  auto recs = records_named("t/late");
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].v1, 7u);
  ASSERT_NE(recs[0].k2, nullptr);
  EXPECT_EQ(std::string(recs[0].k2), "wasted");
  EXPECT_EQ(recs[0].v2, 2u);
}

TEST(Trace, RingBufferWraparound) {
  tracer_guard g;
  pp::trace::set_enabled(true);
  constexpr size_t kExtra = 100;
  uint64_t overwrites_before = pp::metrics::catalog::get().trace_ring_overwrites.value();
  // A fresh thread = a fresh ring: emit capacity + kExtra instants and
  // check the newest capacity survive (oldest kExtra overwritten).
  std::thread t([] {
    for (size_t i = 0; i < pp::trace::kRingCapacity + kExtra; ++i)
      pp::trace::instant("t/wrap", "i", i);
  });
  t.join();
  auto recs = records_named("t/wrap");
  ASSERT_EQ(recs.size(), pp::trace::kRingCapacity);
  uint64_t min_i = UINT64_MAX, max_i = 0;
  for (const record& r : recs) {
    min_i = std::min(min_i, r.v1);
    max_i = std::max(max_i, r.v1);
  }
  EXPECT_EQ(min_i, kExtra);  // 0..kExtra-1 were overwritten
  EXPECT_EQ(max_i, pp::trace::kRingCapacity + kExtra - 1);
  // Every overwritten record bumps pp_trace_ring_overwrites_total — the
  // lossiness signal an operator reads before trusting a ring dump.
  EXPECT_EQ(pp::metrics::catalog::get().trace_ring_overwrites.value() - overwrites_before,
            static_cast<uint64_t>(kExtra));
}

TEST(Trace, DisabledTracerAllocatesNothing) {
  tracer_guard g;  // leaves the tracer disabled
  uint64_t before = pp::trace::buffers_created();
  std::thread t([] {
    for (int i = 0; i < 1000; ++i) {
      pp::trace_span s("t/disabled", "i", static_cast<uint64_t>(i));
      pp::trace::instant("t/disabled_instant");
    }
  });
  t.join();
  // No thread buffer was created and no record stored: the disabled path
  // is one relaxed load + branch.
  EXPECT_EQ(pp::trace::buffers_created(), before);
  EXPECT_EQ(pp::trace::record_count(), 0u);
}

TEST(Trace, SpanDecidesAtConstruction) {
  tracer_guard g;
  {
    pp::trace_span s("t/flip");  // constructed disabled
    pp::trace::set_enabled(true);
  }  // destructor runs enabled — but the span must stay silent
  EXPECT_TRUE(records_named("t/flip").empty());
}

TEST(Trace, ConcurrentEmissionIsSafe) {
  tracer_guard g;
  pp::trace::set_enabled(true);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([t] {
      for (int i = 0; i < kPerThread; ++i)
        pp::trace::instant("t/mt", "thread", static_cast<uint64_t>(t));
    });
  }
  for (auto& t : ts) t.join();
  // Each thread has its own ring (capacity > kPerThread), so nothing is
  // dropped and tids partition the records.
  auto recs = records_named("t/mt");
  EXPECT_EQ(recs.size(), static_cast<size_t>(kThreads) * kPerThread);
}

TEST(Trace, ChromeJsonIsValidAndCarriesSpans) {
  tracer_guard g;
  pp::trace::set_enabled(true);
  {
    pp::trace_span s("t/json", "x", 42, "y", 7);
  }
  pp::trace::instant("t/json_instant");
  std::string text = pp::trace::chrome_json();
  pp::trace::set_enabled(false);

  pp::json::value v;
  std::string err;
  ASSERT_TRUE(pp::json::parse(text, v, &err)) << err;
  ASSERT_TRUE(v.is_object());
  const pp::json::value* events = v.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_GE(events->as_array().size(), 2u);
  bool saw_span = false;
  for (const auto& e : events->as_array()) {
    ASSERT_TRUE(e.is_object());
    const auto* name = e.find("name");
    ASSERT_NE(name, nullptr);
    ASSERT_NE(e.find("ph"), nullptr);
    EXPECT_EQ(e.find("ph")->as_string(), "X");
    ASSERT_NE(e.find("ts"), nullptr);
    ASSERT_NE(e.find("dur"), nullptr);
    ASSERT_NE(e.find("tid"), nullptr);
    if (name->as_string() == "t/json") {
      saw_span = true;
      const auto* args = e.find("args");
      ASSERT_NE(args, nullptr);
      ASSERT_NE(args->find("x"), nullptr);
      EXPECT_EQ(args->find("x")->as_uint64(), 42u);
      ASSERT_NE(args->find("y"), nullptr);
      EXPECT_EQ(args->find("y")->as_uint64(), 7u);
    }
  }
  EXPECT_TRUE(saw_span);
}

// The wired emission points: a phase run emits run + lease + per-round
// events; a relaxed run emits run + mq worker-loop spans with
// popped/wasted args. This is the same span set the acceptance criterion
// checks in `ppdriver run sssp/relaxed --trace`.
TEST(Trace, SolverRunsEmitWiredSpans) {
  auto& reg = pp::registry::instance();
  auto input = reg.make_input("sssp", 400, 11);
  pp::context ctx =
      pp::context{}.with_backend(pp::backend_kind::native).with_workers(2).with_seed(11);

  tracer_guard g;
  pp::trace::set_enabled(true);
  auto phase = pp::registry::run("sssp/phase_parallel", input, ctx);
  auto relaxed = pp::registry::run("sssp/relaxed", input, ctx.with_relax_k(4));
  pp::trace::set_enabled(false);
  ASSERT_EQ(phase.status, pp::run_status::ok);
  ASSERT_EQ(relaxed.status, pp::run_status::ok);

  EXPECT_GE(records_named("run").size(), 2u);
  EXPECT_GE(records_named("pool/lease_acquire").size(), 1u);
  auto rounds = records_named("phase/round");
  ASSERT_FALSE(rounds.empty());
  // Round events carry (round index, frontier size) args.
  ASSERT_NE(rounds[0].k1, nullptr);
  EXPECT_EQ(std::string(rounds[0].k1), "round");
  ASSERT_NE(rounds[0].k2, nullptr);
  EXPECT_EQ(std::string(rounds[0].k2), "frontier");
  auto workers = records_named("mq/worker");
  ASSERT_FALSE(workers.empty());
  uint64_t popped = 0;
  for (const record& r : workers) {
    ASSERT_NE(r.k1, nullptr);
    EXPECT_EQ(std::string(r.k1), "popped");
    popped += r.v1;
  }
  // The spans' popped args reconcile with the envelope's counter.
  EXPECT_EQ(popped, relaxed.stats.popped);
}

// ---- metrics ----------------------------------------------------------------

TEST(Metrics, CounterAndGaugeSemantics) {
  pp::metrics::reset_for_tests();
  auto& m = pp::metrics::catalog::get();
  EXPECT_EQ(m.serve_submitted.value(), 0u);
  m.serve_submitted.inc();
  m.serve_submitted.inc(4);
  EXPECT_EQ(m.serve_submitted.value(), 5u);
  EXPECT_EQ(std::string(m.serve_submitted.name()), "pp_serve_submitted_total");

  m.serve_queue_depth.set(17);
  EXPECT_EQ(m.serve_queue_depth.value(), 17);
  m.serve_queue_depth.add(3);
  m.serve_queue_depth.sub(20);
  EXPECT_EQ(m.serve_queue_depth.value(), 0);
  pp::metrics::reset_for_tests();
}

TEST(Metrics, HistogramLogBuckets) {
  using pp::metrics::histogram;
  // le bounds are 2^0..2^30 then +Inf: v lands in the smallest bucket
  // whose bound covers it.
  EXPECT_EQ(histogram::bucket_index(0), 0);
  EXPECT_EQ(histogram::bucket_index(1), 0);
  EXPECT_EQ(histogram::bucket_index(2), 1);
  EXPECT_EQ(histogram::bucket_index(3), 2);
  EXPECT_EQ(histogram::bucket_index(4), 2);
  EXPECT_EQ(histogram::bucket_index(5), 3);
  EXPECT_EQ(histogram::bucket_index(1u << 30), 30);
  EXPECT_EQ(histogram::bucket_index((1u << 30) + 1), histogram::kFiniteBuckets);
  EXPECT_EQ(histogram::bucket_index(UINT64_MAX), histogram::kFiniteBuckets);

  pp::metrics::reset_for_tests();
  auto& h = pp::metrics::catalog::get().serve_latency_interactive;
  for (uint64_t v : {0ull, 1ull, 2ull, 3ull, 1000000ull}) h.observe(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 1000006u);
  EXPECT_EQ(h.bucket(0), 2u);  // 0 and 1
  EXPECT_EQ(h.bucket(1), 1u);  // 2
  EXPECT_EQ(h.bucket(2), 1u);  // 3
  EXPECT_EQ(h.bucket(20), 1u);  // 1000000 <= 2^20
  pp::metrics::reset_for_tests();
}

// Prometheus render golden. Every registered metric name must appear
// here by its full literal spelling — tools/pplint.py's metrics-coverage
// rule greps this file (and README.md) for each name registered in
// src/core/metrics.cpp.
TEST(Metrics, PrometheusRenderGolden) {
  pp::metrics::reset_for_tests();
  auto& m = pp::metrics::catalog::get();
  m.serve_submitted.inc(3);
  m.serve_queue_depth.set(2);
  m.serve_latency_interactive.observe(4);
  std::string out = pp::metrics::render_prometheus();

  const char* kAllNames[] = {
      "pp_serve_submitted_total",
      "pp_serve_completed_total",
      "pp_serve_failed_total",
      "pp_serve_expired_total",
      "pp_serve_cancelled_total",
      "pp_serve_cache_hits_total",
      "pp_serve_cache_misses_total",
      "pp_serve_deduped_total",
      "pp_serve_queue_depth",
      "pp_serve_inflight_runs",
      "pp_serve_latency_interactive_usec",
      "pp_serve_latency_batch_usec",
      "pp_trace_ring_overwrites_total",
      "pp_pool_leases_total",
      "pp_mq_popped_total",
      "pp_mq_wasted_total",
      "pp_mq_retries_total",
  };
  for (const char* name : kAllNames) {
    EXPECT_NE(out.find(std::string("# HELP ") + name + " "), std::string::npos) << name;
    EXPECT_NE(out.find(std::string("# TYPE ") + name + " "), std::string::npos) << name;
  }

  // Exact sample lines (text exposition format).
  EXPECT_NE(out.find("# TYPE pp_serve_submitted_total counter\n"), std::string::npos);
  EXPECT_NE(out.find("\npp_serve_submitted_total 3\n"), std::string::npos);
  EXPECT_NE(out.find("# TYPE pp_serve_queue_depth gauge\n"), std::string::npos);
  EXPECT_NE(out.find("\npp_serve_queue_depth 2\n"), std::string::npos);
  EXPECT_NE(out.find("# TYPE pp_serve_latency_interactive_usec histogram\n"),
            std::string::npos);
  // 4 lands in le=4; cumulative from there on, through +Inf == count.
  EXPECT_NE(out.find("pp_serve_latency_interactive_usec_bucket{le=\"2\"} 0\n"),
            std::string::npos);
  EXPECT_NE(out.find("pp_serve_latency_interactive_usec_bucket{le=\"4\"} 1\n"),
            std::string::npos);
  EXPECT_NE(out.find("pp_serve_latency_interactive_usec_bucket{le=\"+Inf\"} 1\n"),
            std::string::npos);
  EXPECT_NE(out.find("pp_serve_latency_interactive_usec_sum 4\n"), std::string::npos);
  EXPECT_NE(out.find("pp_serve_latency_interactive_usec_count 1\n"), std::string::npos);
  pp::metrics::reset_for_tests();
}

}  // namespace
