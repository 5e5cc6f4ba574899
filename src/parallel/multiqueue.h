// Relaxed k-MultiQueue priority scheduler (Alistarh et al., "Relaxed
// Schedulers Can Efficiently Parallelize Iterative Algorithms").
//
// The phase-parallel runners in this repo synchronize every round: all
// objects of rank r finish before any object of rank r+1 starts. That
// barrier is exactly what hurts on high-diameter SSSP (thousands of tiny
// rounds) and sparse-frontier MIS tails (rounds of O(remaining) scan work
// for a handful of decisions). The MultiQueue drops the barrier: workers
// pull the *approximately* smallest-priority element and tolerate bounded
// priority inversion, paying for it in wasted pops instead of idle
// barriers.
//
// Structure (the classic construction, with a hot path that never sleeps
// on a lock):
//   * max(2, 2k) sharded sequential binary-heap priority queues, where k
//     is `context::relax_k` — the relaxation factor and the ablation axis
//     of bench/ablation_relaxed. Each shard mirrors its top priority (or
//     "empty") in an atomic, rewritten under the shard lock by every push
//     and pop;
//   * push inserts into one uniformly random shard, taken with try_lock; a
//     held shard sends the element to the next random shard (a bounded
//     number of times; then it waits for the lock of one more);
//   * try_pop reads the atomic tops of two distinct random shards without
//     locking either, try_locks the one with the better top and pops it
//     (best-of-two). A held or just-emptied shard makes it draw a fresh
//     pair; after a bounded number of attempts, or when both tops read
//     empty, a blocking sweep over every non-empty shard drains the tail;
//   * elements may be inserted more than once (SSSP re-pushes an improved
//     vertex); the *solver* claims an element with a CAS on its own state
//     and reports a stale claim back as `wasted`, so duplicates are cheap
//     retries, never double work;
//   * termination is an atomic in-flight counter that never under-counts.
//     Seeding pushes count themselves. A worker buffers the k successors
//     its claim pushes; once process() returns it applies one `+= k - 1`
//     (retiring the claim and counting the successors before any of them
//     is visible, no update at all when k == 1) and then inserts them. So
//     counter==0 means no element exists anywhere and none is being
//     processed.
//
// On one worker no try_lock can fail and the atomic tops are exact, so the
// shard draws, and with them the schedule, are those of the plain locked
// construction: each pop draws one pair, each successor one shard, in
// push order.
//
// Composition with the rest of the runtime:
//   * Workers are the run's leased pool: mq_run drives one worker loop per
//     num_workers(ctx) slot via parallel_for(ctx, ...) under the caller's
//     run_scope, so the MultiQueue leases its worker set from the same
//     pool_cache as every phase solver and composes with pp::serve's
//     exclusive pool leases (no thread of its own, ever).
//   * Cancellation: worker loops poll the context's token (the
//     non-throwing cancelled() form — a throw on a pool worker would
//     escape its job) every kCancelStride claims and cooperatively abort;
//     mq_run re-checks via cancel_point() after the join, on the run's own
//     thread, where run_scope installed the token. The unwind then follows
//     the standard phase-solver path (run_timed -> run_status::cancelled).
//   * Counters: every worker accumulates popped/wasted/retries and the
//     solver's relaxations locally and merges once at exit; solvers copy
//     them into phase_stats so they ride the existing run_result envelope
//     (relaxation cost = wasted/popped).
//
// Randomness is pp::random_stream per worker (seeded from ctx.seed and the
// worker index) — no std::rand, no clocks, so a run is reproducible in its
// (seed, workers, k) triple even though the *schedule* is not.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "core/annotations.h"
#include "core/context.h"
#include "core/metrics.h"
#include "core/trace.h"
#include "parallel/api.h"
#include "parallel/random.h"

namespace pp {

// Counters a MultiQueue run exposes through phase_stats / run_result.
struct mq_counters {
  uint64_t popped = 0;       // claims handed to the solver
  uint64_t wasted = 0;       // claims the solver reported stale (already decided)
  uint64_t retries = 0;      // failed pop attempts + solver-requested re-inserts
  uint64_t relaxations = 0;  // solver-reported edge relaxations (SSSP)

  // The price of relaxation: fraction of claims that were wasted.
  double relaxation_cost() const {
    return popped == 0 ? 0.0 : static_cast<double>(wasted) / static_cast<double>(popped);
  }
};

class multiqueue {
 public:
  // Smaller priority = more urgent (vertex rank, tentative distance). The
  // largest uint64_t is reserved: the shard tops use it to mean "empty".
  struct entry {
    uint64_t priority;
    uint32_t item;
  };

  // max(2, 2*relax_k) shards: k=1 degenerates to the contended two-queue
  // baseline, larger k spreads insert/pop traffic at the cost of a worse
  // rank-error bound (more wasted work) — the trade the bench measures.
  static size_t shard_count(unsigned relax_k) {
    return std::max<size_t>(2, 2 * static_cast<size_t>(relax_k));
  }

  explicit multiqueue(unsigned relax_k) : shards_(shard_count(relax_k)) {
    for (auto& s : shards_) s = std::make_unique<shard>();
  }

  multiqueue(const multiqueue&) = delete;
  multiqueue& operator=(const multiqueue&) = delete;

  size_t num_shards() const { return shards_.size(); }

  // Seed one element into a random shard. `rs`/`draw` are the caller's
  // random stream and draw cursor (stateless hashing, so reproducible).
  // For the seeding code before mq_run starts; worker loops push through
  // mq_worker, which counts a claim's successors in one update.
  void push(uint64_t priority, uint32_t item, const random_stream& rs, uint64_t& draw) {
    // in_flight rises before the element is visible, so no worker can ever
    // observe "queues empty, counter zero" while an element is in transit.
    in_flight_.fetch_add(1, std::memory_order_relaxed);
    insert(entry{priority, item}, rs, draw);
  }

  // Best-of-two delete-min: compare the atomic tops of two distinct random
  // shards and pop the better one if its lock is free; otherwise draw a
  // fresh pair. After kLockAttempts misses, or once both tops read empty,
  // sweep every non-empty shard under its lock so the last few elements of
  // a draining queue are still found. Returns false if every shard was
  // empty at the moment it was inspected.
  bool try_pop(entry& out, const random_stream& rs, uint64_t& draw) {
    const size_t n = shards_.size();
    size_t a = 0;
    for (int attempt = 0; attempt < kLockAttempts; ++attempt) {
      a = rs.ith_bounded(draw++, n);
      size_t b = rs.ith_bounded(draw++, n);
      if (a == b) b = (b + 1) % n;
      const uint64_t pa = shards_[a]->top.load(std::memory_order_acquire);
      const uint64_t pb = shards_[b]->top.load(std::memory_order_acquire);
      if (pa == kEmpty && pb == kEmpty) break;
      shard& s = *shards_[pa <= pb ? a : b];
      if (!s.m.try_lock()) continue;  // held: another pair, never a sleep
      const bool got = pop_locked(s, out);
      s.m.unlock();
      if (got) return true;  // else another worker emptied it first
    }
    for (size_t i = 0; i < n; ++i) {
      shard& s = *shards_[(a + i) % n];
      if (s.top.load(std::memory_order_acquire) == kEmpty) continue;
      sync::lock_guard<sync::mutex> lk(s.m);
      if (pop_locked(s, out)) return true;
    }
    return false;
  }

  // Zero iff no element is queued or being processed (see mq_worker).
  int64_t in_flight() const { return in_flight_.load(std::memory_order_acquire); }

  // Cooperative abort (cancellation): all worker loops observe this and
  // exit without draining.
  void abort() { abort_.store(true, std::memory_order_release); }
  bool aborted() const { return abort_.load(std::memory_order_acquire); }

 private:
  friend class mq_worker;

  static constexpr uint64_t kEmpty = ~uint64_t{0};
  // Shards a pop or push tries with try_lock before it falls back to a
  // blocking lock (the pop's sweep, the push's last shard): progress
  // without sleeping on the hot path.
  static constexpr int kLockAttempts = 4;

  // std::push_heap builds a max-heap; invert so the top is the *smallest*
  // priority.
  static bool later(const entry& x, const entry& y) { return x.priority > y.priority; }

  // Padded so two shards' locks never share a cache line.
  struct alignas(64) shard {
    sync::mutex m;
    std::vector<entry> heap PP_GUARDED_BY(m);
    // heap.front().priority, or kEmpty; stored under m, read without it.
    std::atomic<uint64_t> top{kEmpty};
  };

  static void push_locked(shard& s, const entry& e) PP_REQUIRES(s.m) {
    s.heap.push_back(e);
    std::push_heap(s.heap.begin(), s.heap.end(), later);
    s.top.store(s.heap.front().priority, std::memory_order_release);
  }

  static bool pop_locked(shard& s, entry& out) PP_REQUIRES(s.m) {
    if (s.heap.empty()) return false;
    out = s.heap.front();
    std::pop_heap(s.heap.begin(), s.heap.end(), later);
    s.heap.pop_back();
    s.top.store(s.heap.empty() ? kEmpty : s.heap.front().priority, std::memory_order_release);
    return true;
  }

  // Insert without touching in_flight (the caller has counted `e`). Up to
  // kLockAttempts - 1 try_locks on fresh draws, then a blocking lock on
  // one more; on one worker the first try_lock always succeeds, so an
  // insert costs exactly one draw.
  void insert(const entry& e, const random_stream& rs, uint64_t& draw) {
    const size_t n = shards_.size();
    for (int attempt = 1; attempt < kLockAttempts; ++attempt) {
      shard& s = *shards_[rs.ith_bounded(draw++, n)];
      if (s.m.try_lock()) {
        push_locked(s, e);
        s.m.unlock();
        return;
      }
    }
    shard& s = *shards_[rs.ith_bounded(draw++, n)];
    sync::lock_guard<sync::mutex> lk(s.m);
    push_locked(s, e);
  }

  // Read on every pop and push; kept off the line that the counter's
  // updates keep invalidating.
  std::vector<std::unique_ptr<shard>> shards_;
  alignas(64) std::atomic<int64_t> in_flight_{0};
  alignas(64) std::atomic<bool> abort_{false};  // read once per loop iteration
};

// Per-worker view of a multiqueue: the worker's private random stream,
// local counters and the successors of the claim being processed. Passed
// to the solver's process function so re-inserts ("a claimed element
// re-inserts its invalidated neighbors") go through the same worker-local
// randomness.
class mq_worker {
 public:
  // Buffered until process() returns (see publish()).
  void push(uint64_t priority, uint32_t item) { pending_.push_back({priority, item}); }

  // A claim the solver could not apply yet (dependencies unresolved):
  // put it back and count the retry.
  void retry(uint64_t priority, uint32_t item) {
    pending_.push_back({priority, item});
    ++counters_.retries;
  }

  // A claim that was stale — the element was already decided elsewhere.
  void wasted() { ++counters_.wasted; }

  // Edge relaxations the claim performed (SSSP's work measure).
  void relaxations(uint64_t count) { counters_.relaxations += count; }

  const mq_counters& counters() const { return counters_; }

 private:
  template <typename Process>
  friend mq_counters mq_run(const context&, multiqueue&, Process&&);

  mq_worker(multiqueue& q, uint64_t seed, unsigned index)
      : q_(q), rs_(random_stream(seed).fork(0x4d51u /*'MQ'*/ + index)) {}

  // The claim is processed: one counter update retires it and counts its
  // k successors (none when k == 1), then they become visible, each in
  // its own random shard.
  void publish() {
    const auto k = static_cast<int64_t>(pending_.size());
    if (k != 1) q_.in_flight_.fetch_add(k - 1, std::memory_order_acq_rel);
    for (const multiqueue::entry& e : pending_) q_.insert(e, rs_, draw_);
    pending_.clear();
  }

  multiqueue& q_;
  random_stream rs_;
  uint64_t draw_ = 0;
  mq_counters counters_;
  std::vector<multiqueue::entry> pending_;
};

// Drive `process(worker, priority, item)` over the queue until it is
// globally drained (in-flight counter reaches zero) or the context's
// cancel token fires. One worker loop per num_workers(ctx) slot, scheduled
// with parallel_for over the caller's leased pool — callers hold a
// run_scope (every registry solver does), so this composes with pool_cache
// and pp::serve leases. Returns the merged counters.
//
// The loops never block on each other: a pop or push that finds its shard
// held moves to another shard, a claim costs at most one shared-counter
// update, and an empty pop with work still in flight is a counted retry +
// yield. Only the tail sweep and a push that keeps missing wait for a
// shard lock, and then only for one heap operation. That
// makes the driver safe even if the backend runs two worker slots on one
// thread sequentially — the first slot simply drains the queue alone and
// the second exits immediately.
template <typename Process>
mq_counters mq_run(const context& ctx, multiqueue& q, Process&& process) {
  cancel_point();  // pre-cancelled runs unwind before any worker starts
  const unsigned workers = std::max(1u, num_workers(ctx));
  // Poll the token often enough for prompt unwinds but off the hot path.
  constexpr uint64_t kCancelStride = 64;
  std::vector<mq_counters> per_worker(workers);

  auto loop = [&](size_t w) {
    mq_worker self(q, ctx.seed, static_cast<unsigned>(w));
    // One span per worker-loop chunk; popped/wasted attached at the end,
    // once the counts exist.
    trace_span span("mq/worker");
    uint64_t since_poll = 0;
    multiqueue::entry e;
    while (!q.aborted()) {
      if (++since_poll >= kCancelStride) {
        since_poll = 0;
        // Non-throwing poll: this may run on a pool worker thread, where a
        // cancel_point() throw would escape the job. mq_run re-checks (and
        // throws) after the join, on the run's own thread.
        if (ctx.cancel.cancelled()) {
          q.abort();
          break;
        }
      }
      if (q.try_pop(e, self.rs_, self.draw_)) {
        ++self.counters_.popped;
        process(self, e.priority, e.item);
        self.publish();  // retires the claim, then its successors go in
      } else {
        if (q.in_flight() == 0) break;  // globally drained
        ++self.counters_.retries;
        std::this_thread::yield();  // straggler holds the last elements
      }
    }
    per_worker[w] = self.counters_;
    span.args("popped", self.counters_.popped, "wasted", self.counters_.wasted);
  };
  // grain=1 pins one loop per slot; the loops do their own load balancing
  // through the queue, so splitting would only serialize them.
  parallel_for(ctx, 0, workers, loop, /*grain=*/1);

  cancel_point();  // outside every parallel region, on the run's thread

  mq_counters total;
  for (const mq_counters& c : per_worker) {
    total.popped += c.popped;
    total.wasted += c.wasted;
    total.retries += c.retries;
    total.relaxations += c.relaxations;
  }
  // One aggregated bump per run, not per pop: the hot loop stays free of
  // shared-cacheline traffic.
  metrics::catalog& m = metrics::catalog::get();
  m.mq_popped.inc(total.popped);
  m.mq_wasted.inc(total.wasted);
  m.mq_retries.inc(total.retries);
  return total;
}

}  // namespace pp
