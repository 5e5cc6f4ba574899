// Public fork-join API: pp::par_do and pp::parallel_for.
//
// These are the only two control primitives the rest of the library uses;
// everything else (reduce, scan, sort, the phase-parallel runners) is built
// on top of them, mirroring the binary-forking model of the paper (Sec. 2).
//
// Both come in two forms: an explicit-context overload
// (`parallel_for(ctx, lo, hi, f)`) and a convenience form that runs under
// pp::current_context(). Solvers install their context argument with
// run_scope at entry, so either form observes the right backend, worker
// count, grain and seed.
//
// Inheritance rule: a fork runs under its parent's context. On the native
// backend the right child of a par_do may be stolen; the job carries the
// forking thread's current context and the thief installs it while it
// runs the child, so current_context() is the same on every thread of one
// run's fork tree — and a concurrent run on another thread never sees it.
#pragma once

#include <cstddef>
#include <utility>

#include "core/context.h"
#include "core/trace.h"
#include "parallel/backend.h"
#include "parallel/scheduler.h"

namespace pp {

// The number of workers a run under `ctx` actually executes on: 1 on the
// sequential backend; on the native backend the width of the pool the
// calling thread is already pinned to (a run keeps its pool from fork to
// join), else the width a fresh lease would have — ctx.workers, or the
// PP_THREADS/hardware default when 0. The auto_grain heuristic reads this
// same value.
inline unsigned num_workers(const context& ctx) {
  if (ctx.backend == backend_kind::sequential) return 1;
  if (const detail::work_stealing_pool* pool = detail::this_thread_pool())
    return pool->num_workers();
  return detail::resolve_native_workers(ctx.workers);
}

inline unsigned num_workers() { return num_workers(current_context()); }

// RAII scheduler binding for one top-level run. On the native backend it
// leases a work-stealing pool of exactly num_workers(ctx) workers and pins
// the calling thread to it; nested constructions (a run inside a run)
// reuse the already-pinned pool. `workers()` is the honest count stamped
// into run_result.
class scoped_scheduler {
 public:
  explicit scoped_scheduler(const context& ctx) {
    if (ctx.backend == backend_kind::sequential) return;
    if (const detail::work_stealing_pool* pool = detail::this_thread_pool()) {
      workers_ = pool->num_workers();
    } else {
      lease_ = detail::pool_lease(detail::resolve_native_workers(ctx.workers));
      workers_ = lease_.width();
    }
  }

  scoped_scheduler(const scoped_scheduler&) = delete;
  scoped_scheduler& operator=(const scoped_scheduler&) = delete;

  unsigned workers() const { return workers_; }

 private:
  detail::pool_lease lease_;
  unsigned workers_ = 1;
};

// What every ctx-form solver entry installs: activates `c` for the
// implicit parallel_for/par_do forms (scoped_context), binds the run's
// scheduler (scoped_scheduler) so the whole solve executes on one leased
// pool instead of paying a lease cycle per top-level parallel region, AND
// installs the context's cancel token for this thread (scoped_cancel) so
// the phase loops' cancel_point() polls the right run's token — and only
// it.
class run_scope {
 public:
  explicit run_scope(const context& c)
      : span_("run", "workers", c.workers, "seed", c.seed),
        scope_(c),
        sched_(c),
        cancel_(c.cancel) {}
  unsigned workers() const { return sched_.workers(); }

 private:
  // First member: the whole-run trace span covers scheduler binding
  // (lease acquire) through teardown (lease release).
  trace_span span_;
  scoped_context scope_;
  scoped_scheduler sched_;
  scoped_cancel cancel_;
};

namespace detail {

template <typename L, typename R>
void par_do_native(const context& ctx, L&& left, R&& right) {
  work_stealing_pool* pool = this_thread_pool();
  pool_lease lease;
  if (pool == nullptr) {
    // Outermost fork of a run that was not dispatched through
    // registry::run/run_timed: lease a pool of the context's width for the
    // duration of this fork-join tree.
    lease = pool_lease(resolve_native_workers(ctx.workers));
    pool = this_thread_pool();
  }
  if (pool->num_workers() == 1) {
    // A 1-wide pool has no other workers: run strictly sequentially
    // instead of cycling jobs through the deque.
    left();
    right();
    return;
  }
  fn_job<R> rjob(right, tl_context);
  pool->push(&rjob);
  left();
  if (pool->try_pop_specific(&rjob)) {
    right();
  } else {
    pool->wait_for(rjob);
  }
}

}  // namespace detail

// Run `left` and `right`, potentially in parallel; returns when both are
// done (a binary fork).
template <typename L, typename R>
void par_do(const context& ctx, L&& left, R&& right) {
  if (ctx.backend == backend_kind::sequential) {
    left();
    right();
    return;
  }
  detail::par_do_native(ctx, std::forward<L>(left), std::forward<R>(right));
}

template <typename L, typename R>
void par_do(L&& left, R&& right) {
  par_do(current_context(), std::forward<L>(left), std::forward<R>(right));
}

namespace detail {

// Serial cutoff: auto_grain never makes a piece smaller than this many
// iterations, so a loop of up to kSerialCutoff iterations runs inline and
// never forks. A fork costs a deque lock and a possible wake-up, which on
// a per-element body dwarfs the iteration itself; round-heavy solves run a
// small frontier loop in every round. The PAM idiom (fork only when
// n > 256) is the model.
inline constexpr size_t kSerialCutoff = 256;

// Grain heuristic: enough sub-ranges to balance (8 per worker), but never
// fewer than kSerialCutoff iterations per piece. A parallel for-loop has
// O(log n) span from the recursive splitting, matching the model in the
// paper. The cutoff assumes a per-element body: a coarse loop, whose body
// handles a whole block (the scan and counting-sort block loops, the
// MultiQueue's per-worker loop), passes an explicit grain of 1; the range
// tree's per-node build loops pass kSerialCutoff / node size.
inline size_t auto_grain(size_t n, unsigned workers) {
  size_t pieces = static_cast<size_t>(workers) * 8;
  size_t g = n / (pieces == 0 ? 1 : pieces);
  return g < kSerialCutoff ? kSerialCutoff : g;
}

// The grain a loop of n iterations runs at under `ctx`: an explicit
// per-call grain, else ctx.grain, else auto_grain. The sequential backend
// never splits.
inline size_t resolve_grain(const context& ctx, size_t n, size_t grain) {
  if (ctx.backend == backend_kind::sequential) return n;
  if (grain == 0) grain = ctx.grain;
  return grain != 0 ? grain : auto_grain(n, num_workers(ctx));
}

template <typename F>
void parallel_for_rec(const context& ctx, size_t lo, size_t hi, F& f, size_t grain) {
  if (hi - lo <= grain) {
    for (size_t i = lo; i < hi; ++i) f(i);
    return;
  }
  size_t mid = lo + (hi - lo) / 2;
  par_do(
      ctx, [&] { parallel_for_rec(ctx, lo, mid, f, grain); },
      [&] { parallel_for_rec(ctx, mid, hi, f, grain); });
}

}  // namespace detail

// Apply f(i) for i in [lo, hi). `grain` = 0 defers to ctx.grain, then to
// the auto heuristic (see detail::resolve_grain).
template <typename F>
void parallel_for(const context& ctx, size_t lo, size_t hi, F f, size_t grain = 0) {
  if (hi <= lo) return;
  detail::parallel_for_rec(ctx, lo, hi, f, detail::resolve_grain(ctx, hi - lo, grain));
}

template <typename F>
void parallel_for(size_t lo, size_t hi, F f, size_t grain = 0) {
  parallel_for(current_context(), lo, hi, std::move(f), grain);
}

}  // namespace pp
