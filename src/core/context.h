// Execution context: the single configuration surface for every
// phase-parallel run.
//
// A `pp::context` bundles the parallel backend, the worker count, the RNG
// seed, the parallel-for grain, and algorithm policy knobs (the Type-2
// pivot policy, the relaxed-scheduler factor). Every solver in src/algos/
// takes a `const context&`; `parallel_for`/`par_do` consult the *current*
// context (api.h), so a solver that enters a `scoped_context` threads its
// configuration through every fork underneath it.
//
// Three levels:
//   * default_context() — mutable process-wide defaults (what `main` or a
//     CLI flag parser edits once at startup);
//   * current_context() — the context of the run executing on this thread:
//     the innermost scoped_context, or the defaults when none is active;
//   * scoped_context    — RAII activation of a context for one run; solver
//     entry points install their argument with it.
//
// The active context belongs to the run's fork tree, not to the process
// (the paper's binary-forking model, Sec. 2). A scope sets a thread-local
// pointer; par_do records the forking thread's pointer in the job it
// pushes, and a thief installs it while running that job (parallel/api.h).
// Concurrent runs on different threads therefore never see each other's
// settings, and reading the current context takes no lock.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/cancel.h"
#include "parallel/backend.h"

namespace pp {

// How a blocked Type-2 object picks the unfinished dominated object to
// sleep on (core/dominance_dp.h).
enum class pivot_policy {
  uniform_random,  // Algorithm 3 as analyzed (Lemma 5.4/5.5)
  rightmost,       // the heuristic used in the paper's experiments (Sec. 6.4)
};

inline const char* pivot_policy_name(pivot_policy p) {
  return p == pivot_policy::uniform_random ? "uniform_random" : "rightmost";
}

struct context {
  backend_kind backend = backend_kind::native;
  unsigned workers = 0;  // 0 = backend default (PP_THREADS, else hardware threads)
  uint64_t seed = 1;     // seed for every random choice a solver makes
  size_t grain = 0;      // parallel_for grain; 0 = auto heuristic
  pivot_policy pivot = pivot_policy::rightmost;
  // Relaxation factor k for the relaxed k-MultiQueue execution mode
  // (parallel/multiqueue.h): the scheduler shards work over max(2, 2k)
  // sequential priority queues, so larger k trades contention for bounded
  // priority inversion (more wasted work). Ignored by phase/sequential
  // solvers.
  unsigned relax_k = 4;
  // Cooperative cancellation handle (core/cancel.h). Null by default; when
  // set, run_scope installs it for the run's thread and the phase loops
  // poll it between rounds. It never changes what a run computes, only
  // whether it finishes.
  cancel_token cancel{};

  // Value-style builders so call sites can derive variants in one line:
  //   registry::run(name, in, ctx.with_backend(backend_kind::sequential))
  context with_backend(backend_kind b) const {
    context c = *this;
    c.backend = b;
    return c;
  }
  context with_workers(unsigned w) const {
    context c = *this;
    c.workers = w;
    return c;
  }
  context with_seed(uint64_t s) const {
    context c = *this;
    c.seed = s;
    return c;
  }
  context with_grain(size_t g) const {
    context c = *this;
    c.grain = g;
    return c;
  }
  context with_pivot(pivot_policy p) const {
    context c = *this;
    c.pivot = p;
    return c;
  }
  context with_cancel(cancel_token t) const {
    context c = *this;
    c.cancel = std::move(t);
    return c;
  }
  context with_relax_k(unsigned k) const {
    context c = *this;
    c.relax_k = k;
    return c;
  }
};

// Process-wide defaults; mutable so startup code can configure them once.
inline context& default_context() {
  static context c;
  return c;
}

// Per-item execution seed for item `i` of a batch run under base seed
// `seed`: one SplitMix64 step over (seed, i). The rule lives here — not
// inside the registry — because it is part of the public batching
// contract: item i of registry::run_batch(name, inputs, ctx) executes
// under ctx.with_seed(derive_seed(ctx.seed, i)), so a batch is
// reproducible item-by-item with plain registry::run calls.
inline uint64_t derive_seed(uint64_t seed, uint64_t i) {
  uint64_t x = seed + (i + 1) * 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

namespace detail {
// The context of the run executing on this thread; null = the defaults.
inline thread_local const context* tl_context = nullptr;
}  // namespace detail

// The context governing the computation running on this thread: the
// innermost scoped_context (inherited across forks), else the defaults.
inline const context& current_context() {
  const context* c = detail::tl_context;
  return c != nullptr ? *c : default_context();
}

// RAII activation: while alive, current_context() on this thread — and on
// every thread that runs a fork of this thread — returns `c`. Scopes nest
// (an inner scope shadows, the destructor restores the enclosing one) and
// must be destroyed on the thread that created them.
class scoped_context {
 public:
  explicit scoped_context(const context& c) : ctx_(c), saved_(detail::tl_context) {
    detail::tl_context = &ctx_;
  }
  ~scoped_context() { detail::tl_context = saved_; }

  scoped_context(const scoped_context&) = delete;
  scoped_context& operator=(const scoped_context&) = delete;

 private:
  context ctx_;
  const context* saved_;
};

}  // namespace pp
