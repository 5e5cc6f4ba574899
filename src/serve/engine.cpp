#include "serve/engine.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "core/json.h"
#include "core/metrics.h"
#include "core/trace.h"

namespace pp::serve {

namespace detail {
// Invoke a user response callback with exception isolation: a throwing
// callback must neither escape an executor std::thread (std::terminate)
// nor propagate out of submit() on the admission-rejection path, and must
// not trip the execution error path into re-delivering promises.
inline void guarded_invoke(const std::function<void(response)>& cb, response&& r) {
  try {
    cb(std::move(r));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pp::serve: response callback threw: %s\n", e.what());
  } catch (...) {
    std::fprintf(stderr, "pp::serve: response callback threw\n");
  }
}
}  // namespace detail

namespace {

// Resolve the 0 = "partition the machine evenly" default.
unsigned resolve_workers_per_run(unsigned requested, unsigned max_inflight) {
  if (requested >= 1) return requested;
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  unsigned share = hw / (max_inflight == 0 ? 1 : max_inflight);
  return share == 0 ? 1 : share;
}

std::future<response> ready_error(std::string err, std::atomic<uint64_t>& failed,
                                  const std::function<void(response)>& cb) {
  response r;
  r.error = std::move(err);
  failed.fetch_add(1, std::memory_order_relaxed);
  if (cb) {
    detail::guarded_invoke(cb, std::move(r));
    return {};
  }
  std::promise<response> prom;
  auto fut = prom.get_future();
  prom.set_value(std::move(r));
  return fut;
}

}  // namespace

engine::engine(engine_options opt) : opts_(std::move(opt)) {
  if (opts_.max_inflight_runs == 0) opts_.max_inflight_runs = 1;
  if (opts_.queue_capacity == 0) opts_.queue_capacity = 1;
  exec_ctx_ = opts_.ctx.with_workers(
      resolve_workers_per_run(opts_.workers_per_run, opts_.max_inflight_runs));
  executors_.reserve(opts_.max_inflight_runs);
  for (unsigned i = 0; i < opts_.max_inflight_runs; ++i)
    executors_.emplace_back([this] { executor_loop(); });
}

engine::~engine() { stop(/*drain=*/true); }

std::future<response> engine::submit(request req) {
  return enqueue(std::move(req), nullptr);
}

void engine::submit(request req, std::function<void(response)> cb) {
  enqueue(std::move(req), std::move(cb));
}

std::future<response> engine::enqueue(request&& req, std::function<void(response)> cb) {
  // Validate at admission, not execution: a malformed request never
  // takes a queue slot, and deduped waiters never ride an execution that
  // would fail for a reason of its own.
  const solver_info* si = registry::instance().info(req.solver);
  if (si == nullptr) {
    metrics::catalog::get().serve_failed.inc();
    return ready_error("unknown solver '" + req.solver + "'", failed_, cb);
  }
  if (si->problem != problem_name_of(req.input)) {
    metrics::catalog::get().serve_failed.inc();
    return ready_error("solver '" + req.solver + "' expects a '" + si->problem +
                           "' input, got '" + std::string(problem_name_of(req.input)) + "'",
                       failed_, cb);
  }
  // A deadline already in the past never enters the queue: reject it here
  // (an `expired` response) instead of letting it occupy bounded capacity
  // just to be dropped at pop time.
  if (req.deadline && *req.deadline <= std::chrono::steady_clock::now()) {
    metrics::catalog::get().serve_expired.inc();
    return ready_error("expired: deadline passed before admission", expired_, cb);
  }

  pending p;
  p.solver = std::move(req.solver);
  p.input = std::move(req.input);
  p.submit_time = std::chrono::steady_clock::now();
  p.deadline = req.deadline;
  p.prio = req.prio;
  p.session = std::move(req.session);
  p.cb = std::move(cb);
  // Fingerprint outside the lock: the canonicalization pass is O(input)
  // and must not serialize against executors sweeping the queues.
  p.fp = fingerprint_of(p.input);
  std::future<response> fut;
  if (!p.cb) fut = p.prom.get_future();

  response hit;
  bool from_cache = false;
  {
    sync::unique_lock<sync::mutex> lk(m_);
    {
      // Backpressure wait: how long admission blocked on a full queue.
      trace_span qw("serve/queue_wait");
      // Spelled as a loop, not wait(lk, pred): the predicate reads
      // m_-guarded state, and a lambda is analyzed by -Wthread-safety as a
      // separate function that cannot see the lock is held at the call site.
      while (!stopping_ && queued_locked() >= opts_.queue_capacity) not_full_.wait(lk);
    }
    if (stopping_) {
      lk.unlock();
      response r;
      r.error = "engine stopped";
      failed_.fetch_add(1, std::memory_order_relaxed);
      metrics::catalog::get().serve_failed.inc();
      deliver(p, std::move(r));
      return fut;
    }
    p.seed = req.seed ? *req.seed : reserve_anonymous_seed();
    if (cache_lookup_locked(key_of(p), hit)) {
      from_cache = true;  // delivered below, outside the lock
    } else {
      if (opts_.cache_entries > 0) {
        cache_misses_.fetch_add(1, std::memory_order_relaxed);
        metrics::catalog::get().serve_cache_misses.inc();
      }
      if (attach_dup_locked(p)) {
        // Collapsed onto an identical execution: no queue entry, no
        // notify (nothing new became runnable).
        deduped_.fetch_add(1, std::memory_order_relaxed);
        metrics::catalog::get().serve_deduped.inc();
        return fut;
      }
      if (!p.session.empty()) {
        // Take a position in the session's admission order. Dedup waiters
        // above never reach here: they ride their leader's position, and
        // content addressing makes their envelope order-independent.
        session_state& ss = sessions_[p.session];
        p.session_seq = ss.next_seq++;
        ss.queued.push_back(p.session_seq);
      }
      queues_[static_cast<size_t>(p.prio)].push_back(std::move(p));
      submitted_.fetch_add(1, std::memory_order_relaxed);
      metrics::catalog::get().serve_submitted.inc();
      metrics::catalog::get().serve_queue_depth.set(
          static_cast<int64_t>(queued_locked()));
    }
  }
  if (from_cache) {
    trace::instant("serve/cache_hit");
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
    metrics::catalog::get().serve_cache_hits.inc();
    completed_.fetch_add(1, std::memory_order_relaxed);
    metrics::catalog::get().serve_completed.inc();
    deliver(p, std::move(hit));
    return fut;
  }
  // notify_all, not notify_one: not_empty_ also holds executors parked
  // behind session-blocked entries, and whichever executor takes m_ first
  // pops the best runnable entry, which need not be this one. Waking every
  // idle executor (at most max_inflight_runs) lets each re-check the
  // queue now instead of leaving this request to the 1 ms backstop.
  not_empty_.notify_all();
  return fut;
}

bool engine::cache_lookup_locked(const result_key& k, response& out) {
  if (opts_.cache_entries == 0) return false;
  auto it = cache_.find(k);
  if (it == cache_.end()) return false;
  lru_.splice(lru_.begin(), lru_, it->second);  // touch
  out = it->second->resp;
  out.cached = true;
  return true;
}

void engine::cache_insert_locked(const result_key& k, const response& r) {
  if (opts_.cache_entries == 0) return;
  auto it = cache_.find(k);
  if (it != cache_.end()) {
    // Determinism: the stored envelope already IS this result. Touch it.
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (lru_.size() >= opts_.cache_entries) {
    cache_.erase(lru_.back().key);
    lru_.pop_back();
  }
  lru_.push_front(cache_entry{k, r});
  cache_.emplace(k, lru_.begin());
}

bool engine::attach_dup_locked(pending& w) {
  // Queued leaders first. O(queue) scan — the same bound every pop-time
  // sweep already pays, and capped by queue_capacity.
  for (size_t ci = 0; ci < 2; ++ci) {
    std::deque<pending>& q = queues_[ci];
    for (auto it = q.begin(); it != q.end(); ++it) {
      pending& e = *it;
      if (e.solver != w.solver || e.fp != w.fp || e.seed != w.seed) continue;
      size_t want = static_cast<size_t>(w.prio);
      if (want > ci) {
        // An interactive duplicate of a batch-class leader promotes the
        // whole group — it pops at the interactive class from now on,
        // instead of the interactive waiter queuing behind batch traffic.
        e.prio = w.prio;
        e.followers.push_back(std::move(w));
        queues_[want].push_back(std::move(e));
        q.erase(it);
      } else {
        e.followers.push_back(std::move(w));
      }
      return true;
    }
  }
  // Then running executions. A cancellable one is never registered: its
  // token fires at ITS waiters' latest deadline, and a joiner outliving
  // that would be poisoned by the shared cancellation. Such a duplicate
  // queues its own execution instead (correct, just uncollapsed).
  auto it = running_.find(result_key{w.solver, w.fp, w.seed});
  if (it != running_.end()) {
    it->second->waiters.push_back(std::move(w));
    return true;
  }
  return false;
}

cancel_token engine::start_locked(pending& p) {
  bool all = p.deadline.has_value();
  auto latest = p.deadline.value_or(std::chrono::steady_clock::time_point::min());
  for (const auto& f : p.followers) {
    if (!f.deadline) {
      all = false;
      break;
    }
    latest = std::max(latest, *f.deadline);
  }
  if (all) return cancel_token::at(latest);
  auto [it, inserted] = running_.try_emplace(key_of(p), nullptr);
  if (inserted) {
    it->second = std::make_shared<fanout>();
    p.fan = it->second;
  }
  return {};
}

void engine::finish_running_locked(pending& p, const response* ok, std::vector<pending>& out) {
  if (p.fan) {
    auto it = running_.find(key_of(p));
    // Identity check: a later execution of the same key may have
    // registered its own slot; never erase someone else's.
    if (it != running_.end() && it->second == p.fan) running_.erase(it);
    for (auto& w : p.fan->waiters) out.push_back(std::move(w));
    p.fan->waiters.clear();
    p.fan.reset();
  }
  for (auto& f : p.followers) out.push_back(std::move(f));
  p.followers.clear();
  if (ok) cache_insert_locked(key_of(p), *ok);
}

bool engine::sweep_entry_locked(pending& p, std::vector<pending>& dead,
                                std::chrono::steady_clock::time_point now) {
  for (auto it = p.followers.begin(); it != p.followers.end();) {
    if (is_expired(*it, now)) {
      dead.push_back(std::move(*it));
      it = p.followers.erase(it);
    } else {
      ++it;
    }
  }
  if (!is_expired(p, now)) return false;
  if (p.followers.empty()) return true;
  // The leader expired but other waiters still want this execution: hand
  // the role (input, fingerprint, seed, remaining followers — all shared
  // by key equality) to the first survivor and expire only the old
  // leader's promise.
  pending corpse;
  corpse.solver = p.solver;
  corpse.deadline = p.deadline;
  corpse.prom = std::move(p.prom);
  corpse.cb = std::move(p.cb);
  dead.push_back(std::move(corpse));
  pending& heir = p.followers.front();
  p.prom = std::move(heir.prom);
  p.cb = std::move(heir.cb);
  p.deadline = heir.deadline;
  p.followers.erase(p.followers.begin());
  return false;
}

bool engine::session_eligible_locked(const pending& p) const {
  if (p.session.empty()) return true;
  auto it = sessions_.find(p.session);
  if (it == sessions_.end()) return true;  // order book dropped (stop): run freely
  const session_state& ss = it->second;
  return !ss.running && !ss.queued.empty() && ss.queued.front() == p.session_seq;
}

void engine::session_claim_locked(const pending& p) {
  if (p.session.empty()) return;
  auto it = sessions_.find(p.session);
  if (it == sessions_.end()) return;
  it->second.queued.pop_front();
  it->second.running = true;
}

void engine::session_release_queued_locked(const pending& p) {
  if (p.session.empty()) return;
  auto it = sessions_.find(p.session);
  if (it == sessions_.end()) return;
  session_state& ss = it->second;
  // Out-of-order erase: an expired entry dies from the middle of the
  // admission order, unblocking its successors.
  auto q = std::find(ss.queued.begin(), ss.queued.end(), p.session_seq);
  if (q != ss.queued.end()) ss.queued.erase(q);
  if (ss.queued.empty() && !ss.running) sessions_.erase(it);
}

void engine::session_release_running_locked(const pending& p) {
  if (p.session.empty()) return;
  auto it = sessions_.find(p.session);
  if (it == sessions_.end()) return;
  it->second.running = false;
  if (it->second.queued.empty()) sessions_.erase(it);
}

bool engine::pop_head_locked(std::vector<pending>& dead, pending& head) {
  auto now = std::chrono::steady_clock::now();
  // Every pop sweeps expired entries out of BOTH deques — not just the
  // one the head comes from. Under sustained interactive traffic the
  // batch deque might otherwise never be examined, leaving an expired
  // batch request unresolved (a hung future) while it pins bounded queue
  // capacity for work that can never run. O(queue) per pop, the same
  // bound dedup's admission scan pays. The sweep is per-waiter: an entry
  // with surviving dedup followers outlives its own leader's deadline.
  for (auto& q : queues_) {
    for (auto it = q.begin(); it != q.end();) {
      if (sweep_entry_locked(*it, dead, now)) {
        // Every waiter's deadline blew while queued: drop without a pool
        // lease (and free its session position — successors unblock).
        session_release_queued_locked(*it);
        dead.push_back(std::move(*it));
        it = q.erase(it);
      } else {
        ++it;
      }
    }
  }
  // Higher class first. Session-blocked entries (an earlier entry of
  // their session is queued ahead or executing) are skipped in place —
  // they keep their FIFO slot, later traffic flows around them.
  for (size_t ci = 2; ci-- > 0;) {
    std::deque<pending>& q = queues_[ci];
    for (auto it = q.begin(); it != q.end(); ++it) {
      if (!session_eligible_locked(*it)) continue;
      head = std::move(*it);
      q.erase(it);
      session_claim_locked(head);
      return true;
    }
  }
  return false;
}

void engine::executor_loop() {
  for (;;) {
    pending head;
    bool popped = false;
    cancel_token token;
    std::vector<pending> dead;  // expired while queued; resolved below, leaseless
    {
      sync::unique_lock<sync::mutex> lk(m_);
      // Loop, not wait(lk, pred): see enqueue() — guarded reads must stay
      // inside the scope the analysis knows holds m_.
      while (!stopping_ && queued_locked() == 0) not_empty_.wait(lk);
      if (queued_locked() == 0) return;  // stopping_ && drained
      popped = pop_head_locked(dead, head);
      if (popped) {
        token = start_locked(head);
      } else if (queued_locked() > 0) {
        // Nothing runnable but the queue is non-empty: everything left is
        // session-blocked behind a running execution. Sleep until a
        // release notification (or a short timeout as a missed-wakeup
        // backstop) instead of spinning on the pop.
        not_empty_.wait_for(lk, std::chrono::milliseconds(1));
      }
      metrics::catalog::get().serve_queue_depth.set(
          static_cast<int64_t>(queued_locked()));
    }
    not_full_.notify_all();
    for (auto& p : dead) deliver_expired(p);
    if (popped) execute(std::move(head), token);
  }
}

void engine::execute(pending p, const cancel_token& token) {
  unsigned now = inflight_.fetch_add(1, std::memory_order_relaxed) + 1;
  metrics::catalog::get().serve_inflight.add(1);
  unsigned peak = peak_inflight_.load(std::memory_order_relaxed);
  while (now > peak &&
         !peak_inflight_.compare_exchange_weak(peak, now, std::memory_order_relaxed)) {
  }

  auto t0 = std::chrono::steady_clock::now();
  response r;
  try {
    trace_span flush("serve/flush");
    r.result = registry::run(p.solver, p.input, exec_ctx_.with_seed(p.seed).with_cancel(token),
                             p.fp);
    // Cancellation path annotation: the deadline token fired mid-run (the
    // solve unwound at a phase boundary).
    flush.args("cancelled", r.result.cancelled() ? 1 : 0);
  } catch (const std::exception& e) {
    // Admission-time validation makes this unreachable for well-formed
    // requests; a solver that throws fails its execution.
    r.error = e.what();
  } catch (...) {
    // A non-std exception escaping the executor std::thread would
    // std::terminate the whole process; fail the execution instead.
    r.error = "solver threw a non-std exception";
  }
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  exec_nanos_.fetch_add(
      static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()),
      std::memory_order_relaxed);
  batches_.fetch_add(1, std::memory_order_relaxed);

  const bool cancelled = r.ok() && r.result.cancelled();
  if (cancelled) r.error = "cancelled: deadline exceeded mid-run";
  const bool ok = r.ok();
  const bool in_session = !p.session.empty();
  // Unregister the dedup slot, collect every waiter, and cache a
  // successful envelope — atomically w.r.t. new submissions, so a
  // duplicate arriving now either finds the cache entry or queues a fresh
  // execution; it can never join a completed fanout.
  std::vector<pending> waiters;
  {
    sync::lock_guard<sync::mutex> lk(m_);
    finish_running_locked(p, ok ? &r : nullptr, waiters);
    session_release_running_locked(p);
  }
  // Fan the envelope out: one execution, every waiter answered the same
  // way. A waiter whose deadline lapsed mid-run still gets the result —
  // the work is already paid for; deadlines shed queued work, not
  // finished envelopes.
  metrics::catalog& m = metrics::catalog::get();
  const uint64_t answered = waiters.size() + 1;
  if (ok) {
    completed_.fetch_add(answered, std::memory_order_relaxed);
    m.serve_completed.inc(answered);
  } else if (cancelled) {
    cancelled_.fetch_add(answered, std::memory_order_relaxed);
    m.serve_cancelled.inc(answered);
  } else {
    failed_.fetch_add(answered, std::memory_order_relaxed);
    m.serve_failed.inc(answered);
  }
  for (auto& w : waiters) deliver(w, response(r));
  deliver(p, std::move(r));
  inflight_.fetch_sub(1, std::memory_order_relaxed);
  m.serve_inflight.sub(1);
  // The session release above may have unblocked a skipped entry; wake
  // executors parked on the session-blocked wait.
  if (in_session) not_empty_.notify_all();
}

void engine::deliver(pending& p, response&& r) {
  // Per-class submit-to-delivery latency (cache hits and errors count
  // too — the client waited exactly this long either way). Entries that
  // never passed admission have a zero submit_time and are skipped.
  if (p.submit_time.time_since_epoch().count() != 0) {
    auto usec = std::chrono::duration_cast<std::chrono::microseconds>(
                    std::chrono::steady_clock::now() - p.submit_time)
                    .count();
    metrics::catalog& m = metrics::catalog::get();
    (p.prio == priority::interactive ? m.serve_latency_interactive : m.serve_latency_batch)
        .observe(static_cast<uint64_t>(usec < 0 ? 0 : usec));
  }
  if (p.cb) {
    detail::guarded_invoke(p.cb, std::move(r));
  } else {
    p.prom.set_value(std::move(r));
  }
}

void engine::deliver_expired(pending& p) {
  // Expiry path annotation: how long the request sat queued before its
  // deadline blew (it never took a pool lease).
  trace::instant("serve/expired", "queued_usec",
                 static_cast<uint64_t>(std::max<int64_t>(
                     0, std::chrono::duration_cast<std::chrono::microseconds>(
                            std::chrono::steady_clock::now() - p.submit_time)
                            .count())));
  expired_.fetch_add(1, std::memory_order_relaxed);
  metrics::catalog::get().serve_expired.inc();
  response r;
  r.error = "expired: deadline passed while queued";
  deliver(p, std::move(r));
}

void engine::stop(bool drain) {
  std::deque<pending> orphans;
  {
    sync::lock_guard<sync::mutex> lk(m_);
    stopping_ = true;
    if (!drain) {
      for (auto& q : queues_) {
        for (auto& p : q) orphans.push_back(std::move(p));
        q.clear();
      }
      // The orphans' session positions die with them. In-flight flushes
      // release against the (now absent) books as no-ops.
      sessions_.clear();
    }
  }
  not_empty_.notify_all();
  not_full_.notify_all();
  for (auto& p : orphans) {
    // Dedup waiters orphan along with their leader.
    for (auto& f : p.followers) {
      response r;
      r.error = "engine stopped";
      failed_.fetch_add(1, std::memory_order_relaxed);
      metrics::catalog::get().serve_failed.inc();
      deliver(f, std::move(r));
    }
    response r;
    r.error = "engine stopped";
    failed_.fetch_add(1, std::memory_order_relaxed);
    metrics::catalog::get().serve_failed.inc();
    deliver(p, std::move(r));
  }
  std::call_once(join_once_, [&] {
    for (auto& t : executors_) t.join();
  });
}

engine_stats engine::stats() const {
  engine_stats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  s.expired = expired_.load(std::memory_order_relaxed);
  s.cancelled = cancelled_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  s.cache_misses = cache_misses_.load(std::memory_order_relaxed);
  s.deduped = deduped_.load(std::memory_order_relaxed);
  s.peak_inflight = peak_inflight_.load(std::memory_order_relaxed);
  s.exec_seconds = static_cast<double>(exec_nanos_.load(std::memory_order_relaxed)) * 1e-9;
  sync::lock_guard<sync::mutex> lk(m_);
  s.queue_depth = queued_locked();
  return s;
}

std::string to_json(const engine_stats& s) {
  json::writer w;
  w.begin_object();
  w.member("submitted", s.submitted);
  w.member("completed", s.completed);
  w.member("failed", s.failed);
  w.member("expired", s.expired);
  w.member("cancelled", s.cancelled);
  w.member("batches", s.batches);
  w.member("cache_hits", s.cache_hits);
  w.member("cache_misses", s.cache_misses);
  w.member("deduped", s.deduped);
  w.member("peak_inflight", static_cast<uint64_t>(s.peak_inflight));
  w.member("queue_depth", static_cast<uint64_t>(s.queue_depth));
  w.member("exec_seconds", s.exec_seconds);
  w.end_object();
  return w.str();
}

}  // namespace pp::serve
