// serve_mix — the user-facing serving path, closed loop over the wire.
//
// A ppserve daemon runs with default engine settings on a loopback port.
// One client thread drives nproc TCP connections and keeps one request
// outstanding on each: when a response arrives, that connection sends the
// next request of a seeded stream. Each request is timed from its send to
// its response line. The mix spans seven solver families at two small
// sizes each. Requests draw from a fixed pool of (solver, n, seed)
// triples: half uniformly from the whole pool, which is several times
// larger than the engine's result cache, and half Zipf-style by recency
// rank among the recently requested ones, so about half repeat and go
// through the cache (or dedup) while the rest mostly miss it. A quarter of
// the requests are batch class, a fifth carry a deadline far beyond any
// expected latency.
//
// The window: the first kWarmShare of it fills the cache with a steady
// working set (checked, not measured); the rest is measured.
// A closed loop rather than open-loop arrivals at a ladder of rates: at a
// light open-loop load every request found the daemon idle, and its
// latency was the host's thread wake-up time, which spread by half of its
// median between runs on a shared 4-vCPU host; a loaded daemon keeps its
// threads awake.
//
// Answers: every response's score must equal the sequential variant's
// score on the same (problem, n, seed), computed during set-up. After
// each phase's last response the client reads the engine counters and
// reconciles them: requests sent = submitted + cache_hits + deduped, ok
// responses = completed, error responses = failed + expired + cancelled.
//
// End-to-end metrics: p50_ms = latency of the requests the engine
// executed (not answered from its cache), rate_per_s = responses per
// second; ungated (see kGated): tail_ms = their tail, side_p50_ms /
// side_tail_ms = latency of cache hits.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "core/json.h"
#include "core/registry.h"

namespace pb {
namespace {

struct shape {
  const char* solver;
  const char* problem;
  const char* reference;  // sequential variant that yields the expected score
  size_t n;
  size_t smoke_n;
};

constexpr shape kShapes[] = {
    {"lis/parallel", "lis", "lis/sequential", 60, 30},
    {"lis/parallel", "lis", "lis/sequential", 120, 60},
    {"activity/type1", "activity", "activity/sequential", 500, 100},
    {"activity/type1", "activity", "activity/sequential", 2'000, 200},
    {"knapsack/parallel", "knapsack", "knapsack/sequential", 500, 200},
    {"knapsack/parallel", "knapsack", "knapsack/sequential", 2'000, 400},
    {"sssp/relaxed", "sssp", "sssp/dijkstra", 500, 100},
    {"sssp/relaxed", "sssp", "sssp/dijkstra", 2'000, 200},
    {"mis/tas", "graph", "mis/sequential", 500, 100},
    {"mis/tas", "graph", "mis/sequential", 2'000, 200},
    {"huffman/parallel", "huffman", "huffman/sequential", 5'000, 500},
    {"huffman/parallel", "huffman", "huffman/sequential", 20'000, 1'000},
    {"list_ranking/parallel", "list", "list_ranking/sequential", 2'000, 500},
    {"list_ranking/parallel", "list", "list_ranking/sequential", 10'000, 1'000},
};

constexpr double kWarmShare = 0.2;  // of the window: fills the cache, not measured
// Half of the requests draw uniformly from a pool of kPool triples, far
// more than the engine's 256-entry cache holds, so they mostly miss; the
// other half repeat one of the kRecent most recently requested triples.
constexpr size_t kPool = 1536;
constexpr double kFreshShare = 0.5;
constexpr size_t kRecent = 200;
constexpr double kBatchShare = 0.25;
constexpr double kDeadlineShare = 0.2;
constexpr int kDeadlineMs = 10'000;

struct triple {
  size_t shape;
  uint64_t seed;
};

struct slot {
  size_t triple;
  std::string line;
  // filled by the client
  clock::time_point sent{}, recv{};
  bool ok = false, cached = false;
  double seconds = 0.0;
  int64_t score = 0;
  std::string error;
};

// ---- the daemon -----------------------------------------------------------------

int free_port() {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in a{};
  a.sin_family = AF_INET;
  a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof a;
  int port = -1;
  if (fd >= 0 && ::bind(fd, reinterpret_cast<sockaddr*>(&a), sizeof a) == 0 &&
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&a), &len) == 0)
    port = ntohs(a.sin_port);
  if (fd >= 0) ::close(fd);
  return port;
}

int connect_to(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in a{};
  a.sin_family = AF_INET;
  a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  a.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&a), sizeof a) != 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

// A ppserve child process on a free loopback port, with default engine
// settings. Killed (and reaped) on destruction; PR_SET_PDEATHSIG also ends
// it should this process die first.
class ppserve_process {
 public:
  ppserve_process(const std::string& path, const std::string& log_path) {
    for (int attempt = 0; attempt < 5 && pid_ < 0; ++attempt) {
      int port = free_port();
      if (port <= 0) continue;
      // Everything the child touches is prepared before fork(): after it,
      // only async-signal-safe calls.
      const std::string port_arg = std::to_string(port);
      const char* log = log_path.empty() ? "/dev/null" : log_path.c_str();
      pid_t pid = ::fork();
      if (pid < 0) throw std::runtime_error("serve_mix: fork failed");
      if (pid == 0) {
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        int in = ::open("/dev/null", O_RDONLY);
        int err = ::open(log, O_WRONLY | O_CREAT | O_APPEND, 0644);
        if (in >= 0) ::dup2(in, 0);
        if (err >= 0) ::dup2(err, 2);
        ::execl(path.c_str(), path.c_str(), "--port", port_arg.c_str(),
                static_cast<char*>(nullptr));
        ::_exit(127);
      }
      // Ready once a connection succeeds; a bind race ends the child early.
      bool exited = false;
      for (int i = 0; i < 2000 && !exited; ++i) {
        exited = ::waitpid(pid, nullptr, WNOHANG) == pid;
        int fd = exited ? -1 : connect_to(port);
        if (fd >= 0) {
          ::close(fd);
          pid_ = pid;
          port_ = port;
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      if (pid_ < 0 && !exited) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, nullptr, 0);
      }
    }
    if (pid_ < 0) throw std::runtime_error("serve_mix: could not start " + path);
  }
  ~ppserve_process() {
    ::kill(pid_, SIGTERM);
    ::waitpid(pid_, nullptr, 0);
  }
  ppserve_process(const ppserve_process&) = delete;
  ppserve_process& operator=(const ppserve_process&) = delete;
  int port() const { return port_; }

 private:
  pid_t pid_ = -1;
  int port_ = 0;
};

// ---- the closed-loop client -----------------------------------------------------

// One thread, nproc connections, poll()-driven. Responses are matched to
// requests in per-connection order (ppserve answers each connection in
// request order).
class client {
 public:
  client(int port, unsigned conns) {
    for (unsigned i = 0; i < conns; ++i) {
      int fd = connect_to(port);
      if (fd < 0) {
        for (auto& c : conns_) ::close(c.fd);
        throw std::runtime_error("serve_mix: connect failed");
      }
      ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
      conns_.push_back(conn{fd, {}, 0, {}, {}});
    }
  }
  ~client() {
    for (auto& c : conns_) ::close(c.fd);
  }
  client(const client&) = delete;
  client& operator=(const client&) = delete;

  // Send every slot at once, request i on connection i mod nproc, and wait
  // for all the responses.
  void run_all(std::vector<slot>& slots) {
    for (size_t i = 0; i < slots.size(); ++i) send(i % conns_.size(), slots, i);
    drain(slots, clock::time_point::min(), [] { return slot{}; });
  }

  // Closed loop: one request outstanding on every connection; each
  // response sends that connection the next request from `next()` until
  // `until`, then the last ones are waited for. `slots` receives every
  // request in the order sent.
  template <typename Next>
  void run_closed(Next&& next, clock::time_point until, std::vector<slot>& slots) {
    for (size_t i = 0; i < conns_.size(); ++i) {
      slots.push_back(next());
      send(i, slots, slots.size() - 1);
    }
    drain(slots, until, next);
  }

  // The engine counters, read after every response of the phase arrived.
  pp::json::value stats() {
    std::string got;
    conn& c = conns_[0];
    c.out += "{\"stats\": true}\n";
    c.pending.push_back(kStats);
    bool have = false;
    const auto asked = clock::now();
    while (!have) {
      if (clock::now() - asked > kStall)
        throw std::runtime_error("serve_mix: no stats response from ppserve for 60 s");
      pump(std::chrono::milliseconds(100),
           [&](size_t, size_t idx, const std::string& line, clock::time_point) {
             if (idx == kStats) {
               got = line;
               have = true;
             }
           });
    }
    pp::json::value doc;
    if (!pp::json::parse(got, doc) || doc.find("stats") == nullptr)
      throw std::runtime_error("serve_mix: bad stats response: " + got);
    return *doc.find("stats");
  }

 private:
  static constexpr size_t kStats = static_cast<size_t>(-1);
  static constexpr std::chrono::seconds kStall{60};
  struct conn {
    int fd;
    std::string out;
    size_t out_off;
    std::string in;
    std::deque<size_t> pending;
  };

  static void parse_response(const std::string& line, slot& s) {
    pp::json::value doc;
    if (!pp::json::parse(line, doc)) {
      s.error = "unparseable response";
      return;
    }
    const pp::json::value* ok = doc.find("ok");
    if (ok == nullptr || !ok->is_bool() || !ok->as_bool()) {
      const pp::json::value* e = doc.find("error");
      s.error = e != nullptr && e->is_string() ? e->as_string() : "error response";
      return;
    }
    const pp::json::value* cached = doc.find("cached");
    const pp::json::value* res = doc.find("result");
    const pp::json::value* secs = res != nullptr ? res->find("seconds") : nullptr;
    const pp::json::value* score = res != nullptr ? res->find("score") : nullptr;
    const pp::json::value* status = res != nullptr ? res->find("status") : nullptr;
    if (secs == nullptr || score == nullptr || status == nullptr || !status->is_string() ||
        status->as_string() != "ok") {
      s.error = "response without an ok result";
      return;
    }
    s.ok = true;
    s.cached = cached != nullptr && cached->is_bool() && cached->as_bool();
    s.seconds = secs->as_double();
    s.score = score->as_int64();
  }

  void send(size_t ci, std::vector<slot>& slots, size_t idx) {
    conn& c = conns_[ci];
    c.out += slots[idx].line;
    c.out += '\n';
    c.pending.push_back(idx);
    slots[idx].sent = clock::now();
  }

  // Wait for every slot's response; a response that arrives before
  // `until` sends its connection the next request from `next()`.
  template <typename Next>
  void drain(std::vector<slot>& slots, clock::time_point until, Next&& next) {
    size_t done = 0;
    auto progress = clock::now();
    while (done < slots.size()) {
      if (clock::now() - progress > kStall)
        throw std::runtime_error("serve_mix: no response from ppserve for 60 s");
      pump(std::chrono::milliseconds(100),
           [&](size_t ci, size_t idx, const std::string& line, clock::time_point t) {
             slots[idx].recv = t;
             parse_response(line, slots[idx]);
             ++done;
             progress = t;
             if (t < until) {
               slots.push_back(next());
               send(ci, slots, slots.size() - 1);
             }
           });
    }
  }

  // Flush pending output, wait up to `wait` for input, and hand every
  // complete response line to on_line(connection, request index, line,
  // arrival time).
  template <typename F>
  void pump(clock::duration wait, F&& on_line) {
    std::vector<pollfd> fds;
    for (auto& c : conns_) {
      while (c.out_off < c.out.size()) {
        ssize_t w = ::send(c.fd, c.out.data() + c.out_off, c.out.size() - c.out_off, MSG_NOSIGNAL);
        if (w <= 0) {
          if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) break;
          throw std::runtime_error("serve_mix: send failed");
        }
        c.out_off += static_cast<size_t>(w);
      }
      if (c.out_off == c.out.size()) {
        c.out.clear();
        c.out_off = 0;
      }
      short ev = POLLIN;
      if (!c.out.empty()) ev |= POLLOUT;
      fds.push_back({c.fd, ev, 0});
    }
    auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(wait).count();
    timespec ts{static_cast<time_t>(ns / 1'000'000'000), static_cast<long>(ns % 1'000'000'000)};
    int rc = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (rc < 0 && errno != EINTR) throw std::runtime_error("serve_mix: poll failed");
    if (rc <= 0) return;
    auto now = clock::now();
    char buf[65536];
    for (size_t i = 0; i < conns_.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      conn& c = conns_[i];
      // Acknowledge at once, as latency-sensitive RPC clients do. ppserve
      // leaves Nagle's algorithm on, so with delayed ACKs a response can
      // sit until this client's next request or the 40 ms ACK timer, and
      // that timer, not the server's work, would set the tail.
      int one = 1;
      ::setsockopt(c.fd, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof one);
      for (;;) {
        ssize_t r = ::recv(c.fd, buf, sizeof buf, 0);
        if (r > 0) {
          c.in.append(buf, static_cast<size_t>(r));
          continue;
        }
        if (r == 0) throw std::runtime_error("serve_mix: ppserve closed a connection");
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
        throw std::runtime_error("serve_mix: recv failed");
      }
      size_t pos;
      while ((pos = c.in.find('\n')) != std::string::npos) {
        std::string line = c.in.substr(0, pos);
        c.in.erase(0, pos + 1);
        if (c.pending.empty()) throw std::runtime_error("serve_mix: unexpected response");
        size_t idx = c.pending.front();
        c.pending.pop_front();
        on_line(i, idx, line, now);
      }
    }
  }

  std::vector<conn> conns_;
};

// ---- set-up: request pool, references, daemon ----------------------------------

struct plan {
  std::vector<triple> triples;
  std::vector<int64_t> expect;  // reference score per triple
  std::vector<slot> warmup;     // one request per shape, before every phase
};

std::string request_line(size_t id, const triple& t, const options& opt, rng& g) {
  const shape& s = kShapes[t.shape];
  pp::json::writer w;
  w.begin_object();
  w.member("id", static_cast<uint64_t>(id));
  w.member("solver", s.solver);
  w.member("n", static_cast<uint64_t>(opt.smoke ? s.smoke_n : s.n));
  w.member("seed", t.seed);
  w.member("priority", g.uniform() < kBatchShare ? "batch" : "interactive");
  if (g.uniform() < kDeadlineShare) w.member("deadline_ms", static_cast<int64_t>(kDeadlineMs));
  w.end_object();
  return w.str();
}

// Zipf(1) rank in [0, k): P(rank r) proportional to 1 / (r + 1).
size_t zipf_rank(rng& g, size_t k) {
  double h = 0.0;
  for (size_t r = 1; r <= k; ++r) h += 1.0 / static_cast<double>(r);
  double u = g.uniform() * h;
  for (size_t r = 1; r <= k; ++r) {
    u -= 1.0 / static_cast<double>(r);
    if (u <= 0.0) return r - 1;
  }
  return k - 1;
}

// The seeded request stream: the same seed gives the same sequence of
// requests; how far a run gets into it depends on the daemon's speed.
class request_stream {
 public:
  request_stream(const plan& p, const options& opt)
      : p_(p), opt_(opt), g_(pp::derive_seed(opt.seed, 500)), id_(p.warmup.size()) {}
  slot operator()() {
    const size_t shapes = std::size(kShapes), pool = p_.triples.size();
    size_t tid;
    if (recent_.empty() || g_.uniform() < kFreshShare) {
      tid = shapes + static_cast<size_t>(g_.below(pool - shapes));
    } else {
      size_t r = zipf_rank(g_, std::min(recent_.size(), kRecent));
      tid = recent_[r];
      recent_.erase(recent_.begin() + static_cast<std::ptrdiff_t>(r));
    }
    recent_.push_front(tid);
    if (recent_.size() > kRecent) recent_.pop_back();
    slot sl;
    sl.triple = tid;
    sl.line = request_line(id_++, p_.triples[tid], opt_, g_);
    return sl;
  }

 private:
  const plan& p_;
  const options& opt_;
  rng g_;
  size_t id_;
  std::deque<size_t> recent_;  // most recent first
};

plan make_plan(const options& opt) {
  plan p;
  rng g(pp::derive_seed(opt.seed, 501));
  // The pool: triple i has shape i mod |kShapes|, so every shape is equally
  // represented whatever the seed; the first |kShapes| triples are the
  // warm-up requests. Every triple has its own seed.
  const size_t pool = opt.smoke ? 4 * std::size(kShapes) : kPool;
  for (size_t i = 0; i < pool; ++i)
    p.triples.push_back({i % std::size(kShapes), pp::derive_seed(opt.seed, 1'000'000 + i)});
  for (size_t s = 0; s < std::size(kShapes); ++s) {
    slot w;
    w.triple = s;
    w.line = request_line(s, p.triples[s], opt, g);
    p.warmup.push_back(std::move(w));
  }
  // Reference scores, computed on nproc threads with one shared context.
  p.expect.assign(p.triples.size(), 0);
  const pp::context seq = pp::context{}.with_backend(pp::backend_kind::sequential);
  std::vector<std::thread> workers;
  std::vector<std::string> errors(opt.nproc);
  for (unsigned w = 0; w < opt.nproc; ++w) {
    workers.emplace_back([&, w] {
      try {
        for (size_t i = w; i < p.triples.size(); i += opt.nproc) {
          const shape& s = kShapes[p.triples[i].shape];
          auto in = pp::registry::instance().make_input(s.problem, opt.smoke ? s.smoke_n : s.n,
                                                        p.triples[i].seed);
          p.expect[i] = pp::score_of(pp::registry::run(s.reference, in, seq).value);
        }
      } catch (const std::exception& e) {
        errors[w] = e.what();
      }
    });
  }
  for (auto& t : workers) t.join();
  for (const auto& e : errors)
    if (!e.empty()) throw std::runtime_error("serve_mix reference: " + e);
  return p;
}

double get_num(const pp::json::value& stats, const char* key) {
  const pp::json::value* v = stats.find(key);
  return v != nullptr && v->is_number() ? v->as_double() : 0.0;
}

struct counters {
  double submitted, completed, failed, expired, cancelled, batches, cache_hits, deduped, exec_s;
};

counters read_counters(client& c) {
  pp::json::value s = c.stats();
  return {get_num(s, "submitted"), get_num(s, "completed"),  get_num(s, "failed"),
          get_num(s, "expired"),   get_num(s, "cancelled"),  get_num(s, "batches"),
          get_num(s, "cache_hits"), get_num(s, "deduped"),   get_num(s, "exec_seconds")};
}

counters operator-(const counters& a, const counters& b) {
  return {a.submitted - b.submitted, a.completed - b.completed, a.failed - b.failed,
          a.expired - b.expired,     a.cancelled - b.cancelled, a.batches - b.batches,
          a.cache_hits - b.cache_hits, a.deduped - b.deduped,   a.exec_s - b.exec_s};
}

// Check every answer of a phase and reconcile the client's view with the
// engine counters.
void check_phase(const std::string& what, const std::vector<slot>& slots, const plan& p,
                 const counters& d, report& rep) {
  double ok = 0, errors = 0;
  for (const auto& s : slots) {
    if (s.ok) {
      ++ok;
      rep.check(s.score == p.expect[s.triple],
                what + ": " + s.line + " scored " + std::to_string(s.score) + ", reference " +
                    std::to_string(p.expect[s.triple]));
    } else {
      ++errors;
      rep.check(false, what + ": " + s.line + " failed: " + s.error);
    }
  }
  const double sent = static_cast<double>(slots.size());
  rep.check(sent == d.submitted + d.cache_hits + d.deduped,
            what + ": sent " + std::to_string(sent) + " != submitted + cache_hits + deduped " +
                std::to_string(d.submitted + d.cache_hits + d.deduped));
  rep.check(ok == d.completed, what + ": " + std::to_string(ok) + " ok responses but completed " +
                                   std::to_string(d.completed));
  rep.check(errors == d.failed + d.expired + d.cancelled,
            what + ": " + std::to_string(errors) +
                " error responses but failed+expired+cancelled " +
                std::to_string(d.failed + d.expired + d.cancelled));
}

struct deployment {
  std::unique_ptr<ppserve_process> d;
  std::unique_ptr<client> c;
  plan p;
};

}  // namespace

void serve_mix(const options& opt, double seconds, int setup_reps, tracer* tr, report& rep) {
  if (opt.ppserve.empty()) throw std::runtime_error("serve_mix needs --ppserve");
  deployment ss;
  std::vector<double> setup_s;
  for (int k = 0; k < setup_reps; ++k) {
    auto t0 = clock::now();
    ss = deployment{};
    ss.p = make_plan(opt);
    ss.d = std::make_unique<ppserve_process>(opt.ppserve, opt.log_dir.empty()
                                                     ? std::string()
                                                     : opt.log_dir + "/ppserve.log");
    ss.c = std::make_unique<client>(ss.d->port(), opt.nproc);
    // Warm-up: one request per shape, so pool spin-up is paid before timing.
    ss.c->run_all(ss.p.warmup);
    setup_s.push_back(ms_between(t0, clock::now()) / 1e3);
  }
  plan& p = ss.p;
  client& c = *ss.c;
  for (const auto& s : p.warmup)
    rep.check(s.ok && s.score == p.expect[s.triple],
              "serve_mix warm-up: " + s.line + " " + s.error);

  // Two phases of one closed loop over one request stream: the warm phase
  // fills the cache, the measured phase is timed. Each is checked and
  // reconciled with the engine counters after its last response.
  request_stream next(p, opt);
  std::vector<slot> warm, measured;
  counters before = read_counters(c);
  auto phase = [&](const char* what, std::vector<slot>& slots, double phase_s) {
    const auto start = clock::now();
    c.run_closed(next, start + std::chrono::duration_cast<clock::duration>(
                                   std::chrono::duration<double>(phase_s)),
                 slots);
    const double elapsed_s = ms_between(start, clock::now()) / 1e3;
    counters after = read_counters(c);
    counters d = after - before;
    before = after;
    check_phase(std::string("serve_mix ") + what, slots, p, d, rep);
    return std::make_pair(d, elapsed_s);
  };
  phase("warm phase", warm, seconds * kWarmShare);
  const auto [delta, elapsed_s] = phase("measured phase", measured, seconds * (1.0 - kWarmShare));

  std::vector<double> lat, hit_lat;
  for (const auto& s : measured) (s.cached ? hit_lat : lat).push_back(ms_between(s.sent, s.recv));
  summary ls = summarize(lat), hs = summarize(hit_lat);
  rep.e2e("setup_s", median(setup_s), "s");
  rep.e2e("p50_ms", ls.p50, "ms");
  rep.e2e("rate_per_s", static_cast<double>(measured.size()) / elapsed_s, "1/s");
  rep.e2e("tail_ms", ls.tail, "ms");
  rep.e2e("side_p50_ms", hs.p50, "ms");
  rep.e2e("side_tail_ms", hs.tail, "ms");
  rep.note("serve_mix: " + std::to_string(measured.size()) + " requests over " +
           std::to_string(opt.nproc) + " connections in " + std::to_string(elapsed_s) +
           " s; executed p50 " + std::to_string(ls.p50) + " ms, tail p" +
           std::to_string(ls.tail_pct) + " " + std::to_string(ls.tail) + " ms over " +
           std::to_string(ls.n) + "; cache hits p50 " + std::to_string(hs.p50) + " ms, tail p" +
           std::to_string(hs.tail_pct) + " " + std::to_string(hs.tail) + " ms over " +
           std::to_string(hs.n));
  if (tr == nullptr) return;

  // ---- per-layer (traced pass: the measured phase) -----------------------------
  std::vector<double> nonsolve, hit_rtt;
  std::map<std::string, std::vector<double>> solve_by_solver;
  std::set<size_t> executed;  // distinct executions: dedup waiters share one
  double exec_item_s = 0.0;
  uint64_t req = 0;
  for (const auto& s : measured) {
    ++req;
    const double rtt = ms_between(s.sent, s.recv);
    const char* solver = kShapes[p.triples[s.triple].shape].solver;
    uint64_t id = tr->span("ppserve", std::string("wire ") + solver, s.sent, s.recv, 0, req);
    if (!s.ok) continue;
    if (s.cached) {
      hit_rtt.push_back(rtt);
      continue;
    }
    nonsolve.push_back(rtt - s.seconds * 1e3);
    tr->reported("algos", kShapes[p.triples[s.triple].shape].solver, s.sent, s.recv, s.seconds,
                 id, req);
    if (executed.insert(s.triple).second) {
      exec_item_s += s.seconds;
      solve_by_solver[kShapes[p.triples[s.triple].shape].solver].push_back(s.seconds * 1e3);
    }
  }
  summary ns = summarize(nonsolve);
  const double sent = static_cast<double>(std::max<size_t>(measured.size(), 1));
  const double batches = std::max(delta.batches, 1.0);
  rep.layer("ppserve.nonsolve_ms.p50", ns.p50, "ms");
  rep.layer("ppserve.nonsolve_ms.tail", ns.tail, "ms");
  rep.layer("ppserve.hit_rtt_ms.p50", median(hit_rtt), "ms");
  rep.layer("engine.cache_hit_ratio", delta.cache_hits / sent, "ratio");
  rep.layer("engine.dedup_ratio", delta.deduped / sent, "ratio");
  rep.layer("engine.batch_mean", delta.submitted / batches, "count");
  rep.layer("engine.leases_per_req", delta.batches / sent, "ratio");
  rep.layer("engine.dispatch_us", (delta.exec_s - exec_item_s) / batches * 1e6, "us");
  rep.layer("engine.expired", delta.expired, "count");
  rep.layer("engine.cancelled", delta.cancelled, "count");
  for (const auto& sh : kShapes) {
    std::string key = sh.solver;
    std::replace(key.begin(), key.end(), '/', '_');
    rep.layer("algos." + key + ".serve_solve_ms.p50", median(solve_by_solver[sh.solver]), "ms");
  }
  const auto self = tr->self_ms();
  for (const char* layer : {"ppserve", "algos"})
    rep.layer(std::string("self.serve_mix.") + layer + "_ms",
              self.count(layer) ? self.at(layer) / sent : 0.0, "ms");

  // Input construction and fingerprinting, timed in-process on the same
  // request shapes (ppserve pays both per request, cache hits included).
  std::map<std::string, std::vector<double>> make_ms, fp_ms;
  for (const auto& s : measured) {
    const shape& sh = kShapes[p.triples[s.triple].shape];
    if (make_ms[sh.problem].size() >= 16) continue;
    auto t0 = clock::now();
    auto in = pp::registry::instance().make_input(sh.problem, opt.smoke ? sh.smoke_n : sh.n,
                                                  p.triples[s.triple].seed);
    auto t1 = clock::now();
    [[maybe_unused]] pp::fingerprint fp = pp::fingerprint_of(in);
    auto t2 = clock::now();
    tr->span("core", std::string("registry::make_input ") + sh.problem, t0, t1);
    tr->span("core", std::string("fingerprint_of ") + sh.problem, t1, t2);
    make_ms[sh.problem].push_back(ms_between(t0, t1));
    fp_ms[sh.problem].push_back(ms_between(t1, t2));
  }
  for (const auto& sh : kShapes) {
    rep.layer(std::string("core.make_input_ms.") + sh.problem, median(make_ms[sh.problem]), "ms");
    rep.layer(std::string("core.fingerprint_ms.") + sh.problem, median(fp_ms[sh.problem]), "ms");
  }
}

}  // namespace pb
