#include "algos/huffman.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "core/cancel.h"
#include "parallel/api.h"
#include "parallel/primitives.h"
#include "parallel/random.h"
#include "parallel/sort.h"

namespace pp {

namespace {

struct live_node {
  uint64_t freq;
  uint32_t id;
};

// depth/wpl/height from the parent array (children created before parents,
// so a reverse sweep sees each parent's depth first).
void finalize(huffman_result& res, std::span<const uint64_t> freqs) {
  size_t n = freqs.size();
  if (n == 0) return;
  if (n == 1) {
    res.wpl = 0;
    res.height = 0;
    return;
  }
  size_t total = 2 * n - 1;
  std::vector<uint32_t> depth(total, 0);
  for (size_t i = total - 1; i-- > 0;) depth[i] = depth[res.parent[i]] + 1;
  uint64_t wpl = 0;
  uint32_t h = 0;
  for (size_t i = 0; i < n; ++i) {
    wpl += freqs[i] * depth[i];
    h = std::max(h, depth[i]);
  }
  res.wpl = wpl;
  res.height = h;
}

void check_sorted(std::span<const uint64_t> freqs) {
  for (size_t i = 0; i < freqs.size(); ++i) {
    assert(freqs[i] >= 1);
    if (i > 0) assert(freqs[i - 1] <= freqs[i]);
  }
}

}  // namespace

huffman_result huffman_seq(std::span<const uint64_t> freqs) {
  check_sorted(freqs);
  size_t n = freqs.size();
  huffman_result res;
  if (n <= 1) return res;
  res.parent.assign(2 * n - 1, kNoParent);
  // Two queues: leaves (sorted input) and internal nodes (created in
  // nondecreasing frequency order); always merge the two smallest heads.
  std::vector<live_node> internal;
  internal.reserve(n - 1);
  size_t li = 0, ii = 0;
  uint32_t next_id = static_cast<uint32_t>(n);
  auto pop_min = [&]() -> live_node {
    bool take_leaf;
    if (li >= n) take_leaf = false;
    else if (ii >= internal.size()) take_leaf = true;
    else take_leaf = freqs[li] <= internal[ii].freq;
    if (take_leaf) return live_node{freqs[li], static_cast<uint32_t>(li++)};
    return internal[ii++];
  };
  for (size_t round = 0; round + 1 < n; ++round) {
    live_node a = pop_min();
    live_node b = pop_min();
    res.parent[a.id] = next_id;
    res.parent[b.id] = next_id;
    internal.push_back(live_node{a.freq + b.freq, next_id});
    ++next_id;
  }
  finalize(res, freqs);
  return res;
}

huffman_result huffman_parallel(std::span<const uint64_t> freqs) {
  check_sorted(freqs);
  size_t n = freqs.size();
  huffman_result res;
  if (n <= 1) return res;
  res.parent.assign(2 * n - 1, kNoParent);

  auto cur = tabulate<live_node>(n, [&](size_t i) {
    return live_node{freqs[i], static_cast<uint32_t>(i)};
  });
  uint32_t next_id = static_cast<uint32_t>(n);
  // Scratch reused by every round: the rounds allocate nothing, so the cost
  // of a solve does not hinge on whether the allocator maps fresh pages
  // for each round's arrays.
  std::vector<live_node> merged, next;
  merged.reserve(n / 2);
  next.reserve(n);

  while (cur.size() > 1) {
    cancel_point();  // between merge rounds: quiescent, cancellable
    // f_m = sum of the two smallest frequencies; everything below f_m is
    // ready (no later object can be smaller), Lemma-style argument of
    // Sec. 4.3.
    uint64_t fm = cur[0].freq + cur[1].freq;
    size_t t = static_cast<size_t>(
        std::lower_bound(cur.begin(), cur.end(), fm,
                         [](const live_node& x, uint64_t f) { return x.freq < f; }) -
        cur.begin());
    if (t % 2 == 1) --t;      // leave an odd tail element for the next round
    if (t < 2) t = 2;         // always merge at least the two minima
    size_t k = t / 2;
    res.stats.record_frontier(t);

    merged.resize(k);
    parallel_for(0, k, [&](size_t p) {
      const live_node& a = cur[2 * p];
      const live_node& b = cur[2 * p + 1];
      uint32_t id = next_id + static_cast<uint32_t>(p);
      res.parent[a.id] = id;
      res.parent[b.id] = id;
      merged[p] = live_node{a.freq + b.freq, id};
    });
    next_id += static_cast<uint32_t>(k);

    // merged sums are nondecreasing (pairs of a sorted sequence); combine
    // with the untouched tail by parallel merge.
    next.resize(merged.size() + (cur.size() - t));
    auto less = [](const live_node& a, const live_node& b) { return a.freq < b.freq; };
    detail::parallel_merge(std::span<const live_node>(merged),
                           std::span<const live_node>(cur.data() + t, cur.size() - t),
                           std::span<live_node>(next), less);
    cur.swap(next);
  }
  finalize(res, freqs);
  return res;
}

std::vector<uint32_t> huffman_code_lengths(const huffman_result& res, size_t n) {
  if (n == 0) return {};
  if (n == 1) return {0};
  size_t total = 2 * n - 1;
  std::vector<uint32_t> depth(total, 0);
  for (size_t i = total - 1; i-- > 0;) depth[i] = depth[res.parent[i]] + 1;
  depth.resize(n);
  return depth;
}

bool kraft_exact(std::span<const uint32_t> lengths) {
  // sum of 2^-len == 1, computed in fixed point at 2^-64 resolution
  // (code lengths beyond 64 cannot occur with 64-bit total frequency).
  __uint128_t sum = 0;
  for (auto len : lengths) {
    if (len > 64) return false;
    sum += static_cast<__uint128_t>(1) << (64 - len);
  }
  return sum == (static_cast<__uint128_t>(1) << 64);
}

std::vector<uint64_t> uniform_freqs(size_t n, uint64_t max_f, uint64_t seed) {
  random_stream rs(seed);
  auto f = tabulate<uint64_t>(n, [&](size_t i) { return 1 + rs.ith_bounded(i, max_f); });
  sort_inplace(std::span<uint64_t>(f));
  return f;
}

std::vector<uint64_t> exponential_freqs(size_t n, double lambda, uint64_t max_f, uint64_t seed) {
  random_stream rs(seed);
  auto f = tabulate<uint64_t>(n, [&](size_t i) {
    double u = std::max(rs.ith_double(i), 1e-15);
    double v = -std::log(u) / lambda;
    uint64_t x = static_cast<uint64_t>(v) + 1;
    return std::min<uint64_t>(std::max<uint64_t>(x, 1), max_f);
  });
  sort_inplace(std::span<uint64_t>(f));
  return f;
}

std::vector<uint64_t> zipf_freqs(size_t n, double s, uint64_t max_f, uint64_t seed) {
  random_stream rs(seed);
  auto f = tabulate<uint64_t>(n, [&](size_t i) {
    // frequency of the i-th most common item ~ max_f / (i+1)^s, jittered
    double base = static_cast<double>(max_f) / std::pow(static_cast<double>(i + 1), s);
    uint64_t x = static_cast<uint64_t>(base);
    uint64_t jitter = rs.ith_bounded(i, x / 8 + 1);
    return std::max<uint64_t>(1, x + jitter);
  });
  sort_inplace(std::span<uint64_t>(f));
  return f;
}

huffman_result huffman_seq(std::span<const uint64_t> freqs, const context& ctx) {
  run_scope scope(ctx);
  return huffman_seq(freqs);
}

huffman_result huffman_parallel(std::span<const uint64_t> freqs, const context& ctx) {
  run_scope scope(ctx);
  return huffman_parallel(freqs);
}

}  // namespace pp
