// The benchmark's own arithmetic: percentiles with their sample-count rule,
// self time of a span under overlapping children, a request's per-layer row
// and span nesting, the reconciliation of per-layer median self times against
// the client-observed median, and the failed-request share. Kept free of any OFMF dependency so selftest.cpp can
// pin it down exactly.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

/// A timing summary: median, the p99 (only when at least kMinBeyond samples
/// lie beyond it), and the sample count behind both.
struct Summary {
  std::size_t count = 0;
  double p50 = 0.0;
  bool has_p99 = false;
  double p99 = 0.0;
};

/// Samples strictly above the p99 rank must number at least this many before
/// a p99 is reported; below that the tail is one or two outliers, not a
/// percentile.
inline constexpr std::size_t kMinBeyond = 10;

/// Nearest-rank percentile of already sorted samples: the smallest value
/// with at least q*n samples at or below it. q in (0, 1].
inline double NearestRank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  if (index >= sorted.size()) index = sorted.size() - 1;
  return sorted[index];
}

/// Samples beyond the nearest-rank p99 position.
inline std::size_t BeyondP99(std::size_t n) {
  const auto at = static_cast<std::size_t>(std::ceil(0.99 * static_cast<double>(n)));
  return n > at ? n - at : 0;
}

inline Summary Summarize(std::vector<double> samples) {
  Summary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = NearestRank(samples, 0.50);
  if (BeyondP99(samples.size()) >= kMinBeyond) {
    s.has_p99 = true;
    s.p99 = NearestRank(samples, 0.99);
  }
  return s;
}

/// Median of unsorted samples (0 when empty).
inline double Median(std::vector<double> samples) { return Summarize(std::move(samples)).p50; }

/// Request latencies in nanoseconds, in a log-linear histogram: one bucket
/// per nanosecond below 1024 ns, then 512 buckets per power of two, so a
/// bucket is at most 1/512 of its value wide. Its size is fixed, so the
/// benchmark's own memory (and so rss_mib) does not grow with the number of
/// requests a run completes. Summarize applies the nearest-rank rule and
/// the p99 sample-count rule of the vector form to the bucket midpoints.
class LatencyHistogram {
 public:
  static constexpr int kSubBits = 9;
  static constexpr std::uint64_t kLinear = 2ull << kSubBits;  // 1024
  static constexpr int kMaxShift = 31;                         // up to 2^41 ns
  static constexpr std::size_t kBuckets =
      kLinear + static_cast<std::size_t>(kMaxShift) * (kLinear / 2);

  void Add(std::uint64_t ns) {
    ++counts_[Index(ns)];
    ++count_;
  }
  void Merge(const LatencyHistogram& other) {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    count_ += other.count_;
  }
  std::size_t count() const { return count_; }

  /// The summary in units of `unit_ns` nanoseconds (1e3 for us, 1e6 for ms).
  Summary Summarize(double unit_ns) const {
    Summary s;
    s.count = count_;
    if (count_ == 0) return s;
    s.p50 = AtRank(0.50) / unit_ns;
    if (BeyondP99(count_) >= kMinBeyond) {
      s.has_p99 = true;
      s.p99 = AtRank(0.99) / unit_ns;
    }
    return s;
  }

  static std::size_t Index(std::uint64_t ns) {
    if (ns < kLinear) return static_cast<std::size_t>(ns);
    int top = 63;
    while (((ns >> top) & 1) == 0) --top;
    int shift = top - kSubBits;
    if (shift > kMaxShift) {
      shift = kMaxShift;
      ns = (kLinear << kMaxShift) - 1;
    }
    const std::uint64_t sub = (ns >> shift) - kLinear / 2;
    return static_cast<std::size_t>(kLinear + static_cast<std::uint64_t>(shift - 1) * (kLinear / 2) + sub);
  }
  /// The middle of bucket `index`, in nanoseconds.
  static double Midpoint(std::size_t index) {
    if (index < kLinear) return static_cast<double>(index);
    const std::size_t k = index - kLinear;
    const int shift = static_cast<int>(k / (kLinear / 2)) + 1;
    const std::uint64_t lower = (k % (kLinear / 2) + kLinear / 2) << shift;
    return static_cast<double>(lower) + static_cast<double>((1ull << shift) - 1) / 2.0;
  }

 private:
  /// Midpoint of the bucket holding the nearest-rank q-quantile.
  double AtRank(double q) const {
    const double rank = std::ceil(q * static_cast<double>(count_));
    const std::uint64_t want = rank < 1.0 ? 1 : static_cast<std::uint64_t>(rank);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      seen += counts_[i];
      if (seen >= want) return Midpoint(i);
    }
    return Midpoint(kBuckets - 1);
  }

  std::vector<std::uint64_t> counts_ = std::vector<std::uint64_t>(kBuckets);
  std::size_t count_ = 0;
};


/// Self time of the interval [start, end): its length minus the part of it
/// covered by the union of `children` (each clipped to the parent, overlaps
/// between children counted once).
inline std::uint64_t SelfTime(std::uint64_t start, std::uint64_t end,
                              std::vector<std::pair<std::uint64_t, std::uint64_t>> children) {
  if (end <= start) return 0;
  for (auto& [cs, ce] : children) {
    cs = std::clamp(cs, start, end);
    ce = std::clamp(ce, start, end);
  }
  std::sort(children.begin(), children.end());
  std::uint64_t covered = 0;
  std::uint64_t run_start = 0;
  std::uint64_t run_end = 0;
  bool open = false;
  for (const auto& [cs, ce] : children) {
    if (ce <= cs) continue;
    if (!open || cs > run_end) {
      if (open) covered += run_end - run_start;
      run_start = cs;
      run_end = ce;
      open = true;
    } else {
      run_end = std::max(run_end, ce);
    }
  }
  if (open) covered += run_end - run_start;
  return (end - start) - covered;
}

/// One correlated request's spans, on one steady clock: the client request,
/// the router handler and the shard handlers the router called for it.
struct RequestSpans {
  std::pair<std::uint64_t, std::uint64_t> client, router;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> shards;
};

/// The request's row {client, router wire, shard hop, shard handler}, in the
/// spans' unit: wire is the client span minus the router span, hop the
/// router span minus the union of its shard spans, shard the shard spans'
/// total. When the shard spans do not overlap (one forwarded request), the
/// row sums to the client span by construction, so it is a decomposition,
/// not a check.
inline std::vector<std::uint64_t> RequestRow(const RequestSpans& r) {
  std::uint64_t shard = 0;
  for (const auto& [s, e] : r.shards) shard += e > s ? e - s : 0;
  return {r.client.second - r.client.first,
          SelfTime(r.client.first, r.client.second, {r.router}),
          SelfTime(r.router.first, r.router.second, r.shards), shard};
}

/// Whether the spans nest as a forwarded request must: the router span
/// inside the client span, each shard span inside the router span. A
/// request id that correlated the wrong spans breaks this, and then the
/// clipping in SelfTime would hide the error, so a miss is a failure.
inline bool Nested(const RequestSpans& r) {
  const auto inside = [](std::pair<std::uint64_t, std::uint64_t> outer,
                         std::pair<std::uint64_t, std::uint64_t> inner) {
    return outer.first <= inner.first && inner.first <= inner.second &&
           inner.second <= outer.second;
  };
  if (!inside(r.client, r.router)) return false;
  for (const auto& shard : r.shards) {
    if (!inside(r.router, shard)) return false;
  }
  return true;
}

/// The reconciliation: each layer's median self time, taken over all
/// requests on its own, summed and compared with the client median. Medians
/// do not add, so the sum misses whenever the layers' typical values do not
/// make up the typical request (skew, or layers that trade off against each
/// other). The tolerance is about three times the largest error it showed on
/// any workload (see METRICS.md).
inline constexpr double kReconcileTolerance = 0.15;

struct Reconciliation {
  double client_median = 0.0;
  std::vector<double> layer_medians;
  double error = 0.0;  // |sum(layer medians) - client median| / client median
  bool holds() const { return error <= kReconcileTolerance; }
};

/// `rows` hold one request each: {client latency, layer 1, layer 2, ...}.
inline Reconciliation Reconcile(const std::vector<std::vector<double>>& rows) {
  Reconciliation out;
  if (rows.empty()) return out;
  const std::size_t width = rows[0].size();
  std::vector<double> column(rows.size());
  for (std::size_t l = 0; l < width; ++l) {
    for (std::size_t i = 0; i < rows.size(); ++i) column[i] = rows[i][l];
    std::sort(column.begin(), column.end());
    const double median = NearestRank(column, 0.5);
    if (l == 0) {
      out.client_median = median;
    } else {
      out.layer_medians.push_back(median);
    }
  }
  double sum = 0.0;
  for (double m : out.layer_medians) sum += m;
  out.error = out.client_median <= 0.0 ? 0.0
                                       : std::fabs(sum - out.client_median) / out.client_median;
  return out;
}

/// A response counts as failed unless it is a 2xx or a 304. Refusals (429
/// rate limit, 503 overload) are failures like any other: a refused request
/// missed every latency limit.
inline bool IsFailureStatus(int status) {
  return !((status >= 200 && status < 300) || status == 304);
}

/// Failed or refused requests (including failed correctness checks) over
/// requests attempted.
inline double FailedShare(std::uint64_t failed, std::uint64_t attempted) {
  return attempted == 0 ? 0.0 : static_cast<double>(failed) / static_cast<double>(attempted);
}

}  // namespace perfbench
