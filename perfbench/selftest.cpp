// Self-tests of the benchmark's arithmetic (arith.hpp). run.py runs this
// binary before every measurement and refuses to report numbers when it
// fails, so a broken percentile or self-time rule can never publish a result.
#include <cmath>
#include <cstdio>
#include <vector>

#include "arith.hpp"

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

void TestPercentiles() {
  using perfbench::Summarize;
  Check(Summarize({}).count == 0 && !Summarize({}).has_p99, "empty input has no p99");

  // 1..100: nearest-rank p50 is 50; p99 is 99 with one sample beyond it,
  // which is too few to report.
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  const auto s100 = Summarize(hundred);
  Check(s100.count == 100, "count is the sample count");
  Check(s100.p50 == 50.0, "p50 of 1..100 is 50");
  Check(!s100.has_p99, "p99 withheld with 1 sample beyond it");

  // 999 samples: ceil(0.99*999)=990, 9 beyond -> still withheld.
  std::vector<double> s999;
  for (int i = 1; i <= 999; ++i) s999.push_back(i);
  Check(!Summarize(s999).has_p99, "p99 withheld with 9 samples beyond it");

  // 1000 samples: rank 990, 10 beyond -> reported, value 990.
  std::vector<double> s1000;
  for (int i = 1000; i >= 1; --i) s1000.push_back(i);
  const auto k = Summarize(s1000);
  Check(k.has_p99, "p99 reported with 10 samples beyond it");
  Check(k.p99 == 990.0, "p99 of 1..1000 is 990");
  Check(k.p50 == 500.0, "p50 of 1..1000 is 500");
  Check(perfbench::BeyondP99(1000) == 10 && perfbench::BeyondP99(999) == 9,
        "samples beyond the p99 rank");
  Check(perfbench::Median({3.0, 1.0, 2.0}) == 2.0, "median of three");
}

void TestLatencyHistogram() {
  using perfbench::LatencyHistogram;
  const auto near = [](double got, double want) {
    return std::fabs(got - want) <= want / 1024.0;
  };
  std::size_t previous = 0;
  bool exact = true, close = true, ordered = true, bounded = true;
  for (std::uint64_t v : {0ull, 1ull, 1023ull, 1024ull, 1025ull, 2047ull, 2048ull, 99999ull,
                          123456ull, 1000000000ull, (1ull << 41) - 1}) {
    const std::size_t i = LatencyHistogram::Index(v);
    if (v < 1024 && LatencyHistogram::Midpoint(i) != static_cast<double>(v)) exact = false;
    if (!near(LatencyHistogram::Midpoint(i), static_cast<double>(v))) close = false;
    if (i < previous) ordered = false;
    if (i >= LatencyHistogram::kBuckets) bounded = false;
    previous = i;
  }
  Check(exact, "histogram is exact below 1024 ns");
  Check(close, "histogram bucket midpoints within 1/1024 of the value");
  Check(ordered, "histogram buckets ordered by value");
  Check(bounded && LatencyHistogram::Index(~0ull) == LatencyHistogram::kBuckets - 1,
        "histogram clamps to its last bucket");

  // 1..1000 us: the same nearest-rank p50/p99 and p99 rule as the vector
  // form, to the bucket width.
  LatencyHistogram low, high, all;
  for (std::uint64_t us = 1; us <= 1000; ++us) {
    (us <= 500 ? low : high).Add(us * 1000);
    all.Add(us * 1000);
  }
  const auto k = all.Summarize(1e3);
  Check(k.count == 1000 && near(k.p50, 500.0) && k.has_p99 && near(k.p99, 990.0),
        "histogram p50/p99 of 1..1000 us");
  low.Merge(high);
  const auto merged = low.Summarize(1e3);
  Check(merged.count == k.count && merged.p50 == k.p50 && merged.p99 == k.p99,
        "merged halves summarize as the whole");
  LatencyHistogram s999;
  for (std::uint64_t us = 1; us <= 999; ++us) s999.Add(us * 1000);
  Check(!s999.Summarize(1e3).has_p99, "histogram withholds p99 with 9 samples beyond it");
  Check(LatencyHistogram().Summarize(1e3).count == 0, "empty histogram");
}

void TestSelfTime() {
  using perfbench::SelfTime;
  Check(SelfTime(0, 100, {}) == 100, "no children: self time is the span");
  Check(SelfTime(0, 100, {{10, 30}, {50, 60}}) == 70, "disjoint children subtract");
  Check(SelfTime(0, 100, {{10, 40}, {20, 50}}) == 60, "overlapping children count once");
  Check(SelfTime(0, 100, {{20, 50}, {10, 40}, {45, 60}}) == 50, "unsorted overlap chain");
  Check(SelfTime(0, 100, {{0, 100}}) == 0, "child covering the span leaves nothing");
  Check(SelfTime(10, 100, {{0, 20}, {90, 200}}) == 70, "children clipped to the parent");
  Check(SelfTime(0, 100, {{30, 30}, {60, 50}}) == 100, "empty or inverted children ignored");
  Check(SelfTime(50, 50, {{0, 100}}) == 0, "empty parent");
}

/// Spans of one forwarded request laid out back to back from t=0: wire
/// before and after the router span, hop around the shard span.
perfbench::RequestSpans Forwarded(std::uint64_t wire, std::uint64_t hop, std::uint64_t shard) {
  const std::uint64_t r0 = wire / 2, s0 = r0 + hop / 2;
  const std::uint64_t s1 = s0 + shard, r1 = s1 + (hop - hop / 2);
  return {{0, r1 + (wire - wire / 2)}, {r0, r1}, {{s0, s1}}};
}

std::vector<double> Row(const perfbench::RequestSpans& spans) {
  std::vector<double> row;
  for (std::uint64_t v : perfbench::RequestRow(spans)) row.push_back(static_cast<double>(v));
  return row;
}

void TestRequestRow() {
  using perfbench::Nested;
  const auto spans = Forwarded(100, 30, 20);
  Check(Row(spans) == std::vector<double>{150, 100, 30, 20}, "row is client, wire, hop, shard");
  Check(Nested(spans), "forwarded spans nest");
  // Two shard spans that overlap (a scatter-gather) count once in the hop.
  const perfbench::RequestSpans gather{{0, 100}, {10, 90}, {{20, 60}, {40, 70}}};
  Check(Row(gather) == std::vector<double>{100, 20, 30, 70}, "overlapping legs in the hop");
  Check(Nested(gather), "legs inside the router span nest");
  Check(!Nested({{0, 100}, {50, 120}, {}}), "router span outliving the client does not nest");
  Check(!Nested({{0, 100}, {10, 90}, {{5, 20}}}), "shard span before the router's does not nest");
}

void TestReconcile() {
  using perfbench::kReconcileTolerance;
  using perfbench::Reconcile;
  // Every layer varies a little around its own typical value: the medians
  // add up to the client median.
  std::vector<std::vector<double>> steady;
  for (int i = 0; i < 1000; ++i) {
    steady.push_back(Row(Forwarded(200 + i % 11, 40 + i % 7, 20 + i % 5)));
  }
  const auto ok = Reconcile(steady);
  Check(ok.layer_medians.size() == 3, "one median per layer");
  Check(ok.layer_medians == std::vector<double>{205, 43, 22}, "per-layer medians");
  Check(ok.holds(), "steady layers reconcile");

  // Half the requests spend their time on the wire, half in the shard: each
  // layer's median is its short value, and the medians explain a third of
  // the client median.
  std::vector<std::vector<double>> split;
  for (int i = 0; i < 1000; ++i) {
    split.push_back(Row(i % 2 == 0 ? Forwarded(100, 10, 10) : Forwarded(10, 10, 100)));
  }
  const auto miss = Reconcile(split);
  Check(miss.client_median == 120.0, "client median of the split rows");
  Check(!miss.holds() && miss.error > 0.5, "layers that trade off do not reconcile");

  // The tolerance itself: a sum just inside it holds, just outside misses.
  std::vector<std::vector<double>> edge_in{{100.0, 50.0, 30.0, 20.0 + 100.0 * kReconcileTolerance * 0.99}};
  std::vector<std::vector<double>> edge_out{{100.0, 50.0, 30.0, 20.0 - 100.0 * kReconcileTolerance * 1.01}};
  Check(Reconcile(edge_in).holds(), "inside the tolerance");
  Check(!Reconcile(edge_out).holds(), "outside the tolerance");
  Check(Reconcile({}).layer_medians.empty() && Reconcile({}).error == 0.0, "no rows, no error");
}

void TestFailedShare() {
  using perfbench::FailedShare;
  using perfbench::IsFailureStatus;
  Check(IsFailureStatus(429), "429 is a failure");
  Check(IsFailureStatus(503), "503 is a failure");
  Check(IsFailureStatus(500) && IsFailureStatus(404) && IsFailureStatus(412),
        "other non-2xx statuses are failures");
  Check(!IsFailureStatus(200) && !IsFailureStatus(201) && !IsFailureStatus(204),
        "2xx is success");
  Check(!IsFailureStatus(304), "304 revalidation is success");
  std::uint64_t failed = 0;
  const int statuses[] = {200, 429, 304, 503, 201, 200, 200, 200};
  for (int status : statuses) failed += IsFailureStatus(status) ? 1 : 0;
  Check(FailedShare(failed, 8) == 0.25, "429 and 503 count toward failed_share");
  Check(FailedShare(0, 0) == 0.0, "no attempts, no share");
}

}  // namespace

int main() {
  TestPercentiles();
  TestLatencyHistogram();
  TestSelfTime();
  TestRequestRow();
  TestReconcile();
  TestFailedShare();
  if (failures != 0) {
    std::fprintf(stderr, "selftest: %d check(s) failed\n", failures);
    return 1;
  }
  std::printf("selftest: arithmetic checks passed\n");
  return 0;
}
