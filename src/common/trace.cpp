#include "common/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <map>
#include <random>

#include "common/logging.hpp"

namespace ofmf::trace {
namespace {

thread_local TraceContext tls_context;
thread_local std::string_view tls_origin;

/// splitmix64 finalizer — cheap, well-mixed, and stateless.
std::uint64_t Mix(std::uint64_t z) {
  z += 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t ProcessSeed() {
  // Like the OfmfClient request-id prefix: ids must differ across processes
  // sharing a binary, which a fixed-seed stream cannot provide.
  static const std::uint64_t seed = [] {
    std::random_device entropy;
    return (static_cast<std::uint64_t>(entropy()) << 32) ^ entropy();
  }();
  return seed;
}

}  // namespace

TraceContext Current() { return tls_context; }

ScopedOrigin::ScopedOrigin(std::string_view label) : prev_(tls_origin) {
  tls_origin = label;
}

ScopedOrigin::~ScopedOrigin() { tls_origin = prev_; }

std::string_view CurrentOrigin() { return tls_origin; }

std::uint64_t NewId() {
  static std::atomic<std::uint64_t> counter{0};
  const std::uint64_t id =
      Mix(ProcessSeed() ^ counter.fetch_add(1, std::memory_order_relaxed));
  return id != 0 ? id : 1;  // 0 means "no trace"; never hand it out
}

std::string IdToHex(std::uint64_t id) {
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(id));
  return hex;
}

std::uint64_t HexToId(const std::string& hex) {
  if (hex.size() != 16) return 0;  // wire ids are exactly 16 hex digits
  std::uint64_t id = 0;
  for (const char c : hex) {
    id <<= 4;
    if (c >= '0' && c <= '9') {
      id |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      id |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      id |= static_cast<std::uint64_t>(c - 'A' + 10);
    } else {
      return 0;
    }
  }
  return id;
}

std::uint32_t ThreadOrdinal() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t ordinal =
      next.fetch_add(1, std::memory_order_relaxed);
  return ordinal;
}

std::uint64_t MonotonicNowNs() {
  static const std::chrono::steady_clock::time_point start =
      std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now() - start)
                                        .count());
}

TraceRecorder& TraceRecorder::instance() {
  static TraceRecorder recorder;
  return recorder;
}

void TraceRecorder::set_sampling(double probability) {
  sampling_.store(std::clamp(probability, 0.0, 1.0), std::memory_order_relaxed);
}

bool TraceRecorder::SampleNewTrace() {
  const double p = sampling_.load(std::memory_order_relaxed);
  if (p <= 0.0) return false;  // tracing off: no stats churn, no rng
  if (p < 1.0) {
    // Thread-local xorshift: the coin flip must not serialize root spans.
    thread_local std::uint64_t state = Mix(ProcessSeed() ^ ThreadOrdinal());
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    const double roll =
        static_cast<double>(state >> 11) / static_cast<double>(1ull << 53);
    if (roll >= p) {
      skipped_traces_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
  }
  sampled_traces_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void TraceRecorder::Record(SpanRecord span, bool local_root) {
  // A span with no recorded parent on this node tops this process's fragment
  // of the trace: a true root (parent 0) or an adopted wire identity. Both
  // drive the slow dump and retention, so shard-side fragments of a slow
  // federated request surface on the shard too.
  const bool root_like = local_root || span.parent_span_id == 0;
  const bool slow_root = root_like && slow_threshold_ns() != 0 &&
                         span.duration_ns >= slow_threshold_ns();
  const std::uint64_t trace_id = span.trace_id;
  const std::uint64_t duration_ns = span.duration_ns;
  const std::uint64_t retain_ns = retain_threshold_ns();
  {
    std::lock_guard<std::mutex> lock(mu_);
    const bool had_error =
        span.error ||
        std::find(error_traces_.begin(), error_traces_.end(), trace_id) !=
            error_traces_.end();
    if (span.error &&
        std::find(error_traces_.begin(), error_traces_.end(), trace_id) ==
            error_traces_.end()) {
      error_traces_.push_back(trace_id);
      if (error_traces_.size() > 4 * kRetainedTraces) {
        error_traces_.erase(error_traces_.begin());
      }
    }
    if (ring_.size() < kRingCapacity) {
      ring_.push_back(std::move(span));
    } else {
      spans_evicted_.fetch_add(1, std::memory_order_relaxed);
      ring_[next_] = std::move(span);
      wrapped_ = true;
    }
    next_ = (next_ + 1) % kRingCapacity;
    if (root_like && (had_error || (retain_ns != 0 && duration_ns >= retain_ns))) {
      RetainLocked(trace_id);
    }
  }
  spans_recorded_.fetch_add(1, std::memory_order_relaxed);
  if (slow_root) {
    slow_traces_.fetch_add(1, std::memory_order_relaxed);
    OFMF_WARN << "slow request trace " << IdToHex(trace_id) << ":\n"
              << FormatTraceTree(TraceSpans(trace_id));
  }
}

void TraceRecorder::RetainLocked(std::uint64_t trace_id) {
  // Collect this trace's spans still in the ring.
  std::vector<SpanRecord> spans;
  for (const SpanRecord& span : ring_) {
    if (span.trace_id == trace_id) spans.push_back(span);
  }
  if (spans.empty()) return;
  auto it = std::find_if(retained_.begin(), retained_.end(),
                         [&](const auto& e) { return e.first == trace_id; });
  if (it != retained_.end()) {
    // Re-retain (another fragment of the same trace finished on this node):
    // merge in any spans the first retain had not seen yet.
    for (SpanRecord& span : spans) {
      const bool known = std::any_of(
          it->second.begin(), it->second.end(),
          [&](const SpanRecord& have) { return have.span_id == span.span_id; });
      if (!known) it->second.push_back(std::move(span));
    }
    return;
  }
  retained_.emplace_back(trace_id, std::move(spans));
  retained_count_.fetch_add(1, std::memory_order_relaxed);
  if (retained_.size() > kRetainedTraces) retained_.erase(retained_.begin());
}

std::vector<SpanRecord> TraceRecorder::RetainedTrace(std::uint64_t trace_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [id, spans] : retained_) {
    if (id == trace_id) return spans;
  }
  return {};
}

std::vector<std::uint64_t> TraceRecorder::RetainedTraceIds() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::uint64_t> ids;
  ids.reserve(retained_.size());
  for (const auto& [id, spans] : retained_) ids.push_back(id);
  return ids;
}

std::vector<SpanRecord> TraceRecorder::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!wrapped_) return ring_;
  std::vector<SpanRecord> spans;
  spans.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    spans.push_back(ring_[(next_ + i) % kRingCapacity]);
  }
  return spans;
}

std::vector<SpanRecord> TraceRecorder::TraceSpans(std::uint64_t trace_id) const {
  std::vector<SpanRecord> spans = Snapshot();
  std::erase_if(spans, [&](const SpanRecord& span) { return span.trace_id != trace_id; });
  return spans;
}

TraceStats TraceRecorder::stats() const {
  TraceStats stats;
  stats.sampled_traces = sampled_traces_.load(std::memory_order_relaxed);
  stats.skipped_traces = skipped_traces_.load(std::memory_order_relaxed);
  stats.spans_recorded = spans_recorded_.load(std::memory_order_relaxed);
  stats.spans_evicted = spans_evicted_.load(std::memory_order_relaxed);
  stats.slow_traces = slow_traces_.load(std::memory_order_relaxed);
  stats.retained_traces = retained_count_.load(std::memory_order_relaxed);
  return stats;
}

void TraceRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  next_ = 0;
  wrapped_ = false;
  error_traces_.clear();
  retained_.clear();
}

void Span::Start(const char* name, TraceContext parent) {
  active_ = true;
  prev_ = tls_context;
  rec_.trace_id = parent.trace_id;
  rec_.parent_span_id = parent.span_id;
  rec_.span_id = NewId();
  rec_.name = name;
  rec_.origin = tls_origin;
  rec_.thread_id = ThreadOrdinal();
  rec_.start_ns = MonotonicNowNs();
  tls_context = TraceContext{rec_.trace_id, rec_.span_id};
}

Span::Span(const char* name) {
  if (!tls_context.active()) return;  // one TL read; the sampling-off path
  Start(name, tls_context);
}

Span::Span(const char* name, TraceContext remote) {
  if (tls_context.active()) {
    Start(name, tls_context);
  } else if (remote.active()) {
    Start(name, remote);  // adopt the wire identity; upstream sampled it
  } else if (TraceRecorder::instance().SampleNewTrace()) {
    Start(name, TraceContext{NewId(), 0});  // mint: this span is the root
  }
}

Span::Span(const char* name, TraceContext parent, Detached) : detached_(true) {
  if (!parent.active()) return;
  Start(name, parent);
  tls_context = prev_;  // never ambient
}

void Span::Note(const std::string& note) {
  if (!active_) return;
  if (!rec_.note.empty()) rec_.note += "; ";
  rec_.note += note;
}

void Span::SetError() {
  if (!active_) return;
  rec_.error = true;
}

TraceContext Span::context() const {
  if (!active_) return {};
  return TraceContext{rec_.trace_id, rec_.span_id};
}

void Span::End() {
  if (!active_) return;
  active_ = false;
  rec_.duration_ns = MonotonicNowNs() - rec_.start_ns;
  if (!detached_) tls_context = prev_;
  TraceRecorder::instance().Record(std::move(rec_), /*local_root=*/!prev_.active());
}

std::string FormatTraceTree(std::vector<SpanRecord> spans) {
  std::sort(spans.begin(), spans.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start_ns < b.start_ns;
            });
  std::map<std::uint64_t, std::vector<const SpanRecord*>> children;
  std::map<std::uint64_t, const SpanRecord*> by_id;
  for (const SpanRecord& span : spans) by_id[span.span_id] = &span;
  std::vector<const SpanRecord*> roots;
  for (const SpanRecord& span : spans) {
    // A span whose parent fell out of the ring renders as a root: the tree
    // stays printable even when the ring evicted its top.
    if (span.parent_span_id != 0 && by_id.count(span.parent_span_id) != 0) {
      children[span.parent_span_id].push_back(&span);
    } else {
      roots.push_back(&span);
    }
  }
  std::string out;
  const std::function<void(const SpanRecord&, int)> print = [&](const SpanRecord& span,
                                                                int depth) {
    char line[200];
    std::snprintf(line, sizeof line, "%*s%s%s%s%s %.3f ms [%s%sT%u]%s\n", depth * 2,
                  "", span.name.c_str(), span.note.empty() ? "" : " (",
                  span.note.c_str(), span.note.empty() ? "" : ")",
                  static_cast<double>(span.duration_ns) / 1e6, span.origin.c_str(),
                  span.origin.empty() ? "" : " ", span.thread_id,
                  span.error ? " !" : "");
    out += line;
    auto it = children.find(span.span_id);
    if (it == children.end()) return;
    for (const SpanRecord* child : it->second) print(*child, depth + 1);
  };
  for (const SpanRecord* root : roots) print(*root, 0);
  return out;
}

}  // namespace ofmf::trace
