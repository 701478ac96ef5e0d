// Lock-cheap end-to-end tracing for the management plane. A sampled request
// carries a 64-bit trace id + span id (ambient per-thread context, stamped
// on the wire as X-Trace-Id / X-Span-Id), every instrumented stage opens an
// RAII Span, and finished spans land in a bounded ring buffer that scrapes
// and the slow-request dump read back as one tree:
//
//   client.post -> retry.attempt -> http.handle -> rest.post
//     -> compose.claim / compose.create -> journal.commit -> journal.fsync
//
// Cost model: with sampling off (the default), opening a Span is one
// thread-local read plus one relaxed atomic load — no clock read, no lock,
// no allocation — so the instrumented read fast lane stays within the < 2%
// budget bench_trace_overhead enforces. Only sampled spans pay for ids,
// timestamps, and the ring-buffer mutex.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ofmf::trace {

/// Wire header names (stamped alongside the existing X-Request-Id).
inline constexpr const char* kTraceIdHeader = "X-Trace-Id";
inline constexpr const char* kSpanIdHeader = "X-Span-Id";

/// Identity a span executes under. trace_id == 0 means "not sampled": every
/// Span opened under it is a no-op.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;  // parent for spans opened under this context
  bool active() const { return trace_id != 0; }
};

/// Ambient context of the calling thread ({} when none). Spans install
/// themselves here on start and restore the previous value on end, so
/// nesting needs no plumbing through call signatures.
TraceContext Current();

/// One finished span. Timestamps are monotonic nanoseconds since process
/// start — the same clock the Logger prefixes lines with, so logs and
/// traces correlate by inspection.
struct SpanRecord {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;  // 0 = root of its trace
  std::string name;
  std::string note;  // free-form annotation ("POST /redfish/v1/Systems", error text)
  std::string origin;  // node label (shard id / "router") at record time
  std::uint64_t start_ns = 0;
  std::uint64_t duration_ns = 0;
  std::uint32_t thread_id = 0;  // small per-process thread ordinal
  bool error = false;  // marked failed (5xx, transport error)
};

struct TraceStats {
  std::uint64_t sampled_traces = 0;  // root spans that minted a trace
  std::uint64_t skipped_traces = 0;  // sampler said no
  std::uint64_t spans_recorded = 0;
  std::uint64_t spans_evicted = 0;  // ring slots overwritten before a scrape
  std::uint64_t slow_traces = 0;    // slow-request dumps emitted
  std::uint64_t retained_traces = 0;  // trees kept for TraceDump
};

/// Process-global span sink: sampling knob, bounded ring of finished spans,
/// slow-request dump. Record() takes one mutex; everything on the
/// sampling-off path is a relaxed atomic.
class TraceRecorder {
 public:
  static TraceRecorder& instance();

  /// Probability in [0,1] that a new root span starts a trace; 0 disables
  /// tracing entirely (the default).
  void set_sampling(double probability);
  double sampling() const { return sampling_.load(std::memory_order_relaxed); }
  /// Tracing is on iff sampling > 0. Entry points consult this before doing
  /// any per-request work (wire-header parsing included): sampling 0 means
  /// this node neither mints nor adopts traces.
  bool enabled() const { return sampling() > 0.0; }

  /// Root spans slower than this dump their whole span tree via OFMF_WARN
  /// when they finish; 0 (default) disables the dump.
  void set_slow_threshold_ns(std::uint64_t ns) {
    slow_threshold_ns_.store(ns, std::memory_order_relaxed);
  }
  std::uint64_t slow_threshold_ns() const {
    return slow_threshold_ns_.load(std::memory_order_relaxed);
  }

  /// Local-root trees (the span that restored an empty ambient context —
  /// i.e. this process's fragment of a possibly cross-process trace) slower
  /// than this are retained for TraceDump; 0 (default) retains only error
  /// trees. Error trees (any span marked failed) are always retained.
  void set_retain_threshold_ns(std::uint64_t ns) {
    retain_threshold_ns_.store(ns, std::memory_order_relaxed);
  }
  std::uint64_t retain_threshold_ns() const {
    return retain_threshold_ns_.load(std::memory_order_relaxed);
  }

  /// Coin flip for a new root span (per-trace decision; children inherit).
  bool SampleNewTrace();

  /// Accepts a finished span; evicts the oldest when the ring is full. Also
  /// emits the slow-request dump when a local root finishes over the slow
  /// threshold, and retains the trace's span tree when it qualifies
  /// (see set_retain_threshold_ns). `local_root` marks a span that had no
  /// ambient parent on this thread — the top of this process's fragment.
  void Record(SpanRecord span, bool local_root = false);

  /// Ring contents, oldest first.
  std::vector<SpanRecord> Snapshot() const;
  /// Spans of one trace still in the ring, oldest first.
  std::vector<SpanRecord> TraceSpans(std::uint64_t trace_id) const;

  /// Retained (slow/error) span tree for `trace_id`; empty when not retained.
  std::vector<SpanRecord> RetainedTrace(std::uint64_t trace_id) const;
  /// Ids of currently retained traces, oldest first.
  std::vector<std::uint64_t> RetainedTraceIds() const;

  TraceStats stats() const;
  void Clear();

  static constexpr std::size_t kRingCapacity = 8192;
  static constexpr std::size_t kRetainedTraces = 64;

 private:
  TraceRecorder() = default;

  void RetainLocked(std::uint64_t trace_id);

  std::atomic<double> sampling_{0.0};
  std::atomic<std::uint64_t> slow_threshold_ns_{0};
  std::atomic<std::uint64_t> retain_threshold_ns_{0};

  std::atomic<std::uint64_t> sampled_traces_{0};
  std::atomic<std::uint64_t> skipped_traces_{0};
  std::atomic<std::uint64_t> spans_recorded_{0};
  std::atomic<std::uint64_t> spans_evicted_{0};
  std::atomic<std::uint64_t> slow_traces_{0};
  std::atomic<std::uint64_t> retained_count_{0};

  mutable std::mutex mu_;
  std::vector<SpanRecord> ring_;  // circular once it reaches capacity
  std::size_t next_ = 0;
  bool wrapped_ = false;
  /// Traces that saw an error span; the local root's completion retains them.
  std::vector<std::uint64_t> error_traces_;  // bounded FIFO
  /// FIFO of retained trees, keyed by trace id (newest retain wins; a
  /// re-retain of the same trace merges in any newly finished spans).
  std::vector<std::pair<std::uint64_t, std::vector<SpanRecord>>> retained_;
};

/// RAII span. The plain constructor opens a child of the ambient context and
/// is a no-op when the thread carries none. The entry-point constructor
/// (with a remote context) is for transport boundaries: it prefers the
/// ambient context, then adopts the remote (wire-header) identity, then
/// consults the sampler to mint a fresh trace.
class Span {
 public:
  explicit Span(const char* name);
  Span(const char* name, TraceContext remote);
  /// Tag for a span that is never installed as the ambient context.
  struct Detached {};
  /// Opens a child of `parent` (a no-op when `parent` is inactive) without
  /// making it the thread's ambient context, so several can be open on one
  /// thread at once and end in any order: the legs of a multiplexed
  /// scatter-gather. Stamp the wire from context(); spans opened meanwhile
  /// on this thread do not nest under it.
  Span(const char* name, TraceContext parent, Detached);
  ~Span() { End(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  bool active() const { return active_; }
  /// Appends an annotation ("; "-joined). No-op when inactive.
  void Note(const std::string& note);
  /// Marks this span failed; the recorder always retains error trees so
  /// TraceDump can serve them after the fact. No-op when inactive.
  void SetError();
  /// {trace_id, this span's id} for stamping the wire; {} when inactive.
  TraceContext context() const;
  /// Records the span now instead of at scope exit (idempotent).
  void End();

 private:
  void Start(const char* name, TraceContext parent);

  bool active_ = false;
  bool detached_ = false;
  TraceContext prev_;  // ambient context to restore on End()
  SpanRecord rec_;
};

/// RAII thread-local node label stamped into every span a thread records
/// while it is in scope ("router", a shard id). Lets an assembled
/// cross-process tree attribute each span to the node that produced it —
/// essential in tests and benches where several logical nodes share one
/// process (and one TraceRecorder). The label must outlive the scope
/// (callers pass members / string literals); cost is two thread-local
/// stores, so it is safe on hot paths even with tracing off.
class ScopedOrigin {
 public:
  explicit ScopedOrigin(std::string_view label);
  ~ScopedOrigin();
  ScopedOrigin(const ScopedOrigin&) = delete;
  ScopedOrigin& operator=(const ScopedOrigin&) = delete;

 private:
  std::string_view prev_;
};

/// The calling thread's current origin label ("" when none).
std::string_view CurrentOrigin();

/// Collision-resistant non-zero 64-bit id (process-seeded, counter-mixed).
std::uint64_t NewId();
/// 16-hex-digit form used on the wire ("00f3a9..."); HexToId returns 0 on
/// anything that does not parse, which callers treat as "no trace".
std::string IdToHex(std::uint64_t id);
std::uint64_t HexToId(const std::string& hex);

/// Small monotonic ordinal of the calling thread (1, 2, ...). Shared with
/// the Logger's line prefix so "[T3]" means the same thread in both.
std::uint32_t ThreadOrdinal();

/// Monotonic nanoseconds since process start (same epoch as SpanRecord and
/// the Logger prefix).
std::uint64_t MonotonicNowNs();

/// Indented rendering of a span set as trees, one line per span:
///   "  compose.claim (/redfish/v1/...) 1.204 ms [T3]". Used by the
/// slow-request dump and handy in tests.
std::string FormatTraceTree(std::vector<SpanRecord> spans);

}  // namespace ofmf::trace
