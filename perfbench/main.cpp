// End-to-end benchmark of the federated, durable OFMF: one process brings up
// a directory, a FederationRouter and two durable OfmfService shards (QoS
// classifier, tenants, push event subscribers) on loopback and drives them
// over TCP through the router only. See perfbench/METRICS.md.
//
//   perfbench --workload bb_lifecycle|hot_read|fleet_sweep --seed N
//             --seconds S --trace 0|1 [--work-dir DIR] [--source-id TEXT]
//
// --trace 0 measures untraced deployments (the program's handlers passed to
// the servers unwrapped) in six segments and reports the end-to-end metrics,
// scaled to a reference host speed. --trace 1 measures an untraced and then
// a traced deployment for S/2 seconds each and reports the per-layer
// metrics, the tracing overhead and the reconciliation of per-layer median
// self times with the client median. The last line of stdout is the JSON
// result; everything before it is the readable report.
#include <arpa/inet.h>
#include <malloc.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/statfs.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>

#include "arith.hpp"
#include "bench.hpp"
#include "common/logging.hpp"
#include "common/metrics.hpp"
#include "json/parse.hpp"
#include "ofmf/uris.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// Set-ups per --trace 0 run; setup_s is their median.
constexpr int kSetupRepeats = 9;
/// The last kSegments of those deployments each carry S / kSegments seconds
/// of the workload, and each gated rate or timing is the median of its
/// per-segment values. A host slowdown shorter than a segment, or a slow
/// deployment, then moves one segment and not the result.
constexpr int kSegments = 6;

/// The host speed the gated figures are scaled to, in HostSpeed() round
/// trips per second.
constexpr double kReferenceSpeed = 1.0e5;

/// Round trips per second of a 300-byte ping-pong between two threads over
/// one fresh loopback TCP connection (two context switches and four socket
/// calls each): the median of four 5 ms slices, so a stall that hits one
/// slice does not move it. 0 when a socket call fails.
double PingPong() {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof addr;
  if (listener < 0 || ::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(listener, 1) != 0 ||
      ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    if (listener >= 0) ::close(listener);
    return 0.0;
  }
  const int client = ::socket(AF_INET, SOCK_STREAM, 0);
  const bool connected =
      client >= 0 && ::connect(client, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0;
  const int server = connected ? ::accept(listener, nullptr, nullptr) : -1;
  ::close(listener);
  if (server < 0) {
    if (client >= 0) ::close(client);
    return 0.0;
  }
  const int one = 1;
  ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::setsockopt(server, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  std::thread echo([server] {
    char buf[512];
    for (ssize_t n; (n = ::recv(server, buf, sizeof buf, 0)) > 0;) {
      if (::send(server, buf, static_cast<std::size_t>(n), MSG_NOSIGNAL) != n) break;
    }
    ::close(server);
  });
  constexpr std::size_t kMessage = 300;
  char buf[512] = {};
  std::vector<double> rates;
  bool ok = true;
  for (int slice = 0; slice < 4 && ok; ++slice) {
    const Clock::time_point t0 = Clock::now();
    double elapsed = 0.0;
    int trips = 0;
    do {
      ok = ::send(client, buf, kMessage, MSG_NOSIGNAL) == static_cast<ssize_t>(kMessage);
      for (std::size_t got = 0; ok && got < kMessage;) {
        const ssize_t n = ::recv(client, buf, sizeof buf, 0);
        ok = n > 0;
        got += ok ? static_cast<std::size_t>(n) : 0;
      }
      ++trips;
      elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
    } while (ok && elapsed < 0.005);
    rates.push_back(trips / elapsed);
  }
  ::shutdown(client, SHUT_RDWR);
  echo.join();
  ::close(client);
  return ok ? Median(rates) : 0.0;
}

/// How fast the host runs this CPU right now, measured the way the program
/// spends its time: the mean PingPong() over five connections, since one
/// connection's rate sat 15-30% above or below another's on the same host
/// minute. 0 when a probe fails.
///
/// On the 4-vCPU KVM guest the benchmark was tuned on, every workload's
/// times and rates drifted by 2x over tens of minutes, with no steal
/// accounted, and loopback ping-pong rates drifted with them: hot_read's
/// requests per round trip read 0.145-0.175 whether the host ran it at
/// 12,000 or at 29,000 req/s. A multiply-xor chain on the same CPU moved
/// only 1.25x over the same drift. The probe is the benchmark's own code, so
/// a change to the program cannot move it.
double HostSpeed() {
  constexpr int kConnections = 5;
  double sum = 0.0;
  for (int c = 0; c < kConnections; ++c) {
    const double rate = PingPong();
    if (rate <= 0.0) return 0.0;
    sum += rate;
  }
  return sum / kConnections;
}

/// The whole process (every server, worker and client thread) runs on one
/// CPU. On a 4-vCPU KVM guest with 20-25% host steal, every cross-vCPU
/// wake-up was a lottery: unpinned, hot_read's req_per_s swung 2x between
/// identical runs and the p99 was 5-10 ms of scheduling delay; fleet_sweep on
/// 3 CPUs spread 0.36 (IQR/median of req_per_s over 10 seeds) against
/// 0.04-0.10 for the workloads on one. On one CPU a request's latency is the work of
/// its layers plus queueing. The price: the router's scatter-gather legs,
/// one thread each, run one after the other, so a change that removed that
/// parallelism would not read as a loss here (METRICS.md says so).
constexpr int kPinnedCpus = 1;

struct Pinning {
  int cpus = 0;    // CPUs the process may run on
  int first = -1;  // the lowest of them
};

/// Restricts the process to the first `count` CPUs it is allowed on (fewer
/// when fewer are allowed). cpus == 0 when the affinity cannot be set.
Pinning PinToCpus(int count) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) return {};
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  Pinning p;
  for (int cpu = 0; cpu < CPU_SETSIZE && p.cpus < count; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    CPU_SET(cpu, &chosen);
    if (p.first < 0) p.first = cpu;
    ++p.cpus;
  }
  if (p.cpus == 0 || ::sched_setaffinity(0, sizeof chosen, &chosen) != 0) return {};
  return p;
}
Pinning g_pinning;

/// One malloc arena for every thread. With one CPU there is no allocator
/// contention to spread (with three, little), and glibc's per-thread arenas
/// made peak RSS depend on which thread happened to allocate what: it swung
/// +-20% between identical runs, against +-1% with a single arena. Allocators without the
/// knob (sanitizer runtimes) keep theirs; the stamp says which.
bool g_one_arena = false;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_build/perfbench-work";
  std::string source_id = "unknown";
};

// ------------------------------------------------------------- counters ---

const char* const kRegistryHistograms[] = {"compose.claim.ns",  "compose.create.ns",
                                           "decompose.total.ns", "journal.commit.ns",
                                           "journal.fsync.ns"};

struct Counters {
  http::ServerStats router;
  std::vector<http::ServerStats> shards;
  std::vector<std::vector<qos::TenantStats>> tenants;
  federation::RouterStats route;
  std::vector<store::StoreStats> stores;
  std::vector<redfish::ResponseCacheStats> caches;
  std::vector<core::DeliverySnapshot> delivery;
  std::map<std::string, metrics::Histogram::Snapshot> histograms;
  std::uint64_t write_bytes = 0;
  std::uint64_t cpu_ns = 0;
};

std::uint64_t ProcessWriteBytes() {
  std::ifstream io("/proc/self/io");
  std::string key;
  std::uint64_t value = 0;
  while (io >> key >> value) {
    if (key == "write_bytes:") return value;
  }
  return 0;
}

std::uint64_t ProcessCpuNs() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto ns = [](const timeval& tv) {
    return static_cast<std::uint64_t>(tv.tv_sec) * 1000000000ull +
           static_cast<std::uint64_t>(tv.tv_usec) * 1000ull;
  };
  return ns(usage.ru_utime) + ns(usage.ru_stime);
}

double PeakRssMiB() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

Counters Snapshot(Deployment& d) {
  Counters c;
  c.router = d.router_server().stats();
  c.route = d.router().stats();
  for (auto& shard : d.shards()) {
    c.shards.push_back(shard->server.stats());
    c.tenants.push_back(shard->server.TenantQosStats());
    c.stores.push_back(shard->service.store()->stats());
    c.caches.push_back(shard->service.rest().response_cache().stats());
    c.delivery.push_back(shard->service.events().CollectDelivery());
  }
  for (const auto& named : metrics::Registry::instance().HistogramSnapshots()) {
    for (const char* name : kRegistryHistograms) {
      if (named.name == name) c.histograms[name] = named.snap;
    }
  }
  c.write_bytes = ProcessWriteBytes();
  c.cpu_ns = ProcessCpuNs();
  return c;
}

metrics::Histogram::Snapshot HistDelta(const Counters& before, const Counters& after,
                                       const std::string& name) {
  metrics::Histogram::Snapshot delta;
  const auto a = after.histograms.find(name);
  if (a == after.histograms.end()) return delta;
  delta = a->second;
  const auto b = before.histograms.find(name);
  if (b != before.histograms.end()) {
    for (std::size_t i = 0; i < delta.buckets.size(); ++i) delta.buckets[i] -= b->second.buckets[i];
    delta.sum -= b->second.sum;
  }
  delta.count = delta.DerivedCount();
  return delta;
}

// --------------------------------------------------------------- results ---

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  // 0 = a count or ratio, not a sample statistic
  std::string note;
};

class Report {
 public:
  void Add(std::string name, double value, std::string unit, std::size_t samples = 0,
           std::string note = "") {
    metrics_.push_back({std::move(name), value, std::move(unit), samples, std::move(note)});
  }
  /// Median and (when the sample supports it) p99.
  void AddTiming(const std::string& base, const Summary& s, const std::string& unit,
                 bool with_p99) {
    Add(base + "_p50_" + unit, s.p50, unit, s.count);
    if (with_p99) {
      Add(base + "_p99_" + unit, s.has_p99 ? s.p99 : 0.0, unit, s.count,
          s.has_p99 ? "" : "p99 withheld: fewer than 10 samples beyond it");
    }
  }
  const Metric* Find(const std::string& name) const {
    for (const Metric& m : metrics_) {
      if (m.name == name) return &m;
    }
    return nullptr;
  }
  double Value(const std::string& name) const {
    const Metric* m = Find(name);
    return m == nullptr ? 0.0 : m->value;
  }
  void Print(const char* title) const {
    std::printf("\n%s\n", title);
    for (const Metric& m : metrics_) {
      std::printf("  %-44s %14.4f %-6s", m.name.c_str(), m.value, m.unit.c_str());
      if (m.samples > 0) std::printf("  n=%zu", m.samples);
      if (!m.note.empty()) std::printf("  (%s)", m.note.c_str());
      std::printf("\n");
    }
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Client-observed latency of one request class, in milliseconds.
Summary ClassMs(const ClientStats& s, OpClass cls) {
  const auto it = s.class_latency.find(cls);
  return it == s.class_latency.end() ? Summary{} : it->second.Summarize(1e6);
}

// ---------------------------------------------------------------- checks ---

struct Findings {
  std::vector<std::string> misses;  // correctness failures
  std::set<std::string> notes;      // reported, not failures
  void Miss(std::string what) { misses.push_back(std::move(what)); }
};

/// Every block Unused and unclaimed, no system left, on both shards (read
/// straight from each shard, not through the router).
void CheckQuiescent(Deployment& d, Findings& findings, const char* when) {
  for (auto& shard : d.shards()) {
    core::OfmfService& service = shard->service;
    auto systems = service.tree().Get(core::kSystems);
    if (systems.ok() && systems->at("Members").is_array() &&
        !systems->at("Members").as_array().empty()) {
      findings.Miss(std::string(when) + ": " + shard->id + " still holds " +
                    std::to_string(systems->at("Members").as_array().size()) + " system(s)");
    }
    std::size_t stale_tags = 0;
    for (const std::string& uri : service.tree().UrisUnder(core::kResourceBlocks)) {
      if (uri == core::kResourceBlocks) continue;
      auto block = service.tree().Get(uri);
      if (!block.ok()) continue;
      const std::string state = block->at("CompositionStatus").GetString("CompositionState");
      const long long compositions =
          block->at("CompositionStatus").GetInt("NumberOfCompositions", -1);
      if (state != "Unused" || compositions != 0) {
        findings.Miss(std::string(when) + ": " + uri + " on " + shard->id + " is " + state +
                      " (leaked claim)");
      } else if (!block->at("Oem").at("Ofmf").GetString("ClaimedBy").empty()) {
        ++stale_tags;
      }
    }
    if (stale_tags != 0) {
      findings.notes.insert(shard->id + ": " + std::to_string(stale_tags) +
                               " Unused block(s) still carry a federation ClaimedBy tag");
    }
  }
}

struct EventFindings {
  std::size_t duplicates = 0, unknown = 0;
  std::size_t matched[2] = {0, 0};
  std::vector<double> lag_ms;
};

EventFindings CheckEvents(const std::vector<SinkEvent>& events, std::uint64_t malformed,
                          const std::set<std::string>& known_systems,
                          const ClientStats& measured) {
  static const std::string systems_prefix = std::string(core::kSystems) + "/";
  EventFindings f;
  f.unknown = malformed;
  // A system's event is a duplicate when its MessageId repeats for the same
  // system and subscriber, whatever its EventId; any other event when its
  // EventId repeats.
  std::set<std::tuple<int, std::string, std::string>> seen;
  for (const SinkEvent& e : events) {
    if (e.event_type != "ResourceAdded" && e.event_type != "ResourceRemoved") {
      ++f.unknown;
      continue;
    }
    const bool system = e.origin.rfind(systems_prefix, 0) == 0;
    if (!seen.emplace(e.subscriber, e.message_id, system ? e.origin : e.event_id).second) {
      ++f.duplicates;
      continue;
    }
    if (!system) continue;
    if (known_systems.count(e.origin) == 0) {
      ++f.unknown;
      continue;
    }
    const std::map<std::string, std::uint64_t>* answered = nullptr;
    if (e.message_id == "CompositionService.1.0.SystemComposed") answered = &measured.composed_at;
    if (e.message_id == "CompositionService.1.0.SystemDecomposed") answered = &measured.decomposed_at;
    if (answered == nullptr) continue;
    const auto it = answered->find(e.origin);
    if (it == answered->end()) continue;
    ++f.matched[e.subscriber];
    if (e.subscriber == 0) {
      f.lag_ms.push_back((static_cast<double>(e.start) - static_cast<double>(it->second)) / 1e6);
    }
  }
  return f;
}

// ------------------------------------------------------------ measuring ---

struct Measured {
  ClientStats stats;
  double elapsed_s = 0.0;
  Counters before, after;
  double proc_cpu_s_per_s = 0.0;  // process CPU seconds per wall second
  EventFindings events;
};

Measured Measure(Deployment& d, Workload& load, double seconds) {
  Measured m;
  // Systems the sink may legitimately hear about: the residents and every
  // system the clients composed, warm-up included.
  std::set<std::string> known_systems(d.resident_systems().begin(), d.resident_systems().end());
  for (const auto& [uri, t] : load.TakeStats().composed_at) known_systems.insert(uri);
  m.before = Snapshot(d);
  const Clock::time_point t0 = Clock::now();
  load.Run(t0 + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(seconds)));
  const Clock::time_point t1 = Clock::now();
  m.elapsed_s = std::chrono::duration<double>(t1 - t0).count();
  for (auto& shard : d.shards()) (void)shard->service.events().FlushDelivery(3000);
  m.after = Snapshot(d);
  m.stats = load.TakeStats();
  for (const auto& [uri, t] : m.stats.composed_at) known_systems.insert(uri);
  m.proc_cpu_s_per_s = static_cast<double>(m.after.cpu_ns - m.before.cpu_ns) / 1e9 / m.elapsed_s;
  m.events = CheckEvents(d.sink().Events(), d.sink().malformed(), known_systems, m.stats);
  return m;
}

/// Adds a segment's measurement to the run's pooled one.
void Pool(Measured& into, Measured&& segment) {
  into.stats.Merge(std::move(segment.stats));
  into.elapsed_s += segment.elapsed_s;
  into.events.duplicates += segment.events.duplicates;
  into.events.unknown += segment.events.unknown;
  into.events.lag_ms.insert(into.events.lag_ms.end(), segment.events.lag_ms.begin(),
                            segment.events.lag_ms.end());
}

void EndToEnd(const std::string& workload, const Measured& m, Report& r) {
  const ClientStats& s = m.stats;
  const Summary req = s.req_latency.Summarize(1e3);
  r.Add("req_per_s", static_cast<double>(req.count) / m.elapsed_s, "1/s", req.count);
  r.Add("req_p50_us", req.p50, "us", req.count);
  r.Add("req_p99_us", req.has_p99 ? req.p99 : 0.0, "us", req.count,
        req.has_p99 ? "" : "p99 withheld: fewer than 10 samples beyond it");
  r.Add("failed_share", FailedShare(s.failed, s.attempted), "ratio", s.attempted);
  // The workload's own operations, under the names the readable report
  // uses; primary_* / secondary_* alias them for every workload.
  Summary p;
  Summary q;
  double primary_count = 0;
  if (workload == "bb_lifecycle") {
    r.Add("jobs_per_s", static_cast<double>(s.jobs) / m.elapsed_s, "1/s", s.jobs);
    p = Summarize(s.compose_ms);
    q = Summarize(s.decompose_ms);
    r.AddTiming("compose", p, "ms", true);
    r.AddTiming("decompose", q, "ms", false);
    r.AddTiming("event_lag", Summarize(m.events.lag_ms), "ms", false);
    r.AddTiming("collection", ClassMs(s, OpClass::kCollection), "ms", true);
    primary_count = static_cast<double>(s.jobs);
  } else if (workload == "hot_read") {
    p = ClassMs(s, OpClass::kGet);
    q = ClassMs(s, OpClass::kGet304);
    primary_count = static_cast<double>(p.count + q.count);
    r.AddTiming("get", p, "ms", true);
    r.AddTiming("get_304", q, "ms", false);
  } else {
    p = Summarize(s.collection_ms);
    q = Summarize(s.walk_ms);
    r.AddTiming("collection", p, "ms", true);
    r.AddTiming("walk", q, "ms", false);
    r.AddTiming("scrape", Summarize(s.scrape_ms), "ms", false);
    primary_count = static_cast<double>(s.collection_ms.size());
  }
  r.Add("primary_per_s", primary_count / m.elapsed_s, "1/s", static_cast<std::size_t>(primary_count));
  r.Add("primary_p50_ms", p.p50, "ms", p.count);
  r.Add("primary_p99_ms", p.has_p99 ? p.p99 : 0.0, "ms", p.count,
        p.has_p99 ? "" : "p99 withheld: fewer than 10 samples beyond it");
  r.Add("secondary_p50_ms", q.p50, "ms", q.count);
}

// ------------------------------------------------------------ per layer ---

struct LayerInputs {
  const Measured& m;
  int default_shard;
  const std::vector<SpanRec>& spans;
  double untraced_req_p50_us;
  double fleet_total_ratio;
};

std::vector<double> Collect(const std::vector<SpanRec>& spans, SpanKind kind, OpClass cls) {
  std::vector<double> out;
  for (const SpanRec& s : spans) {
    if (s.kind == kind && s.cls == cls) out.push_back(static_cast<double>(s.end - s.start) / 1000.0);
  }
  return out;
}

struct SelfTimes {
  /// Per class, one row per correlated request:
  /// {client, router wire, shard hop, shard handler} in us.
  std::map<OpClass, std::vector<std::vector<double>>> rows;
  std::vector<double> all_wire, all_hop;
  /// Client spans with a response, per class, and the correlated requests
  /// whose spans do not nest.
  std::map<OpClass, std::size_t> answered;
  std::size_t not_nested = 0;
};

/// Fills in parents (client <- router <- shard by request id, manager spans
/// under the job's slurm span) and returns the per-request self times.
SelfTimes Analyze(std::vector<SpanRec>& spans) {
  std::map<std::uint64_t, std::vector<SpanRec*>> by_req;
  SelfTimes t;
  for (SpanRec& s : spans) {
    if (s.kind == SpanKind::kClient && s.status != 0) ++t.answered[s.cls];
    if (s.req != 0 && (s.kind == SpanKind::kClient || s.kind == SpanKind::kRouter ||
                       s.kind == SpanKind::kShard)) {
      by_req[s.req].push_back(&s);
    }
  }
  for (auto& [req, group] : by_req) {
    SpanRec* client = nullptr;
    SpanRec* router = nullptr;
    std::vector<SpanRec*> shards;
    for (SpanRec* s : group) {
      if (s->kind == SpanKind::kClient) client = s;
      if (s->kind == SpanKind::kRouter) router = s;
      if (s->kind == SpanKind::kShard) shards.push_back(s);
    }
    if (client == nullptr || router == nullptr) continue;
    router->parent = client->id;
    RequestSpans r{{client->start, client->end}, {router->start, router->end}, {}};
    for (SpanRec* s : shards) {
      s->parent = router->id;
      r.shards.emplace_back(s->start, s->end);
    }
    if (!Nested(r)) ++t.not_nested;
    std::vector<double> row;
    for (std::uint64_t ns : RequestRow(r)) row.push_back(static_cast<double>(ns) / 1000.0);
    t.all_wire.push_back(row[1]);
    if (!shards.empty()) t.all_hop.push_back(row[2]);
    t.rows[client->cls].push_back(std::move(row));
  }
  // Manager and slurm spans: compose/discover sit under the job's submit
  // span, decompose under its complete span (same job tag).
  std::map<std::uint64_t, SpanRec*> submit, complete, compose;
  for (SpanRec& s : spans) {
    if (s.kind == SpanKind::kSubmit) submit[s.req] = &s;
    if (s.kind == SpanKind::kComplete) complete[s.req] = &s;
    if (s.kind == SpanKind::kCompose) compose[s.req] = &s;
  }
  for (SpanRec& s : spans) {
    if (s.kind == SpanKind::kCompose && submit.count(s.req)) s.parent = submit[s.req]->id;
    if (s.kind == SpanKind::kDiscover && compose.count(s.req)) s.parent = compose[s.req]->id;
    if (s.kind == SpanKind::kDecompose && complete.count(s.req)) s.parent = complete[s.req]->id;
  }
  return t;
}

void WriteSpans(const std::string& path, const std::vector<SpanRec>& spans,
                const std::vector<SinkEvent>& sink) {
  std::ofstream out(path);
  out << "id,parent,req,name,class,shard,status,start_ns,end_ns\n";
  for (const SpanRec& s : spans) {
    out << s.id << ',' << s.parent << ',' << s.req << ',' << SpanName(s.kind) << ','
        << ClassName(s.cls) << ',' << static_cast<int>(s.shard) << ',' << s.status << ','
        << s.start << ',' << s.end << '\n';
  }
  for (const SinkEvent& e : sink) {
    out << 0 << ',' << 0 << ',' << 0 << ',' << SpanName(SpanKind::kSink) << ','
        << e.message_id << ',' << e.subscriber << ",204," << e.start << ',' << e.end << '\n';
  }
}

void PerLayer(LayerInputs& in, SelfTimes& self, Report& r, Findings& findings) {
  const Measured& m = in.m;
  const Counters& a = m.after;
  const Counters& b = m.before;
  const ClientStats& s = m.stats;
  const std::size_t shards = a.shards.size();
  const int def = in.default_shard;

  // http
  r.Add("http.router.wire_us", Median(self.all_wire), "us", self.all_wire.size(),
        "client span minus router handler span");
  r.Add("http.shard.hop_us", Median(self.all_hop), "us", self.all_hop.size(),
        "router handler span minus the correlated shard handler span");
  const auto syscalls = [](const http::ServerStats& x) {
    return static_cast<double>(x.io_recv_calls + x.io_send_calls + x.backend_wait_calls +
                               x.backend_ctl_calls);
  };
  r.Add("http.router.syscalls_per_req",
        Ratio(syscalls(a.router) - syscalls(b.router),
              static_cast<double>(a.router.requests_served - b.router.requests_served)),
        "count");
  double shard_sys = 0, shard_served = 0, accepted = 0, shard_overload = 0;
  std::size_t shard_hw = 0;
  for (std::size_t i = 0; i < shards; ++i) {
    shard_sys += syscalls(a.shards[i]) - syscalls(b.shards[i]);
    shard_served += static_cast<double>(a.shards[i].requests_served - b.shards[i].requests_served);
    accepted += static_cast<double>(a.shards[i].connections_accepted -
                                    b.shards[i].connections_accepted);
    shard_overload += static_cast<double>(a.shards[i].overload_rejections -
                                          b.shards[i].overload_rejections);
    shard_hw = std::max(shard_hw, a.shards[i].worker_queue_high_water);
  }
  r.Add("http.shard.syscalls_per_req", Ratio(shard_sys, shard_served), "count");
  r.Add("http.shard.conns_accepted", accepted, "count");
  r.Add("http.router.overload_rejections",
        static_cast<double>(a.router.overload_rejections - b.router.overload_rejections), "count");
  r.Add("http.shard.overload_rejections", shard_overload, "count");
  r.Add("http.router.worker_queue_high_water",
        static_cast<double>(a.router.worker_queue_high_water), "count", 0, "deployment lifetime");
  r.Add("http.shard.worker_queue_high_water", static_cast<double>(shard_hw), "count", 0,
        "deployment lifetime, max over shards");

  // common/qos
  double rate_limited = 0, queue_rejected = 0;
  for (std::size_t i = 0; i < shards; ++i) {
    double named = 0, all = 0;
    for (const qos::TenantStats& t : a.tenants[i]) {
      std::uint64_t prev_dispatched = 0, prev_rl = 0, prev_qr = 0;
      for (const qos::TenantStats& p : b.tenants[i]) {
        if (p.id == t.id) {
          prev_dispatched = p.dispatched;
          prev_rl = p.rate_limited;
          prev_qr = p.queue_rejected;
        }
      }
      const double dispatched = static_cast<double>(t.dispatched - prev_dispatched);
      all += dispatched;
      if (t.id == "slurm" || t.id == "monitor") named += dispatched;
      rate_limited += static_cast<double>(t.rate_limited - prev_rl);
      queue_rejected += static_cast<double>(t.queue_rejected - prev_qr);
    }
    const bool is_default = static_cast<int>(i) == def;
    r.Add(std::string("qos.named_tenant_share.") + (is_default ? "default_shard" : "other_shard"),
          Ratio(named, all), "ratio", static_cast<std::size_t>(all),
          is_default ? "" : "gap: sessions live on the default shard only");
  }
  r.Add("qos.rate_limited", rate_limited, "count");
  r.Add("qos.queue_rejected", queue_rejected, "count");

  // ofmf: shard handler spans per class
  for (OpClass cls : {OpClass::kGet, OpClass::kGet304, OpClass::kCollection, OpClass::kCompose,
                      OpClass::kDecompose, OpClass::kScrape}) {
    const Summary h = Summarize(Collect(in.spans, SpanKind::kShard, cls));
    const std::string base = std::string("ofmf.handle_us.") + ClassName(cls);
    r.Add(base + ".p50", h.p50, "us", h.count);
    r.Add(base + ".p99", h.has_p99 ? h.p99 : 0.0, "us", h.count,
          h.has_p99 || h.count == 0 ? "" : "p99 withheld: fewer than 10 samples beyond it");
  }
  const auto hist_us = [&](const char* name, double q) {
    return HistDelta(b, a, name).Percentile(q) / 1000.0;
  };
  r.Add("ofmf.compose_claim_us", hist_us("compose.claim.ns", 0.5), "us",
        HistDelta(b, a, "compose.claim.ns").count, "registry log2 histogram p50");
  r.Add("ofmf.compose_create_us", hist_us("compose.create.ns", 0.5), "us",
        HistDelta(b, a, "compose.create.ns").count, "registry log2 histogram p50");
  r.Add("ofmf.decompose_us", hist_us("decompose.total.ns", 0.5), "us",
        HistDelta(b, a, "decompose.total.ns").count, "registry log2 histogram p50");

  // redfish
  for (std::size_t i = 0; i < shards; ++i) {
    const std::string which = static_cast<int>(i) == def ? "default_shard" : "other_shard";
    const double hits = static_cast<double>(a.caches[i].hits - b.caches[i].hits);
    const double misses = static_cast<double>(a.caches[i].misses - b.caches[i].misses);
    r.Add("cache.hit_ratio." + which, Ratio(hits, hits + misses), "ratio",
          static_cast<std::size_t>(hits + misses));
    r.Add("cache.invalidations." + which,
          static_cast<double>(a.caches[i].invalidations - b.caches[i].invalidations), "count");
  }

  // store
  double committed = 0, commits = 0;
  for (std::size_t i = 0; i < shards; ++i) {
    committed += static_cast<double>(a.stores[i].committed - b.stores[i].committed);
    commits += static_cast<double>(a.stores[i].commits - b.stores[i].commits);
  }
  r.Add("store.records_per_commit", Ratio(committed, commits), "count",
        static_cast<std::size_t>(commits));
  const auto commit = HistDelta(b, a, "journal.commit.ns");
  const auto fsync = HistDelta(b, a, "journal.fsync.ns");
  r.Add("store.commit_us.p50", commit.Percentile(0.5) / 1000.0, "us", commit.count,
        "registry log2 histogram");
  r.Add("store.commit_us.p99", commit.Percentile(0.99) / 1000.0, "us", commit.count,
        "registry log2 histogram");
  r.Add("store.fsync_us.p99", fsync.Percentile(0.99) / 1000.0, "us", fsync.count,
        "registry log2 histogram");
  r.Add("store.bytes_per_job",
        Ratio(static_cast<double>(a.write_bytes - b.write_bytes), static_cast<double>(s.jobs)),
        "B", 0, "process disk write_bytes per job");

  // ofmf events
  double delivered = 0, batches = 0, retries = 0, dropped = 0;
  for (std::size_t i = 0; i < shards; ++i) {
    delivered += static_cast<double>(a.delivery[i].delivered - b.delivery[i].delivered);
    batches += static_cast<double>(a.delivery[i].batches - b.delivery[i].batches);
    retries += static_cast<double>(a.delivery[i].retries - b.delivery[i].retries);
    dropped += static_cast<double>(a.delivery[i].dropped - b.delivery[i].dropped);
  }
  r.Add("events.delivered", delivered, "count");
  r.Add("events.batch_size", Ratio(delivered, batches), "count", static_cast<std::size_t>(batches));
  r.Add("events.retries", retries, "count");
  r.Add("events.dropped", dropped, "count");
  const double lifecycle_ops = static_cast<double>(s.composed_at.size() + s.decomposed_at.size());
  r.Add("events.coverage", Ratio(static_cast<double>(m.events.matched[0]), lifecycle_ops),
        "ratio", static_cast<std::size_t>(lifecycle_ops),
        "gap: subscriptions live on the default shard only");

  // federation
  for (OpClass cls : {OpClass::kGet, OpClass::kGet304, OpClass::kCollection, OpClass::kCompose,
                      OpClass::kDecompose, OpClass::kScrape}) {
    const Summary h = Summarize(Collect(in.spans, SpanKind::kRouter, cls));
    r.Add(std::string("federation.route_us.") + ClassName(cls), h.p50, "us", h.count);
  }
  const double router_collection = Median(Collect(in.spans, SpanKind::kRouter, OpClass::kCollection));
  const double leg_collection = Median(Collect(in.spans, SpanKind::kShard, OpClass::kCollection));
  r.Add("federation.merge_us", router_collection > 0 ? router_collection - leg_collection : 0.0,
        "us", 0, "difference of medians: router collection span minus shard leg span");
  const double router_requests =
      static_cast<double>(a.router.requests_served - b.router.requests_served);
  const double unpaged = static_cast<double>(a.route.aggregations - b.route.aggregations) -
                         static_cast<double>(s.paged_requests);
  r.Add("federation.threads_per_req",
        Ratio((std::max(0.0, unpaged) + static_cast<double>(s.gathering_scrapes)) *
                  static_cast<double>(shards),
              router_requests),
        "count", 0, "computed: (RouterStats aggregations - paged + fleet gathers) x shards / requests");
  r.Add("federation.probes", static_cast<double>(a.route.probes - b.route.probes), "count");
  r.Add("federation.cross_shard_share",
        Ratio(static_cast<double>(a.route.cross_shard_composes - b.route.cross_shard_composes),
              static_cast<double>(s.composes)),
        "ratio", s.composes);
  r.Add("federation.rollbacks",
        static_cast<double>(a.route.compose_rollbacks - b.route.compose_rollbacks), "count");
  r.Add("federation.fleet_total_ratio", in.fleet_total_ratio, "ratio", 0,
        "gap: fleet-merged GET count over the process registry's; in-process shards share it");

  // composability
  r.Add("manager.discover_us", Median(s.discover_us), "us", s.discover_us.size());
  r.Add("manager.requests_per_compose",
        Ratio(static_cast<double>(s.compose_requests), static_cast<double>(s.composes)), "count");
  r.Add("manager.revalidated_share",
        Ratio(static_cast<double>(s.compose_revalidated), static_cast<double>(s.compose_gets)),
        "ratio", s.compose_gets);
  r.Add("manager.conflict_retries", static_cast<double>(s.conflict_retries), "count");

  // slurmsim / beeond / cluster: the job load generator
  r.Add("loadgen.sim_us_per_job", Median(s.sim_us_per_job), "us", s.sim_us_per_job.size());

  // process
  r.Add("proc.cpu_util",
        m.proc_cpu_s_per_s / static_cast<double>(std::max(1L, ::sysconf(_SC_NPROCESSORS_ONLN))),
        "ratio", 0, "CPU / wall / nproc");
  r.Add("proc.cpu_util_pinned", m.proc_cpu_s_per_s / std::max(1, g_pinning.cpus), "ratio", 0,
        "CPU / wall / CPUs pinned to; near 1 means saturated");
  r.Add("client.cpu_share",
        Ratio(static_cast<double>(s.cpu_ns), static_cast<double>(a.cpu_ns - b.cpu_ns)), "ratio");

  // tracing itself: overhead and reconciliation on the workload's most
  // frequent correlated request class.
  const double traced_p50 = s.req_latency.Summarize(1e3).p50;
  r.Add("trace.overhead_share",
        Ratio(traced_p50 - in.untraced_req_p50_us, in.untraced_req_p50_us), "ratio", 0,
        "traced req_p50_us over the untraced run's, minus 1");
  OpClass dominant = OpClass::kGet;
  std::size_t most = 0;
  for (const auto& [cls, rows] : self.rows) {
    if (rows.size() > most) {
      most = rows.size();
      dominant = cls;
    }
  }
  const Reconciliation rec = Reconcile(self.rows[dominant]);
  r.Add("trace.reconcile_error", rec.error, "ratio", most,
        std::string("class ") + ClassName(dominant) +
            ", sum of per-layer median self times vs client median");
  std::printf("\nwhere the %s request's time goes (client median %.1f us, %zu requests):\n",
              ClassName(dominant), rec.client_median, most);
  const char* names[] = {"router wire (client span - router span)",
                         "shard hop (router span - shard spans)", "shard handler"};
  double sum = 0.0;
  for (std::size_t i = 0; i < rec.layer_medians.size(); ++i) {
    sum += rec.layer_medians[i];
    std::printf("  %-40s median %9.1f us  %5.1f%%\n", names[i], rec.layer_medians[i],
                100.0 * Ratio(rec.layer_medians[i], rec.client_median));
  }
  std::printf("  layer medians sum to %.1f us: error %.3f, tolerance %.2f: %s\n", sum, rec.error,
              kReconcileTolerance, rec.holds() ? "reconciles" : "DOES NOT RECONCILE");
  if (most > 0 && !rec.holds()) {
    findings.Miss("per-layer median self times do not reconcile with the client median");
  }
  // Every answered request of that class must have correlated, and every
  // correlated request's spans must nest; otherwise the rows above describe
  // the wrong requests.
  const std::size_t answered = self.answered.count(dominant) ? self.answered.at(dominant) : 0;
  std::printf("  %zu of %zu answered %s requests correlated; %zu correlated requests do not "
              "nest\n", most, answered, ClassName(dominant), self.not_nested);
  if (most != answered) {
    findings.Miss(std::to_string(answered - std::min(answered, most)) + " " +
                  ClassName(dominant) + " request(s) without a correlated router span");
  }
  if (self.not_nested != 0) {
    findings.Miss(std::to_string(self.not_nested) + " correlated request(s) whose spans do not nest");
  }
}

/// Fleet-merged over process-wide count of every http.latency.GET.*
/// histogram, read from one MetricsDump through the router.
double FleetTotalRatio(Deployment& d) {
  http::TcpClient client(d.router_port(), 10000);
  auto response = client.Send(http::MakeJsonRequest(
      http::Method::kPost,
      std::string(core::kServiceRoot) + "/Actions/OfmfService.MetricsDump",
      json::Json::MakeObject()));
  if (!response.ok() || response->status != 200) return 0.0;
  auto doc = json::Parse(response->body.view());
  if (!doc.ok() || !doc->at("Histograms").is_array()) return 0.0;
  double fleet = 0;
  for (const json::Json& h : doc->at("Histograms").as_array()) {
    if (h.GetString("Name").rfind("http.latency.GET.", 0) == 0) {
      fleet += static_cast<double>(h.GetInt("Count"));
    }
  }
  double local = 0;
  for (const auto& named : metrics::Registry::instance().HistogramSnapshots()) {
    if (named.name.rfind("http.latency.GET.", 0) == 0) {
      local += static_cast<double>(named.snap.DerivedCount());
    }
  }
  return Ratio(fleet, local);
}

// ----------------------------------------------------------------- stamp ---

std::string FsType(const std::string& dir) {
  struct statfs fs {};
  if (::statfs(dir.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    default: break;
  }
  char hex[32];
  std::snprintf(hex, sizeof hex, "0x%lx", static_cast<unsigned long>(fs.f_type));
  return hex;
}

struct Brought {
  std::unique_ptr<Deployment> deployment;
  std::unique_ptr<Workload> load;
  double setup_s = 0.0;
};

void PrintStamp(const Options& o, const Brought& b, const std::string& store_dir) {
  utsname u{};
  ::uname(&u);
  std::printf("perfbench %s seed=%llu seconds=%d trace=%d\n", o.workload.c_str(),
              static_cast<unsigned long long>(o.seed), o.seconds, o.trace ? 1 : 0);
  std::printf("  nproc=%ld cpus_used=%d (pinned from cpu %d) malloc_arenas=%s build=%s "
              "compiler=gcc %s source=%s\n",
              ::sysconf(_SC_NPROCESSORS_ONLN), g_pinning.cpus, g_pinning.first,
              g_one_arena ? "1" : "default",
              PERFBENCH_BUILD_TYPE, __VERSION__, o.source_id.c_str());
  std::printf("  kernel=%s %s reactor=%s store_fs=%s (%s)\n", u.sysname, u.release,
              b.deployment->router_server().backend_name(), FsType(store_dir).c_str(),
              store_dir.c_str());
  std::printf("  inventory: shards=%d blocks=%d (job racks=%d x %d, resident systems=%d) "
              "fabrics=%d clients=%d (closed loop) transport=loopback TCP\n",
              kShards, kTotalBlocks, kJobRacks,
              kComputePerRack + kLocalStoragePerRack + kRemoteStoragePerRack, kResidentSystems,
              kTotalFabrics, b.load->clients());
  if (FsType(store_dir) == "tmpfs") {
    std::printf("  WARNING: the store directory is on tmpfs; fsync costs are not disk costs\n");
  }
}

// ----------------------------------------------------------------- main ---

bool ParseArgs(int argc, char** argv, Options& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      o.workload = value;
    } else if (key == "--seed") {
      o.seed = std::stoull(value);
    } else if (key == "--seconds") {
      o.seconds = std::stoi(value);
    } else if (key == "--trace") {
      o.trace = value == "1";
    } else if (key == "--work-dir") {
      o.work_dir = value;
    } else if (key == "--source-id") {
      o.source_id = value;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && o.seconds >= 1 && MakeWorkload(o.workload) != nullptr;
}


Result<Brought> BringUp(const Options& o, const std::string& store_dir, bool traced) {
  Brought b;
  const Clock::time_point t0 = Clock::now();
  b.deployment = std::make_unique<Deployment>();
  OFMF_RETURN_IF_ERROR(b.deployment->Start(store_dir, traced));
  b.load = MakeWorkload(o.workload);
  OFMF_RETURN_IF_ERROR(b.load->Setup(*b.deployment, o.seed, traced));
  b.load->Warm();
  b.setup_s = std::chrono::duration<double>(Clock::now() - t0).count();
  return b;
}

/// Residents out, then the quiescence check, then shutdown.
void TearDown(Brought& b, Findings& findings, bool check) {
  const Status removed = b.deployment->RemoveResidents();
  if (!removed.ok()) findings.Miss("teardown: " + removed.message());
  if (check) CheckQuiescent(*b.deployment, findings, "after the workload");
  b.load.reset();
  b.deployment->Stop();
}

void CheckRun(const Measured& m, Findings& findings) {
  if (m.stats.attempted == 0) findings.Miss("no request was attempted");
  if (m.stats.check_failures != 0) {
    findings.Miss(std::to_string(m.stats.check_failures) + " failed output check(s)");
  }
  if (m.events.duplicates != 0) {
    findings.Miss("sink received " + std::to_string(m.events.duplicates) + " duplicate event(s)");
  }
  if (m.events.unknown != 0) {
    findings.Miss("sink received " + std::to_string(m.events.unknown) + " unknown event(s)");
  }
  for (const std::string& e : m.stats.errors) std::printf("  first errors: %s\n", e.c_str());
}

void PrintJson(bool correct, const Measured& m, const Report& r,
               const std::vector<std::string>& names) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(m.stats.attempted),
              static_cast<unsigned long long>(m.stats.failed));
  bool first = true;
  for (const std::string& name : names) {
    const Metric* metric = r.Find(name);
    std::printf("%s\"%s\": {\"value\": %.15g, \"unit\": \"%s\"}", first ? "" : ", ",
                name.c_str(), metric == nullptr ? 0.0 : metric->value,
                metric == nullptr ? "" : metric->unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  Options o;
  if (!ParseArgs(argc, argv, o)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload bb_lifecycle|hot_read|fleet_sweep --seed N "
                 "--seconds S --trace 0|1 [--work-dir DIR] [--source-id TEXT]\n");
    return 2;
  }
  g_pinning = PinToCpus(kPinnedCpus);
  if (g_pinning.cpus == 0) {
    std::fprintf(stderr, "cannot pin the benchmark to its CPUs\n");
    return 1;
  }
  g_one_arena = ::mallopt(M_ARENA_MAX, 1) == 1;
  Logger::instance().set_level(LogLevel::kError);
  std::filesystem::create_directories(o.work_dir);
  const std::string store_root = std::filesystem::absolute(o.work_dir).string() + "/stores";
  Findings findings;
  Report report;
  const std::vector<std::string> end_to_end = {
      "setup_s",        "req_per_s",        "req_p50_us", "primary_per_s",
      "primary_p50_ms", "secondary_p50_ms", "rss_mib"};

  if (!o.trace) {
    // The host speed is probed before every set-up and after the last
    // teardown, while nothing else of the benchmark runs.
    std::vector<double> setups;
    std::vector<double> speeds;
    std::vector<Report> segments;
    Measured pooled;
    for (int k = 0; k < kSetupRepeats; ++k) {
      speeds.push_back(HostSpeed());
      auto b = BringUp(o, store_root + "/setup" + std::to_string(k), false);
      if (!b.ok()) {
        std::fprintf(stderr, "setup failed: %s\n", b.status().message().c_str());
        return 1;
      }
      setups.push_back(b->setup_s);
      const bool measured = k >= kSetupRepeats - kSegments;
      if (measured) {
        if (segments.empty()) PrintStamp(o, *b, store_root);
        Measured m = Measure(*b->deployment, *b->load, static_cast<double>(o.seconds) / kSegments);
        CheckRun(m, findings);
        EndToEnd(o.workload, m, segments.emplace_back());
        Pool(pooled, std::move(m));
      }
      TearDown(*b, findings, measured);
    }
    speeds.push_back(HostSpeed());
    if (*std::min_element(speeds.begin(), speeds.end()) <= 0.0) {
      std::fprintf(stderr, "the host speed probe failed\n");
      return 1;
    }
    // Gated times and rates are scaled to the reference speed by the run's
    // median probe: a host that runs the CPU at half speed doubles the raw
    // times, and halves the raw rates, that it reports.
    const double slowdown = kReferenceSpeed / Median(speeds);
    const auto gated = [&](const std::string& name, const std::vector<double>& raw,
                           const std::string& unit, std::size_t samples, const char* what) {
      const bool rate = name.size() > 6 && name.compare(name.size() - 6, 6, "_per_s") == 0;
      std::string note = std::string("median of ") + what + ", raw:";
      char value[32];
      for (double v : raw) {
        std::snprintf(value, sizeof value, " %.4g", v);
        note += value;
      }
      report.Add(name, rate ? Median(raw) * slowdown : Median(raw) / slowdown, unit, samples, note);
    };
    gated("setup_s", setups, "s", setups.size(), "set-ups");
    Report whole;
    EndToEnd(o.workload, pooled, whole);
    for (const std::string& name : end_to_end) {
      const Metric* all = whole.Find(name);
      if (all == nullptr) continue;
      std::vector<double> raw;
      for (const Report& segment : segments) raw.push_back(segment.Value(name));
      gated(name, raw, all->unit, all->samples, "segments");
    }
    report.Add("rss_mib", PeakRssMiB(), "MiB");
    std::printf("\nhost speed: median %.4g loopback round trips/s over %zu probes (%.4g-%.4g); "
                "the gated times and rates are scaled to %.4g round trips/s (x%.4f)\n",
                Median(speeds), speeds.size(), *std::min_element(speeds.begin(), speeds.end()),
                *std::max_element(speeds.begin(), speeds.end()), kReferenceSpeed, slowdown);
    report.Print("end-to-end (untraced, gated)");
    whole.Print("end-to-end (untraced, every segment pooled, raw)");
    for (const std::string& note : findings.notes) std::printf("  finding: %s\n", note.c_str());
    for (const std::string& miss : findings.misses) std::printf("  CHECK FAILED: %s\n", miss.c_str());
    PrintJson(findings.misses.empty(), pooled, report, end_to_end);
    return findings.misses.empty() ? 0 : 1;
  }

  // --trace 1: an untraced half, then a traced half under the same load.
  const double half = std::max(1.0, o.seconds / 2.0);
  Report untraced;
  {
    auto b = BringUp(o, store_root + "/untraced", false);
    if (!b.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", b.status().message().c_str());
      return 1;
    }
    PrintStamp(o, *b, store_root);
    Measured m = Measure(*b->deployment, *b->load, half);
    TearDown(*b, findings, true);
    CheckRun(m, findings);
    EndToEnd(o.workload, m, untraced);
    untraced.Print("end-to-end (untraced half)");
  }
  auto b = BringUp(o, store_root + "/traced", true);
  if (!b.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", b.status().message().c_str());
    return 1;
  }
  SpanLog::Enable(true);
  Measured m = Measure(*b->deployment, *b->load, half);
  SpanLog::Enable(false);
  const double fleet_ratio = FleetTotalRatio(*b->deployment);
  std::vector<SpanRec> spans = SpanLog::Collect();
  const std::vector<SinkEvent> sink = b->deployment->sink().Events();
  TearDown(*b, findings, true);
  CheckRun(m, findings);
  Report traced_e2e;
  EndToEnd(o.workload, m, traced_e2e);
  traced_e2e.Print("end-to-end (traced half)");

  SelfTimes self = Analyze(spans);
  LayerInputs in{m, b->deployment->default_shard(), spans, untraced.Value("req_p50_us"),
                 fleet_ratio};
  PerLayer(in, self, report, findings);
  const std::string spans_path = o.work_dir + "/spans-" + o.workload + ".csv";
  WriteSpans(spans_path, spans, sink);
  report.Print("per layer (traced)");
  std::printf("  spans: %zu written to %s\n", spans.size() + sink.size(), spans_path.c_str());
  for (const std::string& note : findings.notes) std::printf("  finding: %s\n", note.c_str());
  for (const std::string& miss : findings.misses) std::printf("  CHECK FAILED: %s\n", miss.c_str());
  std::vector<std::string> names;
  for (const Metric& metric : report.metrics()) names.push_back(metric.name);
  PrintJson(findings.misses.empty(), m, report, names);
  return findings.misses.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
