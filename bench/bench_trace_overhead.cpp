// Observability overhead bench. The budget the ISSUE sets — idle
// instrumentation (compiled in, registry on, sampling 0: the production
// default) within 2% of the fully-disabled baseline on the cached-GET path —
// is asserted on the production shape of that path: an authenticated GET over
// the TCP wire (TcpServer + per-request TcpClient connect, exactly what
// examples/rest_server serves). On that path the idle per-request cost
// (~100 ns of histogram updates and gated trace checks) amortizes against a
// ~100 us wire round trip.
//
// Two informational sections accompany it: the same GET over a pooled
// keep-alive connection (the reactor-era client default; ~6x faster round
// trip, so the same sub-microsecond cost reads as a bigger percentage of a
// noisier denominator), and the same cached GET in-process
// (Handle() called directly, no sockets). The latter is a microbenchmark of the
// raw instrumentation cost itself: the whole operation is under a
// microsecond, so even a perfectly-tuned ~50 ns of always-on timing reads as
// several percent. It is reported to keep the absolute cost honest, but it
// carries no budget — nobody serves Redfish as a sub-microsecond function
// call.
//
// Rounds interleave configurations so clock drift and cache warmth hit each
// equally, and the overhead estimate is paired: each round runs the three
// configurations back-to-back, so per-round differences cancel drift that
// lives longer than a round (page cache, frequency, background load), and
// the median of those differences sheds the rounds a scheduler spike hit.
// Unpaired medians-of-configurations were observed to swing several percent
// run to run on a single-core box — an order of magnitude above the ~0.2%
// cost being measured. Emits
// BENCH_trace_overhead.json; exits non-zero when the wire-path idle overhead
// breaches the budget. Pass --smoke to shrink counts for CI.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/metrics.hpp"
#include "common/stats.hpp"
#include "common/trace.hpp"
#include "composability/client.hpp"
#include "http/message.hpp"
#include "http/server.hpp"
#include "json/serialize.hpp"
#include "ofmf/service.hpp"
#include "ofmf/uris.hpp"

using namespace ofmf;
using json::Json;

namespace {

constexpr double kBudgetPct = 2.0;

enum class Config { kBaseline, kTracedOff, kSampled };

constexpr const char* kConfigNames[] = {"baseline (all off)", "instrumented, sampling 0",
                                        "instrumented, sampling 1"};

void Apply(Config config) {
  switch (config) {
    case Config::kBaseline:
      metrics::Registry::instance().set_enabled(false);
      trace::TraceRecorder::instance().set_sampling(0.0);
      break;
    case Config::kTracedOff:
      metrics::Registry::instance().set_enabled(true);
      trace::TraceRecorder::instance().set_sampling(0.0);
      break;
    case Config::kSampled:
      metrics::Registry::instance().set_enabled(true);
      trace::TraceRecorder::instance().set_sampling(1.0);
      break;
  }
}

/// Mean microseconds per request over one timed round.
double RunRound(http::HttpClient& client, const http::Request& get, int iters) {
  Stopwatch timer;
  for (int i = 0; i < iters; ++i) {
    auto response = client.Send(get);
    if (!response.ok() || response->status != 200) {
      std::fprintf(stderr, "request failed: %s\n",
                   response.ok() ? std::to_string(response->status).c_str()
                                 : response.status().message().c_str());
      std::exit(1);
    }
  }
  return timer.ElapsedSeconds() / iters * 1e6;
}

struct Section {
  double low_us[3] = {0.0, 0.0, 0.0};   // per-config minimum across rounds
  double overhead[3] = {0.0, 0.0, 0.0};  // median paired difference, % of base
  double overhead_pct(Config config) const { return overhead[static_cast<int>(config)]; }
};

/// Interleaved rounds over the three configurations; overhead from the
/// median per-round paired difference (see the file header for why).
Section Measure(const char* label, http::HttpClient& client, const http::Request& get,
                int iters, int rounds) {
  // Warm everything every configuration touches: the response cache, the
  // endpoint histogram slots, the ring buffer, session lookup.
  Apply(Config::kSampled);
  (void)RunRound(client, get, iters / 8 + 8);
  trace::TraceRecorder::instance().Clear();

  std::vector<double> samples[3];
  for (int round = 0; round < rounds; ++round) {
    for (const Config config : {Config::kBaseline, Config::kTracedOff, Config::kSampled}) {
      Apply(config);
      samples[static_cast<int>(config)].push_back(RunRound(client, get, iters));
    }
  }
  Apply(Config::kBaseline);
  trace::TraceRecorder::instance().Clear();

  Section section;
  std::printf("%s: %d rounds x %d cached GETs\n", label, rounds, iters);
  const double base_us = Percentile(samples[0], 50.0);
  for (int c = 0; c < 3; ++c) {
    section.low_us[c] = *std::min_element(samples[c].begin(), samples[c].end());
    std::vector<double> diffs(samples[c].size());
    for (std::size_t k = 0; k < samples[c].size(); ++k) {
      diffs[k] = samples[c][k] - samples[0][k];
    }
    section.overhead[c] = base_us > 0 ? Percentile(diffs, 50.0) / base_us * 100.0 : 0.0;
    std::printf("  %-26s %10.3f us/op  (%+.2f%%)\n", kConfigNames[c], section.low_us[c],
                section.overhead_pct(static_cast<Config>(c)));
  }
  return section;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_trace_overhead.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      out_path = argv[i];
    }
  }
  // Many short rounds beat few long ones for the paired-median estimate: a
  // scheduler or IRQ spike poisons one ~25 ms segment out of 100 pairs
  // (shed by the median) instead of skewing one long round out of 9.
  const int wire_iters = smoke ? 100 : 500;
  const int wire_rounds = smoke ? 15 : 100;
  const int local_iters = smoke ? 4000 : 20000;
  const int local_rounds = smoke ? 7 : 11;

  core::OfmfService service;
  if (!service.Bootstrap().ok()) return 1;
  for (int i = 0; i < 32; ++i) {
    core::BlockCapability block;
    block.id = "b" + std::to_string(i);
    block.block_type = "Compute";
    block.cores = 8;
    block.memory_gib = 32;
    (void)service.composition().RegisterBlock(block);
  }
  service.sessions().set_auth_required(true);  // the rest_server wire shape

  http::TcpServer server;
  if (!server.Start(service.Handler(), 0).ok()) {
    std::fprintf(stderr, "failed to bind a port\n");
    return 1;
  }
  composability::OfmfClient login(std::make_unique<http::TcpClient>(server.port()));
  if (!login.Login("admin", "ofmf").ok()) {
    std::fprintf(stderr, "login failed\n");
    return 1;
  }

  http::Request get = http::MakeRequest(http::Method::kGet, core::kResourceBlocks);
  get.headers.Set("X-Auth-Token", login.token());

  std::printf("trace overhead bench%s (budget: idle wire overhead < %.1f%%)\n\n",
              smoke ? " (smoke)" : "", kBudgetPct);

  // The budgeted path: authenticated cached GET over TCP, fresh connection
  // per request — the wire shape the 2% bound was defined against (a poller
  // that cannot reuse connections). The client pool is disabled explicitly:
  // pooled keep-alive requests finish in ~16 us, where scheduler noise on a
  // full round trip swamps a sub-microsecond instrumentation cost, so that
  // path is reported below for scale but carries no budget.
  http::TcpClient wire(server.port());
  wire.set_keep_alive(false);
  const Section wire_section = Measure("wire", wire, get, wire_iters, wire_rounds);
  const double wire_off_pct = wire_section.overhead_pct(Config::kTracedOff);

  // Informational: the same GET on a pooled keep-alive connection (the
  // default TcpClient behaviour since the reactor).
  std::printf("\n");
  http::TcpClient pooled(server.port());
  const Section pooled_section =
      Measure("wire keep-alive", pooled, get, wire_iters, wire_rounds);

  // Informational: the same GET as a direct Handle() call. Quantifies the raw
  // per-request instrumentation cost (tens of ns) against a sub-us operation;
  // no budget applies here.
  std::printf("\n");
  http::InProcessClient local(service.Handler());
  const Section local_section = Measure("in-process", local, get, local_iters, local_rounds);

  server.Stop();

  Json results = Json::Obj(
      {{"smoke", smoke},
       {"budget_pct", kBudgetPct},
       {"wire_iterations", wire_iters},
       {"wire_rounds", wire_rounds},
       {"wire_baseline_us", wire_section.low_us[0]},
       {"wire_traced_off_us", wire_section.low_us[1]},
       {"wire_traced_off_overhead_pct", wire_off_pct},
       {"wire_sampled_us", wire_section.low_us[2]},
       {"wire_sampled_overhead_pct", wire_section.overhead_pct(Config::kSampled)},
       {"wire_keepalive_baseline_us", pooled_section.low_us[0]},
       {"wire_keepalive_traced_off_us", pooled_section.low_us[1]},
       {"wire_keepalive_traced_off_overhead_pct",
        pooled_section.overhead_pct(Config::kTracedOff)},
       {"wire_keepalive_sampled_us", pooled_section.low_us[2]},
       {"wire_keepalive_sampled_overhead_pct",
        pooled_section.overhead_pct(Config::kSampled)},
       {"inprocess_iterations", local_iters},
       {"inprocess_rounds", local_rounds},
       {"inprocess_baseline_us", local_section.low_us[0]},
       {"inprocess_traced_off_us", local_section.low_us[1]},
       {"inprocess_traced_off_overhead_pct", local_section.overhead_pct(Config::kTracedOff)},
       {"inprocess_sampled_us", local_section.low_us[2]},
       {"inprocess_sampled_overhead_pct", local_section.overhead_pct(Config::kSampled)}});
  std::ofstream out(out_path);
  out << json::SerializePretty(results) << "\n";
  std::printf("\nwrote %s\n", out_path.c_str());

  if (wire_off_pct >= kBudgetPct) {
    std::printf("FAIL: idle instrumentation costs %.2f%% on the wire path (budget %.1f%%)\n",
                wire_off_pct, kBudgetPct);
    return 1;
  }
  return 0;
}
