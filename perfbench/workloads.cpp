// The three closed-loop workloads. Every caller here waits for its reply (a
// Slurm prolog or epilog, the Composability Manager, a dashboard poller), so
// each client thread sends its next request only when the previous one has
// completed. All requests go to the router over keep-alive TCP.
#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <set>

#include "arith.hpp"
#include "beeond/beeond.hpp"
#include "cluster/cluster.hpp"
#include "common/hostlist.hpp"
#include "common/rng.hpp"
#include "composability/client.hpp"
#include "composability/manager.hpp"
#include "json/parse.hpp"
#include "ofmf/uris.hpp"
#include "slurmsim/slurm.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t SeedFor(std::uint64_t seed, std::uint64_t client) {
  return seed * 0x9E3779B97F4A7C15ull + client * 0xBF58476D1CE4E5B9ull + 1;
}

/// Logs in through the router with the tenant's demo account (password ==
/// user name) and returns the session token.
Result<std::string> Login(TimedTransport& transport, const std::string& user) {
  auto response = transport.Send(http::MakeJsonRequest(
      http::Method::kPost, core::kSessions,
      json::Json::Obj({{"UserName", user}, {"Password", user}})));
  if (!response.ok()) return response.status();
  const std::string token = response->headers.GetOr("X-Auth-Token", "");
  if (response->status != 201 || token.empty()) {
    return Status::Internal("login as " + user + " failed: HTTP " +
                            std::to_string(response->status));
  }
  return token;
}

http::Request Authed(http::Method method, const std::string& target, const std::string& token) {
  http::Request request = http::MakeRequest(method, target);
  request.headers.Set("X-Auth-Token", token);
  return request;
}

/// Members@odata.count of an aggregated collection body, or -1.
long long MembersCount(const json::Json& doc) { return doc.GetInt("Members@odata.count", -1); }

// ---------------------------------------------------------- bb_lifecycle ---

/// One job client: its own seeded slurmsim partition (one rack), a
/// Composability Manager over a TcpClient to the router, locality-aware to
/// the client's rack, and BeeOND start/stop in the prolog/epilog.
class JobClient {
 public:
  JobClient(int rack, std::uint16_t router_port, bool traced, std::uint64_t seed)
      : rack_(rack),
        client_(DiscoveryChecked(std::make_unique<TimedTransport>(router_port, stats_, traced))),
        manager_(client_),
        machine_(PartitionSpec()),
        orchestrator_(machine_),
        rng_(SeedFor(seed, static_cast<std::uint64_t>(rack))) {
    RestartController();
  }
  // Slurm's prolog/epilog callbacks and the transport hold this object.
  JobClient(const JobClient&) = delete;
  JobClient& operator=(const JobClient&) = delete;

  Status Setup() {
    for (const std::string& host : machine_.Hostnames()) {
      OFMF_RETURN_IF_ERROR(machine_.PrepareNodeStorage(host));
    }
    return client_.Login("slurm", "slurm");
  }

  /// Runs whole job lifecycles until `deadline` (or `max_jobs`).
  void Loop(Clock::time_point deadline, std::uint64_t max_jobs) {
    const std::uint64_t cpu0 = ThreadCpuNs();
    for (std::uint64_t n = 0; n < max_jobs && Clock::now() < deadline; ++n) RunJob();
    stats_.cpu_ns += ThreadCpuNs() - cpu0;
  }

  ClientStats TakeStats() {
    ClientStats out = std::move(stats_);
    stats_ = ClientStats();
    return out;
  }

 private:
  /// The inventory is fixed, so the Manager's discovery GET must list all
  /// of it.
  static std::unique_ptr<TimedTransport> DiscoveryChecked(
      std::unique_ptr<TimedTransport> transport) {
    transport->ExpectMembers(core::kResourceBlocks, kTotalBlocks);
    return transport;
  }

  static cluster::ClusterSpec PartitionSpec() {
    cluster::ClusterSpec spec;
    spec.node_count = kNodesPerPartition;
    return spec;
  }

  /// A fresh SlurmManager over the same partition. SlurmManager keeps every
  /// job it ever ran and scans them all on each allocation, so a long run
  /// would measure its own growing load generator; a real slurmctld purges finished
  /// jobs after MinJobAge, which this stands in for.
  void RestartController() {
    slurm_ = std::make_unique<slurmsim::SlurmManager>(machine_, clock_);
    slurm_->AddProlog([this](const slurmsim::Job& job, const std::string& host) {
      return NodeScript(job, host, /*prolog=*/true);
    });
    slurm_->AddEpilog([this](const slurmsim::Job& job, const std::string& host) {
      return NodeScript(job, host, /*prolog=*/false);
    });
  }

  void RunJob() {
    if (++jobs_on_controller_ > kJobsPerController) {
      RestartController();
      jobs_on_controller_ = 1;
    }
    slurmsim::JobSpec spec;
    spec.name = "bb-" + Deployment::RackLabel(rack_);
    spec.node_count = NextJobSize();
    spec.constraints = {"beeond"};
    job_ops_ns_ = 0;
    job_tag_ = NextRequestId();
    const std::uint64_t t0 = NowNs();
    auto id = slurm_->Submit(spec);
    const std::uint64_t t1 = NowNs();
    if (!id.ok()) {
      stats_.Fail("submit: " + id.status().message());
      return;
    }
    const Status completed = slurm_->Complete(*id);
    const std::uint64_t t2 = NowNs();
    if (!completed.ok()) stats_.Fail("complete: " + completed.message());
    ++stats_.jobs;
    const std::uint64_t sim_ns = (t2 - t0) - std::min(t2 - t0, job_ops_ns_);
    stats_.sim_us_per_job.push_back(static_cast<double>(sim_ns) / 1000.0);
    if (SpanLog::enabled()) {
      SpanLog::Record({0, 0, job_tag_, t0, t1, SpanKind::kSubmit});
      SpanLog::Record({0, 0, job_tag_, t1, t2, SpanKind::kComplete});
    }
  }

  slurmsim::ScriptResult NodeScript(const slurmsim::Job& job, const std::string& host,
                                    bool prolog) {
    if (!job.HasConstraint("beeond")) return {};
    const auto hosts = ExpandHostlist(job.env.at("SLURM_NODELIST"));
    if (!hosts.ok()) return {hosts.status(), 0};
    // The lowest host does the OFMF and BeeOND work; the others only wait.
    if (host != LowestHost(*hosts)) return {Status::Ok(), Millis(40)};
    const std::string fs_id = "beeond-job" + job.env.at("SLURM_JOB_ID");
    if (prolog) {
      ProvisionBurstBuffer(job);
      auto instance = orchestrator_.Start(fs_id, *hosts);
      if (!instance.ok()) stats_.Fail("beeond start: " + instance.status().message());
      return {Status::Ok(), instance.ok() ? instance->assemble_duration : 0};
    }
    ReleaseBurstBuffer();
    const Status stopped = orchestrator_.Stop(fs_id);
    if (!stopped.ok()) stats_.Fail("beeond stop: " + stopped.message());
    return {Status::Ok(), Seconds(2.5)};
  }

  /// Job sizes 1..kMaxJobNodes in seeded order, each once per round: the
  /// size mix, and with it the share of cross-shard composes, is the same
  /// in every run; the seed only orders it.
  int NextJobSize() {
    if (next_size_ == sizes_.size()) {
      for (std::size_t i = 0; i < sizes_.size(); ++i) sizes_[i] = static_cast<int>(i) + 1;
      for (std::size_t i = sizes_.size() - 1; i > 0; --i) {
        std::swap(sizes_[i], sizes_[rng_.UniformInt(0, i)]);
      }
      next_size_ = 0;
    }
    return sizes_[next_size_++];
  }

  /// Prolog: size a burst buffer (Compute + Storage blocks) from the node
  /// count, compose it, and read the system and its blocks back.
  void ProvisionBurstBuffer(const slurmsim::Job& job) {
    system_uri_.clear();
    const int nodes = job.spec.node_count;
    composability::CompositionRequest request;
    request.name = "bb-" + Deployment::RackLabel(rack_) + "-job" + std::to_string(job.id);
    request.cores = kCoresPerComputeBlock * nodes;
    request.storage_gib = kLocalStorageGiB * nodes;
    request.locality_hint = Deployment::RackLabel(rack_);
    request.policy = composability::Policy::kLocalityAware;

    const std::uint64_t req0 = stats_.attempted;
    const std::uint64_t gets0 = stats_.get_requests;
    const std::uint64_t reval0 = stats_.revalidated;
    const std::uint64_t t0 = NowNs();
    Result<composability::ComposedSystem> composed = manager_.Compose(request);
    // A contended claim (409/412) is retried; with per-rack locality none
    // is expected, so the count is itself a check.
    for (int retry = 0; retry < 2 && !composed.ok() &&
                        (composed.status().code() == ErrorCode::kFailedPrecondition ||
                         composed.status().code() == ErrorCode::kAlreadyExists);
         ++retry) {
      ++stats_.conflict_retries;
      composed = manager_.Compose(request);
    }
    const std::uint64_t t1 = NowNs();
    job_ops_ns_ += t1 - t0;
    stats_.compose_requests += stats_.attempted - req0;
    stats_.compose_gets += stats_.get_requests - gets0;
    stats_.compose_revalidated += stats_.revalidated - reval0;
    if (!composed.ok()) {
      stats_.Fail("compose: " + composed.status().message());
      return;
    }
    ++stats_.composes;
    stats_.compose_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    const std::uint64_t post = std::max(t0, stats_.last_compose_post_ns);
    stats_.discover_us.push_back(static_cast<double>(post - t0) / 1000.0);
    if (SpanLog::enabled()) {
      SpanLog::Record({0, 0, job_tag_, t0, t1, SpanKind::kCompose});
      SpanLog::Record({0, 0, job_tag_, t0, post, SpanKind::kDiscover});
    }
    system_uri_ = composed->system_uri;

    const std::uint64_t r0 = NowNs();
    CheckComposed(*composed, nodes);
    job_ops_ns_ += NowNs() - r0;
  }

  void CheckComposed(const composability::ComposedSystem& composed, int nodes) {
    auto system = client_.Get(composed.system_uri);
    if (!system.ok()) {
      stats_.Fail("read back " + composed.system_uri + ": " + system.status().message());
      return;
    }
    const json::Json& doc = *system;
    const long long cores = doc.at("ProcessorSummary").GetInt("CoreCount", -1);
    const double storage = doc.at("Oem").at("Ofmf").GetDouble("StorageGiB", -1);
    if (cores < static_cast<long long>(kCoresPerComputeBlock) * nodes ||
        storage + 1e-6 < kLocalStorageGiB * nodes) {
      stats_.Fail(composed.system_uri + " summaries (" + std::to_string(cores) + " cores, " +
                  std::to_string(storage) + " GiB) miss the request for " +
                  std::to_string(nodes) + " nodes");
    }
    const json::Json& federation = doc.at("Oem").at("Ofmf").at("Federation");
    const std::string txn = federation.GetString("Txn");
    std::set<std::string> linked;
    if (doc.at("Links").at("ResourceBlocks").is_array()) {
      for (const json::Json& ref : doc.at("Links").at("ResourceBlocks").as_array()) {
        linked.insert(ref.GetString("@odata.id"));
      }
    }
    if (federation.at("RemoteBlocks").is_array()) {
      for (const json::Json& remote : federation.at("RemoteBlocks").as_array()) {
        linked.insert(remote.GetString("Uri"));
      }
    }
    if (linked != std::set<std::string>(composed.block_uris.begin(), composed.block_uris.end())) {
      stats_.Fail(composed.system_uri + " links other blocks than the manager composed");
    }
    for (const std::string& uri : composed.block_uris) {
      auto block = client_.Get(uri);
      if (!block.ok()) {
        stats_.Fail("read back " + uri + ": " + block.status().message());
        continue;
      }
      const std::string state = block->at("CompositionStatus").GetString("CompositionState");
      const std::string claimed_by = block->at("Oem").at("Ofmf").GetString("ClaimedBy");
      // A federated system's blocks carry the router's transaction as their
      // claim; a shard-local system's blocks are claimed by its link.
      const bool claimed = txn.empty() ? linked.count(uri) != 0 : claimed_by == txn;
      if (state != "Composed" || !claimed) {
        stats_.Fail(uri + " reads " + state + " claimed by '" + claimed_by + "' under " +
                    composed.system_uri);
      }
    }
  }

  /// Epilog: decompose the job's system.
  void ReleaseBurstBuffer() {
    if (system_uri_.empty()) return;
    const std::uint64_t t0 = NowNs();
    const Status decomposed = manager_.Decompose(system_uri_);
    const std::uint64_t t1 = NowNs();
    job_ops_ns_ += t1 - t0;
    if (!decomposed.ok()) {
      stats_.Fail("decompose " + system_uri_ + ": " + decomposed.message());
    } else {
      stats_.decompose_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    }
    if (SpanLog::enabled()) SpanLog::Record({0, 0, job_tag_, t0, t1, SpanKind::kDecompose});
    system_uri_.clear();
  }

  int rack_;
  ClientStats stats_;
  composability::OfmfClient client_;
  composability::ComposabilityManager manager_;
  SimClock clock_;
  cluster::Cluster machine_;
  std::unique_ptr<slurmsim::SlurmManager> slurm_;
  static constexpr int kJobsPerController = 64;
  int jobs_on_controller_ = 0;
  beeond::BeeondOrchestrator orchestrator_;
  Rng rng_;
  std::array<int, kMaxJobNodes> sizes_{};
  std::size_t next_size_ = kMaxJobNodes;
  std::string system_uri_;
  std::uint64_t job_ops_ns_ = 0;  // wall time inside manager calls this job
  std::uint64_t job_tag_ = 0;     // request id of the job's slurm spans
};

class BbLifecycle : public Workload {
 public:
  Status Setup(Deployment& deployment, std::uint64_t seed, bool traced) override {
    for (int rack = 0; rack < kJobRacks; ++rack) {
      clients_.push_back(
          std::make_unique<JobClient>(rack, deployment.router_port(), traced, seed));
      OFMF_RETURN_IF_ERROR(clients_.back()->Setup());
    }
    return Status::Ok();
  }
  void Warm() override { RunAll(Clock::now() + std::chrono::hours(1), 1); }
  void Run(Clock::time_point deadline) override { RunAll(deadline, ~0ull); }
  ClientStats TakeStats() override {
    ClientStats all;
    for (auto& client : clients_) all.Merge(client->TakeStats());
    return all;
  }
  int clients() const override { return kJobRacks; }

 private:
  void RunAll(Clock::time_point deadline, std::uint64_t max_jobs) {
    std::vector<std::thread> threads;
    for (auto& client : clients_) {
      threads.emplace_back([&client, deadline, max_jobs] { client->Loop(deadline, max_jobs); });
    }
    for (auto& t : threads) t.join();
  }
  std::vector<std::unique_ptr<JobClient>> clients_;
};

// -------------------------------------------------------------- hot_read ---

struct Target {
  std::string uri;
  std::string etag;
};

class HotRead : public Workload {
 public:
  static constexpr int kClients = 4;
  static constexpr double kRevalidateShare = 0.25;

  Status Setup(Deployment& deployment, std::uint64_t seed, bool traced) override {
    for (int i = 0; i < kClients; ++i) {
      auto client = std::make_unique<Client>();
      client->transport =
          std::make_unique<TimedTransport>(deployment.router_port(), client->stats, traced);
      client->rng = Rng(SeedFor(seed, 100 + static_cast<std::uint64_t>(i)));
      auto token = Login(*client->transport, "monitor");
      if (!token.ok()) return token.status();
      client->token = *token;
      clients_.push_back(std::move(client));
    }
    // The working set: every block, fabric and resident system, on both
    // shards; ETags recorded for the revalidations.
    for (const auto* uris : {&deployment.block_uris(), &deployment.fabric_uris(),
                             &deployment.resident_systems()}) {
      std::vector<Target>& group = groups_.emplace_back();
      for (const std::string& uri : *uris) {
        auto response = clients_[0]->transport->Send(
            Authed(http::Method::kGet, uri, clients_[0]->token));
        if (!response.ok() || response->status != 200) {
          return Status::Internal("warm GET " + uri + " failed");
        }
        group.push_back({uri, response->headers.GetOr("ETag", "")});
      }
    }
    return Status::Ok();
  }
  void Warm() override { RunAll(Clock::now() + std::chrono::hours(1), 100); }
  void Run(Clock::time_point deadline) override { RunAll(deadline, ~0ull); }
  ClientStats TakeStats() override {
    ClientStats all;
    for (auto& client : clients_) {
      all.Merge(std::move(client->stats));
      client->stats = ClientStats();
    }
    return all;
  }
  int clients() const override { return kClients; }

 private:
  struct Client {
    Client() = default;
    Client(const Client&) = delete;  // the transport holds &stats
    Client& operator=(const Client&) = delete;

    ClientStats stats;
    std::unique_ptr<TimedTransport> transport;
    std::string token;
    Rng rng;
  };

  void Loop(Client& c, Clock::time_point deadline, std::uint64_t max_requests) {
    const std::uint64_t cpu0 = ThreadCpuNs();
    for (std::uint64_t n = 0; n < max_requests && Clock::now() < deadline; ++n) {
      // Half blocks, a quarter fabrics, a quarter systems.
      const double kind = c.rng.NextDouble();
      const std::vector<Target>& group = groups_[kind < 0.5 ? 0 : kind < 0.75 ? 1 : 2];
      const Target& target = group[c.rng.UniformInt(0, group.size() - 1)];
      const bool revalidate = c.rng.NextDouble() < kRevalidateShare;
      http::Request request = Authed(http::Method::kGet, target.uri, c.token);
      if (revalidate) request.headers.Set("If-None-Match", target.etag);
      auto response = c.transport->Send(request);
      if (!response.ok() || IsFailureStatus(response->status)) continue;  // counted
      const int want = revalidate ? 304 : 200;
      if (response->status != want ||
          (want == 200 && response->headers.GetOr("ETag", "") != target.etag)) {
        c.stats.Fail("GET " + target.uri + " answered " + std::to_string(response->status) +
                     " ETag " + response->headers.GetOr("ETag", "") + ", expected " +
                     std::to_string(want) + " ETag " + target.etag);
      }
    }
    c.stats.cpu_ns += ThreadCpuNs() - cpu0;
  }

  void RunAll(Clock::time_point deadline, std::uint64_t max_requests) {
    std::vector<std::thread> threads;
    for (auto& client : clients_) {
      threads.emplace_back([this, &client, deadline, max_requests] {
        Loop(*client, deadline, max_requests);
      });
    }
    for (auto& t : threads) t.join();
  }

  std::vector<std::unique_ptr<Client>> clients_;
  std::vector<std::vector<Target>> groups_;
};

// ----------------------------------------------------------- fleet_sweep ---

class FleetSweep : public Workload {
 public:
  static constexpr int kClients = 2;
  static constexpr int kPageSize = 8;

  Status Setup(Deployment& deployment, std::uint64_t seed, bool traced) override {
    for (int i = 0; i < kClients; ++i) {
      auto client = std::make_unique<Client>();
      client->transport =
          std::make_unique<TimedTransport>(deployment.router_port(), client->stats, traced);
      client->transport->ExpectMembers(core::kResourceBlocks, kTotalBlocks);
      client->transport->ExpectMembers(core::kSystems, kResidentSystems);
      client->transport->ExpectMembers(core::kFabrics, kTotalFabrics);
      client->rng = Rng(SeedFor(seed, 200 + static_cast<std::uint64_t>(i)));
      auto token = Login(*client->transport, "monitor");
      if (!token.ok()) return token.status();
      client->token = *token;
      clients_.push_back(std::move(client));
    }
    return Status::Ok();
  }
  void Warm() override { RunAll(Clock::now() + std::chrono::hours(1), 1); }
  void Run(Clock::time_point deadline) override { RunAll(deadline, ~0ull); }
  ClientStats TakeStats() override {
    ClientStats all;
    for (auto& client : clients_) {
      all.Merge(std::move(client->stats));
      client->stats = ClientStats();
    }
    return all;
  }
  int clients() const override { return kClients; }

 private:
  struct Client {
    Client() = default;
    Client(const Client&) = delete;  // the transport holds &stats
    Client& operator=(const Client&) = delete;

    ClientStats stats;
    std::unique_ptr<TimedTransport> transport;
    std::string token;
    Rng rng;
  };
  enum Op { kBlocks, kSystems, kFabrics, kWalk, kLatency, kHealth, kDump, kOps };

  static double Ms(std::uint64_t t0) { return static_cast<double>(NowNs() - t0) / 1e6; }

  /// GET + parse; nullopt (already counted or failed) when unusable.
  std::optional<json::Json> GetDoc(Client& c, http::Request request, const std::string& what) {
    auto response = c.transport->Send(request);
    if (!response.ok() || IsFailureStatus(response->status)) return std::nullopt;
    auto doc = json::Parse(response->body.view());
    if (!doc.ok() || !doc->is_object()) {
      c.stats.Fail(what + ": unparseable body");
      return std::nullopt;
    }
    return std::move(*doc);
  }

  /// An unpaged aggregated collection GET; the transport checks its count.
  void Collection(Client& c, const char* path) {
    const std::uint64_t t0 = NowNs();
    auto response = c.transport->Send(Authed(http::Method::kGet, path, c.token));
    if (!response.ok() || IsFailureStatus(response->status)) return;  // counted
    c.stats.collection_ms.push_back(Ms(t0));
  }

  void Walk(Client& c) {
    const std::uint64_t t0 = NowNs();
    std::string target = std::string(core::kResourceBlocks) + "?$top=" + std::to_string(kPageSize);
    std::set<std::string> seen;
    std::size_t listed = 0;
    for (int page = 0; !target.empty(); ++page) {
      if (page > kTotalBlocks) {
        c.stats.Fail("paged walk does not terminate");
        return;
      }
      ++c.stats.paged_requests;
      auto doc = GetDoc(c, Authed(http::Method::kGet, target, c.token), "page " + target);
      if (!doc) return;
      if (MembersCount(*doc) != kTotalBlocks) {
        c.stats.Fail("page " + target + " counts " + std::to_string(MembersCount(*doc)));
      }
      if (doc->at("Members").is_array()) {
        for (const json::Json& ref : doc->at("Members").as_array()) {
          seen.insert(ref.GetString("@odata.id"));
          ++listed;
        }
      }
      target = doc->GetString("@odata.nextLink");
    }
    c.stats.walk_ms.push_back(Ms(t0));
    if (listed != static_cast<std::size_t>(kTotalBlocks) ||
        seen.size() != static_cast<std::size_t>(kTotalBlocks)) {
      c.stats.Fail("paged walk listed " + std::to_string(listed) + " blocks (" +
                   std::to_string(seen.size()) + " distinct), inventory has " +
                   std::to_string(kTotalBlocks));
    }
  }

  void Scrape(Client& c, Op op) {
    static const std::string reports = std::string(core::kMetricReports) + "/";
    static const std::string dump =
        std::string(core::kServiceRoot) + "/Actions/OfmfService.MetricsDump";
    const std::uint64_t t0 = NowNs();
    std::optional<json::Json> doc;
    if (op == kDump) {
      http::Request request = http::MakeJsonRequest(http::Method::kPost, dump,
                                                    json::Json::MakeObject());
      request.headers.Set("X-Auth-Token", c.token);
      doc = GetDoc(c, std::move(request), "MetricsDump");
    } else {
      const std::string target = reports + (op == kLatency ? "RequestLatency" : "FleetHealth");
      doc = GetDoc(c, Authed(http::Method::kGet, target, c.token), target);
    }
    if (!doc) return;
    c.stats.scrape_ms.push_back(Ms(t0));
    if (op != kHealth) ++c.stats.gathering_scrapes;
    // Structure and live-shard count only: merged totals are not checked
    // (every in-process shard dumps the same process-wide registry).
    if (op == kDump) {
      const json::Json& shards = doc->at("Shards");
      if (!shards.is_array() || shards.as_array().size() != kShards ||
          !doc->at("Histograms").is_array() || !doc->at("Counters").is_array()) {
        c.stats.Fail("MetricsDump lacks Shards/Histograms/Counters for 2 shards");
      }
    } else if (op == kLatency) {
      if (!doc->at("MetricValues").is_array() || doc->at("MetricValues").as_array().empty()) {
        c.stats.Fail("RequestLatency report has no MetricValues");
      }
    } else {
      int alive = 0;
      const json::Json& shards = doc->at("Oem").at("Ofmf").at("Shards");
      if (shards.is_array()) {
        for (const json::Json& shard : shards.as_array()) alive += shard.GetBool("Alive") ? 1 : 0;
      }
      if (alive != kShards) {
        c.stats.Fail("FleetHealth reports " + std::to_string(alive) + " live shards");
      }
    }
  }

  void Loop(Client& c, Clock::time_point deadline, std::uint64_t max_sweeps) {
    const std::uint64_t cpu0 = ThreadCpuNs();
    std::vector<Op> ops;
    for (int op = 0; op < kOps; ++op) ops.push_back(static_cast<Op>(op));
    for (std::uint64_t n = 0; n < max_sweeps && Clock::now() < deadline; ++n) {
      // The seed orders the operations of each sweep.
      for (std::size_t i = ops.size() - 1; i > 0; --i) {
        std::swap(ops[i], ops[c.rng.UniformInt(0, i)]);
      }
      for (Op op : ops) {
        switch (op) {
          case kBlocks: Collection(c, core::kResourceBlocks); break;
          case kSystems: Collection(c, core::kSystems); break;
          case kFabrics: Collection(c, core::kFabrics); break;
          case kWalk: Walk(c); break;
          default: Scrape(c, op); break;
        }
      }
    }
    c.stats.cpu_ns += ThreadCpuNs() - cpu0;
  }

  void RunAll(Clock::time_point deadline, std::uint64_t max_sweeps) {
    std::vector<std::thread> threads;
    for (auto& client : clients_) {
      threads.emplace_back([this, &client, deadline, max_sweeps] {
        Loop(*client, deadline, max_sweeps);
      });
    }
    for (auto& t : threads) t.join();
  }

  std::vector<std::unique_ptr<Client>> clients_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "bb_lifecycle") return std::make_unique<BbLifecycle>();
  if (name == "hot_read") return std::make_unique<HotRead>();
  if (name == "fleet_sweep") return std::make_unique<FleetSweep>();
  return nullptr;
}

}  // namespace perfbench
