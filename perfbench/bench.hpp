// Shared pieces of the end-to-end benchmark: the fixed inventory, request
// classification, the in-memory span log of the traced run, the timed client
// transport every workload sends through, and the federated deployment
// (directory, router, two durable shards, event sink) it drives.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "arith.hpp"
#include "federation/directory.hpp"
#include "federation/directory_client.hpp"
#include "federation/router.hpp"
#include "http/server.hpp"
#include "ofmf/service.hpp"

namespace perfbench {

using namespace ofmf;

// ------------------------------------------------------------- inventory ---
// Fixed by the benchmark (never by the seed) and stamped on every run.
// Job racks 0..2 each hold kComputePerRack compute blocks on the rack's
// compute shard, kLocalStoragePerRack storage blocks on that shard and
// kRemoteStoragePerRack slightly larger storage blocks on the other shard.
// Locality-aware placement takes the smaller, same-shard storage blocks
// first, so a burst buffer for a job of n nodes crosses shards exactly when
// n > kLocalStoragePerRack. Rack 3 holds the blocks of the resident systems.
inline constexpr int kJobRacks = 3;
inline constexpr int kComputePerRack = 4;
inline constexpr int kLocalStoragePerRack = 2;
inline constexpr int kRemoteStoragePerRack = 2;
inline constexpr int kResidentSystems = 4;  // one compute + one storage block each
inline constexpr int kFabricsPerShard = 4;
inline constexpr int kShards = 2;
inline constexpr int kCoresPerComputeBlock = 32;
inline constexpr double kLocalStorageGiB = 894.0;
inline constexpr double kRemoteStorageGiB = 960.0;
inline constexpr int kMaxJobNodes = 4;
inline constexpr int kNodesPerPartition = 8;

inline constexpr int kTotalBlocks =
    kJobRacks * (kComputePerRack + kLocalStoragePerRack + kRemoteStoragePerRack) +
    2 * kResidentSystems;
inline constexpr int kTotalFabrics = kShards * kFabricsPerShard;

/// Header the traced run stamps on every client request; the router forwards
/// it unchanged, so router and shard handler spans correlate with it.
inline constexpr const char* kReqHeader = "X-Bench-Req";

// -------------------------------------------------------- classification ---
enum class OpClass : std::uint8_t {
  kGet,         // single resource, 200
  kGet304,      // single resource, 304 revalidation
  kCollection,  // aggregated collection GET (paged or not)
  kCompose,     // POST /Systems
  kDecompose,   // DELETE /Systems/<id>
  kScrape,      // MetricReport GET or MetricsDump action
  kClaim,       // PATCH of a block (the router's two-phase claim and release)
  kOther,       // sessions, subscriptions, ...
};
const char* ClassName(OpClass cls);
OpClass Classify(http::Method method, const std::string& path, int status);

inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// -------------------------------------------------------------- span log ---
enum class SpanKind : std::uint8_t {
  kClient,     // one HTTP request as the client sees it
  kRouter,     // router handler passed to TcpServer::Start
  kShard,      // shard handler passed to TcpServer::Start
  kSink,       // receipt of one event batch at the sink
  kDiscover,   // ComposabilityManager discovery (Compose start -> its POST)
  kCompose,    // ComposabilityManager::Compose
  kDecompose,  // ComposabilityManager::Decompose
  kSubmit,     // slurmsim SlurmManager::Submit (prolog included)
  kComplete,   // slurmsim SlurmManager::Complete (epilog included)
};
const char* SpanName(SpanKind kind);

struct SpanRec {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // filled in by the analysis (0 = root)
  std::uint64_t req = 0;     // X-Bench-Req id, or job id for job spans
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  SpanKind kind = SpanKind::kClient;
  OpClass cls = OpClass::kOther;
  std::uint8_t shard = 0;
  std::uint16_t status = 0;
};

/// Spans of the traced run, kept in per-thread buffers (no lock on the hot
/// path after a thread's first span) and collected when the run ends.
class SpanLog {
 public:
  static void Enable(bool on);
  static bool enabled();
  static void Record(SpanRec span);
  /// Every span recorded since the last Enable(true), in no order.
  /// Call once the load has stopped: buffers are read without their
  /// writers' synchronization.
  static std::vector<SpanRec> Collect();
};

std::uint64_t NextRequestId();
std::uint64_t RequestIdOf(const http::Request& request);

// --------------------------------------------------------- client side ---
/// Everything one client thread measured. Merged after the run.
struct ClientStats {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t check_failures = 0;
  std::vector<std::string> errors;  // first few, for the report
  LatencyHistogram req_latency;  // successful requests
  std::map<OpClass, LatencyHistogram> class_latency;
  std::uint64_t get_requests = 0, revalidated = 0;

  // Workload operations (milliseconds).
  std::vector<double> compose_ms, decompose_ms, collection_ms, walk_ms, scrape_ms;
  std::vector<double> discover_us;
  std::uint64_t jobs = 0, composes = 0, compose_requests = 0, compose_gets = 0,
                compose_revalidated = 0, conflict_retries = 0, gathering_scrapes = 0,
                paged_requests = 0;
  std::vector<double> sim_us_per_job;
  std::uint64_t last_compose_post_ns = 0;

  // 2xx Compose / Decompose response times, for the event lag.
  std::map<std::string, std::uint64_t> composed_at, decomposed_at;

  std::uint64_t cpu_ns = 0;  // thread CPU time inside the measured loop

  void Fail(const std::string& what);
  void Merge(ClientStats&& other);
};

/// The client transport every workload request goes through: one keep-alive
/// TcpClient to the router, timed per request. The traced run stamps the
/// request id header and records a client span.
class TimedTransport : public http::HttpClient {
 public:
  TimedTransport(std::uint16_t port, ClientStats& stats, bool traced)
      : client_(port, 10000), stats_(stats), traced_(traced) {}
  Result<http::Response> Send(const http::Request& request) override;
  /// Every unpaged GET of `path` must list and count exactly `count`
  /// members; a miss is a failed check.
  void ExpectMembers(std::string path, long long count) {
    expected_members_[std::move(path)] = count;
  }

 private:
  http::TcpClient client_;
  ClientStats& stats_;
  bool traced_;
  std::map<std::string, long long> expected_members_;
};

std::uint64_t ThreadCpuNs();

// ------------------------------------------------------------ event sink ---
struct SinkEvent {
  int subscriber = 0;
  std::string event_type;
  std::string message_id;
  std::string event_id;
  std::string origin;
  std::uint64_t start = 0, end = 0;  // receipt span of the batch
};

class EventSink {
 public:
  http::Response Handle(const http::Request& request);
  std::vector<SinkEvent> Events() const;
  std::uint64_t malformed() const { return malformed_.load(); }

 private:
  mutable std::mutex mu_;
  std::vector<SinkEvent> events_;
  std::atomic<std::uint64_t> malformed_{0};
};

// ------------------------------------------------------------ deployment ---
struct BlockSpec {
  core::BlockCapability capability;
  int shard = 0;  // index into the deployment's shards
};
std::vector<BlockSpec> InventoryBlocks();
std::string BlockUri(const std::string& id);

struct Shard {
  std::string id;
  core::OfmfService service;
  http::TcpServer server;
  std::unique_ptr<federation::DirectoryClient> directory;
  std::thread heartbeat;
  std::atomic<bool> stop{false};
};

class Deployment {
 public:
  Deployment() = default;
  ~Deployment();
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  /// Brings up directory, shards (fresh durable stores under `store_dir`,
  /// QoS classifier, tenants, inventory), router, sink, subscriptions and
  /// the resident systems. `traced` wraps the router and shard handlers in
  /// span recorders; otherwise the program's handlers are passed unwrapped.
  Status Start(const std::string& store_dir, bool traced);
  /// Decomposes the resident systems through the router.
  Status RemoveResidents();
  void Stop();

  std::uint16_t router_port() const { return router_server_.port(); }
  federation::FederationRouter& router() { return *router_; }
  http::TcpServer& router_server() { return router_server_; }
  std::vector<std::unique_ptr<Shard>>& shards() { return shards_; }
  int default_shard() const { return default_shard_; }
  EventSink& sink() { return sink_; }

  const std::vector<std::string>& block_uris() const { return block_uris_; }
  const std::vector<std::string>& fabric_uris() const { return fabric_uris_; }
  const std::vector<std::string>& resident_systems() const { return residents_; }

  /// Locality label of a rack ("rack<n>").
  static std::string RackLabel(int rack);

 private:
  Status StartShard(int index, bool traced);

  std::string store_dir_;
  federation::DirectoryService directory_;
  http::TcpServer directory_server_;
  std::vector<std::unique_ptr<Shard>> shards_;
  int default_shard_ = 0;
  std::unique_ptr<federation::FederationRouter> router_;
  http::TcpServer router_server_;
  EventSink sink_;
  http::TcpServer sink_server_;
  std::vector<std::string> block_uris_, fabric_uris_, residents_;
  bool stopped_ = true;
};

}  // namespace perfbench
