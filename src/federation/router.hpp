// FederationRouter: the stateless front tier of a federated OFMF. It
// terminates Redfish on the epoll reactor (Handler() plugs straight into
// TcpServer), routes each URI to the owning shard over pooled keep-alive
// TcpClients, aggregates collection GETs and fleet metrics with one
// multiplexed scatter-gather exchange (no thread per leg), and
// forwards cross-shard composition as a two-phase claim (wire ETag-CAS on
// every block, then an idempotent POST to the home shard) with rollback on
// partial failure. See DESIGN.md "Federation".
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/faults.hpp"
#include "common/trace.hpp"
#include "federation/directory_client.hpp"
#include "federation/fleet.hpp"
#include "federation/routing.hpp"
#include "http/server.hpp"

namespace ofmf::federation {

struct RouterOptions {
  /// Per-request bound on each downstream shard call; in a scatter-gather,
  /// each leg's own deadline (a late shard fails alone).
  int downstream_timeout_ms = 5000;
  /// ETag-CAS attempts per block claim before giving up (matches the
  /// shard-local ClaimBlock retry budget).
  int claim_attempts = 4;
  /// Requests slower than this dump the *assembled* cross-process trace tree
  /// (router spans stitched with every shard's TraceDump fragment) via
  /// OFMF_WARN; 0 (default) disables. Only meaningful with sampling on.
  int slow_trace_ms = 0;
};

struct RouterStats {
  std::uint64_t forwarded = 0;          // single-shard forwards
  std::uint64_t aggregations = 0;       // scatter-gather collection GETs
  std::uint64_t degraded_aggregations = 0;  // ... with shards omitted
  std::uint64_t members_omitted = 0;    // members lost to degraded responses
  std::uint64_t probes = 0;             // ownership-probe GETs issued
  std::uint64_t cross_shard_composes = 0;
  std::uint64_t compose_rollbacks = 0;  // two-phase unwinds executed
};

class FederationRouter {
 public:
  explicit FederationRouter(std::shared_ptr<DirectoryClient> directory,
                            RouterOptions options = {});

  http::Response Route(const http::Request& request);
  http::ServerHandler Handler() {
    return [this](const http::Request& request) { return Route(request); };
  }

  /// Downstream sends to shard S probe fault point "federation.shard.<S>"
  /// first (kDropConnection/kCrash: the send never happens — a dead shard;
  /// kErrorStatus: the shard answers that status; kDelay: added latency,
  /// to that leg only in a scatter-gather; kDropResponse: sent, answer lost).
  void set_fault_injector(std::shared_ptr<FaultInjector> faults) {
    std::lock_guard<std::mutex> lock(mu_);
    faults_ = std::move(faults);
  }

  RouterStats stats() const;

  /// Stitches the router's spans for `trace_id` with every live shard's
  /// TraceDump fragment into one deduped, start-ordered span set, and
  /// renders it as {TraceId, Nodes, Spans, Tree}. Served by the router's
  /// own Actions/OfmfService.TraceDump and used by the slow-request dump.
  json::Json AssembleTrace(std::uint64_t trace_id, const RoutingTable& table);

 private:
  struct ShardPage {
    bool ok = false;
    std::string shard_id;
    long long count = 0;
    bool have_doc = false;
    json::Json doc;  // full collection doc (Members intact) when have_doc
  };

  /// Route() minus the tracing wrapper (wire adoption, router.route span,
  /// trace-id echo, slow-trace assembly).
  http::Response RouteInner(const http::Request& request);

  /// Router-served observability endpoints: the fleet TelemetryService
  /// (merged MetricReports + FleetHealth), the fleet MetricsDump, and the
  /// assembled TraceDump. nullopt = not one of ours, route normally.
  std::optional<http::Response> TelemetryIntercept(const http::Request& request,
                                                   const RoutingTable& table,
                                                   const std::string& path);
  /// Scatter-gathers every live shard's MetricsDump into one FleetMetrics.
  FleetMetrics GatherFleetMetrics(const RoutingTable& table);
  std::vector<trace::SpanRecord> AssembleTraceSpans(std::uint64_t trace_id,
                                                    const RoutingTable& table);

  /// The directory's shared snapshot (never copied per request).
  Result<std::shared_ptr<const RoutingTable>> TableNow();
  /// Ring for the current epoch (rebuilt only on epoch change, shared).
  std::shared_ptr<const HashRing> RingFor(const RoutingTable& table);
  std::shared_ptr<http::TcpClient> ClientFor(const ShardInfo& shard);

  /// What shard S's fault point says about one send.
  struct FaultPlan {
    std::optional<Result<http::Response>> answer;  // set: the send never happens
    int delay_ms = 0;
    bool drop_response = false;  // sent, but the answer is lost
  };
  FaultPlan PlanSend(const ShardInfo& shard);
  /// One downstream call, through the shard's fault point.
  Result<http::Response> SendToShard(const ShardInfo& shard, const http::Request& request);
  /// Sends `request` to every live shard of `table` at once: one
  /// TcpClient::Exchange, each leg through its shard's fault point and in
  /// its own `span_name` span under the ambient context (its id rides the
  /// leg's request). `take(i, answer)` gets shard i's answer on this thread
  /// as soon as that leg ends, while its span is open; it returns false to
  /// mark the leg failed. Dead shards get no leg and no call.
  void Scatter(const RoutingTable& table, const http::Request& request,
               const char* span_name,
               const std::function<bool(std::size_t, Result<http::Response>)>& take);

  http::Response ForwardTo(const ShardInfo& shard, const http::Request& request);
  /// The shard serving non-sharded traffic (service root, sessions,
  /// subscriptions): ring owner of kRootKey, else first alive shard.
  const ShardInfo* DefaultShard(const RoutingTable& table, const HashRing& ring);

  http::Response AggregateCollection(const http::Request& request,
                                     const RoutingTable& table);
  /// Count-only fetch ($top=0) for shards outside the requested page window.
  Result<long long> FetchCount(const ShardInfo& shard, const std::string& path,
                               const std::map<std::string, std::string>& base_query);

  /// Owner of a URI the ring cannot place (systems, blocks, chassis):
  /// location cache, then GET-probe shards in table order.
  Result<ShardInfo> ResolveResourceShard(const std::string& uri,
                                         const RoutingTable& table);

  http::Response ComposeRoute(const http::Request& request, const RoutingTable& table);
  http::Response DecomposeRoute(const http::Request& request, const RoutingTable& table);
  /// Phase-1 claim of one block by wire ETag-CAS; idempotent under `txn`
  /// (a block already Composed with ClaimedBy == txn counts as claimed).
  /// Returns the block's payload on success (capabilities travel to the
  /// home shard so its summaries include remote blocks).
  Result<json::Json> ClaimBlockOnShard(const ShardInfo& shard, const std::string& uri,
                                       const std::string& txn);
  /// Release PATCHes (unconditional) on every claimed block. `is_rollback`
  /// distinguishes a failed-compose unwind from a decompose release in stats.
  void ReleaseClaims(const std::vector<std::pair<ShardInfo, std::string>>& claimed,
                     bool is_rollback = true);

  void CacheLocation(const std::string& uri, const std::string& shard_id);
  void CacheCount(const std::string& path, const std::string& shard_id, long long count);
  std::optional<long long> CachedCount(const std::string& path, const std::string& shard_id);

  std::shared_ptr<DirectoryClient> directory_;
  RouterOptions options_;

  mutable std::mutex mu_;
  std::shared_ptr<FaultInjector> faults_;
  std::uint64_t ring_epoch_ = 0;
  std::shared_ptr<const HashRing> ring_;  // null = none yet
  std::map<std::string, std::shared_ptr<http::TcpClient>> clients_;  // shard id -> client
  std::map<std::string, std::uint16_t> client_ports_;
  std::map<std::string, std::string> locations_;  // resource uri -> shard id
  std::map<std::string, long long> counts_;       // path|shard -> last known count
  std::atomic<std::uint64_t> txn_counter_{1};

  std::atomic<std::uint64_t> forwarded_{0}, aggregations_{0}, degraded_{0},
      omitted_members_{0}, probes_{0}, composes_{0}, rollbacks_{0};
};

}  // namespace ofmf::federation
