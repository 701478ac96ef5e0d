// The OpenFabrics Management Framework service: one Redfish tree over every
// fabric and resource, served through the generic Redfish dispatcher, with
// SessionService (auth), EventService (subscriptions), TaskService,
// TelemetryService, AggregationService (agents) and CompositionService
// wired in. Clients talk to Handler() over the in-process or TCP transport;
// agents register and publish inventory under /redfish/v1/Fabrics.
#pragma once

#include <atomic>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.hpp"
#include "common/faults.hpp"
#include "http/server.hpp"
#include "ofmf/agent.hpp"
#include "ofmf/breaker.hpp"
#include "ofmf/composition.hpp"
#include "ofmf/events.hpp"
#include "ofmf/sessions.hpp"
#include "ofmf/tasks.hpp"
#include "ofmf/telemetry.hpp"
#include "redfish/service.hpp"
#include "redfish/tree.hpp"
#include "store/store.hpp"

namespace ofmf::core {

/// Outcome of the post-recovery reconciliation pass (ReconcileWithAgents).
struct ReconcileReport {
  std::size_t resources_marked_absent = 0;  // recovered but no agent reports them
  std::size_t systems_adopted = 0;
  std::size_t systems_rolled_back = 0;
  std::size_t claims_released = 0;
};

class OfmfService {
 public:
  OfmfService();
  /// Detaches the event journals from the store first: store_ is destroyed
  /// before events_, whose delivery workers may still advance a cursor.
  ~OfmfService();

  /// Builds the service root, collections, and all sub-services. Must be
  /// called once before handling requests.
  Status Bootstrap();

  /// Registers an agent: records it under the AggregationService, lets it
  /// publish its fabric subtree, and routes fabric-scoped mutations to it.
  Status RegisterAgent(std::shared_ptr<FabricAgent> agent);

  /// Creates the fabric resource + empty sub-collections an agent publishes
  /// into (helper for agents).
  Status CreateFabricSkeleton(const std::string& fabric_id, const std::string& fabric_type,
                              const std::string& agent_id);

  /// Full protocol entry point (auth middleware + session/compose special
  /// cases + generic Redfish dispatch). POST /redfish/v1/Systems with a
  /// "Prefer: respond-async" header is accepted as a Task (202 + monitor
  /// URI); the composition runs at the next ProcessPendingWork().
  http::Response Handle(const http::Request& request);

  /// Graceful shutdown, phase one: refuse new mutations with 503 +
  /// Retry-After (reads still served) while in-flight work finishes. Called
  /// before TcpServer::Stop() + FlushStore() so a retrying client observes a
  /// clean failover window instead of racing the store flush.
  void BeginDrain() { draining_.store(true, std::memory_order_relaxed); }
  void EndDrain() { draining_.store(false, std::memory_order_relaxed); }
  bool draining() const { return draining_.load(std::memory_order_relaxed); }

  /// Marks this instance as one shard of a federated deployment: system ids
  /// become "composed-<shard_id>-<n>" (so shards never mint colliding
  /// /redfish/v1/Systems URIs) and the ServiceRoot is stamped with
  /// Oem.Ofmf.ShardId. Call after Bootstrap(), before serving traffic.
  void set_shard_identity(const std::string& shard_id);
  const std::string& shard_id() const { return shard_id_; }

  /// Executes deferred (task-backed) operations; returns how many ran.
  std::size_t ProcessPendingWork();
  std::size_t pending_work() const { return pending_work_.size(); }
  http::ServerHandler Handler() {
    return [this](const http::Request& request) { return Handle(request); };
  }

  /// Per-thread request stride between piggybacked MetricReport refreshes
  /// (power of two; see PeriodicReportRefresh).
  static constexpr std::uint64_t kReportRefreshInterval = 1024;

  redfish::ResourceTree& tree() { return tree_; }
  redfish::RedfishService& rest() { return rest_; }
  SessionService& sessions() { return sessions_; }
  EventService& events() { return events_; }
  TaskService& tasks() { return tasks_; }
  TelemetryService& telemetry() { return telemetry_; }
  CompositionService& composition() { return composition_; }
  SimClock& clock() { return clock_; }

  Result<FabricAgent*> AgentForFabric(const std::string& fabric_id);

  // ------------------------------------------------------------ durability --
  // Startup ordering: Bootstrap() -> EnableDurability() -> RegisterAgent()
  // for every surviving agent -> ReconcileWithAgents() -> serve traffic.

  /// Attaches a persistent store. When the store directory holds data from a
  /// previous run, the tree is rebuilt from snapshot + journal *replacing*
  /// the bootstrapped tree, sessions and event subscriptions are re-adopted,
  /// and the tree enters recovery-adopt mode so agents can re-publish their
  /// live inventory over the recovered resources. Afterwards every tree
  /// mutation is journaled and a baseline snapshot is compacted. Returns the
  /// recovery report (empty-dir case: had_snapshot=false, 0 records).
  Result<store::RecoveryReport> EnableDurability(
      std::shared_ptr<store::PersistentStore> store);

  /// Post-recovery pass, run after every surviving agent re-registered:
  /// fabric resources no agent re-published are marked Status.State=Absent
  /// (the hardware stopped reporting them; clients see that, not a silent
  /// hole), composed systems whose block claims all hold are adopted,
  /// half-composed systems are rolled back and leaked block claims released
  /// (CompositionService::RecoverConsistency), recovery-adopt mode ends, and
  /// the reconciled tree is compacted as the new durability baseline.
  Result<ReconcileReport> ReconcileWithAgents();

  /// Commits buffered journal records now (group commit or shutdown flush).
  Status FlushStore();

  /// Snapshots the current tree + sessions and rotates the journal.
  Status CompactStore();

  bool durable() const { return store_ != nullptr; }
  const std::shared_ptr<store::PersistentStore>& store() const { return store_; }

  /// Attaches a fault injector. Agent calls then probe point
  /// "agent.<fabric_id>" before reaching the agent (nullptr detaches).
  void set_fault_injector(std::shared_ptr<FaultInjector> faults) {
    faults_ = std::move(faults);
  }
  const std::shared_ptr<FaultInjector>& fault_injector() const { return faults_; }

  /// The circuit breaker guarding an agent's fabric (created on
  /// RegisterAgent). NotFound when no agent owns the fabric.
  Result<CircuitBreaker*> BreakerForFabric(const std::string& fabric_id);

  /// True while the fabric's subtree is marked Critical/UnavailableOffline.
  bool FabricDegraded(const std::string& fabric_id) const;

  /// Current breaker + replay counters (feeds the Resilience MetricReport).
  ResilienceSnapshot CollectResilience() const;

  /// Coarse self-reported health (breaker states, replay counter, cache hit
  /// rate) in JSON form. Shards attach this to their directory heartbeats so
  /// the router's FleetHealth report can show per-shard state — including
  /// the last known state of a shard that has since gone dark.
  json::Json HealthStats();

 private:
  Status BootstrapServiceRoot();
  void WireRoutes();
  /// Handle() minus the instrumentation wrapper (span, latency histogram,
  /// periodic telemetry refresh): auth, replay cache, dispatch, upkeep.
  http::Response HandleInner(const http::Request& request);
  http::Response Dispatch(const http::Request& request);

  /// Every kReportRefreshInterval-th request a thread handles piggybacks a
  /// refresh of the service-internal MetricReports (internal_reports_), so
  /// the reports stay current without a background thread. The stride is
  /// per thread (a thread-local counter keeps the hot path free of
  /// shared-cache-line traffic), the registry-disabled configuration skips
  /// it entirely, and scrape GETs refresh lazily anyway — the periodic pass
  /// only serves passive ETag pollers. TelemetryService::Publish leaves a
  /// report whose content did not move untouched.
  void PeriodicReportRefresh();

  /// Authentication gate, run by Handle() before anything else (including
  /// the replay-cache lookup, so a cached response can never leak past a
  /// missing 401). Returns the error response when the request is denied.
  std::optional<http::Response> Authenticate(const http::Request& request);

  /// Runs one agent call under its breaker and fault point; records the
  /// outcome and degrades/restores the fabric on breaker transitions.
  Result<std::string> GuardedAgentCreate(const std::string& fabric_id,
                                         const std::function<Result<std::string>()>& call);
  Status GuardedAgentDelete(const std::string& fabric_id,
                            const std::function<Status()>& call);
  Status InjectedAgentFault(const std::string& fabric_id);
  void NoteAgentOutcome(const std::string& fabric_id, const Status& status);

  /// Marks every resource in the fabric subtree Critical/UnavailableOffline
  /// (served stale instead of deleted) and remembers exactly which URIs it
  /// touched so Restore un-degrades only those.
  void DegradeFabric(const std::string& fabric_id);
  void RestoreFabric(const std::string& fabric_id);

  SimClock clock_;
  redfish::ResourceTree tree_;
  redfish::RedfishService rest_;
  SessionService sessions_;
  EventService events_;
  TaskService tasks_;
  TelemetryService telemetry_;
  CompositionService composition_;
  // The service-internal MetricReports, URI -> renderer of the current
  // content: ResponseCache, Resilience, RequestLatency, EventDelivery and
  // TenantQoS. A GET of a URI refreshes that report, PeriodicReportRefresh
  // refreshes all, and the EventService publishes no events for them.
  std::map<std::string, std::function<json::Json()>> internal_reports_;
  std::map<std::string, std::shared_ptr<FabricAgent>> agents_by_fabric_;
  std::deque<std::function<void()>> pending_work_;
  bool bootstrapped_ = false;
  std::string shard_id_;
  std::atomic<bool> draining_{false};

  std::shared_ptr<FaultInjector> faults_;
  std::shared_ptr<store::PersistentStore> store_;
  // URIs an agent re-published while the tree was in recovery-adopt mode;
  // ReconcileWithAgents marks everything else in that agent's fabric Absent.
  mutable std::mutex adopt_mu_;
  std::set<std::string> adopted_uris_;
  // Breakers are created by RegisterAgent and never erased, so the
  // CircuitBreaker pointers handed out stay valid; the mutex guards the map
  // itself against an agent registering while readers iterate or look up.
  mutable std::mutex breakers_mu_;
  std::map<std::string, std::unique_ptr<CircuitBreaker>> breakers_by_fabric_;
  mutable std::mutex degraded_mu_;
  // fabric -> (uri, pre-degradation Status) so Restore puts back what was
  // actually there, not a blanket Enabled/OK.
  std::map<std::string, std::vector<std::pair<std::string, json::Json>>> degraded_uris_;

  // Idempotent-POST replay cache: (auth principal, X-Request-Id) ->
  // successful response. Bounded FIFO; only 2xx responses are recorded so a
  // failed attempt never blocks its own retry from re-executing. Entries
  // remember the request's path and body hash: a same-key lookup with a
  // different request is rejected rather than replayed.
  struct ReplayEntry {
    std::string path;
    std::size_t body_hash = 0;
    http::Response response;
  };
  static constexpr std::size_t kMaxReplayEntries = 512;
  mutable std::mutex replay_mu_;
  std::map<std::string, ReplayEntry> replayed_posts_;
  std::deque<std::string> replay_order_;
  std::uint64_t replay_hits_ = 0;
};

}  // namespace ofmf::core
