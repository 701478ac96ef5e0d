// TelemetryService: the "subscription-based central repository for telemetry
// information". Agents push MetricReports (power, port counters, pool
// utilization); clients read them from the tree or subscribe to
// MetricReport events. The service also publishes its own, service-internal
// reports (cache, resilience, latency, event delivery, tenant QoS) quietly,
// through Publish(); the renderers for those are declared below.
#pragma once

#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/qos.hpp"
#include "common/result.hpp"
#include "json/value.hpp"
#include "ofmf/breaker.hpp"
#include "ofmf/events.hpp"
#include "redfish/cache.hpp"
#include "redfish/tree.hpp"

namespace ofmf::core {

struct MetricValue {
  std::string metric_id;   // "PowerConsumedWatts"
  double value = 0.0;
  std::string property;    // origin @odata.id (optional)
};

/// Point-in-time view of the service's resilience machinery: one breaker
/// per registered agent plus the idempotent-POST replay counter.
struct ResilienceSnapshot {
  struct FabricBreaker {
    std::string fabric_id;
    BreakerState state = BreakerState::kClosed;
    BreakerStats stats;
    bool degraded = false;  // fabric subtree currently marked Critical
  };
  std::vector<FabricBreaker> breakers;
  std::uint64_t replayed_posts = 0;  // POSTs answered from the replay cache
};

class TelemetryService {
 public:
  TelemetryService(redfish::ResourceTree& tree, EventService& events, SimClock& clock);

  Status Bootstrap();

  /// Creates-or-replaces the report `report_id` and fires a MetricReport
  /// event. Repeated pushes to the same id overwrite (latest snapshot).
  Status PushReport(const std::string& report_id, const std::vector<MetricValue>& values);

  Result<json::Json> GetReport(const std::string& report_id) const;
  std::vector<std::string> ReportIds() const;

  /// Creates-or-replaces a service-internal report (a redfish::MetricReport,
  /// keyed by its Id) quietly: no MetricReport event, and a no-op when its
  /// MetricValues and Oem equal what was last published, so an unchanged
  /// report keeps its ETag. Timestamps are stamped here, after the compare.
  Status Publish(json::Json report);
  static std::string ReportUri(const std::string& report_id);

  /// Where TenantQos() pulls per-tenant scheduler counters from (the
  /// reactor's TcpServer::TenantQosStats, wired by whoever owns both); none
  /// by default, and then the TenantQoS report has only the latency series.
  void SetTenantQosSource(std::function<std::vector<qos::TenantStats>()> source);
  std::vector<qos::TenantStats> TenantQos() const;

 private:
  redfish::ResourceTree& tree_;
  EventService& events_;
  SimClock& clock_;

  mutable std::mutex mu_;
  std::map<std::string, json::Json> published_;  // id -> last content, no timestamps
  std::function<std::vector<qos::TenantStats>()> tenant_qos_source_;

  Status Write(json::Json report);  // stamps Timestamps, creates or replaces
};

// Renderers of the five service-internal reports (Id in the name), plus the
// pieces the service's MetricsDump and health stats share with them: the
// Oem breaker states and the dump's "EventDelivery" section, whose totals
// add across shards. RequestLatency and TenantQoS read the metrics registry;
// TenantQoS takes the per-tenant histograms "http.tenant.<id>.latency.ns".
json::Json ResponseCacheReport(const redfish::ResponseCacheStats& stats);
json::Json ResilienceReport(const ResilienceSnapshot& snapshot);
json::Json RequestLatencyReport();
json::Json EventDeliveryReport(const DeliverySnapshot& snapshot);
json::Json TenantQosReport(const std::vector<qos::TenantStats>& tenants);
json::Json BreakerStates(const ResilienceSnapshot& snapshot);
json::Json DeliverySection(const DeliverySnapshot& snapshot);

}  // namespace ofmf::core
