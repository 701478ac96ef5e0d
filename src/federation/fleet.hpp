// Fleet telemetry aggregation for the federation router. The router
// scatter-gathers every shard's MetricsDump and FleetMetrics merges them:
// histograms add bucket-wise (percentiles are recomputed from the merged
// buckets — they do not compose), counters and the integer fields of every
// dump section add. The builders below render the router-served MetricReports
// (the router has no ResourceTree) with the renderers the shards use.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.hpp"
#include "federation/routing.hpp"
#include "json/value.hpp"

namespace ofmf::federation {

/// Accumulator over per-shard MetricsDump documents.
class FleetMetrics {
 public:
  /// Folds one shard's MetricsDump in. Histogram entries without Buckets are
  /// skipped (their percentiles cannot be merged honestly), and a negative
  /// wire integer counts as 0 rather than wrapping a fleet total.
  void Absorb(const std::string& shard_id, const json::Json& dump);

  const std::map<std::string, metrics::Histogram::Snapshot>& histograms() const {
    return histograms_;
  }
  const std::map<std::string, std::uint64_t>& counters() const { return counters_; }
  /// Summed integer fields of dump section `name` ("ResponseCache", "Trace",
  /// "EventDelivery", "Resilience", ...); rates are recomputed, not summed.
  json::Json Section(const std::string& name) const;
  /// Per-shard Resilience sections, verbatim, for per-shard breaker detail.
  const std::vector<std::pair<std::string, json::Json>>& shard_resilience() const {
    return resilience_;
  }

  /// Merged dump in the shape of a shard MetricsDump, with "Shards" naming
  /// the contributing shards instead of "ShardId".
  json::Json ToJson() const;

 private:
  std::vector<std::string> shards_;
  std::map<std::string, metrics::Histogram::Snapshot> histograms_;
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, json::Json> sections_;  // name -> {field: sum}
  std::vector<std::pair<std::string, json::Json>> resilience_;
};

/// Router-side inputs to the FleetHealth report that no shard can see.
struct FleetHealthInputs {
  std::uint64_t degraded_responses = 0;  // scatter-gathers that omitted shards
  std::uint64_t members_omitted = 0;     // members those responses lost
};

/// Renders a router-served #MetricReport (with @odata.id/@odata.type) from
/// the gathered dumps. GatheredFleetReport returns the builder of
/// RequestLatency, ResponseCache, Resilience or EventDelivery, else nullptr.
using FleetReportBuilder = json::Json (*)(const FleetMetrics& fleet);
FleetReportBuilder GatheredFleetReport(const std::string& name);
/// Per-shard liveness, heartbeat age and self-reported breakers from the
/// routing table, plus the router's own degradation counters.
json::Json FleetHealthReport(const RoutingTable& table, const FleetHealthInputs& inputs);

/// The TelemetryService + MetricReports collection documents the router
/// serves at /redfish/v1/TelemetryService[/MetricReports].
json::Json FleetTelemetryServiceDoc();
json::Json FleetMetricReportsDoc();

}  // namespace ofmf::federation
