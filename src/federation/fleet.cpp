#include "federation/fleet.hpp"

#include <algorithm>

#include "odata/annotations.hpp"
#include "ofmf/uris.hpp"
#include "redfish/metric_report.hpp"

namespace ofmf::federation {
namespace {

using redfish::Metric;

/// A wire integer as a count. A negative value is a shard's bug, not a
/// count: cast to uint64 it would add ~2^64 to a fleet total, so it adds 0.
std::uint64_t WireCount(const json::Json& value) {
  return value.is_int() && value.as_int() > 0 ? static_cast<std::uint64_t>(value.as_int())
                                              : 0;
}

/// A rendered report with the @odata.id/@odata.type a tree would stamp.
json::Json Served(const std::string& id, const std::string& name, json::Array values,
                  json::Json oem = json::Json()) {
  json::Json report = redfish::MetricReport(id, name, std::move(values), std::move(oem));
  odata::Stamp(report, std::string(core::kMetricReports) + "/" + id,
               "#MetricReport.v1_4_2.MetricReport", "");
  return report;
}

redfish::ResponseCacheStats CacheStats(const FleetMetrics& fleet) {
  const json::Json cache = fleet.Section("ResponseCache");
  return {WireCount(cache.at("Hits")), WireCount(cache.at("Misses")),
          WireCount(cache.at("Evictions")), WireCount(cache.at("Invalidations"))};
}

json::Json FleetRequestLatencyReport(const FleetMetrics& fleet) {
  json::Array values;
  for (const auto& [name, snap] : fleet.histograms()) {
    redfish::AppendHistogramMetrics(name, snap, values);
  }
  for (const auto& [name, value] : fleet.counters()) values.push_back(Metric(name, value, "count"));
  return Served("RequestLatency", "Fleet request latency and stage-timing histograms",
                std::move(values));
}

json::Json FleetResponseCacheReport(const FleetMetrics& fleet) {
  json::Array values;
  redfish::AppendCacheMetrics(CacheStats(fleet), "fleet read path", values);
  return Served("ResponseCache", "Fleet read-path response cache counters", std::move(values));
}

json::Json FleetResilienceReport(const FleetMetrics& fleet) {
  const json::Json totals = fleet.Section("Resilience");
  json::Array values;
  values.push_back(
      Metric("ReplayedPosts", totals.GetInt("ReplayedPosts"), "idempotency replay cache"));
  values.push_back(Metric("BreakersOpen", totals.GetInt("BreakersOpen"), "fleet breakers"));
  values.push_back(Metric("BreakersTotal", totals.GetInt("BreakersTotal"), "fleet breakers"));
  json::Array shards;
  for (const auto& [shard_id, resilience] : fleet.shard_resilience()) {
    json::Json entry = resilience;  // Breakers, BreakersOpen/Total, ReplayedPosts
    entry.as_object().Erase("CacheHitRate");
    entry.as_object().Set("ShardId", shard_id);
    shards.push_back(std::move(entry));
  }
  return Served("Resilience", "Fleet circuit breaker and retry counters", std::move(values),
                json::Json::Obj({{"Shards", json::Json(std::move(shards))}}));
}

json::Json FleetEventDeliveryReport(const FleetMetrics& fleet) {
  json::Array values;
  redfish::AppendDeliveryTotals(fleet.Section("EventDelivery"), "fleet event delivery", values);
  return Served("EventDelivery", "Fleet event fan-out delivery state", std::move(values));
}

constexpr std::pair<const char*, FleetReportBuilder> kGatheredReports[] = {
    {"RequestLatency", FleetRequestLatencyReport},
    {"ResponseCache", FleetResponseCacheReport},
    {"Resilience", FleetResilienceReport},
    {"EventDelivery", FleetEventDeliveryReport}};

}  // namespace

void FleetMetrics::Absorb(const std::string& shard_id, const json::Json& dump) {
  if (!dump.is_object()) return;
  shards_.push_back(shard_id);
  const json::Json& histograms = dump.at("Histograms");
  if (histograms.is_array()) {
    for (const json::Json& entry : histograms.as_array()) {
      const std::string name = entry.GetString("Name");
      const json::Json& buckets = entry.at("Buckets");
      if (name.empty() || !buckets.is_array()) continue;
      // The count is derived from the buckets, never trusted from the wire,
      // so a merge of already-merged dumps stays self-consistent.
      metrics::Histogram::Snapshot snap;
      const std::size_t n =
          std::min<std::size_t>(buckets.as_array().size(), metrics::Histogram::kBuckets);
      for (std::size_t i = 0; i < n; ++i) snap.buckets[i] = WireCount(buckets.as_array()[i]);
      snap.sum = WireCount(entry.at("Sum"));
      snap.count = snap.DerivedCount();
      histograms_[name].Merge(snap);
    }
  }
  const json::Json& counters = dump.at("Counters");
  if (counters.is_array()) {
    for (const json::Json& entry : counters.as_array()) {
      const std::string name = entry.GetString("Name");
      if (name.empty()) continue;
      counters_[name] += WireCount(entry.at("Value"));
    }
  }
  // Every object section's integer fields add; rates and arrays do not.
  for (const auto& [name, section] : dump.as_object()) {
    if (!section.is_object()) continue;
    json::Json& sums = sections_.try_emplace(name, json::Json::MakeObject()).first->second;
    for (const auto& [field, value] : section.as_object()) {
      if (value.is_int()) sums.as_object().Set(field, WireCount(sums.at(field)) + WireCount(value));
    }
  }
  const json::Json& resilience = dump.at("Resilience");
  if (resilience.is_object()) resilience_.emplace_back(shard_id, resilience);
}

json::Json FleetMetrics::Section(const std::string& name) const {
  const auto it = sections_.find(name);
  return it == sections_.end() ? json::Json::MakeObject() : it->second;
}

json::Json FleetMetrics::ToJson() const {
  json::Array histograms;
  for (const auto& [name, snap] : histograms_) {
    histograms.push_back(redfish::HistogramDumpEntry(name, snap));
  }
  json::Array counters;
  for (const auto& [name, value] : counters_) {
    counters.push_back(redfish::CounterDumpEntry(name, value));
  }
  json::Array shard_list;
  for (const std::string& shard : shards_) shard_list.push_back(json::Json(shard));
  json::Json dump = json::Json::Obj({{"Shards", json::Json(std::move(shard_list))},
                                     {"Histograms", json::Json(std::move(histograms))},
                                     {"Counters", json::Json(std::move(counters))}});
  for (const auto& [name, sums] : sections_) dump.as_object().Set(name, sums);
  // The fleet hit rate comes from the summed hits and misses.
  dump.as_object().Set("ResponseCache", redfish::CacheSection(CacheStats(*this)));
  return dump;
}

FleetReportBuilder GatheredFleetReport(const std::string& name) {
  for (const auto& [report, build] : kGatheredReports) {
    if (name == report) return build;
  }
  return nullptr;
}

json::Json FleetHealthReport(const RoutingTable& table, const FleetHealthInputs& inputs) {
  const char* directory = "federation directory";
  const char* router = "router scatter-gather";
  json::Array values;
  values.push_back(Metric("ShardsRegistered", table.shards.size(), directory));
  values.push_back(Metric("ShardsAlive", table.AliveCount(), directory));
  values.push_back(Metric("TableEpoch", table.epoch, directory));
  values.push_back(Metric("DegradedResponses", inputs.degraded_responses, router));
  values.push_back(Metric("MembersOmittedCount", inputs.members_omitted, router));
  json::Array shards;
  for (const ShardInfo& shard : table.shards) {
    values.push_back(Metric("ShardAlive." + shard.id, shard.alive ? 1.0 : 0.0, shard.id));
    if (shard.heartbeat_age_ms >= 0) {
      values.push_back(Metric("HeartbeatAgeMs." + shard.id, shard.heartbeat_age_ms, shard.id));
    }
    json::Json entry = json::Json::Obj({{"ShardId", shard.id},
                                        {"Alive", shard.alive},
                                        {"Port", shard.port},
                                        {"HeartbeatAgeMs", shard.heartbeat_age_ms}});
    if (shard.stats.is_object()) {
      entry.as_object().Set("Stats", shard.stats);
      values.push_back(
          Metric("BreakersOpen." + shard.id, shard.stats.GetInt("BreakersOpen", 0), shard.id));
    }
    shards.push_back(std::move(entry));
  }
  json::Json oem =
      json::Json::Obj({{"Epoch", table.epoch}, {"Shards", json::Json(std::move(shards))}});
  return Served("FleetHealth", "Per-shard liveness and self-reported health", std::move(values),
                std::move(oem));
}

json::Json FleetTelemetryServiceDoc() {
  return json::Json::Obj(
      {{"@odata.id", core::kTelemetryService},
       {"@odata.type", "#TelemetryService.v1_3_1.TelemetryService"},
       {"Id", "TelemetryService"},
       {"Name", "Fleet Telemetry Service"},
       {"ServiceEnabled", true},
       {"Oem", json::Json::Obj({{"Ofmf", json::Json::Obj({{"Fleet", true}})}})},
       {"MetricReports", json::Json::Obj({{"@odata.id", core::kMetricReports}})}});
}

json::Json FleetMetricReportsDoc() {
  const std::string prefix = std::string(core::kMetricReports) + "/";
  json::Array members;
  for (const auto& [name, build] : kGatheredReports) members.push_back(odata::Ref(prefix + name));
  members.push_back(odata::Ref(prefix + "FleetHealth"));
  return json::Json::Obj(
      {{"@odata.id", core::kMetricReports},
       {"@odata.type", "#MetricReportCollection.MetricReportCollection"},
       {"Name", "Fleet Metric Reports"},
       {"Members@odata.count", static_cast<std::int64_t>(members.size())},
       {"Members", json::Json(std::move(members))}});
}

}  // namespace ofmf::federation
