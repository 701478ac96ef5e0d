#include "redfish/metric_report.hpp"

#include <utility>

namespace ofmf::redfish {

json::Json Metric(const std::string& id, double value, const std::string& property) {
  return json::Json::Obj(
      {{"MetricId", id}, {"MetricValue", value}, {"MetricProperty", property}});
}

json::Json MetricReport(const std::string& id, const std::string& name, json::Array values,
                        json::Json oem) {
  json::Json report = json::Json::Obj({{"Id", id},
                                       {"Name", name},
                                       {"ReportSequence", 0},
                                       {"MetricValues", json::Json(std::move(values))}});
  if (oem.is_object()) {
    report.as_object().Set("Oem", json::Json::Obj({{"Ofmf", std::move(oem)}}));
  }
  return report;
}

void AppendHistogramMetrics(const std::string& name,
                            const metrics::Histogram::Snapshot& snap, json::Array& values) {
  const bool is_ns = (name.size() >= 3 && name.compare(name.size() - 3, 3, ".ns") == 0) ||
                     name.rfind("http.latency.", 0) == 0;
  const double scale = is_ns ? 1e-6 : 1.0;
  const std::string property = is_ns ? "milliseconds" : "units";
  values.push_back(Metric(name + ".count", snap.count, "samples"));
  values.push_back(Metric(name + ".p50", snap.Percentile(0.50) * scale, property));
  values.push_back(Metric(name + ".p95", snap.Percentile(0.95) * scale, property));
  values.push_back(Metric(name + ".p99", snap.Percentile(0.99) * scale, property));
  values.push_back(Metric(name + ".mean", snap.mean() * scale, property));
}

json::Json HistogramDumpEntry(const std::string& name,
                              const metrics::Histogram::Snapshot& snap) {
  // Pre-sized assignment, not push_back: GCC 12's -Wmaybe-uninitialized
  // false-positives on vector relocation of the Json variant at -O2.
  json::Array buckets(snap.buckets.size());
  for (std::size_t i = 0; i < snap.buckets.size(); ++i) buckets[i] = snap.buckets[i];
  return json::Json::Obj({{"Name", name},
                          {"Count", snap.count},
                          {"Sum", snap.sum},
                          {"Mean", snap.mean()},
                          {"P50", snap.Percentile(0.50)},
                          {"P95", snap.Percentile(0.95)},
                          {"P99", snap.Percentile(0.99)},
                          {"Buckets", json::Json(std::move(buckets))}});
}

json::Json CounterDumpEntry(const std::string& name, std::uint64_t value) {
  return json::Json::Obj({{"Name", name}, {"Value", value}});
}

json::Json CacheSection(const ResponseCacheStats& stats) {
  return json::Json::Obj({{"Hits", stats.hits},
                          {"Misses", stats.misses},
                          {"Evictions", stats.evictions},
                          {"Invalidations", stats.invalidations},
                          {"HitRate", stats.hit_rate()}});
}

void AppendCacheMetrics(const ResponseCacheStats& stats, const std::string& property,
                        json::Array& values) {
  values.push_back(Metric("CacheHits", static_cast<double>(stats.hits), property));
  values.push_back(Metric("CacheMisses", static_cast<double>(stats.misses), property));
  values.push_back(Metric("CacheEvictions", static_cast<double>(stats.evictions), property));
  values.push_back(
      Metric("CacheInvalidations", static_cast<double>(stats.invalidations), property));
  values.push_back(Metric("CacheHitRate", stats.hit_rate(), property));
}

void AppendDeliveryTotals(const json::Json& section, const std::string& property,
                          json::Array& values) {
  static constexpr std::pair<const char*, const char*> kTotals[] = {
      {"EventsDelivered", "Delivered"},   {"DeliveryBatches", "Batches"},
      {"EventsCoalesced", "Coalesced"},   {"EventsDropped", "Dropped"},
      {"DeliveryRetries", "Retries"},     {"DeliveryFailures", "Failures"},
      {"QueuedEvents", "QueuedEvents"},   {"BreakersOpen", "BreakersOpen"},
      {"StreamSubscribers", "Streams"}};
  for (const auto& [metric_id, field] : kTotals) {
    values.push_back(Metric(metric_id, section.GetDouble(field), property));
  }
}

}  // namespace ofmf::redfish
