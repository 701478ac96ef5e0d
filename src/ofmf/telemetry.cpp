#include "ofmf/telemetry.hpp"

#include <tuple>
#include <utility>

#include "common/metrics.hpp"
#include "ofmf/uris.hpp"
#include "redfish/metric_report.hpp"

namespace ofmf::core {

using redfish::Metric;

TelemetryService::TelemetryService(redfish::ResourceTree& tree, EventService& events,
                                   SimClock& clock)
    : tree_(tree), events_(events), clock_(clock) {}

Status TelemetryService::Bootstrap() {
  OFMF_RETURN_IF_ERROR(tree_.Create(
      kTelemetryService, "#TelemetryService.v1_3_1.TelemetryService",
      json::Json::Obj(
          {{"Id", "TelemetryService"},
           {"Name", "Telemetry Service"},
           {"ServiceEnabled", true},
           {"MetricReports", json::Json::Obj({{"@odata.id", kMetricReports}})}})));
  return tree_.CreateCollection(
      kMetricReports, "#MetricReportCollection.MetricReportCollection", "Metric Reports");
}

std::string TelemetryService::ReportUri(const std::string& report_id) {
  return std::string(kMetricReports) + "/" + report_id;
}

Status TelemetryService::PushReport(const std::string& report_id,
                                    const std::vector<MetricValue>& values) {
  if (report_id.empty()) return Status::InvalidArgument("report id must be non-empty");
  json::Array metric_values;
  for (const MetricValue& value : values) {
    json::Json entry =
        json::Json::Obj({{"MetricId", value.metric_id}, {"MetricValue", value.value}});
    if (!value.property.empty()) entry.as_object().Set("MetricProperty", value.property);
    metric_values.push_back(std::move(entry));
  }
  OFMF_RETURN_IF_ERROR(Write(
      redfish::MetricReport(report_id, "Metric report " + report_id, std::move(metric_values))));
  const std::string uri = ReportUri(report_id);
  Event event;
  event.event_type = "MetricReport";
  event.message_id = "TelemetryService.1.0.MetricReportUpdated";
  event.message = "metric report " + report_id + " updated";
  event.origin = uri;
  events_.Publish(event);
  return Status::Ok();
}

Status TelemetryService::Publish(json::Json report) {
  const std::string id = report.GetString("Id");
  if (id.empty() || !report.at("MetricValues").is_array()) {
    return Status::InvalidArgument("a report needs an Id and MetricValues");
  }
  std::lock_guard<std::mutex> lock(mu_);
  const auto last = published_.find(id);
  if (last != published_.end() && last->second == report) return Status::Ok();
  OFMF_RETURN_IF_ERROR(Write(report));
  published_[id] = std::move(report);
  return Status::Ok();
}

Status TelemetryService::Write(json::Json report) {
  const std::string timestamp = FormatSimTimestamp(clock_.now());
  for (json::Json& value : report.as_object().Find("MetricValues")->as_array()) {
    value.as_object().Set("Timestamp", timestamp);
  }
  const std::string uri = ReportUri(report.GetString("Id"));
  if (tree_.Exists(uri)) return tree_.Replace(uri, std::move(report));
  OFMF_RETURN_IF_ERROR(
      tree_.Create(uri, "#MetricReport.v1_4_2.MetricReport", std::move(report)));
  return tree_.AddMember(kMetricReports, uri);
}

void TelemetryService::SetTenantQosSource(
    std::function<std::vector<qos::TenantStats>()> source) {
  std::lock_guard<std::mutex> lock(mu_);
  tenant_qos_source_ = std::move(source);
}

std::vector<qos::TenantStats> TelemetryService::TenantQos() const {
  std::unique_lock<std::mutex> lock(mu_);
  const std::function<std::vector<qos::TenantStats>()> source = tenant_qos_source_;
  lock.unlock();  // the source takes the scheduler's locks
  return source ? source() : std::vector<qos::TenantStats>{};
}

Result<json::Json> TelemetryService::GetReport(const std::string& report_id) const {
  return tree_.Get(ReportUri(report_id));
}

std::vector<std::string> TelemetryService::ReportIds() const {
  std::vector<std::string> ids;
  for (const std::string& uri : tree_.UrisUnder(kMetricReports)) {
    if (uri == kMetricReports) continue;
    ids.push_back(uri.substr(std::string(kMetricReports).size() + 1));
  }
  return ids;
}

json::Json ResponseCacheReport(const redfish::ResponseCacheStats& stats) {
  json::Array values;
  redfish::AppendCacheMetrics(stats, "/redfish/v1 read path", values);
  return redfish::MetricReport("ResponseCache", "Read-path serialized-response cache counters",
                               std::move(values));
}

json::Json BreakerStates(const ResilienceSnapshot& snapshot) {
  json::Array breakers;
  for (const ResilienceSnapshot::FabricBreaker& breaker : snapshot.breakers) {
    breakers.push_back(json::Json::Obj({{"FabricId", breaker.fabric_id},
                                        {"State", to_string(breaker.state)},
                                        {"Degraded", breaker.degraded}}));
  }
  return json::Json(std::move(breakers));
}

json::Json ResilienceReport(const ResilienceSnapshot& snapshot) {
  json::Array values;
  values.push_back(Metric("ReplayedPosts", snapshot.replayed_posts, "idempotency replay cache"));
  for (const ResilienceSnapshot::FabricBreaker& breaker : snapshot.breakers) {
    const BreakerStats& stats = breaker.stats;
    const std::pair<const char*, std::uint64_t> series[] = {
        {"BreakerSuccesses.", stats.successes}, {"BreakerFailures.", stats.failures},
        {"BreakerRejected.", stats.rejected},   {"BreakerOpens.", stats.opens},
        {"BreakerCloses.", stats.closes}};
    for (const auto& [prefix, value] : series) {
      values.push_back(Metric(prefix + breaker.fabric_id, value, FabricUri(breaker.fabric_id)));
    }
  }
  return redfish::MetricReport("Resilience", "Circuit breaker and retry counters",
                               std::move(values),
                               json::Json::Obj({{"Breakers", BreakerStates(snapshot)}}));
}

json::Json RequestLatencyReport() {
  metrics::Registry& registry = metrics::Registry::instance();
  json::Array values;
  for (const metrics::Registry::NamedHistogram& entry : registry.HistogramSnapshots()) {
    redfish::AppendHistogramMetrics(entry.name, entry.snap, values);
  }
  for (const auto& [name, value] : registry.CounterValues()) {
    values.push_back(Metric(name, value, "count"));
  }
  return redfish::MetricReport("RequestLatency", "Request latency and stage-timing histograms",
                               std::move(values));
}

json::Json DeliverySection(const DeliverySnapshot& snapshot) {
  return json::Json::Obj({{"Delivered", snapshot.delivered},
                          {"Batches", snapshot.batches},
                          {"Coalesced", snapshot.coalesced},
                          {"Dropped", snapshot.dropped},
                          {"Retries", snapshot.retries},
                          {"Failures", snapshot.failures},
                          {"QueuedEvents", snapshot.total_queued},
                          {"BreakersOpen", snapshot.breakers_open},
                          {"Streams", snapshot.streams}});
}

json::Json EventDeliveryReport(const DeliverySnapshot& snapshot) {
  const char* engine = "event delivery engine";
  json::Array values;
  redfish::AppendDeliveryTotals(DeliverySection(snapshot), engine, values);
  values.push_back(Metric("MaxQueueDepth", snapshot.max_queue_depth, engine));
  values.push_back(Metric("MaxCursorLag", snapshot.max_cursor_lag, engine));
  json::Array subscribers;
  for (const SubscriberSnapshot& sub : snapshot.subscribers) {
    // Oem field, MetricValues series (nullptr: Oem only), value.
    const std::tuple<const char*, const char*, std::uint64_t> fields[] = {
        {"QueueDepth", "QueueDepth.", sub.queue_depth},
        {"Enqueued", "Queued.", sub.enqueued},
        {"Delivered", "Delivered.", sub.delivered},
        {"Batches", nullptr, sub.batches},
        {"Coalesced", nullptr, sub.coalesced},
        {"Dropped", "Dropped.", sub.dropped},
        {"Retries", "Retries.", sub.retries},
        {"Failures", nullptr, sub.failures},
        {"AckedSequence", nullptr, sub.acked_sequence},
        {"CursorLag", "CursorLag.", sub.cursor_lag},
        {"BreakerOpens", nullptr, sub.breaker_stats.opens},
        {"BreakerCloses", nullptr, sub.breaker_stats.closes},
        {"BreakerRejected", nullptr, sub.breaker_stats.rejected}};
    json::Json entry = json::Json::Obj({{"Subscription", sub.uri},
                                        {"Destination", sub.destination},
                                        {"Stream", sub.stream},
                                        {"BreakerState", to_string(sub.breaker_state)}});
    for (const auto& [field, series, value] : fields) {
      entry.as_object().Set(field, value);
      if (series != nullptr) values.push_back(Metric(series + sub.uri, value, sub.uri));
    }
    const bool open = sub.breaker_state != BreakerState::kClosed;
    values.push_back(Metric("BreakerOpen." + sub.uri, open ? 1.0 : 0.0, sub.uri));
    subscribers.push_back(std::move(entry));
  }
  return redfish::MetricReport(
      "EventDelivery", "Event fan-out delivery state", std::move(values),
      json::Json::Obj({{"LastSequence", snapshot.last_sequence},
                       {"Subscribers", json::Json(std::move(subscribers))}}));
}

json::Json TenantQosReport(const std::vector<qos::TenantStats>& tenants) {
  json::Array values;
  json::Array tenant_objs;
  for (const qos::TenantStats& tenant : tenants) {
    const std::pair<const char*, std::uint64_t> counters[] = {
        {"QueueDepth", tenant.queued},     {"Admitted", tenant.admitted},
        {"Dispatched", tenant.dispatched}, {"RateLimited", tenant.rate_limited},
        {"QueueRejected", tenant.queue_rejected}};
    json::Json entry = json::Json::Obj({{"Tenant", tenant.id}, {"Weight", tenant.weight}});
    for (const auto& [name, value] : counters) {
      entry.as_object().Set(name, value);
      values.push_back(Metric(name + ("." + tenant.id), value, tenant.id));
    }
    tenant_objs.push_back(std::move(entry));
  }
  // Per-tenant latency lives in the shared registry under a fixed prefix so
  // the reactor never needs a back-pointer into telemetry.
  for (const metrics::Registry::NamedHistogram& entry :
       metrics::Registry::instance().HistogramSnapshots()) {
    if (entry.name.rfind("http.tenant.", 0) == 0) {
      redfish::AppendHistogramMetrics(entry.name, entry.snap, values);
    }
  }
  return redfish::MetricReport(
      "TenantQoS", "Per-tenant fair-scheduling and admission state", std::move(values),
      json::Json::Obj({{"Tenants", json::Json(std::move(tenant_objs))}}));
}

}  // namespace ofmf::core
