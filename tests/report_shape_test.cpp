// Pins the shape of every MetricReport and MetricsDump the system serves:
// the five shard-side reports (ResponseCache, Resilience, RequestLatency,
// EventDelivery, TenantQoS), the five router-side reports (the four gathered
// from shard dumps plus FleetHealth), and the shard and fleet MetricsDump.
// A shape is the set of (MetricId, MetricProperty) pairs, the Oem.Ofmf keys
// (and the keys of the objects in its arrays), and the section and field
// names of a dump. Names that depend on the deployment (histogram and
// counter names, fabric, subscription, tenant and shard ids) are replaced by
// placeholders so the shape does not depend on what else ran in the process.
//
// kGolden is the shape before the reports were generated from one renderer;
// kDocumentedChanges lists the only differences allowed since (the "Report
// shape changes" table in DESIGN.md, Observability). The measured shape must
// equal kGolden, or kGolden with every documented change applied.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.hpp"
#include "federation/directory.hpp"
#include "federation/directory_client.hpp"
#include "federation/router.hpp"
#include "http/server.hpp"
#include "json/parse.hpp"
#include "ofmf/agent.hpp"
#include "ofmf/service.hpp"
#include "ofmf/uris.hpp"

namespace ofmf {
namespace {

using json::Json;
using Shape = std::map<std::string, std::set<std::string>>;
/// (deployment-specific name, placeholder) pairs.
using Subs = std::vector<std::pair<std::string, std::string>>;

constexpr const char* kFabric = "shapefab";
constexpr const char* kTenant = "shapetenant";

/// Owns one fabric so the service keeps a breaker for it; touches nothing.
class StubAgent : public core::FabricAgent {
 public:
  std::string agent_id() const override { return "shape-agent"; }
  std::string fabric_id() const override { return kFabric; }
  std::string fabric_type() const override { return "InfiniBand"; }
  Status PublishInventory(core::OfmfService& ofmf) override {
    return ofmf.CreateFabricSkeleton(kFabric, "InfiniBand", agent_id());
  }
  Result<std::string> CreateZone(core::OfmfService&, const Json&) override {
    return Status::Unimplemented("stub");
  }
  Result<std::string> CreateConnection(core::OfmfService&, const Json&) override {
    return Status::Unimplemented("stub");
  }
  Status DeleteResource(core::OfmfService&, const std::string&) override {
    return Status::Unimplemented("stub");
  }
};

/// One shard with a breaker, one wire subscriber and one QoS tenant, so
/// every per-entity section of every report is populated.
struct Shard {
  explicit Shard(std::string shard_id) : id(std::move(shard_id)) {
    EXPECT_TRUE(service.Bootstrap().ok());
    service.set_shard_identity(id);
    EXPECT_TRUE(service.RegisterAgent(std::make_shared<StubAgent>()).ok());
    service.events().set_client_factory([](const std::string&) {
      return std::make_unique<http::InProcessClient>(
          [](const http::Request&) { return http::MakeEmptyResponse(204); });
    });
    auto subscribed = service.events().Subscribe(
        Json::Obj({{"Destination", "http://sink/events"}, {"Protocol", "Redfish"}}));
    EXPECT_TRUE(subscribed.ok());
    subscription = subscribed.ok() ? subscribed.value() : "";
    service.telemetry().SetTenantQosSource([] {
      qos::TenantStats tenant;
      tenant.id = kTenant;
      tenant.weight = 2;
      tenant.admitted = 3;
      tenant.dispatched = 3;
      return std::vector<qos::TenantStats>{tenant};
    });
  }

  std::string id;
  std::string subscription;
  core::OfmfService service;
  http::TcpServer server;
};

std::string Replace(std::string text, const Subs& subs) {
  for (const auto& [from, to] : subs) {
    if (from.empty()) continue;
    for (std::size_t at = text.find(from); at != std::string::npos;
         at = text.find(from, at + to.size())) {
      text.replace(at, from.size(), to);
    }
  }
  return text;
}

/// Shape of one MetricReport document under `name`.
void AddReportShape(const std::string& name, const Json& report, const Subs& subs,
                    Shape& shape) {
  static const char* kSuffixes[] = {".count", ".p50", ".p95", ".p99", ".mean"};
  ASSERT_TRUE(report.at("MetricValues").is_array()) << name;
  const auto& values = report.at("MetricValues").as_array();
  // A histogram is any base X that reports X.count; its five series collapse
  // to "<hist>.<suffix>". What is left with property "count" is a counter.
  std::set<std::string> histograms;
  for (const Json& value : values) {
    const std::string id = value.GetString("MetricId");
    if (id.size() > 6 && id.compare(id.size() - 6, 6, ".count") == 0) {
      histograms.insert(id.substr(0, id.size() - 6));
    }
  }
  auto& metrics = shape[name + ".MetricValues"];
  for (const Json& value : values) {
    std::string id = value.GetString("MetricId");
    const std::string property = Replace(value.GetString("MetricProperty"), subs);
    bool collapsed = false;
    for (const char* suffix : kSuffixes) {
      const std::string s(suffix);
      if (id.size() > s.size() && id.compare(id.size() - s.size(), s.size(), s) == 0 &&
          histograms.count(id.substr(0, id.size() - s.size())) != 0) {
        id = "<hist>" + s;
        collapsed = true;
        break;
      }
    }
    if (!collapsed && property == "count") id = "<counter>";
    metrics.insert(Replace(id, subs) + " | " + property);
    EXPECT_TRUE(value.at("MetricValue").is_number()) << name << " " << id;
  }
  const Json& oem = report.at("Oem").at("Ofmf");
  if (!oem.is_object()) return;
  auto& keys = shape[name + ".Oem.Ofmf"];
  for (const json::Member& member : oem.as_object()) {
    keys.insert(member.first);
    if (!member.second.is_array()) continue;
    auto& element_keys = shape[name + ".Oem.Ofmf." + member.first + "[]"];
    for (const Json& element : member.second.as_array()) {
      if (!element.is_object()) continue;
      for (const json::Member& field : element.as_object()) element_keys.insert(field.first);
    }
  }
}

/// Section and field names of a MetricsDump document under `name`.
void AddDumpShape(const std::string& name, const Json& dump, Shape& shape) {
  ASSERT_TRUE(dump.is_object()) << name;
  auto& top = shape[name];
  for (const json::Member& section : dump.as_object()) {
    top.insert(section.first);
    if (section.second.is_object()) {
      auto& fields = shape[name + "." + section.first];
      for (const json::Member& field : section.second.as_object()) fields.insert(field.first);
    } else if (section.second.is_array() && !section.second.as_array().empty() &&
               section.second.as_array()[0].is_object()) {
      auto& fields = shape[name + "." + section.first + "[]"];
      for (const Json& element : section.second.as_array()) {
        for (const json::Member& field : element.as_object()) fields.insert(field.first);
      }
    }
  }
}

Json Parsed(const http::Response& response, const std::string& what) {
  EXPECT_EQ(response.status, 200) << what << ": " << response.body.view();
  auto doc = json::Parse(response.body.view());
  EXPECT_TRUE(doc.ok()) << what;
  return doc.ok() ? std::move(doc.value()) : Json();
}

const std::string kDump = std::string(core::kServiceRoot) + "/Actions/OfmfService.MetricsDump";

std::string ReportPath(const std::string& name) {
  return std::string(core::kMetricReports) + "/" + name;
}

/// Every report and dump, measured on a live deployment:
/// two shards behind a router.
Shape MeasureShapes() {
  metrics::Registry& registry = metrics::Registry::instance();
  registry.set_enabled(true);
  registry.histogram("shape.latency.ns").Record(1500);
  registry.histogram("shape.size.bytes").Record(4096);
  registry.histogram(std::string("http.tenant.") + kTenant + ".latency.ns").Record(2500);
  registry.counter("shape.events").Increment();

  federation::DirectoryService directory;
  std::vector<std::unique_ptr<Shard>> shards;
  for (const char* id : {"shardA", "shardB"}) {
    shards.push_back(std::make_unique<Shard>(id));
    Shard& shard = *shards.back();
    EXPECT_TRUE(shard.server.Start(shard.service.Handler(), 0).ok());
    directory.Register(shard.id, shard.server.port());
    EXPECT_TRUE(directory.Heartbeat(shard.id, shard.service.HealthStats()).ok());
  }
  federation::FederationRouter router(std::make_shared<federation::DirectoryClient>(
      std::make_unique<http::InProcessClient>(directory.Handler()), /*max_age_ms=*/0));

  Shape shape;
  Shard& shard = *shards.front();
  const Subs shard_subs = {
      {shard.subscription, "<sub>"}, {kFabric, "<fabric>"}, {kTenant, "<tenant>"}};
  for (const char* name :
       {"ResponseCache", "Resilience", "RequestLatency", "EventDelivery", "TenantQoS"}) {
    const Json report = Parsed(
        shard.service.Handle(http::MakeRequest(http::Method::kGet, ReportPath(name))), name);
    AddReportShape(std::string("shard.") + name, report, shard_subs, shape);
  }
  AddDumpShape("shard.MetricsDump",
               Parsed(shard.service.Handle(http::MakeRequest(http::Method::kPost, kDump)),
                      "shard dump"),
               shape);

  const Subs fleet_subs = {
      {"shardA", "<shard>"}, {"shardB", "<shard>"}, {kFabric, "<fabric>"}};
  for (const char* name :
       {"RequestLatency", "ResponseCache", "Resilience", "EventDelivery", "FleetHealth"}) {
    const Json report =
        Parsed(router.Route(http::MakeRequest(http::Method::kGet, ReportPath(name))), name);
    AddReportShape(std::string("fleet.") + name, report, fleet_subs, shape);
  }
  AddDumpShape("fleet.MetricsDump",
               Parsed(router.Route(http::MakeRequest(http::Method::kPost, kDump)),
                      "fleet dump"),
               shape);
  for (auto& s : shards) s->server.Stop();
  return shape;
}

// The shapes before the shared renderers. Regenerate only together with a
// new row in kDocumentedChanges and in the DESIGN.md table.
const Shape kGolden = {
    {"fleet.EventDelivery.MetricValues",
     {"BreakersOpen | fleet event delivery", "DeliveryBatches | fleet event delivery",
      "DeliveryFailures | fleet event delivery", "DeliveryRetries | fleet event delivery",
      "EventsCoalesced | fleet event delivery", "EventsDelivered | fleet event delivery",
      "EventsDropped | fleet event delivery", "QueuedEvents | fleet event delivery",
      "StreamSubscribers | fleet event delivery"}},
    {"fleet.FleetHealth.MetricValues",
     {"BreakersOpen.<shard> | <shard>", "DegradedResponses | router scatter-gather",
      "HeartbeatAgeMs.<shard> | <shard>", "MembersOmittedCount | router scatter-gather",
      "ShardAlive.<shard> | <shard>", "ShardsAlive | federation directory",
      "ShardsRegistered | federation directory", "TableEpoch | federation directory"}},
    {"fleet.FleetHealth.Oem.Ofmf",
     {"Epoch", "Shards"}},
    {"fleet.FleetHealth.Oem.Ofmf.Shards[]",
     {"Alive", "HeartbeatAgeMs", "Port", "ShardId", "Stats"}},
    {"fleet.MetricsDump",
     {"Counters", "Histograms", "ResponseCache", "Shards", "Trace"}},
    {"fleet.MetricsDump.Counters[]",
     {"Name", "Value"}},
    {"fleet.MetricsDump.Histograms[]",
     {"Buckets", "Count", "Mean", "Name", "P50", "P95", "P99", "Sum"}},
    {"fleet.MetricsDump.ResponseCache",
     {"Evictions", "HitRate", "Hits", "Invalidations", "Misses"}},
    {"fleet.MetricsDump.Trace",
     {"RetainedTraces", "SampledTraces", "SlowTraces", "SpansRecorded"}},
    {"fleet.RequestLatency.MetricValues",
     {"<counter> | count", "<hist>.count | samples", "<hist>.mean | milliseconds",
      "<hist>.mean | units", "<hist>.p50 | milliseconds", "<hist>.p50 | units",
      "<hist>.p95 | milliseconds", "<hist>.p95 | units", "<hist>.p99 | milliseconds",
      "<hist>.p99 | units"}},
    {"fleet.Resilience.MetricValues",
     {"BreakersOpen | fleet breakers", "BreakersTotal | fleet breakers",
      "ReplayedPosts | idempotency replay cache"}},
    {"fleet.Resilience.Oem.Ofmf",
     {"Shards"}},
    {"fleet.Resilience.Oem.Ofmf.Shards[]",
     {"Breakers", "BreakersOpen", "BreakersTotal", "ReplayedPosts", "ShardId"}},
    {"fleet.ResponseCache.MetricValues",
     {"CacheEvictions | fleet read path", "CacheHitRate | fleet read path",
      "CacheHits | fleet read path", "CacheInvalidations | fleet read path",
      "CacheMisses | fleet read path"}},
    {"shard.EventDelivery.MetricValues",
     {"BreakerOpen.<sub> | <sub>", "BreakersOpen | event delivery engine",
      "CursorLag.<sub> | <sub>", "Delivered.<sub> | <sub>",
      "DeliveryBatches | event delivery engine", "DeliveryFailures | event delivery engine",
      "DeliveryRetries | event delivery engine", "Dropped.<sub> | <sub>",
      "EventsCoalesced | event delivery engine", "EventsDelivered | event delivery engine",
      "EventsDropped | event delivery engine", "MaxCursorLag | event delivery engine",
      "MaxQueueDepth | event delivery engine", "QueueDepth.<sub> | <sub>",
      "Queued.<sub> | <sub>", "QueuedEvents | event delivery engine",
      "Retries.<sub> | <sub>", "StreamSubscribers | event delivery engine"}},
    {"shard.EventDelivery.Oem.Ofmf",
     {"LastSequence", "Subscribers"}},
    {"shard.EventDelivery.Oem.Ofmf.Subscribers[]",
     {"AckedSequence", "Batches", "BreakerCloses", "BreakerOpens", "BreakerRejected",
      "BreakerState", "Coalesced", "CursorLag", "Delivered", "Destination", "Dropped",
      "Enqueued", "Failures", "QueueDepth", "Retries", "Stream", "Subscription"}},
    {"shard.MetricsDump",
     {"Counters", "EventDelivery", "Histograms", "Resilience", "ResponseCache", "ShardId",
      "Trace"}},
    {"shard.MetricsDump.Counters[]",
     {"Name", "Value"}},
    {"shard.MetricsDump.EventDelivery",
     {"Batches", "BreakersOpen", "Coalesced", "Delivered", "Dropped", "Failures",
      "LastSequence", "QueuedEvents", "Retries", "Streams"}},
    {"shard.MetricsDump.Histograms[]",
     {"Buckets", "Count", "Mean", "Name", "P50", "P95", "P99", "Sum"}},
    {"shard.MetricsDump.Resilience",
     {"Breakers", "BreakersOpen", "BreakersTotal", "CacheHitRate", "ReplayedPosts"}},
    {"shard.MetricsDump.ResponseCache",
     {"Evictions", "HitRate", "Hits", "Invalidations", "Misses"}},
    {"shard.MetricsDump.Trace",
     {"RetainedTraces", "SampledTraces", "SkippedTraces", "SlowTraces", "SpansEvicted",
      "SpansRecorded"}},
    {"shard.RequestLatency.MetricValues",
     {"<counter> | count", "<hist>.count | samples", "<hist>.mean | milliseconds",
      "<hist>.mean | units", "<hist>.p50 | milliseconds", "<hist>.p50 | units",
      "<hist>.p95 | milliseconds", "<hist>.p95 | units", "<hist>.p99 | milliseconds",
      "<hist>.p99 | units"}},
    {"shard.Resilience.MetricValues",
     {"BreakerCloses.<fabric> | /redfish/v1/Fabrics/<fabric>",
      "BreakerFailures.<fabric> | /redfish/v1/Fabrics/<fabric>",
      "BreakerOpens.<fabric> | /redfish/v1/Fabrics/<fabric>",
      "BreakerRejected.<fabric> | /redfish/v1/Fabrics/<fabric>",
      "BreakerSuccesses.<fabric> | /redfish/v1/Fabrics/<fabric>",
      "ReplayedPosts | idempotency replay cache"}},
    {"shard.Resilience.Oem.Ofmf",
     {"Breakers"}},
    {"shard.Resilience.Oem.Ofmf.Breakers[]",
     {"Degraded", "FabricId", "State"}},
    {"shard.ResponseCache.MetricValues",
     {"CacheEvictions | /redfish/v1 read path", "CacheHitRate | /redfish/v1 read path",
      "CacheHits | /redfish/v1 read path", "CacheInvalidations | /redfish/v1 read path",
      "CacheMisses | /redfish/v1 read path"}},
    {"shard.TenantQoS.MetricValues",
     {"<hist>.count | samples", "<hist>.p50 | milliseconds", "<hist>.p95 | milliseconds",
      "<hist>.p99 | milliseconds", "Admitted.<tenant> | <tenant>",
      "Dispatched.<tenant> | <tenant>", "QueueDepth.<tenant> | <tenant>",
      "QueueRejected.<tenant> | <tenant>", "RateLimited.<tenant> | <tenant>"}},
    {"shard.TenantQoS.Oem.Ofmf",
     {"Tenants"}},
    {"shard.TenantQoS.Oem.Ofmf.Tenants[]",
     {"Admitted", "Dispatched", "QueueDepth", "QueueRejected", "RateLimited", "Tenant",
      "Weight"}},
};

/// One row of the DESIGN.md "Report shape changes" table.
struct DocumentedChange {
  const char* location;
  std::set<std::string> added;
  std::set<std::string> removed;
};

const std::vector<DocumentedChange> kDocumentedChanges = {
    // One histogram rendering: TenantQoS gains the mean like RequestLatency.
    {"shard.TenantQoS.MetricValues", {"<hist>.mean | milliseconds"}, {}},
    // The fleet dump emits every section it sums.
    {"fleet.MetricsDump", {"EventDelivery", "Resilience"}, {}},
    {"fleet.MetricsDump.EventDelivery",
     {"Batches", "BreakersOpen", "Coalesced", "Delivered", "Dropped", "Failures",
      "QueuedEvents", "Retries", "Streams"},
     {}},
    {"fleet.MetricsDump.Resilience", {"BreakersOpen", "BreakersTotal", "ReplayedPosts"}, {}},
    {"fleet.MetricsDump.Trace", {"SkippedTraces", "SpansEvicted"}, {}},
    // A per-shard sequence number does not add across shards.
    {"shard.MetricsDump.EventDelivery", {}, {"LastSequence"}},
};

Shape WithDocumentedChanges(Shape shape) {
  for (const DocumentedChange& change : kDocumentedChanges) {
    std::set<std::string>& entries = shape[change.location];
    entries.insert(change.added.begin(), change.added.end());
    for (const std::string& removed : change.removed) entries.erase(removed);
  }
  return shape;
}

std::string Diff(const Shape& expected, const Shape& actual) {
  std::string out;
  std::set<std::string> locations;
  for (const auto& [location, entries] : expected) locations.insert(location);
  for (const auto& [location, entries] : actual) locations.insert(location);
  for (const std::string& location : locations) {
    const auto want = expected.find(location);
    const auto got = actual.find(location);
    const std::set<std::string> none;
    const std::set<std::string>& w = want == expected.end() ? none : want->second;
    const std::set<std::string>& g = got == actual.end() ? none : got->second;
    for (const std::string& entry : w) {
      if (g.count(entry) == 0) out += "  missing " + location + ": " + entry + "\n";
    }
    for (const std::string& entry : g) {
      if (w.count(entry) == 0) out += "  extra   " + location + ": " + entry + "\n";
    }
  }
  return out;
}

/// Every report and dump matches its golden shape, or its golden shape with
/// all documented changes applied; nothing else may differ.
TEST(ReportShapeTest, ReportsAndDumpsKeepTheirDocumentedShape) {
  const Shape actual = MeasureShapes();
  const Shape changed = WithDocumentedChanges(kGolden);
  EXPECT_TRUE(actual == kGolden || actual == changed)
      << "differences from the documented shape:\n" << Diff(changed, actual);
}

}  // namespace
}  // namespace ofmf
