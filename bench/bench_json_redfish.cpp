// google-benchmark micro suite for the REST/JSON substrate — the layer the
// reproduction band flagged as "awkward": JSON parse/serialize, pointer
// resolution, schema validation, merge-patch, $filter evaluation, wire
// round trips, and a whole in-process OFMF GET.
#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "http/server.hpp"
#include "http/wire.hpp"
#include "json/merge_patch.hpp"
#include "json/parse.hpp"
#include "json/pointer.hpp"
#include "json/schema.hpp"
#include "json/serialize.hpp"
#include "odata/filter.hpp"
#include "ofmf/service.hpp"
#include "ofmf/uris.hpp"
#include "redfish/schemas.hpp"

namespace {

using namespace ofmf;
using json::Json;

const char* kEndpointPayload = R"({
  "@odata.id": "/redfish/v1/Fabrics/CXL/Endpoints/host0",
  "@odata.type": "#Endpoint.v1_8_0.Endpoint",
  "Id": "host0", "Name": "host0", "EndpointProtocol": "CXL",
  "EndpointRole": "Initiator",
  "Status": {"State": "Enabled", "Health": "OK"},
  "ConnectedEntities": [
    {"EntityType": "Processor"},
    {"EntityType": "MediumScopedMemory",
     "Oem": {"Ofmf": {"LdId": 0, "CapacityBytes": 274877906944, "Bound": false}}}
  ],
  "Links": {"Zones": [{"@odata.id": "/redfish/v1/Fabrics/CXL/Zones/zone1"}]}
})";

void BM_JsonParse(benchmark::State& state) {
  for (auto _ : state) {
    auto doc = json::Parse(kEndpointPayload);
    benchmark::DoNotOptimize(doc);
  }
}
BENCHMARK(BM_JsonParse);

void BM_JsonSerialize(benchmark::State& state) {
  const Json doc = *json::Parse(kEndpointPayload);
  for (auto _ : state) {
    std::string out = json::Serialize(doc);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_JsonSerialize);

// The shape of a shard's OfmfService.MetricsDump, which the federation router
// parses and re-serializes on every fleet scrape: per histogram four doubles
// (Mean/P50/P95/P99) and 40 log2 bucket counts, then a flat counter list.
Json MetricsDumpShaped() {
  Rng rng(13);
  json::Array histograms;
  for (int h = 0; h < 64; ++h) {
    json::Array buckets(40);
    for (Json& bucket : buckets) bucket = static_cast<std::int64_t>(rng.UniformInt(0, 1u << 20));
    const double mean = rng.LogNormal(5.0, 1.5);
    histograms.push_back(Json::Obj({{"Name", "ofmf.handle_us.stage" + std::to_string(h)},
                                    {"Count", static_cast<std::int64_t>(rng.UniformInt(1, 1u << 24))},
                                    {"Sum", static_cast<std::int64_t>(rng.NextU64() >> 20)},
                                    {"Mean", mean},
                                    {"P50", mean * 0.8},
                                    {"P95", mean * 3.1},
                                    {"P99", mean * 7.3},
                                    {"Buckets", Json(std::move(buckets))}}));
  }
  json::Array counters;
  for (int c = 0; c < 64; ++c) {
    counters.push_back(Json::Obj({{"Name", "http.shard.counter" + std::to_string(c)},
                                  {"Value", static_cast<std::int64_t>(rng.NextU64() >> 24)}}));
  }
  return Json::Obj({{"ShardId", "shard-0"},
                    {"Histograms", Json(std::move(histograms))},
                    {"Counters", Json(std::move(counters))},
                    {"ResponseCache", Json::Obj({{"Hits", 1234567}, {"HitRate", 0.987654321}})}});
}

void BM_JsonParseMetricsDump(benchmark::State& state) {
  const std::string text = json::Serialize(MetricsDumpShaped());
  for (auto _ : state) {
    auto doc = json::Parse(text);
    benchmark::DoNotOptimize(doc);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * text.size()));
}
BENCHMARK(BM_JsonParseMetricsDump);

void BM_JsonSerializeMetricsDump(benchmark::State& state) {
  const Json doc = MetricsDumpShaped();
  const std::size_t size = json::Serialize(doc).size();
  for (auto _ : state) {
    std::string out = json::Serialize(doc);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * size));
}
BENCHMARK(BM_JsonSerializeMetricsDump);

void BM_JsonPointerResolve(benchmark::State& state) {
  const Json doc = *json::Parse(kEndpointPayload);
  for (auto _ : state) {
    const Json* value =
        json::ResolvePointerRef(doc, "/ConnectedEntities/1/Oem/Ofmf/CapacityBytes");
    benchmark::DoNotOptimize(value);
  }
}
BENCHMARK(BM_JsonPointerResolve);

void BM_MergePatch(benchmark::State& state) {
  const Json base = *json::Parse(kEndpointPayload);
  const Json patch = *json::Parse(
      R"({"Status":{"State":"UnavailableOffline","Health":"Critical"},"Name":"renamed"})");
  for (auto _ : state) {
    Json target = base;
    json::MergePatch(target, patch);
    benchmark::DoNotOptimize(target);
  }
}
BENCHMARK(BM_MergePatch);

void BM_SchemaValidateEndpoint(benchmark::State& state) {
  const redfish::SchemaRegistry registry = redfish::SchemaRegistry::BuiltIn();
  const Json doc = *json::Parse(kEndpointPayload);
  for (auto _ : state) {
    const Status status = registry.ValidateCreate("Endpoint", doc);
    benchmark::DoNotOptimize(status);
  }
}
BENCHMARK(BM_SchemaValidateEndpoint);

void BM_FilterCompileAndMatch(benchmark::State& state) {
  const Json doc = *json::Parse(kEndpointPayload);
  for (auto _ : state) {
    auto filter = odata::Filter::Compile(
        "Status/State eq 'Enabled' and EndpointProtocol eq 'CXL'");
    const bool match = filter->Matches(doc);
    benchmark::DoNotOptimize(match);
  }
}
BENCHMARK(BM_FilterCompileAndMatch);

void BM_FilterMatchOnly(benchmark::State& state) {
  const Json doc = *json::Parse(kEndpointPayload);
  const auto filter = odata::Filter::Compile(
      "Status/State eq 'Enabled' and EndpointProtocol eq 'CXL'");
  for (auto _ : state) {
    const bool match = filter->Matches(doc);
    benchmark::DoNotOptimize(match);
  }
}
BENCHMARK(BM_FilterMatchOnly);

void BM_WireRoundTrip(benchmark::State& state) {
  const http::Request request = http::MakeJsonRequest(
      http::Method::kPost, "/redfish/v1/Systems", *json::Parse(kEndpointPayload));
  for (auto _ : state) {
    const std::string wire = http::SerializeRequest(request);
    http::WireParser parser(http::WireParser::Mode::kRequest);
    parser.Feed(wire);
    auto parsed = parser.TakeRequest();
    benchmark::DoNotOptimize(parsed);
  }
}
BENCHMARK(BM_WireRoundTrip);

void BM_OfmfEndToEndGet(benchmark::State& state) {
  core::OfmfService ofmf;
  (void)ofmf.Bootstrap();
  (void)ofmf.CreateFabricSkeleton("CXL", "CXL", "bench");
  (void)ofmf.tree().Create(core::FabricUri("CXL") + "/Endpoints/host0",
                           "#Endpoint.v1_8_0.Endpoint", *json::Parse(kEndpointPayload));
  const http::Request request =
      http::MakeRequest(http::Method::kGet, core::FabricUri("CXL") + "/Endpoints/host0");
  for (auto _ : state) {
    http::Response response = ofmf.Handle(request);
    benchmark::DoNotOptimize(response);
  }
}
BENCHMARK(BM_OfmfEndToEndGet);

void BM_OfmfPatchWithValidation(benchmark::State& state) {
  core::OfmfService ofmf;
  (void)ofmf.Bootstrap();
  (void)ofmf.CreateFabricSkeleton("CXL", "CXL", "bench");
  (void)ofmf.tree().Create(core::FabricUri("CXL") + "/Endpoints/host0",
                           "#Endpoint.v1_8_0.Endpoint", *json::Parse(kEndpointPayload));
  const http::Request request = http::MakeJsonRequest(
      http::Method::kPatch, core::FabricUri("CXL") + "/Endpoints/host0",
      *json::Parse(R"({"Status":{"State":"Enabled","Health":"OK"}})"));
  for (auto _ : state) {
    http::Response response = ofmf.Handle(request);
    benchmark::DoNotOptimize(response);
  }
}
BENCHMARK(BM_OfmfPatchWithValidation);

}  // namespace

// Keep wall time bounded on the single-core CI box.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
