// Chaos walkthrough: the OFMF under injected faults. A composed system is
// built over a lossy transport (retries + idempotency keys absorb the
// drops), the IB agent crashes (the circuit breaker opens and the fabric is
// served degraded-but-stale instead of vanishing), the agent recovers (a
// half-open probe closes the breaker and restores the inventory), and a
// fabric link flaps and heals. Everything is seeded and deterministic.
//
//   $ ./examples/chaos_failover
#include <cstdio>
#include <memory>

#include "agents/ib_agent.hpp"
#include "common/faults.hpp"
#include "composability/client.hpp"
#include "fabricsim/chaos.hpp"
#include "http/resilience.hpp"
#include "json/serialize.hpp"
#include "ofmf/service.hpp"
#include "ofmf/uris.hpp"

using namespace ofmf;
using json::Json;

int main() {
  // Redundant dual-switch IB fabric.
  fabricsim::FabricGraph graph;
  (void)graph.AddVertex("sw0", fabricsim::VertexKind::kSwitch, 8);
  (void)graph.AddVertex("sw1", fabricsim::VertexKind::kSwitch, 8);
  (void)graph.AddVertex("n1", fabricsim::VertexKind::kDevice, 2);
  (void)graph.AddVertex("n2", fabricsim::VertexKind::kDevice, 2);
  (void)graph.Connect("n1", 0, "sw0", 0, {50, 200});
  (void)graph.Connect("n2", 0, "sw0", 1, {50, 200});
  (void)graph.Connect("n1", 1, "sw1", 0, {90, 100});
  (void)graph.Connect("n2", 1, "sw1", 1, {90, 100});
  fabricsim::IbSubnetManager ib(graph);

  core::OfmfService ofmf;
  if (!ofmf.Bootstrap().ok()) return 1;
  (void)ofmf.RegisterAgent(std::make_shared<agents::IbAgent>("IB", ib));
  for (int i = 0; i < 4; ++i) {
    core::BlockCapability block;
    block.id = "cpu" + std::to_string(i);
    block.block_type = "Compute";
    block.cores = 16;
    block.memory_gib = 64;
    (void)ofmf.composition().RegisterBlock(block);
  }

  // One injector drives every chaos source: the client transport, the
  // agent, and the fabric links.
  auto chaos = std::make_shared<FaultInjector>(2026);
  ofmf.set_fault_injector(chaos);

  http::RetryPolicy policy;
  policy.max_attempts = 5;
  policy.base_backoff_ms = 1;
  policy.max_backoff_ms = 8;
  policy.deadline_ms = 500;
  composability::OfmfClient client(std::make_unique<http::RetryingClient>(
      std::make_unique<http::FaultyClient>(
          std::make_unique<http::InProcessClient>(ofmf.Handler()), chaos),
      policy));

  // --- 1. Compose over a lossy wire. -------------------------------------
  std::printf("1. composing over a transport that drops 20%% of requests\n");
  chaos->ArmProbability("http.client", FaultKind::kDropConnection, 0.2);
  const std::string block_uri = std::string(core::kResourceBlocks) + "/cpu0";
  auto system = client.Post(
      core::kSystems,
      Json::Obj({{"Name", "chaos-job"},
                 {"Links",
                  Json::Obj({{"ResourceBlocks",
                              Json::Arr({Json::Obj({{"@odata.id", block_uri}})})}})}}));
  if (!system.ok()) return 1;
  chaos->Disarm("http.client");
  std::printf("   composed %s (injected faults so far: %llu)\n\n", system->c_str(),
              static_cast<unsigned long long>(chaos->total_fires()));

  // --- 2. Agent crash: breaker opens, inventory degrades. ----------------
  std::printf("2. IB agent crashes for its next 5 calls\n");
  chaos->ArmWindow("agent.IB", FaultKind::kCrash, 1, 6);
  core::CircuitBreaker* breaker = *ofmf.BreakerForFabric("IB");
  const std::string connections_uri = core::FabricUri("IB") + "/Connections";
  const std::string ep1 = core::FabricUri("IB") + "/Endpoints/n1";
  const Json conn = Json::Obj(
      {{"Name", "mpi"},
       {"ConnectionType", "Network"},
       {"Links",
        Json::Obj({{"InitiatorEndpoints", Json::Arr({Json::Obj({{"@odata.id", ep1}})})},
                   {"TargetEndpoints",
                    Json::Arr({Json::Obj({{"@odata.id", core::FabricUri("IB") +
                                                            "/Endpoints/n2"}})})}})}});
  int calls = 0;
  while (breaker->state() != core::BreakerState::kOpen && calls++ < 10) {
    (void)client.Post(connections_uri, conn);
  }
  std::printf("   breaker: %s after %d failed calls\n",
              core::to_string(breaker->state()), calls);
  const Json degraded = *client.Get(ep1);
  std::printf("   endpoint n1 served degraded: State=%s Health=%s\n\n",
              degraded.at("Status").GetString("State").c_str(),
              degraded.at("Status").GetString("Health").c_str());

  // --- 3. Recovery: a half-open probe closes the breaker. ----------------
  std::printf("3. agent recovers; probing until the breaker re-closes\n");
  int probes = 0;
  while (breaker->state() != core::BreakerState::kClosed && probes++ < 50) {
    (void)client.Post(connections_uri, conn);
  }
  const Json restored = *client.Get(ep1);
  std::printf("   breaker: %s; endpoint n1 restored: State=%s Health=%s\n\n",
              core::to_string(breaker->state()),
              restored.at("Status").GetString("State").c_str(),
              restored.at("Status").GetString("Health").c_str());

  // --- 4. Link flap and heal. --------------------------------------------
  std::printf("4. flapping one fabric link\n");
  chaos->ArmNthCall("fabric.flap", FaultKind::kDropConnection, 1);
  fabricsim::LinkFlapper flapper(graph, chaos);
  (void)flapper.Tick();
  std::printf("   link down; n1 and n2 still reachable: %s\n",
              graph.Reachable("n1", "n2") ? "yes (redundant path)" : "NO");
  flapper.Heal();
  std::printf("   healed; flaps=%llu\n\n",
              static_cast<unsigned long long>(flapper.flaps()));

  // --- 5. The resilience counters, as Redfish telemetry. -----------------
  const Json report = *client.Get(core::TelemetryService::ReportUri("Resilience"));
  std::printf("5. %s:\n%s\n", core::TelemetryService::ReportUri("Resilience").c_str(),
              json::SerializePretty(report.at("Oem")).c_str());
  return 0;
}
