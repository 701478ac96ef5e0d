// Serve the OFMF over a real TCP socket and drive it with wire-format HTTP
// requests from client threads — the interop surface an external tool (curl,
// the real Swordfish emulator test suites) would hit.
//
//   $ ./examples/rest_server                        # self-driving demo, ephemeral port
//   $ ./examples/rest_server 8080 30                # listen on :8080 for 30 s (curl it)
//   $ ./examples/rest_server 8080 0 --store-dir /var/lib/ofmf
//       # durable: journal + snapshots in /var/lib/ofmf, serve until
//       # SIGINT/SIGTERM, flush the store, exit. Start it again with the same
//       # --store-dir and the tree (sessions included) comes back.
//   $ ./examples/rest_server 8080 30 --workers 8 --max-conns 4096 --idle-timeout-ms 15000
//       # reactor tuning: worker threads handling requests, concurrent
//       # connection cap, and how long an idle keep-alive connection lives.
//   $ ./examples/rest_server 8080 30 --trace-sample 1.0 --slow-ms 50
//       # trace every request; requests slower than 50 ms dump their whole
//       # span tree to stderr via OFMF_WARN. Scrape
//       # /redfish/v1/TelemetryService/MetricReports/RequestLatency for
//       # p50/p95/p99, or POST Actions/OfmfService.MetricsDump for raw JSON.
//   $ ./examples/rest_server 8080 30 --qos --tenant hpc,Guaranteed,8,0,0,alice
//       (repeat --tenant: e.g. --tenant batch,BestEffort,1,50,100,bob)
//       # multi-tenant QoS: requests are classified by session tenant and
//       # dispatched by deficit-round-robin over per-tenant queues (weight 8
//       # vs 1 here); tenant "batch" is also token-bucket limited to 50 rps
//       # with burst 100 (breach -> 429 + Retry-After). Scrape
//       # /redfish/v1/TelemetryService/MetricReports/TenantQoS for the
//       # per-tenant scheduler counters and latency percentiles.
//   $ ./examples/rest_server 8081 0 --shard-id s1 --directory 7000
//       # run as one shard of a federated deployment: system ids are
//       # namespaced "composed-s1-N", the ServiceRoot carries
//       # Oem.Ofmf.ShardId, and the process registers with the directory
//       # service on :7000 and heartbeats it until shutdown. Auth is left to
//       # the router tier in this mode. See examples/federation_router.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include <vector>

#include "agents/nvmeof_agent.hpp"
#include "common/strings.hpp"
#include "common/trace.hpp"
#include "composability/client.hpp"
#include "federation/directory_client.hpp"
#include "json/serialize.hpp"
#include "ofmf/service.hpp"
#include "ofmf/uris.hpp"
#include "store/store.hpp"

using namespace ofmf;
using json::Json;

namespace {

volatile std::sig_atomic_t g_stop = 0;
void HandleStopSignal(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  std::uint16_t port = 0;
  int linger_seconds = 0;
  std::string store_dir;
  std::string shard_id;
  std::uint16_t directory_port = 0;
  double trace_sample = 0.0;
  int slow_ms = 0;
  bool qos = false;
  std::vector<std::string> tenant_specs;
  http::ServerOptions server_options;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--store-dir") == 0 && i + 1 < argc) {
      store_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--qos") == 0) {
      qos = true;
    } else if (std::strcmp(argv[i], "--tenant") == 0 && i + 1 < argc) {
      tenant_specs.push_back(argv[++i]);
    } else if (std::strcmp(argv[i], "--shard-id") == 0 && i + 1 < argc) {
      shard_id = argv[++i];
    } else if (std::strcmp(argv[i], "--directory") == 0 && i + 1 < argc) {
      directory_port = static_cast<std::uint16_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--trace-sample") == 0 && i + 1 < argc) {
      trace_sample = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--slow-ms") == 0 && i + 1 < argc) {
      slow_ms = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      server_options.workers = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--max-conns") == 0 && i + 1 < argc) {
      server_options.max_connections = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--idle-timeout-ms") == 0 && i + 1 < argc) {
      server_options.idle_timeout_ms = std::atoi(argv[++i]);
    } else if (positional == 0) {
      port = static_cast<std::uint16_t>(std::atoi(argv[i]));
      ++positional;
    } else if (positional == 1) {
      linger_seconds = std::atoi(argv[i]);
      ++positional;
    }
  }

  if (trace_sample > 0.0) {
    trace::TraceRecorder::instance().set_sampling(trace_sample);
    std::printf("tracing %.0f%% of requests", trace_sample * 100.0);
    if (slow_ms > 0) {
      trace::TraceRecorder::instance().set_slow_threshold_ns(
          static_cast<std::uint64_t>(slow_ms) * 1000000ull);
      // Retain those trees too, so a federation router can fetch this
      // shard's fragment via Actions/OfmfService.TraceDump and stitch it
      // into the cross-process tree (error trees are always retained).
      trace::TraceRecorder::instance().set_retain_threshold_ns(
          static_cast<std::uint64_t>(slow_ms) * 1000000ull);
      std::printf("; dumping span trees for requests over %d ms", slow_ms);
    }
    std::printf("\n");
  }

  // Fabric + NVMe-oF target inventory.
  fabricsim::FabricGraph graph;
  (void)graph.AddVertex("tor", fabricsim::VertexKind::kSwitch, 8);
  (void)graph.AddVertex("node001", fabricsim::VertexKind::kDevice, 1);
  (void)graph.AddVertex("jbof0", fabricsim::VertexKind::kDevice, 1);
  (void)graph.Connect("node001", 0, "tor", 0);
  (void)graph.Connect("jbof0", 0, "tor", 1);
  fabricsim::NvmeofTargetManager nvme(graph);
  (void)nvme.CreateSubsystem("nqn.2026-01.org.ofmf:jbof0", "jbof0");
  (void)nvme.AddNamespace("nqn.2026-01.org.ofmf:jbof0", 1, 16ull << 40);
  (void)nvme.RegisterHostPort("nqn.2026-01.org.ofmf:node001", "node001");

  core::OfmfService ofmf;
  if (!ofmf.Bootstrap().ok()) return 1;

  // Durability first (recovers any previous run), then agents re-publish
  // their live inventory, then reconciliation settles what survived.
  if (!store_dir.empty()) {
    store::StoreOptions options;
    options.dir = store_dir;
    auto persistent = store::PersistentStore::Open(options);
    if (!persistent.ok()) {
      std::fprintf(stderr, "cannot open store %s: %s\n", store_dir.c_str(),
                   persistent.status().message().c_str());
      return 1;
    }
    auto report = ofmf.EnableDurability(std::move(*persistent));
    if (!report.ok()) {
      std::fprintf(stderr, "recovery failed: %s\n", report.status().message().c_str());
      return 1;
    }
    std::printf("store %s: snapshot=%s, %zu journal records replayed, "
                "%zu resources, %zu sessions (%.1f ms)\n",
                store_dir.c_str(), report->had_snapshot ? "yes" : "no",
                report->records_replayed, report->resources, report->sessions,
                report->recover_seconds * 1000.0);
  }
  if (!shard_id.empty()) {
    // Shard mode: the router tier fronts this instance, so authentication
    // lives there; the shard serves the router's forwarded requests as-is.
    ofmf.set_shard_identity(shard_id);
  } else {
    ofmf.sessions().set_auth_required(true);  // full auth on the wire
  }
  // Tenant accounts: "--tenant id,qos_class,weight,rate_rps,burst,user+user".
  // Users bound here get their sessions classified into the tenant's DRR
  // queue; equivalent to POSTing the tenant to /redfish/v1/SessionService/
  // Tenants at runtime.
  for (const std::string& spec : tenant_specs) {
    const std::vector<std::string> fields = strings::Split(spec, ',');
    core::TenantInfo tenant;
    tenant.id = fields.empty() ? "" : fields[0];
    if (fields.size() > 1 && !fields[1].empty()) tenant.qos_class = fields[1];
    if (fields.size() > 2) tenant.weight = static_cast<std::uint32_t>(std::atoi(fields[2].c_str()));
    if (fields.size() > 3) tenant.rate_rps = std::atof(fields[3].c_str());
    if (fields.size() > 4) tenant.burst = std::atof(fields[4].c_str());
    if (fields.size() > 5) tenant.users = strings::Split(fields[5], '+');
    // Demo accounts: each tenant user can log in with password == username
    // (matching the built-in admin/ofmf convention for a demo server).
    for (const std::string& user : tenant.users) {
      ofmf.sessions().AddUser(user, user);
    }
    const auto created = ofmf.sessions().CreateTenant(tenant);
    if (!created.ok()) {
      std::fprintf(stderr, "bad --tenant %s: %s\n", spec.c_str(),
                   created.status().message().c_str());
      return 2;
    }
    std::printf("tenant %s: class=%s weight=%u rate=%.0f/s burst=%.0f\n",
                created->id.c_str(), created->qos_class.c_str(), created->weight,
                created->rate_rps, created->burst);
  }
  if (qos) {
    // Weighted-fair dispatch: the reactor asks this classifier for each
    // parsed request's tenant. Unauthenticated / unbound traffic shares the
    // weight-1 "default" queue, so a flooding tenant cannot starve it.
    server_options.tenant_classifier =
        [&ofmf](const http::Request& request) {
          qos::TenantSpec spec;
          const std::string tenant = ofmf.sessions().TenantOfToken(
              request.headers.GetOr("X-Auth-Token", ""));
          spec.id = tenant.empty() ? "default" : tenant;
          if (!tenant.empty()) {
            const auto info = ofmf.sessions().GetTenant(tenant);
            if (info.ok()) {
              spec.weight = info->weight;
              spec.rate_rps = info->rate_rps;
              spec.burst = info->burst;
            }
          }
          return spec;
        };
  }
  (void)ofmf.RegisterAgent(std::make_shared<agents::NvmeofAgent>("NVMeoF", nvme));
  if (ofmf.durable()) {
    auto reconciled = ofmf.ReconcileWithAgents();
    if (reconciled.ok() &&
        (reconciled->resources_marked_absent != 0 || reconciled->systems_rolled_back != 0)) {
      std::printf("reconcile: %zu resources marked Absent, %zu systems adopted, "
                  "%zu rolled back, %zu claims released\n",
                  reconciled->resources_marked_absent, reconciled->systems_adopted,
                  reconciled->systems_rolled_back, reconciled->claims_released);
    }
  }

  http::TcpServer server;
  if (!server.Start(ofmf.Handler(), port, server_options).ok()) {
    std::fprintf(stderr, "failed to bind port %u\n", port);
    return 1;
  }
  if (qos) {
    // The TenantQoS MetricReport pulls the reactor's per-tenant scheduler
    // counters through this hook (refreshed lazily on GET of the report).
    ofmf.telemetry().SetTenantQosSource([&server] { return server.TenantQosStats(); });
  }
  std::printf("OFMF listening on http://127.0.0.1:%u/redfish/v1\n", server.port());
  std::printf("credentials: admin / ofmf (POST %s)\n\n", core::kSessions);

  // Federation: announce this shard to the directory and keep heartbeating
  // it so the routing table holds us alive. A heartbeat answered with
  // NotFound means the directory restarted — re-register.
  std::atomic<bool> heartbeat_stop{false};
  std::thread heartbeat;
  std::unique_ptr<federation::DirectoryClient> directory;
  if (!shard_id.empty() && directory_port != 0) {
    directory = std::make_unique<federation::DirectoryClient>(directory_port);
    const auto registered = directory->Register(shard_id, server.port());
    if (!registered.ok()) {
      std::fprintf(stderr, "directory register failed: %s\n",
                   registered.status().message().c_str());
    } else {
      std::printf("shard %s registered with directory :%u (epoch %llu)\n",
                  shard_id.c_str(), directory_port,
                  static_cast<unsigned long long>(*registered));
    }
    heartbeat = std::thread([&] {
      while (!heartbeat_stop.load(std::memory_order_relaxed)) {
        // Each beat carries the shard's self-reported health (breaker
        // states, replay count, cache hit rate) so the router's FleetHealth
        // report sees it without an extra round-trip.
        const Status beat = directory->Heartbeat(shard_id, ofmf.HealthStats());
        if (beat.code() == ErrorCode::kNotFound) {
          (void)directory->Register(shard_id, server.port());
        }
        for (int i = 0; i < 10 && !heartbeat_stop.load(std::memory_order_relaxed); ++i) {
          std::this_thread::sleep_for(std::chrono::milliseconds(100));
        }
      }
    });
  }
  const auto stop_heartbeat = [&] {
    heartbeat_stop.store(true, std::memory_order_relaxed);
    if (heartbeat.joinable()) heartbeat.join();
  };

  if (linger_seconds > 0 || !store_dir.empty()) {
    std::signal(SIGINT, HandleStopSignal);
    std::signal(SIGTERM, HandleStopSignal);
    if (linger_seconds > 0) {
      std::printf("serving for %d s; try:\n", linger_seconds);
    } else {
      std::printf("serving until SIGINT/SIGTERM; try:\n");
    }
    std::printf("  curl http://127.0.0.1:%u/redfish/v1\n"
                "  curl -X POST -d '{\"UserName\":\"admin\",\"Password\":\"ofmf\"}' "
                "http://127.0.0.1:%u%s -i\n",
                server.port(), server.port(), core::kSessions);
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(linger_seconds);
    while (g_stop == 0 &&
           (linger_seconds == 0 || std::chrono::steady_clock::now() < deadline)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    // Drain first (new mutations get 503 + Retry-After while in-flight
    // handlers finish), then stop the reactor, then flush the store.
    stop_heartbeat();
    ofmf.BeginDrain();
    server.Stop();
    if (ofmf.durable()) {
      const Status flushed = ofmf.FlushStore();
      std::printf("%s: store flushed %s\n", g_stop != 0 ? "signal" : "timeout",
                  flushed.ok() ? "cleanly" : flushed.message().c_str());
    }
    return 0;
  }

  // Self-driving demo: a wire client logs in and walks the tree.
  composability::OfmfClient client(std::make_unique<http::TcpClient>(server.port()));
  const json::Json root = *client.Get(core::kServiceRoot);  // unauthenticated surface
  std::printf("GET /redfish/v1 -> %s\n", root.GetString("Name").c_str());

  if (!client.Login("admin", "ofmf").ok()) return 1;
  std::printf("session token: %s...\n", client.token().substr(0, 8).c_str());

  const auto fabric_uris = *client.Members(core::kFabrics);
  for (const std::string& fabric_uri : fabric_uris) {
    std::printf("fabric: %s\n", fabric_uri.c_str());
  }
  const auto service_uris = *client.Members(core::kStorageServices);
  for (const std::string& service_uri : service_uris) {
    const json::Json service = *client.Get(service_uri);
    std::printf("storage service: %s (%s)\n", service_uri.c_str(),
                service.GetString("Name").c_str());
    const auto volume_uris = *client.Members(service_uri + "/Volumes");
    for (const std::string& volume_uri : volume_uris) {
      const json::Json volume = *client.Get(volume_uri);
      std::printf("  volume %s: %lld bytes\n", volume.GetString("Name").c_str(),
                  static_cast<long long>(volume.GetInt("CapacityBytes")));
    }
  }

  // Storage attach over the wire.
  auto connection = client.Post(
      core::FabricUri("NVMeoF") + "/Connections",
      Json::Obj({{"Name", "wire-attach"},
                 {"ConnectionType", "Storage"},
                 {"Oem",
                  Json::Obj({{"Ofmf",
                              Json::Obj({{"HostNqn", "nqn.2026-01.org.ofmf:node001"},
                                         {"SubsystemNqn",
                                          "nqn.2026-01.org.ofmf:jbof0"}})}})}}));
  if (connection.ok()) {
    std::printf("storage connection created: %s\n", connection->c_str());
  }
  if (ofmf.durable()) (void)ofmf.FlushStore();
  stop_heartbeat();
  server.Stop();
  std::printf("server stopped.\n");
  return 0;
}
