#include <time.h>

#include <algorithm>
#include <charconv>
#include <filesystem>

#include "arith.hpp"
#include "bench.hpp"
#include "json/parse.hpp"
#include "odata/annotations.hpp"
#include "ofmf/uris.hpp"
#include "store/store.hpp"

namespace perfbench {

// -------------------------------------------------------- classification ---

const char* ClassName(OpClass cls) {
  switch (cls) {
    case OpClass::kGet: return "get";
    case OpClass::kGet304: return "get_304";
    case OpClass::kCollection: return "collection";
    case OpClass::kCompose: return "compose";
    case OpClass::kDecompose: return "decompose";
    case OpClass::kScrape: return "scrape";
    case OpClass::kClaim: return "claim";
    case OpClass::kOther: return "other";
  }
  return "?";
}

OpClass Classify(http::Method method, const std::string& path, int status) {
  static const std::string systems_prefix = std::string(core::kSystems) + "/";
  static const std::string reports_prefix = std::string(core::kMetricReports) + "/";
  static const std::string dump = std::string(core::kServiceRoot) + "/Actions/OfmfService.MetricsDump";
  if (method == http::Method::kPost) {
    if (path == core::kSystems) return OpClass::kCompose;
    if (path == dump) return OpClass::kScrape;
    return OpClass::kOther;
  }
  if (method == http::Method::kDelete) {
    return path.rfind(systems_prefix, 0) == 0 ? OpClass::kDecompose : OpClass::kOther;
  }
  if (method == http::Method::kPatch) return OpClass::kClaim;
  if (method != http::Method::kGet) return OpClass::kOther;
  if (path.rfind(reports_prefix, 0) == 0) return OpClass::kScrape;
  if (path == core::kResourceBlocks || path == core::kSystems || path == core::kFabrics ||
      path == core::kChassis || path == core::kStorageServices) {
    return OpClass::kCollection;
  }
  if (path.rfind(core::kSessionService, 0) == 0 || path.rfind(core::kEventService, 0) == 0) {
    return OpClass::kOther;
  }
  return status == 304 ? OpClass::kGet304 : OpClass::kGet;
}

const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kClient: return "client.request";
    case SpanKind::kRouter: return "router.handle";
    case SpanKind::kShard: return "shard.handle";
    case SpanKind::kSink: return "sink.receive";
    case SpanKind::kDiscover: return "manager.discover";
    case SpanKind::kCompose: return "manager.compose";
    case SpanKind::kDecompose: return "manager.decompose";
    case SpanKind::kSubmit: return "slurm.submit";
    case SpanKind::kComplete: return "slurm.complete";
  }
  return "?";
}

// -------------------------------------------------------------- span log ---

namespace {

struct SpanLogState {
  std::atomic<bool> enabled{false};
  std::atomic<std::uint64_t> generation{1};
  std::atomic<std::uint64_t> next_id{1};
  std::mutex mu;
  std::vector<std::unique_ptr<std::vector<SpanRec>>> buffers;
};

SpanLogState& Log() {
  static SpanLogState state;
  return state;
}

std::atomic<std::uint64_t> g_next_request{1};

}  // namespace

void SpanLog::Enable(bool on) {
  SpanLogState& log = Log();
  if (on) {
    std::lock_guard<std::mutex> lock(log.mu);
    log.buffers.clear();
    log.generation.fetch_add(1);
  }
  log.enabled.store(on);
}

bool SpanLog::enabled() { return Log().enabled.load(std::memory_order_relaxed); }

void SpanLog::Record(SpanRec span) {
  SpanLogState& log = Log();
  if (!log.enabled.load(std::memory_order_relaxed)) return;
  thread_local std::vector<SpanRec>* buffer = nullptr;
  thread_local std::uint64_t buffer_generation = 0;
  const std::uint64_t generation = log.generation.load(std::memory_order_acquire);
  if (buffer == nullptr || buffer_generation != generation) {
    std::lock_guard<std::mutex> lock(log.mu);
    log.buffers.push_back(std::make_unique<std::vector<SpanRec>>());
    buffer = log.buffers.back().get();
    buffer->reserve(1 << 14);
    buffer_generation = log.generation.load();
  }
  span.id = log.next_id.fetch_add(1, std::memory_order_relaxed);
  buffer->push_back(span);
}

std::vector<SpanRec> SpanLog::Collect() {
  SpanLogState& log = Log();
  std::lock_guard<std::mutex> lock(log.mu);
  std::vector<SpanRec> all;
  for (const auto& buffer : log.buffers) all.insert(all.end(), buffer->begin(), buffer->end());
  return all;
}

std::uint64_t NextRequestId() { return g_next_request.fetch_add(1, std::memory_order_relaxed); }

std::uint64_t RequestIdOf(const http::Request& request) {
  const std::optional<std::string> value = request.headers.Get(kReqHeader);
  if (!value) return 0;
  std::uint64_t id = 0;
  const auto [end, ec] = std::from_chars(value->data(), value->data() + value->size(), id);
  return ec == std::errc() && end == value->data() + value->size() ? id : 0;
}

// ----------------------------------------------------------- client side ---

void ClientStats::Fail(const std::string& what) {
  ++failed;
  ++check_failures;
  if (errors.size() < 8) errors.push_back(what);
}

namespace {
template <typename T>
void Append(std::vector<T>& into, std::vector<T>& from) {
  into.insert(into.end(), from.begin(), from.end());
}
}  // namespace

void ClientStats::Merge(ClientStats&& other) {
  attempted += other.attempted;
  failed += other.failed;
  check_failures += other.check_failures;
  for (auto& e : other.errors) {
    if (errors.size() < 8) errors.push_back(e);
  }
  req_latency.Merge(other.req_latency);
  for (const auto& [cls, latency] : other.class_latency) class_latency[cls].Merge(latency);
  get_requests += other.get_requests;
  revalidated += other.revalidated;
  Append(compose_ms, other.compose_ms);
  Append(decompose_ms, other.decompose_ms);
  Append(collection_ms, other.collection_ms);
  Append(walk_ms, other.walk_ms);
  Append(scrape_ms, other.scrape_ms);
  Append(discover_us, other.discover_us);
  Append(sim_us_per_job, other.sim_us_per_job);
  jobs += other.jobs;
  composes += other.composes;
  compose_requests += other.compose_requests;
  compose_gets += other.compose_gets;
  compose_revalidated += other.compose_revalidated;
  conflict_retries += other.conflict_retries;
  gathering_scrapes += other.gathering_scrapes;
  paged_requests += other.paged_requests;
  composed_at.merge(other.composed_at);
  decomposed_at.merge(other.decomposed_at);
  cpu_ns += other.cpu_ns;
}

Result<http::Response> TimedTransport::Send(const http::Request& request) {
  const std::uint64_t id = NextRequestId();
  http::Request stamped;
  const http::Request* out = &request;
  if (traced_) {
    stamped = request;
    stamped.headers.Set(kReqHeader, std::to_string(id));
    out = &stamped;
  }
  const bool compose_post =
      request.method == http::Method::kPost && request.path == core::kSystems;
  const std::uint64_t start = NowNs();
  if (compose_post) stats_.last_compose_post_ns = start;
  Result<http::Response> response = client_.Send(*out);
  const std::uint64_t end = NowNs();

  ++stats_.attempted;
  const int status = response.ok() ? response->status : 0;
  const OpClass cls = Classify(request.method, request.path, status);
  if (request.method == http::Method::kGet) {
    ++stats_.get_requests;
    if (status == 304) ++stats_.revalidated;
  }
  if (!response.ok() || IsFailureStatus(status)) {
    ++stats_.failed;
    if (stats_.errors.size() < 8) {
      stats_.errors.push_back(std::string(http::to_string(request.method)) + " " +
                              request.path + " -> " +
                              (response.ok() ? "HTTP " + std::to_string(status)
                                             : response.status().message()));
    }
  } else {
    stats_.req_latency.Add(end - start);
    stats_.class_latency[cls].Add(end - start);
    if (compose_post && status == 201) {
      stats_.composed_at[response->headers.GetOr("Location", "")] = end;
    } else if (cls == OpClass::kDecompose) {
      stats_.decomposed_at[request.path] = end;
    } else if (cls == OpClass::kCollection && !request.query.count("$top") &&
               !request.query.count("$skip") && !request.query.count("$fedskip")) {
      const auto expected = expected_members_.find(request.path);
      if (expected != expected_members_.end()) {
        auto doc = json::Parse(response->body.view());
        const long long count = doc.ok() ? doc->GetInt("Members@odata.count", -1) : -1;
        const long long listed = doc.ok() && doc->at("Members").is_array()
                                     ? static_cast<long long>(doc->at("Members").as_array().size())
                                     : -1;
        if (count != expected->second || listed != expected->second) {
          stats_.Fail(request.path + " counts " + std::to_string(count) + " and lists " +
                      std::to_string(listed) + " members, inventory has " +
                      std::to_string(expected->second));
        }
      }
    }
  }
  if (traced_) {
    SpanRec span;
    span.kind = SpanKind::kClient;
    span.req = id;
    span.start = start;
    span.end = end;
    span.cls = cls;
    span.status = static_cast<std::uint16_t>(status);
    SpanLog::Record(span);
  }
  return response;
}

std::uint64_t ThreadCpuNs() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

// ------------------------------------------------------------ event sink ---

http::Response EventSink::Handle(const http::Request& request) {
  const std::uint64_t start = NowNs();
  const int subscriber = request.path == "/sink/1" ? 1 : 0;
  auto doc = json::Parse(request.body.view());
  std::vector<SinkEvent> received;
  if (!doc.ok() || !doc->at("Events").is_array()) {
    malformed_.fetch_add(1);
  } else {
    for (const json::Json& entry : doc->at("Events").as_array()) {
      SinkEvent event;
      event.subscriber = subscriber;
      event.event_type = entry.GetString("EventType");
      event.message_id = entry.GetString("MessageId");
      event.event_id = entry.GetString("EventId");
      event.origin = entry.at("OriginOfCondition").GetString("@odata.id");
      received.push_back(std::move(event));
    }
  }
  const std::uint64_t end = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  for (SinkEvent& event : received) {
    event.start = start;
    event.end = end;
    events_.push_back(std::move(event));
  }
  return http::MakeEmptyResponse(204);
}

std::vector<SinkEvent> EventSink::Events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

// ------------------------------------------------------------- inventory ---

std::string BlockUri(const std::string& id) {
  return std::string(core::kResourceBlocks) + "/" + id;
}

std::string Deployment::RackLabel(int rack) { return "rack" + std::to_string(rack); }

std::vector<BlockSpec> InventoryBlocks() {
  std::vector<BlockSpec> blocks;
  const auto compute = [](const std::string& id, int rack) {
    core::BlockCapability c;
    c.id = id;
    c.block_type = "Compute";
    c.cores = kCoresPerComputeBlock;
    c.memory_gib = 128;
    c.locality = Deployment::RackLabel(rack);
    c.idle_watts = 90;
    c.active_watts = 310;
    return c;
  };
  const auto storage = [](const std::string& id, int rack, double gib) {
    core::BlockCapability c;
    c.id = id;
    c.block_type = "Storage";
    c.storage_gib = gib;
    c.locality = Deployment::RackLabel(rack);
    c.idle_watts = 8;
    c.active_watts = 25;
    return c;
  };
  for (int rack = 0; rack < kJobRacks; ++rack) {
    const int home = rack % kShards;
    const int other = (rack + 1) % kShards;
    const std::string prefix = "r" + std::to_string(rack);
    for (int i = 0; i < kComputePerRack; ++i) {
      blocks.push_back({compute(prefix + "-c" + std::to_string(i), rack), home});
    }
    for (int i = 0; i < kLocalStoragePerRack; ++i) {
      blocks.push_back(
          {storage(prefix + "-s" + std::to_string(i), rack, kLocalStorageGiB), home});
    }
    for (int i = 0; i < kRemoteStoragePerRack; ++i) {
      blocks.push_back(
          {storage(prefix + "-x" + std::to_string(i), rack, kRemoteStorageGiB), other});
    }
  }
  for (int i = 0; i < kResidentSystems; ++i) {
    const int shard = i % kShards;
    blocks.push_back({compute("res-c" + std::to_string(i), kJobRacks), shard});
    blocks.push_back({storage("res-s" + std::to_string(i), kJobRacks, kLocalStorageGiB), shard});
  }
  return blocks;
}

// ------------------------------------------------------------ deployment ---

namespace {

http::ServerHandler WrapHandler(http::ServerHandler inner, SpanKind kind, int shard) {
  return [inner = std::move(inner), kind, shard](const http::Request& request) {
    const std::uint64_t start = NowNs();
    http::Response response = inner(request);
    SpanRec span;
    span.kind = kind;
    span.req = RequestIdOf(request);
    span.start = start;
    span.end = NowNs();
    span.cls = Classify(request.method, request.path, response.status);
    span.shard = static_cast<std::uint8_t>(shard);
    span.status = static_cast<std::uint16_t>(response.status);
    SpanLog::Record(span);
    return response;
  };
}

std::string ShardId(int index) { return "s" + std::to_string(index + 1); }

Status Expect(const Result<http::Response>& response, int status, const std::string& what) {
  if (!response.ok()) return Status::Unavailable(what + ": " + response.status().message());
  if (response->status != status) {
    return Status::Internal(what + ": HTTP " + std::to_string(response->status));
  }
  return Status::Ok();
}

}  // namespace

Deployment::~Deployment() { Stop(); }

Status Deployment::StartShard(int index, bool traced) {
  auto shard = std::make_unique<Shard>();
  shard->id = ShardId(index);
  core::OfmfService& service = shard->service;
  OFMF_RETURN_IF_ERROR(service.Bootstrap());
  service.set_shard_identity(shard->id);

  // A fresh durable store on the regular disk: default group commit, fsync on.
  store::StoreOptions options;
  options.dir = store_dir_ + "/" + shard->id;
  std::error_code ec;
  std::filesystem::remove_all(options.dir, ec);
  auto persistent = store::PersistentStore::Open(options);
  if (!persistent.ok()) return persistent.status();
  auto recovered = service.EnableDurability(std::move(*persistent));
  if (!recovered.ok()) return recovered.status();

  // Tenants as `rest_server --qos --tenant ...` would create them.
  struct TenantDef {
    const char* id;
    const char* qos_class;
    std::uint32_t weight;
  };
  for (const TenantDef& def : {TenantDef{"slurm", "Guaranteed", 8},
                               TenantDef{"monitor", "Burstable", 1}}) {
    core::TenantInfo tenant;
    tenant.id = def.id;
    tenant.qos_class = def.qos_class;
    tenant.weight = def.weight;
    tenant.users = {def.id};
    service.sessions().AddUser(def.id, def.id);
    auto created = service.sessions().CreateTenant(tenant);
    if (!created.ok()) return created.status();
  }

  for (const BlockSpec& block : InventoryBlocks()) {
    if (block.shard != index) continue;
    auto uri = service.composition().RegisterBlock(block.capability);
    if (!uri.ok()) return uri.status();
  }

  http::ServerOptions server_options;
  // The classifier `rest_server --qos` installs: session tenant, else the
  // weight-1 "default" queue.
  server_options.tenant_classifier = [svc = &service](const http::Request& request) {
    qos::TenantSpec spec;
    const std::string tenant =
        svc->sessions().TenantOfToken(request.headers.GetOr("X-Auth-Token", ""));
    spec.id = tenant.empty() ? "default" : tenant;
    if (!tenant.empty()) {
      const auto info = svc->sessions().GetTenant(tenant);
      if (info.ok()) {
        spec.weight = info->weight;
        spec.rate_rps = info->rate_rps;
        spec.burst = info->burst;
      }
    }
    return spec;
  };
  http::ServerHandler handler = service.Handler();
  if (traced) handler = WrapHandler(std::move(handler), SpanKind::kShard, index);
  OFMF_RETURN_IF_ERROR(shard->server.Start(std::move(handler), 0, server_options));
  http::TcpServer* server = &shard->server;
  service.telemetry().SetTenantQosSource([server] { return server->TenantQosStats(); });

  shard->directory = std::make_unique<federation::DirectoryClient>(directory_server_.port());
  auto registered = shard->directory->Register(shard->id, shard->server.port());
  if (!registered.ok()) return registered.status();
  Shard* raw = shard.get();
  shard->heartbeat = std::thread([raw] {
    while (!raw->stop.load()) {
      const Status beat = raw->directory->Heartbeat(raw->id, raw->service.HealthStats());
      if (beat.code() == ErrorCode::kNotFound) {
        (void)raw->directory->Register(raw->id, raw->server.port());
      }
      for (int i = 0; i < 10 && !raw->stop.load(); ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
    }
  });
  shards_.push_back(std::move(shard));
  return Status::Ok();
}

Status Deployment::Start(const std::string& store_dir, bool traced) {
  store_dir_ = store_dir;
  stopped_ = false;
  http::ServerOptions small;
  small.workers = 2;
  OFMF_RETURN_IF_ERROR(directory_server_.Start(directory_.Handler(), 0, small));

  // Placement is a function of shard ids alone, so fabrics can be put on
  // their ring owners before any shard serves.
  federation::RoutingTable table;
  for (int i = 0; i < kShards; ++i) table.shards.emplace_back(ShardId(i), 0);
  const federation::HashRing ring(table);
  const auto root_owner = ring.OwnerOf(federation::kRootKey);
  for (int i = 0; i < kShards; ++i) {
    if (root_owner && *root_owner == ShardId(i)) default_shard_ = i;
  }

  for (int i = 0; i < kShards; ++i) OFMF_RETURN_IF_ERROR(StartShard(i, traced));

  std::vector<int> placed(kShards, 0);
  for (int candidate = 0; *std::min_element(placed.begin(), placed.end()) < kFabricsPerShard;
       ++candidate) {
    const std::string fabric_id = "fab" + std::to_string(candidate);
    const auto owner = ring.OwnerOf("fabric:" + fabric_id);
    if (!owner) return Status::Internal("empty ring");
    const int index = std::stoi(owner->substr(1)) - 1;
    if (placed[index] >= kFabricsPerShard) continue;
    OFMF_RETURN_IF_ERROR(
        shards_[index]->service.CreateFabricSkeleton(fabric_id, "NVMeoF", *owner));
    fabric_uris_.push_back(core::FabricUri(fabric_id));
    ++placed[index];
  }
  block_uris_.clear();
  for (const BlockSpec& block : InventoryBlocks()) {
    block_uris_.push_back(BlockUri(block.capability.id));
  }
  for (auto& shard : shards_) OFMF_RETURN_IF_ERROR(shard->service.FlushStore());

  router_ = std::make_unique<federation::FederationRouter>(
      std::make_shared<federation::DirectoryClient>(directory_server_.port()));
  http::ServerHandler router_handler = router_->Handler();
  if (traced) router_handler = WrapHandler(std::move(router_handler), SpanKind::kRouter, 0);
  OFMF_RETURN_IF_ERROR(router_server_.Start(std::move(router_handler), 0, {}));

  OFMF_RETURN_IF_ERROR(sink_server_.Start(
      [this](const http::Request& request) { return sink_.Handle(request); }, 0, small));

  // Push subscribers and resident systems, both through the router.
  http::TcpClient setup(router_server_.port(), 10000);
  for (int i = 0; i < 2; ++i) {
    const json::Json body = json::Json::Obj(
        {{"Destination", "http://127.0.0.1:" + std::to_string(sink_server_.port()) +
                             "/sink/" + std::to_string(i)},
         {"Protocol", "Redfish"},
         {"Context", "perfbench-" + std::to_string(i)},
         {"EventTypes", json::Json::Arr({"ResourceAdded", "ResourceRemoved"})}});
    auto created = setup.Send(http::MakeJsonRequest(http::Method::kPost, core::kSubscriptions, body));
    OFMF_RETURN_IF_ERROR(Expect(created, 201, "subscribe"));
  }
  for (int i = 0; i < kResidentSystems; ++i) {
    const json::Json body = json::Json::Obj(
        {{"Name", "resident-" + std::to_string(i)},
         {"Links",
          json::Json::Obj({{"ResourceBlocks",
                            odata::RefArray({BlockUri("res-c" + std::to_string(i)),
                                             BlockUri("res-s" + std::to_string(i))})}})}});
    auto created = setup.Send(http::MakeJsonRequest(http::Method::kPost, core::kSystems, body));
    OFMF_RETURN_IF_ERROR(Expect(created, 201, "compose resident system"));
    residents_.push_back(created->headers.GetOr("Location", ""));
  }
  return Status::Ok();
}

Status Deployment::RemoveResidents() {
  http::TcpClient client(router_server_.port(), 10000);
  for (const std::string& uri : residents_) {
    OFMF_RETURN_IF_ERROR(
        Expect(client.Send(http::MakeRequest(http::Method::kDelete, uri)), 204,
               "decompose " + uri));
  }
  residents_.clear();
  return Status::Ok();
}

void Deployment::Stop() {
  if (stopped_) return;
  stopped_ = true;
  for (auto& shard : shards_) {
    shard->stop.store(true);
    if (shard->heartbeat.joinable()) shard->heartbeat.join();
  }
  router_server_.Stop();
  for (auto& shard : shards_) {
    shard->server.Stop();
    (void)shard->service.FlushStore();
  }
  // Services first: their delivery engines must stop before the sink does.
  shards_.clear();
  router_.reset();
  sink_server_.Stop();
  directory_server_.Stop();
}

}  // namespace perfbench
