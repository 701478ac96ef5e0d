#include "ofmf/composition.hpp"

#include <cstdlib>
#include <set>

#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "common/strings.hpp"
#include "json/pointer.hpp"
#include "odata/annotations.hpp"
#include "ofmf/uris.hpp"

namespace ofmf::core {

json::Json BlockCapability::ToPayload() const {
  return json::Json::Obj({
      {"Id", id},
      {"Name", "Resource block " + id},
      {"ResourceBlockType", json::Json::Arr({block_type})},
      {"CompositionStatus",
       json::Json::Obj({{"CompositionState", "Unused"},
                        {"Reserved", false},
                        {"MaxCompositions", 1},
                        {"NumberOfCompositions", 0}})},
      {"Status", json::Json::Obj({{"State", "Enabled"}, {"Health", "OK"}})},
      {"Oem",
       json::Json::Obj({{"Ofmf", json::Json::Obj({{"Cores", cores},
                                                  {"MemoryGiB", memory_gib},
                                                  {"Gpus", gpus},
                                                  {"StorageGiB", storage_gib},
                                                  {"Locality", locality},
                                                  {"IdleWatts", idle_watts},
                                                  {"ActiveWatts", active_watts},
                                                  {"PathUtilization", path_utilization}})}})},
  });
}

BlockCapability CapabilityFromPayload(const json::Json& block) {
  BlockCapability capability;
  capability.id = block.GetString("Id");
  const json::Json& types = block.at("ResourceBlockType");
  if (types.is_array() && !types.as_array().empty() && types.as_array()[0].is_string()) {
    capability.block_type = types.as_array()[0].as_string();
  }
  const json::Json& oem = block.at("Oem").at("Ofmf");
  capability.cores = static_cast<int>(oem.GetInt("Cores"));
  capability.memory_gib = oem.GetDouble("MemoryGiB");
  capability.gpus = static_cast<int>(oem.GetInt("Gpus"));
  capability.storage_gib = oem.GetDouble("StorageGiB");
  capability.locality = oem.GetString("Locality");
  capability.idle_watts = oem.GetDouble("IdleWatts");
  capability.active_watts = oem.GetDouble("ActiveWatts");
  capability.path_utilization = oem.GetDouble("PathUtilization");
  return capability;
}

CompositionService::CompositionService(redfish::ResourceTree& tree, EventService& events)
    : tree_(tree), events_(events) {}

Status CompositionService::Bootstrap() {
  OFMF_RETURN_IF_ERROR(tree_.Create(
      kCompositionService, "#CompositionService.v1_2_0.CompositionService",
      json::Json::Obj(
          {{"Id", "CompositionService"},
           {"Name", "Composition Service"},
           {"ServiceEnabled", true},
           {"AllowOverprovisioning", false},
           {"AllowZoneAffinity", true},
           {"ResourceBlocks", json::Json::Obj({{"@odata.id", kResourceBlocks}})}})));
  return tree_.CreateCollection(
      kResourceBlocks, "#ResourceBlockCollection.ResourceBlockCollection",
      "Resource Blocks");
}

Result<std::string> CompositionService::RegisterBlock(const BlockCapability& capability) {
  if (capability.id.empty()) return Status::InvalidArgument("block id must be non-empty");
  const std::string uri = std::string(kResourceBlocks) + "/" + capability.id;
  OFMF_RETURN_IF_ERROR(
      tree_.Create(uri, "#ResourceBlock.v1_4_0.ResourceBlock", capability.ToPayload()));
  OFMF_RETURN_IF_ERROR(tree_.AddMember(kResourceBlocks, uri));
  return uri;
}

Status CompositionService::UnregisterBlock(const std::string& block_uri) {
  OFMF_ASSIGN_OR_RETURN(std::string state, BlockState(block_uri));
  if (state != "Unused") {
    return Status::FailedPrecondition("block is " + state + "; decompose first");
  }
  OFMF_RETURN_IF_ERROR(tree_.RemoveMember(kResourceBlocks, block_uri));
  return tree_.Delete(block_uri);
}

Result<std::string> CompositionService::BlockState(const std::string& block_uri) const {
  OFMF_ASSIGN_OR_RETURN(json::Json block, tree_.Get(block_uri));
  return block.at("CompositionStatus").GetString("CompositionState");
}

Status CompositionService::SetBlockPathUtilization(const std::string& block_uri,
                                                   double utilization) {
  if (!tree_.Exists(block_uri)) return Status::NotFound("no block: " + block_uri);
  return tree_.Patch(
      block_uri,
      json::Json::Obj(
          {{"Oem",
            json::Json::Obj({{"Ofmf", json::Json::Obj({{"PathUtilization",
                                                        utilization}})}})}}));
}

double CompositionService::UtilizationLimitFor(const std::string& qos_class) {
  if (qos_class == "Guaranteed") return 0.5;
  if (qos_class == "Burstable") return 0.85;
  return 1e9;  // BestEffort / unknown: unbounded
}

Result<CompositionService::QosPlacementCheck> CompositionService::EvaluateQosPlacement(
    const std::vector<std::string>& block_uris, const std::string& qos_class) const {
  QosPlacementCheck check;
  check.limit = UtilizationLimitFor(qos_class);
  std::string worst_block;
  for (const std::string& uri : block_uris) {
    OFMF_ASSIGN_OR_RETURN(json::Json block, tree_.Get(uri));
    const double utilization = CapabilityFromPayload(block).path_utilization;
    if (utilization > check.worst_utilization) {
      check.worst_utilization = utilization;
      worst_block = uri;
    }
  }
  if (check.worst_utilization > check.limit) {
    check.satisfied = false;
    check.reason = "QoS class '" + qos_class + "' needs path utilization <= " +
                   std::to_string(check.limit) + " but " + worst_block +
                   " sits at " + std::to_string(check.worst_utilization);
  }
  return check;
}

Status CompositionService::FreeBlock(const std::string& block_uri) {
  // The null drops any federation claim tag (merge-patch removal): a freed
  // block carrying a stale transaction would read as another shard's claim
  // once a later local Compose took it, and recovery would leak that claim.
  return tree_.Patch(
      block_uri,
      json::Json::Obj(
          {{"CompositionStatus",
            json::Json::Obj({{"CompositionState", "Unused"}, {"NumberOfCompositions", 0}})},
           {"Oem", json::Json::Obj({{"Ofmf", json::Json::Obj({{"ClaimedBy", nullptr}})}})}}));
}

Status CompositionService::ClaimBlock(const std::string& block_uri) {
  // CAS loop: read the block's state together with its ETag, then patch it
  // to Composed conditional on that ETag. A concurrent claimant advances the
  // version and our patch fails FailedPrecondition; reread and re-decide.
  for (int attempt = 0; attempt < 4; ++attempt) {
    OFMF_ASSIGN_OR_RETURN(json::Json block, tree_.Get(block_uri));
    const std::string state =
        block.at("CompositionStatus").GetString("CompositionState");
    if (state != "Unused") {
      return Status::FailedPrecondition("block " + block_uri + " is " + state);
    }
    const std::string etag = block.GetString("@odata.etag");
    const Status claimed = tree_.Patch(
        block_uri,
        json::Json::Obj({{"CompositionStatus",
                          json::Json::Obj({{"CompositionState", "Composed"},
                                           {"NumberOfCompositions", 1}})}}),
        etag);
    if (claimed.ok()) return Status::Ok();
    if (claimed.code() != ErrorCode::kFailedPrecondition) return claimed;
  }
  return Status::FailedPrecondition("block " + block_uri +
                                    " is contended; claim lost repeatedly");
}

void CompositionService::ReleaseBlocks(const std::vector<std::string>& block_uris) {
  for (const std::string& uri : block_uris) {
    (void)FreeBlock(uri);
  }
}

Result<std::string> CompositionService::Compose(
    const std::string& name, const std::vector<std::string>& block_uris) {
  if (block_uris.empty()) {
    return Status::InvalidArgument("composition requires at least one resource block");
  }
  for (std::size_t i = 0; i < block_uris.size(); ++i) {
    for (std::size_t j = i + 1; j < block_uris.size(); ++j) {
      if (block_uris[i] == block_uris[j]) {
        return Status::InvalidArgument("block " + block_uris[i] + " listed twice");
      }
    }
  }

  static metrics::Histogram& compose_latency =
      metrics::Registry::instance().histogram("compose.total.ns");
  static metrics::Histogram& claim_latency =
      metrics::Registry::instance().histogram("compose.claim.ns");
  static metrics::Histogram& create_latency =
      metrics::Registry::instance().histogram("compose.create.ns");
  metrics::ScopedTimer total_timer(compose_latency);

  // Claim phase: CAS each block Unused -> Composed. On the first failure,
  // everything already claimed is rolled back and the error surfaces; no
  // partially composed state survives.
  std::vector<std::string> claimed;
  claimed.reserve(block_uris.size());
  {
    trace::Span claim_span("compose.claim");
    if (claim_span.active()) {
      claim_span.Note(std::to_string(block_uris.size()) + " blocks");
    }
    metrics::ScopedTimer claim_timer(claim_latency);
    for (const std::string& uri : block_uris) {
      const Status claim = ClaimBlock(uri);
      if (!claim.ok()) {
        if (claim_span.active()) claim_span.Note("error: " + claim.message());
        ReleaseBlocks(claimed);
        return claim;
      }
      claimed.push_back(uri);
    }
  }

  trace::Span create_span("compose.create");
  metrics::ScopedTimer create_timer(create_latency);

  const std::string id = NextSystemId();
  const std::string system_uri = std::string(kSystems) + "/" + id;
  if (create_span.active()) create_span.Note(system_uri);
  const auto abort_compose = [&](const Status& failure) {
    if (tree_.Exists(system_uri)) {
      (void)tree_.RemoveMember(kSystems, system_uri);
      (void)tree_.Delete(system_uri);
    }
    ReleaseBlocks(claimed);
    return failure;
  };

  json::Json payload = json::Json::Obj({
      {"Id", id},
      {"Name", name},
      {"SystemType", "Composed"},
      {"PowerState", "On"},
      {"Status", json::Json::Obj({{"State", "Enabled"}, {"Health", "OK"}})},
      {"Links",
       json::Json::Obj({{"ResourceBlocks", odata::RefArray(block_uris)}})},
  });
  const Status created = tree_.Create(
      system_uri, "#ComputerSystem.v1_20_0.ComputerSystem", std::move(payload));
  if (!created.ok()) return abort_compose(created);
  const Status membered = tree_.AddMember(kSystems, system_uri);
  if (!membered.ok()) return abort_compose(membered);
  const Status summarized = RefreshSummaries(system_uri);
  if (!summarized.ok()) return abort_compose(summarized);

  Event event;
  event.event_type = "ResourceAdded";
  event.message_id = "CompositionService.1.0.SystemComposed";
  event.message = "composed system " + id + " from " +
                  std::to_string(block_uris.size()) + " blocks";
  event.origin = system_uri;
  events_.Publish(event);
  return system_uri;
}

std::string CompositionService::NextSystemId() {
  std::string id = "composed-";
  if (!system_id_prefix_.empty()) id += system_id_prefix_ + "-";
  id += std::to_string(next_system_id_++);
  return id;
}

Result<std::string> CompositionService::ComposeAdopted(
    const std::string& name, const std::vector<std::string>& local_block_uris,
    const std::vector<RemoteBlock>& remote_blocks, const std::string& txn) {
  if (local_block_uris.empty() && remote_blocks.empty()) {
    return Status::InvalidArgument("federated composition requires at least one block");
  }
  for (std::size_t i = 0; i < local_block_uris.size(); ++i) {
    for (std::size_t j = i + 1; j < local_block_uris.size(); ++j) {
      if (local_block_uris[i] == local_block_uris[j]) {
        return Status::InvalidArgument("block " + local_block_uris[i] + " listed twice");
      }
    }
  }
  // Verify the router's wire claims: every local block must exist and hold
  // Composed (the router CAS-claimed it through the Redfish PATCH path
  // before this call). No claims are taken here — and none are released on
  // failure, because the router owns the two-phase rollback.
  for (const std::string& uri : local_block_uris) {
    OFMF_ASSIGN_OR_RETURN(json::Json block, tree_.Get(uri));
    const std::string state =
        block.at("CompositionStatus").GetString("CompositionState");
    if (state != "Composed") {
      return Status::FailedPrecondition(
          "block " + uri + " is " + state +
          "; federated composition requires pre-claimed blocks");
    }
  }

  const std::string id = NextSystemId();
  const std::string system_uri = std::string(kSystems) + "/" + id;
  const auto abort_compose = [&](const Status& failure) {
    if (tree_.Exists(system_uri)) {
      (void)tree_.RemoveMember(kSystems, system_uri);
      (void)tree_.Delete(system_uri);
    }
    return failure;
  };

  json::Array remote_json;
  remote_json.reserve(remote_blocks.size());
  for (const RemoteBlock& remote : remote_blocks) {
    remote_json.push_back(json::Json::Obj({{"Uri", remote.uri},
                                           {"ShardId", remote.shard_id},
                                           {"Payload", remote.payload}}));
  }
  json::Json payload = json::Json::Obj({
      {"Id", id},
      {"Name", name},
      {"SystemType", "Composed"},
      {"PowerState", "On"},
      {"Status", json::Json::Obj({{"State", "Enabled"}, {"Health", "OK"}})},
      {"Links",
       json::Json::Obj({{"ResourceBlocks", odata::RefArray(local_block_uris)}})},
      {"Oem",
       json::Json::Obj(
           {{"Ofmf",
             json::Json::Obj(
                 {{"Federation",
                   json::Json::Obj({{"Txn", txn},
                                    {"RemoteBlocks",
                                     json::Json(std::move(remote_json))}})}})}})},
  });
  const Status created = tree_.Create(
      system_uri, "#ComputerSystem.v1_20_0.ComputerSystem", std::move(payload));
  if (!created.ok()) return abort_compose(created);
  const Status membered = tree_.AddMember(kSystems, system_uri);
  if (!membered.ok()) return abort_compose(membered);
  const Status summarized = RefreshSummaries(system_uri);
  if (!summarized.ok()) return abort_compose(summarized);

  Event event;
  event.event_type = "ResourceAdded";
  event.message_id = "CompositionService.1.0.SystemComposed";
  event.message = "composed federated system " + id + " from " +
                  std::to_string(local_block_uris.size()) + " local and " +
                  std::to_string(remote_blocks.size()) + " remote blocks";
  event.origin = system_uri;
  events_.Publish(event);
  return system_uri;
}

Status CompositionService::Decompose(const std::string& system_uri) {
  static metrics::Histogram& decompose_latency =
      metrics::Registry::instance().histogram("decompose.total.ns");
  metrics::ScopedTimer timer(decompose_latency);
  trace::Span span("decompose");
  if (span.active()) span.Note(system_uri);
  Result<std::vector<std::string>> blocks = BlocksOf(system_uri);
  if (!blocks.ok()) {
    // Already gone: the desired end state holds, so a replayed DELETE (lost
    // response, retrying client) converges instead of erroring.
    if (blocks.status().code() == ErrorCode::kNotFound) return Status::Ok();
    return blocks.status();
  }
  for (const std::string& block_uri : *blocks) {
    const Status freed = FreeBlock(block_uri);
    if (!freed.ok() && freed.code() != ErrorCode::kNotFound) return freed;
  }
  OFMF_RETURN_IF_ERROR(tree_.RemoveMember(kSystems, system_uri));
  OFMF_RETURN_IF_ERROR(tree_.Delete(system_uri));
  Event event;
  event.event_type = "ResourceRemoved";
  event.message_id = "CompositionService.1.0.SystemDecomposed";
  event.message = "decomposed " + system_uri;
  event.origin = system_uri;
  events_.Publish(event);
  return Status::Ok();
}

Status CompositionService::ExpandSystem(const std::string& system_uri,
                                        const std::string& block_uri) {
  OFMF_ASSIGN_OR_RETURN(json::Json system, tree_.GetRaw(system_uri));
  const json::Json* blocks = json::ResolvePointerRef(system, "/Links/ResourceBlocks");
  if (blocks == nullptr || !blocks->is_array()) {
    return Status::FailedPrecondition(system_uri + " is not a composed system");
  }
  // Claim before linking, so a concurrent compose can never take the same
  // block; unwind the claim if attaching it to the system fails.
  OFMF_RETURN_IF_ERROR(ClaimBlock(block_uri));
  json::Json updated_blocks = *blocks;
  updated_blocks.as_array().push_back(odata::Ref(block_uri));
  const Status linked = tree_.Patch(
      system_uri,
      json::Json::Obj({{"Links", json::Json::Obj({{"ResourceBlocks", updated_blocks}})}}));
  if (!linked.ok()) {
    (void)FreeBlock(block_uri);
    return linked;
  }
  const Status summarized = RefreshSummaries(system_uri);
  if (!summarized.ok()) {
    (void)tree_.Patch(system_uri, json::Json::Obj({{"Links",
                                                    json::Json::Obj(
                                                        {{"ResourceBlocks", *blocks}})}}));
    (void)FreeBlock(block_uri);
    return summarized;
  }

  Event event;
  event.event_type = "ResourceUpdated";
  event.message_id = "CompositionService.1.0.SystemExpanded";
  event.message = "expanded " + system_uri + " with " + block_uri;
  event.origin = system_uri;
  events_.Publish(event);
  return Status::Ok();
}

std::vector<std::string> CompositionService::FreeBlockUris() const {
  std::vector<std::string> free;
  for (const std::string& uri : tree_.UrisUnder(kResourceBlocks)) {
    if (uri == kResourceBlocks) continue;
    const Result<json::Json> block = tree_.Get(uri);
    if (block.ok() &&
        block->at("CompositionStatus").GetString("CompositionState") == "Unused") {
      free.push_back(uri);
    }
  }
  return free;
}

Result<std::vector<std::string>> CompositionService::BlocksOf(
    const std::string& system_uri) const {
  OFMF_ASSIGN_OR_RETURN(json::Json system, tree_.GetRaw(system_uri));
  const json::Json* blocks = json::ResolvePointerRef(system, "/Links/ResourceBlocks");
  if (blocks == nullptr || !blocks->is_array()) {
    return Status::FailedPrecondition(system_uri + " is not a composed system");
  }
  std::vector<std::string> uris;
  for (const json::Json& entry : blocks->as_array()) {
    const std::string uri = odata::IdOf(entry);
    if (!uri.empty()) uris.push_back(uri);
  }
  return uris;
}

Result<CompositionService::CompositionRecovery> CompositionService::RecoverConsistency() {
  CompositionRecovery recovery;

  std::vector<std::string> systems;
  std::uint64_t max_id = 0;
  const std::string id_prefix =
      system_id_prefix_.empty() ? "composed-" : "composed-" + system_id_prefix_ + "-";
  for (const std::string& uri : tree_.UrisUnder(kSystems)) {
    if (uri == kSystems) continue;
    const std::size_t slash = uri.rfind('/');
    const std::string id = uri.substr(slash + 1);
    if (strings::StartsWith(id, id_prefix)) {
      char* end = nullptr;
      const unsigned long long n =
          std::strtoull(id.c_str() + id_prefix.size(), &end, 10);
      if (end != nullptr && *end == '\0' && n > max_id) max_id = n;
    }
    systems.push_back(uri);
  }
  if (max_id >= next_system_id_) next_system_id_ = max_id + 1;

  std::set<std::string> held;  // block URIs owned by an adopted system
  for (const std::string& system_uri : systems) {
    const Result<json::Json> system = tree_.GetRaw(system_uri);
    if (!system.ok() || system->GetString("SystemType") != "Composed") continue;
    // A federated system (router two-phase compose) may hold zero LOCAL
    // blocks — its remote blocks live on other shards and are not checkable
    // here — so emptiness alone is not "half-composed" for it.
    const bool federated =
        json::ResolvePointerRef(*system, "/Oem/Ofmf/Federation") != nullptr;
    const Result<std::vector<std::string>> blocks = BlocksOf(system_uri);
    bool intact = blocks.ok() && (federated || !blocks->empty());
    if (intact) {
      for (const std::string& block_uri : *blocks) {
        const Result<std::string> state = BlockState(block_uri);
        if (!state.ok() || *state != "Composed") {
          intact = false;
          break;
        }
      }
    }
    if (intact) {
      ++recovery.systems_adopted;
      for (const std::string& block_uri : *blocks) held.insert(block_uri);
      continue;
    }
    // Half-composed (crashed mid-Compose, or a block vanished with its
    // fabric): free what it did claim and delete it, the failed-Compose
    // unwind replayed at recovery time.
    if (blocks.ok()) {
      for (const std::string& block_uri : *blocks) {
        if (tree_.Exists(block_uri)) (void)FreeBlock(block_uri);
      }
    }
    (void)tree_.RemoveMember(kSystems, system_uri);
    OFMF_RETURN_IF_ERROR(tree_.Delete(system_uri));
    ++recovery.systems_rolled_back;
  }

  for (const std::string& block_uri : tree_.UrisUnder(kResourceBlocks)) {
    if (block_uri == kResourceBlocks || held.count(block_uri) != 0) continue;
    const Result<json::Json> block = tree_.Get(block_uri);
    if (!block.ok()) continue;
    if (block->at("CompositionStatus").GetString("CompositionState") != "Composed") {
      continue;
    }
    // A claim stamped with a federation transaction id (Oem.Ofmf.ClaimedBy)
    // belongs to a system on ANOTHER shard: the router's two-phase compose
    // took it over the wire, and only the router (rollback) or a federated
    // decompose releases it. Local recovery must not free it.
    if (!block->at("Oem").at("Ofmf").GetString("ClaimedBy").empty()) continue;
    OFMF_RETURN_IF_ERROR(FreeBlock(block_uri));
    ++recovery.claims_released;
  }
  return recovery;
}

Status CompositionService::RefreshSummaries(const std::string& system_uri) {
  OFMF_ASSIGN_OR_RETURN(std::vector<std::string> blocks, BlocksOf(system_uri));
  int cores = 0;
  double memory_gib = 0.0;
  int gpus = 0;
  double storage_gib = 0.0;
  for (const std::string& block_uri : blocks) {
    OFMF_ASSIGN_OR_RETURN(json::Json block, tree_.Get(block_uri));
    const BlockCapability capability = CapabilityFromPayload(block);
    cores += capability.cores;
    memory_gib += capability.memory_gib;
    gpus += capability.gpus;
    storage_gib += capability.storage_gib;
  }
  // Adopted remote blocks (federated composition) contribute their claimed
  // capability payloads; they are not resolvable through this shard's tree.
  OFMF_ASSIGN_OR_RETURN(json::Json system, tree_.GetRaw(system_uri));
  const json::Json* remote =
      json::ResolvePointerRef(system, "/Oem/Ofmf/Federation/RemoteBlocks");
  if (remote != nullptr && remote->is_array()) {
    for (const json::Json& entry : remote->as_array()) {
      const BlockCapability capability = CapabilityFromPayload(entry.at("Payload"));
      cores += capability.cores;
      memory_gib += capability.memory_gib;
      gpus += capability.gpus;
      storage_gib += capability.storage_gib;
    }
  }
  return tree_.Patch(
      system_uri,
      json::Json::Obj(
          {{"ProcessorSummary", json::Json::Obj({{"CoreCount", cores}})},
           {"MemorySummary", json::Json::Obj({{"TotalSystemMemoryGiB", memory_gib}})},
           {"Oem", json::Json::Obj({{"Ofmf", json::Json::Obj({{"Gpus", gpus},
                                                              {"StorageGiB",
                                                               storage_gib}})}})}}));
}

}  // namespace ofmf::core
