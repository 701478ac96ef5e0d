// Federation tier tests: consistent-hash routing, the directory's epoch/ETag
// protocol and liveness, scatter-gather collection aggregation with stable
// cross-shard paging, partial-failure behavior (shard death mid-aggregation
// and mid-two-phase-compose), idempotent compose retry, and the pooled
// keep-alive event delivery client. Runs under the TSan/ASan CI jobs.
#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/faults.hpp"
#include "common/trace.hpp"
#include "federation/directory.hpp"
#include "federation/directory_client.hpp"
#include "federation/fleet.hpp"
#include "federation/router.hpp"
#include "federation/routing.hpp"
#include "http/resilience.hpp"
#include "http/server.hpp"
#include "json/parse.hpp"
#include "json/pointer.hpp"
#include "ofmf/service.hpp"
#include "ofmf/uris.hpp"

namespace ofmf {
namespace {

using federation::DirectoryClient;
using federation::DirectoryOptions;
using federation::DirectoryService;
using federation::FederationRouter;
using federation::HashRing;
using federation::RoutingTable;
using federation::ShardInfo;
using json::Json;
using ::testing::HasSubstr;

// ------------------------------------------------------------ ring + table --

RoutingTable MakeTable(std::vector<ShardInfo> shards, std::uint64_t epoch = 1) {
  RoutingTable table;
  table.epoch = epoch;
  table.shards = std::move(shards);
  std::sort(table.shards.begin(), table.shards.end(),
            [](const ShardInfo& a, const ShardInfo& b) { return a.id < b.id; });
  return table;
}

TEST(FederationRoutingTest, RoutingTableJsonRoundTrip) {
  const RoutingTable table =
      MakeTable({{"s1", 8081, true}, {"s2", 8082, false}}, 7);
  const auto parsed = RoutingTable::FromJson(table.ToJson());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->epoch, 7u);
  ASSERT_EQ(parsed->shards.size(), 2u);
  EXPECT_EQ(parsed->shards[0].id, "s1");
  EXPECT_EQ(parsed->shards[0].port, 8081);
  EXPECT_TRUE(parsed->shards[0].alive);
  EXPECT_EQ(parsed->shards[1].id, "s2");
  EXPECT_FALSE(parsed->shards[1].alive);
  EXPECT_EQ(parsed->AliveCount(), 1u);
}

TEST(FederationRoutingTest, RingPlacementIgnoresLivenessAndEpoch) {
  const RoutingTable all_alive =
      MakeTable({{"a", 1, true}, {"b", 2, true}, {"c", 3, true}}, 1);
  const RoutingTable b_dead =
      MakeTable({{"a", 1, true}, {"b", 2, false}, {"c", 3, true}}, 9);
  const HashRing ring1(all_alive);
  const HashRing ring2(b_dead);
  std::set<std::string> owners;
  for (int i = 0; i < 512; ++i) {
    const std::string key = "fabric:fab" + std::to_string(i);
    const auto owner1 = ring1.OwnerOf(key);
    const auto owner2 = ring2.OwnerOf(key);
    ASSERT_TRUE(owner1.has_value());
    // A liveness flip must not re-home any key.
    EXPECT_EQ(*owner1, *owner2) << key;
    owners.insert(*owner1);
  }
  // 512 keys over 3 shards with 128 vnodes each: every shard owns some.
  EXPECT_EQ(owners.size(), 3u);
}

TEST(FederationRoutingTest, ShardKeyForPath) {
  EXPECT_EQ(federation::ShardKeyForPath("/redfish/v1/Fabrics/ib0"), "fabric:ib0");
  EXPECT_EQ(federation::ShardKeyForPath("/redfish/v1/Fabrics/ib0/Endpoints/n1"),
            "fabric:ib0");
  EXPECT_FALSE(federation::ShardKeyForPath("/redfish/v1/Fabrics").has_value());
  EXPECT_FALSE(federation::ShardKeyForPath("/redfish/v1/Systems/x").has_value());
  EXPECT_FALSE(federation::ShardKeyForPath("/redfish/v1").has_value());
}

// -------------------------------------------------------------- directory --

TEST(DirectoryTest, EpochAdvancesOnMembershipAndLivenessFlips) {
  DirectoryOptions options;
  options.heartbeat_timeout_ms = 100;
  DirectoryService directory(options);
  EXPECT_EQ(directory.Register("s1", 8081), 1u);
  EXPECT_EQ(directory.Register("s2", 8082), 2u);
  // Re-registration on the same port is a heartbeat, not a membership change.
  EXPECT_EQ(directory.Register("s1", 8081), 2u);
  // ... but a port change re-homes the shard's transport: epoch bump.
  EXPECT_EQ(directory.Register("s1", 9091), 3u);
  EXPECT_EQ(directory.Heartbeat("ghost").code(), ErrorCode::kNotFound);

  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  const RoutingTable dead = directory.Table();
  EXPECT_GT(dead.epoch, 3u);  // both liveness flips bumped it
  EXPECT_EQ(dead.AliveCount(), 0u);

  ASSERT_TRUE(directory.Heartbeat("s2").ok());
  const RoutingTable revived = directory.Table();
  EXPECT_GT(revived.epoch, dead.epoch);
  ASSERT_NE(revived.Find("s2"), nullptr);
  EXPECT_TRUE(revived.Find("s2")->alive);
  ASSERT_NE(revived.Find("s1"), nullptr);
  EXPECT_FALSE(revived.Find("s1")->alive);
}

TEST(DirectoryTest, ClientRevalidatesWithEtagAndGets304) {
  DirectoryService directory;
  DirectoryClient client(
      std::make_unique<http::InProcessClient>(directory.Handler()),
      /*max_age_ms=*/0);
  directory.Register("s1", 8081);

  const auto first = client.Table();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ((*first)->shards.size(), 1u);
  const auto second = client.Table();  // stale by max_age 0: revalidates
  ASSERT_TRUE(second.ok());
  EXPECT_EQ((*second)->epoch, (*first)->epoch);
  EXPECT_EQ(second->get(), first->get()) << "a 304 hands back the same snapshot";
  EXPECT_GE(client.revalidations_sent(), 1u);
  EXPECT_GE(client.revalidations_not_modified(), 1u);

  directory.Register("s2", 8082);  // epoch bump invalidates the ETag
  const auto third = client.Table();
  ASSERT_TRUE(third.ok());
  EXPECT_GT((*third)->epoch, (*first)->epoch);
  EXPECT_EQ((*third)->shards.size(), 2u);
}

TEST(DirectoryTest, ClientServesStaleCacheThroughDirectoryOutage) {
  DirectoryService directory;
  auto faults = std::make_shared<FaultInjector>(7);
  DirectoryClient client(
      std::make_unique<http::FaultyClient>(
          std::make_unique<http::InProcessClient>(directory.Handler()), faults),
      /*max_age_ms=*/0);
  directory.Register("s1", 8081);
  const auto warm = client.Table();
  ASSERT_TRUE(warm.ok());

  faults->ArmProbability("http.client", FaultKind::kDropConnection, 1.0);
  const auto stale = client.Table();
  ASSERT_TRUE(stale.ok()) << "directory outage must serve the cached table";
  EXPECT_EQ((*stale)->epoch, (*warm)->epoch);
  EXPECT_EQ((*stale)->shards.size(), 1u);
}

// ------------------------------------------------------- federated fixture --

/// A directory + N real TCP shards + a router, with disjoint block
/// inventories per shard ("b<shard>-<i>").
class FederationFixture : public ::testing::Test {
 protected:
  struct Shard {
    std::string id;
    core::OfmfService service;
    http::TcpServer server;
  };

  void StartShards(int count, int blocks_per_shard) {
    for (int s = 0; s < count; ++s) {
      auto shard = std::make_unique<Shard>();
      shard->id = "s" + std::to_string(s + 1);
      ASSERT_TRUE(shard->service.Bootstrap().ok());
      shard->service.set_shard_identity(shard->id);
      for (int i = 0; i < blocks_per_shard; ++i) {
        core::BlockCapability block;
        block.id = "b" + shard->id + "-" + std::to_string(i);
        block.block_type = "Compute";
        block.cores = 8;
        block.memory_gib = 32;
        ASSERT_TRUE(shard->service.composition().RegisterBlock(block).ok());
      }
      http::ServerHandler handler = shard->service.Handler();
      if (const auto stall = stalls_.find(shard->id); stall != stalls_.end()) {
        handler = [inner = std::move(handler), stall = stall->second,
                   stopping = &stopping_](const http::Request& request) {
          if (request.path == stall.path) {
            const auto until = std::chrono::steady_clock::now() +
                               std::chrono::milliseconds(stall.ms);
            while (std::chrono::steady_clock::now() < until && !stopping->load()) {
              std::this_thread::sleep_for(std::chrono::milliseconds(5));
            }
          }
          return inner(request);
        };
      }
      ASSERT_TRUE(shard->server.Start(std::move(handler), 0).ok());
      directory_.Register(shard->id, shard->server.port());
      shards_.push_back(std::move(shard));
    }
    router_ = std::make_unique<FederationRouter>(
        std::make_shared<DirectoryClient>(
            std::make_unique<http::InProcessClient>(directory_.Handler()),
            /*max_age_ms=*/0),
        router_options_);
    router_->set_fault_injector(faults_);
  }

  void TearDown() override {
    stopping_ = true;  // releases stalled handlers so Stop() drains at once
    for (auto& shard : shards_) shard->server.Stop();
  }

  /// Shard `id`'s handler sleeps `ms` before serving requests for `path`
  /// (until TearDown). Set before StartShards.
  void Stall(const std::string& id, const std::string& path, int ms) {
    stalls_[id] = StallSpec{path, ms};
  }

  /// Wall time of one routed request, in milliseconds.
  template <typename Fn>
  static double TimedMs(Fn&& fn) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                     start)
        .count();
  }

  Shard& shard(const std::string& id) {
    for (auto& s : shards_) {
      if (s->id == id) return *s;
    }
    ADD_FAILURE() << "no shard " << id;
    return *shards_.front();
  }

  http::Response Route(http::Request request) { return router_->Route(request); }

  Json GetJson(const std::string& target, int expect_status = 200) {
    const http::Response response =
        Route(http::MakeRequest(http::Method::kGet, target));
    EXPECT_EQ(response.status, expect_status) << target << ": " << response.body.view();
    auto doc = json::Parse(response.body.view());
    EXPECT_TRUE(doc.ok()) << target;
    return doc.ok() ? std::move(doc.value()) : Json();
  }

  std::string BlockUri(const std::string& shard_id, int i) {
    return std::string(core::kResourceBlocks) + "/b" + shard_id + "-" +
           std::to_string(i);
  }

  /// A block's payload read straight from its shard (null when unreadable).
  Json BlockDoc(const std::string& shard_id, const std::string& uri) {
    http::InProcessClient direct(shard(shard_id).service.Handler());
    const auto response = direct.Send(http::MakeRequest(http::Method::kGet, uri));
    if (!response.ok() || !response.value().ok()) return Json();
    auto doc = json::Parse(response.value().body.view());
    return doc.ok() ? std::move(doc.value()) : Json();
  }

  std::string BlockState(const std::string& shard_id, const std::string& uri) {
    const Json doc = BlockDoc(shard_id, uri);
    if (!doc.is_object()) return "<unreadable>";
    return doc.at("CompositionStatus").GetString("CompositionState");
  }

  std::vector<std::string> Members(const Json& collection) {
    std::vector<std::string> uris;
    const Json& members = collection.at("Members");
    if (members.is_array()) {
      for (const Json& member : members.as_array()) {
        uris.push_back(member.GetString("@odata.id"));
      }
    }
    return uris;
  }

  Json ComposeBody(const std::vector<std::string>& block_uris,
                   const std::string& name = "fed-job") {
    json::Array refs;
    for (const std::string& uri : block_uris) {
      refs.push_back(Json::Obj({{"@odata.id", uri}}));
    }
    return Json::Obj(
        {{"Name", name},
         {"Links", Json::Obj({{"ResourceBlocks", Json(std::move(refs))}})}});
  }

  struct StallSpec {
    std::string path;
    int ms = 0;
  };

  DirectoryService directory_;
  std::shared_ptr<FaultInjector> faults_ = std::make_shared<FaultInjector>(2026);
  federation::RouterOptions router_options_;
  std::map<std::string, StallSpec> stalls_;
  std::atomic<bool> stopping_{false};
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<FederationRouter> router_;
};

// ------------------------------------------------------ routing + fan-out --

TEST_F(FederationFixture, FabricPathsRouteToRingOwner) {
  StartShards(2, 0);
  const HashRing ring(directory_.Table());
  // Create each fabric on the shard the ring says owns it, then read it back
  // through the router: the request must land on that same shard.
  for (int i = 0; i < 4; ++i) {
    const std::string fabric_id = "fab" + std::to_string(i);
    const auto owner = ring.OwnerOf("fabric:" + fabric_id);
    ASSERT_TRUE(owner.has_value());
    ASSERT_TRUE(shard(*owner).service
                    .CreateFabricSkeleton(fabric_id, "NVMeoF", *owner)
                    .ok());
    const Json fabric = GetJson(core::FabricUri(fabric_id));
    EXPECT_EQ(fabric.GetString("Id"), fabric_id);
  }
  EXPECT_GE(router_->stats().forwarded, 4u);
}

TEST_F(FederationFixture, ServiceRootCarriesFederationView) {
  StartShards(2, 0);
  const Json root = GetJson(core::kServiceRoot);
  const Json* federation = json::ResolvePointerRef(root, "/Oem/Ofmf/Federation");
  ASSERT_NE(federation, nullptr);
  EXPECT_EQ(federation->GetInt("Shards"), 2);
  EXPECT_EQ(federation->GetInt("AliveShards"), 2);
  EXPECT_GT(federation->GetInt("Epoch"), 0);
}

TEST_F(FederationFixture, AggregatedCollectionMergesAllShards) {
  StartShards(2, 2);
  const Json merged = GetJson(core::kResourceBlocks);
  EXPECT_EQ(merged.GetInt("Members@odata.count"), 4);
  const auto members = Members(merged);
  ASSERT_EQ(members.size(), 4u);
  EXPECT_THAT(members, ::testing::UnorderedElementsAre(
                           BlockUri("s1", 0), BlockUri("s1", 1),
                           BlockUri("s2", 0), BlockUri("s2", 1)));
  EXPECT_GE(router_->stats().aggregations, 1u);
}

TEST_F(FederationFixture, PagingWalksShardsWithStableContinuation) {
  StartShards(3, 2);  // 6 members federation-wide
  std::vector<std::string> walked;
  std::string target = std::string(core::kResourceBlocks) + "?$top=2";
  int pages = 0;
  while (!target.empty() && pages++ < 10) {
    const Json page = GetJson(target);
    EXPECT_EQ(page.GetInt("Members@odata.count"), 6) << "count is the federation total";
    for (const std::string& uri : Members(page)) walked.push_back(uri);
    target = page.GetString("@odata.nextLink");
    if (!target.empty()) {
      EXPECT_THAT(target, HasSubstr("$fedskip=")) << "continuation must be shard-stable";
      EXPECT_THAT(target, HasSubstr("$top=2")) << "page size must survive the walk";
    }
  }
  ASSERT_EQ(walked.size(), 6u);
  // No duplicates, nothing missed: the walk is the exact member set.
  const std::set<std::string> unique(walked.begin(), walked.end());
  EXPECT_EQ(unique.size(), 6u);
  const Json full = GetJson(core::kResourceBlocks);
  EXPECT_THAT(Members(full), ::testing::UnorderedElementsAreArray(walked));
}

TEST_F(FederationFixture, GlobalSkipTranslatesAcrossShardBoundaries) {
  StartShards(2, 3);  // 6 members: s1 holds [0..2], s2 holds [3..5]
  const auto all = Members(GetJson(core::kResourceBlocks));
  ASSERT_EQ(all.size(), 6u);
  // A window straddling the shard boundary: global skip 2, top 3 -> [2..4].
  const Json window =
      GetJson(std::string(core::kResourceBlocks) + "?$skip=2&$top=3");
  const auto members = Members(window);
  ASSERT_EQ(members.size(), 3u);
  EXPECT_EQ(members[0], all[2]);
  EXPECT_EQ(members[1], all[3]);
  EXPECT_EQ(members[2], all[4]);
}

TEST_F(FederationFixture, ShardDeathMidScatterGatherAnnotatesOmission) {
  StartShards(2, 2);
  // Warm the per-shard count cache with one healthy aggregation.
  (void)GetJson(core::kResourceBlocks);
  faults_->ArmProbability("federation.shard.s2", FaultKind::kDropConnection, 1.0);

  const Json degraded = GetJson(core::kResourceBlocks);
  EXPECT_EQ(degraded.GetInt("Members@odata.count"), 2) << "only s1 contributed";
  EXPECT_EQ(Members(degraded).size(), 2u);
  const Json* oem = json::ResolvePointerRef(degraded, "/Oem/Ofmf");
  ASSERT_NE(oem, nullptr);
  EXPECT_EQ(oem->GetInt("MembersOmittedCount"), 2)
      << "the dead shard's last known count is surfaced";
  ASSERT_TRUE(oem->at("DegradedShards").is_array());
  ASSERT_EQ(oem->at("DegradedShards").as_array().size(), 1u);
  EXPECT_EQ(oem->at("DegradedShards").as_array()[0].as_string(), "s2");
  EXPECT_GE(router_->stats().degraded_aggregations, 1u);

  faults_->Disarm("federation.shard.s2");
  const Json healed = GetJson(core::kResourceBlocks);
  EXPECT_EQ(healed.GetInt("Members@odata.count"), 4);
  EXPECT_EQ(json::ResolvePointerRef(healed, "/Oem/Ofmf/MembersOmittedCount"), nullptr);
}

// ------------------------------------------- multiplexed scatter-gather --

constexpr int kStallMs = 200;

TEST_F(FederationFixture, ScatterLegsOverlapInsteadOfQueueing) {
  // Both shards take D to answer the collection: legs that ran one after
  // another would need 2D; one multiplexed exchange needs about D.
  Stall("s1", core::kResourceBlocks, kStallMs);
  Stall("s2", core::kResourceBlocks, kStallMs);
  StartShards(2, 2);
  Json merged;
  const double ms = TimedMs([&] { merged = GetJson(core::kResourceBlocks); });
  EXPECT_EQ(Members(merged).size(), 4u);
  EXPECT_GE(ms, kStallMs);
  EXPECT_LT(ms, 1.6 * kStallMs) << "scatter legs ran one after another";
}

TEST_F(FederationFixture, InjectedDelayHoldsBackOnlyItsOwnLeg) {
  StartShards(2, 2);
  faults_->set_delay_ms(kStallMs);
  faults_->ArmProbability("federation.shard.s1", FaultKind::kDelay, 1.0);
  faults_->ArmProbability("federation.shard.s2", FaultKind::kDelay, 1.0);
  Json merged;
  const double ms = TimedMs([&] { merged = GetJson(core::kResourceBlocks); });
  EXPECT_EQ(Members(merged).size(), 4u);
  EXPECT_GE(ms, kStallMs);
  EXPECT_LT(ms, 1.6 * kStallMs) << "one leg's injected delay held back the other";
}

TEST_F(FederationFixture, HungShardFailsOnlyItsLegAtTheDeadline) {
  router_options_.downstream_timeout_ms = kStallMs;
  Stall("s2", core::kResourceBlocks, 10000);
  StartShards(2, 2);
  http::Response response;
  const double ms = TimedMs([&] {
    response = Route(http::MakeRequest(http::Method::kGet, core::kResourceBlocks));
  });
  ASSERT_EQ(response.status, 200) << response.body.view();
  EXPECT_LT(ms, 1000.0);
  auto degraded = json::Parse(response.body.view());
  ASSERT_TRUE(degraded.ok());
  EXPECT_THAT(Members(degraded.value()),
              ::testing::UnorderedElementsAre(BlockUri("s1", 0), BlockUri("s1", 1)));
  const Json* shards = json::ResolvePointerRef(degraded.value(), "/Oem/Ofmf/DegradedShards");
  ASSERT_NE(shards, nullptr);
  ASSERT_TRUE(shards->is_array());
  ASSERT_EQ(shards->as_array().size(), 1u);
  EXPECT_EQ(shards->as_array()[0].as_string(), "s2");
}

TEST_F(FederationFixture, HungShardDropsOutOfTheFleetMetricsDump) {
  const std::string dump_path =
      std::string(core::kServiceRoot) + "/Actions/OfmfService.MetricsDump";
  router_options_.downstream_timeout_ms = kStallMs;
  Stall("s2", dump_path, 10000);
  StartShards(2, 1);
  http::Response dump;
  const double ms =
      TimedMs([&] { dump = Route(http::MakeRequest(http::Method::kPost, dump_path)); });
  ASSERT_EQ(dump.status, 200) << dump.body.view();
  EXPECT_LT(ms, 1000.0);
  auto merged = json::Parse(dump.body.view());
  ASSERT_TRUE(merged.ok());
  std::vector<std::string> contributing;
  for (const Json& shard : merged.value().at("Shards").as_array()) {
    contributing.push_back(shard.as_string());
  }
  EXPECT_EQ(contributing, (std::vector<std::string>{"s1"}));
}

// --------------------------------------------------- cross-shard compose --

TEST_F(FederationFixture, CrossShardComposeClaimsAndDecomposeReleases) {
  StartShards(2, 2);
  const std::string local = BlockUri("s1", 0);
  const std::string remote = BlockUri("s2", 0);
  const http::Response composed =
      Route(http::MakeJsonRequest(http::Method::kPost, core::kSystems,
                                  ComposeBody({local, remote})));
  ASSERT_EQ(composed.status, 201) << composed.body.view();
  const std::string system_uri = composed.headers.GetOr("Location", "");
  ASSERT_FALSE(system_uri.empty());

  // Both blocks are Composed on their own shards.
  EXPECT_EQ(BlockState("s1", local), "Composed");
  EXPECT_EQ(BlockState("s2", remote), "Composed");

  // The system reads back through the router with both blocks' capability.
  const Json system = GetJson(system_uri);
  EXPECT_EQ(json::ResolvePointerRef(system, "/ProcessorSummary")->GetInt("CoreCount"),
            16);
  EXPECT_EQ(json::ResolvePointerRef(system, "/MemorySummary")
                ->GetDouble("TotalSystemMemoryGiB"),
            64.0);
  // The aggregated Systems collection shows it exactly once.
  const Json systems = GetJson(core::kSystems);
  EXPECT_EQ(systems.GetInt("Members@odata.count"), 1);

  // Decompose through the router: local AND remote claims are released.
  const http::Response deleted =
      Route(http::MakeRequest(http::Method::kDelete, system_uri));
  EXPECT_EQ(deleted.status, 204) << deleted.body.view();
  EXPECT_EQ(BlockState("s1", local), "Unused");
  EXPECT_EQ(BlockState("s2", remote), "Unused");
  EXPECT_EQ(GetJson(core::kSystems).GetInt("Members@odata.count"), 0);
  EXPECT_GE(router_->stats().cross_shard_composes, 1u);
  EXPECT_EQ(router_->stats().compose_rollbacks, 0u);
}

// The router stamps every block it claims with its transaction id
// (Oem.Ofmf.ClaimedBy), the home shard's own blocks included. A Decompose
// must clear that tag wherever it frees a block: a later local Compose would
// otherwise re-claim the block still carrying the stale id, and if the shard
// then died before the system existed, recovery would skip the block as
// another shard's claim and leak it.
TEST_F(FederationFixture, CrossShardDecomposeClearsClaimTagsOnEveryBlock) {
  StartShards(2, 2);
  const std::vector<std::string> blocks = {BlockUri("s1", 0), BlockUri("s1", 1),
                                           BlockUri("s2", 0)};
  const http::Response composed =
      Route(http::MakeJsonRequest(http::Method::kPost, core::kSystems, ComposeBody(blocks)));
  ASSERT_EQ(composed.status, 201) << composed.body.view();
  EXPECT_FALSE(BlockDoc("s1", blocks[0]).at("Oem").at("Ofmf").GetString("ClaimedBy").empty());
  const http::Response deleted = Route(http::MakeRequest(
      http::Method::kDelete, composed.headers.GetOr("Location", "")));
  ASSERT_EQ(deleted.status, 204) << deleted.body.view();

  for (const std::string shard_id : {"s1", "s2"}) {
    for (int i = 0; i < 2; ++i) {
      const std::string uri = BlockUri(shard_id, i);
      const Json block = BlockDoc(shard_id, uri);
      EXPECT_EQ(block.at("CompositionStatus").GetString("CompositionState"), "Unused")
          << uri;
      EXPECT_EQ(block.at("Oem").at("Ofmf").GetString("ClaimedBy"), "") << uri;
    }
  }
}

TEST_F(FederationFixture, ClaimFailureMidComposeRollsBackEarlierClaims) {
  StartShards(2, 2);
  const std::string first = BlockUri("s1", 0);   // sorted first: claimed first
  const std::string second = BlockUri("s2", 0);  // its shard dies
  // Warm the router's location cache so the compose path is deterministic.
  (void)GetJson(first);
  (void)GetJson(second);
  faults_->ArmProbability("federation.shard.s2", FaultKind::kDropConnection, 1.0);

  const http::Response composed =
      Route(http::MakeJsonRequest(http::Method::kPost, core::kSystems,
                                  ComposeBody({first, second})));
  EXPECT_EQ(composed.status, 503) << composed.body.view();
  faults_->Disarm("federation.shard.s2");

  // The claim taken on s1 before s2 died was rolled back: no leaked blocks,
  // no half-composed system anywhere.
  EXPECT_EQ(BlockState("s1", first), "Unused");
  EXPECT_EQ(BlockState("s2", second), "Unused");
  EXPECT_EQ(GetJson(core::kSystems).GetInt("Members@odata.count"), 0);
  EXPECT_GE(router_->stats().compose_rollbacks, 1u);
}

TEST_F(FederationFixture, HomeShardDeathAfterClaimsRollsBackEverything) {
  StartShards(2, 2);
  const std::string home_block = BlockUri("s1", 1);
  const std::string remote_block = BlockUri("s2", 1);
  (void)GetJson(home_block);
  (void)GetJson(remote_block);
  // Kill s1 (the home shard: owner of the first referenced block) starting at
  // its 3rd downstream call after arming: claim GET (1), claim PATCH (2)
  // succeed; the phase-2 compose POST (3) hits a dead shard.
  faults_->ArmWindow("federation.shard.s1", FaultKind::kDropConnection, 3, 1000);

  const http::Response composed =
      Route(http::MakeJsonRequest(http::Method::kPost, core::kSystems,
                                  ComposeBody({home_block, remote_block})));
  EXPECT_EQ(composed.status, 503) << composed.body.view();
  faults_->Disarm("federation.shard.s1");

  // The rollback ran after the home shard "recovered" is not needed: the
  // release PATCHes targeted both shards; s2's went through immediately, and
  // s1's claim release happened on the live connection only if reachable —
  // the router retries are the operator's job. What must hold now: the
  // remote block is free and no system exists.
  EXPECT_EQ(BlockState("s2", remote_block), "Unused");
  EXPECT_EQ(GetJson(core::kSystems).GetInt("Members@odata.count"), 0);
  EXPECT_GE(router_->stats().compose_rollbacks, 1u);
}

TEST_F(FederationFixture, ComposeRetryWithSameRequestIdIsIdempotent) {
  StartShards(2, 2);
  http::Request compose = http::MakeJsonRequest(
      http::Method::kPost, core::kSystems,
      ComposeBody({BlockUri("s1", 0), BlockUri("s2", 0)}, "retry-job"));
  compose.headers.Set("X-Request-Id", "fed-retry-1");

  const http::Response first = Route(compose);
  ASSERT_EQ(first.status, 201) << first.body.view();
  const http::Response second = Route(compose);
  ASSERT_EQ(second.status, 201) << second.body.view();
  EXPECT_EQ(first.headers.GetOr("Location", ""), second.headers.GetOr("Location", ""));
  // Exactly one system exists; the retry re-claimed idempotently (ClaimedBy
  // matches the transaction) and was answered from the replay cache.
  EXPECT_EQ(GetJson(core::kSystems).GetInt("Members@odata.count"), 1);
}

// ------------------------------------- cross-process traces + fleet tele --

/// Resets process-global trace state on scope exit so a failing assertion
/// cannot leak sampling into unrelated tests.
struct TraceSamplingGuard {
  ~TraceSamplingGuard() {
    trace::TraceRecorder::instance().set_sampling(0.0);
    trace::TraceRecorder::instance().set_retain_threshold_ns(0);
    trace::TraceRecorder::instance().Clear();
  }
};

std::string TraceDumpTarget() {
  return std::string(core::kServiceRoot) + "/Actions/OfmfService.TraceDump";
}

TEST_F(FederationFixture, CrossShardComposeProducesOneConnectedTrace) {
  TraceSamplingGuard guard;
  trace::TraceRecorder::instance().Clear();
  trace::TraceRecorder::instance().set_sampling(1.0);
  StartShards(2, 2);

  const http::Response composed =
      Route(http::MakeJsonRequest(http::Method::kPost, core::kSystems,
                                  ComposeBody({BlockUri("s1", 0), BlockUri("s2", 0)})));
  ASSERT_EQ(composed.status, 201) << composed.body.view();
  const std::string trace_hex = composed.headers.GetOr(trace::kTraceIdHeader, "");
  ASSERT_EQ(trace_hex.size(), 16u) << "router must echo the minted trace id";

  const http::Response dumped =
      Route(http::MakeJsonRequest(http::Method::kPost, TraceDumpTarget(),
                                  Json::Obj({{"TraceId", trace_hex}})));
  ASSERT_EQ(dumped.status, 200) << dumped.body.view();
  auto doc = json::Parse(dumped.body.view());
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().GetString("TraceId"), trace_hex);

  // Spans from all three processes (router + both shards), attributed by
  // origin, assembled into ONE tree: exactly one root, no orphans.
  const Json& spans = doc.value().at("Spans");
  ASSERT_TRUE(spans.is_array());
  std::set<std::string> span_ids, origins, names;
  for (const Json& span : spans.as_array()) {
    span_ids.insert(span.GetString("SpanId"));
    origins.insert(span.GetString("Origin"));
    names.insert(span.GetString("Name"));
  }
  int roots = 0;
  for (const Json& span : spans.as_array()) {
    const std::string parent = span.GetString("ParentSpanId");
    if (parent == trace::IdToHex(0)) {
      ++roots;
    } else {
      EXPECT_TRUE(span_ids.count(parent))
          << span.GetString("Name") << " is orphaned from parent " << parent;
    }
  }
  EXPECT_EQ(roots, 1) << "assembled spans must form one connected tree";
  EXPECT_GE(origins.size(), 3u) << "router and both shards must contribute";
  EXPECT_TRUE(origins.count("router"));
  EXPECT_TRUE(origins.count("s1"));
  EXPECT_TRUE(origins.count("s2"));
  for (const char* required :
       {"router.route", "router.compose", "compose.claim", "compose.forward"}) {
    EXPECT_TRUE(names.count(required)) << "missing span " << required;
  }
  EXPECT_FALSE(doc.value().GetString("Tree").empty());
}

TEST_F(FederationFixture, FaultInjectedRollbackShowsCausalityInAssembledTrace) {
  TraceSamplingGuard guard;
  trace::TraceRecorder::instance().Clear();
  trace::TraceRecorder::instance().set_sampling(1.0);
  StartShards(2, 2);
  const std::string home_block = BlockUri("s1", 1);
  const std::string remote_block = BlockUri("s2", 1);
  (void)GetJson(home_block);
  (void)GetJson(remote_block);
  // Home shard dies exactly at the phase-2 compose POST (3rd downstream
  // call): both claims land, the forward fails, the rollback runs.
  faults_->ArmWindow("federation.shard.s1", FaultKind::kDropConnection, 3, 1000);
  const http::Response composed =
      Route(http::MakeJsonRequest(http::Method::kPost, core::kSystems,
                                  ComposeBody({home_block, remote_block})));
  EXPECT_EQ(composed.status, 503) << composed.body.view();
  faults_->Disarm("federation.shard.s1");
  const std::string trace_hex = composed.headers.GetOr(trace::kTraceIdHeader, "");
  ASSERT_EQ(trace_hex.size(), 16u);

  // The ?trace= query shortcut works on the router's dump action too.
  const http::Response dumped = Route(
      http::MakeRequest(http::Method::kPost, TraceDumpTarget() + "?trace=" + trace_hex));
  ASSERT_EQ(dumped.status, 200) << dumped.body.view();
  auto doc = json::Parse(dumped.body.view());
  ASSERT_TRUE(doc.ok());

  // claim -> forward -> rollback causality, with the failure marked.
  std::int64_t claim_start = -1, forward_start = -1, rollback_start = -1;
  std::set<std::string> origins;
  for (const Json& span : doc.value().at("Spans").as_array()) {
    const std::string name = span.GetString("Name");
    const std::int64_t start = span.GetInt("StartNs");
    origins.insert(span.GetString("Origin"));
    if (name == "compose.claim" && claim_start < 0) claim_start = start;
    if (name == "compose.forward") {
      forward_start = start;
      EXPECT_TRUE(span.GetBool("Error")) << "failed forward must be marked";
    }
    if (name == "compose.rollback" && rollback_start < 0) {
      rollback_start = start;
      EXPECT_TRUE(span.GetBool("Error"));
    }
  }
  ASSERT_GE(claim_start, 0) << "no compose.claim span assembled";
  ASSERT_GE(forward_start, 0) << "no compose.forward span assembled";
  ASSERT_GE(rollback_start, 0) << "no compose.rollback span assembled";
  EXPECT_LE(claim_start, forward_start);
  EXPECT_LE(forward_start, rollback_start);
  EXPECT_GE(origins.size(), 3u) << "router and both shards must contribute";
}

TEST_F(FederationFixture, FleetTelemetryMergesShardDumpsAndServesHealth) {
  StartShards(2, 2);
  (void)GetJson(core::kResourceBlocks);  // some shard traffic to count

  // FleetHealth is served by the router from the routing table alone.
  const Json health = GetJson(std::string(core::kMetricReports) + "/FleetHealth");
  EXPECT_EQ(health.GetString("Id"), "FleetHealth");
  const Json* health_shards = json::ResolvePointerRef(health, "/Oem/Ofmf/Shards");
  ASSERT_NE(health_shards, nullptr);
  ASSERT_EQ(health_shards->as_array().size(), 2u);
  for (const Json& shard : health_shards->as_array()) {
    EXPECT_TRUE(shard.GetBool("Alive")) << shard.GetString("ShardId");
  }

  // The merged MetricsDump names both contributing shards and recomputes
  // the fleet cache hit rate from the summed counters.
  const http::Response dump = Route(http::MakeRequest(
      http::Method::kPost,
      std::string(core::kServiceRoot) + "/Actions/OfmfService.MetricsDump"));
  ASSERT_EQ(dump.status, 200) << dump.body.view();
  auto merged = json::Parse(dump.body.view());
  ASSERT_TRUE(merged.ok());
  std::set<std::string> contributing;
  for (const Json& shard : merged.value().at("Shards").as_array()) {
    contributing.insert(shard.as_string());
  }
  EXPECT_EQ(contributing, (std::set<std::string>{"s1", "s2"}));
  EXPECT_TRUE(merged.value().at("ResponseCache").is_object());

  // The router's own TelemetryService lists all five fleet reports and
  // serves the histogram-merged latency report.
  const Json reports = GetJson(core::kMetricReports);
  EXPECT_EQ(reports.GetInt("Members@odata.count"), 5);
  const Json latency = GetJson(std::string(core::kMetricReports) + "/RequestLatency");
  EXPECT_EQ(latency.GetString("Id"), "RequestLatency");
  ASSERT_TRUE(latency.at("MetricValues").is_array());
  GetJson(std::string(core::kMetricReports) + "/NoSuchReport", 404);
}

TEST(FleetMetricsTest, NegativeWireIntegersDoNotWrapFleetTotals) {
  // One shard answering -1 must not add 2^64-1 to a fleet counter, bucket,
  // sum or section total; it counts as 0.
  const auto dump = [](std::int64_t v) {
    return Json::Obj(
        {{"Histograms",
          Json::Arr({Json::Obj({{"Name", "h"}, {"Sum", 10 * v}, {"Buckets", Json::Arr({v, 2 * v})}})})},
         {"Counters", Json::Arr({Json::Obj({{"Name", "c"}, {"Value", 5 * v}})})},
         {"ResponseCache", Json::Obj({{"Hits", 4 * v}})}});
  };
  federation::FleetMetrics fleet;
  fleet.Absorb("good", dump(1));
  fleet.Absorb("broken", dump(-1));
  EXPECT_EQ(fleet.counters().at("c"), 5u);
  const metrics::Histogram::Snapshot& h = fleet.histograms().at("h");
  EXPECT_EQ(h.buckets[0], 1u);
  EXPECT_EQ(h.buckets[1], 2u);
  EXPECT_EQ(h.sum, 10u);
  EXPECT_EQ(h.count, 3u);
  EXPECT_EQ(fleet.ToJson().at("ResponseCache").GetInt("Hits"), 4);
}

TEST(DirectoryTest, HeartbeatCarriesOptionalStatsIntoTable) {
  DirectoryService directory;
  directory.Register("s1", 8081);
  ASSERT_TRUE(
      directory.Heartbeat("s1", Json::Obj({{"BreakersOpen", 2}})).ok());
  const RoutingTable table = directory.Table();
  ASSERT_NE(table.Find("s1"), nullptr);
  EXPECT_EQ(table.Find("s1")->stats.GetInt("BreakersOpen"), 2);
  EXPECT_GE(table.Find("s1")->heartbeat_age_ms, 0);
  // The stats survive the JSON round-trip routers receive the table through.
  const auto parsed = RoutingTable::FromJson(table.ToJson());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Find("s1")->stats.GetInt("BreakersOpen"), 2);
}

// --------------------------------------------- pooled event delivery wire --

TEST(FederationDeliveryTest, LoopbackDestinationsShareOnePooledConnection) {
  // A real TCP sink: every delivery POST lands here.
  std::atomic<int> posts{0};
  http::TcpServer sink;
  ASSERT_TRUE(sink.Start(
                      [&](const http::Request&) {
                        posts.fetch_add(1);
                        return http::MakeEmptyResponse(204);
                      },
                      0)
                  .ok());

  core::OfmfService ofmf;
  ASSERT_TRUE(ofmf.Bootstrap().ok());
  // No set_client_factory override: the default wire factory must carry
  // loopback destinations over a pooled keep-alive TcpClient.
  const std::string destination =
      "http://127.0.0.1:" + std::to_string(sink.port()) + "/events";
  ASSERT_TRUE(ofmf.events()
                  .Subscribe(Json::Obj({{"Destination", destination},
                                        {"Protocol", "Redfish"}}))
                  .ok());

  core::Event event;
  event.event_type = "Alert";
  event.message_id = "Federation.1.0.PooledDelivery";
  event.message = "pooled";
  event.origin = core::kServiceRoot;
  for (int round = 0; round < 5; ++round) {
    ofmf.events().Publish(event);
    ASSERT_TRUE(ofmf.events().FlushDelivery(10000));
  }

  EXPECT_GE(posts.load(), 5);
  // Keep-alive pooling: many delivery batches, one TCP connection.
  EXPECT_EQ(sink.stats().connections_accepted, 1u);
  sink.Stop();
}

TEST(FederationDeliveryTest, DefaultWireFactoryOnlyBuildsLoopbackClients) {
  const core::ClientFactory factory = core::DefaultWireClientFactory();
  EXPECT_NE(factory("http://127.0.0.1:8080/events"), nullptr);
  EXPECT_NE(factory("http://localhost:9000/sink"), nullptr);
  EXPECT_EQ(factory("http://10.0.0.1/sink"), nullptr);
  EXPECT_EQ(factory("http://example.com:8080/events"), nullptr);
  EXPECT_EQ(factory("http://127.0.0.1:99999/events"), nullptr);  // bad port
  EXPECT_EQ(factory("not-a-url"), nullptr);
}

// ------------------------------------------------ per-subscriber metrics --

TEST(FederationDeliveryTest, DeliveryReportCarriesPerSubscriberCounters) {
  core::OfmfService ofmf;
  ASSERT_TRUE(ofmf.Bootstrap().ok());
  // An in-process sink that always succeeds.
  ofmf.events().set_client_factory([](const std::string&) {
    return std::make_unique<http::InProcessClient>(
        [](const http::Request&) { return http::MakeEmptyResponse(204); });
  });
  const auto subscription = ofmf.events().Subscribe(
      Json::Obj({{"Destination", "http://sink/events"}, {"Protocol", "Redfish"}}));
  ASSERT_TRUE(subscription.ok());

  core::Event event;
  event.event_type = "Alert";
  event.message_id = "Federation.1.0.Metrics";
  event.message = "m";
  event.origin = core::kServiceRoot;
  for (int i = 0; i < 3; ++i) {
    ofmf.events().Publish(event);
    ASSERT_TRUE(ofmf.events().FlushDelivery(10000));
  }

  // GET of the report refreshes it lazily from the live snapshot.
  http::InProcessClient client(ofmf.Handler());
  const auto response = client.Send(http::MakeRequest(
      http::Method::kGet, core::TelemetryService::ReportUri("EventDelivery")));
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response.value().status, 200);
  const auto report = json::Parse(response.value().body.view());
  ASSERT_TRUE(report.ok());

  // MetricValues: per-subscriber Delivered./Dropped./Retries./BreakerOpen.
  std::set<std::string> metric_ids;
  for (const Json& value : report->at("MetricValues").as_array()) {
    metric_ids.insert(value.GetString("MetricId"));
  }
  const std::string& uri = subscription.value();
  EXPECT_TRUE(metric_ids.count("Delivered." + uri)) << "missing per-sub delivered";
  EXPECT_TRUE(metric_ids.count("Dropped." + uri));
  EXPECT_TRUE(metric_ids.count("Retries." + uri));
  EXPECT_TRUE(metric_ids.count("Queued." + uri));
  EXPECT_TRUE(metric_ids.count("BreakerOpen." + uri));

  // The Oem.Ofmf.Subscribers entry carries the full counter set.
  const Json* subscribers =
      json::ResolvePointerRef(*report, "/Oem/Ofmf/Subscribers");
  ASSERT_NE(subscribers, nullptr);
  ASSERT_EQ(subscribers->as_array().size(), 1u);
  const Json& entry = subscribers->as_array()[0];
  EXPECT_EQ(entry.GetString("Subscription"), uri);
  EXPECT_EQ(entry.GetInt("Enqueued"), 3);
  EXPECT_EQ(entry.GetInt("Delivered"), 3);
  EXPECT_GE(entry.GetInt("Batches"), 1);
  EXPECT_EQ(entry.GetInt("Dropped"), 0);
  EXPECT_EQ(entry.GetString("BreakerState"), "Closed");
  EXPECT_EQ(entry.GetInt("BreakerOpens"), 0);
}

}  // namespace
}  // namespace ofmf
