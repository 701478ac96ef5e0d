// Read-path fast lane: ETag versioning, conditional GET/HEAD, the
// serialized-response cache's invalidation ordering under concurrent
// readers and writers, and the client-side ETag cache. The concurrency
// tests are the ones meant to run under OFMF_SANITIZE=thread.
#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "composability/client.hpp"
#include "http/server.hpp"
#include "json/parse.hpp"
#include "json/serialize.hpp"
#include "redfish/cache.hpp"
#include "redfish/schemas.hpp"
#include "redfish/service.hpp"
#include "redfish/tree.hpp"

namespace ofmf::redfish {
namespace {

using json::Json;
using json::Parse;

// ----------------------------------------------------- ETag versioning ---

TEST(ReadPathTree, VersionBumpsOnEveryMutation) {
  ResourceTree tree;
  ASSERT_TRUE(tree.CreateCollection("/c", "#C.C", "c").ok());
  ASSERT_TRUE(tree.Create("/c/r", "#T.v1_0_0.T", Json::Obj({{"x", 1}})).ok());
  EXPECT_EQ(tree.ETagOf("/c/r"), "W/\"1\"");

  ASSERT_TRUE(tree.Patch("/c/r", Json::Obj({{"x", 2}})).ok());
  EXPECT_EQ(tree.ETagOf("/c/r"), "W/\"2\"");

  ASSERT_TRUE(tree.Replace("/c/r", Json::Obj({{"y", 3}})).ok());
  EXPECT_EQ(tree.ETagOf("/c/r"), "W/\"3\"");
  EXPECT_FALSE(tree.GetRaw("/c/r")->Contains("x"));

  const std::string collection_etag = tree.ETagOf("/c");
  ASSERT_TRUE(tree.AddMember("/c", "/c/r").ok());
  EXPECT_NE(tree.ETagOf("/c"), collection_etag);
  // Idempotent AddMember does not bump.
  const std::string after_add = tree.ETagOf("/c");
  ASSERT_TRUE(tree.AddMember("/c", "/c/r").ok());
  EXPECT_EQ(tree.ETagOf("/c"), after_add);
}

TEST(ReadPathTree, SnapshotIsImmutableAcrossLaterWrites) {
  ResourceTree tree;
  ASSERT_TRUE(tree.Create("/r", "#T.v1_0_0.T", Json::Obj({{"x", 1}})).ok());
  ResourceTree::SnapshotPtr snap = tree.GetSnapshot("/r");
  ASSERT_NE(snap, nullptr);
  ASSERT_TRUE(tree.Patch("/r", Json::Obj({{"x", 2}})).ok());
  // The old snapshot still shows the old payload and etag.
  EXPECT_EQ(snap->payload.GetInt("x"), 1);
  EXPECT_EQ(snap->etag, "W/\"1\"");
  EXPECT_EQ(tree.GetSnapshot("/r")->payload.GetInt("x"), 2);
}

TEST(ReadPathTree, PatchIfMatchMismatchIsFailedPrecondition) {
  ResourceTree tree;
  ASSERT_TRUE(tree.Create("/r", "#T.v1_0_0.T", Json::Obj({{"x", 1}})).ok());
  EXPECT_EQ(tree.Patch("/r", Json::Obj({{"x", 2}}), "W/\"999\"").code(),
            ErrorCode::kFailedPrecondition);
  EXPECT_EQ(tree.ETagOf("/r"), "W/\"1\"");
  EXPECT_TRUE(tree.Patch("/r", Json::Obj({{"x", 2}}), "W/\"1\"").ok());
}

// ------------------------------------------------- Service fixture ---

class ReadPathService : public ::testing::Test {
 protected:
  ReadPathService() : service_(tree_, SchemaRegistry::BuiltIn()) {
    EXPECT_TRUE(tree_.Create("/redfish/v1", "#ServiceRoot.v1_15_0.ServiceRoot",
                             Json::Obj({{"Name", "root"}}))
                    .ok());
    EXPECT_TRUE(tree_.CreateCollection("/redfish/v1/Fabrics",
                                       "#FabricCollection.FabricCollection", "Fabrics")
                    .ok());
    EXPECT_TRUE(tree_.Create("/redfish/v1/Fabrics/f", "#Fabric.v1_3_0.Fabric",
                             Json::Obj({{"Name", "f"}, {"FabricType", "CXL"}}))
                    .ok());
    EXPECT_TRUE(tree_.AddMember("/redfish/v1/Fabrics", "/redfish/v1/Fabrics/f").ok());
  }

  http::Response Get(const std::string& target) {
    return service_.Handle(http::MakeRequest(http::Method::kGet, target));
  }

  ResourceTree tree_;
  RedfishService service_;
};

// ------------------------------------------------------ conditional GET ---

TEST_F(ReadPathService, IfNoneMatchReturns304UntilResourceChanges) {
  const http::Response first = Get("/redfish/v1/Fabrics/f");
  ASSERT_EQ(first.status, 200);
  const std::string etag = first.headers.GetOr("ETag", "");
  ASSERT_FALSE(etag.empty());

  http::Request conditional =
      http::MakeRequest(http::Method::kGet, "/redfish/v1/Fabrics/f");
  conditional.headers.Set("If-None-Match", etag);
  http::Response revalidated = service_.Handle(conditional);
  EXPECT_EQ(revalidated.status, 304);
  EXPECT_TRUE(revalidated.body.empty());
  EXPECT_EQ(revalidated.headers.Get("ETag"), etag);

  // A list of candidates and the wildcard also match.
  conditional.headers.Set("If-None-Match", "W/\"999\", " + etag);
  EXPECT_EQ(service_.Handle(conditional).status, 304);
  conditional.headers.Set("If-None-Match", "*");
  EXPECT_EQ(service_.Handle(conditional).status, 304);

  ASSERT_TRUE(tree_.Patch("/redfish/v1/Fabrics/f", Json::Obj({{"MaxZones", 8}})).ok());
  conditional.headers.Set("If-None-Match", etag);
  revalidated = service_.Handle(conditional);
  EXPECT_EQ(revalidated.status, 200);
  EXPECT_EQ(Parse(revalidated.body)->GetInt("MaxZones"), 8);
}

TEST_F(ReadPathService, HeadAdvertisesGetContentLengthWithoutBody) {
  const http::Response get = Get("/redfish/v1/Fabrics/f");
  ASSERT_EQ(get.status, 200);

  const http::Response head = service_.Handle(
      http::MakeRequest(http::Method::kHead, "/redfish/v1/Fabrics/f"));
  EXPECT_EQ(head.status, 200);
  EXPECT_TRUE(head.body.empty());
  EXPECT_EQ(head.headers.GetOr("Content-Length", ""),
            std::to_string(get.body.size()));
  EXPECT_EQ(head.headers.Get("ETag"), get.headers.Get("ETag"));

  http::Request conditional =
      http::MakeRequest(http::Method::kHead, "/redfish/v1/Fabrics/f");
  conditional.headers.Set("If-None-Match", get.headers.GetOr("ETag", ""));
  EXPECT_EQ(service_.Handle(conditional).status, 304);
}

// -------------------------------------------------------- response cache ---

TEST_F(ReadPathService, CacheServesRepeatsAndInvalidatesOnWrite) {
  ResponseCache& cache = service_.response_cache();
  const http::Response first = Get("/redfish/v1/Fabrics/f");
  const http::Response second = Get("/redfish/v1/Fabrics/f");
  EXPECT_EQ(first.body, second.body);
  EXPECT_GE(cache.stats().hits, 1u);

  ASSERT_TRUE(tree_.Patch("/redfish/v1/Fabrics/f", Json::Obj({{"MaxZones", 4}})).ok());
  const http::Response after = Get("/redfish/v1/Fabrics/f");
  EXPECT_EQ(Parse(after.body)->GetInt("MaxZones"), 4);
  EXPECT_EQ(after.headers.Get("ETag"), tree_.ETagOf("/redfish/v1/Fabrics/f"));
}

TEST_F(ReadPathService, CollectionBodyInvalidatedByMemberChange) {
  // $expand embeds member payloads; the collection's own ETag does not cover
  // them, so a member write must still invalidate the cached body.
  const http::Response before = Get("/redfish/v1/Fabrics?$expand=.");
  ASSERT_EQ(before.status, 200);
  (void)Get("/redfish/v1/Fabrics?$expand=.");  // cached now

  ASSERT_TRUE(
      tree_.Patch("/redfish/v1/Fabrics/f", Json::Obj({{"MaxZones", 77}})).ok());
  const http::Response after = Get("/redfish/v1/Fabrics?$expand=.");
  ASSERT_EQ(after.status, 200);
  EXPECT_THAT(after.body, ::testing::HasSubstr("77"));
}

TEST_F(ReadPathService, PlainAncestorBodySurvivesMemberChange) {
  // The plain collection body lists member links only, so a member write
  // leaves it cached; adding a member rewrites the collection itself.
  ResponseCache& cache = service_.response_cache();
  (void)Get("/redfish/v1/Fabrics");
  const std::uint64_t invalidations = cache.stats().invalidations;

  ASSERT_TRUE(tree_.Patch("/redfish/v1/Fabrics/f", Json::Obj({{"MaxZones", 5}})).ok());
  EXPECT_EQ(cache.stats().invalidations, invalidations);
  const std::uint64_t hits = cache.stats().hits;
  (void)Get("/redfish/v1/Fabrics");
  EXPECT_EQ(cache.stats().hits, hits + 1);

  ASSERT_TRUE(tree_.Create("/redfish/v1/Fabrics/g", "#Fabric.v1_3_0.Fabric",
                           Json::Obj({{"Id", "g"}}))
                  .ok());
  ASSERT_TRUE(tree_.AddMember("/redfish/v1/Fabrics", "/redfish/v1/Fabrics/g").ok());
  const http::Response after = Get("/redfish/v1/Fabrics");
  EXPECT_THAT(after.body, ::testing::HasSubstr("/redfish/v1/Fabrics/g"));
}

TEST_F(ReadPathService, DisabledCacheStillServesCorrectBodies) {
  service_.response_cache().set_enabled(false);
  const http::Response first = Get("/redfish/v1/Fabrics/f");
  ASSERT_TRUE(tree_.Patch("/redfish/v1/Fabrics/f", Json::Obj({{"MaxZones", 2}})).ok());
  const http::Response after = Get("/redfish/v1/Fabrics/f");
  EXPECT_NE(first.body, after.body);
  EXPECT_EQ(Parse(after.body)->GetInt("MaxZones"), 2);
  EXPECT_EQ(service_.response_cache().size(), 0u);
}

// The core safety property: a served body always matches its ETag header,
// even while writers are concurrently mutating the resource and the cache is
// invalidating. Run under OFMF_SANITIZE=thread to catch data races too.
TEST_F(ReadPathService, BodyAlwaysMatchesEtagUnderConcurrentWrites) {
  constexpr int kReaders = 4;
  constexpr int kReadsPerReader = 400;
  constexpr int kWrites = 200;
  std::atomic<bool> start{false};
  std::atomic<int> mismatches{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      while (!start.load()) std::this_thread::yield();
      for (int i = 0; i < kReadsPerReader; ++i) {
        const http::Response response = Get("/redfish/v1/Fabrics/f");
        if (response.status != 200) {
          ++mismatches;
          continue;
        }
        // The body's stamped etag must equal the ETag header: a cached body
        // served against a newer header would diverge here.
        const auto body = Parse(response.body);
        if (!body.ok() ||
            body->GetString("@odata.etag") != response.headers.GetOr("ETag", "-")) {
          ++mismatches;
        }
      }
    });
  }
  std::thread writer([&] {
    while (!start.load()) std::this_thread::yield();
    for (int i = 0; i < kWrites; ++i) {
      ASSERT_TRUE(
          tree_.Patch("/redfish/v1/Fabrics/f", Json::Obj({{"MaxZones", i}})).ok());
    }
  });

  start.store(true);
  for (std::thread& t : readers) t.join();
  writer.join();
  EXPECT_EQ(mismatches.load(), 0);

  // After the dust settles the cache converges on the final body.
  const http::Response final_get = Get("/redfish/v1/Fabrics/f");
  EXPECT_EQ(Parse(final_get.body)->GetInt("MaxZones"), kWrites - 1);
}

// Mixed collection readers (whose cached bodies embed member state) and
// member writers: the $expand body must never lag the members it embeds
// once the writer finishes.
TEST_F(ReadPathService, ExpandedCollectionNeverServesStaleMembers) {
  constexpr int kReaders = 3;
  constexpr int kReadsPerReader = 200;
  constexpr int kWrites = 100;
  std::atomic<bool> start{false};
  std::atomic<bool> done{false};
  std::atomic<int> stale_after_done{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      while (!start.load()) std::this_thread::yield();
      for (int i = 0; i < kReadsPerReader; ++i) {
        const bool writer_done = done.load();
        const http::Response response = Get("/redfish/v1/Fabrics?$expand=.");
        if (response.status != 200) continue;
        if (writer_done &&
            response.body.find("\"MaxZones\":" + std::to_string(kWrites - 1)) ==
                std::string::npos) {
          ++stale_after_done;
        }
      }
    });
  }
  std::thread writer([&] {
    while (!start.load()) std::this_thread::yield();
    for (int i = 0; i < kWrites; ++i) {
      ASSERT_TRUE(
          tree_.Patch("/redfish/v1/Fabrics/f", Json::Obj({{"MaxZones", i}})).ok());
    }
    done.store(true);
  });

  start.store(true);
  for (std::thread& t : readers) t.join();
  writer.join();
  EXPECT_EQ(stale_after_done.load(), 0);

  const http::Response final_get = Get("/redfish/v1/Fabrics?$expand=.");
  EXPECT_THAT(final_get.body,
              ::testing::HasSubstr("\"MaxZones\":" + std::to_string(kWrites - 1)));
}

// ----------------------------------------------------- client ETag cache ---

TEST_F(ReadPathService, ClientEtagCacheRidesNotModified) {
  composability::OfmfClient client(
      std::make_unique<http::InProcessClient>(service_.Handler()));

  auto first = client.Get("/redfish/v1/Fabrics/f");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(client.etag_cache_hits(), 0u);

  auto second = client.Get("/redfish/v1/Fabrics/f");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(client.etag_cache_hits(), 1u);
  EXPECT_EQ(json::Serialize(*first), json::Serialize(*second));

  // A server-side change makes the next poll a real 200 again.
  ASSERT_TRUE(tree_.Patch("/redfish/v1/Fabrics/f", Json::Obj({{"MaxZones", 5}})).ok());
  auto third = client.Get("/redfish/v1/Fabrics/f");
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(client.etag_cache_hits(), 1u);
  EXPECT_EQ(third->GetInt("MaxZones"), 5);
  // And the refreshed entry serves the following poll via 304.
  ASSERT_TRUE(client.Get("/redfish/v1/Fabrics/f").ok());
  EXPECT_EQ(client.etag_cache_hits(), 2u);
}

}  // namespace
}  // namespace ofmf::redfish
