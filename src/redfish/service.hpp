// Generic Redfish protocol service over a ResourceTree: GET with OData query
// options, PATCH (merge semantics, schema + readonly + If-Match), PUT,
// DELETE, POST-to-collection via registered factories, and POST actions.
// The OFMF layers its services (sessions, events, tasks, aggregation,
// composition) on top of this dispatcher.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>

#include "http/message.hpp"
#include "http/server.hpp"
#include "odata/query.hpp"
#include "redfish/cache.hpp"
#include "redfish/schemas.hpp"
#include "redfish/tree.hpp"

namespace ofmf::redfish {

/// Creates a resource from a POST body; returns the new resource URI.
using Factory = std::function<Result<std::string>(const json::Json& body)>;

/// Handles a Redfish action invocation (POST <uri>/Actions/<Name>).
using ActionHandler =
    std::function<http::Response(const std::string& resource_uri, const json::Json& body)>;

/// Runs before normal dispatch; a returned response short-circuits (auth).
using Middleware = std::function<std::optional<http::Response>(const http::Request&)>;

/// Veto/augment hook run before a DELETE is applied to the tree.
using DeleteHook = std::function<Status(const std::string& uri)>;

class RedfishService {
 public:
  RedfishService(ResourceTree& tree, SchemaRegistry registry);
  ~RedfishService();
  RedfishService(const RedfishService&) = delete;
  RedfishService& operator=(const RedfishService&) = delete;

  /// POST to `collection_uri` creates via `factory` (factory owns tree
  /// writes; service validates against `type` first when non-empty).
  void RegisterFactory(const std::string& collection_uri, const std::string& type,
                       Factory factory);

  /// POST <resource>/Actions/<action_name> dispatches to `handler`.
  /// `action_name` is the qualified name, e.g. "ComposeService.Compose".
  void RegisterAction(const std::string& action_name, ActionHandler handler);

  /// DELETE on URIs under `prefix` first consults `hook` (non-OK vetoes).
  void RegisterDeleteHook(const std::string& prefix, DeleteHook hook);

  void SetMiddleware(Middleware middleware) { middleware_ = std::move(middleware); }

  /// The full protocol entry point.
  http::Response Handle(const http::Request& request);

  /// Adapter for transports.
  http::ServerHandler Handler() {
    return [this](const http::Request& request) { return Handle(request); };
  }

  ResourceTree& tree() { return tree_; }
  const SchemaRegistry& schemas() const { return registry_; }

  /// Serialized-response cache on the GET/HEAD path (invalidated via the
  /// tree's change listener; disable for uncached baselines).
  ResponseCache& response_cache() { return cache_; }
  const ResponseCache& response_cache() const { return cache_; }

  /// GET/HEAD of `uri` bypass the response cache. For a document that counts
  /// the cache's own lookups: cached, each read of it would change it. Call
  /// before serving.
  void SetUncachedUri(std::string uri) { uncached_uri_ = std::move(uri); }

 private:
  http::Response HandleGet(const http::Request& request);
  http::Response HandleHead(const http::Request& request);
  http::Response HandlePost(const http::Request& request);
  http::Response HandlePatch(const http::Request& request);
  http::Response HandlePut(const http::Request& request);
  http::Response HandleDelete(const http::Request& request);

  /// Type tag of a tree resource ("" when absent).
  std::string TypeOf(const std::string& uri) const;

  /// Builds the stamped (and query-shaped) document for a GET of `snapshot`;
  /// sets `cacheable` false when the body embeds state from outside the
  /// resource's own subtree (then ancestor invalidation cannot cover it).
  Result<json::Json> BuildGetPayload(const std::string& path,
                                     const ResourceTree::SnapshotPtr& snapshot,
                                     const odata::QueryOptions& options,
                                     bool& cacheable);

  ResourceTree& tree_;
  SchemaRegistry registry_;
  ResponseCache cache_;
  std::uint64_t cache_subscription_ = 0;
  std::string uncached_uri_;  // written once, before serving
  std::map<std::string, std::pair<std::string, Factory>> factories_;
  std::map<std::string, ActionHandler> actions_;
  std::map<std::string, DeleteHook> delete_hooks_;
  Middleware middleware_;
};

}  // namespace ofmf::redfish
