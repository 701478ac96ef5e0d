#include "redfish/service.hpp"

#include "common/strings.hpp"
#include "common/trace.hpp"
#include "http/uri.hpp"
#include "http/wire.hpp"
#include "json/serialize.hpp"
#include "odata/annotations.hpp"
#include "odata/filter.hpp"
#include "odata/query.hpp"
#include "redfish/errors.hpp"

namespace ofmf::redfish {
namespace {

/// "/a/b/Actions/Ns.Action" -> {"/a/b", "Ns.Action"}; nullopt otherwise.
std::optional<std::pair<std::string, std::string>> SplitActionTarget(
    const std::string& path) {
  const std::size_t marker = path.rfind("/Actions/");
  if (marker == std::string::npos) return std::nullopt;
  std::string resource = path.substr(0, marker);
  std::string action = path.substr(marker + 9);
  if (action.empty()) return std::nullopt;
  if (resource.empty()) resource = "/";
  return std::make_pair(resource, action);
}

bool IsCollection(const json::Json& doc) {
  const json::Json* members =
      doc.is_object() ? doc.as_object().Find("Members") : nullptr;
  return members != nullptr && members->is_array();
}

/// RFC 9110 If-None-Match: comma-separated list of entity tags, or "*".
bool ETagMatches(const std::string& if_none_match, const std::string& etag) {
  if (etag.empty()) return false;
  if (strings::Trim(if_none_match) == "*") return true;
  std::size_t pos = 0;
  while (pos <= if_none_match.size()) {
    std::size_t comma = if_none_match.find(',', pos);
    if (comma == std::string::npos) comma = if_none_match.size();
    if (strings::Trim(std::string_view(if_none_match).substr(pos, comma - pos)) == etag) {
      return true;
    }
    pos = comma + 1;
  }
  return false;
}

http::Response NotModifiedResponse(const std::string& etag) {
  http::Response not_modified = http::MakeEmptyResponse(304);
  not_modified.headers.Set("ETag", etag);
  return not_modified;
}

void SetGetHeaders(http::Response& response, const std::string& etag) {
  if (!etag.empty()) response.headers.Set("ETag", etag);
  response.headers.Set("OData-Version", "4.0");
  response.headers.Set("Allow", "GET, HEAD, POST, PATCH, PUT, DELETE");
}

}  // namespace

RedfishService::RedfishService(ResourceTree& tree, SchemaRegistry registry)
    : tree_(tree), registry_(std::move(registry)) {
  cache_subscription_ = tree_.Subscribe(
      [this](const ChangeEvent& event) { cache_.Invalidate(event.uri); });
}

RedfishService::~RedfishService() { tree_.Unsubscribe(cache_subscription_); }

void RedfishService::RegisterFactory(const std::string& collection_uri,
                                     const std::string& type, Factory factory) {
  factories_[http::NormalizePath(collection_uri)] = {type, std::move(factory)};
}

void RedfishService::RegisterAction(const std::string& action_name, ActionHandler handler) {
  actions_[action_name] = std::move(handler);
}

void RedfishService::RegisterDeleteHook(const std::string& prefix, DeleteHook hook) {
  delete_hooks_[http::NormalizePath(prefix)] = std::move(hook);
}

std::string RedfishService::TypeOf(const std::string& uri) const {
  Result<json::Json> doc = tree_.Get(uri);
  if (!doc.ok()) return "";
  return doc->GetString("@odata.type");
}

http::Response RedfishService::Handle(const http::Request& request) {
  trace::Span span("rest.handle");
  if (span.active()) {
    span.Note(std::string(http::to_string(request.method)) + " " + request.path);
  }
  if (middleware_) {
    if (std::optional<http::Response> early = middleware_(request)) return *early;
  }
  switch (request.method) {
    case http::Method::kGet: return HandleGet(request);
    case http::Method::kHead: return HandleHead(request);
    case http::Method::kPost: return HandlePost(request);
    case http::Method::kPatch: return HandlePatch(request);
    case http::Method::kPut: return HandlePut(request);
    case http::Method::kDelete: return HandleDelete(request);
    default:
      return ErrorResponse(405, "Base.1.0.ActionNotSupported",
                           "method not supported by this service");
  }
}

Result<json::Json> RedfishService::BuildGetPayload(const std::string& path,
                                                   const ResourceTree::SnapshotPtr& snapshot,
                                                   const odata::QueryOptions& options,
                                                   bool& cacheable) {
  cacheable = true;
  json::Json payload = snapshot->payload;
  odata::Stamp(payload, path, snapshot->odata_type, snapshot->etag);

  if (IsCollection(payload)) {
    // Member documents pulled into the body from outside this collection's
    // subtree escape ancestor-based invalidation; such bodies stay uncached.
    const std::string subtree = path + "/";
    const auto covered = [&](const std::string& member_uri) {
      return strings::StartsWith(member_uri, subtree);
    };
    // $filter: evaluate against each member's full document.
    if (!options.filter.empty()) {
      auto filter = odata::Filter::Compile(options.filter);
      if (!filter.ok()) return filter.status();
      json::Json* members = payload.as_object().Find("Members");
      json::Array kept;
      for (const json::Json& entry : members->as_array()) {
        const std::string member_uri = odata::IdOf(entry);
        if (!covered(member_uri)) cacheable = false;
        Result<json::Json> member_doc = tree_.Get(member_uri);
        if (member_doc.ok() && filter->Matches(*member_doc)) kept.push_back(entry);
      }
      members->as_array() = std::move(kept);
    }
    odata::ApplyPaging(payload, options, path);
    if (options.expand) {
      odata::ApplyExpand(payload, [&](const std::string& uri) {
        if (!covered(uri)) cacheable = false;
        return tree_.Get(uri);
      });
    }
  }
  odata::ApplySelect(payload, options.select);
  return payload;
}

http::Response RedfishService::HandleGet(const http::Request& request) {
  const std::string path = http::NormalizePath(request.path);
  // Generation fence *before* the snapshot: an invalidation racing this read
  // rejects the cache insert below, so a cached body always matches the
  // member state its ETag was current for.
  const std::uint64_t read_generation = cache_.BeginRead(path);
  const ResourceTree::SnapshotPtr snapshot = tree_.GetSnapshot(path);
  if (snapshot == nullptr) return ErrorResponse(Status::NotFound("no resource at " + path));

  auto options = odata::ParseQueryOptions(request.query);
  if (!options.ok()) return ErrorResponse(options.status());

  const std::string& etag = snapshot->etag;

  const std::string query = NormalizeQuery(request.query);
  const bool use_cache = path != uncached_uri_;
  const std::optional<CachedResponse> cached =
      use_cache ? cache_.Lookup(path, etag, query) : std::nullopt;

  // Conditional GET: a cache hit answers with the pre-serialized 304 head.
  const std::string if_none_match = request.headers.GetOr("If-None-Match", "");
  if (!if_none_match.empty() && ETagMatches(if_none_match, etag)) {
    http::Response not_modified = NotModifiedResponse(etag);
    if (cached) not_modified.set_wire_head(cached->head304);
    return not_modified;
  }

  if (cached) {
    // Zero-copy hit: the response views the cached slab, and the attached
    // head slab means the transport serializes nothing. The header map is
    // still populated for in-process callers.
    http::Response response;
    response.status = 200;
    response.body = http::Body(cached->body);
    response.headers.Set("Content-Type", "application/json");
    SetGetHeaders(response, etag);
    response.set_wire_head(cached->head200);
    return response;
  }

  bool cacheable = true;
  Result<json::Json> payload = BuildGetPayload(path, snapshot, *options, cacheable);
  if (!payload.ok()) return ErrorResponse(payload.status());

  auto body_slab = std::make_shared<const std::string>(json::Serialize(*payload));

  http::Response response;
  response.status = 200;
  response.body = http::Body(body_slab);
  response.headers.Set("Content-Type", "application/json");
  SetGetHeaders(response, etag);
  auto head200 = std::make_shared<const std::string>(
      http::SerializeResponseHead(response, body_slab->size()));
  if (use_cache && cacheable) {
    const http::Response not_modified = NotModifiedResponse(etag);
    auto head304 = std::make_shared<const std::string>(
        http::SerializeResponseHead(not_modified, 0));
    cache_.Insert(path, etag, query, CachedResponse{body_slab, head200, head304},
                  read_generation);
  }
  response.set_wire_head(std::move(head200));
  return response;
}

http::Response RedfishService::HandleHead(const http::Request& request) {
  const std::string path = http::NormalizePath(request.path);
  const ResourceTree::SnapshotPtr snapshot = tree_.GetSnapshot(path);
  if (snapshot == nullptr) {
    http::Response error = ErrorResponse(Status::NotFound("no resource at " + path));
    error.body.clear();
    return error;
  }
  auto options = odata::ParseQueryOptions(request.query);
  if (!options.ok()) {
    http::Response error = ErrorResponse(options.status());
    error.body.clear();
    return error;
  }
  const std::string& etag = snapshot->etag;
  const std::string if_none_match = request.headers.GetOr("If-None-Match", "");
  if (!if_none_match.empty() && ETagMatches(if_none_match, etag)) {
    return NotModifiedResponse(etag);
  }

  // Answer from the cached serialized form when possible: Content-Length
  // without building or serializing a body that would be thrown away.
  const std::string query = NormalizeQuery(request.query);
  std::size_t content_length = 0;
  std::optional<CachedResponse> cached;
  if (path != uncached_uri_) cached = cache_.Lookup(path, etag, query);
  if (cached) {
    content_length = cached->body->size();
  } else {
    http::Request as_get = request;
    as_get.method = http::Method::kGet;
    http::Response full = HandleGet(as_get);  // also seeds the cache
    if (full.status != 200) {
      full.body.clear();
      return full;
    }
    content_length = full.body.size();
  }
  http::Response response;
  response.status = 200;
  response.headers.Set("Content-Type", "application/json");
  response.headers.Set("Content-Length", std::to_string(content_length));
  SetGetHeaders(response, etag);
  return response;
}

http::Response RedfishService::HandlePost(const http::Request& request) {
  // Action invocation?
  if (auto action_target = SplitActionTarget(request.path)) {
    const auto& [resource_uri, action_name] = *action_target;
    auto it = actions_.find(action_name);
    if (it == actions_.end()) {
      return ErrorResponse(400, "Base.1.0.ActionNotSupported",
                           "unknown action: " + action_name);
    }
    if (!tree_.Exists(resource_uri)) {
      return ErrorResponse(Status::NotFound("no resource at " + resource_uri));
    }
    json::Json body = json::Json::MakeObject();
    if (!request.body.empty()) {
      Result<json::Json> parsed = request.JsonBody();
      if (!parsed.ok()) return ErrorResponse(parsed.status());
      body = std::move(*parsed);
    }
    return it->second(resource_uri, body);
  }

  // Creation via collection factory.
  auto factory_it = factories_.find(http::NormalizePath(request.path));
  if (factory_it == factories_.end()) {
    if (!tree_.Exists(request.path)) {
      return ErrorResponse(Status::NotFound("no resource at " + request.path));
    }
    return ErrorResponse(405, "Base.1.0.ActionNotSupported",
                         "resource does not support POST");
  }
  Result<json::Json> body = [&] {
    trace::Span parse_span("rest.parse");
    return request.JsonBody();
  }();
  if (!body.ok()) return ErrorResponse(body.status());

  const auto& [type, factory] = factory_it->second;
  if (!type.empty()) {
    const Status valid = registry_.ValidateCreate(type, *body);
    if (!valid.ok()) return ErrorResponse(valid);
  }
  Result<std::string> created_uri = [&] {
    trace::Span create_span("rest.create");
    if (create_span.active()) create_span.Note(request.path);
    return factory(*body);
  }();
  if (!created_uri.ok()) return ErrorResponse(created_uri.status());

  Result<json::Json> created = tree_.Get(*created_uri);
  http::Response response =
      http::MakeJsonResponse(201, created.ok() ? *created : json::Json::MakeObject());
  response.headers.Set("Location", *created_uri);
  return response;
}

http::Response RedfishService::HandlePatch(const http::Request& request) {
  if (!tree_.Exists(request.path)) {
    return ErrorResponse(Status::NotFound("no resource at " + request.path));
  }
  Result<json::Json> body = request.JsonBody();
  if (!body.ok()) return ErrorResponse(body.status());

  const std::string type = TypeOf(request.path);
  const Status valid = registry_.ValidatePatch(type, *body);
  if (!valid.ok()) return ErrorResponse(valid);

  const Status patched =
      tree_.Patch(request.path, *body, request.headers.GetOr("If-Match", ""));
  if (!patched.ok()) return ErrorResponse(patched);

  Result<json::Json> updated = tree_.Get(request.path);
  http::Response response = http::MakeJsonResponse(200, *updated);
  response.headers.Set("ETag", updated->GetString("@odata.etag"));
  return response;
}

http::Response RedfishService::HandlePut(const http::Request& request) {
  if (!tree_.Exists(request.path)) {
    return ErrorResponse(Status::NotFound("no resource at " + request.path));
  }
  Result<json::Json> body = request.JsonBody();
  if (!body.ok()) return ErrorResponse(body.status());
  const std::string type = TypeOf(request.path);
  const Status valid = registry_.ValidateCreate(type, *body);
  if (!valid.ok()) return ErrorResponse(valid);
  const Status replaced = tree_.Replace(request.path, std::move(*body));
  if (!replaced.ok()) return ErrorResponse(replaced);
  return http::MakeJsonResponse(200, *tree_.Get(request.path));
}

http::Response RedfishService::HandleDelete(const http::Request& request) {
  const std::string path = http::NormalizePath(request.path);
  if (!tree_.Exists(path)) {
    return ErrorResponse(Status::NotFound("no resource at " + path));
  }
  // Longest-prefix delete hook wins.
  const DeleteHook* hook = nullptr;
  std::size_t best_len = 0;
  for (const auto& [prefix, candidate] : delete_hooks_) {
    if (strings::StartsWith(path, prefix) && prefix.size() >= best_len) {
      hook = &candidate;
      best_len = prefix.size();
    }
  }
  if (hook != nullptr) {
    const Status allowed = (*hook)(path);
    if (!allowed.ok()) return ErrorResponse(allowed);
    // The hook may have deleted the resource (plus dependents) itself.
    if (!tree_.Exists(path)) return http::MakeEmptyResponse(204);
  }
  const Status deleted = tree_.Delete(path);
  if (!deleted.ok()) return ErrorResponse(deleted);
  return http::MakeEmptyResponse(204);
}

}  // namespace ofmf::redfish
