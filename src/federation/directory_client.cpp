#include "federation/directory_client.hpp"

#include <optional>

#include "common/trace.hpp"
#include "federation/directory.hpp"
#include "json/parse.hpp"

namespace ofmf::federation {

namespace {

/// Stamps the ambient trace identity onto an outbound directory request so
/// the directory's handler (and anything behind it) joins the same trace.
void StampTrace(http::Request& req, const trace::TraceContext& ctx) {
  if (!ctx.active()) return;
  req.headers.Set(trace::kTraceIdHeader, trace::IdToHex(ctx.trace_id));
  req.headers.Set(trace::kSpanIdHeader, trace::IdToHex(ctx.span_id));
}

}  // namespace

DirectoryClient::DirectoryClient(std::uint16_t directory_port, int max_age_ms)
    : client_(std::make_unique<http::TcpClient>(directory_port, 5000)),
      max_age_ms_(max_age_ms) {}

DirectoryClient::DirectoryClient(std::unique_ptr<http::HttpClient> client,
                                 int max_age_ms)
    : client_(std::move(client)), max_age_ms_(max_age_ms) {}

Result<std::uint64_t> DirectoryClient::Register(const std::string& shard_id,
                                                std::uint16_t port) {
  // Entry-point span: registration runs on startup / recovery threads that
  // carry no ambient context, so this mints a trace when sampling is on.
  trace::Span span("directory.register", trace::TraceContext{});
  span.Note(shard_id);
  http::Request req = http::MakeJsonRequest(
      http::Method::kPost, kDirectoryShardsPath,
      json::Json::Obj({{"ShardId", shard_id}, {"Port", static_cast<int>(port)}}));
  StampTrace(req, span.context());
  auto resp = client_->Send(req);
  if (!resp.ok()) {
    span.SetError();
    return resp.status();
  }
  if (!resp.value().ok()) {
    span.SetError();
    return Status::Unavailable("directory register failed: HTTP " +
                               std::to_string(resp.value().status));
  }
  auto body = json::Parse(resp.value().body.view());
  if (!body.ok()) return body.status();
  Invalidate();  // membership changed; refetch on next Table()
  return static_cast<std::uint64_t>(body.value().GetInt("Epoch", 0));
}

Status DirectoryClient::Heartbeat(const std::string& shard_id,
                                  const json::Json& stats) {
  // Same entry-point shape as Register: heartbeat loops are background
  // threads, so the span mints its own trace when sampling is on.
  trace::Span span("directory.heartbeat", trace::TraceContext{});
  span.Note(shard_id);
  json::Json payload = json::Json::Obj({{"ShardId", shard_id}});
  if (stats.is_object()) payload.as_object().Set("Stats", stats);
  http::Request req = http::MakeJsonRequest(http::Method::kPost,
                                            kDirectoryHeartbeatPath, payload);
  StampTrace(req, span.context());
  auto resp = client_->Send(req);
  if (!resp.ok()) {
    span.SetError();
    return resp.status();
  }
  if (resp.value().status == 404) {
    span.SetError();
    return Status::NotFound("directory does not know shard " + shard_id);
  }
  if (!resp.value().ok()) {
    span.SetError();
    return Status::Unavailable("directory heartbeat failed: HTTP " +
                               std::to_string(resp.value().status));
  }
  return Status::Ok();
}

Result<std::shared_ptr<const RoutingTable>> DirectoryClient::Table() {
  std::lock_guard<std::mutex> lock(mu_);
  const auto now = std::chrono::steady_clock::now();
  if (cache_ != nullptr &&
      now - fetched_at_ < std::chrono::milliseconds(max_age_ms_)) {
    return cache_;
  }
  // Child span only: Table() is called on request paths (the router mid-
  // Route) where an ambient context may exist; with none this is a no-op —
  // cache revalidation must never mint traces of its own.
  std::optional<trace::Span> span;
  if (trace::Current().active()) span.emplace("directory.revalidate");
  http::Request req = http::MakeRequest(http::Method::kGet, kDirectoryTablePath);
  if (span) StampTrace(req, span->context());
  if (cache_ != nullptr && !etag_.empty()) {
    req.headers.Set("If-None-Match", etag_);
    ++revalidations_;
  }
  auto resp = client_->Send(req);
  if (!resp.ok()) {
    // Directory unreachable: serve the stale cache if we have one.
    if (span) {
      span->SetError();
      span->Note("stale cache");
    }
    if (cache_ != nullptr) return cache_;
    return resp.status();
  }
  if (resp.value().status == 304 && cache_ != nullptr) {
    ++not_modified_;
    fetched_at_ = now;
    if (span) span->Note("304");
    return cache_;
  }
  if (!resp.value().ok()) {
    if (span) span->SetError();
    if (cache_ != nullptr) return cache_;
    return Status::Unavailable("directory table fetch failed: HTTP " +
                               std::to_string(resp.value().status));
  }
  auto body = json::Parse(resp.value().body.view());
  if (!body.ok()) return body.status();
  auto table = RoutingTable::FromJson(body.value());
  if (!table.ok()) return table.status();
  cache_ = std::make_shared<const RoutingTable>(std::move(table.value()));
  etag_ = resp.value().headers.GetOr("ETag", "");
  fetched_at_ = now;
  return cache_;
}

void DirectoryClient::Invalidate() {
  std::lock_guard<std::mutex> lock(mu_);
  cache_.reset();
  etag_.clear();
}

}  // namespace ofmf::federation
