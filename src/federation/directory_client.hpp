// DirectoryClient: a shard's / router's view of the DirectoryService over
// HTTP. Caches the RoutingTable and revalidates with If-None-Match once the
// cache is older than `max_age_ms` — a 304 renews the cache without a body.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "common/result.hpp"
#include "federation/routing.hpp"
#include "http/server.hpp"

namespace ofmf::federation {

class DirectoryClient {
 public:
  /// Talks to a DirectoryService listening on 127.0.0.1:`directory_port`.
  explicit DirectoryClient(std::uint16_t directory_port, int max_age_ms = 250);
  /// Custom transport (tests: InProcessClient straight at a Handler()).
  DirectoryClient(std::unique_ptr<http::HttpClient> client, int max_age_ms = 250);

  Result<std::uint64_t> Register(const std::string& shard_id, std::uint16_t port);
  /// `stats` is an optional self-reported health object forwarded to the
  /// directory (see DirectoryService::Heartbeat).
  Status Heartbeat(const std::string& shard_id,
                   const json::Json& stats = json::Json());

  /// Cached table; revalidates via ETag when older than max_age_ms. Returns
  /// the stale cache (if any) when the directory is unreachable, so a router
  /// keeps routing through a directory blip. The snapshot is shared, never
  /// copied per call: a 304 hands back the same one, a new body a new one.
  Result<std::shared_ptr<const RoutingTable>> Table();

  /// Drops the cache so the next Table() refetches unconditionally.
  void Invalidate();

  std::uint64_t revalidations_sent() const { return revalidations_; }
  std::uint64_t revalidations_not_modified() const { return not_modified_; }

 private:
  std::unique_ptr<http::HttpClient> client_;
  int max_age_ms_;
  std::mutex mu_;
  std::shared_ptr<const RoutingTable> cache_;  // null = none
  std::string etag_;
  std::chrono::steady_clock::time_point fetched_at_{};
  std::uint64_t revalidations_ = 0;
  std::uint64_t not_modified_ = 0;
};

}  // namespace ofmf::federation
