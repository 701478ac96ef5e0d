#include "redfish/cache.hpp"

#include <functional>

namespace ofmf::redfish {
namespace {

// invalidated_at tracks one generation per mutated URI; cap it (per shard) so
// a long-lived service with churning URIs (compose/decompose) cannot grow it
// without bound. Overflow collapses to a conservative floor generation.
constexpr std::size_t kMaxInvalidationEntriesPerShard = 8192;

}  // namespace

std::string NormalizeQuery(const std::map<std::string, std::string>& query) {
  std::string out;
  for (const auto& [key, value] : query) {
    if (!out.empty()) out += '&';
    out += key;
    out += '=';
    out += value;
  }
  return out;
}

ResponseCache::ResponseCache(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity),
      shard_capacity_(capacity_ / kShards == 0 ? 1 : capacity_ / kShards) {}

std::string ResponseCache::MakeKey(const std::string& uri, const std::string& etag,
                                   const std::string& query) {
  std::string key;
  key.reserve(uri.size() + etag.size() + query.size() + 2);
  key += uri;
  key += '\n';
  key += etag;
  key += '\n';
  key += query;
  return key;
}

ResponseCache::Shard& ResponseCache::ShardFor(const std::string& uri) const {
  return shards_[std::hash<std::string>{}(uri) % kShards];
}

std::uint64_t ResponseCache::BeginRead(const std::string& uri) const {
  Shard& shard = ShardFor(uri);
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.generation;
}

std::optional<CachedResponse> ResponseCache::Lookup(const std::string& uri,
                                                    const std::string& etag,
                                                    const std::string& query) {
  if (!enabled()) return std::nullopt;
  Shard& shard = ShardFor(uri);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.entries.find(MakeKey(uri, etag, query));
  if (it == shard.entries.end()) {
    ++shard.stats.misses;
    return std::nullopt;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
  ++shard.stats.hits;
  return it->second.payload;  // shared slabs: refcount bump, no byte copy
}

void ResponseCache::Insert(const std::string& uri, const std::string& etag,
                           const std::string& query, CachedResponse entry,
                           std::uint64_t read_generation) {
  if (!enabled()) return;
  Shard& shard = ShardFor(uri);
  std::lock_guard<std::mutex> lock(shard.mu);
  // Reject a body whose inputs were invalidated after the reader's snapshot:
  // for collections the body embeds member state the ETag does not cover.
  if (read_generation < shard.invalidation_floor) return;
  auto invalidated = shard.invalidated_at.find(uri);
  if (invalidated != shard.invalidated_at.end() &&
      invalidated->second > read_generation) {
    return;
  }
  const std::string key = MakeKey(uri, etag, query);
  if (shard.entries.count(key) != 0) return;  // a concurrent reader won the race
  while (shard.entries.size() >= shard_capacity_) {
    auto victim = shard.entries.find(shard.lru.back());
    shard.lru.pop_back();
    if (victim != shard.entries.end()) shard.entries.erase(victim);
    ++shard.stats.evictions;
  }
  shard.lru.push_front(key);
  shard.entries[key] = Entry{std::move(entry), shard.lru.begin()};
}

void ResponseCache::InvalidateUriInShard(Shard& shard, const std::string& uri,
                                         bool queried_only) {
  const std::string prefix = uri + '\n';
  auto it = shard.entries.lower_bound(prefix);
  while (it != shard.entries.end() && it->first.compare(0, prefix.size(), prefix) == 0) {
    // A key ending in '\n' has no query: that body is the resource alone.
    if (queried_only && it->first.back() == '\n') {
      ++it;
      continue;
    }
    shard.lru.erase(it->second.lru_it);
    it = shard.entries.erase(it);
    ++shard.stats.invalidations;
  }
}

void ResponseCache::Invalidate(const std::string& changed_uri) {
  std::string uri = changed_uri;
  for (bool ancestor = false;; ancestor = true) {
    Shard& shard = ShardFor(uri);
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      ++shard.generation;
      if (shard.invalidated_at.size() >= kMaxInvalidationEntriesPerShard) {
        // Collapse to a floor: treat every URI in this shard as invalidated
        // right now. Late inserts begun before this are rejected.
        shard.invalidation_floor = shard.generation;
        shard.invalidated_at.clear();
        shard.entries.clear();
        shard.lru.clear();
      } else {
        shard.invalidated_at[uri] = shard.generation;
        InvalidateUriInShard(shard, uri, /*queried_only=*/ancestor);
      }
    }
    if (uri == "/" || uri.empty()) break;
    const std::size_t slash = uri.rfind('/');
    if (slash == std::string::npos) break;
    uri = slash == 0 ? "/" : uri.substr(0, slash);
  }
}

void ResponseCache::ClearShardLocked(Shard& shard) {
  // Fence in-flight inserts begun before the clear: they must not resurrect
  // dropped entries with stale bodies.
  shard.invalidation_floor = ++shard.generation;
  shard.invalidated_at.clear();
  shard.entries.clear();
  shard.lru.clear();
}

void ResponseCache::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    ClearShardLocked(shard);
  }
}

void ResponseCache::set_enabled(bool enabled) {
  const bool was = enabled_.exchange(enabled);
  if (was && !enabled) Clear();
}

ResponseCacheStats ResponseCache::stats() const {
  ResponseCacheStats total;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total.hits += shard.stats.hits;
    total.misses += shard.stats.misses;
    total.evictions += shard.stats.evictions;
    total.invalidations += shard.stats.invalidations;
  }
  return total;
}

std::size_t ResponseCache::size() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.entries.size();
  }
  return total;
}

}  // namespace ofmf::redfish
