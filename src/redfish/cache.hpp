// Serialized-response cache for the Redfish read path. Memoizes the fully
// stamped, serialized GET body keyed on (uri, etag, normalized query string)
// so repeated reads of an unchanged resource — the telemetry polling storms
// the paper's management layer must absorb — skip the deep copy, the OData
// query evaluation, and the JSON serialization entirely.
//
// Invalidation: a mutation of URI U invalidates U, and the query-shaped
// bodies ($expand, $filter, paging) of every ancestor of U, because those
// embed member documents whose changes do not bump the ancestor's own ETag.
// An ancestor's plain body is its own document alone: a change to it
// notifies its own URI (adding a member rewrites the collection). A per-shard
// generation counter closes the insert/invalidate race: a body built from a
// snapshot taken before an invalidation is rejected at insert time, so a
// cached body always matches the state its ETag names.
//
// The cache is sharded by URI hash so concurrent readers on disjoint
// resources do not serialize on one lock (the whole point of the shared-lock
// tree conversion this cache sits in front of).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

namespace ofmf::redfish {

/// A cache entry handed to readers: the serialized body plus the
/// pre-serialized header blocks for the 200 and 304 answers, all as shared
/// immutable slabs. A hit serializes nothing — the transport writes the
/// head slab and the body slab straight to the wire, and every concurrent
/// hit references the same bytes (zero-copy; see DESIGN.md "Zero-copy data
/// path"). The heads carry no Connection header and no terminating blank
/// line; the transport appends its own fragment.
struct CachedResponse {
  std::shared_ptr<const std::string> body;
  std::shared_ptr<const std::string> head200;
  std::shared_ptr<const std::string> head304;
};

struct ResponseCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t invalidations = 0;  // entries dropped by change events
  double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

class ResponseCache {
 public:
  explicit ResponseCache(std::size_t capacity = kDefaultCapacity);

  /// Generation fence: call before reading the resource tree, pass the value
  /// to Insert() for the same `uri`. An invalidation of `uri` between the
  /// two rejects the insert.
  std::uint64_t BeginRead(const std::string& uri) const;

  /// Cached entry for (uri, etag, query), or nullopt. Hits refresh LRU
  /// position and share the stored slabs — no body copy. `uri` must already
  /// be normalized.
  std::optional<CachedResponse> Lookup(const std::string& uri, const std::string& etag,
                                       const std::string& query);

  /// Stores a serialized body with its pre-serialized heads. Dropped (not an
  /// error) when the cache is disabled, the entry was invalidated after
  /// `read_generation`, or the key already landed via a concurrent reader.
  void Insert(const std::string& uri, const std::string& etag, const std::string& query,
              CachedResponse entry, std::uint64_t read_generation);

  /// Drops every entry for `changed_uri` and the entries with a query of
  /// each of its ancestors (those embed member state). Bumps the generation
  /// fences.
  void Invalidate(const std::string& changed_uri);

  void Clear();

  void set_enabled(bool enabled);
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Aggregated over all shards.
  ResponseCacheStats stats() const;
  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }

  static constexpr std::size_t kDefaultCapacity = 4096;
  static constexpr std::size_t kShards = 16;

 private:
  struct Entry {
    CachedResponse payload;
    std::list<std::string>::iterator lru_it;  // position in Shard::lru
  };

  struct Shard {
    mutable std::mutex mu;
    std::map<std::string, Entry> entries;
    std::list<std::string> lru;  // front = most recent, holds map keys
    // Monotonic generation; bumped by Invalidate(). Per-URI entries record
    // the generation of their last invalidation so late inserts of bodies
    // built from stale snapshots are rejected.
    std::uint64_t generation = 0;
    std::map<std::string, std::uint64_t> invalidated_at;
    // Reads begun before this generation may not insert (set by Clear() and
    // by invalidated_at overflow collapse — a conservative whole-shard fence).
    std::uint64_t invalidation_floor = 0;
    ResponseCacheStats stats;
  };

  // Composite map key: "<uri>\n<etag>\n<query>". '\n' cannot appear in a
  // normalized path, an ETag, or a query string, so the encoding is
  // injective, and the uri-first ordering makes per-URI prefix erase a
  // contiguous range scan.
  static std::string MakeKey(const std::string& uri, const std::string& etag,
                             const std::string& query);

  Shard& ShardFor(const std::string& uri) const;
  void InvalidateUriInShard(Shard& shard, const std::string& uri, bool queried_only);
  void ClearShardLocked(Shard& shard);

  std::size_t capacity_;          // total; split evenly across shards
  std::size_t shard_capacity_;    // >= 1
  std::atomic<bool> enabled_{true};
  mutable std::array<Shard, kShards> shards_;
};

/// "a=1&b=2" canonical form of a parsed query map (keys sorted; "" if empty).
std::string NormalizeQuery(const std::map<std::string, std::string>& query);

}  // namespace ofmf::redfish
