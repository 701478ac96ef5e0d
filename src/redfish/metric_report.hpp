// MetricReport and MetricsDump renderings shared by the shard-side
// TelemetryService and the federation router's fleet reports: a shard report
// and its fleet-merged counterpart are the same rendering of two inputs (the
// live registry and caches, or the sum of the shards' dumps).
#pragma once

#include <cstdint>
#include <string>

#include "common/metrics.hpp"
#include "json/value.hpp"
#include "redfish/cache.hpp"

namespace ofmf::redfish {

/// One MetricValues entry; whoever publishes it stamps the Timestamp.
json::Json Metric(const std::string& id, double value, const std::string& property);
/// A #MetricReport body: Id, Name, ReportSequence, MetricValues, and
/// Oem.Ofmf = `oem` when `oem` is an object.
json::Json MetricReport(const std::string& id, const std::string& name, json::Array values,
                        json::Json oem = json::Json());

/// <name>.count/.p50/.p95/.p99/.mean. Series named *.ns or http.latency.*
/// record nanoseconds and are reported in milliseconds, the rest in "units".
void AppendHistogramMetrics(const std::string& name,
                            const metrics::Histogram::Snapshot& snap, json::Array& values);
/// CacheHits/Misses/Evictions/Invalidations and CacheHitRate.
void AppendCacheMetrics(const ResponseCacheStats& stats, const std::string& property,
                        json::Array& values);
/// EventsDelivered, DeliveryBatches, ... from a dump "EventDelivery" section.
void AppendDeliveryTotals(const json::Json& section, const std::string& property,
                          json::Array& values);

/// MetricsDump pieces: a "Histograms" entry (percentiles plus the raw log2
/// Buckets the router merges), a "Counters" entry, the "ResponseCache"
/// section (counters and hit rate).
json::Json HistogramDumpEntry(const std::string& name, const metrics::Histogram::Snapshot& snap);
json::Json CounterDumpEntry(const std::string& name, std::uint64_t value);
json::Json CacheSection(const ResponseCacheStats& stats);

}  // namespace ofmf::redfish
