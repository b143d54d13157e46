#include "service/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <string_view>

#include "util/string_util.h"

namespace comptx::service {

namespace {

uint64_t Load(const std::atomic<uint64_t>& counter) {
  return counter.load(std::memory_order_relaxed);
}

}  // namespace

size_t LatencyHistogram::BucketFor(uint64_t micros) {
  if (micros < kSubBuckets) return static_cast<size_t>(micros);
  // major = index of the highest set bit; sub = the kSubBits bits below it.
  size_t major = 63 - static_cast<size_t>(std::countl_zero(micros));
  if (major > kMajors + kSubBits - 1) major = kMajors + kSubBits - 1;
  const size_t sub =
      static_cast<size_t>(micros >> (major - kSubBits)) & (kSubBuckets - 1);
  return (major - kSubBits + 1) * kSubBuckets + sub;
}

uint64_t LatencyHistogram::BucketUpperBound(size_t bucket) {
  if (bucket < kSubBuckets) return static_cast<uint64_t>(bucket);
  const size_t major = bucket / kSubBuckets + kSubBits - 1;
  const size_t sub = bucket % kSubBuckets;
  const uint64_t base = 1ull << major;
  const uint64_t width = 1ull << (major - kSubBits);
  return base + (sub + 1) * width - 1;
}

void LatencyHistogram::Record(uint64_t micros) {
  buckets_[BucketFor(micros)].fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(micros, std::memory_order_relaxed);
  uint64_t seen = min_.load(std::memory_order_relaxed);
  while (micros < seen &&
         !min_.compare_exchange_weak(seen, micros, std::memory_order_relaxed)) {
  }
  seen = max_.load(std::memory_order_relaxed);
  while (micros > seen &&
         !max_.compare_exchange_weak(seen, micros, std::memory_order_relaxed)) {
  }
}

uint64_t LatencyHistogram::Snapshot::ValueAt(double q) const {
  if (count == 0) return 0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  // Rank of the target sample (1-based), then the first bucket whose
  // cumulative count reaches it.
  const uint64_t rank =
      static_cast<uint64_t>(q * static_cast<double>(count - 1)) + 1;
  uint64_t cumulative = 0;
  for (size_t i = 0; i < kBucketCount; ++i) {
    cumulative += buckets[i];
    if (cumulative >= rank) {
      uint64_t value = BucketUpperBound(i);
      return value > max ? max : value;
    }
  }
  return max;
}

std::string LatencyHistogram::Snapshot::Summary() const {
  return StrCat("count=", count, " mean=", mean, " p50=", p50, " p95=", p95,
                " p99=", p99, " max=", max);
}

void LatencyHistogram::Snapshot::Merge(const Snapshot& other) {
  if (other.count == 0) return;
  const double total_sum = mean * static_cast<double>(count) +
                           other.mean * static_cast<double>(other.count);
  min = count == 0 ? other.min : std::min(min, other.min);
  max = std::max(max, other.max);
  for (size_t i = 0; i < kBucketCount; ++i) buckets[i] += other.buckets[i];
  count += other.count;
  mean = total_sum / static_cast<double>(count);
  p50 = ValueAt(0.50);
  p95 = ValueAt(0.95);
  p99 = ValueAt(0.99);
}

std::string LatencyHistogram::Snapshot::SerializeText() const {
  std::string out = StrCat(count, " ", min, " ", max, " ", mean);
  for (size_t i = 0; i < kBucketCount; ++i) {
    if (buckets[i] != 0) out = StrCat(out, " ", i, ":", buckets[i]);
  }
  return out;
}

std::optional<LatencyHistogram::Snapshot>
LatencyHistogram::Snapshot::ParseText(const std::string& text) {
  std::istringstream in(text);
  const auto next_uint = [&in]() -> std::optional<uint64_t> {
    std::string token;
    if (!(in >> token)) return std::nullopt;
    auto parsed = ParseUint64("histogram field", token);
    if (!parsed.ok()) return std::nullopt;
    return *parsed;
  };
  Snapshot snap;
  const auto count = next_uint();
  const auto min = next_uint();
  const auto max = next_uint();
  std::string mean;
  if (!count || !min || !max || !(in >> mean) || *min > *max) {
    return std::nullopt;
  }
  snap.count = *count;
  snap.min = *min;
  snap.max = *max;
  char* end = nullptr;
  snap.mean = std::strtod(mean.c_str(), &end);
  if (end != mean.c_str() + mean.size() || !std::isfinite(snap.mean) ||
      snap.mean < 0) {
    return std::nullopt;
  }
  uint64_t total = 0;
  std::string entry;
  while (in >> entry) {
    const size_t colon = entry.find(':');
    if (colon == std::string::npos) return std::nullopt;
    const std::string_view field(entry);
    auto index = ParseUint64("bucket", field.substr(0, colon));
    auto n = ParseUint64("bucket count", field.substr(colon + 1));
    // SerializeText writes each nonzero bucket exactly once.
    if (!index.ok() || !n.ok() || *index >= kBucketCount || *n == 0 ||
        snap.buckets[*index] != 0 || *n > UINT64_MAX - total) {
      return std::nullopt;
    }
    snap.buckets[*index] = *n;
    total += *n;
  }
  if (total != snap.count) return std::nullopt;
  snap.p50 = snap.ValueAt(0.50);
  snap.p95 = snap.ValueAt(0.95);
  snap.p99 = snap.ValueAt(0.99);
  return snap;
}

LatencyHistogram::Snapshot LatencyHistogram::Snap() const {
  Snapshot snap;
  for (size_t i = 0; i < kBucketCount; ++i) {
    snap.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    snap.count += snap.buckets[i];
  }
  if (snap.count == 0) return snap;
  snap.min = min_.load(std::memory_order_relaxed);
  snap.max = max_.load(std::memory_order_relaxed);
  snap.mean = static_cast<double>(sum_.load(std::memory_order_relaxed)) /
              static_cast<double>(snap.count);
  snap.p50 = snap.ValueAt(0.50);
  snap.p95 = snap.ValueAt(0.95);
  snap.p99 = snap.ValueAt(0.99);
  return snap;
}

double ServiceMetrics::UptimeSeconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

double ServiceMetrics::EventsPerSecond() const {
  const double seconds = UptimeSeconds();
  if (seconds <= 0) return 0;
  return static_cast<double>(Load(events_processed)) / seconds;
}

std::string ServiceMetrics::RenderText() const {
  const LatencyHistogram::Snapshot append = append_latency.Snap();
  const LatencyHistogram::Snapshot verdict = verdict_latency.Snap();
  std::string out;
  const auto line = [&out](const char* key, const auto& value) {
    out += StrCat(key, " ", value, "\n");
  };
  line("uptime_seconds", UptimeSeconds());
  line("active_sessions", active_sessions.load(std::memory_order_relaxed));
  line("active_connections",
       active_connections.load(std::memory_order_relaxed));
  line("connections_accepted", Load(connections_accepted));
  line("queue_depth", queue_depth.load(std::memory_order_relaxed));
  line("sessions_opened", Load(sessions_opened));
  line("sessions_closed", Load(sessions_closed));
  line("sessions_evicted", Load(sessions_evicted));
  line("events_enqueued", Load(events_enqueued));
  line("events_processed", Load(events_processed));
  line("events_rejected", Load(events_rejected));
  line("events_per_second", EventsPerSecond());
  line("append_batches", Load(append_batches));
  line("verdict_queries", Load(verdict_queries));
  line("backpressure_waits", Load(backpressure_waits));
  line("protocol_errors", Load(protocol_errors));
  line("certifier_live_nodes",
       certifier_live_nodes.load(std::memory_order_relaxed));
  line("certifier_prune_passes", Load(certifier_prune_passes));
  line("certifier_pruned_nodes", Load(certifier_pruned_nodes));
  line("stream_fetches", Load(stream_fetches));
  line("stream_events_published", Load(stream_events_published));
  line("remote_batches", Load(remote_batches));
  line("remote_events_ingested", Load(remote_events_ingested));
  line("remote_events_deduped", Load(remote_events_deduped));
  line("remote_remap_drops", Load(remote_remap_drops));
  line("edge_resubscribes", Load(edge_resubscribes));
  line("prepares", Load(prepares));
  line("decides", Load(decides));
  line("wal_appends", Load(durability.wal_appends));
  line("wal_append_events", Load(durability.wal_append_events));
  line("wal_bytes", Load(durability.wal_bytes));
  line("fsyncs", Load(durability.fsyncs));
  line("snapshots_written", Load(durability.snapshots_written));
  line("sessions_recovered", Load(durability.sessions_recovered));
  line("records_truncated", Load(durability.records_truncated));
  line("recovered_events", Load(durability.recovered_events));
  line("recovery_mismatches", Load(durability.recovery_mismatches));
  line("append_latency_us", append.Summary());
  line("verdict_latency_us", verdict.Summary());
  return out;
}

std::string ServiceMetrics::RenderJson() const {
  const LatencyHistogram::Snapshot append = append_latency.Snap();
  const LatencyHistogram::Snapshot verdict = verdict_latency.Snap();
  std::ostringstream out;
  bool first = true;
  const auto field = [&](const char* key, const auto& value) {
    out << (first ? "" : ", ") << "\"" << key << "\": " << value;
    first = false;
  };
  const auto histogram = [&](const char* key,
                             const LatencyHistogram::Snapshot& snap) {
    out << (first ? "" : ", ") << "\"" << key << "\": {\"count\": "
        << snap.count << ", \"min\": " << snap.min << ", \"max\": " << snap.max
        << ", \"mean\": " << snap.mean << ", \"p50\": " << snap.p50
        << ", \"p95\": " << snap.p95 << ", \"p99\": " << snap.p99 << "}";
    first = false;
  };
  out << "{";
  field("uptime_seconds", UptimeSeconds());
  field("active_sessions", active_sessions.load(std::memory_order_relaxed));
  field("active_connections",
        active_connections.load(std::memory_order_relaxed));
  field("connections_accepted", Load(connections_accepted));
  field("queue_depth", queue_depth.load(std::memory_order_relaxed));
  field("sessions_opened", Load(sessions_opened));
  field("sessions_closed", Load(sessions_closed));
  field("sessions_evicted", Load(sessions_evicted));
  field("events_enqueued", Load(events_enqueued));
  field("events_processed", Load(events_processed));
  field("events_rejected", Load(events_rejected));
  field("events_per_second", EventsPerSecond());
  field("append_batches", Load(append_batches));
  field("verdict_queries", Load(verdict_queries));
  field("backpressure_waits", Load(backpressure_waits));
  field("protocol_errors", Load(protocol_errors));
  field("certifier_live_nodes",
        certifier_live_nodes.load(std::memory_order_relaxed));
  field("certifier_prune_passes", Load(certifier_prune_passes));
  field("certifier_pruned_nodes", Load(certifier_pruned_nodes));
  field("stream_fetches", Load(stream_fetches));
  field("stream_events_published", Load(stream_events_published));
  field("remote_batches", Load(remote_batches));
  field("remote_events_ingested", Load(remote_events_ingested));
  field("remote_events_deduped", Load(remote_events_deduped));
  field("remote_remap_drops", Load(remote_remap_drops));
  field("edge_resubscribes", Load(edge_resubscribes));
  field("prepares", Load(prepares));
  field("decides", Load(decides));
  field("wal_appends", Load(durability.wal_appends));
  field("wal_append_events", Load(durability.wal_append_events));
  field("wal_bytes", Load(durability.wal_bytes));
  field("fsyncs", Load(durability.fsyncs));
  field("snapshots_written", Load(durability.snapshots_written));
  field("sessions_recovered", Load(durability.sessions_recovered));
  field("records_truncated", Load(durability.records_truncated));
  field("recovered_events", Load(durability.recovered_events));
  field("recovery_mismatches", Load(durability.recovery_mismatches));
  histogram("append_latency_us", append);
  histogram("verdict_latency_us", verdict);
  out << "}";
  return out.str();
}

std::string ServiceMetrics::RenderLine() const {
  const LatencyHistogram::Snapshot append = append_latency.Snap();
  const LatencyHistogram::Snapshot verdict = verdict_latency.Snap();
  return StrCat(
      "sessions=", active_sessions.load(std::memory_order_relaxed),
      " depth=", queue_depth.load(std::memory_order_relaxed),
      " enq=", Load(events_enqueued), " proc=", Load(events_processed),
      " rej=", Load(events_rejected), " evict=", Load(sessions_evicted),
      " conns=", active_connections.load(std::memory_order_relaxed),
      " live_nodes=", certifier_live_nodes.load(std::memory_order_relaxed),
      " eps=", EventsPerSecond(), " append_p99us=", append.p99,
      " verdict_p99us=", verdict.p99);
}

}  // namespace comptx::service
