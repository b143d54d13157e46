#ifndef COMPTX_SERVICE_METRICS_H_
#define COMPTX_SERVICE_METRICS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>

#include "durability/wal.h"

namespace comptx::service {

/// An HDR-style log-linear latency histogram over microseconds.
///
/// Values are bucketed by magnitude (one major bucket per power of two)
/// with kSubBuckets linear sub-buckets inside each major, bounding the
/// relative quantile error by 1/kSubBuckets (6.25%) — the classic
/// HdrHistogram trade: fixed memory, lock-free recording, and quantiles
/// accurate to the precision latency numbers are ever quoted at.
/// Recording is a few relaxed atomic updates (bucket, sum, min, max);
/// quantile extraction scans the ~1k buckets.  Values above ~2^40 us
/// (12 days) saturate the top bucket.
class LatencyHistogram {
 public:
  static constexpr size_t kSubBits = 4;                  // 16 sub-buckets
  static constexpr size_t kSubBuckets = 1u << kSubBits;  // per major
  static constexpr size_t kMajors = 40;
  static constexpr size_t kBucketCount = kSubBuckets * (kMajors + 1);

  void Record(uint64_t micros);

  struct Snapshot {
    uint64_t count = 0;
    uint64_t min = 0;
    uint64_t max = 0;
    double mean = 0;
    uint64_t p50 = 0;
    uint64_t p95 = 0;
    uint64_t p99 = 0;

    /// The value at quantile q in [0, 1] (upper bound of the bucket
    /// holding the q-th sample).
    uint64_t ValueAt(double q) const;

    /// "count=12 mean=3.4 p50=3 p95=9 p99=12 max=15" (microseconds).
    std::string Summary() const;

    /// Adds `other`'s samples into this snapshot and recomputes the
    /// derived fields.  Bucket counts merge exactly, so the quantiles of
    /// the union are as accurate as any single snapshot's — this is how
    /// comptx_load --processes aggregates its children's histograms.
    void Merge(const Snapshot& other);

    /// One-line "count min max mean idx:n idx:n ..." rendering (nonzero
    /// buckets only) and its inverse — the --processes pipe format.
    /// ParseText rejects anything SerializeText cannot produce: signs,
    /// out-of-range integers, bucket counts that do not sum to `count`,
    /// and min > max.
    std::string SerializeText() const;
    static std::optional<Snapshot> ParseText(const std::string& text);

   private:
    friend class LatencyHistogram;
    std::array<uint64_t, kBucketCount> buckets{};
  };

  /// Consistent-enough snapshot for monitoring: buckets are read with
  /// relaxed loads, so samples recorded concurrently may be missed.
  Snapshot Snap() const;

  /// Maps a value to its bucket index / a bucket index to the largest
  /// value it holds (exposed for tests).
  static size_t BucketFor(uint64_t micros);
  static uint64_t BucketUpperBound(size_t bucket);

 private:
  std::array<std::atomic<uint64_t>, kBucketCount> buckets_{};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{~0ull};
  std::atomic<uint64_t> max_{0};
};

/// Everything the service exports: counters, gauges and the two
/// first-class latency histograms (append round-trip and verdict query).
/// One instance per server.  Every counter is a relaxed atomic, the same
/// shape as durability::Counters; recorders bump them with
/// fetch_add(n, relaxed), the STATS command and the periodic log line
/// read them with relaxed loads.
class ServiceMetrics {
 public:
  ServiceMetrics() : start_(std::chrono::steady_clock::now()) {}

  // --- counters -----------------------------------------------------
  std::atomic<uint64_t> sessions_opened{0};
  std::atomic<uint64_t> sessions_closed{0};
  std::atomic<uint64_t> sessions_evicted{0};
  // Invariant once all queues drain:
  //   events_enqueued == events_processed + events_rejected.
  std::atomic<uint64_t> events_enqueued{0};   // accepted into a session queue
  std::atomic<uint64_t> events_processed{0};  // successfully ingested
  std::atomic<uint64_t> events_rejected{0};   // certifier rejected on ingest
  std::atomic<uint64_t> append_batches{0};
  std::atomic<uint64_t> verdict_queries{0};
  std::atomic<uint64_t> backpressure_waits{0};  // producer blocked, queue full
  std::atomic<uint64_t> protocol_errors{0};
  std::atomic<uint64_t> connections_accepted{0};

  // Distributed topology (DESIGN.md §15): the ORDER_STREAM publisher
  // side (stream_*), the upstream-edge consumer side (remote_*), and the
  // cross-node commit protocol (prepares/decides).
  std::atomic<uint64_t> stream_fetches{0};           // STREAM requests served
  std::atomic<uint64_t> stream_events_published{0};  // events in replies
  std::atomic<uint64_t> remote_batches{0};           // upstream batches applied
  std::atomic<uint64_t> remote_events_ingested{0};   // remapped, forwarded
  std::atomic<uint64_t> remote_events_deduped{0};    // creations already known
  std::atomic<uint64_t> remote_remap_drops{0};       // the shadow rejected
  std::atomic<uint64_t> edge_resubscribes{0};        // resets after reconnect
  std::atomic<uint64_t> prepares{0};                 // PREPARE commands handled
  std::atomic<uint64_t> decides{0};                  // DECIDE commands handled

  // Certifier memory behavior (online::CertifierStats), aggregated over
  // live sessions: each session publishes deltas at the end of a worker
  // batch (while it is still the certifier's one writer) and retires its
  // contribution when it closes or is evicted, so long-session
  // pruning is observable from the wire (STATS body, DESIGN.md §6).
  std::atomic<uint64_t> certifier_prune_passes{0};
  std::atomic<uint64_t> certifier_pruned_nodes{0};

  // --- durability ---------------------------------------------------
  // Written by the durability layer (WAL writers, snapshotter, recovery),
  // which takes a pointer to this block so it never depends on the
  // service layer.  All zero when the server runs without --data-dir.
  durability::Counters durability;

  // --- gauges -------------------------------------------------------
  std::atomic<int64_t> active_sessions{0};
  std::atomic<int64_t> active_connections{0};
  std::atomic<int64_t> queue_depth{0};  // events enqueued, not yet ingested
  // Live serialization-graph nodes across all live sessions' certifiers
  // (grows with ingest, shrinks with pruning and session close).
  std::atomic<int64_t> certifier_live_nodes{0};

  // --- histograms (microseconds) ------------------------------------
  LatencyHistogram append_latency;
  LatencyHistogram verdict_latency;

  double UptimeSeconds() const;

  /// Events processed per second of uptime.
  double EventsPerSecond() const;

  /// Multi-line "key value" rendering, the body of the STATS response and
  /// of the periodic server log line (single-line variant).
  std::string RenderText() const;
  std::string RenderLine() const;

  /// One JSON object with the same keys as RenderText (histograms as
  /// nested objects) — the `STATS json=1` body, so the topology launcher
  /// and CI scrape counters without parsing the text format.
  std::string RenderJson() const;

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace comptx::service

#endif  // COMPTX_SERVICE_METRICS_H_
