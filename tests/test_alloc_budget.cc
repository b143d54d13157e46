// Allocation budget of the online certifier's steady state (ctest label
// `online`).  This executable replaces the global operator new with a
// counting one, so it is built only without sanitizers (which install
// their own allocator).
//
// A long session whose window is bounded recycles everything the engine
// keeps per node — relation rows, cycle-graph vertex slots, scratch
// buffers — so once warm, ingesting an event costs at most about one heap
// allocation, the ones the composite system makes for a new node's child
// list.  The test streams a two-level execution shaped like the
// stream_window benchmark workload: roots on a top schedule R, each
// invoking one or two subtransactions on lower schedules S0..S2 with one
// leaf each, conflicting and ordered against up to two live peers, and a
// commit_through watermark every 4 roots that seals all but the newest
// 16.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "online/certifier.h"
#include "util/rng.h"
#include "workload/trace.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// The library's array forms forward to these.  GCC takes free() in a
// replaced operator delete for a mismatch with new; it is not one here.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace comptx::online {
namespace {

using workload::TraceEvent;
using workload::TraceEventKind;

/// The window-16 watermark stream described at the top of this file.
class WindowStream {
 public:
  static constexpr uint32_t kLower = 3;
  static constexpr uint64_t kWindow = 16;
  static constexpr uint64_t kWatermarkEvery = 4;

  explicit WindowStream(uint64_t seed) : rng_(seed), live_(kLower) {}

  /// Appends whole roots' events until `out` holds at least `n` events.
  void Fill(size_t n, std::vector<TraceEvent>& out) {
    while (out.size() < n) EmitRoot(out);
  }

 private:
  struct LiveSub {
    uint64_t root;
    uint32_t sub;
    uint32_t leaf;
  };

  static TraceEvent Event(TraceEventKind kind) {
    TraceEvent e;
    e.kind = kind;
    return e;
  }

  void EmitRoot(std::vector<TraceEvent>& out) {
    if (roots_ == 0) {
      for (const char* name : {"R", "S0", "S1", "S2"}) {
        TraceEvent e = Event(TraceEventKind::kSchedule);
        e.name = name;
        out.push_back(e);
      }
    }
    const uint64_t ordinal = roots_++;
    TraceEvent root = Event(TraceEventKind::kRoot);
    root.schedule = 0;
    root.name = "T" + std::to_string(ordinal);
    out.push_back(root);
    const uint32_t root_id = next_node_++;

    std::vector<uint32_t> scheds = {
        static_cast<uint32_t>(rng_.UniformInt(kLower))};
    if (rng_.Bernoulli(0.5)) {
      scheds.push_back((scheds[0] + 1 +
                        static_cast<uint32_t>(rng_.UniformInt(kLower - 1))) %
                       kLower);
    }
    for (uint32_t k : scheds) {
      TraceEvent sub = Event(TraceEventKind::kSub);
      sub.parent = root_id;
      sub.schedule = 1 + k;
      sub.name = "u" + std::to_string(ordinal) + "_" + std::to_string(k);
      out.push_back(sub);
      const uint32_t sub_id = next_node_++;
      TraceEvent leaf = Event(TraceEventKind::kLeaf);
      leaf.parent = sub_id;
      leaf.name = "x" + std::to_string(ordinal) + "_" + std::to_string(k);
      out.push_back(leaf);
      const uint32_t leaf_id = next_node_++;

      std::vector<LiveSub>& live = live_[k];
      std::erase_if(live, [&](const LiveSub& s) {
        return s.root + kWindow <= ordinal;
      });
      std::vector<LiveSub> peers = live;
      rng_.Shuffle(peers);
      peers.resize(std::min<size_t>(peers.size(), rng_.UniformInt(3)));
      for (const LiveSub& p : peers) {
        auto pair = [&](TraceEventKind kind, uint32_t a, uint32_t b,
                        uint32_t schedule) {
          TraceEvent e = Event(kind);
          e.a = a;
          e.b = b;
          e.schedule = schedule;
          out.push_back(e);
        };
        // Leaves conflict on S_k, subtransactions on R, oldest first at
        // both levels; R's output order reaches S_k as its input order.
        pair(TraceEventKind::kConflict, p.leaf, leaf_id, kInvalidIndex);
        pair(TraceEventKind::kWeakOutput, p.leaf, leaf_id, kInvalidIndex);
        pair(TraceEventKind::kConflict, p.sub, sub_id, kInvalidIndex);
        pair(TraceEventKind::kWeakOutput, p.sub, sub_id, kInvalidIndex);
        pair(TraceEventKind::kWeakInput, p.sub, sub_id, 1 + k);
      }
      live.push_back(LiveSub{ordinal, sub_id, leaf_id});
    }
    if (roots_ % kWatermarkEvery == 0 && roots_ > kWindow) {
      TraceEvent e = Event(TraceEventKind::kCommitThrough);
      e.a = static_cast<uint32_t>(roots_ - kWindow);
      out.push_back(e);
    }
  }

  Rng rng_;
  uint64_t roots_ = 0;
  uint32_t next_node_ = 0;
  std::vector<std::vector<LiveSub>> live_;  // per lower schedule
};

/// `events[from, to)` cut into consecutive slices of `size` events.
std::vector<std::vector<TraceEvent>> Slices(
    const std::vector<TraceEvent>& events, size_t from, size_t to,
    size_t size) {
  std::vector<std::vector<TraceEvent>> out;
  for (size_t i = from; i < to; i += size) {
    const size_t end = std::min(to, i + size);
    out.emplace_back(events.begin() + static_cast<long>(i),
                     events.begin() + static_cast<long>(end));
  }
  return out;
}

TEST(AllocationBudgetTest, SteadyStateIngestAllocatesAtMostOncePerEvent) {
  constexpr size_t kWarmup = 16384;
  constexpr size_t kMeasured = 65536;
  constexpr size_t kSlice = 256;
  // Everything the measured loop reads is built before counting starts.
  std::vector<TraceEvent> events;
  WindowStream(7).Fill(kWarmup + kMeasured, events);
  const auto warmup = Slices(events, 0, kWarmup, kSlice);
  const auto measured = Slices(events, kWarmup, kWarmup + kMeasured, kSlice);

  Certifier certifier;
  size_t rejected = 0;
  for (const auto& slice : warmup) rejected += certifier.IngestBatch(slice);

  const uint64_t before = g_allocations.load();
  for (const auto& slice : measured) rejected += certifier.IngestBatch(slice);
  const uint64_t allocations = g_allocations.load() - before;

  const double per_event = static_cast<double>(allocations) / kMeasured;
  std::printf("%.3f heap allocations per event\n", per_event);
  EXPECT_EQ(rejected, 0u);
  EXPECT_TRUE(certifier.Certifiable());
  // The window slid: at most 16 + 3 unsealed roots of at most 5 nodes.
  EXPECT_LE(certifier.Stats().live_nodes, 95u);
  EXPECT_LE(allocations, kMeasured)
      << per_event << " heap allocations per event over " << kMeasured
      << " events";
}

}  // namespace
}  // namespace comptx::online
