#include "gen.h"

#include <algorithm>
#include <string>

#include "core/correctness.h"
#include "util/logging.h"
#include "workload/workload_spec.h"

namespace perfbench {

using comptx::workload::TraceEvent;
using comptx::workload::TraceEventKind;

namespace {

// stream_window shape: lower schedules S0..S2, a live window of 16 roots,
// and a commit_through watermark every 4 roots.
constexpr uint32_t kLower = 3;
constexpr uint32_t kWindow = 16;
constexpr uint32_t kWatermarkEvery = 4;

}  // namespace

StreamWindowGen::StreamWindowGen(uint64_t seed) : rng_(seed), live_(kLower) {}

void StreamWindowGen::Next(size_t n, Events& out) {
  while (n > 0) {
    if (pending_pos_ == pending_.size()) {
      pending_.clear();
      pending_pos_ = 0;
      EmitRoot();
    }
    out.push_back(pending_[pending_pos_++]);
    --n;
  }
}

void StreamWindowGen::EmitRoot() {
  TraceEvent e;
  if (roots_ == 0) {
    e.kind = TraceEventKind::kSchedule;
    e.name = "R";
    pending_.push_back(e);
    for (uint32_t k = 0; k < kLower; ++k) {
      e.name = "S" + std::to_string(k);
      pending_.push_back(e);
    }
  }
  const uint64_t ordinal = roots_++;
  const std::string tag = std::to_string(ordinal);
  e = {};
  e.kind = TraceEventKind::kRoot;
  e.schedule = 0;
  e.name = "T" + tag;
  pending_.push_back(e);
  const uint32_t root = next_node_++;

  // One or two distinct lower schedules per root.
  const uint32_t first = static_cast<uint32_t>(rng_.UniformInt(kLower));
  std::vector<uint32_t> scheds = {first};
  if (rng_.Bernoulli(0.5)) {
    scheds.push_back(
        (first + 1 + static_cast<uint32_t>(rng_.UniformInt(kLower - 1))) %
        kLower);
  }
  for (uint32_t k : scheds) {
    e = {};
    e.kind = TraceEventKind::kSub;
    e.parent = root;
    e.schedule = 1 + k;
    e.name = "u" + tag + "_" + std::to_string(k);
    pending_.push_back(e);
    const uint32_t sub = next_node_++;
    e = {};
    e.kind = TraceEventKind::kLeaf;
    e.parent = sub;
    e.name = "x" + tag + "_" + std::to_string(k);
    pending_.push_back(e);
    const uint32_t leaf = next_node_++;

    // Drop subtransactions of roots that left the window, then pick up
    // to two live peers on this schedule.
    auto& live = live_[k];
    size_t keep = 0;
    for (const LiveSub& s : live) {
      if (s.root + kWindow > ordinal) live[keep++] = s;
    }
    live.resize(keep);
    std::vector<LiveSub> peers = live;
    rng_.Shuffle(peers);
    const size_t want = static_cast<size_t>(rng_.UniformInt(3));  // 0..2
    if (peers.size() > want) peers.resize(want);
    for (const LiveSub& p : peers) {
      const auto pair = [&](TraceEventKind kind, uint32_t a, uint32_t b,
                            uint32_t schedule) {
        TraceEvent r;
        r.kind = kind;
        r.a = a;
        r.b = b;
        r.schedule = schedule;
        pending_.push_back(r);
      };
      // Leaves conflict on S_k; the older leaf is output first there.
      pair(TraceEventKind::kConflict, p.leaf, leaf, comptx::kInvalidIndex);
      pair(TraceEventKind::kWeakOutput, p.leaf, leaf, comptx::kInvalidIndex);
      // The subtransactions conflict on R, are output oldest first, and R's
      // output order reaches S_k as its input order (Def 4.7).
      pair(TraceEventKind::kConflict, p.sub, sub, comptx::kInvalidIndex);
      pair(TraceEventKind::kWeakOutput, p.sub, sub, comptx::kInvalidIndex);
      pair(TraceEventKind::kWeakInput, p.sub, sub, 1 + k);
    }
    live.push_back(LiveSub{ordinal, sub, leaf});
  }

  // The watermark seals roots older than the window; none of them is a
  // peer of any later root, so sealing never rejects a later event.
  if (roots_ % kWatermarkEvery == 0 && roots_ > kWindow) {
    e = {};
    e.kind = TraceEventKind::kCommitThrough;
    e.a = static_cast<uint32_t>(roots_ - kWindow);
    pending_.push_back(e);
  }
}

Events EventsOf(const comptx::CompositeSystem& cs) {
  auto text = comptx::workload::SaveTrace(cs);
  COMPTX_CHECK(text.ok()) << text.status().ToString();
  auto events = comptx::workload::ParseTraceEvents(*text);
  COMPTX_CHECK(events.ok()) << events.status().ToString();
  return std::move(events).value();
}

std::vector<Events> Chunk(const Events& events, size_t size) {
  std::vector<Events> out;
  for (size_t i = 0; i < events.size(); i += size) {
    out.emplace_back(events.begin() + static_cast<long>(i),
                     events.begin() + static_cast<long>(
                                          std::min(events.size(), i + size)));
  }
  return out;
}

namespace {

Execution MakeExecution(const comptx::workload::WorkloadSpec& spec,
                        uint64_t seed) {
  auto cs = comptx::workload::GenerateSystem(spec, seed);
  COMPTX_CHECK(cs.ok()) << cs.status().ToString();
  Execution ex;
  ex.events = EventsOf(*cs);
  comptx::ReductionOptions options;
  options.validate = false;
  options.keep_fronts = false;
  auto verdict = comptx::CheckCompC(*cs, options);
  COMPTX_CHECK(verdict.ok()) << verdict.status().ToString();
  ex.comp_c = verdict->correct;
  ex.system = std::move(cs).value();
  return ex;
}

}  // namespace

std::vector<Execution> GenerateProbeCorpus(uint64_t seed, size_t count) {
  comptx::Rng rng(seed);
  std::vector<Execution> corpus;
  corpus.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    comptx::workload::WorkloadSpec spec;
    spec.topology.kind = comptx::workload::TopologyKind::kLayeredDag;
    spec.topology.depth = 2;
    spec.topology.branches = 2;
    spec.topology.roots = 8;
    spec.topology.fanout = 2;
    spec.execution.intra_weak_prob = 0.2;
    if (i % 3 == 2) {
      spec.execution.conflict_prob = 0.3;
      spec.execution.disorder_prob = 0.3;
    } else {
      spec.execution.conflict_prob = 0.04;
      spec.execution.order_preserving_outputs = true;
    }
    corpus.push_back(MakeExecution(spec, rng.Next()));
  }
  return corpus;
}

std::vector<Execution> GenerateAuditCorpus(uint64_t seed, size_t count) {
  comptx::Rng rng(seed);
  std::vector<Execution> corpus;
  corpus.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    comptx::workload::WorkloadSpec spec;
    spec.topology.kind = comptx::workload::TopologyKind::kLayeredDag;
    // Size, kind and verdict rotate with the index, so every corpus holds
    // the same mix whatever the seed.
    const uint32_t roots = 16u << ((i / 2) % 3);  // 16, 32 or 64
    const bool preserving = i % 2 == 0;
    spec.topology.depth = preserving ? 2 : 3;
    spec.topology.branches = 2;
    spec.topology.roots = roots;
    spec.topology.fanout = 2;
    // Conflict density scaled by size keeps the verdict share similar at
    // every size: about 0.7 of the preserving systems are Comp-C, a few
    // percent of the plain ones.
    spec.execution.conflict_prob = (preserving ? 0.32 : 0.8) / roots;
    spec.execution.intra_weak_prob = 0.2;
    spec.execution.order_preserving_outputs = preserving;
    // Draw until the verdict is the one the index asks for: a preserving
    // system is Comp-C (full reduction and serial witness), a plain one is
    // not (early failure).  A varying verdict count would move every
    // timing with the seed.
    for (int attempt = 0;; ++attempt) {
      COMPTX_CHECK(attempt < 1000) << "no system with the wanted verdict";
      Execution ex = MakeExecution(spec, rng.Next());
      if (ex.comp_c == preserving) {
        corpus.push_back(std::move(ex));
        break;
      }
    }
  }
  return corpus;
}

}  // namespace perfbench
