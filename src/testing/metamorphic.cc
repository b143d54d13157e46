#include "testing/metamorphic.h"

#include <algorithm>
#include <array>
#include <utility>

#include "core/correctness.h"
#include "online/certifier.h"
#include "testing/events.h"
#include "util/string_util.h"
#include "workload/event_schema.h"

namespace comptx::testing {

using workload::FieldRole;
using workload::TraceEvent;
using workload::TraceEventKind;

const char* MetamorphicKindToString(MetamorphicKind kind) {
  switch (kind) {
    case MetamorphicKind::kRename:
      return "rename";
    case MetamorphicKind::kShuffle:
      return "shuffle";
    case MetamorphicKind::kNoOpLeaves:
      return "noop-leaves";
  }
  return "unknown";
}

namespace {

std::vector<TraceEvent> Rename(std::vector<TraceEvent> events, Rng& rng) {
  uint32_t counter = 0;
  for (TraceEvent& e : events) {
    if (!IsCreationEvent(e)) continue;
    // Fresh opaque names; the random tag ensures the new names share no
    // structure with the old ones (and differ across applications).
    e.name = StrCat("x", counter++, "_", rng.UniformInt(1u << 20));
  }
  return events;
}

/// Random dependency-respecting permutation of the events, with all
/// creation-order indices renumbered to the new stream positions.
std::vector<TraceEvent> Shuffle(const std::vector<TraceEvent>& events,
                                Rng& rng) {
  const size_t n = events.size();
  // Per index space, the creation event of each entity (old numbering).
  std::array<std::vector<size_t>, workload::kIndexSpaceCount> created;
  std::vector<std::vector<size_t>> deps(n);
  bool malformed = false;  // forward/out-of-range refs: leave stream as is
  for (size_t i = 0; i < n; ++i) {
    const TraceEvent& e = events[i];
    workload::ForEachRef(e, [&](FieldRole role, uint32_t ref) {
      if (role == FieldRole::kCount) {
        // A commit_through watermark counts roots in stream order, which
        // a shuffle rewrites; there is no renumbering that preserves its
        // meaning, so leave such traces unshuffled.
        malformed = true;
      } else if (workload::IsIndexSpace(role)) {
        const std::vector<size_t>& creators =
            created[static_cast<size_t>(role)];
        if (ref < creators.size()) {
          deps[i].push_back(creators[ref]);
        } else {
          malformed = true;
        }
      }
    });
    if (const auto space = workload::CreatedSpace(e.kind)) {
      created[static_cast<size_t>(*space)].push_back(i);
    }
  }

  if (malformed) return events;

  // Randomized Kahn: repeatedly emit a uniformly chosen ready event.
  std::vector<uint32_t> indegree(n, 0);
  std::vector<std::vector<size_t>> dependents(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t d : deps[i]) {
      dependents[d].push_back(i);
      ++indegree[i];
    }
  }
  std::vector<size_t> ready;
  for (size_t i = 0; i < n; ++i) {
    if (indegree[i] == 0) ready.push_back(i);
  }
  std::vector<size_t> order;
  order.reserve(n);
  while (!ready.empty()) {
    const size_t pick = static_cast<size_t>(rng.UniformInt(ready.size()));
    const size_t i = ready[pick];
    ready[pick] = ready.back();
    ready.pop_back();
    order.push_back(i);
    for (size_t j : dependents[i]) {
      if (--indegree[j] == 0) ready.push_back(j);
    }
  }
  if (order.size() != n) return events;  // malformed refs; leave unchanged

  // Re-emit in the new order, renumbering creation indices.  Each event
  // creates at most one entity, so one inverse serves every space.
  std::array<std::vector<uint32_t>, workload::kIndexSpaceCount> maps;
  std::vector<uint32_t> old_index(n, kInvalidIndex);
  for (size_t s = 0; s < workload::kIndexSpaceCount; ++s) {
    maps[s].assign(created[s].size(), kInvalidIndex);
    for (size_t k = 0; k < created[s].size(); ++k) {
      old_index[created[s][k]] = static_cast<uint32_t>(k);
    }
  }
  std::array<uint32_t, workload::kIndexSpaceCount> next{};
  std::vector<TraceEvent> out;
  out.reserve(n);
  for (size_t i : order) {
    TraceEvent r = events[i];
    workload::ForEachRef(r, [&](FieldRole role, uint32_t& ref) {
      if (workload::IsIndexSpace(role)) {
        ref = maps[static_cast<size_t>(role)][ref];
      }
    });
    if (const auto space = workload::CreatedSpace(r.kind)) {
      const size_t s = static_cast<size_t>(*space);
      maps[s][old_index[i]] = next[s]++;
    }
    out.push_back(std::move(r));
  }
  return out;
}

std::vector<TraceEvent> AddNoOpLeaves(std::vector<TraceEvent> events,
                                      Rng& rng, uint32_t count) {
  // Node indices of transactions (roots and subtransactions).  Def 3.3
  // makes a leaf under a strongly-input-ordered transaction *not* a no-op
  // (every operation pair across the strong pair must be strongly
  // output-ordered), so those transactions are excluded.
  std::vector<uint32_t> transactions;
  std::vector<bool> strongly_ordered;  // node index -> endpoint of strong_in
  uint32_t next_node = 0;
  for (const TraceEvent& e : events) {
    if (workload::CreatesNode(e.kind)) {
      if (e.kind != TraceEventKind::kLeaf) transactions.push_back(next_node);
      ++next_node;
    } else if (e.kind == TraceEventKind::kStrongInput) {
      if (std::max(e.a, e.b) >= strongly_ordered.size()) {
        strongly_ordered.resize(std::max(e.a, e.b) + 1, false);
      }
      strongly_ordered[e.a] = true;
      strongly_ordered[e.b] = true;
    }
  }
  std::erase_if(transactions, [&](uint32_t t) {
    return t < strongly_ordered.size() && strongly_ordered[t];
  });
  if (transactions.empty()) return events;
  for (uint32_t k = 0; k < count; ++k) {
    TraceEvent e;
    e.kind = TraceEventKind::kLeaf;
    e.parent = transactions[rng.UniformInt(transactions.size())];
    e.name = StrCat("noop", k, "_", rng.UniformInt(1u << 20));
    events.push_back(std::move(e));
  }
  return events;
}

}  // namespace

std::vector<TraceEvent> ApplyMetamorphic(
    MetamorphicKind kind, const std::vector<TraceEvent>& events, Rng& rng,
    uint32_t noop_count) {
  switch (kind) {
    case MetamorphicKind::kRename:
      return Rename(events, rng);
    case MetamorphicKind::kShuffle:
      return Shuffle(events, rng);
    case MetamorphicKind::kNoOpLeaves:
      return AddNoOpLeaves(events, rng, noop_count);
  }
  return events;
}

StatusOr<std::vector<Disagreement>> CheckMetamorphic(
    const CompositeSystem& cs, bool base_comp_c,
    const MetamorphicOptions& options, uint64_t seed) {
  COMPTX_ASSIGN_OR_RETURN(std::vector<TraceEvent> events, SystemToEvents(cs));
  std::vector<Disagreement> out;
  std::vector<MetamorphicKind> kinds;
  if (options.rename) kinds.push_back(MetamorphicKind::kRename);
  if (options.shuffle) kinds.push_back(MetamorphicKind::kShuffle);
  if (options.noop_leaves) kinds.push_back(MetamorphicKind::kNoOpLeaves);
  for (MetamorphicKind kind : kinds) {
    const std::string check =
        StrCat("metamorphic-", MetamorphicKindToString(kind));
    Rng rng(seed ^ (0x9e3779b97f4a7c15ull * (uint64_t(kind) + 1)));
    std::vector<TraceEvent> transformed =
        ApplyMetamorphic(kind, events, rng, options.noop_count);
    auto system = BuildSystem(transformed);
    if (!system.ok()) {
      out.push_back({check, StrCat("transformed stream fails to build: ",
                                   system.status().message())});
      continue;
    }
    Status valid = system->Validate();
    if (!valid.ok()) {
      out.push_back({check, StrCat("transform broke validity: ",
                                   valid.message())});
      continue;
    }
    auto verdict = CheckCompC(*system);
    if (!verdict.ok()) {
      out.push_back({check, StrCat("batch check failed on transformed "
                                   "system: ",
                                   verdict.status().message())});
      continue;
    }
    if (verdict->correct != base_comp_c) {
      out.push_back(
          {check, StrCat("verdict not invariant: base is ",
                         base_comp_c ? "correct" : "incorrect",
                         ", transformed is ",
                         verdict->correct ? "correct" : "incorrect")});
      continue;
    }
    if (kind == MetamorphicKind::kShuffle) {
      // The permuted stream must also certify to the same final verdict
      // online (replay-order independence of the incremental engine).
      online::Certifier certifier;
      bool rejected = false;
      for (const TraceEvent& e : transformed) {
        if (!certifier.Ingest(e).ok()) {
          rejected = true;
          break;
        }
      }
      if (rejected) {
        out.push_back({check, "online certifier rejected an event of the "
                              "permuted stream"});
      } else if (certifier.Certifiable() != base_comp_c) {
        out.push_back(
            {check,
             StrCat("online verdict on permuted stream is ",
                    certifier.Certifiable() ? "correct" : "incorrect",
                    ", base is ", base_comp_c ? "correct" : "incorrect")});
      }
    }
  }
  return out;
}

}  // namespace comptx::testing
