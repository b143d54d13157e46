// Microbenchmarks of the dense relation engine against the layout it
// replaced (std::map<uint32_t, std::set<uint32_t>>): insertion, membership
// probes, full iteration, and the closure-materialization pattern that
// dominates SystemContext construction.  The map/set layout is the oracle:
// a dense row whose result (pair count, hits, pair sum) differs from the
// map/set row's counts one mismatch.
//
// Usage: bench_relation [output.json]   (default BENCH_relation.json)

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "core/indexing.h"
#include "core/relation.h"
#include "harness.h"
#include "util/rng.h"

namespace {

using namespace comptx;  // NOLINT
using bench::DoNotOptimize;
using MapSet = std::map<uint32_t, std::set<uint32_t>>;
using Pairs = std::vector<std::pair<uint32_t, uint32_t>>;

Pairs RandomPairs(size_t count, uint32_t id_space, uint64_t seed) {
  Rng rng(seed);
  Pairs pairs;
  pairs.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    pairs.emplace_back(uint32_t(rng.UniformInt(id_space)),
                       uint32_t(rng.UniformInt(id_space)));
  }
  return pairs;
}

Relation MakeDense(const Pairs& pairs) {
  Relation rel;
  for (const auto& [a, b] : pairs) rel.Add(NodeId(a), NodeId(b));
  return rel;
}

MapSet MakeMapSet(const Pairs& pairs) {
  MapSet rel;
  for (const auto& [a, b] : pairs) rel[a].insert(b);
  return rel;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::RunStart run_start;
  std::vector<bench::Json> rows;
  // Times `dense` and `map_set` (each returns its result) and records one
  // row comparing them.
  const auto compare = [&rows](const char* op, size_t pairs,
                               const auto& dense, const auto& map_set) {
    uint64_t dense_result = 0;
    uint64_t map_result = 0;
    const bench::Stats dense_us =
        bench::TimeUs([&] { DoNotOptimize(dense_result = dense()); });
    const bench::Stats map_us =
        bench::TimeUs([&] { DoNotOptimize(map_result = map_set()); });
    bench::AddRow(rows, bench::Json()
                            .Set("op", op)
                            .Set("pairs", pairs)
                            .Set("dense_us", dense_us)
                            .Set("map_set_us", map_us)
                            .Mismatches(dense_result != map_result));
  };

  for (const size_t n : {1000, 10000, 100000}) {
    const Pairs pairs = RandomPairs(n, 1024, 7);
    compare(
        "add", n, [&] { return uint64_t(MakeDense(pairs).PairCount()); },
        [&] {
          uint64_t count = 0;
          for (const auto& [a, row] : MakeMapSet(pairs)) count += row.size();
          return count;
        });
  }
  const Pairs probes = RandomPairs(4096, 1024, 8);
  for (const size_t n : {10000, 100000}) {
    const Pairs pairs = RandomPairs(n, 1024, 7);
    const Relation dense = MakeDense(pairs);
    const MapSet map_set = MakeMapSet(pairs);
    compare(
        "contains", n,
        [&] {
          uint64_t hits = 0;
          for (const auto& [a, b] : probes) {
            hits += dense.Contains(NodeId(a), NodeId(b));
          }
          return hits;
        },
        [&] {
          uint64_t hits = 0;
          for (const auto& [a, b] : probes) {
            auto it = map_set.find(a);
            hits += it != map_set.end() && it->second.count(b) > 0;
          }
          return hits;
        });
    compare(
        "for_each", n,
        [&] {
          uint64_t sum = 0;
          dense.ForEach(
              [&](NodeId a, NodeId b) { sum += a.index() + b.index(); });
          return sum;
        },
        [&] {
          uint64_t sum = 0;
          for (const auto& [a, row] : map_set) {
            for (uint32_t b : row) sum += a + b;
          }
          return sum;
        });
  }

  // The SystemContext hot pattern: close a sparse order over a domain and
  // materialize the result (ClosureWithin is append-optimized end to end).
  for (const uint32_t n : {64u, 256u, 1024u}) {
    std::vector<NodeId> domain;
    Relation chainish;
    Rng rng(11);
    for (uint32_t i = 0; i < n; ++i) {
      domain.push_back(NodeId(i));
      if (i > 0) chainish.Add(NodeId(i - 1), NodeId(i));
      if (i > 2 && rng.Bernoulli(0.2)) {
        chainish.Add(NodeId(uint32_t(rng.UniformInt(i))), NodeId(i));
      }
    }
    bench::AddRow(rows, bench::Json()
                            .Set("op", "closure_within")
                            .Set("domain", n)
                            .Set("dense_us", bench::TimeUs([&] {
                                   DoNotOptimize(ClosureWithin(chainish, domain)
                                                     .PairCount());
                                 })));
  }
  return bench::WriteReport(run_start,
                            argc > 1 ? argv[1] : "BENCH_relation.json",
                            "E9_relation_substrate",
                            bench::Json().Set("rows", rows));
}
