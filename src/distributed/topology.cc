#include "distributed/topology.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>
#include <thread>
#include <cerrno>
#include <cstdlib>
#include <unordered_map>

#include "util/string_util.h"
#include "workload/event_schema.h"
#include "workload/workload_spec.h"

namespace comptx::distributed {

namespace {

using workload::FieldRole;
using workload::TraceEvent;
using workload::TraceEventKind;

std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  std::string token;
  while (in >> token) tokens.push_back(std::move(token));
  return tokens;
}

bool IsBroadcast(TraceEventKind kind) {
  return workload::LayoutOf(kind).Has(workload::kBroadcast);
}

bool IsCommit(TraceEventKind kind) {
  return workload::LayoutOf(kind).Has(workload::kCommitMarker);
}

/// The first node `event` names, kInvalidIndex when it names none.
uint32_t FirstNode(const TraceEvent& event) {
  uint32_t first = kInvalidIndex;
  workload::ForEachRef(event, FieldRole::kNode, [&](uint32_t node) {
    if (first == kInvalidIndex) first = node;
  });
  return first;
}

/// Union-find over full-trace node indices; trees that share any
/// cross-tree event end up in one component.
class UnionFind {
 public:
  uint32_t Add() {
    parent_.push_back(static_cast<uint32_t>(parent_.size()));
    return parent_.back();
  }

  uint32_t Find(uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  void Union(uint32_t a, uint32_t b) { parent_[Find(a)] = Find(b); }

  size_t size() const { return parent_.size(); }

 private:
  std::vector<uint32_t> parent_;
};

}  // namespace

// ---- topology specs ----------------------------------------------------

uint32_t TopologySpec::Find(const std::string& name) const {
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i] == name) return static_cast<uint32_t>(i);
  }
  return kInvalidIndex;
}

StatusOr<TopologySpec> ParseTopologySpec(const std::string& text) {
  TopologySpec spec;
  std::unordered_map<std::string, uint32_t> by_name;
  size_t lineno = 0;
  std::istringstream in(text);
  std::string line;
  bool saw_header = false;
  while (std::getline(in, line)) {
    ++lineno;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    const auto tokens = Tokenize(line);
    if (tokens.empty()) continue;
    if (tokens[0][0] == '#') {
      if (line.find("comptx-topology") != std::string::npos) saw_header = true;
      continue;
    }
    const auto fail = [&](const std::string& why) {
      return Status::InvalidArgument(StrCat("line ", lineno, ": ", why));
    };
    if (tokens[0] == "node") {
      if (tokens.size() != 2) return fail("expected: node <name>");
      if (by_name.count(tokens[1]) > 0) {
        return fail(StrCat("duplicate node '", tokens[1], "'"));
      }
      by_name.emplace(tokens[1], static_cast<uint32_t>(spec.nodes.size()));
      spec.nodes.push_back(tokens[1]);
    } else if (tokens[0] == "edge") {
      if (tokens.size() != 3) return fail("expected: edge <parent> <child>");
      const auto parent = by_name.find(tokens[1]);
      const auto child = by_name.find(tokens[2]);
      if (parent == by_name.end()) {
        return fail(StrCat("unknown node '", tokens[1], "'"));
      }
      if (child == by_name.end()) {
        return fail(StrCat("unknown node '", tokens[2], "'"));
      }
      if (parent->second == child->second) {
        return fail(StrCat("self edge on '", tokens[1], "'"));
      }
      spec.edges.emplace_back(parent->second, child->second);
    } else {
      return fail(StrCat("unknown directive '", tokens[0], "'"));
    }
  }
  if (!saw_header) {
    return Status::InvalidArgument("missing '# comptx-topology v1' header");
  }
  if (spec.nodes.empty()) {
    return Status::InvalidArgument("topology declares no nodes");
  }

  const size_t n = spec.nodes.size();
  spec.children.assign(n, {});
  spec.parent_of.assign(n, kInvalidIndex);
  for (const auto& [parent, child] : spec.edges) {
    if (spec.parent_of[child] != kInvalidIndex) {
      return Status::InvalidArgument(
          StrCat("node '", spec.nodes[child],
                 "' has two parents; the topology must be an in-tree"));
    }
    spec.parent_of[child] = parent;
    spec.children[parent].push_back(child);
  }
  uint32_t root = kInvalidIndex;
  for (uint32_t i = 0; i < n; ++i) {
    if (spec.parent_of[i] != kInvalidIndex) continue;
    if (root != kInvalidIndex) {
      return Status::InvalidArgument(
          StrCat("two roots: '", spec.nodes[root], "' and '", spec.nodes[i],
                 "'"));
    }
    root = i;
  }
  if (root == kInvalidIndex) {
    return Status::InvalidArgument("no root: the edges form a cycle");
  }
  spec.root = root;
  // Reachability from the root doubles as the cycle check: with n-1 tree
  // edges and one root, an unreachable node implies a cycle elsewhere.
  std::vector<bool> reached(n, false);
  std::vector<uint32_t> stack = {root};
  while (!stack.empty()) {
    const uint32_t at = stack.back();
    stack.pop_back();
    if (reached[at]) continue;
    reached[at] = true;
    for (const uint32_t child : spec.children[at]) stack.push_back(child);
  }
  for (uint32_t i = 0; i < n; ++i) {
    if (!reached[i]) {
      return Status::InvalidArgument(
          StrCat("node '", spec.nodes[i], "' is not reachable from the root"));
    }
    if (spec.children[i].empty()) spec.leaves.push_back(i);
  }
  return spec;
}

StatusOr<TopologySpec> LoadTopologySpec(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound(StrCat("cannot open ", path));
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseTopologySpec(buffer.str());
}

// ---- trace partitioning ------------------------------------------------

StatusOr<TracePartition> PartitionTrace(
    const std::vector<TraceEvent>& trace, size_t leaf_count, size_t phases) {
  if (leaf_count == 0) {
    return Status::InvalidArgument("a topology needs at least one leaf");
  }
  if (phases == 0) phases = 1;

  // Pass 1: build the execution-tree components.  Node-creating events
  // allocate union-find entries; kSub/kLeaf join their parent's tree,
  // every cross-node event unions the trees it touches, and operations
  // tagged with the same ADT instance are unioned too — the semantic
  // conflict mask derives conflicts from shared instances, so splitting
  // them across leaves would hide a conflict from the merged system.
  UnionFind uf;
  // Full-trace node index created by each creation event (by position).
  std::vector<uint32_t> node_of_pos(trace.size(), kInvalidIndex);
  std::unordered_map<uint32_t, uint32_t> instance_owner;  // instance -> node
  for (size_t pos = 0; pos < trace.size(); ++pos) {
    const TraceEvent& event = trace[pos];
    if (IsCommit(event.kind)) continue;  // dropped below; joins no trees
    uint32_t missing = kInvalidIndex;
    workload::ForEachRef(event, FieldRole::kNode, [&](uint32_t node) {
      if (node >= uf.size() && missing == kInvalidIndex) missing = node;
    });
    if (missing != kInvalidIndex) {
      return Status::InvalidArgument(StrCat(
          "event ", pos + 1, ": node ", missing, " was never created"));
    }
    // Every node the event names joins the tree of the first one: a
    // creation's parent, a relation's endpoints, an intra order's
    // transaction and a tag's operation.
    const uint32_t anchor = FirstNode(event);
    workload::ForEachRef(event, FieldRole::kNode,
                         [&](uint32_t node) { uf.Union(anchor, node); });
    if (workload::CreatesNode(event.kind)) {
      node_of_pos[pos] = uf.Add();
      if (anchor != kInvalidIndex) uf.Union(node_of_pos[pos], anchor);
    }
    workload::ForEachRef(event, FieldRole::kInstance, [&](uint32_t instance) {
      const auto [it, inserted] = instance_owner.emplace(instance, anchor);
      if (!inserted) uf.Union(anchor, it->second);
    });
  }

  // Pass 2: components land whole on one leaf, round-robin in order of
  // their first root transaction.  Never splitting or duplicating a
  // component is what keeps each edge's root ordinals a prefix-preserving
  // map (DESIGN.md §15.3).  The same walk orders the components for the
  // reordered emission and sizes them for the phase cuts.
  TracePartition out;
  std::vector<uint32_t> leaf_of_comp(uf.size(), kInvalidIndex);
  std::vector<uint32_t> order_of_comp(uf.size(), kInvalidIndex);
  std::vector<uint32_t> comp_order;  // component reps, first-root order
  {
    uint32_t next_leaf = 0;
    for (size_t pos = 0; pos < trace.size(); ++pos) {
      if (trace[pos].kind != TraceEventKind::kRoot) continue;
      const uint32_t comp = uf.Find(node_of_pos[pos]);
      if (leaf_of_comp[comp] != kInvalidIndex) continue;
      leaf_of_comp[comp] = next_leaf;
      next_leaf = (next_leaf + 1) % static_cast<uint32_t>(leaf_count);
      order_of_comp[comp] = static_cast<uint32_t>(comp_order.size());
      comp_order.push_back(comp);
    }
    out.components = comp_order.size();
  }

  // Group the event positions: broadcasts first (their relative order
  // carries declaration-before-use), then each component's events in
  // original relative order.  Commits are dropped — the cross-node
  // two-phase commit is the only commit path in a distributed run.
  std::vector<size_t> broadcast_pos;
  std::vector<std::vector<size_t>> comp_pos(comp_order.size());
  for (size_t pos = 0; pos < trace.size(); ++pos) {
    const TraceEvent& event = trace[pos];
    if (IsCommit(event.kind)) {
      ++out.dropped_commits;
      continue;
    }
    if (IsBroadcast(event.kind)) {
      broadcast_pos.push_back(pos);
      continue;
    }
    const uint32_t node = workload::CreatesNode(event.kind)
                              ? node_of_pos[pos]
                              : FirstNode(event);
    comp_pos[order_of_comp[uf.Find(node)]].push_back(pos);
  }

  // Phase cuts: component boundaries closest to an even split of the
  // non-broadcast volume.  A phase always absorbs at least one pending
  // component, so the driver's commit watermark advances every phase.
  size_t total = 0;
  for (const auto& positions : comp_pos) total += positions.size();
  phases = std::min(phases, std::max<size_t>(1, comp_pos.size()));
  std::vector<std::vector<uint32_t>> comps_by_phase(phases);
  {
    size_t emitted = 0;
    size_t phase = 0;
    for (uint32_t order = 0; order < comp_pos.size(); ++order) {
      comps_by_phase[phase].push_back(order);
      emitted += comp_pos[order].size();
      const size_t remaining_comps = comp_pos.size() - order - 1;
      // Cut when the even-split target is reached — or when the pending
      // components are exactly enough to give every later phase one
      // (the forced cut; without it, equal-sized components can miss
      // every target and collapse into phase 0).
      if (phase + 1 < phases && remaining_comps > 0 &&
          (emitted >= total * (phase + 1) / phases ||
           remaining_comps == phases - phase - 1)) {
        ++phase;
      }
    }
  }

  // Pass 3: emit the per-leaf, per-phase slices.  Node indices are
  // renumbered into each leaf's dense creation order (the order the
  // driver appends, which is the reordered order); schedule, ADT and
  // class indices are untouched (broadcasts reach every leaf in full
  // trace order, so the leaf-local index equals the full-trace index).
  out.leaf_phases.assign(leaf_count,
                         std::vector<std::vector<TraceEvent>>(phases));
  out.expected_root_events.assign(phases, 0);
  out.roots_through.assign(phases, 0);
  std::vector<uint32_t> local_idx(uf.size(), kInvalidIndex);
  std::vector<uint32_t> leaf_node_count(leaf_count, 0);
  uint64_t forwarded = 0;
  uint64_t roots = 0;
  for (const size_t pos : broadcast_pos) {
    for (auto& slices : out.leaf_phases) slices[0].push_back(trace[pos]);
    ++out.broadcast_events;
    ++forwarded;  // the root dedups all copies past the first
  }
  for (size_t phase = 0; phase < phases; ++phase) {
    for (const uint32_t order : comps_by_phase[phase]) {
      const uint32_t leaf = leaf_of_comp[comp_order[order]];
      for (const size_t pos : comp_pos[order]) {
        const TraceEvent& event = trace[pos];
        TraceEvent local = event;
        workload::ForEachRef(local, FieldRole::kNode,
                             [&](uint32_t& idx) { idx = local_idx[idx]; });
        if (workload::CreatesNode(event.kind)) {
          local_idx[node_of_pos[pos]] = leaf_node_count[leaf]++;
          if (event.kind == TraceEventKind::kRoot) ++roots;
        }
        out.leaf_phases[leaf][phase].push_back(std::move(local));
        ++forwarded;
      }
    }
    out.expected_root_events[phase] = forwarded;
    out.roots_through[phase] = roots;
  }
  return out;
}

StatusOr<TracePartition> PartitionTrace(const std::vector<TraceEvent>& trace,
                                        size_t leaf_count) {
  return PartitionTrace(trace, leaf_count, /*phases=*/1);
}

StatusOr<std::vector<TraceEvent>> GenerateGroupedTrace(uint32_t roots,
                                                       uint64_t seed,
                                                       double disorder,
                                                       uint32_t group_size) {
  if (group_size == 0) {
    return Status::InvalidArgument("group_size must be positive");
  }
  std::vector<TraceEvent> merged;
  uint32_t node_offset = 0;
  uint32_t sched_offset = 0;
  for (uint32_t group = 0; roots > 0; ++group) {
    const uint32_t take = std::min<uint32_t>(roots, group_size);
    roots -= take;
    workload::WorkloadSpec spec;
    spec.topology.kind = workload::TopologyKind::kStack;
    spec.topology.depth = 3;
    spec.topology.branches = 2;
    spec.topology.roots = take;
    spec.topology.fanout = 2;
    spec.execution.conflict_prob = 0.15;
    spec.execution.intra_weak_prob = 0.2;
    // Order-preserving schedulers compose correctly (the paper's Thm 2
    // case), so the disorder=0 workload is certifiable and the phased
    // commits actually seal; disorder>0 injects serialization anomalies
    // to exercise the rejecting path instead.
    spec.execution.disorder_prob = disorder;
    spec.execution.order_preserving_outputs = disorder == 0.0;
    COMPTX_ASSIGN_OR_RETURN(CompositeSystem cs,
                            workload::GenerateSystem(spec, seed + group));
    COMPTX_ASSIGN_OR_RETURN(std::string text, workload::SaveTrace(cs));
    COMPTX_ASSIGN_OR_RETURN(std::vector<TraceEvent> events,
                            workload::ParseTraceEvents(text));
    uint32_t nodes = 0;
    uint32_t schedules = 0;
    // Prefixed names and offset indices keep the groups disjoint after
    // concatenation — the parent-side remapper dedups entities by name,
    // so identically named entities across groups would wrongly merge.
    for (TraceEvent& event : events) {
      if (IsCommit(event.kind) || workload::IsAdtLayerEvent(event.kind)) {
        return Status::Internal("generator produced an unexpected event kind");
      }
      workload::ForEachRef(event, [&](FieldRole role, uint32_t& idx) {
        idx += role == FieldRole::kNode ? node_offset : sched_offset;
      });
      if (const auto space = workload::CreatedSpace(event.kind)) {
        event.name = StrCat("g", group, ".", event.name);
        if (*space == FieldRole::kNode) {
          ++nodes;
        } else {
          ++schedules;
        }
      }
      merged.push_back(std::move(event));
    }
    node_offset += nodes;
    sched_offset += schedules;
  }
  return merged;
}

// ---- multi-process runner ----------------------------------------------

namespace fs = std::filesystem;

TopologyRunner::TopologyRunner(TopologySpec spec, RunnerOptions options)
    : spec_(std::move(spec)), options_(std::move(options)) {}

TopologyRunner::~TopologyRunner() {
  for (uint32_t i = 0; i < procs_.size(); ++i) {
    if (procs_[i].running) Reap(i, /*kill=*/true);
  }
}

Status TopologyRunner::Start() {
  if (options_.serve_binary.empty() || options_.data_root.empty()) {
    return Status::InvalidArgument("serve_binary and data_root are required");
  }
  procs_.resize(spec_.nodes.size());
  edge_ids_.resize(spec_.edges.size());
  // Edge ids double as subscriber ids at the child, so they are unique
  // across the whole topology.
  for (size_t i = 0; i < spec_.edges.size(); ++i) edge_ids_[i] = i + 1;

  for (uint32_t node = 0; node < spec_.nodes.size(); ++node) {
    COMPTX_RETURN_IF_ERROR(Spawn(node, /*fixed_port=*/0));
  }
  for (uint32_t node = 0; node < spec_.nodes.size(); ++node) {
    COMPTX_ASSIGN_OR_RETURN(service::ServiceClient client, DialNode(node));
    std::string options = "stream=1";
    if (!options_.open_options.empty()) {
      options = StrCat(options, " ", options_.open_options);
    }
    COMPTX_ASSIGN_OR_RETURN(procs_[node].session, client.Open(options));
    if (options_.verbose) {
      std::cerr << "[topology] " << spec_.nodes[node] << ": pid "
                << procs_[node].pid << " port " << procs_[node].port
                << " session " << procs_[node].session << "\n";
    }
  }
  for (uint32_t node = 0; node < spec_.nodes.size(); ++node) {
    COMPTX_RETURN_IF_ERROR(AttachEdges(node));
  }
  return Status::OK();
}

Status TopologyRunner::Spawn(uint32_t node, int fixed_port) {
  Proc& proc = procs_[node];
  proc.dir = StrCat(options_.data_root, "/", spec_.nodes[node]);
  std::error_code ec;
  fs::create_directories(StrCat(proc.dir, "/data"), ec);
  if (ec) {
    return Status::Internal(
        StrCat("cannot create ", proc.dir, ": ", ec.message()));
  }
  const std::string port_file = StrCat(proc.dir, "/port");
  fs::remove(port_file, ec);

  std::vector<std::string> args = {
      options_.serve_binary,
      "--host", "127.0.0.1",
      "--port", StrCat(fixed_port),
      "--port-file", port_file,
      "--data-dir", StrCat(proc.dir, "/data"),
      "--fsync", options_.fsync,
  };
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (auto& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  const std::string log_path = StrCat(proc.dir, "/log");
  const pid_t pid = ::fork();
  if (pid < 0) return Status::Internal("fork failed");
  if (pid == 0) {
    const int log_fd =
        ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (log_fd >= 0) {
      ::dup2(log_fd, STDOUT_FILENO);
      ::dup2(log_fd, STDERR_FILENO);
      ::close(log_fd);
    }
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  proc.pid = pid;
  proc.running = true;
  auto port = AwaitPortFile(port_file);
  if (!port.ok()) {
    Reap(node, /*kill=*/true);
    return Status::Internal(StrCat("node '", spec_.nodes[node],
                                   "' did not come up: ",
                                   port.status().message(), " (see ", log_path,
                                   ")"));
  }
  proc.port = *port;
  return Status::OK();
}

StatusOr<int> TopologyRunner::AwaitPortFile(const std::string& path) const {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(options_.spawn_timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    std::ifstream in(path);
    int port = 0;
    if (in >> port && port > 0) return port;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return Status::Internal(StrCat("timed out waiting for ", path));
}

StatusOr<service::ServiceClient> TopologyRunner::DialNode(
    uint32_t node) const {
  service::Endpoint endpoint;
  endpoint.host = "127.0.0.1";
  endpoint.port = procs_[node].port;
  return service::ServiceClient::Dial(endpoint, service::WireProtocol::kV2);
}

Status TopologyRunner::AttachEdges(uint32_t node) {
  for (size_t i = 0; i < spec_.edges.size(); ++i) {
    const auto& [parent, child] = spec_.edges[i];
    if (parent != node) continue;
    COMPTX_ASSIGN_OR_RETURN(service::ServiceClient client, DialNode(node));
    COMPTX_ASSIGN_OR_RETURN(
        service::Response reply,
        client.Command(service::CommandKind::kAttach, procs_[node].session,
                       StrCat("edge=", edge_ids_[i], " host=127.0.0.1 port=",
                              procs_[child].port,
                              " remote=", procs_[child].session)));
    if (!reply.ok) {
      return Status::FailedPrecondition(
          StrCat("ATTACH edge ", edge_ids_[i], " at '", spec_.nodes[node],
                 "' refused: ", reply.error_code, ": ", reply.error_message));
    }
    if (options_.verbose) {
      std::cerr << "[topology] edge " << edge_ids_[i] << ": "
                << spec_.nodes[child] << " -> " << spec_.nodes[node]
                << " (cursor " << reply.FieldInt("cursor") << ")\n";
    }
  }
  return Status::OK();
}

Status TopologyRunner::Kill(const std::string& node) {
  const uint32_t idx = spec_.Find(node);
  if (idx == kInvalidIndex) {
    return Status::NotFound(StrCat("no node '", node, "'"));
  }
  if (!procs_[idx].running) {
    return Status::FailedPrecondition(StrCat("'", node, "' is not running"));
  }
  if (options_.verbose) {
    std::cerr << "[topology] SIGKILL " << node << " (pid " << procs_[idx].pid
              << ")\n";
  }
  Reap(idx, /*kill=*/true);
  return Status::OK();
}

Status TopologyRunner::Respawn(const std::string& node) {
  const uint32_t idx = spec_.Find(node);
  if (idx == kInvalidIndex) {
    return Status::NotFound(StrCat("no node '", node, "'"));
  }
  if (procs_[idx].running) {
    return Status::FailedPrecondition(StrCat("'", node, "' is still running"));
  }
  // Same port: the parents' ingestors are already retrying this address,
  // so recovery needs no rewiring above us.  Same data dir: startup
  // recovery republishes the session under its old id with its stream
  // log rebuilt from the WAL.
  COMPTX_RETURN_IF_ERROR(Spawn(idx, procs_[idx].port));
  if (options_.verbose) {
    std::cerr << "[topology] respawned " << node << " (pid "
              << procs_[idx].pid << ")\n";
  }
  // The node's own upstream edges lived in its controller's memory; the
  // ATTACHes must be re-issued (cursors come back from the WAL).
  return AttachEdges(idx);
}

Status TopologyRunner::BarrierOnRoot(uint64_t expected) {
  if (expected == 0) return Status::OK();
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(options_.barrier_timeout_ms);
  uint64_t watermark = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    // STREAM with max=0 is a pure watermark wait: it blocks (up to
    // wait_ms) until seq `expected` exists, shipping no events.
    auto client = DialNode(spec_.root);
    if (client.ok()) {
      auto reply = client->Command(
          service::CommandKind::kStream, procs_[spec_.root].session,
          StrCat("from=", expected, " max=0 wait_ms=500 sub=0"));
      if (reply.ok() && reply->ok) {
        watermark = static_cast<uint64_t>(reply->FieldInt("watermark"));
        if (watermark == expected) return Status::OK();
        if (watermark > expected) {
          return Status::Internal(
              StrCat("root overshot the barrier: watermark ", watermark,
                     ", expected ", expected,
                     " (broadcast dedup assumption violated)"));
        }
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return Status::Internal(StrCat("barrier timeout: root watermark ",
                                 watermark, ", expected ", expected));
}

StatusOr<PhaseVerdict> TopologyRunner::CommitPhase(uint64_t k) {
  COMPTX_ASSIGN_OR_RETURN(service::ServiceClient client,
                          DialNode(spec_.root));
  const uint64_t session = procs_[spec_.root].session;
  if (k > 0) {
    COMPTX_ASSIGN_OR_RETURN(
        service::Response prepared,
        client.Command(service::CommandKind::kPrepare, session,
                       StrCat("k=", k)));
    if (!prepared.ok) {
      return Status::FailedPrecondition(
          StrCat("PREPARE k=", k, " refused: ", prepared.error_code, ": ",
                 prepared.error_message));
    }
    COMPTX_ASSIGN_OR_RETURN(
        service::Response decided,
        client.Command(service::CommandKind::kDecide, session,
                       StrCat("k=", k)));
    if (!decided.ok) {
      return Status::FailedPrecondition(
          StrCat("DECIDE k=", k, " refused: ", decided.error_code, ": ",
                 decided.error_message));
    }
  }
  COMPTX_ASSIGN_OR_RETURN(service::SessionVerdict verdict,
                          client.Query(session));
  PhaseVerdict out;
  out.k = k;
  out.certifiable = verdict.certifiable;
  out.accepted = verdict.events_accepted;
  out.rejected = verdict.events_rejected;
  out.commit_watermark = verdict.commit_watermark;
  out.failure = verdict.failure;
  return out;
}

StatusOr<std::vector<TraceEvent>> TopologyRunner::FetchMerged(
    uint64_t expected) {
  std::vector<TraceEvent> merged;
  COMPTX_ASSIGN_OR_RETURN(service::ServiceClient client,
                          DialNode(spec_.root));
  while (merged.size() < expected) {
    COMPTX_ASSIGN_OR_RETURN(
        service::Response reply,
        client.Command(service::CommandKind::kStream,
                       procs_[spec_.root].session,
                       StrCat("from=", merged.size() + 1,
                              " max=512 wait_ms=0 sub=0")));
    if (!reply.ok) {
      return Status::Internal(StrCat("merged fetch refused: ",
                                     reply.error_code, ": ",
                                     reply.error_message));
    }
    size_t got = 0;
    size_t start = 0;
    const std::string& body = reply.body;
    while (start < body.size()) {
      size_t end = body.find('\n', start);
      if (end == std::string::npos) end = body.size();
      COMPTX_ASSIGN_OR_RETURN(
          TraceEvent event,
          workload::ParseTraceEventLine(body.substr(start, end - start)));
      merged.push_back(std::move(event));
      ++got;
      start = end + 1;
    }
    if (got == 0) {
      return Status::Internal(
          StrCat("merged stream dried up at ", merged.size(), " of ",
                 expected, " events"));
    }
  }
  return merged;
}

StatusOr<uint64_t> TopologyRunner::SumResubscribes() {
  uint64_t total = 0;
  for (uint32_t node = 0; node < spec_.nodes.size(); ++node) {
    if (!procs_[node].running) continue;
    COMPTX_ASSIGN_OR_RETURN(service::ServiceClient client, DialNode(node));
    COMPTX_ASSIGN_OR_RETURN(std::string stats, client.Stats());
    std::istringstream in(stats);
    std::string line;
    while (std::getline(in, line)) {
      const auto tokens = Tokenize(line);
      if (tokens.size() == 2 && tokens[0] == "edge_resubscribes") {
        total += std::strtoull(tokens[1].c_str(), nullptr, 10);
      }
    }
  }
  return total;
}

StatusOr<TopologyReport> TopologyRunner::Drive(
    const std::vector<TraceEvent>& trace, const DrillConfig* drill) {
  COMPTX_ASSIGN_OR_RETURN(
      TracePartition partition,
      PartitionTrace(trace, spec_.leaves.size(), options_.phases));
  const size_t phase_count = partition.expected_root_events.size();

  TopologyReport report;
  report.expected_root_events = partition.expected_root_events.back();
  report.total_roots = partition.roots_through.back();

  for (size_t phase = 0; phase < phase_count; ++phase) {
    for (size_t li = 0; li < spec_.leaves.size(); ++li) {
      const uint32_t leaf = spec_.leaves[li];
      const auto& slice = partition.leaf_phases[li][phase];
      if (slice.empty()) continue;
      COMPTX_ASSIGN_OR_RETURN(service::ServiceClient client, DialNode(leaf));
      // Chunked appends keep individual frames modest.
      for (size_t at = 0; at < slice.size(); at += 512) {
        const size_t take = std::min<size_t>(512, slice.size() - at);
        std::vector<TraceEvent> chunk(slice.begin() + at,
                                      slice.begin() + at + take);
        COMPTX_RETURN_IF_ERROR(
            client.Append(procs_[leaf].session, chunk).status());
      }
    }
    if (drill != nullptr && drill->after_phase == phase) {
      // Drain the leaves so every appended event is in the WAL (APPEND
      // acks enqueue, not durability), then crash the victim while its
      // parent still holds an unconsumed stream suffix.
      for (const uint32_t leaf : spec_.leaves) {
        COMPTX_ASSIGN_OR_RETURN(service::ServiceClient client,
                                DialNode(leaf));
        COMPTX_RETURN_IF_ERROR(
            client.Query(procs_[leaf].session).status());
      }
      COMPTX_RETURN_IF_ERROR(Kill(drill->node));
      COMPTX_RETURN_IF_ERROR(Respawn(drill->node));
    }
    COMPTX_RETURN_IF_ERROR(
        BarrierOnRoot(partition.expected_root_events[phase]));
    COMPTX_ASSIGN_OR_RETURN(PhaseVerdict verdict,
                            CommitPhase(partition.roots_through[phase]));
    verdict.root_events = partition.expected_root_events[phase];
    if (options_.verbose) {
      std::cerr << "[topology] phase " << phase + 1 << "/" << phase_count
                << ": events " << verdict.root_events << " k=" << verdict.k
                << (verdict.certifiable ? " certifiable" : " NOT certifiable")
                << "\n";
    }
    report.phases.push_back(std::move(verdict));
  }

  COMPTX_ASSIGN_OR_RETURN(report.merged,
                          FetchMerged(report.expected_root_events));
  COMPTX_ASSIGN_OR_RETURN(report.resubscribes, SumResubscribes());
  return report;
}

Status TopologyRunner::Shutdown() {
  Status first = Status::OK();
  for (uint32_t node = 0; node < procs_.size(); ++node) {
    if (!procs_[node].running) continue;
    auto client = DialNode(node);
    if (client.ok()) {
      const Status down = client->Shutdown();
      if (!down.ok() && first.ok()) first = down;
    }
    Reap(node, /*kill=*/false);
  }
  return first;
}

void TopologyRunner::Reap(uint32_t node, bool kill) {
  Proc& proc = procs_[node];
  if (!proc.running) return;
  if (kill) ::kill(proc.pid, SIGKILL);
  // Graceful reaps bound the wait, then escalate: a wedged drain must
  // not hang the driver.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (true) {
    const pid_t done = ::waitpid(proc.pid, nullptr, kill ? 0 : WNOHANG);
    if (done == proc.pid || (done < 0 && errno == ECHILD)) break;
    if (std::chrono::steady_clock::now() >= deadline) {
      ::kill(proc.pid, SIGKILL);
      ::waitpid(proc.pid, nullptr, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  proc.running = false;
  proc.pid = -1;
}

}  // namespace comptx::distributed
