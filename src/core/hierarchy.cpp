#include "core/hierarchy.hpp"

#include <algorithm>
#include <deque>
#include <unordered_map>

#include "core/coarsen.hpp"
#include "graph/builder.hpp"
#include "util/check.hpp"

namespace dinfomap::core {

using graph::VertexId;

// ---------------------------------------------------------------------------
// Hierarchy
// ---------------------------------------------------------------------------

Hierarchy Hierarchy::two_level(const FlowGraph& fg, const graph::Partition& modules) {
  DINFOMAP_REQUIRE_MSG(modules.size() == fg.num_vertices(),
                       "two_level: assignment size mismatch");
  Hierarchy h;
  h.nodes_.push_back(Node{});  // root

  std::unordered_map<VertexId, int> node_of_label;
  for (VertexId v = 0; v < fg.num_vertices(); ++v) {
    auto [it, inserted] =
        node_of_label.try_emplace(modules[v], static_cast<int>(h.nodes_.size()));
    if (inserted) {
      Node module;
      module.parent = 0;
      h.nodes_.push_back(module);
      h.nodes_[0].children.push_back(it->second);
    }
    h.nodes_[it->second].leaves.push_back(v);
  }
  h.recompute_flows(fg);
  return h;
}

void Hierarchy::recompute_flows(const FlowGraph& fg) {
  for (Node& node : nodes_) {
    node.exit = 0;
    node.sum_pr = 0;
  }
  // Leaf node of each vertex, and each node's depth & ancestor chain need.
  std::vector<int> node_of(fg.num_vertices(), -1);
  for (int i = 0; i < static_cast<int>(nodes_.size()); ++i)
    for (VertexId v : nodes_[i].leaves) node_of[v] = i;

  // Node ids are not ordered by depth (group_top appends parents after
  // children), so walk each chain to the root.
  std::vector<int> depth(nodes_.size(), 0);
  for (int i = 1; i < static_cast<int>(nodes_.size()); ++i) {
    int d = 0;
    for (int n = i; n != 0; n = nodes_[n].parent) ++d;
    depth[i] = d;
  }

  // sum_pr: push each vertex's flow up its ancestor chain.
  for (VertexId v = 0; v < fg.num_vertices(); ++v) {
    DINFOMAP_REQUIRE_MSG(node_of[v] >= 0, "vertex missing from hierarchy");
    for (int n = node_of[v]; n != -1; n = nodes_[n].parent)
      nodes_[n].sum_pr += fg.node_flow[v];
  }

  // exit: an arc (u→v) crosses every ancestor of u strictly below the lowest
  // common ancestor of u's and v's leaf nodes.
  for (VertexId u = 0; u < fg.num_vertices(); ++u) {
    for (const auto& nb : fg.csr.neighbors(u)) {
      int a = node_of[u];
      int b = node_of[nb.target];
      // Lift the deeper side until depths match, then lift both.
      int ax = a, bx = b;
      while (depth[ax] > depth[bx]) ax = nodes_[ax].parent;
      while (depth[bx] > depth[ax]) bx = nodes_[bx].parent;
      while (ax != bx) {
        ax = nodes_[ax].parent;
        bx = nodes_[bx].parent;
      }
      const int lca = ax;
      for (int n = a; n != lca; n = nodes_[n].parent)
        nodes_[n].exit += nb.weight;
    }
  }
}

double Hierarchy::codelength(const FlowGraph& fg) const {
  // Each node with content owns a codebook: symbols are its children's
  // enter rates (undirected: exit), its leaves' visit rates, and its own
  // exit rate. Contribution = plogp(total) − Σ plogp(symbol rates).
  double total_l = 0;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Node& node = nodes_[i];
    if (node.children.empty() && node.leaves.empty()) continue;
    double total = node.exit;
    double symbol_terms = plogp(node.exit);
    for (int c : node.children) {
      total += nodes_[c].exit;
      symbol_terms += plogp(nodes_[c].exit);
    }
    for (VertexId v : node.leaves) {
      total += fg.node_flow[v];
      symbol_terms += plogp(fg.node_flow[v]);
    }
    total_l += plogp(total) - symbol_terms;
  }
  return total_l;
}

void Hierarchy::split_node(const FlowGraph& fg, int node,
                           const std::vector<VertexId>& sub_of) {
  DINFOMAP_REQUIRE_MSG(node > 0 && node < static_cast<int>(nodes_.size()),
                       "split_node: bad node id");
  Node& target = nodes_[node];
  DINFOMAP_REQUIRE_MSG(target.children.empty(),
                       "split_node: node already has submodules");
  DINFOMAP_REQUIRE_MSG(sub_of.size() == target.leaves.size(),
                       "split_node: one label per leaf required");

  std::unordered_map<VertexId, int> child_of_label;
  std::vector<VertexId> leaves = std::move(target.leaves);
  target.leaves.clear();
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    auto [it, inserted] =
        child_of_label.try_emplace(sub_of[i], static_cast<int>(nodes_.size()));
    if (inserted) {
      Node child;
      child.parent = node;
      nodes_.push_back(child);
      nodes_[node].children.push_back(it->second);
    }
    nodes_[it->second].leaves.push_back(leaves[i]);
  }
  recompute_flows(fg);
}

void Hierarchy::group_top(const FlowGraph& fg,
                          const std::vector<VertexId>& super_of) {
  DINFOMAP_REQUIRE_MSG(super_of.size() == nodes_[0].children.size(),
                       "group_top: one label per top module required");
  const std::vector<int> old_top = std::move(nodes_[0].children);
  nodes_[0].children.clear();
  std::unordered_map<VertexId, int> super_node_of_label;
  for (std::size_t i = 0; i < old_top.size(); ++i) {
    auto [it, inserted] = super_node_of_label.try_emplace(
        super_of[i], static_cast<int>(nodes_.size()));
    if (inserted) {
      Node super;
      super.parent = 0;
      nodes_.push_back(super);
      nodes_[0].children.push_back(it->second);
    }
    nodes_[old_top[i]].parent = it->second;
    nodes_[it->second].children.push_back(old_top[i]);
  }
  recompute_flows(fg);
}

int Hierarchy::depth() const {
  int deepest = 0;
  for (std::size_t i = 1; i < nodes_.size(); ++i) {
    if (nodes_[i].leaves.empty()) continue;
    int d = 0;
    for (int n = static_cast<int>(i); n != 0; n = nodes_[n].parent) ++d;
    deepest = std::max(deepest, d);
  }
  return deepest;
}

int Hierarchy::num_leaf_modules() const {
  int count = 0;
  for (const Node& node : nodes_) count += !node.leaves.empty();
  return count;
}

graph::Partition Hierarchy::leaf_assignment(VertexId n) const {
  graph::Partition out(n, graph::kInvalidVertex);
  VertexId next = 0;
  for (const Node& node : nodes_) {
    if (node.leaves.empty()) continue;
    for (VertexId v : node.leaves) {
      DINFOMAP_REQUIRE(v < n);
      out[v] = next;
    }
    ++next;
  }
  for (VertexId v = 0; v < n; ++v)
    DINFOMAP_REQUIRE_MSG(out[v] != graph::kInvalidVertex,
                         "hierarchy does not cover all vertices");
  return out;
}

std::vector<std::string> Hierarchy::vertex_paths(VertexId n) const {
  // Child ordering: larger sum_pr first (ties → node id), 1-based.
  std::vector<std::vector<int>> ordered_children(nodes_.size());
  std::vector<int> position(nodes_.size(), 0);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    ordered_children[i] = nodes_[i].children;
    std::sort(ordered_children[i].begin(), ordered_children[i].end(),
              [&](int a, int b) {
                if (nodes_[a].sum_pr != nodes_[b].sum_pr)
                  return nodes_[a].sum_pr > nodes_[b].sum_pr;
                return a < b;
              });
    for (std::size_t j = 0; j < ordered_children[i].size(); ++j)
      position[ordered_children[i][j]] = static_cast<int>(j + 1);
  }

  std::vector<std::string> paths(n);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].leaves.empty()) continue;
    // Path prefix of this module.
    std::vector<int> rev;
    for (int node = static_cast<int>(i); node != 0; node = nodes_[node].parent)
      rev.push_back(position[node]);
    std::string prefix;
    for (auto it = rev.rbegin(); it != rev.rend(); ++it)
      prefix += std::to_string(*it) + ':';
    int leaf_pos = 0;
    for (VertexId v : nodes_[i].leaves) {
      DINFOMAP_REQUIRE(v < n);
      paths[v] = prefix + std::to_string(++leaf_pos);
    }
  }
  return paths;
}

bool Hierarchy::validate(const FlowGraph& fg) const {
  if (nodes_.empty() || nodes_[0].parent != -1) return false;
  // Tree shape: every non-root node's parent lists it as a child.
  for (std::size_t i = 1; i < nodes_.size(); ++i) {
    const int p = nodes_[i].parent;
    if (p < 0 || p >= static_cast<int>(nodes_.size())) return false;
    const auto& siblings = nodes_[p].children;
    if (std::count(siblings.begin(), siblings.end(), static_cast<int>(i)) != 1)
      return false;
  }
  // Every vertex appears exactly once.
  std::vector<int> seen(fg.num_vertices(), 0);
  for (const Node& node : nodes_)
    for (VertexId v : node.leaves) {
      if (v >= fg.num_vertices()) return false;
      ++seen[v];
    }
  for (int s : seen)
    if (s != 1) return false;
  // Flow conservation at the root.
  if (std::abs(nodes_[0].sum_pr - 1.0) > 1e-9) return false;
  if (nodes_[0].exit != 0) return false;
  return true;
}

// ---------------------------------------------------------------------------
// Recursive search
// ---------------------------------------------------------------------------

namespace {
constexpr int kMaxDepth = 4;  ///< recursion limit below the root
constexpr VertexId kMinModuleSize = 8;  ///< smaller modules are not split
}  // namespace

HierInfomapResult hierarchical_infomap(const graph::Csr& graph,
                                       const HierInfomapConfig& config) {
  const FlowGraph fg = make_flow_graph(graph);
  const auto flat = sequential_infomap(graph, config.two_level);

  HierInfomapResult result;
  result.two_level_codelength = flat.codelength;
  result.hierarchy = Hierarchy::two_level(fg, flat.assignment);
  double current_l = result.hierarchy.codelength(fg);

  // Work queue of (node id, depth) leaf modules to try splitting.
  std::deque<std::pair<int, int>> queue;
  for (int c : result.hierarchy.nodes()[0].children) queue.push_back({c, 1});

  while (!queue.empty()) {
    const auto [node, node_depth] = queue.front();
    queue.pop_front();
    if (node_depth >= kMaxDepth) continue;
    const auto& leaves = result.hierarchy.nodes()[node].leaves;
    if (leaves.size() < kMinModuleSize) continue;

    // Induced subnetwork over this module's vertices, weights = flows.
    std::unordered_map<VertexId, VertexId> local;
    local.reserve(leaves.size());
    for (VertexId i = 0; i < leaves.size(); ++i) local.emplace(leaves[i], i);
    graph::EdgeList internal;
    for (VertexId i = 0; i < leaves.size(); ++i) {
      for (const auto& nb : fg.csr.neighbors(leaves[i])) {
        if (leaves[i] > nb.target) continue;  // one direction suffices
        auto it = local.find(nb.target);
        if (it == local.end()) continue;
        internal.push_back({i, it->second, nb.weight});
      }
    }
    if (internal.empty()) continue;
    const auto sub_csr =
        graph::build_csr(internal, static_cast<VertexId>(leaves.size()));
    const auto sub = sequential_infomap(sub_csr, config.two_level);
    if (sub.num_modules() <= 1) continue;

    Hierarchy trial = result.hierarchy;
    trial.split_node(fg, node, sub.assignment);
    const double trial_l = trial.codelength(fg);
    if (trial_l < current_l - 1e-12) {
      const int first_new = static_cast<int>(result.hierarchy.nodes().size());
      result.hierarchy = std::move(trial);
      current_l = trial_l;
      for (int c = first_new; c < static_cast<int>(result.hierarchy.nodes().size());
           ++c)
        queue.push_back({c, node_depth + 1});
    }
  }

  // Upward pass: group the current top modules into super-modules while it
  // pays. The coarse module graph keeps its carried node/self flows, so the
  // grouping search runs on cluster_flow_graph, not on a re-normalized CSR.
  for (int iter = 0; iter < kMaxDepth; ++iter) {
    const auto& top = result.hierarchy.nodes()[0].children;
    if (top.size() <= 2) break;
    // vertex → index of its depth-1 ancestor within root.children order.
    std::unordered_map<int, VertexId> top_index;
    for (VertexId i = 0; i < top.size(); ++i) top_index.emplace(top[i], i);
    graph::Partition top_of(graph.num_vertices());
    {
      std::vector<int> node_of(graph.num_vertices(), -1);
      const auto& nodes = result.hierarchy.nodes();
      for (int n = 0; n < static_cast<int>(nodes.size()); ++n)
        for (VertexId v : nodes[n].leaves) node_of[v] = n;
      for (VertexId v = 0; v < graph.num_vertices(); ++v) {
        int n = node_of[v];
        while (nodes[n].parent != 0) n = nodes[n].parent;
        top_of[v] = top_index.at(n);
      }
    }
    const CoarsenResult coarse = coarsen(fg, top_of);
    const auto super_of = cluster_flow_graph(coarse.graph, config.two_level);
    // Count distinct supers.
    std::unordered_map<VertexId, int> distinct;
    for (VertexId c = 0; c < coarse.graph.num_vertices(); ++c)
      distinct.try_emplace(super_of[c], 0);
    if (distinct.size() <= 1 || distinct.size() >= top.size()) break;

    Hierarchy trial = result.hierarchy;
    // coarse vertex c corresponds to root child index c (labels 0..k-1 were
    // already dense, so coarsen's relabeling is the identity).
    std::vector<VertexId> labels(top.size());
    for (VertexId c = 0; c < top.size(); ++c) labels[c] = super_of[c];
    trial.group_top(fg, labels);
    const double trial_l = trial.codelength(fg);
    if (trial_l < current_l - 1e-12) {
      result.hierarchy = std::move(trial);
      current_l = trial_l;
    } else {
      break;
    }
  }

  result.codelength = current_l;
  result.leaf_assignment = result.hierarchy.leaf_assignment(graph.num_vertices());
  return result;
}

}  // namespace dinfomap::core
