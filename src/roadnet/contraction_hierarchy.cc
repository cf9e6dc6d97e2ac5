#include "roadnet/contraction_hierarchy.h"

#include <algorithm>
#include <limits>
#include <queue>

#include "common/check.h"
#include "obs/metrics.h"

namespace auctionride {

namespace {

// Workspace for the local witness searches run during contraction.
struct WitnessSearcher {
  explicit WitnessSearcher(NodeId n)
      : dist(static_cast<std::size_t>(n), kInfDistance),
        generation_of(static_cast<std::size_t>(n), 0) {}

  struct Entry {
    double d;
    NodeId node;
    bool operator>(const Entry& o) const { return d > o.d; }
  };

  double& Dist(NodeId n) {
    if (generation_of[n] != generation) {
      generation_of[n] = generation;
      dist[n] = kInfDistance;
    }
    return dist[n];
  }

  std::vector<double> dist;
  std::vector<uint32_t> generation_of;
  uint32_t generation = 0;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> queue;
};

}  // namespace

ContractionHierarchy::ContractionHierarchy(const RoadNetwork* network,
                                           int witness_settle_limit)
    : num_nodes_(network->num_nodes()) {
  ARIDE_ACHECK(network != nullptr);
  ARIDE_ACHECK(network->built());
  ARIDE_ACHECK(witness_settle_limit > 0);

  // Dynamic adjacency used during contraction: original arcs + shortcuts.
  // Parallel arcs are deduplicated keeping the minimum weight.
  const NodeId n = num_nodes_;
  std::vector<std::vector<DynArc>> out_adj(n), in_adj(n);
  for (NodeId u = 0; u < n; ++u) {
    for (const Arc& a : network->OutArcs(u)) {
      if (a.head == u) continue;  // self loops never help shortest paths
      out_adj[u].push_back({a.head, a.length_m});
      in_adj[a.head].push_back({u, a.length_m});
    }
  }
  auto dedup = [](std::vector<DynArc>& arcs) {
    std::sort(arcs.begin(), arcs.end(), [](const DynArc& a, const DynArc& b) {
      return a.head < b.head || (a.head == b.head && a.weight < b.weight);
    });
    arcs.erase(std::unique(arcs.begin(), arcs.end(),
                           [](const DynArc& a, const DynArc& b) {
                             return a.head == b.head;
                           }),
               arcs.end());
  };
  for (NodeId u = 0; u < n; ++u) {
    dedup(out_adj[u]);
    dedup(in_adj[u]);
  }

  std::vector<char> contracted(n, 0);
  std::vector<int32_t> deleted_neighbors(n, 0);
  rank_.assign(n, 0);
  WitnessSearcher witness(n);

  // Runs witness searches for contracting `v`; returns the shortcuts needed.
  // A shortcut u->w is needed iff the shortest u->w path bypassing v is
  // longer than d(u,v)+d(v,w). The witness search is capped; on cap we
  // conservatively add the shortcut (correct, possibly redundant).
  auto shortcuts_for = [&](NodeId v, bool record,
                           std::vector<std::pair<NodeId, DynArc>>* out)
      -> int {
    int count = 0;
    // Active outgoing neighbors and the cap for witness searches.
    double max_out = 0;
    int num_out = 0;
    for (const DynArc& a : out_adj[v]) {
      if (contracted[a.head]) continue;
      max_out = std::max(max_out, a.weight);
      ++num_out;
    }
    if (num_out == 0) return 0;

    for (const DynArc& in : in_adj[v]) {
      const NodeId u = in.head;
      if (contracted[u] || u == v) continue;
      const double cap = in.weight + max_out;

      // Local Dijkstra from u avoiding v over uncontracted nodes.
      ++witness.generation;
      ARIDE_ACHECK(witness.generation != 0);
      witness.queue = {};
      witness.Dist(u) = 0;
      witness.queue.push({0, u});
      int settled = 0;
      while (!witness.queue.empty() && settled < witness_settle_limit) {
        const auto [d, x] = witness.queue.top();
        witness.queue.pop();
        if (d > witness.Dist(x)) continue;
        if (d > cap) break;
        ++settled;
        for (const DynArc& a : out_adj[x]) {
          if (a.head == v || contracted[a.head]) continue;
          const double nd = d + a.weight;
          if (nd < witness.Dist(a.head)) {
            witness.Dist(a.head) = nd;
            witness.queue.push({nd, a.head});
          }
        }
      }

      for (const DynArc& outa : out_adj[v]) {
        const NodeId w = outa.head;
        if (contracted[w] || w == u || w == v) continue;
        const double via = in.weight + outa.weight;
        const double alt = witness.generation_of[w] == witness.generation
                               ? witness.dist[w]
                               : kInfDistance;
        if (alt <= via) continue;  // witness found
        ++count;
        if (record) out->push_back({u, {w, via}});
      }
    }
    return count;
  };

  auto active_degree = [&](const std::vector<DynArc>& arcs) {
    int deg = 0;
    for (const DynArc& a : arcs) {
      if (!contracted[a.head]) ++deg;
    }
    return deg;
  };
  auto priority_of = [&](NodeId v) -> int64_t {
    const int shortcuts = shortcuts_for(v, /*record=*/false, nullptr);
    const int degree = active_degree(out_adj[v]) + active_degree(in_adj[v]);
    return 2 * static_cast<int64_t>(shortcuts - degree) +
           deleted_neighbors[v];
  };

  struct PQEntry {
    int64_t priority;
    NodeId node;
    bool operator>(const PQEntry& o) const { return priority > o.priority; }
  };
  std::priority_queue<PQEntry, std::vector<PQEntry>, std::greater<PQEntry>>
      order_queue;
  for (NodeId v = 0; v < n; ++v) order_queue.push({priority_of(v), v});

  int32_t next_rank = 0;
  std::vector<std::pair<NodeId, DynArc>> new_shortcuts;
  while (!order_queue.empty()) {
    const auto [prio, v] = order_queue.top();
    order_queue.pop();
    if (contracted[v]) continue;
    // Lazy update: recompute; if the node is no longer the minimum, requeue.
    const int64_t fresh = priority_of(v);
    if (!order_queue.empty() && fresh > order_queue.top().priority) {
      order_queue.push({fresh, v});
      continue;
    }

    new_shortcuts.clear();
    shortcuts_for(v, /*record=*/true, &new_shortcuts);
    contracted[v] = 1;
    rank_[v] = next_rank++;
    for (const DynArc& a : out_adj[v]) {
      if (!contracted[a.head]) ++deleted_neighbors[a.head];
    }
    for (const DynArc& a : in_adj[v]) {
      if (!contracted[a.head]) ++deleted_neighbors[a.head];
    }
    for (const auto& [u, arc] : new_shortcuts) {
      // Keep only the cheapest parallel arc.
      bool replaced = false;
      for (DynArc& existing : out_adj[u]) {
        if (existing.head == arc.head) {
          existing.weight = std::min(existing.weight, arc.weight);
          replaced = true;
          break;
        }
      }
      if (!replaced) out_adj[u].push_back(arc);
      replaced = false;
      for (DynArc& existing : in_adj[arc.head]) {
        if (existing.head == u) {
          existing.weight = std::min(existing.weight, arc.weight);
          replaced = true;
          break;
        }
      }
      if (!replaced) in_adj[arc.head].push_back({u, arc.weight});
      ++num_shortcuts_;
    }
  }

  // Freeze both upward graphs into one rank-ordered CSR, keeping each
  // node's arc order.
  std::vector<NodeId> node_of_rank(n);
  for (NodeId u = 0; u < n; ++u) node_of_rank[rank_[u]] = u;
  arc_begin_.reserve(2 * static_cast<std::size_t>(n) + 1);
  arc_begin_.push_back(0);
  for (int32_t r = 0; r < n; ++r) {
    const NodeId u = node_of_rank[r];
    for (const std::vector<DynArc>* adj : {&out_adj[u], &in_adj[u]}) {
      for (const DynArc& a : *adj) {
        if (rank_[a.head] > r) arcs_.push_back({a.weight, rank_[a.head]});
      }
      arc_begin_.push_back(static_cast<uint32_t>(arcs_.size()));
    }
  }
  ARIDE_ACHECK(arcs_.size() <= std::numeric_limits<uint32_t>::max());
  arcs_.shrink_to_fit();
}

ContractionHierarchy::Query::Query(const ContractionHierarchy* ch) : ch_(ch) {
  ARIDE_ACHECK(ch != nullptr);
  labels_.assign(static_cast<std::size_t>(ch->num_nodes_),
                 Label{{kInfDistance, kInfDistance}, {0, 0}, {-1, -1}});
}

void ContractionHierarchy::Query::SiftUp(Direction dir, std::size_t i,
                                         HeapEntry e) {
  std::vector<HeapEntry>& heap = heap_[dir];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!(heap[parent].dist > e.dist)) break;
    heap[i] = heap[parent];
    labels_[heap[i].rank].heap_pos[dir] = static_cast<int32_t>(i);
    i = parent;
  }
  heap[i] = e;
  labels_[e.rank].heap_pos[dir] = static_cast<int32_t>(i);
}

void ContractionHierarchy::Query::SiftDown(Direction dir, std::size_t i,
                                           HeapEntry e) {
  std::vector<HeapEntry>& heap = heap_[dir];
  const std::size_t n = heap.size();
  while (true) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    std::size_t min_child = first;
    for (std::size_t c = first + 1; c < std::min(first + 4, n); ++c) {
      if (heap[c].dist < heap[min_child].dist) min_child = c;
    }
    if (!(heap[min_child].dist < e.dist)) break;
    heap[i] = heap[min_child];
    labels_[heap[i].rank].heap_pos[dir] = static_cast<int32_t>(i);
    i = min_child;
  }
  heap[i] = e;
  labels_[e.rank].heap_pos[dir] = static_cast<int32_t>(i);
}

void ContractionHierarchy::Query::SettleNext(Direction dir, double* best,
                                             int64_t* settled) {
  std::vector<HeapEntry>& heap = heap_[dir];
  const auto [d, r] = heap.front();
  const HeapEntry last = heap.back();
  heap.pop_back();
  if (!heap.empty()) SiftDown(dir, 0, last);
  Label& here = labels_[r];
  here.heap_pos[dir] = -1;
  ++*settled;
  const auto other = static_cast<Direction>(1 - dir);
  if (here.generation[other] == generation_) {
    *best = std::min(*best, d + here.dist[other]);
  }
  // Stall-on-demand: if a higher-ranked node w already reached in this
  // direction leads to r more cheaply (over an arc of the opposite upward
  // graph), d is not r's distance and no shortest path continues from r.
  for (const UpArc& a : ch_->UpArcs(other, r)) {
    const Label& w = labels_[a.head];
    if (w.generation[dir] == generation_ && w.dist[dir] + a.weight < d) {
      return;
    }
  }
  for (const UpArc& a : ch_->UpArcs(dir, r)) {
    const double nd = d + a.weight;
    Label& head = labels_[a.head];
    if (head.generation[dir] != generation_) {
      head.generation[dir] = generation_;
      head.dist[dir] = nd;
      heap.push_back({nd, a.head});
      SiftUp(dir, heap.size() - 1, {nd, a.head});
    } else if (nd < head.dist[dir]) {
      // Weights are >= 0, so nd never undercuts a settled label: the head
      // is still in the heap.
      ARIDE_DCHECK(head.heap_pos[dir] >= 0);
      head.dist[dir] = nd;
      SiftUp(dir, static_cast<std::size_t>(head.heap_pos[dir]), {nd, a.head});
    }
  }
}

double ContractionHierarchy::Query::ShortestDistance(NodeId source,
                                                     NodeId target) {
  ARIDE_DCHECK(source >= 0 && source < ch_->num_nodes_);
  ARIDE_DCHECK(target >= 0 && target < ch_->num_nodes_);
  if (source == target) return 0;
  ++generation_;
  ARIDE_ACHECK(generation_ != 0);

  const int32_t ends[2] = {ch_->rank_[source], ch_->rank_[target]};
  for (const Direction dir : {kForward, kBackward}) {
    Label& end = labels_[ends[dir]];
    end.dist[dir] = 0;
    end.generation[dir] = generation_;
    end.heap_pos[dir] = 0;
    heap_[dir].assign(1, {0, ends[dir]});
  }
  double best = kInfDistance;
  // Search-effort metric, accumulated locally: one registry update per
  // query, not per settled node.
  int64_t settled = 0;
  while (true) {
    const double f_top =
        heap_[kForward].empty() ? kInfDistance : heap_[kForward][0].dist;
    const double b_top =
        heap_[kBackward].empty() ? kInfDistance : heap_[kBackward][0].dist;
    if (std::min(f_top, b_top) >= best) break;
    SettleNext(f_top <= b_top ? kForward : kBackward, &best, &settled);
  }
  OBS_COUNTER_ADD("roadnet.ch.settled_nodes", settled);
  OBS_COUNTER_INC("roadnet.ch.queries");
  return best;
}

}  // namespace auctionride
