// Contraction hierarchies (Geisberger et al. 2008) for fast exact
// point-to-point shortest distances on road networks.
//
// Preprocessing contracts nodes in increasing importance order, inserting
// shortcut arcs that preserve all shortest distances among the remaining
// nodes. Queries run two *upward* Dijkstra searches (forward from the source,
// backward from the target) over the hierarchy and meet in the middle;
// on road-like graphs each search settles only a few hundred nodes.
//
// Nodes are stored in rank order, so the top of the hierarchy, which nearly
// every search reaches, shares a few cache lines. Searches prune with
// stall-on-demand: a settled node that a higher-ranked neighbour already
// reaches more cheaply is not relaxed.
//
// Queries are served through ContractionHierarchy::Query objects, which own
// the per-search workspace; create one Query per thread for concurrent use.

#ifndef AUCTIONRIDE_ROADNET_CONTRACTION_HIERARCHY_H_
#define AUCTIONRIDE_ROADNET_CONTRACTION_HIERARCHY_H_

#include <cstdint>
#include <span>
#include <vector>

#include "roadnet/dijkstra.h"
#include "roadnet/graph.h"

namespace auctionride {

class ContractionHierarchy {
 public:
  /// Builds the hierarchy; the network must stay alive and unchanged.
  /// `witness_settle_limit` caps each local witness search (larger = fewer
  /// redundant shortcuts, slower preprocessing).
  explicit ContractionHierarchy(const RoadNetwork* network,
                                int witness_settle_limit = 60);

  ContractionHierarchy(const ContractionHierarchy&) = delete;
  ContractionHierarchy& operator=(const ContractionHierarchy&) = delete;

  NodeId num_nodes() const { return num_nodes_; }
  int64_t num_shortcuts() const { return num_shortcuts_; }

  /// The two upward search graphs: kForward is searched from the source,
  /// kBackward (reversed arcs) from the target.
  enum Direction { kForward = 0, kBackward = 1 };

  /// An arc of an upward search graph. `head` is a *rank*, not a NodeId.
  struct UpArc {
    double weight;
    int32_t head;
  };

  /// Contraction rank of `node`: 0 was contracted first, num_nodes()-1 last.
  int32_t rank(NodeId node) const { return rank_[node]; }

  /// Upward arcs of the node with rank `r` in direction `dir`, in the order
  /// the contraction left them. kForward: the arcs r->h of the hierarchy
  /// with rank h > r. kBackward: an arc to h for each arc h->r with h > r.
  std::span<const UpArc> UpArcs(Direction dir, int32_t r) const {
    const auto i = static_cast<std::size_t>(2 * r + dir);
    return {arcs_.data() + arc_begin_[i], arcs_.data() + arc_begin_[i + 1]};
  }

  /// Per-thread query context. Holds every buffer a search needs, so a
  /// query allocates nothing once its heaps have grown.
  class Query {
   public:
    explicit Query(const ContractionHierarchy* ch);

    /// Exact shortest distance in meters; kInfDistance if unreachable.
    double ShortestDistance(NodeId source, NodeId target);

   private:
    // Both directions' search state for one rank, valid for a direction
    // only while its stamp equals the current generation: the tentative
    // distance and the rank's position in that direction's heap.
    struct Label {
      double dist[2];
      uint32_t generation[2];
      int32_t heap_pos[2];  // -1 once settled
    };
    struct HeapEntry {
      double dist;
      int32_t rank;
    };

    // Settles the top of `dir`'s heap; updates *best on a meeting.
    void SettleNext(Direction dir, double* best, int64_t* settled);
    // Place `e` at or above / below slot `i` of `dir`'s 4-ary heap.
    void SiftUp(Direction dir, std::size_t i, HeapEntry e);
    void SiftDown(Direction dir, std::size_t i, HeapEntry e);

    const ContractionHierarchy* ch_;
    std::vector<Label> labels_;  // by rank
    // Indexed min-heaps (decrease-key, no stale entries), one per direction.
    std::vector<HeapEntry> heap_[2];
    uint32_t generation_ = 0;
  };

 private:
  friend class Query;

  struct DynArc {
    NodeId head;
    double weight;
  };

  NodeId num_nodes_ = 0;
  int64_t num_shortcuts_ = 0;
  std::vector<int32_t> rank_;  // by NodeId; higher = more important

  // Both upward graphs in one rank-ordered CSR: rank r's kForward arcs are
  // arcs_[arc_begin_[2r], arc_begin_[2r+1]) and its kBackward arcs follow
  // up to arc_begin_[2r+2]. A search relaxes one group and stall-checks the
  // other, so both sit on the same few cache lines.
  std::vector<uint32_t> arc_begin_;
  std::vector<UpArc> arcs_;
};

}  // namespace auctionride

#endif  // AUCTIONRIDE_ROADNET_CONTRACTION_HIERARCHY_H_
