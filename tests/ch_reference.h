// Reference contraction-hierarchy query: the plain bidirectional upward
// Dijkstra that ContractionHierarchy::Query refines. It runs over the same
// hierarchy (ranks, arcs and weights) but without stall-on-demand, with one
// std::priority_queue per direction and separate distance / generation
// arrays. Tests compare the production query against it bit for bit.

#ifndef AUCTIONRIDE_TESTS_CH_REFERENCE_H_
#define AUCTIONRIDE_TESTS_CH_REFERENCE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "roadnet/contraction_hierarchy.h"

namespace auctionride {
namespace testutil {

class ReferenceChQuery {
 public:
  explicit ReferenceChQuery(const ContractionHierarchy* ch)
      : ch_(ch),
        dist_fwd_(static_cast<std::size_t>(ch->num_nodes()), kInfDistance),
        dist_bwd_(dist_fwd_),
        gen_fwd_(dist_fwd_.size(), 0),
        gen_bwd_(dist_fwd_.size(), 0) {}

  double ShortestDistance(NodeId source, NodeId target) {
    if (source == target) return 0;
    ++generation_;
    auto dist = [this](std::vector<double>& d, std::vector<uint32_t>& g,
                       int32_t r) -> double& {
      if (g[r] != generation_) {
        g[r] = generation_;
        d[r] = kInfDistance;
      }
      return d[r];
    };

    MinQueue fwd, bwd;
    const int32_t s = ch_->rank(source);
    const int32_t t = ch_->rank(target);
    dist(dist_fwd_, gen_fwd_, s) = 0;
    dist(dist_bwd_, gen_bwd_, t) = 0;
    fwd.push({0, s});
    bwd.push({0, t});
    double best = kInfDistance;

    auto relax_side = [&](MinQueue& queue, std::vector<double>& my_dist,
                          std::vector<uint32_t>& my_gen,
                          std::vector<double>& other_dist,
                          std::vector<uint32_t>& other_gen,
                          ContractionHierarchy::Direction dir) {
      const auto [d, u] = queue.top();
      queue.pop();
      if (d > dist(my_dist, my_gen, u)) return;
      if (other_gen[u] == generation_ && other_dist[u] != kInfDistance) {
        best = std::min(best, d + other_dist[u]);
      }
      for (const ContractionHierarchy::UpArc& a : ch_->UpArcs(dir, u)) {
        const double nd = d + a.weight;
        if (nd < dist(my_dist, my_gen, a.head)) {
          dist(my_dist, my_gen, a.head) = nd;
          queue.push({nd, a.head});
        }
      }
    };

    while (!fwd.empty() || !bwd.empty()) {
      const double f_top = fwd.empty() ? kInfDistance : fwd.top().dist;
      const double b_top = bwd.empty() ? kInfDistance : bwd.top().dist;
      if (std::min(f_top, b_top) >= best) break;
      if (f_top <= b_top) {
        relax_side(fwd, dist_fwd_, gen_fwd_, dist_bwd_, gen_bwd_,
                   ContractionHierarchy::kForward);
      } else {
        relax_side(bwd, dist_bwd_, gen_bwd_, dist_fwd_, gen_fwd_,
                   ContractionHierarchy::kBackward);
      }
    }
    return best;
  }

 private:
  struct QueueEntry {
    double dist;
    int32_t rank;
    bool operator>(const QueueEntry& o) const { return dist > o.dist; }
  };
  using MinQueue = std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                                       std::greater<QueueEntry>>;

  const ContractionHierarchy* ch_;
  std::vector<double> dist_fwd_, dist_bwd_;
  std::vector<uint32_t> gen_fwd_, gen_bwd_;
  uint32_t generation_ = 0;
};

}  // namespace testutil
}  // namespace auctionride

#endif  // AUCTIONRIDE_TESTS_CH_REFERENCE_H_
