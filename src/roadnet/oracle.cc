#include "roadnet/oracle.h"

#include "common/check.h"
#include "obs/metrics.h"

namespace auctionride {

DistanceOracle::DistanceOracle(const RoadNetwork* network, Backend backend,
                               double speed_mps)
    : network_(network), backend_(backend), speed_mps_(speed_mps) {
  ARIDE_ACHECK(network != nullptr);
  ARIDE_ACHECK(network->built());
  ARIDE_ACHECK(speed_mps > 0);
  if (backend_ == Backend::kContractionHierarchy) {
    ch_ = std::make_unique<ContractionHierarchy>(network);
  }
  shards_ = std::make_unique<CacheShard[]>(kNumShards);
  // Relative safety margin: the backends sum edge lengths with round-to-
  // nearest adds, and LowerBoundDistance rounds its product once, so each
  // side can differ from the exact real value by a handful of ulps. Shaving
  // 1e-9 (~ 2^-30, millions of ulps) off the ratio keeps the bound strictly
  // admissible against the *rounded* Distance() result.
  lb_scale_ = network->min_detour_ratio() * (1.0 - 1e-9);
}

DistanceOracle::SearchContext DistanceOracle::AcquireContext() const {
  {
    MutexLock lock(pool_mu_);
    if (!pool_.empty()) {
      SearchContext context = std::move(pool_.back());
      pool_.pop_back();
      return context;
    }
  }
  SearchContext context;
  if (backend_ == Backend::kContractionHierarchy) {
    context.ch = std::make_unique<ContractionHierarchy::Query>(ch_.get());
  } else {
    context.dijkstra = std::make_unique<DijkstraSearch>(network_);
  }
  return context;
}

void DistanceOracle::ReleaseContext(SearchContext context) const {
  MutexLock lock(pool_mu_);
  pool_.push_back(std::move(context));
}

namespace {
// Per-thread Distance() call count. Plain (non-atomic) thread_local: only
// the owning thread mutates it, so the increment costs about as much as the
// function-entry DCHECKs it sits next to.
thread_local int64_t tl_thread_queries = 0;

inline uint64_t PairKey(NodeId source, NodeId target) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(source)) << 32) |
         static_cast<uint32_t>(target);
}
}  // namespace

int64_t DistanceOracle::ThreadQueryCount() { return tl_thread_queries; }

double DistanceOracle::Distance(NodeId source, NodeId target) const {
  double d = 0;
  const NodePair pair{source, target};
  DistanceBatch({&pair, 1}, {&d, 1});
  return d;
}

void DistanceOracle::DistanceBatch(std::span<const NodePair> pairs,
                                   std::span<double> out) const {
  ARIDE_ACHECK(pairs.size() == out.size());
  tl_thread_queries += static_cast<int64_t>(pairs.size());
  // Trivial queries never reach the cache, so counting them in
  // num_queries_ would bias the hit rate downward; they get their own
  // counter and num_queries_ stays hits + computes.
  int64_t trivial = 0;
  int64_t hits = 0;
  SearchContext context;  // taken from the pool on the batch's first miss
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const NodeId source = pairs[i].source;
    const NodeId target = pairs[i].target;
    ARIDE_DCHECK(source >= 0 && source < network_->num_nodes());
    ARIDE_DCHECK(target >= 0 && target < network_->num_nodes());
    if (source == target) {
      out[i] = 0;
      ++trivial;
      continue;
    }
    const uint64_t key = PairKey(source, target);
    CacheShard& shard = shards_[key % kNumShards];
    {
      MutexLock lock(shard.mu);
      if (const double* d = shard.memo.Find(key)) {
        out[i] = *d;
        ++hits;
        continue;
      }
    }
    if (!context.held()) context = AcquireContext();
    {
      // Only computes are timed, and only one in 16: cache hits are table
      // probes that would swamp the histogram.
      OBS_SCOPED_TIMER_SAMPLED("roadnet.sp.compute_s", 16);
      out[i] = context.ch != nullptr
                   ? context.ch->ShortestDistance(source, target)
                   : context.dijkstra->ShortestDistance(source, target);
    }
    // A key another thread raced in first keeps its value, which is the
    // same double: distances are deterministic.
    MutexLock lock(shard.mu);
    shard.memo.Insert(key, out[i]);
  }
  if (context.held()) ReleaseContext(std::move(context));

  const auto queries = static_cast<int64_t>(pairs.size()) - trivial;
  if (queries > 0) {
    num_queries_.Add(queries);
    OBS_COUNTER_ADD("roadnet.sp.queries", queries);
  }
  if (hits > 0) {
    num_cache_hits_.Add(hits);
    OBS_COUNTER_ADD("roadnet.sp.cache_hits", hits);
  }
  if (trivial > 0) {
    num_trivial_queries_.Add(trivial);
    OBS_COUNTER_ADD("roadnet.sp.trivial", trivial);
  }
}

}  // namespace auctionride
