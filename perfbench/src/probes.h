// Layer probes run after a traced replay, on its warm oracle: direct calls
// into the roadnet and planner layers' public functions, timed in
// isolation from the dispatch loop.

#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <cstdint>

#include "roadnet/oracle.h"
#include "spans.h"
#include "workload/generator.h"

namespace perfbench {

// Plans holding 0, 1 or 2 orders. A plan holding 3 is full at the default
// capacity, so insertion into it returns before doing any work.
constexpr int kProbeDepths = 3;

struct ProbeResults {
  double distance_hit_ns = 0;   // DistanceOracle::Distance, cached pair
  double distance_miss_us = 0;  // DistanceOracle::Distance, uncached pair
  // BestInsertion of an order whose pickup is within reach into a plan
  // holding d orders; 0 when no such plan formed.
  double insertion_us[kProbeDepths] = {0, 0, 0};
  double plan_pack_us = 0;  // PlanPack of a two-order pack, empty vehicle
};

ProbeResults RunProbes(const auctionride::DistanceOracle& oracle,
                       const auctionride::Workload& workload, uint64_t seed,
                       Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
