// The benchmark's workloads: fixed Poisson order schedules on the
// Beijing-like network, each generated from the seed given on the command
// line. README.md records why each one exists and which layers it loads.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "auction/mechanism.h"
#include "engine/faults.h"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  int num_orders = 0;
  int num_vehicles = 0;
  double duration_s = 0;  // order arrival window
  auctionride::MechanismKind mechanism = auctionride::MechanismKind::kRank;
  double charge_ratio = 0;
  int num_shards = 1;
  auctionride::FaultProfile faults = auctionride::FaultProfile::kNone;
  // Distinct order schedules a --trace 0 run replays per pass. A small
  // market's outcomes and round times vary from schedule to schedule, and
  // pooling schedules narrows that spread.
  int schedules = 1;
};

const std::vector<WorkloadSpec>& AllWorkloads();

/// Null when `name` names no workload.
const WorkloadSpec* FindWorkload(const std::string& name);

/// The smoke-test variant: same mechanism, pricing, sharding and faults at
/// a twentieth of the orders and vehicles over a shorter window.
WorkloadSpec SmokeVariant(const WorkloadSpec& spec);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
