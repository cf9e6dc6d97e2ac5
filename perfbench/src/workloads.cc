#include "workloads.h"

namespace perfbench {

using auctionride::FaultProfile;
using auctionride::MechanismKind;

const std::vector<WorkloadSpec>& AllWorkloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      // Paper §V-A morning peak: Rank + DnW, CR 0.2, one shard, no faults.
      {"paper_peak", 5000, 7000, 1800, MechanismKind::kRank, 0.2, 1,
       FaultProfile::kNone},
      // Greedy + GPri at the Table II default CR 0, paper_peak's
      // order/vehicle ratio at 16% of its size. Two schedules per pass: one
      // 800-order schedule's outcomes spread by up to 0.09 from seed to seed.
      {"gpri_stream", 800, 1120, 1800, MechanismKind::kGreedy, 0.0, 1,
       FaultProfile::kNone, 2},
      // engine_load-style surge over 8 region shards under the storm fault
      // profile. The window is 720 s rather than engine_load's 600 s so
      // that the run spans more than 100 rounds.
      {"sharded_storm", 5000, 1500, 720, MechanismKind::kRank, 0.2, 8,
       FaultProfile::kStorm},
  };
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

WorkloadSpec SmokeVariant(const WorkloadSpec& spec) {
  WorkloadSpec smoke = spec;
  smoke.num_orders = spec.num_orders / 20;
  smoke.num_vehicles = spec.num_vehicles / 20;
  smoke.duration_s = spec.duration_s / 4;
  return smoke;
}

}  // namespace perfbench
