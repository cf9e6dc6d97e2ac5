// Round-based ridesharing simulation (paper §V-A).
//
// Orders are issued at their recorded timestamps; undispatched orders pend
// to the next round and are dropped after 5 minutes. Vehicles come online at
// their recorded locations, random-walk over the road network while idle,
// and follow their travel plans (shortest paths, constant speed) when
// dispatched. Every `round_duration_s` the configured mechanism runs on the
// pending orders and online vehicles; accepted plans are applied and
// payments accounted.
//
// A simulation is a replay of a Workload through the dispatch engine
// (engine/engine.h), which owns the round loop and the world physics.

#ifndef AUCTIONRIDE_SIM_SIMULATOR_H_
#define AUCTIONRIDE_SIM_SIMULATOR_H_

#include "engine/engine.h"
#include "engine/result.h"
#include "roadnet/oracle.h"
#include "workload/generator.h"

namespace auctionride {

/// Replays `workload` through a fresh Engine: each order is submitted when
/// its issue time comes due, one batch ahead of each round; rounds step to
/// the horizon (last issue time + max pending + one round), dispatched
/// riders are delivered, and the aggregate is returned. The oracle must
/// outlive the call; orders must be sorted by issue time with dense ids
/// (the generator contract).
SimResult Simulate(const DistanceOracle* oracle, const Workload& workload,
                   const EngineOptions& options);

}  // namespace auctionride

#endif  // AUCTIONRIDE_SIM_SIMULATOR_H_
