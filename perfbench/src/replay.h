// One benchmark replay: set up the city and the engine from a seed, then
// drive the engine through its public entry points with a single driver
// thread — submit the orders that have come due, StepRound(), repeat to
// the horizon, DrainDeliveries(), Finish() — the same protocol as
// sim/engine_client.cc.

#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "engine/result.h"
#include "probes.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {

/// Wall time of each set-up phase, in seconds.
struct SetupTimes {
  double network_s = 0;    // BuildBeijingLikeNetwork
  double ch_s = 0;         // DistanceOracle construction (CH contraction)
  double nearest_s = 0;    // NearestNodeIndex
  double generate_s = 0;   // GenerateWorkload
  double construct_s = 0;  // Engine construction

  double total_s() const {
    return network_s + ch_s + nearest_s + generate_s + construct_s;
  }
};

/// The outcome a replay must reproduce exactly at a given seed.
struct Fingerprint {
  int orders_total = 0;
  int dispatched = 0;
  int expired = 0;
  double auction_utility = 0;  // U_auc, yuan
  double net_payments = 0;     // total_payments after refunds, yuan
  double refunds = 0;          // yuan
  int truncated_rounds = 0;
  uint64_t tiers[auctionride::kDispatchTierCount] = {0, 0, 0};

  /// Exact text form (money as hex floats); equal iff the outcomes are.
  std::string ToString() const;
};

/// How the submitted orders ended the run, from the order event trace.
struct OrderFates {
  int served = 0;             // ended the run dispatched
  int declined = 0;           // expired without ever being dispatched
  int refunded_unserved = 0;  // stranded or cancelled, never re-dispatched
  int lost = 0;  // never issued, or ended neither dispatched nor expired
};

enum class ReplayMode {
  kTimed,     // nothing but the wall clocks around the calls
  kTraced,    // spans, per-round counter reads, probes after Finish()
  kVerified,  // per-round VerifyDispatch/VerifyPayments inside the engine
};

struct ReplayOptions {
  ReplayMode mode = ReplayMode::kTimed;
  uint64_t seed = 1;
  int threads = 1;            // engine, dispatch and pricing workers
  Tracer* tracer = nullptr;   // required for kTraced
};

struct ReplayRun {
  SetupTimes setup;
  double replay_s = 0;          // first submit to Finish() returning
  std::vector<double> round_s;  // wall time of every StepRound()
  double submit_s = 0;          // Σ wall time of SubmitOrder batches
  int64_t submitted = 0;
  double round_period_s = 0;
  auctionride::SimResult result;
  auctionride::EngineStats stats;
  Fingerprint fingerprint;
  OrderFates fates;
  // Replay deltas (first submit to Finish) of the oracle's exact query
  // counters ("oracle.*") and of the metric registry's counters.
  std::map<std::string, int64_t> counts;
  ProbeResults probes;  // kTraced only
};

// Both functions below destroy everything they built and hand the freed
// memory back to the OS before returning. Each replay runs on fresh worker
// threads, which glibc may give other arenas; memory a previous replay left
// in its arenas would otherwise add to the next replay's peak RSS at random.

/// Builds everything a replay with `options` needs and throws it away: one
/// set-up sample of the same configuration as the replay's own set-up.
SetupTimes SetupOnly(const WorkloadSpec& spec, const ReplayOptions& options);

ReplayRun Replay(const WorkloadSpec& spec, const ReplayOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
