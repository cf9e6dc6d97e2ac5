// Bonus bidding (Use case 1 of the paper): during vehicle shortage the
// platform shows each requester a base price for the trip and the requester
// bids only a *bonus* on top (auction/bonus.h). One requester sweeps its
// bonus and observes the auction's behaviour — below the critical bonus the
// order is never dispatched; at or above it, the order wins and the payment
// *stays at the critical value* regardless of the bonus offered (so bidding
// one's true bonus valuation is optimal and safe). Each payment is split
// back into the base fare and the bonus actually charged.

#include <cstdio>
#include <vector>

#include "auction/bonus.h"
#include "auction/dnw.h"
#include "auction/rank.h"
#include "common/table.h"
#include "roadnet/builder.h"
#include "roadnet/nearest_node.h"
#include "roadnet/oracle.h"
#include "workload/generator.h"

using namespace auctionride;

int main() {
  RoadNetwork network = BuildGridNetwork(
      {.columns = 16, .rows = 16, .spacing_m = 500, .seed = 11});
  DistanceOracle oracle(&network,
                        DistanceOracle::Backend::kContractionHierarchy);
  NearestNodeIndex nearest(&network, 500);

  // Vehicle shortage: 14 requesters compete for 4 vehicles.
  WorkloadOptions wl;
  wl.seed = 19;
  wl.num_orders = 14;
  wl.num_vehicles = 4;
  wl.gamma = 1.6;
  wl.min_trip_m = 1000;
  const Workload workload = GenerateSingleRound(wl, oracle, nearest);
  std::vector<Vehicle> vehicles;
  for (const VehicleSpawn& spawn : workload.vehicles) {
    vehicles.push_back(spawn.vehicle);
  }

  // Every other requester offers a bonus of 0-6 yuan over the base fare.
  const FareModel fare;
  const OrderId probe = 0;
  std::vector<BonusQuote> quotes;
  for (const Order& o : workload.orders) {
    if (o.id == probe) continue;
    quotes.push_back({o.id, fare.BasePrice(o), Money(2.0 * (o.id % 4))});
  }
  const Order& probed = workload.orders[static_cast<std::size_t>(probe)];
  const Money base = fare.BasePrice(probed);
  const Money true_bonus(12.0);  // what the ride is worth to the requester
  std::printf("probed requester %d: base price %.2f yuan, true bonus "
              "valuation %.2f yuan, trip %.1f km\n\n",
              probe, base.value(), true_bonus.value(),
              probed.shortest_distance_m.value() / 1000.0);

  TablePrinter table({"bonus", "bid", "dispatched", "payment", "base part",
                      "bonus part", "rider utility"});
  for (const double bonus : {0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 15.0,
                             20.0}) {
    std::vector<BonusQuote> round_quotes = quotes;
    round_quotes.push_back({probe, base, Money(bonus)});
    const std::vector<Order> orders =
        ApplyBonusQuotes(workload.orders, fare, round_quotes);

    AuctionInstance instance;
    instance.orders = &orders;
    instance.vehicles = &vehicles;
    instance.oracle = &oracle;
    instance.config.alpha_d_per_km = 3.0;
    const RankRunResult run = RankDispatch(instance);
    const double bid = orders[static_cast<std::size_t>(probe)].bid.value();
    if (run.result.IsDispatched(probe)) {
      const Money pay = DnWPriceOrder(instance, run.artifacts, probe);
      const PaymentBreakdown split = SplitPayment(probed, fare, pay);
      table.AddRow({FormatDouble(bonus), FormatDouble(bid), "yes",
                    FormatDouble(pay.value()),
                    FormatDouble(split.base_part.value()),
                    FormatDouble(split.bonus_part.value()),
                    FormatDouble((base + true_bonus - pay).value())});
    } else {
      table.AddRow({FormatDouble(bonus), FormatDouble(bid), "no", "-", "-",
                    "-", "0.00"});
    }
  }
  table.Print();

  std::printf(
      "\nNote how the payment is flat above the critical bonus: offering\n"
      "more never increases the charge, and bonuses below it never win —\n"
      "the requester's best strategy is to bid the true bonus valuation\n"
      "(Def. 11).\n");
  return 0;
}
