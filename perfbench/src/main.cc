// aride_perfbench: the repository benchmark program (see ../README.md).
//
//   aride_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--smoke] [--trace-dir DIR] [--fingerprint-dir DIR]
//
// Every run starts with an untimed warm-up replay of the smoke variant.
//
// --trace 0 measures the end-to-end metrics: round(S / 15) passes, at least
// one, each a timed replay (no spans, no verification) of each of the
// workload's schedules, with set-up sampled at least three times. Schedule 0
// is the seed's own. Round latency and throughput pool every replay; set-up
// is the median; the money metrics are the mean over schedules.
//
// --trace 1 measures the per-layer metrics: a timed replay, a traced replay
// (spans around every call into a layer, exact counters read between
// rounds, layer probes afterwards) and a verified replay (VerifyDispatch /
// VerifyPayments on every round) of the seed's schedule. Each count
// is tagged with whether it repeated exactly between the timed and traced
// replays.
//
// Every replay checks Definition 4 (max wt+dt-θ <= 0) and must reproduce
// the outcome fingerprint of every other replay of its schedule. The last
// line of stdout is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "replay.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

using auctionride::WallTimer;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool smoke = false;
  std::string trace_dir;
  std::string fingerprint_dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = std::atoi(value.c_str());
    } else if (flag == "--trace-dir") {
      args->trace_dir = value;
    } else if (flag == "--fingerprint-dir") {
      args->fingerprint_dir = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && (args->trace == 0 || args->trace == 1);
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank quantile.
double Quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Checks shared by every replay; collects the failures.
class Checker {
 public:
  Checker(const WorkloadSpec& spec, bool smoke,
          const std::string& fingerprint_dir)
      : spec_(spec), smoke_(smoke), dir_(fingerprint_dir) {}

  void Check(bool ok, const std::string& what) {
    if (!ok) errors_.push_back(what);
  }

  // Output checks on one replay of schedule `seed`, plus its outcome
  // fingerprint against every other replay of that schedule: earlier ones
  // in this run and, through the fingerprint directory, in earlier runs of
  // the same build.
  void CheckReplay(const ReplayRun& run, uint64_t seed, const char* label) {
    const std::string tag = std::string(label) + " replay of schedule " +
                            std::to_string(seed) + ": ";
    const auctionride::SimResult& r = run.result;
    Check(r.max_wasted_time_violation_s.value() <= 0,
          tag + "Definition 4 violated, max wt+dt-theta = " +
              std::to_string(r.max_wasted_time_violation_s.value()) + " s");
    Check(r.orders_total == spec_.num_orders &&
              run.submitted == spec_.num_orders,
          tag + "not every order of the catalog was submitted");
    Check(r.orders_dispatched >= 0 && r.orders_dispatched <= r.orders_total,
          tag + "dispatched count outside [0, orders]");
    const OrderFates& f = run.fates;
    Check(f.lost == 0, tag + std::to_string(f.lost) +
                           " orders ended neither dispatched nor expired");
    Check(f.served == r.orders_dispatched,
          tag + "event trace ends with " + std::to_string(f.served) +
              " orders dispatched, the result counts " +
              std::to_string(r.orders_dispatched));
    Check(r.total_payments.value() >= 0 &&
              r.refunded_payments.value() >= 0,
          tag + "negative payments or refunds");
    if (spec_.faults == auctionride::FaultProfile::kNone) {
      Check(run.fingerprint.truncated_rounds == 0 &&
                run.fingerprint.tiers[2] == 0,
            tag + "fault-free run truncated a round or fell back to FCFS");
    }

    const std::string key = spec_.name + (smoke_ ? "-smoke" : "") +
                            "-schedule" + std::to_string(seed);
    const std::string fp = run.fingerprint.ToString();
    const auto [it, first] = seen_.emplace(key, fp);
    if (!first) {
      Check(fp == it->second,
            tag + "outcome " + fp + " differs from " + it->second);
      return;
    }
    std::printf("outcome %s: %s; orders served %d, declined %d, refunded "
                "and unserved %d\n",
                key.c_str(), fp.c_str(), f.served, f.declined,
                f.refunded_unserved);
    if (dir_.empty()) return;
    std::ifstream in(dir_ + "/" + key + ".txt");
    std::string stored;
    if (in && std::getline(in, stored)) {
      Check(fp == stored, tag + "outcome " + fp +
                              " differs from an earlier run's " + stored);
    } else {
      unstored_.push_back(key);
    }
  }

  // Stores the fingerprints seen for the first time, if every check passed.
  void Commit() {
    if (!errors_.empty()) return;
    for (const std::string& key : unstored_) {
      std::ofstream(dir_ + "/" + key + ".txt") << seen_.at(key) << "\n";
    }
  }

  const std::vector<std::string>& errors() const { return errors_; }

 private:
  const WorkloadSpec& spec_;
  bool smoke_;
  std::string dir_;
  std::map<std::string, std::string> seen_;
  std::vector<std::string> unstored_;
  std::vector<std::string> errors_;
};

struct Metric {
  Metric(std::string name, double value, std::string unit,
         std::string moves = "", bool is_count = false)
      : name(std::move(name)),
        value(value),
        unit(std::move(unit)),
        moves(std::move(moves)),
        is_count(is_count) {}

  std::string name;
  double value = 0;
  std::string unit;
  std::string moves;  // end-to-end metric it should move ("" = none)
  bool is_count = false;  // derived from exact counters only
  std::string exact;      // "exact" | "varies" | "" (timings)
};

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("%-40s %18s  %-8s %-26s %s\n", "metric", "value", "unit",
              "should move", "repeat");
  for (const Metric& m : metrics) {
    std::printf("%-40s %18.6f  %-8s %-26s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.moves.c_str(), m.exact.c_str());
  }
  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    json << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
         << "\": {\"value\": " << buf << ", \"unit\": \"" << metrics[i].unit
         << "\"}";
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// The per-layer metrics of one replay. Timing metrics of a timed replay
// are meaningless here; only its counts are compared.
std::vector<Metric> LayerMetrics(const ReplayRun& run) {
  const auto count = [&run](const char* name) {
    return static_cast<double>(run.counts.at(name));
  };
  const auctionride::SimResult& r = run.result;
  const auctionride::EngineStats& st = run.stats;

  double dispatch_s = 0;
  double pricing_s = 0;
  // Per StepRound: the slowest shard's dispatch, and its dispatch + pricing.
  std::vector<double> slowest_dispatch_s(run.round_s.size(), 0);
  std::vector<double> slowest_auction_s(run.round_s.size(), 0);
  for (const auctionride::RoundRecord& rec : r.rounds) {
    dispatch_s += rec.dispatch_seconds.value();
    pricing_s += rec.pricing_seconds.value();
    const auto k = static_cast<std::size_t>(
        std::lround(rec.time_s.value() / run.round_period_s));
    if (k < slowest_auction_s.size()) {
      slowest_dispatch_s[k] =
          std::max(slowest_dispatch_s[k], rec.dispatch_seconds.value());
      slowest_auction_s[k] = std::max(
          slowest_auction_s[k],
          rec.dispatch_seconds.value() + rec.pricing_seconds.value());
    }
  }
  double round_total_s = 0;
  double critical_dispatch_s = 0;
  double non_auction_s = 0;
  for (std::size_t k = 0; k < run.round_s.size(); ++k) {
    round_total_s += run.round_s[k];
    critical_dispatch_s += slowest_dispatch_s[k];
    non_auction_s += run.round_s[k] - slowest_auction_s[k];
  }
  double shard_p90 = 0;
  double max_ingested = 0;
  double sum_ingested = 0;
  double peak_queue = 0;
  for (const auctionride::ShardStats& sh : st.shards) {
    if (sh.round_s.count() > 0) {
      shard_p90 = std::max(shard_p90, sh.round_s.Quantile(0.9));
    }
    max_ingested = std::max(max_ingested, static_cast<double>(sh.ingested));
    sum_ingested += static_cast<double>(sh.ingested);
    peak_queue =
        std::max(peak_queue, static_cast<double>(sh.peak_queue_depth));
  }
  const double priced =
      count("auction.dnw.priced_orders") + count("auction.gpri.priced_orders");
  const double queries = count("oracle.queries");
  const double hits = count("oracle.cache_hits");
  const ProbeResults& p = run.probes;
  const std::string p50 = "round_p50_s";
  const std::string p90 = "round_p90_s";
  const std::string fail = "failure_share";

  std::vector<Metric> m = {
      {"roadnet.network_build_s", run.setup.network_s, "s", "setup_s"},
      {"roadnet.ch_build_s", run.setup.ch_s, "s", "setup_s"},
      {"roadnet.nearest_index_s", run.setup.nearest_s, "s", "setup_s"},
      {"workload.generate_s", run.setup.generate_s, "s", "setup_s"},
      {"engine.construct_s", run.setup.construct_s, "s", "setup_s"},
      {"roadnet.queries", queries, "count", p50 + ",orders_per_s", true},
      {"roadnet.trivial_queries", count("oracle.trivial_queries"), "count",
       p50 + ",orders_per_s", true},
      {"roadnet.hit_ratio", Ratio(hits, queries), "ratio",
       p50 + ",orders_per_s", true},
      {"roadnet.ch_searches", count("roadnet.ch.queries"), "count",
       p50 + ",orders_per_s", true},
      {"roadnet.ch_settled_per_search",
       Ratio(count("roadnet.ch.settled_nodes"), count("roadnet.ch.queries")),
       "nodes", p50 + ",orders_per_s", true},
      {"roadnet.cache_entries", queries - hits, "count", "peak_rss_mb", true},
      {"roadnet.distance_hit_ns", p.distance_hit_ns, "ns",
       p50 + ",orders_per_s"},
      {"roadnet.distance_miss_us", p.distance_miss_us, "us",
       p50 + ",orders_per_s"},
      {"planner.insertion.calls", count("planner.insertion.calls"), "count",
       p50, true},
      {"planner.insertion.prune_ratio",
       Ratio(count("planner.insertion.pruned.candidates"),
             count("planner.insertion.attempts")),
       "ratio", p50, true},
      {"planner.insertion.feasible_ratio",
       Ratio(count("planner.insertion.feasible"),
             count("planner.insertion.calls")),
       "ratio", p50, true},
  };
  for (int d = 0; d < kProbeDepths; ++d) {
    m.push_back({"planner.insertion_us.depth" + std::to_string(d),
                 p.insertion_us[d], "us", p50});
  }
  const std::vector<Metric> rest = {
      {"planner.plan_pack_us", p.plan_pack_us, "us", p50},
      {"auction.dispatch_s", dispatch_s, "s", p50},
      {"auction.dispatch_share", Ratio(critical_dispatch_s, round_total_s),
       "ratio", p50},
      {"auction.rank.packs_generated", count("auction.rank.packs_generated"),
       "count", p50, true},
      {"auction.rank.pack_yield",
       Ratio(count("auction.rank.packs_dispatched"),
             count("auction.rank.packs_generated")),
       "ratio", p50, true},
      {"auction.rank.packmemo_hit_ratio",
       Ratio(count("auction.rank.packmemo.hits"),
             count("auction.rank.packmemo.hits") +
                 count("auction.rank.packmemo.misses")),
       "ratio", p50, true},
      {"auction.greedy.seed_pairs", count("auction.dispatch.seed_pairs"),
       "count", p50, true},
      {"auction.greedy.stale_pop_ratio",
       Ratio(count("auction.greedy.stale_pops"),
             count("auction.greedy.heap_pops")),
       "ratio", p50, true},
      {"auction.pricing_s", pricing_s, "s", p90 + ",orders_per_s"},
      {"auction.pricing_per_order_ms", Ratio(pricing_s * 1e3, priced), "ms",
       p90 + ",orders_per_s"},
      {"auction.anytime.truncated_rounds",
       count("auction.dispatch.anytime.truncated_rounds"), "count",
       "net_payments," + fail, true},
      {"auction.anytime.partial_winners",
       count("auction.dispatch.anytime.partial_winners"), "count",
       "net_payments," + fail, true},
      {"auction.anytime.residual_orders",
       count("auction.dispatch.anytime.residual_orders"), "count",
       "net_payments," + fail, true},
      {"auction.tier.primary", static_cast<double>(st.tier_counts[0]),
       "count", "net_payments," + fail, true},
      {"auction.tier.greedy_fallback", static_cast<double>(st.tier_counts[1]),
       "count", "net_payments," + fail, true},
      {"auction.tier.fcfs_fallback", static_cast<double>(st.tier_counts[2]),
       "count", "net_payments," + fail, true},
      {"engine.non_auction_s", non_auction_s, "s", p50},
      {"engine.submit_us",
       Ratio(run.submit_s * 1e6, static_cast<double>(run.submitted)), "us",
       p50},
      {"engine.shard_round_p90_s", shard_p90, "s", p90},
      {"engine.shard_skew",
       Ratio(max_ingested,
             sum_ingested / static_cast<double>(st.shards.size())),
       "ratio", p90, true},
      {"engine.migrations", static_cast<double>(st.migrations), "count", p90,
       true},
      {"engine.peak_queue_depth", peak_queue, "count", p90, true},
      {"engine.faults.stranded", static_cast<double>(r.orders_stranded),
       "count", "net_payments," + fail, true},
      {"engine.faults.cancelled", static_cast<double>(r.orders_cancelled),
       "count", "net_payments," + fail, true},
      {"engine.faults.redispatched",
       static_cast<double>(r.orders_redispatched), "count",
       "net_payments," + fail, true},
      {"engine.faults.refunded_yuan", r.refunded_payments.value(), "yuan",
       "net_payments", true},
      {"engine.faults.refunded_unserved",
       static_cast<double>(run.fates.refunded_unserved), "count",
       "net_payments," + fail, true},
      {"outcome.failure_share",
       Ratio(static_cast<double>(r.orders_total - r.orders_dispatched),
             static_cast<double>(r.orders_total)),
       "ratio", "", true},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

std::string MetadataJson(const Args& args, const WorkloadSpec& spec,
                         const std::string& fingerprint,
                         const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"workload\":\"" << spec.name << "\",\"seed\":" << args.seed
      << ",\"smoke\":" << (args.smoke ? "true" : "false")
      << ",\"fingerprint\":\"" << fingerprint << "\",\"metrics\":{";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::snprintf(buf, sizeof(buf), "%.17g",
                  std::isfinite(m.value) ? m.value : 0);
    out << (i == 0 ? "" : ",") << "\"" << m.name << "\":{\"value\":" << buf
        << ",\"unit\":\"" << m.unit << "\",\"moves\":\"" << m.moves
        << "\",\"repeat\":\"" << m.exact << "\"}";
  }
  out << "}}";
  return out.str();
}

// A --trace 0 run makes one pass over the workload's schedules per
// kSecondsPerPass of --seconds.
constexpr double kSecondsPerPass = 15;

// Schedule j of a run at seed s replays seed s + j * kScheduleSeedStride, so
// that the runs of nearby seeds share no schedule.
constexpr uint64_t kScheduleSeedStride = 1000003;

// Engine, dispatch and pricing workers per pool: a fixed number, so that
// results do not depend on the core count. Two rather than four: on the
// shared 4-vCPU baseline machine they were no less steady (README.md, "The
// loop").
constexpr int kWorkerThreads = 2;

// Set-up samples per --trace 0 run; setup_s is their median.
constexpr std::size_t kSetupSamples = 3;

int Run(const Args& args, const WorkloadSpec& spec) {
  Checker checker(spec, args.smoke, args.fingerprint_dir);
  std::vector<Metric> metrics;
  int64_t attempted = 0;
  int64_t failed = 0;
  const auto tally = [&](const ReplayRun& run) {
    attempted += run.submitted;
    failed += run.fates.lost;
  };
  ReplayOptions options;
  options.threads = kWorkerThreads;
  options.seed = args.seed;  // draws the schedule, seeds engine and faults
  // Warm-up: a small replay first, so that no measured replay is the
  // process's first.
  Replay(SmokeVariant(spec), options);

  if (args.trace == 0) {
    const int passes = std::max(
        1, static_cast<int>(std::lround(args.seconds / kSecondsPerPass)));
    const int schedules = passes * spec.schedules;
    std::vector<double> setup_s;
    std::vector<double> round_s;  // every round of every replay
    double replay_s = 0;
    double submitted = 0;
    double utility = 0;
    double payments = 0;
    for (int j = 0; j < schedules; ++j) {
      ReplayOptions schedule_options = options;
      schedule_options.seed = args.seed + j * kScheduleSeedStride;
      const ReplayRun run = Replay(spec, schedule_options);
      checker.CheckReplay(run, schedule_options.seed, "timed");
      tally(run);
      setup_s.push_back(run.setup.total_s());
      std::printf("schedule %llu: replay %.3f s\n",
                  static_cast<unsigned long long>(schedule_options.seed),
                  run.replay_s);
      replay_s += run.replay_s;
      submitted += static_cast<double>(run.submitted);
      round_s.insert(round_s.end(), run.round_s.begin(), run.round_s.end());
      utility += run.fingerprint.auction_utility / schedules;
      payments += run.fingerprint.net_payments / schedules;
    }
    while (setup_s.size() < kSetupSamples) {
      setup_s.push_back(SetupOnly(spec, options).total_s());
    }
    std::printf("%s seed %llu: %d schedules, %zu rounds, %zu set-ups\n",
                spec.name.c_str(), static_cast<unsigned long long>(args.seed),
                schedules, round_s.size(), setup_s.size());
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"orders_per_s", submitted / replay_s, "orders/s"},
        {"round_p50_s", Quantile(round_s, 0.5), "s"},
        {"round_p90_s", Quantile(round_s, 0.9), "s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
        {"auction_utility", utility, "yuan"},
        {"net_payments", payments, "yuan"},
    };
  } else {
    const ReplayRun timed = Replay(spec, options);
    checker.CheckReplay(timed, options.seed, "timed");
    tally(timed);

    Tracer tracer;
    ReplayOptions traced_options = options;
    traced_options.mode = ReplayMode::kTraced;
    traced_options.tracer = &tracer;
    const ReplayRun traced = Replay(spec, traced_options);
    checker.CheckReplay(traced, options.seed, "traced");
    tally(traced);

    ReplayOptions verified_options = options;
    verified_options.mode = ReplayMode::kVerified;
    const ReplayRun verified = Replay(spec, verified_options);
    checker.CheckReplay(verified, options.seed, "verified");
    tally(verified);

    metrics = LayerMetrics(traced);
    const std::vector<Metric> timed_metrics = LayerMetrics(timed);
    int exact = 0;
    int varying = 0;
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      if (!metrics[i].is_count) continue;
      const bool same = metrics[i].value == timed_metrics[i].value;
      metrics[i].exact = same ? "exact" : "varies";
      ++(same ? exact : varying);
    }
    metrics.push_back({"bench.trace_overhead_s",
                       traced.replay_s - timed.replay_s, "s"});
    metrics.push_back({"bench.exact_counts", static_cast<double>(exact),
                       "count"});
    metrics.push_back({"bench.varying_counts", static_cast<double>(varying),
                       "count"});
    std::printf("%s seed %llu: replay %.3f s timed, %.3f s traced, %.3f s "
                "verified\n",
                spec.name.c_str(), static_cast<unsigned long long>(args.seed),
                timed.replay_s, traced.replay_s, verified.replay_s);
    if (!args.trace_dir.empty()) {
      const std::string path = args.trace_dir + "/" + spec.name +
                               (args.smoke ? "-smoke" : "") + "-seed" +
                               std::to_string(args.seed) + ".json";
      checker.Check(tracer.Write(path,
                                 MetadataJson(args, spec,
                                              traced.fingerprint.ToString(),
                                              metrics)),
                    "cannot write " + path);
      std::printf("trace: %s\n", path.c_str());
    }
  }
  checker.Commit();
  for (const std::string& e : checker.errors()) {
    std::printf("CHECK FAILED: %s\n", e.c_str());
  }
  const bool correct = checker.errors().empty();
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: aride_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--smoke] [--trace-dir DIR] "
                 "[--fingerprint-dir DIR]\n");
    return 2;
  }
  const perfbench::WorkloadSpec* spec = perfbench::FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  return perfbench::Run(args, args.smoke ? perfbench::SmokeVariant(*spec)
                                         : *spec);
}
