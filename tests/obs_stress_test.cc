// Concurrency stress for the observability layer, meant to run under TSan
// (cmake --preset tsan): many threads hammer the same registry metrics and
// the tracer while another thread snapshots and serializes concurrently.

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace auctionride {
namespace obs {
namespace {

TEST(ObsStressTest, ConcurrentMetricUpdatesAndSnapshots) {
  MetricRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 20000;

  std::atomic<bool> stop{false};
  std::thread snapshotter([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const MetricsSnapshot snap = registry.Snapshot();
      (void)snap;
      registry.GetHistogram("stress.hist")->Summary();
    }
  });

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&registry, t] {
      Counter* c = registry.GetCounter("stress.counter");
      Gauge* g = registry.GetGauge("stress.gauge");
      Histogram::Options opts;
      opts.reservoir_capacity = 256;
      Histogram* h = registry.GetHistogram("stress.hist", opts);
      for (int i = 0; i < kOpsPerThread; ++i) {
        c->Add(1);
        g->Max(static_cast<double>(i));
        h->Observe(static_cast<double>(t * kOpsPerThread + i));
        // Exercise get-or-create racing against updates.
        registry.GetCounter("stress.counter" + std::to_string(i % 4))
            ->Add(1);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  stop.store(true, std::memory_order_relaxed);
  snapshotter.join();

  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.at("stress.counter"), kThreads * kOpsPerThread);
  EXPECT_EQ(snap.histograms.at("stress.hist").count,
            static_cast<uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_DOUBLE_EQ(snap.gauges.at("stress.gauge"), kOpsPerThread - 1);
}

// Counter cells belong to threads, and an exiting thread's slot passes to
// a later thread. Waves of short-lived threads must neither lose nor double
// any add, and Reset() must zero the value without touching the cells.
TEST(ObsStressTest, CounterStaysExactAcrossThreadChurnAndReset) {
  Counter counter;
  constexpr int kWaves = 4;
  constexpr int kThreads = 8;
  constexpr int kAdds = 5000;
  auto wave = [&counter] {
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&counter] {
        for (int i = 0; i < kAdds; ++i) counter.Add(1);
      });
    }
    for (std::thread& w : workers) w.join();
  };
  for (int w = 0; w < kWaves; ++w) wave();
  EXPECT_EQ(counter.value(), int64_t{kWaves} * kThreads * kAdds);
  counter.Reset();
  EXPECT_EQ(counter.value(), 0);
  wave();
  EXPECT_EQ(counter.value(), int64_t{kThreads} * kAdds);
}

TEST(ObsStressTest, ConcurrentTracingAndSerialization) {
#if defined(ARIDE_OBS_DISABLED)
  GTEST_SKIP() << "OBS_TRACE_* macros are no-ops with ARIDE_OBS=OFF";
#endif
  Tracer::Clear();
  Tracer::SetEnabled(true);
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 2000;

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([] {
      Tracer::SetThreadName("stress-worker");
      for (int i = 0; i < kSpansPerThread; ++i) {
        OBS_TRACE_SPAN("stress.span");
        OBS_TRACE_COUNTER("stress.value", static_cast<double>(i));
      }
    });
  }
  // Serialize while spans are still being recorded.
  const std::string path = ::testing::TempDir() + "/obs_stress_trace.json";
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(Tracer::WriteChromeTrace(path).ok());
  }
  for (std::thread& w : workers) w.join();
  Tracer::SetEnabled(false);

  EXPECT_GE(Tracer::EventCount(),
            static_cast<std::size_t>(kThreads) * kSpansPerThread * 2);
  EXPECT_TRUE(Tracer::WriteChromeTrace(path).ok());
  Tracer::Clear();
}

}  // namespace
}  // namespace obs
}  // namespace auctionride
