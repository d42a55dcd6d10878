// Lock-contention stress tests for the annotated concurrent facades
// (ctest label: concurrency; run under TSan by tools/ci/run_matrix.sh).
//
//   ConcurrencyRegistry  N writer threads hammer shared + per-thread
//                        counters and a histogram while a snapshotter
//                        loops snapshot()/export_prometheus(); totals must
//                        be exact after join.
//   ConcurrencyFleet     Shard threads ingest records concurrently into a
//                        FleetAggregator; the result must be identical to
//                        a single-threaded WindowAggregator over the same
//                        records (the merge-determinism contract survives
//                        locking).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fleet/window.h"
#include "telemetry/registry.h"

#include "support/sync.h"

namespace tapo {
namespace {

TEST(ConcurrencyRegistry, WritersRaceSnapshotters) {
  auto& reg = telemetry::Registry::instance();
  reg.reset();
  constexpr int kWriters = 4;
  constexpr int kIters = 5000;
  test::Latch start(1);
  std::atomic<bool> done{false};
  std::size_t snapshots_taken = 0;
  std::thread snapshotter([&] {
    start.wait();
    while (!done.load()) {
      const auto snap = reg.snapshot();
      std::ostringstream prom;
      reg.export_prometheus(prom);
      ASSERT_GE(prom.str().size(), snap.empty() ? 0u : 1u);
      ++snapshots_taken;
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&reg, &start, t] {
      start.wait();
      auto& mine = reg.counter("tapo_test_conc_writer_total",
                               {{"writer", std::to_string(t)}});
      auto& shared = reg.counter("tapo_test_conc_shared_total");
      auto& hist = reg.histogram("tapo_test_conc_us");
      for (int i = 0; i < kIters; ++i) {
        mine.add(1);
        shared.add(1);
        hist.observe(static_cast<std::uint64_t>(i));
      }
    });
  }
  start.count_down();
  for (auto& th : writers) th.join();
  done.store(true);
  snapshotter.join();

  EXPECT_GE(snapshots_taken, 1u);
  EXPECT_EQ(reg.counter("tapo_test_conc_shared_total").value(),
            static_cast<std::uint64_t>(kWriters) * kIters);
  for (int t = 0; t < kWriters; ++t) {
    EXPECT_EQ(reg.counter("tapo_test_conc_writer_total",
                          {{"writer", std::to_string(t)}})
                  .value(),
              static_cast<std::uint64_t>(kIters));
  }
  EXPECT_EQ(reg.histogram("tapo_test_conc_us").count(),
            static_cast<std::uint64_t>(kWriters) * kIters);
  reg.reset();
}

std::vector<fleet::FlowRecord> shard_records(std::uint32_t shard,
                                             std::size_t n) {
  std::vector<fleet::FlowRecord> out;
  for (std::size_t i = 0; i < n; ++i) {
    fleet::FlowRecord r;
    r.shard_id = shard;
    r.service = static_cast<std::uint8_t>(i % 3);
    r.flow_index = i;
    r.start_us = static_cast<std::int64_t>((i % 7) * 20'000'000);
    r.transmission_us = 2'000 + static_cast<std::int64_t>(i);
    r.stalled_us = (i % 2) != 0 ? 700 : 0;
    r.completed = (i % 5) != 0;
    r.unique_bytes = 1'000 + i;
    r.data_segments = 10 + i % 4;
    r.retrans_segments = i % 3;
    if ((i % 2) != 0) {
      fleet::StallEntry st;
      st.cause = static_cast<std::uint8_t>(i % 4);
      st.duration_us = 700;
      r.stalls.push_back(st);
    }
    out.push_back(std::move(r));
  }
  return out;
}

TEST(ConcurrencyFleet, ParallelIngestMatchesSequentialAggregation) {
  constexpr std::uint32_t kShards = 4;
  constexpr std::size_t kPerShard = 300;
  fleet::FleetConfig cfg;
  cfg.window = Duration::seconds(10);

  fleet::WindowAggregator reference(cfg);
  for (std::uint32_t s = 0; s < kShards; ++s) {
    for (const auto& r : shard_records(s, kPerShard)) reference.ingest(r);
  }

  fleet::FleetAggregator agg(cfg);
  test::Latch start(1);
  std::atomic<bool> done{false};
  std::thread publisher([&] {
    start.wait();
    while (!done.load()) {
      const auto snap = agg.snapshot();
      EXPECT_LE(snap.records, kShards * kPerShard);
      EXPECT_LE(agg.records(), kShards * kPerShard);
    }
  });
  std::vector<std::thread> shards;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    shards.emplace_back([&agg, &start, s] {
      start.wait();
      for (const auto& r : shard_records(s, kPerShard)) agg.ingest(r);
    });
  }
  start.count_down();
  for (auto& th : shards) th.join();
  done.store(true);
  publisher.join();

  EXPECT_EQ(agg.records(), kShards * kPerShard);
  // Locking must not perturb the merge-determinism contract: any
  // interleaving of concurrent ingest yields the sequential snapshot.
  EXPECT_EQ(agg.snapshot(), reference.snapshot());
}

}  // namespace
}  // namespace tapo
