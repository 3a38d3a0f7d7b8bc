// End-to-end latency sampling in the sharded engine: the router stamps
// every Nth enqueue per shard, the shard records enqueue->block-released
// deltas into its ShardStats histogram, and finish() merges them into
// EngineReport::latency.  Off by default (latency_sample_every == 0), and
// NEVER allowed to perturb the output -- sampling is observability, not
// semantics, so matches must stay bit-identical with it on or off.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "runtime/stream_engine.hpp"

namespace espice {
namespace {

std::vector<Event> make_stream(std::size_t n) {
  Rng rng(0x1a7e);
  std::vector<Event> events;
  events.reserve(n);
  double ts = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    Event e;
    e.type = static_cast<EventTypeId>(rng.uniform_int(8));
    e.seq = i;
    ts += rng.uniform(0.0, 0.05);
    e.ts = ts;
    e.value = rng.uniform(-1.0, 1.0);
    events.push_back(e);
  }
  return events;
}

StreamEngineConfig base_config(std::size_t shards) {
  StreamEngineConfig config;
  config.shards = shards;
  config.ring_capacity = 256;
  config.query.pattern = make_sequence(
      {element("up", TypeSet{}, DirectionFilter::kRising),
       element("down", TypeSet{}, DirectionFilter::kFalling)});
  config.query.window.span_kind = WindowSpan::kCount;
  config.query.window.span_events = 16;
  config.query.window.open_kind = WindowOpen::kCountSlide;
  config.query.window.slide_events = 4;
  return config;
}

EngineReport run_with_sampling(std::size_t shards, std::size_t every,
                               const std::vector<Event>& events) {
  StreamEngineConfig config = base_config(shards);
  config.latency_sample_every = every;
  StreamEngine engine(std::move(config));
  engine.push_batch(events);
  return engine.finish();
}

/// Rebalancing run with forced migrations between the batches (the
/// automatic rebalancer is held off, so both sampling settings see the
/// exact same move schedule).
EngineReport run_rebalancing(std::size_t every,
                             const std::vector<Event>& events) {
  constexpr std::size_t kPartitions = 8;
  StreamEngineConfig config = base_config(2);
  config.rebalance = RebalanceConfig{};
  config.rebalance->partitions = kPartitions;
  config.rebalance->interval_events = events.size() + 1;
  config.latency_sample_every = every;
  StreamEngine engine(std::move(config));
  const std::span<const Event> all(events);
  const std::size_t third = events.size() / 3;
  engine.push_batch(all.first(third));
  for (std::size_t p = 0; p < kPartitions; p += 2) {
    engine.move_partition(p, 1 - engine.shard_of_partition(p));
  }
  engine.push_batch(all.subspan(third, third));
  for (std::size_t p = 1; p < kPartitions; p += 3) {
    engine.move_partition(p, 1 - engine.shard_of_partition(p));
  }
  engine.push_batch(all.subspan(2 * third));
  return engine.finish();
}

void expect_same_output(const EngineReport& off, const EngineReport& on) {
  ASSERT_EQ(off.matches.size(), on.matches.size());
  for (std::size_t i = 0; i < off.matches.size(); ++i) {
    ASSERT_EQ(off.matches[i].constituents.size(),
              on.matches[i].constituents.size());
    for (std::size_t c = 0; c < off.matches[i].constituents.size(); ++c) {
      EXPECT_EQ(off.matches[i].constituents[c].event.seq,
                on.matches[i].constituents[c].event.seq);
    }
  }
  EXPECT_EQ(off.events, on.events);
}

TEST(LatencySampling, DisabledByDefaultRecordsNothing) {
  const auto events = make_stream(4000);
  const EngineReport report = run_with_sampling(2, 0, events);
  EXPECT_EQ(report.latency.count(), 0u);
  for (const ShardStats& s : report.shards) {
    EXPECT_EQ(s.latency.count(), 0u);
  }
  EXPECT_GT(report.total_matches(), 0u);
}

TEST(LatencySampling, SamplesAndMergesAcrossShards) {
  const auto events = make_stream(4000);
  const EngineReport report = run_with_sampling(3, 16, events);
  EXPECT_GT(report.latency.count(), 0u);
  // Best-effort contract: at most one sample per `every` enqueues (marks
  // are dropped when the side ring is full, never added).
  EXPECT_LE(report.latency.count(), events.size() / 16 + 3);
  std::uint64_t per_shard_total = 0;
  for (const ShardStats& s : report.shards) {
    per_shard_total += s.latency.count();
  }
  EXPECT_EQ(report.latency.count(), per_shard_total);
  EXPECT_GE(report.latency.quantile(0.99), report.latency.quantile(0.5));
  EXPECT_LE(report.latency.quantile(0.999), report.latency.max());
}

TEST(LatencySampling, SamplingDoesNotPerturbOutput) {
  const auto events = make_stream(3000);
  expect_same_output(run_with_sampling(2, 0, events),
                     run_with_sampling(2, 8, events));
  // Rebalancing: migration markers are ring items too, so the marks stay
  // aligned with the shards' consumed counters across moves.
  const EngineReport off = run_rebalancing(0, events);
  const EngineReport on = run_rebalancing(8, events);
  expect_same_output(off, on);
  EXPECT_GT(on.rebalance_moves, 0u);
  EXPECT_EQ(on.rebalance_moves, off.rebalance_moves);
  EXPECT_GT(on.latency.count(), 0u);
}

// Scalar push() path (no batching) samples too.
TEST(LatencySampling, ScalarPushPathSamples) {
  const auto events = make_stream(2000);
  StreamEngineConfig config = base_config(2);
  config.latency_sample_every = 32;
  StreamEngine engine(std::move(config));
  for (const Event& e : events) engine.push(e);
  const EngineReport report = engine.finish();
  EXPECT_GT(report.latency.count(), 0u);
}

}  // namespace
}  // namespace espice
