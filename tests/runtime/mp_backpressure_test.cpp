// Multi-producer backpressure metering: a producer that finds its lanes
// full waits with a bounded backoff, and those waits must reach
// EngineReport::router_backpressure_waits / router_stall_seconds, as the
// single-router waits do.  A gated shedder parks every shard until the
// test opens the gate, so the producers are guaranteed to hit full lanes.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "runtime/stream_engine.hpp"

namespace espice {
namespace {

std::atomic<bool> g_gate_open{false};

/// Keeps everything, but blocks its shard until the gate opens.
class GatedShedder final : public Shedder {
 public:
  bool should_drop(const Event&, std::uint32_t, double) override {
    while (!g_gate_open.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    count_decision(false);
    return false;
  }
  void on_command(const DropCommand&) override {}
  const char* name() const override { return "gated"; }
};

TEST(MpBackpressure, ProducerWaitsAreMetered) {
  constexpr std::size_t kProducers = 2;
  constexpr std::size_t kBatch = 256;
  Rng rng(0xbacc);
  std::vector<Event> events(20000);
  for (std::size_t i = 0; i < events.size(); ++i) {
    events[i].type = static_cast<EventTypeId>(rng.uniform_int(6));
    events[i].seq = i;
    events[i].ts = static_cast<double>(i) * 0.01;
    events[i].value = rng.uniform(-1.0, 1.0);
  }

  StreamEngineConfig config;
  config.shards = 2;
  config.producers = kProducers;
  config.ring_capacity = 64;
  config.query.pattern = make_sequence(
      {element("up", TypeSet{}, DirectionFilter::kRising),
       element("down", TypeSet{}, DirectionFilter::kFalling)});
  config.query.window.span_kind = WindowSpan::kCount;
  config.query.window.span_events = 16;
  config.query.window.open_kind = WindowOpen::kCountSlide;
  config.query.window.slide_events = 4;
  config.shedder_factory = [](std::size_t) {
    return std::make_unique<GatedShedder>();
  };

  g_gate_open = false;
  StreamEngine engine(config);
  engine.start();
  const std::span<const Event> all(events);
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t b = p; b * kBatch < events.size(); b += kProducers) {
        const std::size_t off = b * kBatch;
        engine.push_batch_concurrent(
            p, all.subspan(off, std::min(kBatch, events.size() - off)));
      }
      engine.producer_done(p);
    });
  }
  // Lanes hold 64 events and each producer owes 10000: while the gate is
  // shut, both producers must be waiting on full lanes.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  g_gate_open = true;
  for (auto& t : producers) t.join();
  const EngineReport report = engine.finish();

  EXPECT_EQ(report.events, events.size());
  EXPECT_GT(report.router_backpressure_waits, 0u);
  EXPECT_GT(report.router_stall_seconds, 0.0);
  // Producer waits are not attributable to one shard: per-shard router
  // entries stay 0 in multi-producer mode.
  for (const ShardStats& s : report.shards) {
    EXPECT_EQ(s.router_backpressure_waits, 0u);
    EXPECT_EQ(s.router_stall_seconds, 0.0);
  }
}

}  // namespace
}  // namespace espice
