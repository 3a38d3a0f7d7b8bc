// Checkpoint handshake liveness: re-arming a cut that did not move must
// never strand a shard in its hold loop.
//
// A shard that receives no events between two checkpoints is armed twice
// at the same cut.  A handshake that tells "armed" from "released" by the
// cut value alone cannot see a release the shard slept through: the shard
// wakes into the second arm, takes it for the first one it already served,
// keeps holding and never serves it -- and the router waits forever.  The
// stall hook (runtime/stall_point.hpp) makes that schedule deterministic:
// every shard that serves a cut sleeps at the entry of its hold until the
// router has armed the next checkpoint.  A watchdog turns a hang into a
// failed test (the process exits nonzero) instead of blocking the run.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <span>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "runtime/stall_point.hpp"
#include "runtime/stream_engine.hpp"
#include "support/temp_dir.hpp"

namespace espice {
namespace {

using test_support::TempDir;

constexpr std::size_t kShards = 2;
constexpr auto kWatchdog = std::chrono::seconds(20);

std::atomic<int> g_arms{0};
std::atomic<int> g_holds{0};

/// Stall hook: counts checkpoint arms; a shard entering its hold sleeps
/// until the router has armed a second checkpoint (bounded, so the hook
/// itself can never wedge a run that does not re-arm).
void stall_until_rearmed(const char* point) {
  if (std::strcmp(point, "engine.checkpoint.armed") == 0) {
    g_arms.fetch_add(1);
    return;
  }
  if (std::strcmp(point, "shard.checkpoint.hold") != 0) return;
  g_holds.fetch_add(1);
  const auto deadline = std::chrono::steady_clock::now() + kWatchdog / 4;
  while (g_arms.load() < 2 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

std::vector<Event> make_stream(std::size_t n) {
  Rng rng(0xc4ec);
  std::vector<Event> events;
  events.reserve(n);
  double ts = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    Event e;
    e.type = static_cast<EventTypeId>(rng.uniform_int(6));
    e.seq = i;
    ts += rng.uniform(0.0, 0.05);
    e.ts = ts;
    e.value = rng.uniform(-1.0, 1.0);
    events.push_back(e);
  }
  return events;
}

StreamEngineConfig make_config(const std::string& dir) {
  StreamEngineConfig config;
  config.shards = kShards;
  config.ring_capacity = 256;
  config.query.pattern = make_sequence(
      {element("up", TypeSet{}, DirectionFilter::kRising),
       element("down", TypeSet{}, DirectionFilter::kFalling)});
  config.query.window.span_kind = WindowSpan::kCount;
  config.query.window.span_events = 16;
  config.query.window.open_kind = WindowOpen::kCountSlide;
  config.query.window.slide_events = 4;
  if (!dir.empty()) {
    config.durability = DurabilityConfig{};
    config.durability->dir = dir;
  }
  return config;
}

void expect_same_matches(const EngineReport& golden, const EngineReport& r) {
  ASSERT_EQ(golden.matches.size(), r.matches.size());
  for (std::size_t i = 0; i < golden.matches.size(); ++i) {
    ASSERT_EQ(golden.matches[i].constituents.size(),
              r.matches[i].constituents.size());
    for (std::size_t c = 0; c < golden.matches[i].constituents.size(); ++c) {
      EXPECT_EQ(golden.matches[i].constituents[c].event.seq,
                r.matches[i].constituents[c].event.seq);
    }
  }
  EXPECT_EQ(golden.events, r.events);
}

TEST(CheckpointRearm, UnchangedCutIsServedAgain) {
  const auto events = make_stream(4000);
  const std::span<const Event> all(events);
  const std::size_t half = events.size() / 2;

  StreamEngine plain(make_config(""));
  plain.push_batch(all);
  const EngineReport golden = plain.finish();
  ASSERT_GT(golden.total_matches(), 0u);

  TempDir dir("ckpt-rearm");
  g_arms = 0;
  g_holds = 0;
  set_stall_hook(&stall_until_rearmed);
  auto run = std::async(std::launch::async, [&] {
    StreamEngine engine(make_config(dir.str()));
    engine.push_batch(all.first(half));
    engine.checkpoint();
    engine.checkpoint();  // nothing pushed since: every cut is unchanged
    engine.push_batch(all.subspan(half));
    return engine.finish();
  });
  if (run.wait_for(kWatchdog) != std::future_status::ready) {
    std::fprintf(stderr,
                 "watchdog: checkpoint() did not return after re-arming an "
                 "unchanged cut (a shard is stuck in its hold)\n");
    std::fflush(stderr);
    std::_Exit(1);
  }
  set_stall_hook(nullptr);
  const EngineReport r = run.get();
  EXPECT_EQ(g_arms.load(), 2);
  // Both checkpoints were served by every shard, each through the hold.
  EXPECT_GE(g_holds.load(), static_cast<int>(2 * kShards));
  expect_same_matches(golden, r);

  // The re-served cut is a valid snapshot: recovery from it replays the
  // second half and reproduces the uninterrupted run.
  StreamEngine recovered(make_config(dir.str()));
  const RecoveryReport rep = recovered.recover_and_start();
  EXPECT_EQ(rep.snapshot_offset, half);
  EXPECT_EQ(rep.durable_events, events.size());
  expect_same_matches(golden, recovered.finish());
}

}  // namespace
}  // namespace espice
