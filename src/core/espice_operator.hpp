// EspiceOperator: the embeddable, online facade over the whole framework.
//
// run_experiment() (harness) is built for offline evaluation -- separate
// training and measurement passes over a stored stream.  A production host
// embeds eSPICE differently: one object consumes the live stream, trains
// itself, starts shedding when the host's input queue grows, and retrains
// when the stream drifts.  This class is that object for one query: a
// DetPipeline (runtime/shard_pipeline.hpp) is its data plane -- window
// routing, shedding, incremental matching -- and an AdaptiveControl
// (core/adaptive_control.hpp) its control plane -- model building, overload
// detection, drift retraining and the sizing -> training -> shedding
// lifecycle:
//
//   EspiceOperator op(config, [](const ComplexEvent& ce) { ... });
//   loop:
//     op.push(event);                  // per dequeued event
//     op.observe_cost(seconds);        // measured processing cost (optional)
//     every tick: op.on_tick(queue_size);
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/adaptive_control.hpp"
#include "runtime/shard_pipeline.hpp"

namespace espice {

/// Final stat snapshot of one operator.
struct OperatorStats {
  AdaptiveControl::Phase phase = AdaptiveControl::Phase::kSizing;
  std::uint64_t events = 0;
  std::uint64_t memberships = 0;       ///< (event, window) pairs offered
  std::uint64_t memberships_kept = 0;  ///< pairs kept after shedding
  std::uint64_t windows_closed = 0;
  std::uint64_t matches = 0;
  std::uint64_t decisions = 0;  ///< shedder decisions (0 until armed)
  std::uint64_t drops = 0;
  std::size_t retrains = 0;
  std::size_t windows_observed = 0;
  bool shedding_active = false;
};

class EspiceOperator {
 public:
  using Phase = AdaptiveControl::Phase;

  using MatchCallback = std::function<void(const ComplexEvent&)>;

  EspiceOperator(EspiceOperatorConfig config, MatchCallback on_match);

  // The pipeline's shedder slot and observer point at this object's
  // control plane; moving the operator would dangle them.
  EspiceOperator(const EspiceOperator&) = delete;
  EspiceOperator& operator=(const EspiceOperator&) = delete;

  /// Consumes the next event of the stream (in order).  Window routing,
  /// shedding and matching happen inside; detected complex events are
  /// delivered through the callback.
  void push(const Event& e);

  /// Flushes all open windows (end of stream).
  void finish();

  /// Host signal: measured processing cost of one event (seconds).  Feeds
  /// the overload detector's l(p) estimate.
  void observe_cost(double seconds) { control_.observe_cost(seconds); }

  /// Host signal: current input-queue size; call periodically (every
  /// detector tick period).  `now` is the host's clock (seconds); the rate
  /// estimate comes from observe_arrival().
  void on_tick(double /*now*/, std::size_t queue_size) {
    control_.on_tick(queue_size);
  }

  /// Host signal: one event arrived at `ts` (for the rate estimate).
  void observe_arrival(double ts) { control_.observe_arrival(ts); }

  // --- introspection ---------------------------------------------------------
  Phase phase() const { return control_.phase(); }
  bool shedding_active() const { return control_.shedding_active(); }
  /// nullptr until training completes.
  const UtilityModel* model() const { return control_.model(0); }
  std::uint64_t drops() const { return pipeline_.outcome(0).shed_drops; }
  std::uint64_t decisions() const {
    return pipeline_.outcome(0).shed_decisions;
  }
  std::size_t retrains() const { return control_.retrains(); }
  std::size_t windows_observed() const { return control_.windows_observed(); }
  /// One-call snapshot of every lifetime counter; what an embedding host
  /// reports per operator.
  OperatorStats stats() const;

 private:
  EspiceOperatorConfig config_;
  MatchCallback on_match_;
  std::vector<EngineQuery> query_;  ///< the pipeline's one query
  AdaptiveControl control_;
  DetPipeline pipeline_;
  ShardStats counters_;  ///< events / memberships / windows, from the pipeline
  std::uint64_t matches_ = 0;
};

}  // namespace espice
