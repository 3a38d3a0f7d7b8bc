// AdaptiveControl: eSPICE's control plane (paper Sections 3.3-3.6) for
// every adaptive host -- EspiceOperator, MultiQueryOperator and the
// engine's adaptive shards.  Their data plane is a DetPipeline
// (runtime/shard_pipeline.hpp); this class steers it through exactly two
// hooks:
//
//  * the per-query Shedder slots (make_shedders()): EspiceShedders that
//    keep everything -- counting no decisions -- until the model is armed,
//    then feed the pre-drop (type, position) statistics and the drift
//    detector before scoring each membership block;
//  * the pipeline's closed-window observer (on_window_closed()): sizing,
//    training statistics, match evidence, arming and periodic rebuilds.
//
// Lifecycle, shared by every query (they share the windows):
//  * kSizing: the first windows only measure the average window size N
//    (skipped for count-based windows, where N is the span),
//  * kTraining: statistics accumulate until `training_windows` windows were
//    observed, then each query's ModelBuilder builds its utility model and
//    shedding becomes armed,
//  * kShedding: drop decisions follow the overload detector's commands; the
//    models keep learning from detected matches, refresh periodically and
//    (single query) retrain on drift.
//
// A single-query host passes the detector's command through unchanged.  A
// multi-query host shares ONE detector (the input queue is shared, so the
// surplus to cancel is global) and the ShedCoordinator splits its budget so
// drops land on the globally lowest-utility mass; per-query drift detection
// over shared windows is future work.  Hosts call end_event() after each
// event's pipeline pass and feed the detector signals as they measure them.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "cep/matcher.hpp"
#include "cep/pattern.hpp"
#include "cep/window.hpp"
#include "core/drift_detector.hpp"
#include "core/espice_shedder.hpp"
#include "core/model_builder.hpp"
#include "core/overload_detector.hpp"
#include "core/shed_coordinator.hpp"

namespace espice {

/// The adaptive lifecycle's settings, common to every host's config.
struct AdaptiveConfig {
  WindowSpec window;  ///< shared by every query of the host

  // --- model ---------------------------------------------------------------
  std::size_t num_types = 0;       ///< M: event-type universe size
  std::size_t bin_size = 1;        ///< bs
  std::size_t n_positions = 0;     ///< N; 0 = derive (sizing phase / span)
  std::size_t sizing_windows = 100;   ///< windows used to estimate N
  std::size_t training_windows = 500; ///< windows before the model is built

  // --- control plane ---------------------------------------------------------
  OverloadDetectorConfig detector;  ///< window_size_events is filled in
  bool exact_amount = false;        ///< see EspiceShedder
  /// Fraction of would-be-dropped events kept for relearning (see
  /// EspiceShedder::set_exploration).  Without exploration, a drifted cell
  /// that the stale model sheds can never regain match evidence.
  double exploration = 0.05;
  /// Rebuild every query's model from its accumulated statistics every this
  /// many closed windows while shedding (0 = only on drift triggers, where
  /// the host has them).
  std::size_t rebuild_every_windows = 2000;

  void validate() const {
    ESPICE_REQUIRE(num_types > 0, "num_types must be set");
    ESPICE_REQUIRE(training_windows > 0, "training_windows must be positive");
    window.validate();
  }
};

/// The single-query host's config: EspiceOperator, and every shard of the
/// engine's adaptive mode.
struct EspiceOperatorConfig : AdaptiveConfig {
  // --- query ---------------------------------------------------------------
  Pattern pattern;
  SelectionPolicy selection = SelectionPolicy::kFirst;
  ConsumptionPolicy consumption = ConsumptionPolicy::kConsumed;
  std::size_t max_matches_per_window = 1;

  // --- retraining ------------------------------------------------------------
  bool drift_retraining = true;
  DriftDetectorConfig drift;
  /// Decay applied to the accumulated statistics when drift triggers a
  /// rebuild (old evidence fades, recent evidence dominates).
  double retrain_decay = 0.1;

  void validate() const {
    AdaptiveConfig::validate();
    ESPICE_REQUIRE(retrain_decay > 0.0 && retrain_decay <= 1.0,
                   "retrain_decay must be in (0, 1]");
  }
};

class AdaptiveControl {
 public:
  enum class Phase { kSizing, kTraining, kShedding };

  /// Single-query host: commands pass through; drift retraining per config.
  explicit AdaptiveControl(const EspiceOperatorConfig& config);
  /// Multi-query host: the coordinator splits each command's budget across
  /// `queries` (weights empty = all equal).
  AdaptiveControl(const AdaptiveConfig& config, std::size_t queries,
                  std::vector<double> weights);

  // The shedder slots point back at this object.
  AdaptiveControl(const AdaptiveControl&) = delete;
  AdaptiveControl& operator=(const AdaptiveControl&) = delete;

  /// One shedder slot per query for the data plane to adopt (call once);
  /// this control must outlive their use.
  std::vector<std::unique_ptr<Shedder>> make_shedders();

  /// The closed-window observer: query q's view of a closed window and its
  /// matches.  Phase transitions fire once every query observed the window.
  void on_window_closed(std::size_t q, const WindowView& view,
                        const std::vector<ComplexEvent>& matches);

  /// Ends one event's host step: a drift flagged while scoring the event
  /// retrains now, after its windows closed.
  void end_event() {
    if (drift_pending_) retrain();
  }

  // --- host signals (see OverloadDetector) -----------------------------------
  void observe_cost(double seconds) {
    detector_.observe_processing_cost(seconds);
  }
  void observe_arrival(double ts) { detector_.observe_arrival(ts); }
  /// Current input-queue size, once per detector tick period.
  void on_tick(std::size_t queue_size);

  // --- introspection ---------------------------------------------------------
  Phase phase() const { return phase_; }
  bool shedding_active() const;
  /// Query q's model (nullptr until training completes).
  const UtilityModel* model(std::size_t q) const;
  std::size_t retrains() const { return retrains_; }
  /// Sizing windows while sizing, then the training/shedding window count.
  std::size_t windows_observed() const;
  /// Multi-query: per-query split of the most recent active command's
  /// budget, in expected events per WINDOW; empty before the first one.
  const std::vector<double>& last_split() const { return last_split_; }
  const ShedCoordinator& coordinator() const { return coordinator_; }

  /// Snapshot / restore of the lifecycle state (multi-query hosts; drift
  /// state is not covered).  Restore AFTER the data plane restored the
  /// shedder slots: the coordinator re-binds to their models.
  void serialize(durability::SnapshotWriter& w) const;
  void restore(durability::SnapshotReader& r);

 private:
  class Slot;

  AdaptiveControl(const AdaptiveConfig& config, std::size_t queries);
  /// Pre-drop statistics of one scored membership block of query q.
  void observe_memberships(std::size_t q, const Event& e,
                           const std::uint32_t* positions, std::size_t n);
  void begin_training(std::size_t n_positions);
  void build_and_arm();
  /// Rebuilds every query's model from its statistics.  Only a drift
  /// retrain rebases the drift reference: until then it tracks what the
  /// original training saw.
  void refresh_models(bool rebase_drift);
  void retrain();
  /// The detector sized to the (now known) normalized window size.
  void size_detector();

  AdaptiveConfig config_;
  std::size_t queries_;
  bool split_ = false;
  std::vector<double> weights_;
  std::optional<DriftDetectorConfig> drift_config_;
  double retrain_decay_ = 1.0;

  OverloadDetector detector_;
  ShedCoordinator coordinator_;
  std::vector<std::optional<ModelBuilder>> builders_;
  std::vector<EspiceShedder*> shedders_;  ///< owned by the data plane
  std::optional<DriftDetector> drift_;

  Phase phase_ = Phase::kSizing;
  std::size_t sizing_count_ = 0;
  double sizing_size_sum_ = 0.0;
  double predicted_ws_ = 0.0;
  std::size_t windows_since_rebuild_ = 0;
  std::size_t retrains_ = 0;
  bool drift_pending_ = false;
  std::vector<double> last_split_;
};

}  // namespace espice
