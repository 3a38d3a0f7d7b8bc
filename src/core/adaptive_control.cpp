#include "core/adaptive_control.hpp"

#include <algorithm>
#include <cmath>

#include "durability/serial.hpp"

namespace espice {

/// Query q's shedder slot.  Armed, it scores against the control's
/// normalized window size N -- the pipeline's static predicted_ws knows
/// nothing of sizing.
class AdaptiveControl::Slot final : public EspiceShedder {
 public:
  Slot(AdaptiveControl& control, std::size_t query,
       std::shared_ptr<const UtilityModel> placeholder, bool exact_amount)
      : EspiceShedder(std::move(placeholder), exact_amount),
        control_(control),
        query_(query) {}

  void score_block(const Event& e, const std::uint32_t* positions,
                   std::size_t n, double /*predicted_ws*/,
                   std::uint64_t* keep_bits) override {
    if (control_.phase_ != Phase::kShedding) {  // sizing/training keep all
      std::fill_n(keep_bits, keep_bitmap_words(n), ~0ULL);
      return;
    }
    control_.observe_memberships(query_, e, positions, n);
    EspiceShedder::score_block(e, positions, n, control_.predicted_ws_,
                               keep_bits);
  }

 private:
  AdaptiveControl& control_;
  std::size_t query_;
};

AdaptiveControl::AdaptiveControl(const AdaptiveConfig& config,
                                 std::size_t queries)
    : config_(config),
      queries_(queries),
      detector_([&] {
        // The detector's window size is refined once N is known; seed it
        // with something valid.
        auto d = config.detector;
        d.window_size_events = std::max<std::size_t>(d.window_size_events, 1);
        return d;
      }()),
      builders_(queries) {
  config_.validate();
  // N known up front?  Count-based windows and explicit overrides skip the
  // sizing phase.
  std::size_t n = config_.n_positions;
  if (n == 0 && config_.window.span_kind == WindowSpan::kCount) {
    n = config_.window.span_events;
  }
  if (n > 0) begin_training(n);
}

AdaptiveControl::AdaptiveControl(const EspiceOperatorConfig& config)
    : AdaptiveControl(config, 1) {
  config.validate();
  if (config.drift_retraining) drift_config_ = config.drift;
  retrain_decay_ = config.retrain_decay;
}

AdaptiveControl::AdaptiveControl(const AdaptiveConfig& config,
                                 std::size_t queries,
                                 std::vector<double> weights)
    : AdaptiveControl(config, queries) {
  split_ = true;
  weights_ = std::move(weights);
}

std::vector<std::unique_ptr<Shedder>> AdaptiveControl::make_shedders() {
  ESPICE_REQUIRE(shedders_.empty(), "shedder slots were already made");
  // Placeholder model until arming swaps in the trained one.
  const auto placeholder = std::make_shared<const UtilityModel>(
      config_.num_types, 1, 1, std::vector<std::uint8_t>(config_.num_types, 0),
      std::vector<double>(config_.num_types, 0.0));
  std::vector<std::unique_ptr<Shedder>> slots;
  for (std::size_t q = 0; q < queries_; ++q) {
    slots.push_back(
        std::make_unique<Slot>(*this, q, placeholder, config_.exact_amount));
    shedders_.push_back(static_cast<Slot*>(slots.back().get()));
  }
  return slots;
}

void AdaptiveControl::observe_memberships(std::size_t q, const Event& e,
                                          const std::uint32_t* positions,
                                          std::size_t n) {
  // Statistics are fed *pre-drop* so the position shares (and the drift
  // reference) stay unbiased by the shedder's own decisions.
  for (std::size_t i = 0; i < n; ++i) {
    builders_[q]->observe_position(e.type, positions[i], predicted_ws_);
    if (drift_ && drift_->observe(e, positions[i], predicted_ws_)) {
      drift_pending_ = true;  // retrain once this event's windows closed
    }
  }
}

void AdaptiveControl::begin_training(std::size_t n_positions) {
  ModelBuilderConfig mb;
  mb.num_types = config_.num_types;
  mb.n_positions = n_positions;
  mb.bin_size = std::min(config_.bin_size, n_positions);
  for (auto& b : builders_) b.emplace(mb);
  predicted_ws_ = static_cast<double>(n_positions);
  phase_ = Phase::kTraining;
}

void AdaptiveControl::on_window_closed(
    std::size_t q, const WindowView& view,
    const std::vector<ComplexEvent>& matches) {
  if (phase_ == Phase::kSizing) {
    if (q == 0) {
      sizing_size_sum_ += static_cast<double>(view.size());
      ++sizing_count_;
    }
  } else {
    // While shedding, positions were already fed pre-drop by the shedder
    // slot; only the window count and the match evidence are recorded.
    if (phase_ == Phase::kTraining) {
      builders_[q]->observe_window(view);
    } else {
      builders_[q]->count_window();
    }
    for (const auto& m : matches) builders_[q]->observe_match(m, view.size());
  }
  if (q + 1 < queries_) return;

  if (phase_ == Phase::kSizing) {
    if (sizing_count_ >= config_.sizing_windows) {
      begin_training(static_cast<std::size_t>(std::max<long>(
          1, std::lround(sizing_size_sum_ /
                         static_cast<double>(sizing_count_)))));
    }
  } else if (phase_ == Phase::kTraining) {
    if (builders_.front()->windows_observed() >= config_.training_windows) {
      build_and_arm();
    }
  } else if (config_.rebuild_every_windows > 0 &&
             ++windows_since_rebuild_ >= config_.rebuild_every_windows) {
    refresh_models(/*rebase_drift=*/false);
  }
}

void AdaptiveControl::size_detector() {
  auto d = config_.detector;
  d.window_size_events = static_cast<std::size_t>(predicted_ws_);
  detector_ = OverloadDetector(d);
}

void AdaptiveControl::build_and_arm() {
  ESPICE_REQUIRE(shedders_.size() == queries_,
                 "arming before the data plane adopted the shedder slots");
  for (EspiceShedder* s : shedders_) s->set_exploration(config_.exploration);
  refresh_models(/*rebase_drift=*/false);
  size_detector();
  if (drift_config_) drift_.emplace(shedders_.front()->model(), *drift_config_);
  phase_ = Phase::kShedding;
}

void AdaptiveControl::refresh_models(bool rebase_drift) {
  std::vector<std::shared_ptr<const UtilityModel>> models;
  for (std::size_t q = 0; q < queries_; ++q) {
    models.push_back(builders_[q]->build());
    shedders_[q]->set_model(models.back());
  }
  if (split_) {
    coordinator_.set_models(std::move(models));
    if (!weights_.empty()) coordinator_.set_weights(weights_);
  }
  if (rebase_drift && drift_) drift_->rebase(shedders_.front()->model());
  windows_since_rebuild_ = 0;
}

void AdaptiveControl::retrain() {
  ESPICE_ASSERT(phase_ == Phase::kShedding, "retrain before model exists");
  drift_pending_ = false;
  // Old evidence fades so the recent batches the drift detector flagged
  // dominate the rebuilt model.
  builders_.front()->decay(retrain_decay_);
  refresh_models(/*rebase_drift=*/true);
  ++retrains_;
}

void AdaptiveControl::on_tick(std::size_t queue_size) {
  if (phase_ != Phase::kShedding) return;
  const DropCommand cmd = detector_.tick(queue_size);
  if (!split_ || !cmd.active) {
    for (EspiceShedder* s : shedders_) s->on_command(cmd);
    return;
  }
  // One shared budget, split where it loses the least utility.  The
  // detector's x is per window PARTITION while the coordinator reasons
  // over whole-window CDTs, so scale to the per-window total for the split
  // and back to per-partition amounts for the shedder commands.
  const double partitions = static_cast<double>(cmd.partitions);
  last_split_ = coordinator_.apportion(cmd.x * partitions);
  for (std::size_t q = 0; q < queries_; ++q) {
    DropCommand qcmd;
    qcmd.active = last_split_[q] > 0.0;
    qcmd.x = last_split_[q] / partitions;
    qcmd.partitions = cmd.partitions;
    shedders_[q]->on_command(qcmd);
  }
}

bool AdaptiveControl::shedding_active() const {
  return phase_ == Phase::kShedding &&
         std::any_of(shedders_.begin(), shedders_.end(),
                     [](const EspiceShedder* s) { return s->active(); });
}

const UtilityModel* AdaptiveControl::model(std::size_t q) const {
  ESPICE_REQUIRE(q < queries_, "query index out of range");
  return phase_ == Phase::kShedding ? &shedders_[q]->model() : nullptr;
}

std::size_t AdaptiveControl::windows_observed() const {
  return phase_ == Phase::kSizing ? sizing_count_
                                  : builders_.front()->windows_observed();
}

void AdaptiveControl::serialize(durability::SnapshotWriter& w) const {
  ESPICE_REQUIRE(!drift_config_, "drift detector state is not serializable");
  w.u8(static_cast<std::uint8_t>(phase_));
  w.u64(sizing_count_);
  w.f64(sizing_size_sum_);
  w.f64(predicted_ws_);
  w.u64(windows_since_rebuild_);
  w.vec_f64(last_split_);
  if (phase_ != Phase::kSizing) {
    for (const auto& b : builders_) b->serialize(w);
  }
  // Last: restore() re-sizes the detector from predicted_ws_ (mirroring
  // build_and_arm()), so its estimates must follow that state.
  detector_.serialize(w);
}

void AdaptiveControl::restore(durability::SnapshotReader& r) {
  const std::uint8_t phase = r.u8();
  ESPICE_CHECK(phase <= static_cast<std::uint8_t>(Phase::kShedding),
               ErrorCode::kCorruptSnapshot, "unknown operator phase");
  sizing_count_ = static_cast<std::size_t>(r.u64());
  sizing_size_sum_ = r.f64();
  predicted_ws_ = r.f64();
  windows_since_rebuild_ = static_cast<std::size_t>(r.u64());
  last_split_ = r.vec_f64();
  if (phase != static_cast<std::uint8_t>(Phase::kSizing)) {
    // Mirror begin_training(): builders sized by the restored N.
    begin_training(static_cast<std::size_t>(predicted_ws_));
    for (auto& b : builders_) b->restore(r);
  }
  phase_ = static_cast<Phase>(phase);
  if (phase_ == Phase::kShedding) {
    // Mirror build_and_arm(): the sized detector (estimates restored
    // below) and the coordinator bound to the restored per-query models.
    size_detector();
    if (split_) {
      std::vector<std::shared_ptr<const UtilityModel>> models;
      for (const EspiceShedder* s : shedders_) models.push_back(s->model_ptr());
      coordinator_.set_models(std::move(models));
      if (!weights_.empty()) coordinator_.set_weights(weights_);
    }
  }
  detector_.restore(r);
}

}  // namespace espice
