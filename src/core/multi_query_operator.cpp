#include "core/multi_query_operator.hpp"

#include <algorithm>

#include "durability/serial.hpp"

namespace espice {

namespace {

std::vector<EngineQuery> engine_queries(const MultiQueryOperatorConfig& c) {
  std::vector<EngineQuery> queries;
  for (const MultiQuerySpec& spec : c.queries) {
    EngineQuery q;
    q.name = spec.name;
    q.query = ShardQuery{spec.pattern, c.window, spec.selection,
                         spec.consumption, spec.max_matches_per_window};
    queries.push_back(std::move(q));
  }
  return queries;
}

}  // namespace

MultiQueryOperator::MultiQueryOperator(MultiQueryOperatorConfig config,
                                       MatchCallback on_match)
    : config_([&] {
        config.validate();
        return std::move(config);
      }()),
      on_match_(std::move(on_match)),
      queries_(engine_queries(config_)),
      control_(config_, config_.queries.size(), config_.query_weights),
      pipeline_(queries_, control_.make_shedders(), /*event_time=*/nullptr,
                [this](std::size_t q, const WindowView& view,
                       const std::vector<ComplexEvent>& matches) {
                  matches_[q] += matches.size();
                  for (const auto& m : matches) on_match_(q, m);
                  // After the callbacks: the last query's observation may
                  // flip the shared phase.
                  control_.on_window_closed(q, view, matches);
                }),
      matches_(config_.queries.size(), 0) {
  ESPICE_REQUIRE(on_match_ != nullptr, "match callback must be set");
}

void MultiQueryOperator::push(const Event& e) {
  push_block(std::span<const Event>(&e, 1));
}

void MultiQueryOperator::push_block(std::span<const Event> block) {
  bool any_watermark = false;
  for (const Event& e : block) {
    ESPICE_REQUIRE(is_watermark(e) || e.type < config_.num_types,
                   "event type outside the universe");
    if (is_watermark(e)) any_watermark = true;
  }
  if (any_watermark) {
    // Watermark punctuations are control records owned by the engine's
    // event-time stage; a window-level operator ignores them.  Rare (the
    // engine consumes punctuations upstream), so per-event is fine.
    for (const Event& e : block) {
      if (!is_watermark(e)) push(e);
    }
    return;
  }
  std::size_t i = 0;
  while (i < block.size()) {
    std::size_t n = 1;
    if (control_.phase() == Phase::kShedding) {
      pipeline_.process_data_block(block.subspan(i, 1), counters_);
    } else {
      // Nothing is shed before arming: the batched all-keep path, chunked
      // so only a chunk's last event can close a window.  The phase only
      // flips on window closings, so the flip takes effect for the very
      // next event, exactly as in per-event execution.
      n = static_cast<std::size_t>(std::min<std::uint64_t>(
          block.size() - i, pipeline_.close_free_horizon()));
      pipeline_.process_keep_all_block(block.subspan(i, n), counters_);
    }
    control_.end_event();
    // Already delivered through the callback by the observer.
    for (auto& m : pipeline_.query_matches) m.clear();
    i += n;
  }
}

void MultiQueryOperator::finish() {
  pipeline_.close_all(counters_);
  for (auto& m : pipeline_.query_matches) m.clear();
}

MultiQueryStats MultiQueryOperator::stats() const {
  MultiQueryStats s;
  s.events = counters_.events;
  s.memberships = counters_.memberships;
  s.memberships_kept = counters_.memberships_kept;
  s.windows_closed = counters_.windows_closed;
  s.shedding_active = shedding_active();
  s.queries.reserve(queries_.size());
  for (std::size_t q = 0; q < queries_.size(); ++q) {
    MultiQueryStats::PerQuery pq;
    pq.name = queries_[q].name.empty() ? "q" + std::to_string(q)
                                       : queries_[q].name;
    pq.matches = matches_[q];
    const DetPipeline::QueryOutcome o = pipeline_.outcome(q);
    pq.decisions = o.shed_decisions;
    pq.drops = o.shed_drops;
    s.queries.push_back(std::move(pq));
  }
  return s;
}

void MultiQueryOperator::serialize(durability::SnapshotWriter& w) {
  w.u64(queries_.size());
  pipeline_.serialize_core(w);
  control_.serialize(w);
  w.u64(counters_.events);
  w.u64(counters_.memberships);
  w.u64(counters_.memberships_kept);
  w.u64(counters_.windows_closed);
  for (const std::uint64_t m : matches_) w.u64(m);
}

void MultiQueryOperator::restore(durability::SnapshotReader& r) {
  ESPICE_CHECK(r.u64() == queries_.size(), ErrorCode::kCorruptSnapshot,
               "operator snapshot query count disagrees with the config");
  // Pipeline first: the control plane re-binds to the restored models.
  pipeline_.restore_core(r);
  control_.restore(r);
  counters_.events = r.u64();
  counters_.memberships = r.u64();
  counters_.memberships_kept = r.u64();
  counters_.windows_closed = r.u64();
  for (std::uint64_t& m : matches_) m = r.u64();
}

}  // namespace espice
