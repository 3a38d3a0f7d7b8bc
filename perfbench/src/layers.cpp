// Single-threaded layer passes: each layer's public functions driven over
// one substream of the workload, with a span around every call (or every
// block of calls), so a layer's cost per event is measured without the
// engine's threads, rings and merge around it.
#include <algorithm>
#include <cstdint>

#include "bench.hpp"
#include "cep/event_time.hpp"
#include "cep/incremental_matcher.hpp"
#include "cep/window.hpp"
#include "core/espice_shedder.hpp"
#include "durability/event_log.hpp"
#include "durability/snapshot.hpp"
#include "harness/experiment.hpp"
#include "runtime/shard_pipeline.hpp"

namespace perfbench {

namespace {

// Each timed pass runs this many times; the median per-event cost is kept.
constexpr int kRepeats = 3;
// Training prefix for workloads whose engine runs no shedder: the shed
// scoring pass still needs a model of this query's windows.
constexpr std::size_t kTrainPrefix = 200'000;

double ns_per(std::uint64_t ns, std::uint64_t n) {
  return n == 0 ? 0.0 : static_cast<double>(ns) / static_cast<double>(n);
}

template <typename Fn>
void for_blocks(std::span<const Event> events, std::size_t batch, Fn fn) {
  for (std::size_t off = 0; off < events.size(); off += batch) {
    fn(events.subspan(off, std::min(batch, events.size() - off)));
  }
}

/// Windows alone: offer every event to every window (all kept) and drain
/// closed windows.  Returns the time spent in the window layer.
std::uint64_t pass_windows(const LayerSpec& spec, TraceBuffer& tb) {
  WindowManager wm(spec.query.window);
  std::uint64_t ns = 0;
  for_blocks(spec.substream, spec.batch, [&](std::span<const Event> block) {
    Span s(&tb, "cep.window_offer", &ns);
    wm.offer_keep_all_block(block);
    wm.drain_closed();
  });
  {
    Span s(&tb, "cep.window_offer", &ns);
    wm.close_all();
    wm.drain_closed();
  }
  return ns;
}

/// Windows + incremental matcher.  Returns the time and fills `out` with the
/// matches in canonical order.
std::uint64_t pass_windows_matcher(const LayerSpec& spec, TraceBuffer& tb,
                                   std::vector<ComplexEvent>& out) {
  WindowManager wm(spec.query.window);
  IncrementalMatcher matcher(spec.query.pattern, spec.query.selection,
                             spec.query.consumption,
                             spec.query.max_matches_per_window);
  MatcherFeed feed(&matcher);
  wm.set_kept_feed(&feed);
  std::vector<ComplexEvent> found;
  std::uint64_t ns = 0;
  auto drain = [&] {
    for (const WindowView& v : wm.drain_closed()) matcher.finalize(v, found);
  };
  for_blocks(spec.substream, spec.batch, [&](std::span<const Event> block) {
    Span s(&tb, "cep.window_match", &ns);
    wm.offer_keep_all_block(block);
    drain();
  });
  {
    Span s(&tb, "cep.window_match", &ns);
    wm.close_all();
    drain();
  }
  std::vector<std::vector<ComplexEvent>> per;
  per.push_back(std::move(found));
  out = StreamEngine::merge_matches(std::move(per));
  return ns;
}

/// Reorder stage over the arrival order; checks the released stream is the
/// substream in seq order with nothing late.
std::uint64_t pass_reorder(const LayerSpec& spec, TraceBuffer& tb,
                           Checks& checks) {
  ReorderBuffer rb(spec.disorder_bound);
  std::vector<Event> released;
  released.reserve(spec.batch + spec.disorder_bound + 1);
  std::size_t next = 0;
  bool in_order = true;
  std::uint64_t late = 0;
  std::uint64_t ns = 0;
  auto verify = [&] {
    for (const Event& e : released) {
      in_order = in_order && next < spec.substream.size() &&
                 e.seq == spec.substream[next].seq;
      ++next;
    }
    released.clear();
  };
  const std::span<const Event> arrival(spec.arrival.empty() ? spec.substream
                                                             : spec.arrival);
  for_blocks(arrival, spec.batch, [&](std::span<const Event> block) {
    {
      Span s(&tb, "cep.reorder_accept", &ns);
      for (const Event& e : block) {
        if (rb.accept(e, released) == ReorderBuffer::Accept::kLate) ++late;
      }
    }
    verify();
  });
  {
    Span s(&tb, "cep.reorder_accept", &ns);
    rb.flush(released);
  }
  verify();
  checks.expect(late == 0 && in_order && next == spec.substream.size(),
                "reorder pass released the substream in seq order");
  return ns;
}

/// Shed scoring alone: the memberships each event gets from the window
/// manager, scored by EspiceShedder::score_block.
struct ShedPass {
  std::uint64_t ns = 0;
  std::uint64_t memberships = 0;
};
ShedPass pass_shed(const LayerSpec& spec,
                   const std::shared_ptr<const UtilityModel>& model,
                   TraceBuffer& tb) {
  EspiceShedder shedder(model);
  shedder.on_command(fixed_drop_command(model->n_positions()));
  const double ws = static_cast<double>(model->n_positions());
  WindowManager wm(spec.query.window);
  std::vector<std::uint32_t> positions;
  std::vector<std::size_t> first;  // per block event: offset into positions
  std::vector<std::uint64_t> bits;
  ShedPass r;
  for_blocks(spec.substream, spec.batch, [&](std::span<const Event> block) {
    positions.clear();
    first.clear();
    for (const Event& e : block) {
      first.push_back(positions.size());
      for (const auto& m : wm.offer(e)) positions.push_back(m.position);
      wm.drain_closed();
    }
    first.push_back(positions.size());
    std::size_t widest = 0;
    for (std::size_t i = 0; i + 1 < first.size(); ++i) {
      widest = std::max(widest, first[i + 1] - first[i]);
    }
    bits.assign(keep_bitmap_words(widest) + 1, 0);
    {
      Span s(&tb, "core.score_block", &r.ns);
      for (std::size_t i = 0; i < block.size(); ++i) {
        const std::size_t n = first[i + 1] - first[i];
        if (n == 0) continue;
        shedder.score_block(block[i], positions.data() + first[i], n, ws,
                            bits.data());
      }
    }
    r.memberships += positions.size();
  });
  return r;
}

/// DetPipeline over the substream; fills `out` with canonical matches.
std::uint64_t pass_pipeline(const LayerSpec& spec, bool shed, TraceBuffer& tb,
                            const char* name,
                            std::vector<ComplexEvent>& out) {
  const EngineQuery q = to_engine_query(spec.query, nullptr, spec.predicted_ws);
  std::vector<std::unique_ptr<Shedder>> shedders;
  shedders.push_back(shed && spec.engine_shedder ? spec.engine_shedder()
                                                 : nullptr);
  DetPipeline pipe(std::span<const EngineQuery>(&q, 1), std::move(shedders),
                   nullptr);
  ShardStats stats;
  std::uint64_t ns = 0;
  for_blocks(spec.substream, spec.batch, [&](std::span<const Event> block) {
    Span s(&tb, name, &ns);
    pipe.process_data_block(block, stats);
  });
  {
    Span s(&tb, name, &ns);
    pipe.close_all(stats);
  }
  std::vector<std::vector<ComplexEvent>> per;
  per.push_back(std::move(pipe.query_matches[0]));
  out = StreamEngine::merge_matches(std::move(per));
  return ns;
}

}  // namespace

void run_layer_passes(const LayerSpec& spec, TraceBuffer& tb, Figures& out,
                      Checks& checks, const std::string& work_dir,
                      bool durability_figures) {
  const std::uint64_t n = spec.substream.size();
  std::vector<double> window_ns, matcher_ns, reorder_ns, shed_ns, pipe_ns,
      noshed_ns;
  std::vector<ComplexEvent> matches;

  // Model for the scoring pass: the workload's own, or one trained on a
  // prefix of the substream (timed as core.train_s).
  std::shared_ptr<const UtilityModel> model = spec.model;
  if (model == nullptr) {
    const std::size_t m = std::min<std::size_t>(kTrainPrefix, n);
    std::uint64_t ns = 0;
    {
      Span s(&tb, "core.train_model", &ns);
      model = train_model(spec.query, spec.num_types,
                          std::span<const Event>(spec.substream).first(m), 4)
                  .model;
    }
    out["core.train_s"] = static_cast<double>(ns) * 1e-9;
  }

  std::uint64_t memberships = 0;
  for (int rep = 0; rep < kRepeats; ++rep) {
    const std::uint64_t w = pass_windows(spec, tb);
    const std::uint64_t wm = pass_windows_matcher(spec, tb, matches);
    checks.expect(same_matches(matches, spec.reference_unshed),
                  "windows + incremental matcher pass equals the unshed "
                  "serial reference");
    window_ns.push_back(ns_per(w, n));
    matcher_ns.push_back(ns_per(wm > w ? wm - w : 0, n));
    reorder_ns.push_back(ns_per(pass_reorder(spec, tb, checks), n));
    const ShedPass sp = pass_shed(spec, model, tb);
    memberships = sp.memberships;
    shed_ns.push_back(ns_per(sp.ns, sp.memberships));
    pipe_ns.push_back(
        ns_per(pass_pipeline(spec, true, tb, "runtime.process_data_block",
                             matches),
               n));
    checks.expect(same_matches(matches, spec.reference),
                  "pipeline pass equals the serial reference");
    noshed_ns.push_back(ns_per(
        pass_pipeline(spec, false, tb, "runtime.process_data_block_noshed",
                      matches),
        n));
    checks.expect(same_matches(matches, spec.reference_unshed),
                  "unshed pipeline pass equals the unshed serial reference");
  }
  checks.expect(memberships > 0, "shed pass scored memberships");
  out["cep.window_ns_per_event"] = median(window_ns);
  out["cep.matcher_ns_per_event"] = median(matcher_ns);
  out["cep.reorder_ns_per_event"] = median(reorder_ns);
  out["core.shed_ns_per_membership"] = median(shed_ns);
  out["runtime.pipeline_ns_per_event"] = median(pipe_ns);
  out["runtime.pipeline_noshed_ns_per_event"] = median(noshed_ns);

  // --- durability: WAL append + read-back ---------------------------------
  const std::string log_dir = work_dir + "/layer-wal";
  const std::string snap_dir = work_dir + "/layer-snapshots";
  remove_dir(log_dir);
  remove_dir(snap_dir);
  std::uint64_t append_ns = 0;
  {
    durability::EventLogConfig lc;
    lc.dir = log_dir;
    durability::EventLogWriter writer(lc);
    for_blocks(spec.substream, spec.batch, [&](std::span<const Event> block) {
      Span s(&tb, "durability.append_batch", &append_ns);
      writer.append_batch(block);
    });
  }
  out["durability.append_ns_per_event"] = ns_per(append_ns, n);
  {
    const durability::EventLogReader reader(log_dir);
    std::vector<Event> back;
    back.reserve(n);
    reader.replay(0, [&](std::span<const Event> evs, std::uint64_t) {
      back.insert(back.end(), evs.begin(), evs.end());
    });
    bool equal = back.size() == n;
    for (std::size_t i = 0; equal && i < n; ++i) {
      equal = same_event(back[i], spec.substream[i]);
    }
    checks.expect(equal, "layer WAL read back holds exactly the appended "
                         "events");
  }

  if (durability_figures) {
    // A pipeline checkpoint at mid-stream through the snapshot store, then
    // recovery from it plus the WAL tail -- the engine's durability path
    // on one pipeline.
    const std::size_t mid = (n / 2 / spec.batch) * spec.batch;
    const std::span<const Event> all(spec.substream);
    const EngineQuery q =
        to_engine_query(spec.query, nullptr, spec.predicted_ws);
    auto make_pipe = [&] {
      std::vector<std::unique_ptr<Shedder>> shedders;
      shedders.push_back(spec.engine_shedder ? spec.engine_shedder() : nullptr);
      return std::make_unique<DetPipeline>(std::span<const EngineQuery>(&q, 1),
                                           std::move(shedders), nullptr);
    };
    auto canonical = [](DetPipeline& p) {
      std::vector<std::vector<ComplexEvent>> per;
      per.push_back(std::move(p.query_matches[0]));
      return StreamEngine::merge_matches(std::move(per));
    };
    ShardStats stats;
    auto original = make_pipe();
    for_blocks(all.first(mid), spec.batch, [&](std::span<const Event> b) {
      original->process_data_block(b, stats);
    });
    std::uint64_t checkpoint_ns = 0;
    {
      Span s(&tb, "durability.checkpoint", &checkpoint_ns);
      durability::SnapshotWriter w;
      original->serialize_core(w);
      durability::SnapshotStore store(snap_dir);
      store.write(mid, w.buffer());
    }
    for_blocks(all.subspan(mid), spec.batch, [&](std::span<const Event> b) {
      original->process_data_block(b, stats);
    });
    original->close_all(stats);
    const auto uninterrupted = canonical(*original);

    std::uint64_t recover_ns = 0;
    std::uint64_t replayed = 0;
    std::unique_ptr<DetPipeline> restored;
    bool snapshot_found = false;
    {
      Span s(&tb, "durability.recover", &recover_ns);
      const durability::SnapshotStore store(snap_dir);
      const auto loaded = store.load_latest();
      restored = make_pipe();
      ShardStats rstats;
      std::uint64_t from = 0;
      if (loaded.has_value()) {
        snapshot_found = true;
        from = loaded->log_offset;
        durability::SnapshotReader r(loaded->payload);
        restored->restore_core(r);
      }
      const durability::EventLogReader reader(log_dir);
      reader.replay(from, [&](std::span<const Event> evs, std::uint64_t) {
        replayed += evs.size();
        restored->process_data_block(evs, rstats);
      });
      restored->close_all(rstats);
    }
    checks.expect(snapshot_found && replayed == n - mid && replayed > 0,
                  "layer recovery used the snapshot and a non-empty tail");
    checks.expect(same_matches(canonical(*restored), uninterrupted) &&
                      same_matches(uninterrupted, spec.reference),
                  "layer recovery equals the uninterrupted pipeline");
    out["durability.checkpoint_s"] = static_cast<double>(checkpoint_ns) * 1e-9;
    out["durability.recover_s"] = static_cast<double>(recover_ns) * 1e-9;
    out["durability.snapshot_mb"] =
        static_cast<double>(dir_bytes(snap_dir)) / (1024.0 * 1024.0);
    out["durability.log_mb"] =
        static_cast<double>(dir_bytes(log_dir)) / (1024.0 * 1024.0);
    out["durability.replay_eps"] =
        recover_ns == 0 ? 0.0
                        : static_cast<double>(replayed) /
                              (static_cast<double>(recover_ns) * 1e-9);
  }
  remove_dir(log_dir);
  remove_dir(snap_dir);
}

}  // namespace perfbench
