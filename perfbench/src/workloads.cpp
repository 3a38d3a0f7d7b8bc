// The benchmark's four workloads.  Each generates its input from the seed
// with the repository's own generators, computes the reference outputs with
// the serial per-substream golden (legacy Matcher, no engine), and then runs
// closed-loop engine rounds: events are pushed as fast as backpressure
// allows and every round's output is checked against the references.
#include <algorithm>
#include <exception>
#include <thread>

#include "bench.hpp"
#include "cep/event_time.hpp"
#include "common/rng.hpp"
#include "core/espice_shedder.hpp"
#include "datasets/rtls.hpp"
#include "datasets/stock.hpp"
#include "durability/event_log.hpp"
#include "harness/experiment.hpp"
#include "sim/sharded_sim.hpp"
#include "sim/zipf.hpp"

namespace perfbench {

DropCommand fixed_drop_command(std::size_t n_positions) {
  DropCommand cmd;
  cmd.active = true;
  cmd.x = 0.4 * static_cast<double>(n_positions);
  cmd.partitions = 1;
  return cmd;
}

namespace {

constexpr std::size_t kShards = 2;
constexpr std::size_t kBatch = 4096;
constexpr std::size_t kRingCapacity = 16384;
// RSS is sampled every this many pushed batches.
constexpr std::size_t kRssEvery = 16;

ShardQuery to_shard_query(const QueryDef& q) {
  return to_engine_query(q).query;
}

constexpr double kMiB = 1024.0 * 1024.0;

double share(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

std::uint64_t aux_key(const Event& e) {
  return static_cast<std::uint64_t>(e.aux);
}

/// The matches of `all` whose constituents live in substream `s`.
std::vector<ComplexEvent> filter_substream(const std::vector<ComplexEvent>& all,
                                           const SubstreamIndex& index,
                                           std::size_t s) {
  std::vector<ComplexEvent> out;
  for (const ComplexEvent& m : all) {
    if (!m.constituents.empty() &&
        index.substream[m.constituents[0].event.seq] == s) {
      out.push_back(m);
    }
  }
  return out;
}

std::vector<Event> events_of_substream(std::span<const Event> events,
                                       const SubstreamIndex& index,
                                       std::size_t s) {
  std::vector<Event> out;
  for (const Event& e : events) {
    if (index.substream[e.seq] == s) out.push_back(e);
  }
  return out;
}

/// Engine-level per-layer figures every round reports from its report.
void report_figures(const EngineReport& report, Figures& out) {
  double busy_sum = 0.0;
  double busy_max = 0.0;
  double depth_sum = 0.0;
  for (const ShardStats& s : report.shards) {
    busy_sum += s.busy_seconds;
    busy_max = std::max(busy_max, s.busy_seconds);
    depth_sum += s.mean_queue_depth();
  }
  const double k =
      static_cast<double>(std::max<std::size_t>(1, report.shards.size()));
  out["runtime.shard_busy_s"] = busy_sum;
  out["runtime.shard_busy_max_over_mean"] =
      busy_sum > 0.0 ? busy_max / (busy_sum / k) : 0.0;
  out["runtime.queue_depth_mean"] = depth_sum / k;
  out["runtime.router_stall_s"] = report.router_stall_seconds;
  out["runtime.rebalance_moves"] = static_cast<double>(report.rebalance_moves);
  const QueryReport& q = report.queries.at(0);
  out["core.kept_fraction"] = share(q.memberships_kept, q.memberships);
}

/// Output checks shared by every workload: equality with the serial
/// reference and the query-definition properties.
void check_output(const EngineReport& report,
                  const std::vector<ComplexEvent>& reference,
                  const QueryDef& query, const SubstreamIndex& index,
                  Checks& checks) {
  checks.expect(!reference.empty(), "reference holds complex events");
  checks.expect(same_matches(report.matches, reference),
                "engine output equals the serial per-substream reference (" +
                    std::to_string(report.matches.size()) + " vs " +
                    std::to_string(reference.size()) + " matches)");
  const std::uint64_t bad =
      property_violations(report.matches, query.pattern, query.window, index);
  checks.expect(bad == 0, std::to_string(bad) +
                              " complex events break the query's properties");
}

/// One single-router round: construct + start, push_batch the whole input,
/// finish.  Fills the timings and the report-derived figures.
Round single_router_round(const StreamEngineConfig& config,
                          std::span<const Event> events, TraceBuffer* tb,
                          EngineReport& report) {
  RssProbe rss;
  Round r;
  rss.reset();
  const std::uint64_t t0 = now_ns();
  std::unique_ptr<StreamEngine> engine;
  {
    Span s(tb, "runtime.construct_start");
    engine = std::make_unique<StreamEngine>(config);
    engine->start();
  }
  const std::uint64_t t1 = now_ns();
  std::uint64_t route_ns = 0;
  std::size_t batches = 0;
  for (std::size_t off = 0; off < events.size(); off += kBatch) {
    {
      Span s(tb, "runtime.push_batch", &route_ns);
      engine->push_batch(
          events.subspan(off, std::min(kBatch, events.size() - off)));
    }
    if (++batches % kRssEvery == 0) rss.sample();
  }
  std::uint64_t finish_ns = 0;
  {
    Span s(tb, "runtime.finish", &finish_ns);
    report = engine->finish();
  }
  const std::uint64_t t2 = now_ns();
  rss.sample();
  engine.reset();
  r.setup_s = static_cast<double>(t1 - t0) * 1e-9;
  r.run_s = static_cast<double>(t2 - t1) * 1e-9;
  r.events = events.size();
  r.peak_rss_mb = rss.peak_growth_mb();
  report_figures(report, r.layers);
  r.layers["runtime.route_ns_per_event"] =
      static_cast<double>(route_ns) / static_cast<double>(events.size());
  r.layers["runtime.finish_s"] = static_cast<double>(finish_ns) * 1e-9;
  return r;
}

// ---------------------------------------------------------------------------
// q4_shed: the paper's Q4 over two interleaved stock feeds with a trained,
// armed eSPICE shedder.

class Q4Shed final : public Workload {
 public:
  void prepare(std::uint64_t seed, const std::string&,
               Checks& checks) override {
    StockConfig sc;
    sc.seed = seed;
    gen_ = std::make_unique<StockGenerator>(sc, registry_);
    query_ = make_q4(*gen_, kWindow, kSlide);
    // One market, three consecutive stretches: the training prefix, then
    // two feeds replayed side by side (the second rebased to the first's
    // clock).  Both feeds share the symbol structure the model learns.
    train_events_ = gen_->generate(kTrainEvents);
    std::vector<Event> feeds[2] = {gen_->generate(kFeedEvents),
                                   gen_->generate(kFeedEvents)};
    std::uint64_t keys[2];
    keys[0] = key_for_shard(0, 0, kShards);
    keys[1] = key_for_shard(keys[0] + 1, 1, kShards);
    const double shift = feeds[0].front().ts - feeds[1].front().ts;
    for (Event& e : feeds[1]) e.ts += shift;
    events_.reserve(2 * kFeedEvents);
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < feeds[0].size() || j < feeds[1].size()) {
      const bool take0 =
          j == feeds[1].size() ||
          (i < feeds[0].size() && feeds[0][i].ts <= feeds[1][j].ts);
      Event e = take0 ? feeds[0][i++] : feeds[1][j++];
      e.aux = static_cast<double>(keys[take0 ? 0 : 1]);
      e.seq = events_.size();
      events_.push_back(e);
    }

    const TrainedModel trained =
        train_model(query_, registry_.size(), train_events_, kBinSize);
    model_ = trained.model;
    trained_matches_ = trained.matches;
    checks.expect(trained.matches > 0, "training prefix holds Q4 matches");

    StreamEngineConfig golden = config(false);
    golden_unshed_ = partitioned_serial_golden(golden, events_);
    golden_shed_ = partitioned_serial_golden(config(true), events_);
    index_ = index_substreams(events_, [](const Event& e) {
      return StreamEngine::shard_index(aux_key(e), kShards);
    });

    spec_.substream = events_of_substream(events_, index_, 0);
    spec_.query = query_;
    spec_.num_types = registry_.size();
    auto model = model_;
    spec_.engine_shedder = [model]() -> std::unique_ptr<Shedder> {
      auto s = std::make_unique<EspiceShedder>(model);
      s->on_command(fixed_drop_command(model->n_positions()));
      return s;
    };
    spec_.predicted_ws = static_cast<double>(kWindow);
    spec_.model = model_;
    spec_.reference = filter_substream(golden_shed_, index_, 0);
    spec_.reference_unshed = filter_substream(golden_unshed_, index_, 0);
    spec_.batch = kBatch;
  }

  double train(TraceBuffer* tb, Checks& checks) override {
    const std::uint64_t t0 = now_ns();
    std::size_t matches = 0;
    {
      Span s(tb, "core.train_model");
      matches = train_model(query_, registry_.size(), train_events_, kBinSize)
                    .matches;
    }
    const std::uint64_t t1 = now_ns();
    checks.expect(matches == trained_matches_,
                  "retraining sees the same training matches");
    return static_cast<double>(t1 - t0) * 1e-9;
  }

  Round round(Tracer*, TraceBuffer* tb, Checks& checks) override {
    EngineReport report;
    Round r = single_router_round(config(true), events_, tb, report);
    check_output(report, golden_shed_, query_, index_, checks);
    const QueryReport& q = report.queries.at(0);
    checks.expect(q.memberships_kept < q.memberships && q.memberships_kept > 0,
                  "the armed shedder dropped part of the memberships");
    const std::uint64_t common = count_common(report.matches, golden_unshed_);
    checks.expect(common > 0, "shed run detects true matches");
    r.true_match_share = share(common, golden_unshed_.size());
    return r;
  }

  const LayerSpec& layer_spec() const override { return spec_; }

 private:
  static constexpr std::size_t kFeedEvents = 1'000'000;
  static constexpr std::size_t kTrainEvents = 470'000;  // paper's prefix
  static constexpr std::size_t kWindow = 2000;
  static constexpr std::size_t kSlide = 100;
  static constexpr std::size_t kBinSize = 4;

  StreamEngineConfig config(bool shed) const {
    StreamEngineConfig c;
    c.shards = kShards;
    c.ring_capacity = kRingCapacity;
    c.key_of = aux_key;
    c.query = to_shard_query(query_);
    if (shed) {
      auto model = model_;
      c.shedder_factory = [model](std::size_t) -> std::unique_ptr<Shedder> {
        auto s = std::make_unique<EspiceShedder>(model);
        s->on_command(fixed_drop_command(model->n_positions()));
        return s;
      };
    }
    return c;
  }

  TypeRegistry registry_;
  std::unique_ptr<StockGenerator> gen_;
  QueryDef query_;
  std::vector<Event> train_events_;
  std::vector<Event> events_;
  std::shared_ptr<const UtilityModel> model_;
  std::size_t trained_matches_ = 0;
  std::vector<ComplexEvent> golden_shed_;
  std::vector<ComplexEvent> golden_unshed_;
  SubstreamIndex index_;
  LayerSpec spec_;
};

// ---------------------------------------------------------------------------
// Shared by mp_wal and zipf_rebalance: a cheap two-element count-window
// query (a rise followed by a fall of any symbol), so routing, lanes and
// placement do most of the work.

QueryDef cheap_query() {
  QueryDef q;
  q.name = "rise-fall";
  q.pattern = make_sequence({element("up", TypeSet{}, DirectionFilter::kRising),
                             element("down", TypeSet{},
                                     DirectionFilter::kFalling)});
  q.window.span_kind = WindowSpan::kCount;
  q.window.span_events = 512;
  q.window.open_kind = WindowOpen::kCountSlide;
  q.window.slide_events = 64;
  q.window.validate();
  return q;
}

void fill_unshed_spec(LayerSpec& spec, const QueryDef& query,
                      std::size_t num_types, std::vector<Event> substream,
                      std::vector<ComplexEvent> reference) {
  spec.substream = std::move(substream);
  spec.query = query;
  spec.num_types = num_types;
  spec.reference_unshed = reference;
  spec.reference = std::move(reference);
  spec.batch = kBatch;
}

// ---------------------------------------------------------------------------
// mp_wal: two producer threads, write-ahead log on, uniform keys.

class MpWal final : public Workload {
 public:
  void prepare(std::uint64_t seed, const std::string& work_dir,
               Checks&) override {
    dir_ = work_dir + "/mp-wal";
    query_ = cheap_query();
    events_ = make_zipf_stream(kEvents, kKeys, 0.0, seed);
    StreamEngineConfig golden;
    golden.shards = kShards;
    golden.query = to_shard_query(query_);
    golden_ = partitioned_serial_golden(golden, events_);
    index_ = index_substreams(events_, [](const Event& e) {
      return StreamEngine::shard_index(e.type, kShards);
    });
    fill_unshed_spec(spec_, query_, kKeys,
                     events_of_substream(events_, index_, 0),
                     filter_substream(golden_, index_, 0));
  }

  Round round(Tracer* tracer, TraceBuffer* tb, Checks& checks) override {
    remove_dir(dir_);
    StreamEngineConfig c;
    c.shards = kShards;
    c.producers = kProducers;
    c.ring_capacity = kRingCapacity;
    c.query = to_shard_query(query_);
    c.durability.emplace();
    c.durability->dir = dir_;
    c.durability->fsync = durability::FsyncPolicy::kNone;

    RssProbe rss;
    Round r;
    rss.reset();
    const std::uint64_t t0 = now_ns();
    std::unique_ptr<StreamEngine> engine;
    {
      Span s(tb, "runtime.construct_start");
      engine = std::make_unique<StreamEngine>(c);
      engine->start();
    }
    TraceBuffer* tb1 =
        tb != nullptr ? &tracer->new_buffer(tb->current()) : nullptr;
    const std::uint64_t t1 = now_ns();
    // Producer p pushes chunks p, p + P, p + 2P, ...: each producer's seqs
    // rise, and the two interleave on every shard.
    const std::span<const Event> all(events_);
    std::uint64_t route_ns[kProducers] = {0, 0};
    // A producer closes its lanes however it leaves, so the shards' merge
    // (and the other producer, blocked on full lanes) can always finish.
    auto produce = [&](std::size_t p, TraceBuffer* buf, bool sample) {
      try {
        std::size_t chunks = 0;
        for (std::size_t c = p; c * kBatch < all.size(); c += kProducers) {
          const std::size_t off = c * kBatch;
          {
            Span s(buf, "runtime.push_batch_concurrent", &route_ns[p]);
            engine->push_batch_concurrent(
                p, all.subspan(off, std::min(kBatch, all.size() - off)));
          }
          if (sample && ++chunks % kRssEvery == 0) rss.sample();
        }
      } catch (...) {
        engine->producer_done(p);
        throw;
      }
      engine->producer_done(p);
    };
    std::exception_ptr failure;
    std::thread second([&] {
      try {
        produce(1, tb1, false);
      } catch (...) {
        failure = std::current_exception();
      }
    });
    try {
      produce(0, tb, true);
    } catch (...) {
      second.join();
      throw;
    }
    second.join();
    if (failure != nullptr) std::rethrow_exception(failure);
    EngineReport report;
    std::uint64_t finish_ns = 0;
    {
      Span s(tb, "runtime.finish", &finish_ns);
      report = engine->finish();
    }
    const std::uint64_t t2 = now_ns();
    rss.sample();
    engine.reset();
    r.setup_s = static_cast<double>(t1 - t0) * 1e-9;
    r.run_s = static_cast<double>(t2 - t1) * 1e-9;
    r.events = events_.size();
    r.peak_rss_mb = rss.peak_growth_mb();
    report_figures(report, r.layers);
    r.layers["runtime.route_ns_per_event"] =
        static_cast<double>(route_ns[0] + route_ns[1]) /
        static_cast<double>(events_.size());
    r.layers["runtime.finish_s"] = static_cast<double>(finish_ns) * 1e-9;

    check_output(report, golden_, query_, index_, checks);
    r.true_match_share = share(count_common(report.matches, golden_),
                               golden_.size());
    // The WAL, read back, holds exactly the pushed events (in sequencer
    // order, which interleaves the producers).
    std::vector<char> seen(events_.size(), 0);
    std::uint64_t logged = 0;
    bool equal = true;
    durability::EventLogReader(dir_ + "/log")
        .replay(0, [&](std::span<const Event> evs, std::uint64_t) {
          for (const Event& a : evs) {
            ++logged;
            if (a.seq >= events_.size() || seen[a.seq] != 0) {
              equal = false;
              continue;
            }
            seen[a.seq] = 1;
            equal = equal && same_event(a, events_[a.seq]);
          }
        });
    checks.expect(equal && logged == events_.size(),
                  "WAL read back holds exactly the pushed events");
    remove_dir(dir_);
    return r;
  }

  const LayerSpec& layer_spec() const override { return spec_; }

 private:
  static constexpr std::size_t kEvents = 4'000'000;
  static constexpr std::size_t kKeys = 1024;
  static constexpr std::size_t kProducers = 2;

  std::string dir_;
  QueryDef query_;
  std::vector<Event> events_;
  std::vector<ComplexEvent> golden_;
  SubstreamIndex index_;
  LayerSpec spec_;
};

// ---------------------------------------------------------------------------
// zipf_rebalance: Zipf-1.2 keys over 16 logical partitions on 2 shards.

class ZipfRebalance final : public Workload {
 public:
  void prepare(std::uint64_t seed, const std::string&, Checks&) override {
    query_ = cheap_query();
    events_ = make_zipf_stream(kEvents, kKeys, 1.2, seed);
    // The reference is per partition: one serial run per logical partition.
    StreamEngineConfig golden;
    golden.shards = kPartitions;
    golden.query = to_shard_query(query_);
    golden_ = partitioned_serial_golden(golden, events_);
    index_ = index_substreams(events_, [](const Event& e) {
      return StreamEngine::shard_index(e.type, kPartitions);
    });
    // Layer passes run on the hottest partition.
    std::vector<std::size_t> sizes(kPartitions, 0);
    for (const Event& e : events_) ++sizes[index_.substream[e.seq]];
    const std::size_t hot = static_cast<std::size_t>(
        std::max_element(sizes.begin(), sizes.end()) - sizes.begin());
    fill_unshed_spec(spec_, query_, kKeys,
                     events_of_substream(events_, index_, hot),
                     filter_substream(golden_, index_, hot));
  }

  Round round(Tracer*, TraceBuffer* tb, Checks& checks) override {
    StreamEngineConfig c;
    c.shards = kShards;
    c.ring_capacity = kRingCapacity;
    c.query = to_shard_query(query_);
    c.rebalance.emplace();
    c.rebalance->partitions = kPartitions;
    c.rebalance->interval_events = 4096;
    EngineReport report;
    Round r = single_router_round(c, events_, tb, report);
    check_output(report, golden_, query_, index_, checks);
    checks.expect(report.rebalance_moves > 0,
                  "the rebalancer moved partitions");
    r.true_match_share = share(count_common(report.matches, golden_),
                               golden_.size());
    return r;
  }

  const LayerSpec& layer_spec() const override { return spec_; }

 private:
  static constexpr std::size_t kEvents = 3'000'000;
  static constexpr std::size_t kKeys = 64;
  static constexpr std::size_t kPartitions = 16;

  QueryDef query_;
  std::vector<Event> events_;
  std::vector<ComplexEvent> golden_;
  SubstreamIndex index_;
  LayerSpec spec_;
};

// ---------------------------------------------------------------------------
// q1_recover: the paper's Q1 over four interleaved RTLS games, disordered
// within a bound, with event time, WAL and checkpoints; the first engine is
// abandoned and a second one recovers and finishes.

class Q1Recover final : public Workload {
 public:
  void prepare(std::uint64_t seed, const std::string& work_dir,
               Checks& checks) override {
    dir_ = work_dir + "/q1-durable";
    std::vector<Event> merged;
    std::uint64_t key = 0;
    for (std::size_t g = 0; g < kGames; ++g) {
      RtlsConfig rc;
      rc.seed = seed * 131 + g + 1;
      TypeRegistry registry;
      RtlsGenerator gen(rc, registry);
      if (g == 0) {
        query_ = make_q1(gen, kPatternSize, kWindowSeconds);
        num_types_ = registry.size();
      }
      key = key_for_shard(g == 0 ? 0 : key + 1, g % kShards, kShards);
      for (Event e : gen.generate(kEventsPerGame)) {
        e.aux = static_cast<double>(key);
        merged.push_back(e);
      }
    }
    // All games share one clock: interleave by timestamp.
    std::stable_sort(
        merged.begin(), merged.end(),
        [](const Event& a, const Event& b) { return a.ts < b.ts; });
    for (std::size_t i = 0; i < merged.size(); ++i) merged[i].seq = i;
    in_order_ = std::move(merged);

    // Bounded disorder: every event moves back by less than kDisorder.
    Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
    std::vector<std::pair<double, std::size_t>> order;
    order.reserve(in_order_.size());
    for (std::size_t i = 0; i < in_order_.size(); ++i) {
      order.emplace_back(static_cast<double>(i) +
                             rng.uniform(0.0, static_cast<double>(kDisorder)),
                         i);
    }
    std::sort(order.begin(), order.end());
    arrival_.reserve(in_order_.size());
    for (const auto& [k, i] : order) arrival_.push_back(in_order_[i]);
    checks.expect(measure_disorder(arrival_) <= kDisorder,
                  "arrival disorder stays within the bound");

    StreamEngineConfig golden;
    golden.shards = kShards;
    golden.key_of = aux_key;
    golden.query = to_shard_query(query_);
    golden_ = partitioned_serial_golden(golden, in_order_);
    index_ = index_substreams(in_order_, [](const Event& e) {
      return StreamEngine::shard_index(aux_key(e), kShards);
    });
    fill_unshed_spec(spec_, query_, num_types_,
                     events_of_substream(in_order_, index_, 0),
                     filter_substream(golden_, index_, 0));
    spec_.arrival = events_of_substream(arrival_, index_, 0);
    spec_.disorder_bound = kDisorder;
  }

  Round round(Tracer*, TraceBuffer* tb, Checks& checks) override {
    remove_dir(dir_);
    StreamEngineConfig c;
    c.shards = kShards;
    c.ring_capacity = kRingCapacity;
    c.key_of = aux_key;
    c.query = to_shard_query(query_);
    c.event_time.emplace();
    c.event_time->disorder_bound = kDisorder;
    c.event_time->heartbeat_events = 1024;
    c.event_time->late_policy = LatePolicy::kDrop;
    c.durability.emplace();
    c.durability->dir = dir_;
    c.durability->fsync = durability::FsyncPolicy::kNone;

    const std::size_t n = arrival_.size();
    auto cut = [n](double share) {
      return static_cast<std::size_t>(share * static_cast<double>(n)) / kBatch *
             kBatch;
    };
    const std::size_t checkpoints[] = {cut(0.30), cut(0.55)};
    const std::size_t abandon_at = cut(0.90);
    const std::span<const Event> all(arrival_);

    RssProbe rss;
    Round r;
    rss.reset();
    const std::uint64_t t0 = now_ns();
    std::unique_ptr<StreamEngine> engine;
    {
      Span s(tb, "runtime.construct_start");
      engine = std::make_unique<StreamEngine>(c);
      engine->start();
    }
    const std::uint64_t t1 = now_ns();
    std::uint64_t route_ns = 0;
    std::uint64_t checkpoint_ns = 0;
    std::size_t batches = 0;
    auto push_range = [&](StreamEngine& e, std::size_t from, std::size_t to) {
      for (std::size_t off = from; off < to; off += kBatch) {
        {
          Span s(tb, "runtime.push_batch", &route_ns);
          e.push_batch(all.subspan(off, std::min(kBatch, to - off)));
        }
        if (++batches % kRssEvery == 0) rss.sample();
      }
    };
    std::size_t pos = 0;
    for (const std::size_t at : checkpoints) {
      push_range(*engine, pos, at);
      pos = at;
      {
        Span s(tb, "durability.checkpoint", &checkpoint_ns);
        engine->checkpoint();
      }
      rss.sample();
    }
    push_range(*engine, pos, abandon_at);
    {
      // Crash stand-in: the engine is dropped without finish().
      Span s(tb, "runtime.abandon");
      engine.reset();
    }
    double log_mb = 0.0;
    double snapshot_mb = 0.0;
    if (tb != nullptr) {
      log_mb = static_cast<double>(dir_bytes(dir_ + "/log")) / kMiB;
      snapshot_mb = static_cast<double>(dir_bytes(dir_ + "/snapshots")) / kMiB;
    }
    engine = std::make_unique<StreamEngine>(c);
    RecoveryReport rep;
    std::uint64_t recover_ns = 0;
    {
      Span s(tb, "durability.recover_and_start", &recover_ns);
      rep = engine->recover_and_start();
    }
    rss.sample();
    const std::size_t resume = static_cast<std::size_t>(engine->data_pushed());
    push_range(*engine, resume, n);
    EngineReport report;
    std::uint64_t finish_ns = 0;
    {
      Span s(tb, "runtime.finish", &finish_ns);
      report = engine->finish();
    }
    const std::uint64_t t2 = now_ns();
    rss.sample();
    engine.reset();

    r.setup_s = static_cast<double>(t1 - t0) * 1e-9;
    r.run_s = static_cast<double>(t2 - t1) * 1e-9;
    r.events = n;
    r.peak_rss_mb = rss.peak_growth_mb();
    report_figures(report, r.layers);
    r.layers["runtime.route_ns_per_event"] =
        static_cast<double>(route_ns) / static_cast<double>(n);
    r.layers["runtime.finish_s"] = static_cast<double>(finish_ns) * 1e-9;
    r.layers["durability.checkpoint_s"] =
        static_cast<double>(checkpoint_ns) * 1e-9 /
        static_cast<double>(std::size(checkpoints));
    const double recover_s = static_cast<double>(recover_ns) * 1e-9;
    r.layers["durability.recover_s"] = recover_s;
    r.layers["durability.replay_eps"] =
        recover_s > 0.0 ? static_cast<double>(rep.replayed_events) / recover_s
                        : 0.0;
    r.layers["durability.log_mb"] = log_mb;
    r.layers["durability.snapshot_mb"] = snapshot_mb;

    check_output(report, golden_, query_, index_, checks);
    r.true_match_share = share(count_common(report.matches, golden_),
                               golden_.size());
    checks.expect(report.late_events == 0, "no event arrived late");
    checks.expect(rep.snapshot_offset > 0 && rep.replayed_events > 0 &&
                      rep.damage.empty(),
                  "recovery used a snapshot and a non-empty log tail");
    checks.expect(resume == abandon_at,
                  "every event pushed before the crash was durable");
    // What is left of the WAL after pruning holds exactly the pushed data
    // events of its range, in arrival order.
    std::vector<Event> data;
    durability::EventLogReader(dir_ + "/log")
        .replay(0, [&](std::span<const Event> evs, std::uint64_t) {
          for (const Event& e : evs) {
            if (!is_watermark(e)) data.push_back(e);
          }
        });
    bool equal = !data.empty() && data.size() <= n &&
                 data.size() >= n - checkpoints[1];
    const std::size_t base = equal ? n - data.size() : 0;
    for (std::size_t i = 0; equal && i < data.size(); ++i) {
      equal = same_event(data[i], arrival_[base + i]);
    }
    checks.expect(equal, "WAL read back holds exactly the pushed events");
    remove_dir(dir_);
    return r;
  }

  const LayerSpec& layer_spec() const override { return spec_; }
  bool engine_durability_figures() const override { return true; }

 private:
  static constexpr std::size_t kGames = 4;
  static constexpr std::size_t kEventsPerGame = 500'000;
  static constexpr std::size_t kPatternSize = 3;
  static constexpr double kWindowSeconds = 15.0;
  static constexpr std::uint64_t kDisorder = 64;

  std::string dir_;
  QueryDef query_;
  std::size_t num_types_ = 0;
  std::vector<Event> in_order_;
  std::vector<Event> arrival_;
  std::vector<ComplexEvent> golden_;
  SubstreamIndex index_;
  LayerSpec spec_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "q4_shed") return std::make_unique<Q4Shed>();
  if (name == "mp_wal") return std::make_unique<MpWal>();
  if (name == "zipf_rebalance") return std::make_unique<ZipfRebalance>();
  if (name == "q1_recover") return std::make_unique<Q1Recover>();
  return nullptr;
}

}  // namespace perfbench
