// Adaptive-operator regression gate: deterministic drives of EspiceOperator
// and MultiQueryOperator (synthetic arrival/cost signals and queue levels,
// so nothing depends on the wall clock) must digest EXACTLY to the
// committed golden (tests/data/adaptive_golden.txt).  The digest records
// the phase, shedding state, drop counters, retrains and the coordinator's
// last_split() at every detector tick, then every match (window and
// constituent seq@position), the final stats and the final utility tables.
// Any observable change in the sizing -> training -> shedding lifecycle,
// drift retraining, periodic rebuilds or the multi-query budget split fails
// this test with a digest diff.
//
// After an INTENDED behaviour change, regenerate the golden:
//   ESPICE_REGEN_GOLDEN=1 ./regression_adaptive_operator_golden_test
// and commit the diff.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/espice_operator.hpp"
#include "core/multi_query_operator.hpp"

namespace espice {
namespace {

std::string data_path(const std::string& file) {
  return std::string(ESPICE_SOURCE_DIR) + "/tests/data/" + file;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Round-trip exact text for a double.
std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void write_match(std::ostream& out, std::size_t q, const ComplexEvent& ce) {
  out << "m " << q << " w" << ce.window;
  for (const Constituent& c : ce.constituents) {
    out << ' ' << c.event.seq << '@' << c.position;
  }
  out << '\n';
}

void write_model(std::ostream& out, std::size_t q, const UtilityModel* m) {
  out << "model " << q;
  if (m == nullptr) {
    out << " none\n";
    return;
  }
  out << " n=" << m->n_positions() << " bs=" << m->bin_size() << " ut";
  for (std::size_t t = 0; t < m->num_types(); ++t) {
    for (std::size_t c = 0; c < m->cols(); ++c) {
      out << ' ' << m->utility_cell(static_cast<EventTypeId>(t), c);
    }
  }
  out << '\n';
}

// --- event streams ----------------------------------------------------------

constexpr EventTypeId A = 0;
constexpr EventTypeId B = 1;
constexpr EventTypeId C = 2;
constexpr EventTypeId D = 3;
constexpr EventTypeId F = 4;

/// Blocks of 6: the A-then-B pair at positions 0-1 (regime 0) or 4-5
/// (regime 1), filler (type 2) elsewhere; ts advances 1 s per event.
Event regime_event(int regime, std::uint64_t seq) {
  const std::size_t pos = seq % 6;
  Event e;
  const bool hot = regime == 0 ? pos < 2 : pos >= 4;
  e.type = hot ? ((regime == 0 ? pos == 0 : pos == 4) ? A : B) : EventTypeId{2};
  e.seq = seq;
  e.ts = static_cast<double>(seq);
  e.value = 1.0;
  return e;
}

/// Blocks of 6: A B C D F F (one seq(A;B) and one seq(C;D) per block).
Event block_event(std::uint64_t seq) {
  static constexpr EventTypeId kLayout[6] = {A, B, C, D, F, F};
  Event e;
  e.type = kLayout[seq % 6];
  e.seq = seq;
  e.ts = static_cast<double>(seq);
  e.value = 1.0;
  return e;
}

// --- EspiceOperator drives --------------------------------------------------

EspiceOperatorConfig eo_count_config() {
  EspiceOperatorConfig c;
  c.pattern = make_sequence({element("A", TypeSet{A}), element("B", TypeSet{B})});
  c.window.span_kind = WindowSpan::kCount;
  c.window.span_events = 6;
  c.window.open_kind = WindowOpen::kCountSlide;
  c.window.slide_events = 6;
  c.num_types = 3;
  c.training_windows = 30;
  c.detector.latency_bound = 1.0;
  c.detector.ewma_alpha = 1.0;
  return c;
}

/// One stage of a drive: `n` events of `regime` with the host queue at
/// `queue` for every detector tick.
struct Stage {
  int regime;
  std::size_t n;
  std::size_t queue;
};

/// Per-event host loop (arrival, cost, push, a tick every `tick_every`
/// events of the global sequence), then finish().
std::string drive_eo(EspiceOperatorConfig config, const std::vector<Stage>& stages,
                     double cost = 1e-3, std::size_t tick_every = 10) {
  std::ostringstream out;
  std::vector<ComplexEvent> matches;
  EspiceOperator op(std::move(config),
                    [&](const ComplexEvent& ce) { matches.push_back(ce); });
  std::uint64_t seq = 0;
  for (const Stage& st : stages) {
    for (std::size_t i = 0; i < st.n; ++i, ++seq) {
      op.observe_arrival(static_cast<double>(seq) * cost);
      op.observe_cost(cost);
      op.push(regime_event(st.regime, seq));
      if (seq % tick_every == 0) {
        op.on_tick(static_cast<double>(seq) * cost, st.queue);
        out << "t " << seq << " phase=" << static_cast<int>(op.phase())
            << " active=" << op.shedding_active() << " dec=" << op.decisions()
            << " drop=" << op.drops() << " retrains=" << op.retrains()
            << " seen=" << op.windows_observed() << " matches="
            << matches.size() << '\n';
      }
    }
  }
  op.finish();
  for (const ComplexEvent& ce : matches) write_match(out, 0, ce);
  const OperatorStats s = op.stats();
  out << "stats phase=" << static_cast<int>(s.phase) << " events=" << s.events
      << " memberships=" << s.memberships << " kept=" << s.memberships_kept
      << " closed=" << s.windows_closed << " matches=" << s.matches
      << " dec=" << s.decisions << " drop=" << s.drops
      << " retrains=" << s.retrains << " seen=" << s.windows_observed
      << " active=" << s.shedding_active << '\n';
  write_model(out, 0, op.model());
  return out.str();
}

std::string eo_count_tumbling() {
  return drive_eo(eo_count_config(),
                  {{0, 31 * 6, 0}, {0, 150 * 6, 900}, {0, 50 * 6, 0},
                   {0, 100 * 6 + 4, 900}});
}

std::string eo_count_sliding() {
  auto c = eo_count_config();
  c.window.span_events = 12;
  c.window.slide_events = 4;
  c.training_windows = 40;
  c.exact_amount = true;
  c.exploration = 0.1;
  c.rebuild_every_windows = 60;
  return drive_eo(std::move(c),
                  {{0, 50 * 6, 0}, {0, 150 * 6, 900}, {1, 150 * 6, 900},
                   {0, 20 * 6 + 1, 0}});
}

std::string eo_time_sizing() {
  auto c = eo_count_config();
  c.window = WindowSpec{};
  c.window.span_kind = WindowSpan::kTime;
  c.window.span_seconds = 6.0;
  c.window.open_kind = WindowOpen::kPredicate;
  c.window.opener = element("A", TypeSet{A});
  c.sizing_windows = 20;
  return drive_eo(std::move(c), {{0, 25 * 6, 0}, {0, 40 * 6, 0},
                                 {0, 150 * 6 + 3, 900}});
}

std::string eo_drift() {
  auto c = eo_count_config();
  c.training_windows = 200;
  c.retrain_decay = 0.05;
  c.exploration = 0.2;
  c.rebuild_every_windows = 200;
  c.drift.batch_size = 3000;
  c.drift.patience = 1;
  return drive_eo(std::move(c), {{0, 201 * 6, 0}, {1, 1500 * 6, 900},
                                 {0, 1500 * 6 + 2, 900}});
}

/// Multi-partition commands: l(p) = 0.04 s gives qmax 25 and a dropping
/// buffer below N, so the detector issues rho = 2 partitions.
std::string eo_two_partitions() {
  return drive_eo(eo_count_config(), {{0, 31 * 6, 0}, {0, 80 * 6, 22}},
                  /*cost=*/0.04, /*tick_every=*/6);
}

// --- MultiQueryOperator drives ----------------------------------------------

MultiQueryOperatorConfig mqo_config() {
  MultiQueryOperatorConfig c;
  c.window.span_kind = WindowSpan::kCount;
  c.window.span_events = 6;
  c.window.open_kind = WindowOpen::kCountSlide;
  c.window.slide_events = 6;
  c.queries.push_back(MultiQuerySpec{
      "pairAB",
      make_sequence({element("A", TypeSet{A}), element("B", TypeSet{B})})});
  c.queries.push_back(MultiQuerySpec{
      "pairCD",
      make_sequence({element("C", TypeSet{C}), element("D", TypeSet{D})})});
  c.num_types = 5;
  c.training_windows = 30;
  c.detector.latency_bound = 1.0;
  c.detector.ewma_alpha = 1.0;
  return c;
}

struct MqoDrive {
  std::ostringstream out;
  std::vector<std::vector<ComplexEvent>> matches;
  MultiQueryOperator op;

  explicit MqoDrive(MultiQueryOperatorConfig config)
      : matches(config.queries.size()),
        op(std::move(config), [this](std::size_t q, const ComplexEvent& ce) {
          matches[q].push_back(ce);
        }) {}

  void tick(std::uint64_t seq, double now, std::size_t queue) {
    op.on_tick(now, queue);
    const MultiQueryStats s = op.stats();
    out << "t " << seq << " phase=" << static_cast<int>(op.phase())
        << " active=" << op.shedding_active() << " split=";
    for (const double x : op.last_split()) out << num(x) << ',';
    for (const auto& q : s.queries) {
      out << ' ' << q.name << ":" << q.matches << '/' << q.decisions << '/'
          << q.drops;
    }
    out << '\n';
  }

  std::string finish() {
    op.finish();
    for (std::size_t q = 0; q < matches.size(); ++q) {
      for (const ComplexEvent& ce : matches[q]) write_match(out, q, ce);
    }
    const MultiQueryStats s = op.stats();
    out << "stats phase=" << static_cast<int>(op.phase())
        << " events=" << s.events << " memberships=" << s.memberships
        << " kept=" << s.memberships_kept << " closed=" << s.windows_closed
        << " active=" << s.shedding_active << '\n';
    for (std::size_t q = 0; q < s.queries.size(); ++q) {
      const auto& pq = s.queries[q];
      out << "query " << pq.name << " matches=" << pq.matches
          << " dec=" << pq.decisions << " drop=" << pq.drops << '\n';
      write_model(out, q, op.model(q));
    }
    return out.str();
  }
};

/// Queue level of the MQO schedules, a pure function of the sequence number.
std::size_t mqo_queue(std::uint64_t seq) {
  if (seq < 31 * 6) return 0;
  if (seq < 151 * 6) return 900;
  if (seq < 191 * 6) return 0;
  return 900;
}
constexpr std::size_t kMqoEvents = 271 * 6 + 4;

std::string mqo_push() {
  MqoDrive d(mqo_config());
  for (std::uint64_t seq = 0; seq < kMqoEvents; ++seq) {
    d.op.observe_arrival(static_cast<double>(seq) / 1000.0);
    d.op.observe_cost(1e-3);
    d.op.push(block_event(seq));
    if (seq % 10 == 0) {
      d.tick(seq, static_cast<double>(seq) / 1000.0, mqo_queue(seq));
    }
  }
  return d.finish();
}

/// Same stream through push_block in chunks of 100 (not a multiple of the
/// window span), one tick per chunk boundary.
std::string mqo_push_block() {
  MqoDrive d(mqo_config());
  std::vector<Event> stream;
  for (std::uint64_t seq = 0; seq < kMqoEvents; ++seq) {
    stream.push_back(block_event(seq));
  }
  constexpr std::size_t kChunk = 100;
  for (std::size_t i = 0; i < stream.size(); i += kChunk) {
    const std::size_t n = std::min(kChunk, stream.size() - i);
    for (std::size_t j = i; j < i + n; ++j) {
      d.op.observe_arrival(static_cast<double>(j) / 1000.0);
      d.op.observe_cost(1e-3);
    }
    d.op.push_block(std::span<const Event>(stream).subspan(i, n));
    const std::uint64_t last = i + n - 1;
    d.tick(last, static_cast<double>(last) / 1000.0, mqo_queue(last));
  }
  return d.finish();
}

std::string mqo_time_sizing() {
  auto c = mqo_config();
  c.window = WindowSpec{};
  c.window.span_kind = WindowSpan::kTime;
  c.window.span_seconds = 6.0;
  c.window.open_kind = WindowOpen::kPredicate;
  c.window.opener = element("A", TypeSet{A});
  c.sizing_windows = 20;
  c.query_weights = {1.0, 2.5};
  c.rebuild_every_windows = 50;
  MqoDrive d(std::move(c));
  for (std::uint64_t seq = 0; seq < 200 * 6 + 5; ++seq) {
    d.op.observe_arrival(static_cast<double>(seq) * 0.04);
    d.op.observe_cost(0.04);
    d.op.push(block_event(seq));
    if (seq % 6 == 0) {
      d.tick(seq, static_cast<double>(seq) * 0.04, seq < 70 * 6 ? 0 : 22);
    }
  }
  return d.finish();
}

std::string golden_digest() {
  std::ostringstream out;
  const std::pair<const char*, std::string (*)()> sections[] = {
      {"eo_count_tumbling", eo_count_tumbling},
      {"eo_count_sliding", eo_count_sliding},
      {"eo_time_sizing", eo_time_sizing},
      {"eo_drift", eo_drift},
      {"eo_two_partitions", eo_two_partitions},
      {"mqo_push", mqo_push},
      {"mqo_push_block", mqo_push_block},
      {"mqo_time_sizing", mqo_time_sizing},
  };
  for (const auto& [name, run] : sections) {
    out << "== " << name << '\n' << run();
  }
  return out.str();
}

TEST(AdaptiveOperatorGolden, DrivesMatchCommittedGolden) {
  const std::string digest = golden_digest();

  if (std::getenv("ESPICE_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(data_path("adaptive_golden.txt"),
                      std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good());
    out << digest;
    GTEST_SKIP() << "golden regenerated; commit tests/data/adaptive_golden.txt";
  }

  const std::string golden = read_file(data_path("adaptive_golden.txt"));
  EXPECT_EQ(digest, golden)
      << "adaptive operator behaviour changed; if intended, regenerate with "
         "ESPICE_REGEN_GOLDEN=1 and commit the golden diff";
}

/// The value of `key=` on the "stats" line of section `name`.
std::string section_stat(const std::string& digest, const std::string& name,
                         const std::string& key) {
  const std::size_t section = digest.find("== " + name + "\n");
  const std::size_t stats = digest.find("\nstats ", section);
  const std::size_t at = digest.find(" " + key + "=", stats);
  const std::size_t begin = at + key.size() + 2;
  return digest.substr(begin, digest.find_first_of(" \n", begin) - begin);
}

TEST(AdaptiveOperatorGolden, DrivesExerciseEveryPhase) {
  // Guards the golden against going vacuous: the drives size, train, shed,
  // retrain on drift and split a live multi-query budget.
  const std::string d = golden_digest();
  EXPECT_NE(d.find("phase=0"), std::string::npos) << "no sizing phase";
  EXPECT_NE(d.find("phase=1"), std::string::npos) << "no training phase";
  EXPECT_NE(d.find("phase=2 active=1"), std::string::npos) << "never shed";
  EXPECT_NE(section_stat(d, "eo_drift", "retrains"), "0")
      << "the drifting stream never retrained";
  EXPECT_NE(d.find("split=0."), std::string::npos)
      << "the coordinator never split a live budget";
  EXPECT_NE(section_stat(d, "eo_two_partitions", "drop"), "0");
}

}  // namespace
}  // namespace espice
