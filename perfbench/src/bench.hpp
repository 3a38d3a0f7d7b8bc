// Shared pieces of the engine benchmark: the workload interface, output
// checks, memory probes and the single-threaded layer passes.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cep/matcher.hpp"
#include "core/shedder.hpp"
#include "core/utility_model.hpp"
#include "harness/queries.hpp"
#include "runtime/stream_engine.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace espice;

/// Per-layer figures of one round or one layer pass, by metric name.
using Figures = std::map<std::string, double>;

/// Collects check outcomes.  Every failed check is one failed operation.
class Checks {
 public:
  void expect(bool ok, const std::string& what);
  std::uint64_t failures() const { return failures_; }

 private:
  std::uint64_t failures_ = 0;
};

/// Outcome of one closed-loop engine run over a workload's whole input.
struct Round {
  double setup_s = 0.0;  ///< engine construction + start()
  double run_s = 0.0;    ///< first push -> finish() returned
  std::uint64_t events = 0;
  double peak_rss_mb = 0.0;  ///< peak RSS growth over the pre-engine baseline
  /// Complex events the run detects that the unshed serial reference also
  /// detects, as a share of the reference's count.
  double true_match_share = 0.0;
  Figures layers;  ///< engine-level per-layer figures (traced rounds)
};

/// Resident set size probe (reads /proc/self/statm).
class RssProbe {
 public:
  RssProbe();
  ~RssProbe();
  RssProbe(const RssProbe&) = delete;
  RssProbe& operator=(const RssProbe&) = delete;
  /// Releases free heap memory and records the baseline.
  void reset();
  void sample();
  double peak_growth_mb() const;

 private:
  std::uint64_t rss_bytes() const;
  int fd_ = -1;
  std::uint64_t page_ = 4096;
  std::uint64_t baseline_ = 0;
  std::uint64_t peak_ = 0;
};

/// What the layer passes need to know about a workload: one substream (what
/// one shard or partition pipeline sees), its query and shedding setup.
struct LayerSpec {
  std::vector<Event> substream;   ///< in seq order
  /// The same events in arrival order when that differs (empty = in order).
  std::vector<Event> arrival;
  std::uint64_t disorder_bound = 0;
  QueryDef query;
  std::size_t num_types = 0;
  /// Shedder the workload's engine runs (nullptr = keeps everything).
  std::function<std::unique_ptr<Shedder>()> engine_shedder;
  double predicted_ws = 0.0;
  /// Model for the shed-scoring pass; null = train one on a prefix.
  std::shared_ptr<const UtilityModel> model;
  /// Serial references of `query` on the substream, with the engine's
  /// shedder and without shedding (canonical merge order).
  std::vector<ComplexEvent> reference;
  std::vector<ComplexEvent> reference_unshed;
  std::size_t batch = 4096;
};

/// Runs every single-threaded layer pass over `spec` (windows alone,
/// windows + incremental matcher, reorder, shed scoring, training, the
/// shard pipeline with and without shedding, WAL append/read-back and a
/// pipeline checkpoint/recovery through the durability layer), recording
/// spans into `tb`.  `durability_figures` = false skips reporting the
/// checkpoint/recovery figures (the workload measures them on the engine).
void run_layer_passes(const LayerSpec& spec, TraceBuffer& tb, Figures& out,
                      Checks& checks, const std::string& work_dir,
                      bool durability_figures);

class Workload {
 public:
  virtual ~Workload() = default;
  /// Generates the inputs and the reference outputs from `seed`; scratch
  /// files go under `work_dir`.
  virtual void prepare(std::uint64_t seed, const std::string& work_dir,
                       Checks& checks) = 0;
  /// One-off set-up paid before the first event flows besides engine
  /// construction (q4_shed: model training).  Returns seconds.
  virtual double train(TraceBuffer* /*tb*/, Checks& /*checks*/) { return 0.0; }
  /// One closed-loop engine run over the workload's whole input; checks the
  /// output.  `tb` non-null = record spans around the engine calls (other
  /// threads get their own buffers from `tracer`).
  virtual Round round(Tracer* tracer, TraceBuffer* tb, Checks& checks) = 0;
  /// The layer-pass description of this workload's largest substream.
  virtual const LayerSpec& layer_spec() const = 0;
  /// True when the round itself reports the durability checkpoint and
  /// recovery figures.
  virtual bool engine_durability_figures() const { return false; }
};

std::unique_ptr<Workload> make_workload(const std::string& name);

/// The fixed drop command every eSPICE shedder of the benchmark is armed
/// with: drop at least 40% of each window's N positions.
DropCommand fixed_drop_command(std::size_t n_positions);

// --- output checks --------------------------------------------------------

/// Field-wise equality of two events (what the WAL must round-trip).
inline bool same_event(const Event& a, const Event& b) {
  return a.seq == b.seq && a.type == b.type && a.ts == b.ts &&
         a.value == b.value && a.aux == b.aux;
}

/// Exact equality of two match lists (window, detection ts, every
/// constituent's element, position and event).
bool same_matches(const std::vector<ComplexEvent>& a,
                  const std::vector<ComplexEvent>& b);

/// How many of `got` also appear in `reference` (same window, same
/// constituent seqs).
std::uint64_t count_common(const std::vector<ComplexEvent>& got,
                           const std::vector<ComplexEvent>& reference);

/// Where each event (indexed by seq) sits: its substream and its offset in
/// that substream.
struct SubstreamIndex {
  std::vector<std::uint32_t> substream;
  std::vector<std::uint32_t> offset;
};
SubstreamIndex index_substreams(std::span<const Event> in_order,
                                const std::function<std::size_t(const Event&)>&
                                    substream_of);

/// Checks every match against the query definition alone: constituent seqs
/// rise strictly, all constituents come from one substream and fit one
/// window of `window` (count windows: the reported window's offset range in
/// the substream; time windows: the window span), and each constituent
/// satisfies its pattern element's types and direction.  Returns the number
/// of matches that break a property.
std::uint64_t property_violations(const std::vector<ComplexEvent>& matches,
                                  const Pattern& pattern,
                                  const WindowSpec& window,
                                  const SubstreamIndex& index);

/// Bytes of the regular files under `dir` (recursive).
std::uint64_t dir_bytes(const std::string& dir);
void remove_dir(const std::string& dir);

double median(std::vector<double> v);

/// Smallest key >= `from` that the engine's hash sends to shard `target`.
std::uint64_t key_for_shard(std::uint64_t from, std::size_t target,
                            std::size_t shards);

}  // namespace perfbench
