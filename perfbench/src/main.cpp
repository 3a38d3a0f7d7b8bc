// engine_bench: one workload, one seed, one measurement of the eSPICE
// stream engine.  See perfbench/README.md for the workloads and metrics.
//
//   engine_bench --workload q4_shed --seed 1 --seconds 10 --trace 0
//                --work-dir DIR [--trace-out FILE]
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exit code 0 only when every output check passed.
#include <malloc.h>
#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "bench.hpp"
#include "durability/io_env.hpp"

namespace perfbench {
namespace {

// fsync cost on a real device is left out of the benchmark (README): every
// fsync the durability layer issues returns at once, while its writes,
// renames and reads still go through the file system.  On a shared disk an
// fsync takes as long as the other tenants' I/O makes it.
class NoSyncIoEnv final : public durability::IoEnv {
 public:
  int fsync(const char* /*site*/, int /*fd*/) override { return 0; }
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string work_dir;
  std::string trace_out;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    errno = 0;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      if (errno != 0 || end == v || *end != '\0') return false;
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (errno != 0 || end == v || *end != '\0') return false;
    } else if (k == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return false;
      a.trace = v[0] - '0';
    } else if (k == "--work-dir") {
      a.work_dir = v;
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0.0 &&
         a.seconds <= 3600.0 && a.trace >= 0 && !a.work_dir.empty();
}

// Set-up is repeated this many times per run; setup_s is the median.
constexpr int kTrainRepeats = 5;
// Every run measures at least this many rounds (medians need several).
constexpr std::size_t kMinRounds = 5;

struct Metric {
  const char* name;
  const char* unit;
};

// Names and units; must match BENCHMARK.json (perfbench/run.py checks).
constexpr Metric kEndToEnd[] = {
    {"throughput_eps", "ev/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"true_match_share", "ratio"},
};

constexpr Metric kPerLayer[] = {
    {"runtime.route_ns_per_event", "ns"},
    {"runtime.shard_busy_s", "s"},
    {"runtime.shard_busy_max_over_mean", "ratio"},
    {"runtime.rebalance_moves", "count"},
    {"runtime.router_stall_s", "s"},
    {"runtime.queue_depth_mean", "events"},
    {"runtime.finish_s", "s"},
    {"runtime.pipeline_ns_per_event", "ns"},
    {"runtime.pipeline_noshed_ns_per_event", "ns"},
    {"cep.window_ns_per_event", "ns"},
    {"cep.matcher_ns_per_event", "ns"},
    {"cep.reorder_ns_per_event", "ns"},
    {"core.shed_ns_per_membership", "ns"},
    {"core.train_s", "s"},
    {"core.kept_fraction", "ratio"},
    {"durability.append_ns_per_event", "ns"},
    {"durability.checkpoint_s", "s"},
    {"durability.snapshot_mb", "MiB"},
    {"durability.log_mb", "MiB"},
    {"durability.replay_eps", "ev/s"},
    {"durability.recover_s", "s"},
    {"runtime.self_s", "s"},
    {"cep.self_s", "s"},
    {"core.self_s", "s"},
    {"durability.self_s", "s"},
    {"trace.overhead_pct", "%"},
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics, const Figures& values) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto it = values.find(metrics[i].name);
    const double v = it == values.end() ? 0.0 : it->second;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name, v, metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int run(const Args& args) {
  // Start glibc at the mmap threshold it settles at after its first large
  // frees (32 MiB on 64-bit).  Left to adjust itself, the threshold moved
  // with the allocation history of earlier rounds, and so did a round's
  // resident-set growth.
  ::mallopt(M_MMAP_THRESHOLD, 32 * 1024 * 1024);
  static NoSyncIoEnv no_sync;
  durability::set_io_env(&no_sync);
  std::unique_ptr<Workload> w = make_workload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  if (::mkdir(args.work_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    std::fprintf(stderr, "cannot create %s\n", args.work_dir.c_str());
    return 2;
  }

  Checks checks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // One operation: one step whose checks either all pass or count it failed.
  auto operation = [&](auto&& fn) {
    const std::uint64_t before = checks.failures();
    fn();
    ++attempted;
    if (checks.failures() != before) ++failed;
  };

  operation([&] { w->prepare(args.seed, args.work_dir, checks); });

  Tracer tracer;
  TraceBuffer* main_tb = args.trace == 1 ? &tracer.new_buffer() : nullptr;

  std::vector<double> train_s;
  {
    Span s(main_tb, "bench.setup");
    for (int i = 0; i < kTrainRepeats; ++i) {
      operation([&] { train_s.push_back(w->train(main_tb, checks)); });
    }
  }

  // Rounds until the run's time is spent.  A traced run alternates
  // untraced and traced rounds so both see the same machine state.
  std::vector<Round> plain;
  std::vector<Round> traced;
  const std::uint64_t t0 = now_ns();
  const std::uint64_t budget_ns =
      static_cast<std::uint64_t>(args.seconds * 1e9);
  for (std::size_t i = 0;; ++i) {
    const bool trace_this = args.trace == 1 && i % 2 == 1;
    const std::size_t done = std::min(plain.size(), args.trace == 1
                                                        ? traced.size()
                                                        : plain.size());
    if (now_ns() - t0 >= budget_ns && done >= kMinRounds) break;
    operation([&] {
      if (trace_this) {
        Span s(main_tb, "bench.round");
        traced.push_back(w->round(&tracer, main_tb, checks));
      } else {
        plain.push_back(w->round(nullptr, nullptr, checks));
      }
    });
  }

  auto med = [](const std::vector<Round>& rs, auto field) {
    std::vector<double> v;
    for (const Round& r : rs) v.push_back(field(r));
    return median(std::move(v));
  };
  auto throughput = [](const Round& r) {
    return static_cast<double>(r.events) / r.run_s;
  };

  std::fprintf(stderr, "round throughputs (ev/s):");
  for (const Round& r : plain) std::fprintf(stderr, " %.0f", throughput(r));
  std::fprintf(stderr, "\nround peak RSS growth (MiB):");
  for (const Round& r : plain) std::fprintf(stderr, " %.2f", r.peak_rss_mb);
  std::fprintf(stderr, "\n");

  Figures values;
  std::vector<Metric> metrics;
  if (args.trace == 0) {
    values["throughput_eps"] = med(plain, throughput);
    values["setup_s"] =
        median(train_s) + med(plain, [](const Round& r) { return r.setup_s; });
    values["peak_rss_mb"] =
        med(plain, [](const Round& r) { return r.peak_rss_mb; });
    values["true_match_share"] =
        med(plain, [](const Round& r) { return r.true_match_share; });
    metrics.assign(std::begin(kEndToEnd), std::end(kEndToEnd));
  } else {
    // Engine-level figures: medians over the traced rounds.
    std::map<std::string, std::vector<double>> per_name;
    for (const Round& r : traced) {
      for (const auto& [k, v] : r.layers) per_name[k].push_back(v);
    }
    for (auto& [k, v] : per_name) values[k] = median(std::move(v));
    // Layer passes on one substream.
    Figures layer;
    operation([&] {
      Span s(main_tb, "bench.layers");
      run_layer_passes(w->layer_spec(), *main_tb, layer, checks, args.work_dir,
                       !w->engine_durability_figures());
    });
    for (const auto& [k, v] : layer) values[k] = v;
    if (median(train_s) > 0.0) values["core.train_s"] = median(train_s);
    // Self time per layer over the layer passes (a fixed amount of work).
    for (const auto& [layer_name, s] :
         tracer.self_time_by_layer("bench.layers")) {
      values[layer_name + ".self_s"] = s;
    }
    const double untraced_eps = med(plain, throughput);
    const double traced_eps = med(traced, throughput);
    values["trace.overhead_pct"] =
        traced_eps > 0.0 ? 100.0 * (untraced_eps / traced_eps - 1.0) : 0.0;
    std::fprintf(stderr,
                 "traced %zu rounds at %.0f ev/s, untraced %zu at %.0f ev/s\n",
                 traced.size(), traced_eps, plain.size(), untraced_eps);
    if (!args.trace_out.empty() && !tracer.write_json(args.trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
    }
    metrics.assign(std::begin(kPerLayer), std::end(kPerLayer));
  }
  std::fprintf(stderr, "%s seed %llu: %llu operations, %llu failed\n",
               args.workload.c_str(),
               static_cast<unsigned long long>(args.seed),
               static_cast<unsigned long long>(attempted),
               static_cast<unsigned long long>(failed));
  const bool correct = checks.failures() == 0;
  print_result(correct, attempted, failed, metrics, values);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: engine_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR [--trace-out FILE]\n");
    return 2;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "engine_bench: %s\n", e.what());
    return 1;
  }
}
