// Performance-trajectory runner: times the parallel runners serially and
// fanned across a sim::WorkerPool, and appends the results as one
// labelled entry to a machine-readable JSON file (default:
// BENCH_sim.json). Re-running at different commits with different labels
// builds up a before/after trajectory; docs/PERFORMANCE.md documents the
// schema and workflow.
//
// Usage (`bench_trajectory --help` lists every flag):
//   bench_trajectory [--smoke] [--label NAME] [--out PATH] [-j N]
//
// The entry carries the same fuzz seed sweep and cluster solo-baseline
// warmup timed serially and again in parallel, plus the speedup ratios.
// Both parallel paths are bit-identical to their serial twins by
// construction (see docs/PERFORMANCE.md), so the ratio is pure scheduling
// gain. Kernel throughput lives in bench/micro_sim and end-to-end host
// cost in perfbench/.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/cluster/arrival.hpp"
#include "src/cluster/simulation.hpp"
#include "src/sim/worker_pool.hpp"
#include "src/testkit/batch.hpp"
#include "src/workload/scenario.hpp"
#include "tools/flag_table.hpp"

using namespace uvs;

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

// --- parallel-runner metrics (serial vs WorkerPool wall clock) ----------

double FuzzSweepWallSec(int workers, std::uint64_t seeds) {
  testkit::BatchOptions batch;
  batch.workers = workers;
  const auto t0 = Clock::now();
  const testkit::BatchResult sweep = testkit::RunSeedBatch(1, seeds, batch);
  const auto t1 = Clock::now();
  if (sweep.first_failure() < sweep.runs.size())
    std::fprintf(stderr, "bench_trajectory: fuzz sweep seed %llu FAILED (timing still reported)\n",
                 static_cast<unsigned long long>(
                     sweep.runs[sweep.first_failure()].seed));
  return Seconds(t0, t1);
}

double SoloWarmupWallSec(int workers, int mix_jobs) {
  // Same testkit-scale contended machine uvsim --cluster builds, so the
  // warmup runs the shapes a real cluster sweep would.
  hw::ClusterParams params = hw::CoriPreset(256, 4);
  params.node.cores = 8;
  params.node.dram_cache_capacity = 32_MiB;
  params.bb.bb_nodes = 2;
  params.bb.capacity_per_bb_node = 64_MiB;
  params.pfs.osts = 4;
  params.seed = 42;

  workload::ScenarioOptions options;
  options.procs = 256;
  options.policy = sched::PlacementPolicy::kInterferenceAware;
  options.cluster_params = params;
  workload::Scenario scenario(options);

  cluster::MixParams mix;
  mix.jobs = mix_jobs;
  std::vector<cluster::JobSpec> jobs = cluster::SampleJobMix(42, mix);

  cluster::ClusterOptions cluster_options;
  cluster_options.base_config.chunk_size = 1_MiB;
  cluster_options.solo_workers = workers;
  cluster::ClusterSim sim(scenario, std::move(jobs), cluster_options);
  const auto t0 = Clock::now();
  sim.WarmSoloBaselines();
  const auto t1 = Clock::now();
  return Seconds(t0, t1);
}

// --- JSON output --------------------------------------------------------

struct Metric {
  std::string name;
  double value;
};

std::string FormatEntry(const std::string& label, const std::string& mode,
                        const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "    {\n"
      << "      \"label\": \"" << label << "\",\n"
      << "      \"mode\": \"" << mode << "\",\n"
      << "      \"metrics\": {\n";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char num[64];
    std::snprintf(num, sizeof(num), "%.6g", metrics[i].value);
    out << "        \"" << metrics[i].name << "\": " << num
        << (i + 1 < metrics.size() ? ",\n" : "\n");
  }
  out << "      }\n    }";
  return out.str();
}

bool AppendEntry(const std::string& path, const std::string& entry) {
  std::string content;
  {
    std::ifstream in(path);
    if (in) {
      std::ostringstream buf;
      buf << in.rdbuf();
      content = buf.str();
    }
  }
  const char* kSchema = "uvs-bench-trajectory-v1";
  if (content.find(kSchema) == std::string::npos) {
    // Fresh file (or an unrecognized one, which we refuse to mangle).
    if (!content.empty() && content.find_first_not_of(" \t\r\n") != std::string::npos) {
      std::fprintf(stderr, "bench_trajectory: %s exists but is not a %s file\n",
                   path.c_str(), kSchema);
      return false;
    }
    std::ofstream out(path, std::ios::trunc);
    out << "{\n  \"schema\": \"" << kSchema << "\",\n  \"entries\": [\n"
        << entry << "\n  ]\n}\n";
    return static_cast<bool>(out);
  }
  // Splice the new entry in before the closing bracket of "entries".
  const std::size_t close = content.rfind(']');
  const std::size_t open = content.find('[');
  if (close == std::string::npos || open == std::string::npos || open > close) {
    std::fprintf(stderr, "bench_trajectory: %s is malformed\n", path.c_str());
    return false;
  }
  const bool has_entries =
      content.find('{', open) != std::string::npos && content.find('{', open) < close;
  const std::size_t cut = content.find_last_not_of(" \t\r\n", close - 1) + 1;
  std::string spliced = content.substr(0, cut);
  spliced += has_entries ? ",\n" : "\n";
  spliced += entry;
  spliced += "\n  ";
  spliced += content.substr(close);
  std::ofstream out(path, std::ios::trunc);
  out << spliced;
  return static_cast<bool>(out);
}

struct Args {
  bool smoke = false;
  std::string label = "run";
  std::string out = "BENCH_sim.json";
  int jobs = 0;  // parallel-runner workers; 0 = all hardware threads
};

constexpr flags::Flag<Args> kFlags[] = {
    {"--smoke", "", flags::SetSwitch<&Args::smoke>,
     "fewer fuzz seeds and cluster jobs (CI-friendly,\nseconds)"},
    {"--label", "=NAME", flags::SetText<&Args::label>, "entry label (default \"run\")"},
    {"--out", "=PATH", flags::SetText<&Args::out>,
     "output JSON path (default BENCH_sim.json in\nthe CWD)"},
    {"--jobs", "=N", flags::SetInt<&Args::jobs, 0>,
     "workers for the parallel-runner metrics\n(0 = all hardware threads; default 0)", "-j"},
};

}  // namespace

int main(int argc, char** argv) {
  const Args args = flags::Parse(argc, argv, "bench_trajectory", kFlags);
  const int workers = args.jobs > 0 ? args.jobs : sim::WorkerPool::HardwareThreads();

  std::vector<Metric> metrics;
  const auto add = [&](const char* name, double value) {
    metrics.push_back({name, value});
    std::printf("%-40s %.6g\n", name, value);
  };

  // Parallel-runner metrics: identical work timed serially and fanned
  // across the WorkerPool. Speedup ~1.0 on a single-core host.
  const std::uint64_t sweep_seeds = args.smoke ? 32 : 256;
  const int warmup_mix = args.smoke ? 12 : 24;
  add("parallel_workers", workers);
  add("hw_threads", sim::WorkerPool::HardwareThreads());
  const double fuzz_serial = FuzzSweepWallSec(1, sweep_seeds);
  const double fuzz_parallel = FuzzSweepWallSec(workers, sweep_seeds);
  add("parallel_fuzz_sweep_serial_wall_sec", fuzz_serial);
  add("parallel_fuzz_sweep_parallel_wall_sec", fuzz_parallel);
  add("parallel_fuzz_sweep_speedup", fuzz_parallel > 0 ? fuzz_serial / fuzz_parallel : 0);
  const double solo_serial = SoloWarmupWallSec(1, warmup_mix);
  const double solo_parallel = SoloWarmupWallSec(workers, warmup_mix);
  add("parallel_solo_warmup_serial_wall_sec", solo_serial);
  add("parallel_solo_warmup_parallel_wall_sec", solo_parallel);
  add("parallel_solo_warmup_speedup", solo_parallel > 0 ? solo_serial / solo_parallel : 0);

  const std::string entry = FormatEntry(args.label, args.smoke ? "smoke" : "full", metrics);
  if (!AppendEntry(args.out, entry)) return 1;
  std::printf("appended entry \"%s\" to %s\n", args.label.c_str(), args.out.c_str());
  return 0;
}
