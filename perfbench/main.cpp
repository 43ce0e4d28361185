// uvbench — host-cost benchmark of the UniviStor simulator.
//
// Runs one workload once in this process and prints one JSON line with
// its host metrics, the result checks and the simulated outputs:
//
//   uvbench --workload vpic_ckpt|workflow_rw|cluster_mix [--seed N]
//           [--trace] [--out DIR]
//
// The workload is built through the simulator's public APIs and every
// call into a layer is timed from here. The measured region runs from the
// start of set-up until all simulation state is destroyed; the result
// checks run after it closes. One run per process, so getrusage's peak RSS
// belongs to that run. --trace adds the SIGPROF sampler, an obs::Recorder
// on every workload and the layer replays; run.py compares its total_s
// against untraced runs for the tracing overhead.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "heap_counter.hpp"
#include "profiler.hpp"
#include "replays.hpp"
#include "src/cluster/arrival.hpp"
#include "src/cluster/simulation.hpp"
#include "src/common/log.hpp"
#include "src/obs/attribution.hpp"
#include "src/obs/recorder.hpp"
#include "src/univistor/driver.hpp"
#include "src/univistor/system.hpp"
#include "src/workload/bdcats.hpp"
#include "src/workload/scenario.hpp"
#include "src/workload/vpic.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using uvs::Bytes;
using uvs::operator""_MiB;

// The seed whose simulated outputs are pinned in kGolden below.
constexpr std::uint64_t kDefaultSeed = 1;
// Sampler period and buffer: 1 kHz of CPU time for up to 60 s.
constexpr int kSampleIntervalUs = 1000;
constexpr std::size_t kMaxSamples = 60000;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  bool trace = false;
  std::string out_dir = ".";
};

/// Named values in output order.
using Values = std::vector<std::pair<std::string, double>>;

struct Result {
  Values metrics;
  Values sim;  // simulated outputs: identical across runs of one seed
  std::vector<std::pair<std::string, bool>> checks;
  LogReplay log_replay;
  MetaReplay meta_replay;
  Bytes pool_bytes = 0;
  uvs::Time pool_stagger = 0;
};

enum Region { kSetup, kRun, kTeardown, kRegions };

/// Contiguous phase timer with heap-allocation deltas per region.
class Phases {
 public:
  Phases() : last_(Clock::now()), heap_(HeapNow()) {}

  /// Closes the phase that began at the previous mark.
  double Mark(const char* phase, Region region) {
    const auto now = Clock::now();
    const HeapCount heap = HeapNow();
    const double dt = std::chrono::duration<double>(now - last_).count();
    phases_.emplace_back(phase, dt);
    seconds_[region] += dt;
    heap_by_region_[region] += (heap - heap_).allocs;
    bytes_ += (heap - heap_).bytes;
    last_ = now;
    heap_ = heap;
    return dt;
  }
  /// Drops the time and allocations since the previous mark (gathering
  /// outputs for the checks, which is not part of the measured run).
  void Skip() {
    last_ = Clock::now();
    heap_ = HeapNow();
  }

  const Values& phases() const { return phases_; }
  double seconds(Region r) const { return seconds_[r]; }
  double total() const { return seconds_[kSetup] + seconds_[kRun] + seconds_[kTeardown]; }
  std::uint64_t allocs(Region r) const { return heap_by_region_[r]; }
  std::uint64_t bytes() const { return bytes_; }

 private:
  Clock::time_point last_;
  HeapCount heap_;
  Values phases_;
  double seconds_[kRegions] = {};
  std::uint64_t heap_by_region_[kRegions] = {};
  std::uint64_t bytes_ = 0;
};

double Gb(Bytes b) { return static_cast<double>(b) / 1e9; }

void AddEngineCounters(const uvs::sim::Engine& engine, double loop_s, Result& out) {
  const auto events = static_cast<double>(engine.processed_events());
  out.metrics.emplace_back("sim.events", events);
  out.metrics.emplace_back("sim.events_per_s", events / loop_s);
  out.metrics.emplace_back("sim.cancelled", static_cast<double>(engine.cancelled_events()));
  out.metrics.emplace_back("sim.heap_peak", static_cast<double>(engine.heap_peak()));
  out.metrics.emplace_back("sim.frames_reclaimed", static_cast<double>(engine.frames_reclaimed()));
}

/// Per-tier and metadata totals of one or more UniviStor instances.
struct StorageTotals {
  double flushes = 0;
  Bytes dram = 0, bb = 0, pfs_spill = 0, flushed = 0;
  double records = 0;

  void Add(const uvs::univistor::UniviStor& system) {
    flushes += system.flush_stats().flushes;
    flushed += system.flush_stats().bytes_flushed;
    records += static_cast<double>(system.metadata().TotalRecords());
    for (int fid = 0; fid < system.file_count(); ++fid) {
      const auto f = static_cast<uvs::storage::FileId>(fid);
      dram += system.CachedOn(f, uvs::hw::Layer::kDram);
      bb += system.CachedOn(f, uvs::hw::Layer::kSharedBurstBuffer);
      pfs_spill += system.CachedOn(f, uvs::hw::Layer::kPfs);
    }
  }
  void Report(Result& out) const {
    out.metrics.emplace_back("univistor.flushes", flushes);
    out.metrics.emplace_back("univistor.dram_gb", Gb(dram));
    out.metrics.emplace_back("univistor.bb_gb", Gb(bb));
    out.metrics.emplace_back("univistor.pfs_gb", Gb(pfs_spill + flushed));
    out.metrics.emplace_back("meta.records", records);
    out.sim.emplace_back("bytes_dram", static_cast<double>(dram));
    out.sim.emplace_back("bytes_bb", static_cast<double>(bb));
    out.sim.emplace_back("bytes_pfs_spill", static_cast<double>(pfs_spill));
    out.sim.emplace_back("bytes_flushed", static_cast<double>(flushed));
  }
};

void ReportPhases(const Phases& ph, double setup_s, Result& out) {
  for (const auto& [name, seconds] : ph.phases()) out.metrics.emplace_back(name, seconds);
  out.metrics.emplace_back("total_s", ph.total());
  out.metrics.emplace_back("setup_s", setup_s);
  std::uint64_t allocs = 0;
  const char* names[kRegions] = {"heap.allocs.setup", "heap.allocs.run", "heap.allocs.teardown"};
  for (int r = 0; r < kRegions; ++r) {
    out.metrics.emplace_back(names[r], static_cast<double>(ph.allocs(static_cast<Region>(r))));
    allocs += ph.allocs(static_cast<Region>(r));
  }
  out.metrics.emplace_back("heap_allocs", static_cast<double>(allocs));
  out.metrics.emplace_back("heap.alloc_gb", Gb(ph.bytes()));
}

std::vector<uvs::obs::JobSpec> ObsJobs(uvs::vmpi::Runtime& runtime) {
  std::vector<uvs::obs::JobSpec> jobs;
  for (int p = 0; p < runtime.program_count(); ++p)
    jobs.push_back({p, runtime.ProgramName(p), runtime.IsServer(p), runtime.ProgramSize(p)});
  return jobs;
}

/// The metrics-report export, with obs::Analyze's attribution when
/// `runtime` is given (uvsim --attribution); timed as the obs layer's
/// share of the run. Cluster mode exports without attribution, as
/// uvsim --cluster does.
void AnalyzeAndExport(uvs::obs::Recorder& recorder, uvs::vmpi::Runtime* runtime, uvs::Time now,
                      const Options& opt, Phases& ph) {
  std::string attribution;
  if (runtime != nullptr) {
    attribution = uvs::obs::AttributionJson(uvs::obs::Analyze(recorder, ObsJobs(*runtime), now));
    ph.Mark("obs.analyze_s", kRun);
  }
  const uvs::Status s =
      recorder.WriteMetricsJson(opt.out_dir + "/run-report.json", now, attribution);
  if (!s.ok()) throw std::runtime_error("metrics export: " + s.ToString());
  ph.Mark("obs.export_s", kRun);
}

void AddObsCounts(const uvs::obs::Recorder* recorder, Result& out) {
  if (recorder == nullptr) return;
  double counter_total = 0;
  for (const auto& [name, counter] : recorder->metrics().counters())
    counter_total += static_cast<double>(counter.value());
  out.metrics.emplace_back("obs.spans", static_cast<double>(recorder->span_count()));
  out.metrics.emplace_back("obs.spans_dropped", static_cast<double>(recorder->spans_dropped()));
  out.metrics.emplace_back("obs.counter_total", counter_total);
}

/// One workload's simulation state, built and destroyed in timed phases.
/// Teardown is also valid straight after Setup (set-up-only repeats).
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void Setup(Phases& ph) = 0;
  virtual void Run(Phases& ph) = 0;
  /// Simulated outputs, checks and per-layer counts; not part of the
  /// measured run.
  virtual void Gather(Result& out) = 0;
  virtual void Teardown(Phases& ph) = 0;
};

// --- vpic_ckpt / workflow_rw ----------------------------------------------

/// VPIC-IO checkpoints on UniviStor (DRAM first, spilling through the BB to
/// the PFS), optionally coupled to a BD-CATS reader through the workflow
/// manager with obs on.
class StorageWorkload : public Workload {
 public:
  StorageWorkload(const Options& opt, bool workflow)
      : opt_(opt),
        workflow_(workflow),
        readers_(workflow ? kWriters : 0),
        params_{.steps = workflow ? 5 : 10,
                .vars = 8,
                .bytes_per_var = 32_MiB,
                .compute_time = workflow ? 0.0 : 60.0},
        obs_on_(workflow || opt.trace) {
    // The recorder outlives the scenario: coroutine frames destroyed during
    // engine teardown still emit spans.
    if (obs_on_) recorder_->Install();
  }

  void Setup(Phases& ph) override {
    uvs::workload::ScenarioOptions so;
    so.procs = kWriters + readers_;
    so.workflow_enabled = workflow_;
    so.cluster_params = uvs::hw::CoriPreset(so.procs);
    so.cluster_params.seed = opt_.seed;
    scenario_ = std::make_unique<uvs::workload::Scenario>(so);
    ph.Mark("setup.scenario_s", kSetup);

    system_ = std::make_unique<uvs::univistor::UniviStor>(
        scenario_->runtime(), scenario_->pfs(), scenario_->workflow(), uvs::univistor::Config{});
    driver_ = std::make_unique<uvs::univistor::UniviStorDriver>(*system_);
    ph.Mark("setup.univistor_s", kSetup);

    auto& runtime = scenario_->runtime();
    writer_ = runtime.LaunchProgram("vpic", kWriters);
    vpic_ = std::make_unique<uvs::workload::VpicRun>(*scenario_, writer_, *driver_, params_);
    if (workflow_) {
      const auto reader = runtime.LaunchProgram("bdcats", readers_);
      bdcats_ = std::make_unique<uvs::workload::BdcatsRun>(
          *scenario_, reader, *driver_,
          uvs::workload::BdcatsParams{.producer = params_, .producer_ranks = kWriters});
    }
    vpic_->Start();
    if (bdcats_) bdcats_->Start();
    ph.Mark("setup.launch_s", kSetup);
  }

  void Run(Phases& ph) override {
    uvs::sim::Engine& engine = scenario_->engine();
    engine.Run();
    loop_s_ = ph.Mark("sim.loop_s", kRun);
    if (obs_on_) AnalyzeAndExport(*recorder_, &scenario_->runtime(), engine.Now(), opt_, ph);
  }

  void Gather(Result& out) override {
    const uvs::sim::Engine& engine = scenario_->engine();
    AddEngineCounters(engine, loop_s_, out);
    AddObsCounts(obs_on_ ? recorder_.get() : nullptr, out);
    StorageTotals totals;
    totals.Add(*system_);
    totals.Report(out);
    const uvs::workload::VpicResult v = vpic_->result();
    out.sim.emplace_back("vpic_elapsed", v.elapsed);
    out.sim.emplace_back("vpic_write_time", v.write_time);
    out.sim.emplace_back("vpic_final_flush_wait", v.final_flush_wait);
    out.sim.emplace_back("sim_now", engine.Now());
    bool all_flushed = vpic_->finished() && totals.flushes == params_.steps &&
                       totals.flushed == v.bytes && v.bytes > 0;
    for (int step = 0; step < params_.steps; ++step)
      all_flushed =
          all_flushed && system_->HasPfsCopy(system_->OpenOrCreate(vpic_->StepFileName(step)));
    out.checks.emplace_back("every_checkpoint_flushed_to_pfs", all_flushed);
    if (bdcats_) {
      out.sim.emplace_back("bdcats_read_time", bdcats_->result().read_time);
      out.sim.emplace_back("bdcats_bytes", static_cast<double>(bdcats_->result().bytes));
      out.checks.emplace_back("reader_read_back_every_byte",
                              bdcats_->finished() && bdcats_->result().bytes == v.bytes);
    }
    // Replays at this run's sizes: a writer's DRAM and BB logs as its DHP
    // chain requests them, one record per variable per writer.
    const Bytes per_node = scenario_->cluster().params().node.dram_cache_capacity;
    out.log_replay = {
        .dram_capacity = per_node / scenario_->runtime().RanksOnNode(writer_, 0),
        .bb_capacity = scenario_->cluster().burst_buffer().total_capacity() / kWriters,
        .chunk = system_->config().chunk_size,
        .append = params_.bytes_per_var * params_.vars,
        .piece = params_.bytes_per_var,
        .writers = kWriters};
    out.meta_replay = {
        .producers = kWriters, .records = params_.vars, .len = params_.bytes_per_var};
    out.pool_bytes = params_.bytes_per_var;
    out.pool_stagger = 1e-3;
  }

  void Teardown(Phases& ph) override {
    scenario_->engine().Abandon();  // no-op after a completed run
    bdcats_.reset();
    vpic_.reset();
    driver_.reset();
    system_.reset();
    ph.Mark("teardown.univistor_s", kTeardown);
    scenario_.reset();
    ph.Mark("teardown.scenario_s", kTeardown);
    recorder_.reset();
    ph.Mark("teardown.obs_s", kTeardown);
  }

 private:
  // vpic_ckpt: the paper's 10-step spill run (Fig. 8) at 2048 ranks; 5
  // steps fill the node DRAM caches and later steps spill to the BB.
  // workflow_rw: Fig. 9's 5-step VPIC -> BD-CATS pair, 2048 ranks each.
  static constexpr int kWriters = 2048;

  const Options& opt_;
  const bool workflow_;
  const int readers_;
  const uvs::workload::VpicParams params_;
  const bool obs_on_;
  std::unique_ptr<uvs::obs::Recorder> recorder_ = std::make_unique<uvs::obs::Recorder>();
  std::unique_ptr<uvs::workload::Scenario> scenario_;
  std::unique_ptr<uvs::univistor::UniviStor> system_;
  std::unique_ptr<uvs::univistor::UniviStorDriver> driver_;
  uvs::vmpi::ProgramId writer_ = -1;
  std::unique_ptr<uvs::workload::VpicRun> vpic_;
  std::unique_ptr<uvs::workload::BdcatsRun> bdcats_;
  double loop_s_ = 0;
};

// --- cluster_mix ------------------------------------------------------------

/// 600 small Poisson-arriving jobs under bb-aware scheduling,
/// on uvsim --cluster's testkit-scale machine (small node caches and a
/// small shared BB, so the mix contends).
class ClusterMix : public Workload {
 public:
  explicit ClusterMix(const Options& opt) : opt_(opt) {
    if (opt.trace) recorder_->Install();
  }

  void Setup(Phases& ph) override {
    std::vector<uvs::cluster::JobSpec> jobs =
        uvs::cluster::SampleJobMix(opt_.seed, uvs::cluster::MixParams{.jobs = kJobs});
    ph.Mark("cluster.sample_s", kSetup);

    uvs::hw::ClusterParams params = uvs::hw::CoriPreset(kProcs, kPpn);
    params.node.cores = 8;
    params.node.dram_cache_capacity = 32_MiB;
    params.bb.bb_nodes = 2;
    params.bb.capacity_per_bb_node = 64_MiB;
    params.pfs.osts = 4;
    params.seed = opt_.seed;
    uvs::workload::ScenarioOptions so;
    so.procs = kProcs;
    so.cluster_params = params;
    scenario_ = std::make_unique<uvs::workload::Scenario>(so);
    ph.Mark("setup.scenario_s", kSetup);

    uvs::cluster::ClusterOptions co;
    co.policy = uvs::cluster::Policy::kBbAware;
    co.procs_per_node = kPpn;
    co.solo_workers = 1;
    co.base_config.chunk_size = kChunk;
    sim_ = std::make_unique<uvs::cluster::ClusterSim>(*scenario_, std::move(jobs), co);
    ph.Mark("setup.launch_s", kSetup);
    sim_->WarmSoloBaselines();
    ph.Mark("cluster.warmup_s", kSetup);
  }

  void Run(Phases& ph) override {
    sim_->Run();
    loop_s_ = ph.Mark("sim.loop_s", kRun);
    if (opt_.trace) AnalyzeAndExport(*recorder_, nullptr, scenario_->engine().Now(), opt_, ph);
  }

  void Gather(Result& out) override {
    const uvs::sim::Engine& engine = scenario_->engine();
    AddEngineCounters(engine, loop_s_, out);
    AddObsCounts(opt_.trace ? recorder_.get() : nullptr, out);
    StorageTotals totals;
    for (int j = 0; j < sim_->job_count(); ++j)
      if (const auto* system = sim_->system(j)) totals.Add(*system);
    totals.Report(out);
    Bytes lost = 0;
    uvs::Time last_finish = 0;
    for (const auto& q : sim_->qos()) {
      lost += q.lost_bytes;
      last_finish = std::max(last_finish, q.finish);
    }
    const uvs::cluster::QosSummary summary = sim_->summary();
    out.metrics.emplace_back("cluster.jobs_completed", sim_->completed_jobs());
    out.sim.emplace_back("qos_mean_stretch", summary.mean_stretch);
    out.sim.emplace_back("qos_p50_stretch", summary.p50_stretch);
    out.sim.emplace_back("qos_p99_stretch", summary.p99_stretch);
    out.sim.emplace_back("qos_mean_wait", summary.mean_wait);
    out.sim.emplace_back("qos_p99_wait", summary.p99_wait);
    out.sim.emplace_back("qos_drain_interference", summary.total_drain_interference);
    out.sim.emplace_back("sim_now", engine.Now());
    out.checks.emplace_back("every_job_completed",
                            summary.completed == kJobs && sim_->job_count() == kJobs);
    out.checks.emplace_back("zero_lost_bytes", lost == 0);
    out.checks.emplace_back("within_starvation_horizon",
                            last_finish <= sim_->StarvationHorizon());
    out.checks.emplace_back("bb_reservations_within_capacity",
                            sim_->peak_bb_reserved() <= sim_->bb_capacity());
    // Replays at the mix's sizes: 1 MiB chunks, the default 4 MiB per rank.
    const auto& params = scenario_->cluster().params();
    out.log_replay = {.dram_capacity = params.node.dram_cache_capacity / kPpn,
                      .bb_capacity = scenario_->cluster().burst_buffer().total_capacity() / kPpn,
                      .chunk = kChunk,
                      .append = 4_MiB,
                      .piece = kChunk,
                      .writers = 2048};
    out.meta_replay = {.producers = 2048, .records = 4, .len = kChunk};
    out.pool_bytes = kChunk;
    out.pool_stagger = 1e-4;
  }

  void Teardown(Phases& ph) override {
    scenario_->engine().Abandon();  // no-op after a completed run
    sim_.reset();
    ph.Mark("teardown.univistor_s", kTeardown);
    scenario_.reset();
    ph.Mark("teardown.scenario_s", kTeardown);
    recorder_.reset();
    ph.Mark("teardown.obs_s", kTeardown);
  }

 private:
  static constexpr int kJobs = 600;
  static constexpr int kProcs = 256;
  static constexpr int kPpn = 4;
  // Jobs write 1-8 MiB per rank; the 32 MiB default chunk would leave every
  // per-rank BB log below one chunk and drop the BB layer.
  static constexpr Bytes kChunk = 1_MiB;

  const Options& opt_;
  std::unique_ptr<uvs::obs::Recorder> recorder_ = std::make_unique<uvs::obs::Recorder>();
  std::unique_ptr<uvs::workload::Scenario> scenario_;
  std::unique_ptr<uvs::cluster::ClusterSim> sim_;
  double loop_s_ = 0;
};

std::unique_ptr<Workload> MakeWorkload(const Options& opt) {
  if (opt.workload == "vpic_ckpt") return std::make_unique<StorageWorkload>(opt, false);
  if (opt.workload == "workflow_rw") return std::make_unique<StorageWorkload>(opt, true);
  if (opt.workload == "cluster_mix") return std::make_unique<ClusterMix>(opt);
  throw std::invalid_argument("unknown workload " + opt.workload);
}

/// Set-up seconds of `repeats` set-up-then-teardown cycles. The measured
/// run's set-up is one sample of a few milliseconds; these extra samples
/// make the reported median steady.
std::vector<double> SetupSamples(const Options& opt, int repeats) {
  std::vector<double> samples;
  for (int i = 0; i < repeats; ++i) {
    auto workload = MakeWorkload(opt);
    Phases ph;
    workload->Setup(ph);
    samples.push_back(ph.seconds(kSetup));
    workload->Teardown(ph);
  }
  return samples;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// --- result checks and output ----------------------------------------------

/// Simulated outputs of each workload at kDefaultSeed. A change that keeps
/// the simulation's behaviour keeps these; times compare to 1e-9 relative,
/// byte counts exactly.
struct Golden {
  const char* workload;
  const char* name;
  double value;
};
constexpr Golden kGolden[] = {
#include "golden.inc"
};

bool Matches(const std::string& name, double got, double want) {
  if (name.rfind("bytes", 0) == 0) return got == want;
  return std::fabs(got - want) <= 1e-9 * std::max(1.0, std::fabs(want));
}

void CheckGolden(const Options& opt, Result& out) {
  if (opt.seed != kDefaultSeed) return;
  for (const Golden& g : kGolden) {
    if (opt.workload != g.workload) continue;
    bool ok = false;
    for (const auto& [name, value] : out.sim)
      if (name == g.name) ok = Matches(name, value, g.value);
    out.checks.emplace_back(std::string("golden.") + g.name, ok);
  }
}

void RunReplays(Result& out) {
  out.metrics.emplace_back("storage.log_new_us", LogLifecycleMicros(out.log_replay));
  const MetaTimes meta = MetaIndexNanos(out.meta_replay);
  out.metrics.emplace_back("meta.insert_ns", meta.insert_ns);
  out.metrics.emplace_back("meta.query_ns", meta.query_ns);
  out.metrics.emplace_back("sim.pool_transfer_ns",
                           PoolTransferNanos(out.log_replay.writers, out.pool_bytes,
                                             out.pool_stagger));
}

void PrintJson(const char* key, const Values& values, bool last = false) {
  std::printf("\"%s\": {", key);
  for (std::size_t i = 0; i < values.size(); ++i)
    std::printf("%s\"%s\": %.17g", i > 0 ? ", " : "", values[i].first.c_str(),
                values[i].second);
  std::printf("}%s", last ? "" : ", ");
}

int Main(const Options& opt) {
  Result out;
  const double ref_start = HostRefSeconds();
  std::unique_ptr<Profiler> prof;
  if (opt.trace) prof = std::make_unique<Profiler>(kMaxSamples);
  auto workload = MakeWorkload(opt);
  if (prof) prof->Start(kSampleIntervalUs);
  Phases ph;
  workload->Setup(ph);
  workload->Run(ph);
  workload->Gather(out);
  ph.Skip();
  workload->Teardown(ph);
  if (prof) prof->Stop();
  workload.reset();

  // Cluster set-up includes the solo-baseline warmup (~0.15 s); the others
  // set up in milliseconds.
  std::vector<double> setups = SetupSamples(opt, opt.workload == "cluster_mix" ? 2 : 16);
  setups.push_back(ph.seconds(kSetup));
  ReportPhases(ph, Median(setups), out);
  const double ref_end = HostRefSeconds();

  CheckGolden(opt, out);
  if (prof) {
    out.metrics.emplace_back("host.samples", static_cast<double>(prof->samples()));
    for (const auto& [layer, pct] : prof->SelfShares())
      out.metrics.emplace_back("host." + layer + ".self_pct", pct);
    RunReplays(out);
  }
  out.metrics.emplace_back("host.ref_s", 0.5 * (ref_start + ref_end));
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  out.metrics.emplace_back("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0);

  Values checks;
  for (const auto& [name, ok] : out.checks) checks.emplace_back(name, ok ? 1 : 0);
  std::printf("{");
  PrintJson("metrics", out.metrics);
  PrintJson("sim", out.sim);
  PrintJson("checks", checks, /*last=*/true);
  std::printf("}\n");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) opt.workload = argv[++i];
    else if (arg == "--seed" && has_value) opt.seed = std::strtoull(argv[++i], nullptr, 10);
    else if (arg == "--out" && has_value) opt.out_dir = argv[++i];
    else if (arg == "--trace") opt.trace = true;
    else {
      std::fprintf(stderr,
                   "usage: uvbench --workload vpic_ckpt|workflow_rw|cluster_mix [--seed N] "
                   "[--trace] [--out DIR]\n");
      return 2;
    }
  }
  // Warnings (e.g. PFS lock inflation at scale) would put stderr I/O inside
  // the measured region; UVS_LOG_LEVEL still overrides.
  uvs::SetLogLevel(uvs::LogLevel::kError);
  uvs::InitLogLevelFromEnv();
  try {
    return perfbench::Main(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "uvbench: %s\n", e.what());
    return 1;
  }
}
