// uvsim — command-line front end for the UniviStor simulation stack.
//
// Runs one storage system against one workload on a Cori-like simulated
// machine and prints a timing summary. Examples:
//
//   uvsim --system=univistor --workload=micro --procs=512 --mb=256
//   uvsim --system=univistor --layer=bb --workload=vpic --steps=10
//   uvsim --system=de --workload=workflow --procs=256
//   uvsim --system=lustre --workload=micro --procs=1024 --read
//
// Run `uvsim --help` for the full flag list; `--trace` / `--metrics`
// additionally produce a Chrome trace-event timeline and a machine-readable
// run report (see docs/OBSERVABILITY.md).
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/cluster/arrival.hpp"
#include "src/cluster/simulation.hpp"
#include "src/common/log.hpp"
#include "src/common/strings.hpp"
#include "src/fault/injector.hpp"
#include "src/fault/plan.hpp"
#include "src/hw/probes.hpp"
#include "src/hw/utilization.hpp"
#include "src/obs/attribution.hpp"
#include "src/obs/recorder.hpp"
#include "src/obs/sampler.hpp"
#include "src/storage/pfs.hpp"
#include "src/testkit/invariants.hpp"
#include "src/workload/bdcats.hpp"
#include "src/workload/hdf_micro.hpp"
#include "src/workload/scenario.hpp"
#include "src/workload/system_under_test.hpp"
#include "src/workload/vpic.hpp"
#include "tools/flag_table.hpp"

using namespace uvs;

namespace {

/// Every flag's value; kFlags documents each field.
struct Args {
  std::string system = "univistor", layer = "dram", workload = "micro";
  int procs = 256, mb = 256, steps = 5;
  bool read = false, report = false, check = false;
  bool ia = true, coc = true, adpt = true, la = true;
  std::string faults;
  bool recover = false;
  int ec_k = 0, ec_m = 0;  // 0 = no erasure coding
  bool scrub = false;
  double scrub_interval = -1;   // <0 = workload::kScrubStripeInterval
  std::string trace, metrics;
  double sample_interval = -1;  // <0 = 1 s when observability is on, else 0
  bool attribution = false;
  long long span_limit = -1;    // <0 = the recorder's default cap
  bool slo = false;
  std::string slo_spec;
  std::string flight;           // "" = no flight recorder
  bool live = false;

  // --cluster mode: multi-tenant job mix through cluster::ClusterSim.
  bool cluster = false;
  int jobs = 8;
  std::string csched = "bb";
  double interarrival = 0.01;
  unsigned long long seed = 42;
  bool bb_bound = false;
  double lustre_frac = 0.0, ec_frac = 0.0;
  int bb_mb = 64, osts = 4, ppn = 4, solo_jobs = 1;
  std::string job_file, job_trace;
};

// --- The flag table --------------------------------------------------------

using flags::SetInt;
using flags::SetReal;
using flags::SetSwitch;
using flags::SetText;

std::string SetEc(Args& args, const char* v) {
  const std::string_view spec = v;
  const std::size_t plus = std::min(spec.find('+'), spec.size());
  const auto shards = [](std::string_view s, int& n) {
    const auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), n);
    return ec == std::errc{} && p == s.data() + s.size() && n >= 1;
  };
  if (!shards(spec.substr(0, plus), args.ec_k) || plus == spec.size() ||
      !shards(spec.substr(plus + 1), args.ec_m))
    return "K+M with K,M >= 1";
  return "";
}

std::string SetScrub(Args& args, const char* v) {
  args.scrub = true;
  return v != nullptr ? SetReal<&Args::scrub_interval>(args, v) : "";
}

std::string SetSlo(Args& args, const char* v) {
  args.slo = true;
  return v != nullptr ? SetText<&Args::slo_spec>(args, v) : "";
}

constexpr flags::Flag<Args> kFlags[] = {
    {"--system", "=univistor|de|lustre", SetText<&Args::system>, "storage system under test"},
    {"--layer", "=dram|bb|disk", SetText<&Args::layer>, "UniviStor first cache layer"},
    {"--workload", "=micro|vpic|workflow", SetText<&Args::workload>, "workload to run"},
    {"--procs", "=N", SetInt<&Args::procs, 1>, "client ranks (default 256)"},
    {"--mb", "=N", SetInt<&Args::mb, 1>, "MiB written per process (default 256)"},
    {"--steps", "=N", SetInt<&Args::steps, 1>, "vpic/workflow timesteps (default 5)"},
    {"--read", "", SetSwitch<&Args::read>, "micro: read the file back after writing"},
    {"--report", "", SetSwitch<&Args::report>, "print the device-utilization table"},
    {"--check", "", SetSwitch<&Args::check>, "run the testkit invariant checks; exit 1 on\n"
                                             "a violation"},
    {"--no-ia", "", SetSwitch<&Args::ia, false>, "disable interference-aware flushing"},
    {"--no-coc", "", SetSwitch<&Args::coc, false>, "disable collective open/close"},
    {"--no-adpt", "", SetSwitch<&Args::adpt, false>, "disable adaptive striping"},
    {"--no-la", "", SetSwitch<&Args::la, false>, "disable location-aware reads"},
    {"--faults", "=SPEC", SetText<&Args::faults>, "inject a fault plan, e.g. 'crash@0.5:node=1;\n"
                                                  "ost@1+2:ost=3,factor=0.1' (docs/FAULTS.md)"},
    {"--ec", "=K+M", SetEc, "erasure-code PFS files into K data + M\nparity shards"},
    {"--scrub", "[=S]", SetScrub, "run a parity scrub after the workload,\n"
                                  "pacing S sim seconds between stripes"},
    {"--recover", "", SetSwitch<&Args::recover>, "enable active recovery (retries, re-\n"
                                                 "striping, metadata repartitioning;\n"
                                                 "implies volatile replication)"},
    {"--trace", "=FILE", SetText<&Args::trace>, "write a Chrome trace-event timeline"},
    {"--metrics", "=FILE", SetText<&Args::metrics>, "write the metrics run report as JSON\n"
                                                    "(a .csv path writes the sampled series)"},
    {"--sample-interval", "=S", SetReal<&Args::sample_interval>,
     "gauge sampling period in sim seconds\n(default 1 with observability; 0 = off)"},
    {"--attribution", "", SetSwitch<&Args::attribution>,
     "causal wait-state analysis: per-job time\nattribution, critical path, device USE"},
    {"--span-limit", "=N", SetInt<&Args::span_limit>,
     "cap recorder span memory at N spans\n(cluster: prune boring jobs' spans first)"},
    {"--slo", "[=SPEC]", SetSlo, "cluster: print per-tenant SLO burn-rate\n"
                                 "verdicts; SPEC like 'stretch<=4:budget=0.25'"},
    {"--flight-recorder", "[=FILE]", flags::SetFlightPath<&Args::flight>,
     "dump recent events as JSON on invariant\nfailure, crash or non-zero exit"},
    {"--live", "", SetSwitch<&Args::live>, "cluster: progress ticker per sample tick"},
    {"--cluster", "", SetSwitch<&Args::cluster>, "multi-tenant mode: run a job mix through\n"
                                                 "the cluster scheduler, print per-job QoS"},
    {"--jobs", "=N", SetInt<&Args::jobs, 1>, "cluster: sampled mix size (default 8)"},
    {"--csched", "=fcfs|easy|bb", SetText<&Args::csched>, "cluster: policy (default bb)"},
    {"--interarrival", "=S", SetReal<&Args::interarrival, 0.0>,
     "cluster: mean Poisson interarrival, sim\nseconds (default 0.01; 0 = all at t=0)"},
    {"--seed", "=N", SetInt<&Args::seed, 0>, "cluster: mix sampling seed (default 42)"},
    {"--bb-bound", "", SetSwitch<&Args::bb_bound>, "cluster: sample a BB-heavy mix"},
    {"--lustre-frac", "=F", SetReal<&Args::lustre_frac, 0.0, 1.0>,
     "cluster: fraction of Lustre jobs"},
    {"--ec-frac", "=F", SetReal<&Args::ec_frac, 0.0, 1.0>,
     "cluster: fraction of erasure-coded jobs"},
    {"--bb-mb", "=N", SetInt<&Args::bb_mb, 0>, "cluster: BB MiB per BB node (default 64)"},
    {"--osts", "=N", SetInt<&Args::osts, 1>, "cluster: PFS OSTs (default 4)"},
    {"--ppn", "=N", SetInt<&Args::ppn, 1>, "cluster: client ranks per node (default 4)"},
    {"--solo-jobs", "=N", SetInt<&Args::solo_jobs, 0>,
     "cluster: solo-baseline warmup threads\n(0 = all hardware threads; default 1)"},
    {"--job-file", "=FILE", SetText<&Args::job_file>, "cluster: read the mix from a job trace"},
    {"--job-trace", "=FILE", SetText<&Args::job_trace>, "cluster: write the JSON job trace"},
};

// --- Shared run steps ------------------------------------------------------

double ScrubInterval(const Args& args) {
  return args.scrub_interval >= 0 ? args.scrub_interval : workload::kScrubStripeInterval;
}

/// The --ec shard counts; the default (off) config without --ec.
univistor::Config::EcConfig EcConfig(const Args& args) {
  if (args.ec_k == 0) return {};
  return {.enabled = true, .data_shards = args.ec_k, .parity_shards = args.ec_m};
}

void PrintSimulated(const sim::Engine& engine) {
  std::printf("simulated %s in %llu events\n", HumanTime(engine.Now()).c_str(),
              static_cast<unsigned long long>(engine.processed_events()));
}

void PrintEcStats(const storage::Pfs& pfs) {
  const auto& e = pfs.ec_stats();
  std::printf("ec: rmw %llu stripes (%s read, %s parity) | degraded %llu reads (%s) | "
              "rebuilt %s | scrub %llu passes, %llu stripes, %llu repairs | lost %s\n",
              static_cast<unsigned long long>(e.rmw_stripes),
              HumanBytes(e.rmw_read_bytes).c_str(), HumanBytes(e.parity_bytes).c_str(),
              static_cast<unsigned long long>(e.degraded_reads),
              HumanBytes(e.degraded_read_bytes).c_str(), HumanBytes(e.rebuilt_bytes).c_str(),
              static_cast<unsigned long long>(e.scrub_passes),
              static_cast<unsigned long long>(e.scrub_stripes),
              static_cast<unsigned long long>(e.scrub_repairs),
              HumanBytes(e.lost_bytes).c_str());
}

/// Arms the --faults plan before the run starts so its events interleave
/// with writes, flushes and reads (docs/FAULTS.md); `attach` routes the
/// plan's crashes. Leaves `injector` empty without a plan; false on a bad
/// plan.
bool ArmFaults(const Args& args, workload::Scenario& scenario,
               const std::function<void(fault::Injector&)>& attach,
               std::unique_ptr<fault::Injector>& injector) {
  if (args.faults.empty()) return true;
  auto plan = fault::ParsePlan(args.faults);
  if (!plan.ok()) {
    std::fprintf(stderr, "uvsim: --faults: %s\n", plan.status().ToString().c_str());
    return false;
  }
  injector = std::make_unique<fault::Injector>(scenario.engine(), *plan);
  attach(*injector);
  workload::WireEcFaults(*injector, scenario, args.recover, ScrubInterval(args));
  injector->Arm();
  std::printf("faults: %s\n", plan->ToString().c_str());
  return true;
}

/// Prints the --check verdict; on violations dumps the flight recorder
/// and returns exit code 1.
int ReportCheck(const testkit::InvariantReport& report, Time now) {
  if (report.ok()) {
    std::printf("check: all invariants hold\n");
    return 0;
  }
  std::fprintf(stderr, "uvsim: invariant violations:\n%s", report.ToString().c_str());
  if (Status fs = testkit::DumpInvariantFailure(report, now); !fs.ok())
    std::fprintf(stderr, "uvsim: flight dump failed: %s\n", fs.ToString().c_str());
  return 1;
}

/// Writes --trace and --metrics, then warns when the span cap dropped
/// spans. Returns the exit code.
int Export(const Args& args, const obs::Recorder& recorder, Time now,
           const std::string& attribution_json, const std::string& telemetry_json,
           const std::string& slo_json) {
  const auto failed = [](const std::string& path, const Status& s) {
    std::fprintf(stderr, "uvsim: writing %s: %s\n", path.c_str(), s.ToString().c_str());
    return 1;
  };
  if (!args.trace.empty()) {
    if (Status s = recorder.WriteChromeTrace(args.trace); !s.ok()) return failed(args.trace, s);
    std::printf("trace: %s (%zu spans, %zu samples)\n", args.trace.c_str(),
                recorder.span_count(), recorder.sample_count());
  }
  if (!args.metrics.empty()) {
    const bool csv = args.metrics.size() >= 4 &&
                     args.metrics.compare(args.metrics.size() - 4, 4, ".csv") == 0;
    Status s = csv ? recorder.WriteSeriesCsv(args.metrics)
                   : recorder.WriteMetricsJson(args.metrics, now, attribution_json,
                                               telemetry_json, slo_json);
    if (!s.ok()) return failed(args.metrics, s);
    std::printf("metrics: %s\n", args.metrics.c_str());
  }
  if (recorder.spans_dropped() > 0) {
    const std::string pruned =
        args.cluster ? " (" + std::to_string(recorder.spans_pruned()) + " pruned by tail retention)"
                     : "";
    std::fprintf(stderr,
                 "uvsim: warning: %llu spans dropped at span cap %zu%s — trace detail is "
                 "incomplete; raise --span-limit\n",
                 static_cast<unsigned long long>(recorder.spans_dropped()),
                 recorder.span_limit(), pruned.c_str());
  }
  return 0;
}

/// Multi-tenant mode: sample (or read) a job mix, run it through
/// cluster::ClusterSim under the chosen policy, print per-job QoS and the
/// mix rollup, optionally dump the deterministic JSON job trace.
int RunCluster(const Args& args) {
  obs::Recorder recorder;
  const bool obs_on = !args.trace.empty() || !args.metrics.empty();
  if (args.span_limit >= 0) recorder.SetSpanLimit(static_cast<std::size_t>(args.span_limit));
  if (obs_on) recorder.Install();

  const auto policy = cluster::ParsePolicy(args.csched);
  if (!policy.ok()) {
    std::fprintf(stderr, "uvsim: --csched: %s\n", policy.status().ToString().c_str());
    return 2;
  }

  // Testkit-scale machine: small per-node caches and a small shared BB so
  // the mix genuinely contends (a Cori-sized BB never binds at these job
  // sizes and every policy degenerates to FCFS).
  hw::ClusterParams params = hw::CoriPreset(args.procs, args.ppn);
  params.node.cores = 8;
  params.node.dram_cache_capacity = 32_MiB;
  params.bb.bb_nodes = 2;
  params.bb.capacity_per_bb_node = static_cast<Bytes>(args.bb_mb) * 1_MiB;
  params.pfs.osts = args.osts;
  params.seed = static_cast<std::uint64_t>(args.seed);
  workload::Scenario scenario({.procs = args.procs,
                               .policy = sched::PlacementPolicy::kInterferenceAware,
                               .cluster_params = params});

  const double interval =
      args.sample_interval >= 0 ? args.sample_interval : ((obs_on || args.live) ? 1.0 : 0.0);
  obs::Sampler sampler(scenario.engine(), recorder, interval);
  if (obs_on) hw::RegisterClusterGauges(sampler, scenario.cluster());

  std::vector<cluster::JobSpec> jobs;
  if (!args.job_file.empty()) {
    std::ifstream in(args.job_file);
    if (!in) {
      std::fprintf(stderr, "uvsim: cannot read --job-file=%s\n", args.job_file.c_str());
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    auto parsed = cluster::ParseJobTrace(text.str());
    if (!parsed.ok()) {
      std::fprintf(stderr, "uvsim: --job-file: %s\n", parsed.status().ToString().c_str());
      return 2;
    }
    jobs = *std::move(parsed);
  } else {
    jobs = cluster::SampleJobMix(static_cast<std::uint64_t>(args.seed),
                                 {.jobs = args.jobs,
                                  .mean_interarrival = args.interarrival,
                                  .bb_bound = args.bb_bound,
                                  .lustre_fraction = args.lustre_frac,
                                  .ec_fraction = args.ec_frac});
  }
  if (jobs.empty()) {
    std::fprintf(stderr, "uvsim: empty job mix\n");
    return 2;
  }

  cluster::ClusterOptions cluster_options;
  cluster_options.policy = *policy;
  cluster_options.procs_per_node = args.ppn;
  cluster_options.solo_workers = args.solo_jobs;
  // Jobs at this scale write 1-8 MiB per rank; the Cori-scale 32 MiB
  // default chunk would make every per-rank BB log come out below one
  // chunk and silently drop the BB layer even under a full reservation.
  cluster_options.base_config.chunk_size = 1_MiB;
  // Every UniviStor job in the mix erasure-codes its PFS files; --ec-frac
  // instead marks a sampled subset (with the 4+2 default shard counts).
  cluster_options.base_config.ec = EcConfig(args);
  // Telemetry is always-on whenever anything observes the run: --slo asks
  // for it explicitly, and a trace/metrics export should carry the
  // telemetry + slo blocks without extra flags.
  cluster_options.telemetry.enabled = args.slo || obs_on;
  if (!args.slo_spec.empty()) {
    auto specs = obs::ParseSloSpecs(args.slo_spec);
    if (!specs.ok()) {
      std::fprintf(stderr, "uvsim: --slo: %s\n", specs.status().ToString().c_str());
      return 2;
    }
    cluster_options.telemetry.slos = *std::move(specs);
  }
  cluster::ClusterSim sim(scenario, std::move(jobs), cluster_options);

  if (args.live)
    sampler.AddSource([&sim, &scenario] {
      std::printf("live: t=%s jobs %d/%d done, %d arrived | bb %s of %s\n",
                  HumanTime(scenario.engine().Now()).c_str(), sim.completed_jobs(),
                  sim.job_count(), sim.arrived_jobs(),
                  HumanBytes(sim.peak_bb_reserved()).c_str(),
                  HumanBytes(sim.bb_capacity()).c_str());
    });

  std::unique_ptr<fault::Injector> injector;
  if (!ArmFaults(args, scenario, [&sim](fault::Injector& inj) { sim.AttachInjector(inj); },
                 injector))
    return 2;

  std::printf("uvsim cluster: policy=%s jobs=%d seed=%llu nodes=%d bb=%s\n",
              cluster::PolicyName(*policy), sim.job_count(),
              static_cast<unsigned long long>(args.seed),
              scenario.cluster().node_count(), HumanBytes(sim.bb_capacity()).c_str());

  sampler.Kick();
  sim.Run();
  const bool erasure = args.ec_k > 0 || args.ec_frac > 0;
  if (args.scrub && erasure) workload::RunFinalScrub(scenario, ScrubInterval(args));

  std::printf("%4s %-10s %-9s %5s %8s %9s %9s %8s %9s %10s\n", "job", "kind", "system",
              "procs", "arrival", "wait", "stretch", "bb", "drain-if", "lost");
  for (const auto& q : sim.qos()) {
    const cluster::JobSpec& spec = sim.spec(q.id);
    std::printf("%4d %-10s %-9s %5d %8.3f %9.3f %9.2f %8s %9.3f %10s\n", q.id,
                cluster::JobKindName(spec.kind), cluster::JobSystemName(spec.system),
                spec.procs, q.arrival, q.wait(), q.stretch(),
                HumanBytes(q.bb_granted).c_str(), q.drain_interference,
                HumanBytes(q.lost_bytes).c_str());
  }
  const cluster::QosSummary summary = sim.summary();
  std::printf("qos: %d/%d completed | stretch mean %.2f p50 %.2f p99 %.2f | "
              "wait mean %.3f p99 %.3f | drain interference %s | peak BB %s of %s\n",
              summary.completed, summary.jobs, summary.mean_stretch, summary.p50_stretch,
              summary.p99_stretch, summary.mean_wait, summary.p99_wait,
              HumanTime(summary.total_drain_interference).c_str(),
              HumanBytes(sim.peak_bb_reserved()).c_str(),
              HumanBytes(sim.bb_capacity()).c_str());
  if (erasure) PrintEcStats(scenario.pfs());
  if (args.slo && sim.telemetry_enabled()) {
    std::printf("%-16s %8s %9s %10s %10s %7s %9s\n", "slo (cluster)", "budget", "consumed",
                "burn-fast", "burn-slow", "alerts", "verdict");
    for (const obs::SloTracker& tracker : sim.cluster_slos())
      std::printf("%-16s %8.3g %9.2f %10.2f %10.2f %7llu %9s\n",
                  tracker.spec().Label().c_str(), tracker.spec().budget,
                  tracker.budget_consumed(), tracker.peak_fast_burn(),
                  tracker.peak_slow_burn(),
                  static_cast<unsigned long long>(tracker.alerts()), tracker.verdict());
    const obs::QuantileSketch stretch = sim.ClusterStretchSketch();
    std::printf("telemetry: stretch p50 %.3f p99 %.3f (sketch, rel err %.0f%%; "
                "exact %.3f / %.3f)\n",
                stretch.Quantile(0.5), stretch.Quantile(0.99),
                100.0 * obs::QuantileSketch::kRelativeError, summary.p50_stretch,
                summary.p99_stretch);
  }
  PrintSimulated(scenario.engine());

  if (args.check) {
    testkit::InvariantReport report;
    testkit::CheckClusterRun(scenario, sim, erasure, injector != nullptr, report);
    if (const int rc = ReportCheck(report, scenario.engine().Now()); rc != 0) return rc;
  }
  if (!args.job_trace.empty()) {
    std::ofstream out(args.job_trace);
    if (!out) {
      std::fprintf(stderr, "uvsim: cannot write --job-trace=%s\n", args.job_trace.c_str());
      return 1;
    }
    out << sim.JobTraceJson();
    std::printf("job trace: %s\n", args.job_trace.c_str());
  }
  const bool telemetry = sim.telemetry_enabled() && !args.metrics.empty();
  return Export(args, recorder, scenario.engine().Now(), "",
                telemetry ? sim.TelemetryJson() : "", telemetry ? sim.SloJson() : "");
}

int Run(const Args& args) {
  if (args.cluster) return RunCluster(args);
  if (args.ec_k > 0 && args.system != "univistor") {
    std::fprintf(stderr, "uvsim: --ec needs --system=univistor\n");
    return 2;
  }
  using workload::SystemKind;
  const SystemKind kind = args.system == "de"       ? SystemKind::kDataElevator
                          : args.system == "lustre" ? SystemKind::kLustre
                                                    : SystemKind::kUniviStor;
  if (kind == SystemKind::kUniviStor && args.system != "univistor") {
    std::fprintf(stderr, "unknown --system=%s\n", args.system.c_str());
    return 2;
  }
  // The recorder outlives the scenario (spans are emitted from coroutine
  // frames destroyed during engine teardown).
  obs::Recorder recorder;
  const bool obs_on = !args.trace.empty() || !args.metrics.empty() || args.attribution;
  if (args.span_limit >= 0) recorder.SetSpanLimit(static_cast<std::size_t>(args.span_limit));
  if (obs_on) recorder.Install();

  workload::Scenario scenario({.procs = args.procs,
                               .policy = kind == SystemKind::kUniviStor && args.ia
                                             ? sched::PlacementPolicy::kInterferenceAware
                                             : sched::PlacementPolicy::kCfs,
                               .workflow_enabled = args.workload == "workflow"});
  obs::Sampler sampler(scenario.engine(), recorder,
                       args.sample_interval >= 0 ? args.sample_interval : (obs_on ? 1.0 : 0.0));
  if (obs_on) hw::RegisterClusterGauges(sampler, scenario.cluster());

  univistor::Config config;
  config.collective_open_close = args.coc;
  config.adaptive_striping = args.adpt;
  config.location_aware_reads = args.la;
  config.interference_aware_flush = args.ia;
  config.first_cache_layer = args.layer == "bb"     ? hw::Layer::kSharedBurstBuffer
                             : args.layer == "disk" ? hw::Layer::kPfs
                                                    : hw::Layer::kDram;
  config.recovery.enabled = args.recover;
  config.replicate_volatile = args.recover;
  config.ec = EcConfig(args);
  const workload::SystemUnderTest sut = workload::BuildSystem(kind, scenario, config);
  univistor::UniviStor* system = sut.univistor();
  if (obs_on && system != nullptr) system->RegisterGauges(sampler);
  vmpi::AdioDriver& driver = sut.driver();

  std::printf("uvsim: system=%s layer=%s workload=%s procs=%d\n", args.system.c_str(),
              args.layer.c_str(), args.workload.c_str(), args.procs);

  std::unique_ptr<fault::Injector> injector;
  if (!ArmFaults(args, scenario,
                 [&](fault::Injector& inj) { sut.AttachInjector(inj, scenario); }, injector))
    return 2;

  const Bytes bytes_per_var = static_cast<Bytes>(args.mb) * 1_MiB / 8;
  if (args.workload == "micro") {
    const auto app = scenario.runtime().LaunchProgram("app", args.procs);
    workload::MicroParams params{.bytes_per_proc = static_cast<Bytes>(args.mb) * 1_MiB,
                                 .file_name = "uvsim.h5"};
    if (args.read) {
      sampler.Kick();
      workload::RunHdfMicro(scenario, app, driver, params);
      params.read = true;
    }
    sampler.Kick();
    const auto t = workload::RunHdfMicro(scenario, app, driver, params);
    std::printf("open %s | io %s | close %s | elapsed %s | rate %s\n",
                HumanTime(t.open).c_str(), HumanTime(t.io).c_str(),
                HumanTime(t.close).c_str(), HumanTime(t.elapsed).c_str(),
                HumanRate(t.rate()).c_str());
  } else if (args.workload == "vpic") {
    const auto app = scenario.runtime().LaunchProgram("vpic", args.procs);
    sampler.Kick();
    const auto r = workload::RunVpic(
        scenario, app, driver,
        {.steps = args.steps, .vars = 8, .bytes_per_var = bytes_per_var, .compute_time = 60.0});
    std::printf("write %s | final flush wait %s | total I/O %s | elapsed %s\n",
                HumanTime(r.write_time).c_str(), HumanTime(r.final_flush_wait).c_str(),
                HumanTime(r.total_io_time).c_str(), HumanTime(r.elapsed).c_str());
  } else if (args.workload == "workflow") {
    const auto writer = scenario.runtime().LaunchProgram("vpic", args.procs / 2);
    const auto reader = scenario.runtime().LaunchProgram("bdcats", args.procs / 2);
    const workload::VpicParams params{
        .steps = args.steps, .vars = 8, .bytes_per_var = bytes_per_var, .compute_time = 0.0};
    workload::VpicRun vpic(scenario, writer, driver, params);
    workload::BdcatsRun bdcats(scenario, reader, driver,
                               {.producer = params, .producer_ranks = args.procs / 2});
    vpic.Start();
    bdcats.Start();
    sampler.Kick();
    scenario.engine().Run();
    std::printf("producer writes %s | consumer reads %s | workflow elapsed %s\n",
                HumanTime(vpic.result().write_time).c_str(),
                HumanTime(bdcats.result().read_time).c_str(),
                HumanTime(scenario.engine().Now()).c_str());
  } else {
    std::fprintf(stderr, "unknown --workload=%s\n", args.workload.c_str());
    return 2;
  }
  if (args.scrub && args.ec_k > 0) workload::RunFinalScrub(scenario, ScrubInterval(args));

  if (system != nullptr && system->flush_stats().flushes > 0) {
    const auto& f = system->flush_stats();
    std::printf("flush: %d flushes, %s, last took %s\n", f.flushes,
                HumanBytes(f.bytes_flushed).c_str(),
                HumanTime(f.last_flush_duration).c_str());
  }
  if (injector != nullptr) {
    const auto& s = injector->stats();
    std::printf("faults: %llu crashes, %llu ost windows, %llu bb windows, "
                "%llu timeout windows | degraded %s (ost) %s (bb)\n",
                static_cast<unsigned long long>(s.crashes),
                static_cast<unsigned long long>(s.ost_windows),
                static_cast<unsigned long long>(s.bb_windows),
                static_cast<unsigned long long>(s.timeout_windows),
                HumanTime(scenario.cluster().pfs().degraded_seconds()).c_str(),
                HumanTime(scenario.cluster().burst_buffer().degraded_seconds()).c_str());
  }
  if (system != nullptr && (injector != nullptr || args.recover)) {
    std::printf("recovery: %llu flush retries (%s backoff), %s re-striped, "
                "%llu metadata records repartitioned, %s safe-mode, %s lost\n",
                static_cast<unsigned long long>(system->flush_retries()),
                HumanTime(system->backoff_seconds()).c_str(),
                HumanBytes(system->restriped_bytes()).c_str(),
                static_cast<unsigned long long>(system->repartitioned_records()),
                HumanBytes(system->safe_mode_bytes()).c_str(),
                HumanBytes(system->lost_bytes()).c_str());
  }
  if (args.ec_k > 0) PrintEcStats(scenario.pfs());
  PrintSimulated(scenario.engine());

  // Kernel-health counters, surfaced in the metrics run report alongside
  // the simulation-level metrics (see docs/PERFORMANCE.md).
  const sim::Engine& engine = scenario.engine();
  obs::Count("sim.events_processed", engine.processed_events());
  obs::Count("sim.events_cancelled", engine.cancelled_events());
  obs::Count("sim.heap_peak", engine.heap_peak());
  obs::Count("sim.frames_reclaimed", engine.frames_reclaimed());
  obs::SetGauge("sim.live_processes", static_cast<double>(engine.live_processes()));
  if (args.check) {
    const bool fault_plan = injector != nullptr;
    const Bytes bound = fault_plan && system != nullptr
                            ? testkit::ExpectedLostBytes(*system, scenario.runtime())
                            : 0;
    testkit::InvariantReport report;
    testkit::CheckSingleRun(scenario, system, args.ec_k > 0, fault_plan, bound, report);
    if (const int rc = ReportCheck(report, engine.Now()); rc != 0) return rc;
  }
  if (args.report)
    std::printf("%s", hw::CollectUtilization(scenario.cluster()).ToString().c_str());

  // Close any open degradation windows so they appear as spans before the
  // analysis and the trace/metrics exports (totals are unchanged).
  if (obs_on) {
    scenario.cluster().pfs().FlushDegradeSpans();
    scenario.cluster().burst_buffer().FlushDegradeSpans();
  }
  std::string attribution_json;
  if (args.attribution) {
    std::vector<obs::JobSpec> jobs;
    vmpi::Runtime& runtime = scenario.runtime();
    for (int p = 0; p < runtime.program_count(); ++p)
      jobs.push_back({p, runtime.ProgramName(p), runtime.IsServer(p), runtime.ProgramSize(p)});
    const obs::Report attribution = obs::Analyze(recorder, jobs, engine.Now());
    std::printf("%s", obs::ToText(attribution).c_str());
    if (recorder.spans_dropped() > 0)
      std::printf("attribution: %llu spans dropped at cap %zu — categories "
                  "undercount accordingly\n",
                  static_cast<unsigned long long>(recorder.spans_dropped()),
                  recorder.span_limit());
    attribution_json = obs::AttributionJson(attribution);
  }
  return Export(args, recorder, engine.Now(), attribution_json, "", "");
}

}  // namespace

int main(int argc, char** argv) {
  InitLogLevelFromEnv();
  const Args args = flags::Parse(argc, argv, "uvsim", kFlags,
                                 "Environment: UVS_LOG_LEVEL=trace|debug|info|warn|error|off\n");
  // The flight recorder brackets the whole run so a dump fires no matter
  // which path exits non-zero (invariant failure, node crash, exception).
  obs::FlightRecorder flight;
  if (!args.flight.empty()) {
    flight.SetDumpPath(args.flight);
    flight.Install();
  }
  // An exception escaping the simulation (engine rethrow of a process
  // failure, bad configuration) must not look like a successful run.
  int rc = 1;
  try {
    rc = Run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "uvsim: uncaught exception: %s\n", e.what());
    obs::FlightNote(0, "crash", e.what());
  } catch (...) {
    std::fprintf(stderr, "uvsim: uncaught non-standard exception\n");
    obs::FlightNote(0, "crash", "non-standard exception");
  }
  // Earlier dumps (invariant failure, node crash) keep their more specific
  // reason; "nonzero-exit" is the backstop for every other failing path.
  if (rc != 0 && flight.installed()) {
    if (flight.dumps() == 0)
      if (Status s = flight.Dump("nonzero-exit"); !s.ok())
        std::fprintf(stderr, "uvsim: flight dump failed: %s\n", s.ToString().c_str());
    if (flight.dumps() > 0)
      std::fprintf(stderr, "uvsim: flight recorder dumped to %s (reason: %s)\n",
                   flight.dump_path().c_str(), flight.last_reason().c_str());
  }
  return rc;
}
