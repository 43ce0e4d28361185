// Tests for the obs:: tracing and metrics layer: recorder/metrics unit
// behavior, track naming, sampler cadence, and an end-to-end UniviStor run
// validating that the emitted Chrome trace and metrics report are
// well-formed JSON carrying the expected spans and counters.
#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <thread>

#include "src/hw/probes.hpp"
#include "src/obs/recorder.hpp"
#include "src/obs/sampler.hpp"
#include "src/univistor/driver.hpp"
#include "src/univistor/system.hpp"
#include "src/workload/hdf_micro.hpp"
#include "src/workload/scenario.hpp"

namespace uvs {
namespace {

// --- Minimal recursive-descent JSON well-formedness checker. ---

class JsonChecker {
 public:
  static bool Valid(const std::string& text) {
    JsonChecker c(text);
    c.SkipWs();
    if (!c.Value()) return false;
    c.SkipWs();
    return c.p_ == c.end_;
  }

 private:
  explicit JsonChecker(const std::string& text)
      : p_(text.data()), end_(text.data() + text.size()) {}

  void SkipWs() {
    while (p_ != end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r')) ++p_;
  }
  bool Literal(const char* lit) {
    const char* q = p_;
    for (; *lit != '\0'; ++lit, ++q)
      if (q == end_ || *q != *lit) return false;
    p_ = q;
    return true;
  }
  bool String() {
    if (p_ == end_ || *p_ != '"') return false;
    ++p_;
    while (p_ != end_ && *p_ != '"') {
      if (*p_ == '\\') {
        ++p_;
        if (p_ == end_) return false;
      }
      ++p_;
    }
    if (p_ == end_) return false;
    ++p_;  // closing quote
    return true;
  }
  bool Number() {
    const char* start = p_;
    if (p_ != end_ && (*p_ == '-' || *p_ == '+')) ++p_;
    bool digits = false;
    while (p_ != end_ && (std::isdigit(static_cast<unsigned char>(*p_)) || *p_ == '.' ||
                          *p_ == 'e' || *p_ == 'E' || *p_ == '-' || *p_ == '+')) {
      if (std::isdigit(static_cast<unsigned char>(*p_))) digits = true;
      ++p_;
    }
    return digits && p_ != start;
  }
  bool Object() {
    ++p_;  // '{'
    SkipWs();
    if (p_ != end_ && *p_ == '}') return ++p_, true;
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (p_ == end_ || *p_ != ':') return false;
      ++p_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (p_ == end_) return false;
      if (*p_ == ',') {
        ++p_;
        continue;
      }
      if (*p_ == '}') return ++p_, true;
      return false;
    }
  }
  bool Array() {
    ++p_;  // '['
    SkipWs();
    if (p_ != end_ && *p_ == ']') return ++p_, true;
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (p_ == end_) return false;
      if (*p_ == ',') {
        ++p_;
        continue;
      }
      if (*p_ == ']') return ++p_, true;
      return false;
    }
  }
  bool Value() {
    if (p_ == end_) return false;
    switch (*p_) {
      case '{': return Object();
      case '[': return Array();
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }

  const char* p_;
  const char* end_;
};

TEST(JsonChecker, AcceptsAndRejects) {
  EXPECT_TRUE(JsonChecker::Valid(R"({"a":[1,2.5,-3e4],"b":{"c":"x\"y"},"d":null})"));
  EXPECT_TRUE(JsonChecker::Valid("[]"));
  EXPECT_FALSE(JsonChecker::Valid(R"({"a":1,})"));
  EXPECT_FALSE(JsonChecker::Valid(R"({"a":})"));
  EXPECT_FALSE(JsonChecker::Valid("{\"a\":1}{"));
  EXPECT_FALSE(JsonChecker::Valid("\"unterminated"));
}

// --- Metrics registry units. ---

TEST(Metrics, CountersGaugesDistributions) {
  obs::MetricsRegistry registry;
  registry.GetCounter("c").Add();
  registry.GetCounter("c").Add(9);
  EXPECT_EQ(registry.GetCounter("c").value(), 10u);

  registry.GetGauge("g").Set(2.5);
  registry.GetGauge("g").Set(-1.0);
  EXPECT_EQ(registry.GetGauge("g").value(), -1.0);

  auto& dist = registry.GetDistribution("d");
  for (int i = 0; i < 10; ++i) dist.Observe(static_cast<double>(i) + 0.5);
  EXPECT_EQ(dist.stats().count(), 10u);
}

TEST(Metrics, RegistryReferencesAreStable) {
  obs::MetricsRegistry registry;
  obs::Counter& first = registry.GetCounter("stable");
  for (int i = 0; i < 100; ++i) registry.GetCounter("filler-" + std::to_string(i));
  EXPECT_EQ(&first, &registry.GetCounter("stable"));
}

// --- Track naming. ---

TEST(Track, SelfDescribingNames) {
  EXPECT_EQ(obs::Track::Rank(3, 1, 42).PidName(), "node 3");
  EXPECT_EQ(obs::Track::Rank(3, 1, 42).TidName(), "rank 42 (prog 1)");
  EXPECT_EQ(obs::Track::MetaServer(0, 7).TidName(), "md server 7");
  EXPECT_EQ(obs::Track::Flush(2).PidName(), "simulator");
  EXPECT_EQ(obs::Track::Flush(2).TidName(), "flush file 2");
  EXPECT_EQ(obs::Track::PfsIo(1, 0).TidName(), "pfs file 0");
  EXPECT_EQ(obs::Track::BbNode(4).PidName(), "bb 4");
  EXPECT_EQ(obs::Track::Ost(9).PidName(), "ost 9");
  EXPECT_EQ(obs::Track::Ost(9).TidName(), "device");
}

// --- Enable/disable semantics. ---

TEST(Recorder, HelpersAreNoOpsWhenNotInstalled) {
  ASSERT_FALSE(obs::Enabled());
  obs::Count("nobody.home", 5);  // must not crash or allocate a registry
  obs::SetGauge("nobody.home", 1.0);
  obs::Observe("nobody.home", 1.0);

  obs::Recorder recorder;
  EXPECT_FALSE(recorder.installed());
  recorder.Install();
  EXPECT_TRUE(recorder.installed());
  EXPECT_TRUE(obs::Enabled());
  obs::Count("hello", 2);
  recorder.Uninstall();
  EXPECT_FALSE(obs::Enabled());
  obs::Count("hello", 100);  // dropped: recorder detached
  EXPECT_EQ(recorder.metrics().GetCounter("hello").value(), 2u);
}

TEST(Recorder, InstallationIsPerThread) {
  // Worker-pool isolation: a recorder installed on the main thread must be
  // invisible to worker threads, whose runs observe nothing unless they
  // install their own recorder.
  obs::Recorder main_rec;
  main_rec.Install();
  obs::Count("main.counter", 1);

  obs::Recorder worker_rec;
  std::thread worker([&worker_rec] {
    EXPECT_FALSE(obs::Enabled());
    obs::Count("worker.dropped", 7);  // no recorder bound on this thread
    worker_rec.Install();
    EXPECT_EQ(obs::Recorder::Current(), &worker_rec);
    obs::Count("worker.counter", 3);
    worker_rec.Uninstall();
  });
  worker.join();

  EXPECT_EQ(obs::Recorder::Current(), &main_rec);
  obs::Count("main.counter", 1);
  main_rec.Uninstall();
  EXPECT_EQ(main_rec.metrics().GetCounter("main.counter").value(), 2u);
  EXPECT_EQ(main_rec.metrics().GetCounter("worker.counter").value(), 0u);
  EXPECT_EQ(main_rec.metrics().GetCounter("worker.dropped").value(), 0u);
  EXPECT_EQ(worker_rec.metrics().GetCounter("worker.counter").value(), 3u);
}

TEST(Recorder, SpanTimerRecordsEngineTime) {
  sim::Engine engine;
  obs::Recorder recorder;
  recorder.Install();
  engine.Spawn([](sim::Engine& eng) -> sim::Task {
    obs::SpanTimer span(eng, "test", "wait", obs::Track::Ost(0), 128);
    co_await eng.Delay(2.0);
  }(engine));
  engine.Run();
  recorder.Uninstall();
  ASSERT_EQ(recorder.span_count(), 1u);
  const std::string json = recorder.ChromeTraceJson();
  EXPECT_TRUE(JsonChecker::Valid(json)) << json;
  EXPECT_NE(json.find("\"name\":\"wait\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":2000000"), std::string::npos) << "2 s = 2e6 us";
  EXPECT_NE(json.find("\"bytes\":128"), std::string::npos);
}

// --- Sampler cadence and self-termination. ---

TEST(Sampler, SamplesAtIntervalAndStopsWithTheQueue) {
  sim::Engine engine;
  obs::Recorder recorder;
  recorder.Install();
  obs::Sampler sampler(engine, recorder, 1.0);
  int calls = 0;
  sampler.AddSource([&] {
    ++calls;
    obs::SetGauge("test.gauge", static_cast<double>(calls));
  });
  engine.Spawn([](sim::Engine& eng) -> sim::Task { co_await eng.Delay(5.5); }(engine));
  sampler.Kick();
  engine.Run();  // must terminate: the sampler stops re-arming once idle
  recorder.Uninstall();
  EXPECT_GE(calls, 5);
  EXPECT_EQ(recorder.sample_count(), static_cast<std::size_t>(calls));
  EXPECT_NE(recorder.SeriesCsv().find("test.gauge"), std::string::npos);
}

// --- End to end: a small UniviStor run with tracing + metrics on. ---

TEST(ObsEndToEnd, TraceAndMetricsFromMicroWorkload) {
  obs::Recorder recorder;
  recorder.Install();

  univistor::UniviStor::FlushStats flush_stats;
  {
    workload::ScenarioOptions options;
    options.procs = 32;
    workload::Scenario scenario(options);
    univistor::UniviStor system(scenario.runtime(), scenario.pfs(), scenario.workflow(),
                                univistor::Config{});
    univistor::UniviStorDriver driver(system);

    obs::Sampler sampler(scenario.engine(), recorder, 0.25);
    hw::RegisterClusterGauges(sampler, scenario.cluster());
    system.RegisterGauges(sampler);
    sampler.Kick();

    auto app = scenario.runtime().LaunchProgram("app", 32);
    workload::RunHdfMicro(scenario, app, driver,
                          workload::MicroParams{.bytes_per_proc = 8_MiB,
                                                .file_name = "obs.h5"});
    flush_stats = system.flush_stats();
  }
  recorder.Uninstall();

  ASSERT_GT(recorder.span_count(), 0u);
  ASSERT_GT(recorder.sample_count(), 0u);

  const std::string trace = recorder.ChromeTraceJson();
  EXPECT_TRUE(JsonChecker::Valid(trace));
  // Spans from every instrumented subsystem.
  for (const char* cat : {"\"cat\":\"vmpi\"", "\"cat\":\"meta\"", "\"cat\":\"storage\"",
                          "\"cat\":\"hw\"", "\"cat\":\"univistor\""}) {
    EXPECT_NE(trace.find(cat), std::string::npos) << cat;
  }
  for (const char* name : {"\"name\":\"open\"", "\"name\":\"write\"", "\"name\":\"close\"",
                           "\"name\":\"rpc.service\"", "\"name\":\"pfs.write\"",
                           "\"name\":\"ost.access\"", "\"name\":\"flush\""}) {
    EXPECT_NE(trace.find(name), std::string::npos) << name;
  }
  // Track metadata is emitted for the lanes the spans use.
  EXPECT_NE(trace.find("\"process_name\""), std::string::npos);
  EXPECT_NE(trace.find("\"thread_name\""), std::string::npos);
  // Sampled counters ride along as "C" events.
  EXPECT_NE(trace.find("\"ph\":\"C\""), std::string::npos);

  const std::string metrics = recorder.MetricsJson(1.0);
  EXPECT_TRUE(JsonChecker::Valid(metrics));
  const auto& counters = recorder.metrics().counters();
  ASSERT_TRUE(counters.contains("flush.count"));
  ASSERT_TRUE(counters.contains("flush.bytes"));
  // The metrics mirror of FlushStats must agree with the system's summary.
  EXPECT_EQ(counters.at("flush.count").value(),
            static_cast<std::uint64_t>(flush_stats.flushes));
  EXPECT_EQ(counters.at("flush.bytes").value(), flush_stats.bytes_flushed);
  EXPECT_GT(flush_stats.flushes, 0) << "the micro workload flushes at close";
  for (const char* counter : {"vmpi.write.calls", "vmpi.write.bytes", "meta.insert.records",
                              "meta.rpc.calls", "placement.dram.bytes", "placement.appends",
                              "storage.pfs.write.bytes", "hw.ost.bytes"}) {
    EXPECT_TRUE(counters.contains(counter)) << counter;
  }
  // vmpi byte counters account for every client write.
  EXPECT_EQ(counters.at("vmpi.write.bytes").value(), 32u * 8_MiB);
  // Gauges registered by the cluster/system probes were sampled.
  const auto& gauges = recorder.metrics().gauges();
  EXPECT_TRUE(gauges.contains("hw.ost.utilization"));
  EXPECT_TRUE(gauges.contains("storage.dram.used_bytes"));

  const std::string csv = recorder.SeriesCsv();
  EXPECT_EQ(csv.rfind("t,metric,value\n", 0), 0u);
  EXPECT_NE(csv.find("storage.dram.used_bytes"), std::string::npos);
}

}  // namespace
}  // namespace uvs
