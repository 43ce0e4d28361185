#include "src/obs/recorder.hpp"

#include <cassert>
#include <cinttypes>
#include <cstdio>
#include <set>
#include <sstream>
#include <utility>

#include "src/common/json.hpp"

namespace uvs::obs {

using json::JsonEscape;
using json::JsonNumber;

namespace {

/// Microseconds with sub-ns resolution, the Chrome trace time unit.
std::string TraceTs(Time seconds) { return JsonNumber(seconds * 1e6); }

Status WriteWholeFile(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return UnavailableError("cannot open " + path + " for writing");
  const std::size_t written = std::fwrite(body.data(), 1, body.size(), f);
  const int close_rc = std::fclose(f);
  if (written != body.size() || close_rc != 0)
    return UnavailableError("short write to " + path);
  return Status::Ok();
}

}  // namespace

const char* CategoryName(Category cat) {
  switch (cat) {
    case Category::kNone: return "none";
    case Category::kCompute: return "compute";
    case Category::kQueue: return "queue";
    case Category::kDram: return "dram";
    case Category::kBb: return "bb";
    case Category::kPfs: return "pfs";
    case Category::kMeta: return "meta";
    case Category::kNet: return "net";
    case Category::kDegraded: return "degraded";
  }
  return "none";
}

std::string Track::PidName() const {
  if (pid == kSimPid) return "simulator";
  if (pid >= kOstPidBase) return "ost " + std::to_string(pid - kOstPidBase);
  if (pid >= kBbPidBase) return "bb " + std::to_string(pid - kBbPidBase);
  return "node " + std::to_string(pid - kNodePidBase);
}

std::string Track::TidName() const {
  if (tid >= kRankTidBase) {
    const std::int32_t lane = tid - kRankTidBase;
    return "rank " + std::to_string(lane % 100000) + " (prog " +
           std::to_string(lane / 100000) + ")";
  }
  if (tid >= kClusterTidBase) return "cluster job " + std::to_string(tid - kClusterTidBase);
  if (tid >= kMetaQueueTidBase) return "md queue " + std::to_string(tid - kMetaQueueTidBase);
  if (tid >= kPfsIoTidBase) return "pfs file " + std::to_string(tid - kPfsIoTidBase);
  if (tid >= kFlushTidBase) return "flush file " + std::to_string(tid - kFlushTidBase);
  if (tid >= kMetaTidBase) return "md server " + std::to_string(tid - kMetaTidBase);
  return "device";
}

Recorder::~Recorder() { Uninstall(); }

void Recorder::Install() {
  assert(current_ == nullptr && "another obs::Recorder is already installed on this thread");
  current_ = this;
}

void Recorder::Uninstall() {
  if (current_ == this) current_ = nullptr;
}

bool Recorder::MakeRoom() {
  if (!prune_hook_ || pruning_) return false;
  pruning_ = true;
  const std::size_t freed = prune_hook_(*this);
  pruning_ = false;
  return freed > 0;
}

std::size_t Recorder::EraseSpansIf(const std::function<bool(const SpanEvent&)>& drop) {
  const std::size_t before = spans_.size();
  std::erase_if(spans_, drop);
  const std::size_t removed = before - spans_.size();
  spans_pruned_ += removed;
  return removed;
}

void Recorder::Sample(Time now) {
  ++samples_taken_;
  for (const auto& [name, counter] : metrics_.counters())
    series_.push_back(SeriesPoint{now, &name, static_cast<double>(counter.value())});
  for (const auto& [name, gauge] : metrics_.gauges())
    series_.push_back(SeriesPoint{now, &name, gauge.value()});
}

std::string Recorder::ChromeTraceJson() const {
  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",";
    first = false;
    os << "\n";
  };

  // Track-name metadata for every (pid) / (pid, tid) that carries spans.
  std::set<std::int32_t> pids;
  std::set<std::pair<std::int32_t, std::int32_t>> tids;
  for (const auto& span : spans_) {
    pids.insert(span.track.pid);
    tids.insert({span.track.pid, span.track.tid});
  }
  for (std::int32_t pid : pids) {
    sep();
    os << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" << pid
       << ",\"tid\":0,\"args\":{\"name\":\"" << JsonEscape(Track{pid, 0}.PidName())
       << "\"}}";
  }
  for (const auto& [pid, tid] : tids) {
    sep();
    os << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":" << pid << ",\"tid\":" << tid
       << ",\"args\":{\"name\":\"" << JsonEscape(Track{pid, tid}.TidName()) << "\"}}";
  }

  for (const auto& span : spans_) {
    sep();
    os << "{\"ph\":\"X\",\"cat\":\"" << span.category << "\",\"name\":\"" << span.name
       << "\",\"pid\":" << span.track.pid << ",\"tid\":" << span.track.tid
       << ",\"ts\":" << TraceTs(span.start) << ",\"dur\":" << TraceTs(span.end - span.start);
    const bool tagged = span.tag.cat != Category::kNone || span.tag.self.id != 0 ||
                        span.tag.parent.id != 0;
    if (span.bytes != kNoBytes || tagged) {
      os << ",\"args\":{";
      bool first_arg = true;
      auto arg = [&](const char* key) -> std::ostringstream& {
        if (!first_arg) os << ",";
        first_arg = false;
        os << "\"" << key << "\":";
        return os;
      };
      if (span.bytes != kNoBytes) arg("bytes") << span.bytes;
      if (span.tag.cat != Category::kNone) arg("ac") << "\"" << CategoryName(span.tag.cat) << "\"";
      if (span.tag.self.id != 0) arg("id") << span.tag.self.id;
      if (span.tag.parent.id != 0) arg("parent") << span.tag.parent.id;
      os << "}";
    }
    os << "}";
  }

  // Sampled series as counter events on the simulator-global track.
  for (const auto& point : series_) {
    sep();
    os << "{\"ph\":\"C\",\"name\":\"" << JsonEscape(*point.name)
       << "\",\"pid\":" << Track::kSimPid << ",\"tid\":0,\"ts\":" << TraceTs(point.t)
       << ",\"args\":{\"value\":" << JsonNumber(point.value) << "}}";
  }

  os << "\n]}\n";
  return os.str();
}

std::string Recorder::MetricsJson(Time sim_elapsed, const std::string& attribution_json,
                                  const std::string& telemetry_json,
                                  const std::string& slo_json) const {
  std::ostringstream os;
  os << "{\n\"schema\":\"univistor.metrics.v3\",\n";
  os << "\"sim_elapsed_seconds\":" << JsonNumber(sim_elapsed) << ",\n";
  os << "\"span_count\":" << spans_.size() << ",\n";
  os << "\"span_limit\":" << span_limit_ << ",\n";
  os << "\"spans_dropped\":" << spans_dropped_ << ",\n";
  os << "\"spans_pruned\":" << spans_pruned_ << ",\n";
  if (!attribution_json.empty()) os << "\"attribution\":" << attribution_json << ",\n";
  if (!telemetry_json.empty()) os << "\"telemetry\":" << telemetry_json << ",\n";
  if (!slo_json.empty()) os << "\"slo\":" << slo_json << ",\n";

  os << "\"counters\":{";
  bool first = true;
  for (const auto& [name, counter] : metrics_.counters()) {
    if (!first) os << ",";
    first = false;
    os << "\n\"" << JsonEscape(name) << "\":" << counter.value();
  }
  os << "\n},\n";

  os << "\"gauges\":{";
  first = true;
  for (const auto& [name, gauge] : metrics_.gauges()) {
    if (!first) os << ",";
    first = false;
    os << "\n\"" << JsonEscape(name) << "\":" << JsonNumber(gauge.value());
  }
  os << "\n},\n";

  os << "\"distributions\":{";
  first = true;
  for (const auto& [name, dist] : metrics_.distributions()) {
    if (!first) os << ",";
    first = false;
    const RunningStats& s = dist.stats();
    os << "\n\"" << JsonEscape(name) << "\":{\"count\":" << s.count()
       << ",\"mean\":" << JsonNumber(s.mean()) << ",\"min\":" << JsonNumber(s.min())
       << ",\"max\":" << JsonNumber(s.max()) << ",\"stddev\":" << JsonNumber(s.stddev())
       << "}";
  }
  os << "\n},\n";

  os << "\"series\":[";
  first = true;
  for (const auto& point : series_) {
    if (!first) os << ",";
    first = false;
    os << "\n{\"t\":" << JsonNumber(point.t) << ",\"metric\":\"" << JsonEscape(*point.name)
       << "\",\"value\":" << JsonNumber(point.value) << "}";
  }
  os << "\n]\n}\n";
  return os.str();
}

std::string Recorder::SeriesCsv() const {
  std::ostringstream os;
  os << "t,metric,value\n";
  for (const auto& point : series_)
    os << JsonNumber(point.t) << "," << *point.name << "," << JsonNumber(point.value)
       << "\n";
  return os.str();
}

Status Recorder::WriteChromeTrace(const std::string& path) const {
  return WriteWholeFile(path, ChromeTraceJson());
}

Status Recorder::WriteMetricsJson(const std::string& path, Time sim_elapsed,
                                  const std::string& attribution_json,
                                  const std::string& telemetry_json,
                                  const std::string& slo_json) const {
  return WriteWholeFile(path, MetricsJson(sim_elapsed, attribution_json, telemetry_json, slo_json));
}

Status Recorder::WriteSeriesCsv(const std::string& path) const {
  return WriteWholeFile(path, SeriesCsv());
}

}  // namespace uvs::obs
