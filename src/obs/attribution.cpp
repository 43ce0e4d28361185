#include "src/obs/attribution.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <sstream>
#include <unordered_map>

#include "src/common/json.hpp"
#include "src/common/strings.hpp"
#include "src/common/table.hpp"

namespace uvs::obs {

using json::JsonEscape;
using json::JsonNumber;

namespace {

// Attribution resolution: two instants closer than this are the same
// boundary. Simulated times are seconds with sub-microsecond structure;
// picosecond granularity is far below anything the models produce.
constexpr Time kEps = 1e-12;

/// When several tagged spans overlap an instant, the most specific
/// transfer wins the blame: a rank waiting on the PFS *through* a queue
/// span is PFS-bound, not queue-bound.
int Priority(Category c) {
  switch (c) {
    case Category::kPfs: return 7;
    case Category::kBb: return 6;
    case Category::kDram: return 5;
    case Category::kMeta: return 4;
    case Category::kNet: return 3;
    case Category::kQueue: return 2;
    case Category::kDegraded: return 1;
    case Category::kCompute:
    case Category::kNone: return 0;
  }
  return 0;
}

struct Interval {
  Time a = 0;
  Time b = 0;
};

/// Sorted, merged union; input need not be sorted.
std::vector<Interval> UnionOf(std::vector<Interval> v) {
  std::sort(v.begin(), v.end(),
            [](const Interval& x, const Interval& y) { return x.a < y.a; });
  std::vector<Interval> out;
  for (const Interval& iv : v) {
    if (iv.b <= iv.a) continue;
    if (!out.empty() && iv.a <= out.back().b + kEps)
      out.back().b = std::max(out.back().b, iv.b);
    else
      out.push_back(iv);
  }
  return out;
}

Time TotalSeconds(const std::vector<Interval>& v) {
  Time t = 0;
  for (const Interval& iv : v) t += iv.b - iv.a;
  return t;
}

bool Covers(const std::vector<Interval>& sorted_union, Time a, Time b) {
  const Time mid = (a + b) / 2;
  for (const Interval& iv : sorted_union) {
    if (iv.a > mid) break;
    if (mid < iv.b) return true;
  }
  return false;
}

using SpanIndex = std::size_t;

/// Spans grouped per track plus the causal indexes shared by the
/// attribution sweep and the critical-path walk.
struct SpanDb {
  const std::vector<Recorder::SpanEvent>* spans = nullptr;
  std::map<std::pair<std::int32_t, std::int32_t>, std::vector<SpanIndex>> by_track;
  std::unordered_map<std::uint32_t, SpanIndex> by_self_id;
  std::unordered_map<std::uint32_t, std::vector<SpanIndex>> children;
  std::vector<Interval> degraded;  // union over every device's windows

  const Recorder::SpanEvent& at(SpanIndex i) const { return (*spans)[i]; }
};

SpanDb BuildDb(const Recorder& recorder) {
  SpanDb db;
  db.spans = &recorder.spans();
  std::vector<Interval> degraded;
  for (SpanIndex i = 0; i < db.spans->size(); ++i) {
    const auto& s = (*db.spans)[i];
    db.by_track[{s.track.pid, s.track.tid}].push_back(i);
    if (s.tag.self.id != 0) db.by_self_id.emplace(s.tag.self.id, i);
    if (s.tag.parent.id != 0) db.children[s.tag.parent.id].push_back(i);
    if (s.tag.cat == Category::kDegraded) degraded.push_back({s.start, s.end});
  }
  // Cross-track causal edges (e.g. close -> flush). Links may name span
  // ids that were never emitted (a zero-byte flush returns early); those
  // resolve to nothing later, which is fine.
  for (const CausalLink& link : recorder.links())
    db.children[link.parent].push_back(db.by_self_id.count(link.child) != 0
                                           ? db.by_self_id[link.child]
                                           : static_cast<SpanIndex>(-1));
  for (auto& [id, kids] : db.children) {
    kids.erase(std::remove(kids.begin(), kids.end(), static_cast<SpanIndex>(-1)), kids.end());
    std::sort(kids.begin(), kids.end());
    kids.erase(std::unique(kids.begin(), kids.end()), kids.end());
  }
  db.degraded = UnionOf(std::move(degraded));
  return db;
}

/// Exact partition of one rank's window [min span start, max span end]:
/// interval sweep over its tagged spans; the highest-priority active span
/// wins each elementary interval and splits it ideal/(ideal+queue)-style;
/// uncovered time is compute. See docs/OBSERVABILITY.md.
RankBreakdown AnalyzeRank(const SpanDb& db, const std::vector<SpanIndex>& track_spans,
                          int rank) {
  RankBreakdown out;
  out.rank = rank;
  if (track_spans.empty()) return out;

  Time lo = db.at(track_spans.front()).start, hi = db.at(track_spans.front()).end;
  std::vector<SpanIndex> tagged;
  for (SpanIndex i : track_spans) {
    const auto& s = db.at(i);
    lo = std::min(lo, s.start);
    hi = std::max(hi, s.end);
    if (s.tag.cat != Category::kNone && s.tag.cat != Category::kDegraded) tagged.push_back(i);
  }
  out.window_start = lo;
  out.window_end = hi;
  if (hi - lo <= kEps) return out;

  // Elementary boundaries: every tagged-span endpoint plus every degraded
  // boundary inside the window, so each elementary interval is either
  // fully in or fully out of any span and of the degraded union.
  std::vector<Time> bounds{lo, hi};
  for (SpanIndex i : tagged) {
    const auto& s = db.at(i);
    if (s.start > lo && s.start < hi) bounds.push_back(s.start);
    if (s.end > lo && s.end < hi) bounds.push_back(s.end);
  }
  for (const Interval& iv : db.degraded) {
    if (iv.a > lo && iv.a < hi) bounds.push_back(iv.a);
    if (iv.b > lo && iv.b < hi) bounds.push_back(iv.b);
  }
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end(),
                           [](Time a, Time b) { return b - a <= kEps; }),
               bounds.end());

  // Sweep with an active set; boundaries include every span end, so after
  // pruning, every active span covers the whole elementary interval.
  std::sort(tagged.begin(), tagged.end(), [&](SpanIndex x, SpanIndex y) {
    const auto &sx = db.at(x), &sy = db.at(y);
    if (sx.start != sy.start) return sx.start < sy.start;
    return x < y;
  });
  std::vector<SpanIndex> active;
  std::size_t next = 0;
  for (std::size_t bi = 0; bi + 1 < bounds.size(); ++bi) {
    const Time x = bounds[bi], y = bounds[bi + 1];
    while (next < tagged.size() && db.at(tagged[next]).start <= x + kEps)
      active.push_back(tagged[next++]);
    active.erase(std::remove_if(active.begin(), active.end(),
                                [&](SpanIndex i) { return db.at(i).end <= x + kEps; }),
                 active.end());
    const Time dur = y - x;
    if (active.empty()) {
      out.seconds[static_cast<std::size_t>(Category::kCompute)] += dur;
      continue;
    }
    SpanIndex win = active.front();
    for (SpanIndex i : active) {
      const auto &a = db.at(i), &b = db.at(win);
      const int pa = Priority(a.tag.cat), pb = Priority(b.tag.cat);
      if (pa != pb ? pa > pb : (a.start != b.start ? a.start < b.start : i < win)) win = i;
    }
    const auto& w = db.at(win);
    const Time span_dur = w.end - w.start;
    // The winner's `ideal` is its contention-free service time: that
    // fraction is genuine transfer, the excess is fair-share queuing.
    double r = 1.0;
    if (w.tag.ideal > 0 && span_dur > kEps && w.tag.ideal < span_dur)
      r = w.tag.ideal / span_dur;
    Category cat = w.tag.cat;
    if ((cat == Category::kPfs || cat == Category::kBb) && Covers(db.degraded, x, y))
      cat = Category::kDegraded;
    out.seconds[static_cast<std::size_t>(cat)] += r * dur;
    out.seconds[static_cast<std::size_t>(Category::kQueue)] += (1.0 - r) * dur;
  }
  return out;
}

std::string WhereLabel(const Recorder::SpanEvent& s) {
  const std::string pid = s.track.PidName();
  const std::string tid = s.track.TidName();
  if (tid.empty() || tid == pid) return pid;
  return pid + " / " + tid;
}

/// Backward walk from the end of the slowest rank's window: at each
/// cursor, the covering span on the rank track wins by category priority,
/// then descends through causal children (tag.parent and AddLink edges)
/// to the innermost span still covering the cursor — that is the blame.
std::vector<PathSegment> CriticalPath(const SpanDb& db,
                                      const std::vector<SpanIndex>& track_spans,
                                      Time window_start, Time window_end) {
  std::vector<PathSegment> path;
  constexpr std::size_t kMaxSegments = 256;
  constexpr int kMaxDepth = 16;

  auto better = [&](SpanIndex a, SpanIndex b) {  // true when a beats b
    const auto &sa = db.at(a), &sb = db.at(b);
    const bool ta = sa.tag.cat != Category::kNone, tb = sb.tag.cat != Category::kNone;
    if (ta != tb) return ta;  // tagged leaves beat untagged umbrellas
    const int pa = Priority(sa.tag.cat), pb = Priority(sb.tag.cat);
    if (pa != pb) return pa > pb;
    if (sa.end != sb.end) return sa.end > sb.end;
    if (sa.start != sb.start) return sa.start < sb.start;
    return a < b;
  };

  Time cursor = window_end;
  while (cursor > window_start + kEps && path.size() < kMaxSegments) {
    // Covering span on the rank track at cursor⁻.
    SpanIndex chosen = static_cast<SpanIndex>(-1);
    for (SpanIndex i : track_spans) {
      const auto& s = db.at(i);
      if (s.start < cursor - kEps && s.end >= cursor - kEps)
        if (chosen == static_cast<SpanIndex>(-1) || better(i, chosen)) chosen = i;
    }
    if (chosen == static_cast<SpanIndex>(-1)) {
      // Gap: nothing recorded — compute. Extend back to the previous end.
      Time prev = window_start;
      for (SpanIndex i : track_spans) {
        const Time e = db.at(i).end;
        if (e < cursor - kEps) prev = std::max(prev, e);
      }
      path.push_back({prev, cursor, "compute", Category::kCompute, ""});
      cursor = prev;
      continue;
    }
    // Causal descent: prefer the innermost cause still covering cursor⁻.
    for (int depth = 0; depth < kMaxDepth; ++depth) {
      const std::uint32_t self = db.at(chosen).tag.self.id;
      if (self == 0) break;
      auto it = db.children.find(self);
      if (it == db.children.end()) break;
      SpanIndex deeper = static_cast<SpanIndex>(-1);
      for (SpanIndex i : it->second) {
        const auto& s = db.at(i);
        if (s.start < cursor - kEps && s.end >= cursor - kEps)
          if (deeper == static_cast<SpanIndex>(-1) || better(i, deeper)) deeper = i;
      }
      if (deeper == static_cast<SpanIndex>(-1)) break;
      chosen = deeper;
    }
    const auto& s = db.at(chosen);
    const Time seg_start = std::max(s.start, window_start);
    const Time seg_end = std::min(s.end, cursor);
    if (seg_end <= seg_start + kEps || seg_start >= cursor - kEps) {
      // No backward progress possible; close out as compute.
      path.push_back({window_start, cursor, "compute", Category::kCompute, ""});
      break;
    }
    const Category cat =
        s.tag.cat == Category::kNone ? Category::kCompute : s.tag.cat;
    path.push_back({seg_start, seg_end, s.name, cat, WhereLabel(s)});
    cursor = seg_start;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

/// USE rollups built from the spans alone (no hw:: dependency): access
/// spans give busy-union (utilization) and overlap integral (saturation,
/// queue-depth-seconds); degraded spans count as errors.
void CollectDeviceUse(const SpanDb& db, Time elapsed, std::vector<DeviceUse>* out) {
  struct Accum {
    std::vector<Interval> busy;
    Time busy_sum = 0;
    std::vector<Interval> degraded;
    int errors = 0;
    Time serial_busy = 0;  // metadata servers: service is serialized
    Time queue_sum = 0;
  };
  std::map<std::pair<int, int>, Accum> devices;  // (class, index); 0=md 1=bb 2=ost

  for (const auto& [key, indices] : db.by_track) {
    const Track track{key.first, key.second};
    if (track.tid == Track::kDeviceTid &&
        (track.pid >= Track::kBbPidBase)) {
      const bool is_ost = track.pid >= Track::kOstPidBase;
      const int idx = track.pid - (is_ost ? Track::kOstPidBase : Track::kBbPidBase);
      Accum& acc = devices[{is_ost ? 2 : 1, idx}];
      for (SpanIndex i : indices) {
        const auto& s = db.at(i);
        if (s.tag.cat == Category::kDegraded) {
          acc.degraded.push_back({s.start, s.end});
          ++acc.errors;
        } else {
          acc.busy.push_back({s.start, s.end});
          acc.busy_sum += s.end - s.start;
        }
      }
    } else if (track.tid >= Track::kMetaTidBase && track.tid < Track::kFlushTidBase) {
      Accum& acc = devices[{0, track.tid - Track::kMetaTidBase}];
      for (SpanIndex i : indices) acc.serial_busy += db.at(i).end - db.at(i).start;
    } else if (track.tid >= Track::kMetaQueueTidBase && track.tid < Track::kRankTidBase) {
      Accum& acc = devices[{0, track.tid - Track::kMetaQueueTidBase}];
      for (SpanIndex i : indices) acc.queue_sum += db.at(i).end - db.at(i).start;
    }
  }

  for (auto& [key, acc] : devices) {
    DeviceUse use;
    const char* prefix = key.first == 0 ? "md" : key.first == 1 ? "bb" : "ost";
    use.device = prefix + std::to_string(key.second);
    if (key.first == 0) {
      use.busy = acc.serial_busy;
      use.saturation = acc.queue_sum;
    } else {
      const Time busy_union = TotalSeconds(UnionOf(std::move(acc.busy)));
      use.busy = busy_union;
      use.saturation = acc.busy_sum - busy_union;  // ∫ max(0, inflight-1) dt
    }
    use.utilization = elapsed > 0 ? use.busy / elapsed : 0.0;
    use.degraded = TotalSeconds(UnionOf(std::move(acc.degraded)));
    use.errors = acc.errors;
    out->push_back(std::move(use));
  }
}

}  // namespace

double RankBreakdown::attributed() const {
  double total = 0;
  for (double s : seconds) total += s;
  return total;
}

Report Analyze(const Recorder& recorder, const std::vector<JobSpec>& jobs, Time elapsed) {
  Report report;
  report.elapsed = elapsed;
  const SpanDb db = BuildDb(recorder);

  for (const JobSpec& spec : jobs) {
    JobBreakdown job;
    job.spec = spec;
    bool first = true;
    for (const auto& [key, indices] : db.by_track) {
      const Track track{key.first, key.second};
      if (!track.is_rank() || track.rank_program() != spec.program) continue;
      RankBreakdown rank = AnalyzeRank(db, indices, track.rank_index());
      if (first) {
        job.window_start = rank.window_start;
        job.window_end = rank.window_end;
        first = false;
      } else {
        job.window_start = std::min(job.window_start, rank.window_start);
        job.window_end = std::max(job.window_end, rank.window_end);
      }
      for (std::size_t c = 0; c < kCategoryCount; ++c) job.seconds[c] += rank.seconds[c];
      job.ranks.push_back(std::move(rank));
    }
    std::sort(job.ranks.begin(), job.ranks.end(),
              [](const RankBreakdown& a, const RankBreakdown& b) { return a.rank < b.rank; });
    report.jobs.push_back(std::move(job));
  }

  // Critical path: slowest non-server job (latest window end; ties keep
  // job order), then its latest-finishing rank (ties keep lowest rank).
  const JobBreakdown* slow_job = nullptr;
  for (const JobBreakdown& job : report.jobs) {
    if (job.spec.is_server || job.ranks.empty()) continue;
    if (slow_job == nullptr || job.window_end > slow_job->window_end) slow_job = &job;
  }
  if (slow_job != nullptr) {
    const RankBreakdown* slow_rank = nullptr;
    for (const RankBreakdown& rank : slow_job->ranks)
      if (slow_rank == nullptr || rank.window_end > slow_rank->window_end)
        slow_rank = &rank;
    report.critical_job = slow_job->spec.name;
    report.critical_rank = slow_rank->rank;
    report.critical_elapsed = slow_rank->elapsed();
    for (const auto& [key, indices] : db.by_track) {
      const Track track{key.first, key.second};
      if (track.is_rank() && track.rank_program() == slow_job->spec.program &&
          track.rank_index() == slow_rank->rank) {
        report.critical_path =
            CriticalPath(db, indices, slow_rank->window_start, slow_rank->window_end);
        break;
      }
    }
  }

  CollectDeviceUse(db, elapsed, &report.devices);
  return report;
}

std::string ToText(const Report& report) {
  std::ostringstream os;

  {
    std::vector<std::string> header{"job", "ranks", "elapsed"};
    for (std::size_t c = 1; c < kCategoryCount; ++c)
      header.push_back(CategoryName(static_cast<Category>(c)));
    header.push_back("coverage");
    Table table(std::move(header));
    for (const JobBreakdown& job : report.jobs) {
      std::vector<std::string> row{job.spec.name, std::to_string(job.ranks.size()),
                                   HumanTime(job.elapsed())};
      double attributed = 0, windows = 0;
      for (const RankBreakdown& rank : job.ranks) {
        attributed += rank.attributed();
        windows += rank.elapsed();
      }
      for (std::size_t c = 1; c < kCategoryCount; ++c)
        row.push_back(FormatDouble(job.seconds[c], 2) + "s");
      row.push_back(windows > 0 ? FormatDouble(100.0 * attributed / windows, 1) + "%" : "-");
      table.AddRow(std::move(row));
    }
    os << "== time attribution (rank-seconds per category) ==\n" << table.ToString();
  }

  if (!report.critical_path.empty()) {
    os << "\n== critical path: " << report.critical_job << " rank " << report.critical_rank
       << " (elapsed " << HumanTime(report.critical_elapsed) << ") ==\n";
    Table table({"start", "duration", "category", "span", "where"});
    for (const PathSegment& seg : report.critical_path)
      table.AddRow({HumanTime(seg.start), HumanTime(seg.duration()),
                    CategoryName(seg.category), seg.name, seg.where});
    os << table.ToString();
  }

  if (!report.devices.empty()) {
    os << "\n== device USE (utilization / saturation / errors) ==\n";
    Table table({"device", "util", "busy", "queue-depth-s", "degraded", "errors"});
    for (const DeviceUse& use : report.devices)
      table.AddRow({use.device, FormatDouble(100.0 * use.utilization, 1) + "%",
                    HumanTime(use.busy), FormatDouble(use.saturation, 2),
                    HumanTime(use.degraded), std::to_string(use.errors)});
    os << table.ToString();
  }
  return os.str();
}

std::string AttributionJson(const Report& report) {
  std::ostringstream os;
  os << "{\"schema\":\"univistor.attribution.v1\"";
  os << ",\"elapsed\":" << JsonNumber(report.elapsed);

  os << ",\"jobs\":[";
  bool first_job = true;
  for (const JobBreakdown& job : report.jobs) {
    if (!first_job) os << ",";
    first_job = false;
    os << "{\"name\":\"" << JsonEscape(job.spec.name) << "\",\"program\":" << job.spec.program
       << ",\"is_server\":" << (job.spec.is_server ? "true" : "false")
       << ",\"ranks\":" << job.ranks.size() << ",\"elapsed\":" << JsonNumber(job.elapsed());
    double windows = 0;
    for (const RankBreakdown& rank : job.ranks) windows += rank.elapsed();
    os << ",\"rank_window_seconds\":" << JsonNumber(windows) << ",\"categories\":{";
    for (std::size_t c = 1; c < kCategoryCount; ++c) {
      if (c > 1) os << ",";
      os << "\"" << JsonEscape(CategoryName(static_cast<Category>(c)))
         << "\":" << JsonNumber(job.seconds[c]);
    }
    os << "}}";
  }
  os << "]";

  os << ",\"critical_path\":{\"job\":\"" << JsonEscape(report.critical_job)
     << "\",\"rank\":" << report.critical_rank
     << ",\"elapsed\":" << JsonNumber(report.critical_elapsed) << ",\"segments\":[";
  bool first_seg = true;
  for (const PathSegment& seg : report.critical_path) {
    if (!first_seg) os << ",";
    first_seg = false;
    os << "{\"start\":" << JsonNumber(seg.start) << ",\"end\":" << JsonNumber(seg.end)
       << ",\"category\":\"" << JsonEscape(CategoryName(seg.category))
       << "\",\"name\":\"" << JsonEscape(seg.name) << "\",\"where\":\"" << JsonEscape(seg.where)
       << "\"}";
  }
  os << "]}";

  os << ",\"devices\":[";
  bool first_dev = true;
  for (const DeviceUse& use : report.devices) {
    if (!first_dev) os << ",";
    first_dev = false;
    os << "{\"device\":\"" << JsonEscape(use.device)
       << "\",\"utilization\":" << JsonNumber(use.utilization)
       << ",\"saturation\":" << JsonNumber(use.saturation) << ",\"busy\":" << JsonNumber(use.busy)
       << ",\"degraded\":" << JsonNumber(use.degraded) << ",\"errors\":" << use.errors << "}";
  }
  os << "]}";
  return os.str();
}

}  // namespace uvs::obs
