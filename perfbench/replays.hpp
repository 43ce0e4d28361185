// Layer replays: the three hot spots named in ROADMAP item 2, timed
// through their public calls alone at the sizes a workload uses, plus the
// benchmark-owned host reference loop.
#pragma once

#include "src/common/units.hpp"

namespace perfbench {

/// One writer's logs: a DRAM log and a BB log at the capacities the
/// workload's DHP chains request, each filled with `append` bytes in
/// `piece`-sized appends, then freed and destroyed.
struct LogReplay {
  uvs::Bytes dram_capacity = 0;
  uvs::Bytes bb_capacity = 0;
  uvs::Bytes chunk = 0;
  uvs::Bytes append = 0;
  uvs::Bytes piece = 0;
  int writers = 0;
};
/// Mean microseconds per writer (both logs: construct, append, free, destroy).
double LogLifecycleMicros(const LogReplay& replay);

/// One shared file: `producers` writers each append `records` records of
/// `len` bytes in the strided (record-major) layout VPIC-IO uses, then
/// every record range is looked up with Query and CoveredBytes.
struct MetaReplay {
  int producers = 0;
  int records = 0;
  uvs::Bytes len = 0;
};
struct MetaTimes {
  double insert_ns = 0;  // per RecordIndex::Insert
  double query_ns = 0;   // per Query or CoveredBytes call
};
MetaTimes MetaIndexNanos(const MetaReplay& replay);

/// `flows` transfers of `bytes` each through one sim::FairSharePool at
/// OST bandwidth, arriving `stagger` simulated seconds apart. Mean
/// nanoseconds per transfer, including its process spawn.
double PoolTransferNanos(int flows, uvs::Bytes bytes, uvs::Time stagger);

/// Seconds for a fixed std::map insert/lookup/erase loop: a canary for
/// host memory-system speed, reported beside the results and never used
/// to scale them.
double HostRefSeconds();

}  // namespace perfbench
