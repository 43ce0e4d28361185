// Process-to-core placement and CPU-share accounting on one compute node
// (§II-C, Fig. 4 of the paper).
//
// Two policies:
//  * kCfs — models Linux's Completely Fair Scheduler as seen by a highly
//    synchronized parallel job: placement is agnostic of which program a
//    process belongs to (uniform-random core), so processes stack on cores
//    and programs crowd into one NUMA socket by chance.
//  * kInterferenceAware — UniviStor's policy: each program's processes are
//    spread round-robin across NUMA sockets (remainders to the less-loaded
//    socket); under oversubscription extra client processes are placed on
//    cores whose occupants are idle servers (state-aware, Fig. 4d), and are
//    migrated off the server cores while a flush is in progress.
//
// Every registered process owns a CPU pool whose capacity is
//   csw(k) / k * base_bw,  (base_bw: client I/O-stack rate or server copy rate)
// where k is the number of busy processes sharing its core and csw(k) < 1
// for k > 1 models context-switch overhead. Memory traffic is gated by
// routing transfers through this pool in parallel with the NUMA socket's
// DRAM pool.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/hw/node.hpp"
#include "src/sim/fair_share.hpp"

namespace uvs::sched {

enum class PlacementPolicy { kCfs, kInterferenceAware };

class NodeScheduler {
 public:
  NodeScheduler(sim::Engine& engine, hw::Node& node, PlacementPolicy policy, Rng rng);

  /// Registers a process of `program` (servers use is_server = true) and
  /// returns its process id on this node. Processes start busy.
  int AddProcess(int program, bool is_server);

  /// Busy processes compete for their core; idle ones (e.g. a server
  /// waiting for the next flush) do not.
  void SetBusy(int proc, bool busy);
  bool IsBusy(int proc) const;

  int CoreOf(int proc) const;
  int SocketOf(int proc) const;
  bool IsServer(int proc) const;
  int process_count() const { return static_cast<int>(procs_.size()); }

  /// CPU share granted to `proc` right now (csw(k)/k if busy).
  double CpuShare(int proc) const;

  /// Per-process CPU pool capping its memory/copy injection rate.
  sim::FairSharePool& cpu(int proc);

  /// The DRAM pool of the NUMA socket the process runs on.
  sim::FairSharePool& dram(int proc);

  /// Interference-aware flush protocol: move client processes off cores
  /// hosting servers for the duration of the flush, then restore them.
  /// No-ops under kCfs or when no client shares a server core.
  void BeginServerFlush();
  void EndServerFlush();
  bool flush_in_progress() const { return flush_in_progress_; }

  // Introspection for tests.
  int ProcsOnCore(int core) const;
  int BusyProcsOnCore(int core) const;
  int ProcsOnSocket(int socket) const;
  int ProgramProcsOnSocket(int program, int socket) const;

 private:
  struct Proc {
    int id;
    int program;
    bool server;
    bool busy = true;
    int core = -1;
    int home_core = -1;  // original core, restored after flush migration
    Bandwidth base_bw = 0;  // full-core rate for this process kind
    std::unique_ptr<sim::FairSharePool> cpu;
  };

  int PickCoreCfs();
  int PickCoreInterferenceAware(int program);
  void Assign(Proc& proc, int core);
  void RecomputeCore(int core);

  sim::Engine* engine_;
  hw::Node* node_;
  PlacementPolicy policy_;
  Rng rng_;
  std::vector<Proc> procs_;
  std::vector<std::vector<int>> core_procs_;  // core -> proc ids
  bool flush_in_progress_ = false;
};

}  // namespace uvs::sched
