#include "src/sched/node_scheduler.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

namespace uvs::sched {

namespace {
/// csw(k): efficiency of a core shared by >= 2 busy processes.
constexpr double kContextSwitchPenalty = 0.85;
}  // namespace

NodeScheduler::NodeScheduler(sim::Engine& engine, hw::Node& node, PlacementPolicy policy,
                             Rng rng)
    : engine_(&engine), node_(&node), policy_(policy), rng_(rng) {
  core_procs_.resize(static_cast<std::size_t>(node.cores()));
}

int NodeScheduler::AddProcess(int program, bool is_server) {
  const int id = static_cast<int>(procs_.size());
  Proc proc;
  proc.id = id;
  proc.program = program;
  proc.server = is_server;
  proc.base_bw = is_server ? node_->params().per_core_server_copy_bw
                           : node_->params().per_core_client_io_bw;
  proc.cpu = std::make_unique<sim::FairSharePool>(
      *engine_, sim::FairSharePool::Options{
                    .name = "node" + std::to_string(node_->id()) + "/cpu" + std::to_string(id),
                    .capacity = proc.base_bw});
  const int core = policy_ == PlacementPolicy::kCfs
                       ? PickCoreCfs()
                       : PickCoreInterferenceAware(program);
  procs_.push_back(std::move(proc));
  Assign(procs_.back(), core);
  procs_.back().home_core = core;
  return id;
}

int NodeScheduler::PickCoreCfs() {
  // Application-agnostic: CFS balances run-queue lengths but is blind to
  // which program a process belongs to and to NUMA placement. Model it as
  // two-random-choices on load: stacking and socket crowding still happen
  // (Fig. 4a), just not pathologically.
  const auto cores = static_cast<std::uint64_t>(node_->cores());
  int best = static_cast<int>(rng_.NextBelow(cores));
  for (int choice = 0; choice < 2; ++choice) {
    const int candidate = static_cast<int>(rng_.NextBelow(cores));
    if (ProcsOnCore(candidate) < ProcsOnCore(best)) best = candidate;
  }
  return best;
}

int NodeScheduler::PickCoreInterferenceAware(int program) {
  const int sockets = node_->sockets();
  // Candidate sockets: minimal count of this program's processes; among
  // them, the less loaded socket overall (remainder rule, §II-C).
  int best_socket = 0;
  int best_prog_count = std::numeric_limits<int>::max();
  int best_total = std::numeric_limits<int>::max();
  for (int s = 0; s < sockets; ++s) {
    const int prog_count = ProgramProcsOnSocket(program, s);
    const int total = ProcsOnSocket(s);
    if (prog_count < best_prog_count ||
        (prog_count == best_prog_count && total < best_total)) {
      best_socket = s;
      best_prog_count = prog_count;
      best_total = total;
    }
  }
  // Within the socket: least-loaded core; ties prefer cores whose
  // occupants are all servers (idle between flushes — Fig. 4d), then the
  // lowest index.
  const int cores_per_socket = node_->cores() / sockets;
  int best_core = best_socket * cores_per_socket;
  int best_load = std::numeric_limits<int>::max();
  bool best_all_servers = false;
  for (int c = best_socket * cores_per_socket; c < (best_socket + 1) * cores_per_socket; ++c) {
    const auto& occupants = core_procs_[static_cast<std::size_t>(c)];
    const int load = static_cast<int>(occupants.size());
    const bool all_servers =
        !occupants.empty() &&
        std::all_of(occupants.begin(), occupants.end(),
                    [&](int p) { return procs_[static_cast<std::size_t>(p)].server; });
    if (load < best_load || (load == best_load && all_servers && !best_all_servers)) {
      best_core = c;
      best_load = load;
      best_all_servers = all_servers;
    }
  }
  return best_core;
}

void NodeScheduler::Assign(Proc& proc, int core) {
  if (proc.core == core) return;
  if (proc.core >= 0) {
    auto& old_list = core_procs_[static_cast<std::size_t>(proc.core)];
    old_list.erase(std::remove(old_list.begin(), old_list.end(), proc.id), old_list.end());
    const int old_core = proc.core;
    proc.core = core;
    RecomputeCore(old_core);
  } else {
    proc.core = core;
  }
  core_procs_[static_cast<std::size_t>(core)].push_back(proc.id);
  RecomputeCore(core);
}

void NodeScheduler::RecomputeCore(int core) {
  const auto& occupants = core_procs_[static_cast<std::size_t>(core)];
  int busy = 0;
  for (int p : occupants)
    if (procs_[static_cast<std::size_t>(p)].busy) ++busy;
  const double csw = busy > 1 ? kContextSwitchPenalty : 1.0;
  const double busy_share = busy > 0 ? csw / static_cast<double>(busy) : 1.0;
  for (int p : occupants) {
    auto& proc = procs_[static_cast<std::size_t>(p)];
    // Idle processes keep a full-core rate: by convention they SetBusy
    // before transferring, so this value is never load-bearing.
    const double share = proc.busy ? busy_share : 1.0;
    proc.cpu->SetCapacity(share * proc.base_bw);
  }
}

void NodeScheduler::SetBusy(int proc, bool busy) {
  auto& p = procs_.at(static_cast<std::size_t>(proc));
  if (p.busy == busy) return;
  p.busy = busy;
  RecomputeCore(p.core);
}

bool NodeScheduler::IsBusy(int proc) const {
  return procs_.at(static_cast<std::size_t>(proc)).busy;
}

int NodeScheduler::CoreOf(int proc) const {
  return procs_.at(static_cast<std::size_t>(proc)).core;
}

int NodeScheduler::SocketOf(int proc) const { return node_->SocketOfCore(CoreOf(proc)); }

bool NodeScheduler::IsServer(int proc) const {
  return procs_.at(static_cast<std::size_t>(proc)).server;
}

double NodeScheduler::CpuShare(int proc) const {
  const auto& p = procs_.at(static_cast<std::size_t>(proc));
  const int busy = BusyProcsOnCore(p.core);
  if (!p.busy || busy == 0) return 1.0;
  const double csw = busy > 1 ? kContextSwitchPenalty : 1.0;
  return csw / static_cast<double>(busy);
}

sim::FairSharePool& NodeScheduler::cpu(int proc) {
  return *procs_.at(static_cast<std::size_t>(proc)).cpu;
}

sim::FairSharePool& NodeScheduler::dram(int proc) {
  return node_->socket(SocketOf(proc)).dram();
}

void NodeScheduler::BeginServerFlush() {
  if (flush_in_progress_) return;
  flush_in_progress_ = true;
  if (policy_ != PlacementPolicy::kInterferenceAware) return;
  // Cores that host at least one server.
  std::vector<bool> server_core(static_cast<std::size_t>(node_->cores()), false);
  for (const auto& proc : procs_)
    if (proc.server) server_core[static_cast<std::size_t>(proc.core)] = true;
  for (auto& proc : procs_) {
    if (proc.server || !server_core[static_cast<std::size_t>(proc.core)]) continue;
    // Migrate to the least-loaded non-server core (same socket preferred).
    int best = -1;
    int best_load = std::numeric_limits<int>::max();
    const int socket = node_->SocketOfCore(proc.core);
    for (int pass = 0; pass < 2 && best == -1; ++pass) {
      for (int c = 0; c < node_->cores(); ++c) {
        if (server_core[static_cast<std::size_t>(c)]) continue;
        if (pass == 0 && node_->SocketOfCore(c) != socket) continue;
        const int load = static_cast<int>(core_procs_[static_cast<std::size_t>(c)].size());
        if (load < best_load) {
          best = c;
          best_load = load;
        }
      }
      if (best != -1) break;
    }
    if (best != -1) Assign(proc, best);
  }
}

void NodeScheduler::EndServerFlush() {
  if (!flush_in_progress_) return;
  flush_in_progress_ = false;
  if (policy_ != PlacementPolicy::kInterferenceAware) return;
  for (auto& proc : procs_) {
    if (!proc.server && proc.core != proc.home_core) Assign(proc, proc.home_core);
  }
}

int NodeScheduler::ProcsOnCore(int core) const {
  return static_cast<int>(core_procs_.at(static_cast<std::size_t>(core)).size());
}

int NodeScheduler::BusyProcsOnCore(int core) const {
  int busy = 0;
  for (int p : core_procs_.at(static_cast<std::size_t>(core)))
    if (procs_[static_cast<std::size_t>(p)].busy) ++busy;
  return busy;
}

int NodeScheduler::ProcsOnSocket(int socket) const {
  int n = 0;
  for (const auto& proc : procs_)
    if (proc.core >= 0 && node_->SocketOfCore(proc.core) == socket) ++n;
  return n;
}

int NodeScheduler::ProgramProcsOnSocket(int program, int socket) const {
  int n = 0;
  for (const auto& proc : procs_)
    if (proc.core >= 0 && proc.program == program && node_->SocketOfCore(proc.core) == socket)
      ++n;
  return n;
}

}  // namespace uvs::sched
