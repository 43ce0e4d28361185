// SIGPROF backtrace sampler. Samples land as raw return addresses in a
// buffer reserved up front (the signal handler never allocates); Stop()
// ends sampling and SelfShares() symbolizes afterwards from the
// executable's own ELF symbol table.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Profiler {
 public:
  /// Reserves room for `max_samples` backtraces and warms the unwinder so
  /// the first sample does not load libgcc inside the signal handler.
  explicit Profiler(std::size_t max_samples);
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;
  ~Profiler();

  /// Arms ITIMER_PROF: one sample per `interval_us` of process CPU time.
  /// At most one profiler samples at a time.
  void Start(int interval_us);
  void Stop();

  /// Samples kept by the last Stop() (a full buffer drops the rest).
  std::size_t samples() const { return taken_; }

  /// Share of samples (in percent) charged to each layer. A sample goes to
  /// "malloc" when the global operator new/delete is on its stack inside
  /// the innermost uvs:: frame, otherwise to the <module> of the innermost
  /// function qualified uvs::<module>::, otherwise to "other".
  std::map<std::string, double> SelfShares() const;

 private:
  static constexpr int kDepth = 48;
  std::vector<void*> frames_;
  std::vector<int> depths_;
  std::size_t taken_ = 0;
  bool running_ = false;
};

}  // namespace perfbench
