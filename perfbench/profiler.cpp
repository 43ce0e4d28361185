#include "profiler.hpp"

#include <cxxabi.h>
#include <elf.h>
#include <execinfo.h>
#include <link.h>
#include <signal.h>
#include <sys/time.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>

namespace perfbench {
namespace {

// State the signal handler touches: fixed-size storage owned by the active
// Profiler, published before the timer is armed.
void** g_frames = nullptr;
int* g_depths = nullptr;
std::size_t g_capacity = 0;
int g_depth = 0;
std::atomic<std::size_t> g_next{0};

void OnSigprof(int) {
  const int saved_errno = errno;
  const std::size_t i = g_next.fetch_add(1, std::memory_order_relaxed);
  if (i < g_capacity)
    g_depths[i] = backtrace(g_frames + i * static_cast<std::size_t>(g_depth), g_depth);
  errno = saved_errno;
}

struct Symbol {
  std::uintptr_t lo = 0;
  std::uintptr_t hi = 0;
  std::string name;  // demangled
};

int CollectBias(dl_phdr_info* info, std::size_t, void* out) {
  // The first object reported is the main executable.
  *static_cast<std::uintptr_t*>(out) = info->dlpi_addr;
  return 1;
}

std::string Demangle(const char* name) {
  int status = 0;
  char* out = abi::__cxa_demangle(name, nullptr, nullptr, &status);
  std::string result = status == 0 && out != nullptr ? out : name;
  std::free(out);
  return result;
}

/// Function symbols of the running executable from its .symtab, sorted by
/// address and relocated by the load bias.
std::vector<Symbol> ReadSymbols() {
  std::ifstream in("/proc/self/exe", std::ios::binary);
  const std::vector<char> image((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
  auto at = [&image](std::size_t offset, std::size_t len) {
    if (offset > image.size() || len > image.size() - offset)
      throw std::runtime_error("truncated ELF image");
    return image.data() + offset;
  };
  Elf64_Ehdr eh;
  std::memcpy(&eh, at(0, sizeof eh), sizeof eh);
  if (std::memcmp(eh.e_ident, ELFMAG, SELFMAG) != 0 || eh.e_ident[EI_CLASS] != ELFCLASS64)
    throw std::runtime_error("not a 64-bit ELF executable");
  std::vector<Elf64_Shdr> sections(eh.e_shnum);
  for (std::size_t i = 0; i < sections.size(); ++i)
    std::memcpy(&sections[i], at(eh.e_shoff + i * eh.e_shentsize, sizeof(Elf64_Shdr)),
                sizeof(Elf64_Shdr));

  std::uintptr_t bias = 0;
  dl_iterate_phdr(CollectBias, &bias);

  std::vector<Symbol> symbols;
  for (const Elf64_Shdr& sh : sections) {
    if (sh.sh_type != SHT_SYMTAB || sh.sh_link >= sections.size()) continue;
    const Elf64_Shdr& strtab = sections[sh.sh_link];
    const char* names = at(strtab.sh_offset, strtab.sh_size);
    for (std::size_t off = 0; off + sizeof(Elf64_Sym) <= sh.sh_size; off += sizeof(Elf64_Sym)) {
      Elf64_Sym sym;
      std::memcpy(&sym, at(sh.sh_offset + off, sizeof sym), sizeof sym);
      if (ELF64_ST_TYPE(sym.st_info) != STT_FUNC || sym.st_size == 0 || sym.st_shndx == SHN_UNDEF ||
          sym.st_name >= strtab.sh_size)
        continue;
      const std::uintptr_t lo = bias + sym.st_value;
      symbols.push_back({lo, lo + sym.st_size, Demangle(names + sym.st_name)});
    }
  }
  std::sort(symbols.begin(), symbols.end(),
            [](const Symbol& a, const Symbol& b) { return a.lo < b.lo; });
  return symbols;
}

const Symbol* Lookup(const std::vector<Symbol>& symbols, std::uintptr_t pc) {
  auto it = std::upper_bound(symbols.begin(), symbols.end(), pc,
                             [](std::uintptr_t v, const Symbol& s) { return v < s.lo; });
  if (it == symbols.begin()) return nullptr;
  --it;
  return pc < it->hi ? &*it : nullptr;
}

/// Layers reported by name; other uvs modules (baselines, fault, ...) are
/// charged to "other".
constexpr const char* kModules[] = {"cluster", "h5lite", "hw",     "kv",        "meta",
                                    "obs",     "placement", "sched", "sim",     "storage",
                                    "univistor", "vmpi",   "workflow", "workload"};

/// The layer a frame belongs to: "malloc" for the global allocator, the
/// <module> of a function qualified uvs::<module>::, "common" for the
/// helpers declared directly in uvs::, "" for anything else (std::
/// templates, libc, the benchmark itself) so the walk continues outward.
std::string FrameLayer(const std::string& name) {
  if (name.rfind("operator new", 0) == 0 || name.rfind("operator delete", 0) == 0)
    return "malloc";
  // The function's own scope ends at its argument list or template
  // arguments; uvs:: types inside std:: template arguments do not count.
  const std::string scope = name.substr(0, name.find_first_of("(<"));
  const std::size_t ns = scope.find("uvs::");
  if (ns == std::string::npos) return "";
  const std::size_t begin = ns + 5;
  const std::size_t end = scope.find("::", begin);
  if (end == std::string::npos) return "common";  // a free function in uvs::
  const std::string token = scope.substr(begin, end - begin);
  for (const char* module : kModules)
    if (token == module) return token;
  const bool is_namespace = !token.empty() && std::islower(static_cast<unsigned char>(token[0]));
  return is_namespace ? "other" : "common";  // uvs::RunningStats:: etc. live in src/common
}

}  // namespace

Profiler::Profiler(std::size_t max_samples)
    : frames_(max_samples * kDepth), depths_(max_samples, 0) {
  void* warm[4];
  backtrace(warm, 4);
}

Profiler::~Profiler() { Stop(); }

void Profiler::Start(int interval_us) {
  g_frames = frames_.data();
  g_depths = depths_.data();
  g_capacity = depths_.size();
  g_depth = kDepth;
  g_next.store(0);
  running_ = true;
  struct sigaction sa {};
  sa.sa_handler = OnSigprof;
  sa.sa_flags = SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, nullptr);
  itimerval timer{};
  timer.it_interval.tv_usec = interval_us;
  timer.it_value.tv_usec = interval_us;
  setitimer(ITIMER_PROF, &timer, nullptr);
}

void Profiler::Stop() {
  if (!running_) return;
  itimerval off{};
  setitimer(ITIMER_PROF, &off, nullptr);
  signal(SIGPROF, SIG_IGN);
  running_ = false;
  taken_ = std::min(g_next.load(), depths_.size());
  g_frames = nullptr;
}

std::map<std::string, double> Profiler::SelfShares() const {
  const std::vector<Symbol> symbols = ReadSymbols();
  std::map<std::uintptr_t, std::string> layer_of_symbol;  // memo by symbol start
  std::map<std::string, double> shares;
  const std::size_t n = taken_;
  for (std::size_t i = 0; i < n; ++i) {
    std::string layer = "other";
    for (int f = 0; f < depths_[i]; ++f) {
      // Return addresses point past the call; step back into the caller.
      const auto pc = reinterpret_cast<std::uintptr_t>(frames_[i * kDepth + f]) - 1;
      const Symbol* sym = Lookup(symbols, pc);
      if (sym == nullptr) continue;
      auto [it, fresh] = layer_of_symbol.try_emplace(sym->lo);
      if (fresh) it->second = FrameLayer(sym->name);
      if (!it->second.empty()) {
        layer = it->second;
        break;
      }
    }
    shares[layer] += 1;
  }
  for (auto& [layer, count] : shares) count = n > 0 ? 100.0 * count / static_cast<double>(n) : 0;
  return shares;
}

}  // namespace perfbench
