// Program-counter sampler for flat CPU profiles of unmodified binaries.
//
//   LD_PRELOAD=build/tools/libpc_sampler.so ./build/example_scenario_runner ...
//   python3 tools/pc_symbolize.py pc_sample.<pid>.txt
//
// On load it arms setitimer(ITIMER_PROF): every millisecond of CPU time the
// process spends, in any of its threads, the kernel sends SIGPROF to a
// running thread, and the handler records the interrupted program counter.
// When the process exits normally it writes the samples and a copy of
// /proc/self/maps to pc_sample.<pid>.txt in the working directory and names
// the file on stderr.  It acts only on the process it is loaded into; a
// forked child writes nothing, and a process that ends in _exit, exec or a
// fatal signal loses its samples.  SA_RESTART resumes most interrupted
// system calls, but calls that never restart (epoll_wait, nanosleep) can
// return EINTR more often under the sampler.
#include <signal.h>
#include <sys/time.h>
#include <sys/types.h>
#include <ucontext.h>
#include <unistd.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>

namespace {

constexpr long kIntervalUs = 1000;
constexpr std::size_t kMaxSamples = std::size_t{1} << 20;  // 17 CPU-minutes

std::uintptr_t g_pcs[kMaxSamples];
std::atomic<std::size_t> g_taken{0};
pid_t g_owner = 0;

std::uintptr_t interrupted_pc(const ucontext_t* uc) {
#if defined(__x86_64__)
  return static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  return static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
#else
#error "pc_sampler: no program-counter register known for this target"
#endif
}

void on_sigprof(int /*sig*/, siginfo_t* /*info*/, void* context) {
  const std::size_t i = g_taken.fetch_add(1, std::memory_order_relaxed);
  if (i < kMaxSamples)
    g_pcs[i] = interrupted_pc(static_cast<const ucontext_t*>(context));
}

void set_timer(long interval_us) {
  itimerval timer{};
  timer.it_interval.tv_usec = interval_us;
  timer.it_value.tv_usec = interval_us;
  setitimer(ITIMER_PROF, &timer, nullptr);
}

__attribute__((constructor)) void start_sampling() {
  g_owner = getpid();
  struct sigaction action {};
  action.sa_sigaction = on_sigprof;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  if (sigaction(SIGPROF, &action, nullptr) != 0) {
    std::perror("pc_sampler: sigaction");
    return;
  }
  set_timer(kIntervalUs);
}

__attribute__((destructor)) void write_samples() {
  if (getpid() != g_owner) return;
  set_timer(0);
  const std::size_t taken = g_taken.load(std::memory_order_relaxed);
  const std::size_t kept = taken < kMaxSamples ? taken : kMaxSamples;

  char path[64];
  std::snprintf(path, sizeof path, "pc_sample.%d.txt", static_cast<int>(g_owner));
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::perror("pc_sampler: fopen");
    return;
  }
  std::fprintf(out, "pc_sampler interval_us %ld samples %zu dropped %zu\n",
               kIntervalUs, kept, taken - kept);
  for (std::size_t i = 0; i < kept; ++i)
    std::fprintf(out, "%jx\n", static_cast<std::uintmax_t>(g_pcs[i]));
  std::fputs("maps\n", out);
  if (std::FILE* maps = std::fopen("/proc/self/maps", "r")) {
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof buf, maps)) > 0)
      std::fwrite(buf, 1, n, out);
    std::fclose(maps);
  }
  const bool ok = std::fclose(out) == 0;
  std::fprintf(stderr, "pc_sampler: %zu samples %s %s\n", kept,
               ok ? "written to" : "FAILED to write", path);
}

}  // namespace
