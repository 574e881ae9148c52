// perfbench — the repository benchmark binary.  perfbench/run.py builds it
// and runs it; see perfbench/README.md for the workloads and metrics.
//
//   perfbench --workload socket-storm|city-sparse|storm-sweep --seed N
//             --seconds S --trace 0|1 [--smoke] [--out-dir DIR]
//             [--git-sha SHA]
//
// Prints a human-readable report, then one JSON line with the metrics.
// Exit status 0 when every correctness check passed, 1 when one failed,
// 2 on a usage error.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "obs/trace.h"
#include "workloads.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload socket-storm|city-sparse|"
               "storm-sweep --seed N --seconds S --trace 0|1 [--smoke] "
               "[--out-dir DIR] [--git-sha SHA]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  // A server-side close between a client write and read must surface as
  // EPIPE, not kill the process.
  std::signal(SIGPIPE, SIG_IGN);
  const double t_start = now_s();
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      opt.smoke = true;
    } else if (!has_value) {
      return usage();
    } else if (arg == "--workload") {
      opt.workload = argv[++i];
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      opt.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--out-dir") {
      opt.out_dir = argv[++i];
    } else if (arg == "--git-sha") {
      opt.git_sha = argv[++i];
    } else {
      return usage();
    }
  }
  if (!(opt.seconds > 0)) return usage();

  Report report(opt);
  try {
    if (opt.workload == "socket-storm") {
      run_socket_storm(report);
    } else if (opt.workload == "city-sparse") {
      run_city_sparse(report);
    } else if (opt.workload == "storm-sweep") {
      run_storm_sweep(report);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    report.check(false, std::string("exception: ") + e.what());
  }
  if (opt.trace) {
    flush_spans();
    // One trace per workload, overwritten by the next traced run.
    const std::string path = opt.out_dir + "/trace-" + opt.workload + ".json";
    facsp::obs::Tracer::write_json(path);
    report.note("trace: " + path);
  }
  return report.finish(now_s() - t_start);
}
