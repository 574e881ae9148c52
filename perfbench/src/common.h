// Shared plumbing of the repository benchmark: options, wall-clock timing,
// order statistics, the result record and the correctness ledger.
//
// Every workload reports into one Report.  With tracing off it carries the
// end-to-end metrics; with tracing on, the per-layer metrics.  A failed
// correctness check is counted (it feeds `failed`) and turns the whole run
// into a failure: the final line then carries no metric at all.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs and a short window: the benchmark's own smoke tests.
  bool smoke = false;
  /// Where the stamped result record and the trace JSON go.
  std::string out_dir = ".";
  std::string git_sha = "unknown";
};

using Clock = std::chrono::steady_clock;

inline double now_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

/// Wall-clock stopwatch around one call into a library layer.  While
/// tracing is on it also keeps the interval as a "bench" span; flush_spans()
/// hands the kept spans to obs::Tracer at the end of the run, so the
/// library's own spans, which share the per-thread rings, cannot overwrite
/// them.
class Timed {
 public:
  explicit Timed(const char* layer,
                 std::int64_t arg = facsp::obs::Tracer::kNoArg)
      : layer_(layer), arg_(arg), start_(Clock::now()) {}
  ~Timed();
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

  double elapsed_s() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  const char* layer_;
  std::int64_t arg_;
  Clock::time_point start_;
};

/// Events each thread's trace ring keeps.  Every pass server and sweep pool
/// thread gets its own ring, so this bounds the trace file (4096 events is
/// ~0.5 MB of JSON per thread).
inline constexpr std::size_t kTraceRing = 4096;

/// Record every span kept by Timed into obs::Tracer (call on the main
/// thread while tracing is still on).
void flush_spans();

/// q-quantile (0..1) by linear interpolation between order statistics.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }
/// Inter-quartile range as a share of the median (0 for < 2 samples).
double rel_spread(const std::vector<double>& v);

/// Peak resident set size of this process, MiB.
double peak_rss_mb();

struct Metric {
  std::string unit;
  double value = 0.0;
  double spread = 0.0;       ///< IQR / median over the run's samples
  std::uint64_t samples = 0; ///< samples the value summarises
};

class Report {
 public:
  explicit Report(const Options& opt) : opt_(opt) {}

  /// One metric from repeated samples: the value is their median.
  void add_samples(const std::string& name, const std::string& unit,
                   const std::vector<double>& samples);
  /// One metric measured once (or summarised elsewhere).
  void add(const std::string& name, const std::string& unit, double value,
           std::uint64_t samples = 1, double spread = 0.0);

  /// Record one correctness check.  A false `ok` counts as failed and is
  /// printed with `what`.
  void check(bool ok, const std::string& what);
  /// Work items attempted (requests, replications, sweep cells) and the
  /// ones that failed (error frames, sheds, missing responses).
  void attempted(std::uint64_t n) { attempted_ += n; }
  void failed(std::uint64_t n) { failed_ += n; }

  /// Free-form line for the human-readable report.
  void note(const std::string& line);

  /// Print the report and the final JSON line; write the stamped record.
  /// Returns the process exit code.
  int finish(double total_wall_s);

  const Options& options() const { return opt_; }

 private:
  const Options& opt_;
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> order_;
  std::vector<std::string> notes_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t checks_ = 0;
  std::uint64_t checks_failed_ = 0;
};

}  // namespace perfbench
