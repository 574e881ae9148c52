#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>

#include "core/config_io.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

struct KeptSpan {
  const char* layer;
  std::uint64_t ts_ns, dur_ns;
  std::int64_t arg;
};

std::mutex g_spans_mu;
std::vector<KeptSpan> g_spans;  // guarded by g_spans_mu

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

/// Host fingerprint: CPU model, cores, ISA flags, compiler, build type.
std::map<std::string, std::string> host_fingerprint() {
  std::map<std::string, std::string> fp;
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line, model = "unknown", flags;
  while (std::getline(cpuinfo, line)) {
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string key = line.substr(0, colon);
    key.erase(key.find_last_not_of(" \t") + 1);
    const std::string value =
        colon + 2 <= line.size() ? line.substr(colon + 2) : "";
    if (key == "model name" && model == "unknown") model = value;
    if (key == "flags" && flags.empty()) flags = value;
  }
  // Only the ISA extensions the library's kernels and compiler can use.
  std::string isa;
  std::istringstream fl(flags);
  for (std::string f; fl >> f;) {
    for (const char* want : {"sse4_2", "avx", "avx2", "fma", "avx512f",
                             "avx512bw", "avx512vl", "bmi2"}) {
      if (f == want) isa += (isa.empty() ? "" : ",") + f;
    }
  }
  fp["cpu"] = model;
  fp["cores"] = std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  fp["isa"] = isa.empty() ? "none" : isa;
  fp["compiler"] = PERFBENCH_COMPILER;
  fp["build_type"] = PERFBENCH_BUILD_TYPE;
#if defined(FACSP_SIMD_ENABLED)
  fp["facsp_simd"] = "on";
#else
  fp["facsp_simd"] = "off";
#endif
  return fp;
}

}  // namespace

Timed::~Timed() {
  if (!facsp::obs::Tracer::enabled()) return;
  const auto end = Clock::now();
  const KeptSpan span{
      layer_, facsp::obs::Tracer::to_trace_ns(start_),
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(end - start_)
              .count()),
      arg_};
  std::lock_guard<std::mutex> lock(g_spans_mu);
  g_spans.push_back(span);
}

void flush_spans() {
  std::vector<KeptSpan> spans;
  {
    std::lock_guard<std::mutex> lock(g_spans_mu);
    spans.swap(g_spans);
  }
  for (const KeptSpan& s : spans)
    facsp::obs::Tracer::record("bench", s.layer, s.ts_ns, s.dur_ns, s.arg);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double rel_spread(const std::vector<double>& v) {
  if (v.size() < 2) return 0.0;
  const double med = median(v);
  if (med == 0.0) return 0.0;
  return (quantile(v, 0.75) - quantile(v, 0.25)) / std::fabs(med);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void Report::add_samples(const std::string& name, const std::string& unit,
                         const std::vector<double>& samples) {
  add(name, unit, median(samples), samples.size(), rel_spread(samples));
}

void Report::add(const std::string& name, const std::string& unit,
                 double value, std::uint64_t samples, double spread) {
  if (!metrics_.count(name)) order_.push_back(name);
  metrics_[name] = Metric{unit, value, spread, samples};
}

void Report::check(bool ok, const std::string& what) {
  ++checks_;
  if (!ok) {
    ++checks_failed_;
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
    notes_.push_back("CHECK FAILED: " + what);
  }
}

void Report::note(const std::string& line) { notes_.push_back(line); }

int Report::finish(double total_wall_s) {
  const auto fp = host_fingerprint();
  const bool correct = checks_failed_ == 0;
  // A failed check is one more failed operation: fail_ratio counts it.
  const std::uint64_t failed = failed_ + checks_failed_;
  const std::uint64_t attempted = std::max<std::uint64_t>(attempted_, 1);
  const double fail_ratio =
      static_cast<double>(failed) / static_cast<double>(attempted);

  std::printf("perfbench %s  seed %llu  seconds %g  trace %d%s\n",
              opt_.workload.c_str(),
              static_cast<unsigned long long>(opt_.seed), opt_.seconds,
              opt_.trace ? 1 : 0, opt_.smoke ? "  (smoke)" : "");
  std::printf("host: cpu=\"%s\" cores=%s isa=%s compiler=\"%s\" build=%s "
              "simd=%s git=%s\n",
              fp.at("cpu").c_str(), fp.at("cores").c_str(),
              fp.at("isa").c_str(), fp.at("compiler").c_str(),
              fp.at("build_type").c_str(), fp.at("facsp_simd").c_str(),
              opt_.git_sha.c_str());
  for (const std::string& n : notes_) std::printf("  %s\n", n.c_str());
  std::printf("  %-34s %-6s %16s %9s %9s\n", "metric", "unit", "median",
              "spread", "samples");
  for (const std::string& name : order_) {
    const Metric& m = metrics_.at(name);
    std::printf("  %-34s %-6s %16.6g %9.4f %9llu\n", name.c_str(),
                m.unit.c_str(), m.value, m.spread,
                static_cast<unsigned long long>(m.samples));
  }
  std::printf("  %-34s %-6s %16.6g %9s %9llu\n", "fail_ratio", "ratio",
              fail_ratio, "-", static_cast<unsigned long long>(attempted));
  std::printf("  checks: %llu run, %llu failed; wall %.3f s\n",
              static_cast<unsigned long long>(checks_),
              static_cast<unsigned long long>(checks_failed_), total_wall_s);

  // The stamped record: fingerprint, seed, sha and every metric with its
  // spread and sample count.
  std::ostringstream rec;
  rec << "{\n  \"workload\": \"" << json_escape(opt_.workload) << "\",\n"
      << "  \"seed\": " << opt_.seed << ",\n"
      << "  \"seconds\": " << facsp::core::format_double(opt_.seconds)
      << ",\n  \"trace\": " << (opt_.trace ? 1 : 0) << ",\n"
      << "  \"smoke\": " << (opt_.smoke ? "true" : "false") << ",\n"
      << "  \"git_sha\": \"" << json_escape(opt_.git_sha) << "\",\n"
      << "  \"host\": {";
  bool first = true;
  for (const auto& [k, v] : fp) {
    rec << (first ? "" : ", ") << "\"" << k << "\": \"" << json_escape(v)
        << "\"";
    first = false;
  }
  rec << "},\n  \"correct\": " << (correct ? "true" : "false")
      << ",\n  \"attempted\": " << attempted << ",\n  \"failed\": " << failed
      << ",\n  \"fail_ratio\": " << facsp::core::format_double(fail_ratio)
      << ",\n  \"metrics\": {";
  first = true;
  for (const std::string& name : order_) {
    const Metric& m = metrics_.at(name);
    rec << (first ? "\n" : ",\n") << "    \"" << name << "\": {\"median\": "
        << facsp::core::format_double(m.value) << ", \"unit\": \"" << m.unit
        << "\", \"spread\": " << facsp::core::format_double(m.spread)
        << ", \"samples\": " << m.samples << "}";
    first = false;
  }
  rec << "\n  },\n  \"notes\": [";
  first = true;
  for (const std::string& n : notes_) {
    rec << (first ? "" : ", ") << "\"" << json_escape(n) << "\"";
    first = false;
  }
  rec << "]\n}\n";
  const std::string rec_path = opt_.out_dir + "/record-" + opt_.workload +
                               "-seed" + std::to_string(opt_.seed) +
                               "-trace" + (opt_.trace ? "1" : "0") + ".json";
  std::ofstream(rec_path) << rec.str();
  std::printf("  record: %s\n", rec_path.c_str());

  // Last line: the machine-readable result.  A failed check yields no
  // metric at all — never a throughput number from a wrong run.
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  if (correct) {
    first = true;
    for (const std::string& name : order_) {
      const Metric& m = metrics_.at(name);
      std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                  first ? "" : ", ", name.c_str(),
                  facsp::core::format_double(m.value).c_str(),
                  m.unit.c_str());
      first = false;
    }
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace perfbench
