// Observability-layer micro-benchmarks: what a span, a counter bump and a
// histogram record cost on both sides of the global switches.
//
// The numbers that matter:
//
//   * BM_SpanDisabled — the price every instrumented hot path pays when
//     observability is off (the default).  Two relaxed loads + branches;
//     must stay in the low single-digit ns or the "disabled is free" claim
//     in src/obs/trace.h is broken.
//   * BM_SpanTraced / BM_SpanHistogram — the enabled cost: two clock reads
//     plus a ring write and/or histogram record.  Bounds the overhead of a
//     traced run.
//   * BM_CounterAdd / BM_HistogramRecord / BM_TracerRecord — the primitive
//     recording operations in isolation (no clock reads).
//
// No baseline is recorded here.  perfbench tracks these costs end to end,
// parent against change on one host: the disabled span runs inside every
// untraced end-to-end metric, and obs.on_off_ratio and
// bench.trace_overhead price the enabled paths.
#include <benchmark/benchmark.h>

#include <cstdint>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace {

using namespace facsp;

/// Every bench leaves the process the way it found it (switches off, tracer
/// cleared) so registration order can't bleed between benchmarks.
void obs_all_off() {
  obs::Tracer::clear();
  obs::set_metrics_enabled(false);
}

void BM_SpanDisabled(benchmark::State& state) {
  obs_all_off();
  for (auto _ : state) {
    obs::ScopedSpan span("bench", "disabled");
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_SpanDisabled);

void BM_SpanTraced(benchmark::State& state) {
  obs_all_off();
  obs::Tracer::start();
  for (auto _ : state) {
    obs::ScopedSpan span("bench", "traced");
    benchmark::DoNotOptimize(&span);
  }
  obs_all_off();
}
BENCHMARK(BM_SpanTraced);

void BM_SpanHistogram(benchmark::State& state) {
  // Metrics-only mode: the span mirrors its duration into a histogram, the
  // tracer stays off (no ring write).
  obs_all_off();
  obs::set_metrics_enabled(true);
  obs::Histogram& hist =
      obs::Registry::instance().histogram("bench.span_ns");
  for (auto _ : state) {
    obs::ScopedSpan span("bench", "hist", obs::Tracer::kNoArg, &hist);
    benchmark::DoNotOptimize(&span);
  }
  obs_all_off();
}
BENCHMARK(BM_SpanHistogram);

void BM_CounterAdd(benchmark::State& state) {
  obs::Counter& counter = obs::Registry::instance().counter("bench.counter");
  for (auto _ : state) {
    counter.add(1);
  }
  benchmark::DoNotOptimize(counter.value());
}
BENCHMARK(BM_CounterAdd);

void BM_HistogramRecord(benchmark::State& state) {
  obs::Histogram& hist = obs::Registry::instance().histogram("bench.hist");
  std::uint64_t v = 1;
  for (auto _ : state) {
    hist.record(v);
    v = (v * 3 + 7) & 0xffffff;  // exercise different buckets
  }
  benchmark::DoNotOptimize(hist.count());
}
BENCHMARK(BM_HistogramRecord);

void BM_TracerRecord(benchmark::State& state) {
  // The raw ring write, timestamps precomputed — isolates the buffer cost
  // from the clock reads a ScopedSpan adds on top.
  obs_all_off();
  obs::Tracer::start();
  std::uint64_t ts = 0;
  for (auto _ : state) {
    obs::Tracer::record("bench", "event", ts, 1);
    ++ts;
  }
  obs_all_off();
}
BENCHMARK(BM_TracerRecord);

}  // namespace

BENCHMARK_MAIN();
