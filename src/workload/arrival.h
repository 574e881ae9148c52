// Arrival processes: *when* the N requests of a batch land inside the
// arrival window.
//
// Every figure of the paper conditions on "N requesting connections", so an
// arrival process here answers a conditional question: given that exactly n
// requests arrive in [t0, t0 + window], how are their arrival times
// distributed?  The default reproduces the paper (i.i.d. uniform times — the
// order statistics of a homogeneous Poisson process conditioned on n
// arrivals); the others reshape the same offered load into bursts, diurnal
// waves or flash crowds without changing the x-axis semantics.
//
// Processes draw every random number from the RandomStream handed to
// generate(), which the caller roots in a hash_seed component stream — so
// any workload stays bit-reproducible across thread counts and runs.
#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "sim/event_queue.h"  // SimTime
#include "sim/rng.h"

namespace facsp::workload {

enum class ArrivalKind {
  kConditionedUniform = 0,  ///< paper behaviour: uniform over the window
  kOnOff = 1,               ///< two-state MMPP: ON/OFF phases, bursty
  kDiurnal = 2,             ///< sinusoidal intensity, sampled by thinning
  kFlashCrowd = 3,          ///< a batch spike on top of a uniform background
};

/// Declarative description of an arrival process; the kind selects which
/// parameter group applies (the others are ignored).  Round-trips through
/// config_io as `traffic.arrival.*` keys.
struct ArrivalSpec {
  ArrivalKind kind = ArrivalKind::kConditionedUniform;

  // --- on-off (two-state Markov-modulated Poisson process) ---------------
  /// Relative arrival intensity while the source is ON / OFF.  Only the
  /// ratio matters: the process is conditioned on n total arrivals.
  double on_rate = 8.0;
  double off_rate = 0.25;
  /// Mean exponential sojourn in the ON / OFF phase (seconds).
  double mean_on_s = 60.0;
  double mean_off_s = 180.0;

  // --- diurnal (non-homogeneous, lambda(t) = 1 + a*sin(2*pi*t/P + phi)) --
  double diurnal_amplitude = 0.8;  ///< a, in [0, 1]
  double diurnal_period_s = 900.0;  ///< P, > 0
  double diurnal_phase_rad = 0.0;   ///< phi

  // --- flash crowd --------------------------------------------------------
  /// Each arrival joins the flash burst with this probability; the rest
  /// spread uniformly over the window.
  double flash_fraction = 0.5;
  /// Burst placement, as offsets from the batch start (clamped into the
  /// window at generation time).
  double flash_start_s = 300.0;
  double flash_duration_s = 30.0;

  /// Throws facsp::ConfigError on out-of-range parameters.
  void validate() const;
};

/// "uniform" | "onoff" | "diurnal" | "flash".
std::string_view arrival_kind_name(ArrivalKind kind) noexcept;
/// Inverse of arrival_kind_name; throws facsp::ConfigError on unknown names.
ArrivalKind arrival_kind_from_name(std::string_view name);

/// Strategy interface: places n arrival times inside one batch window.
class ArrivalProcess {
 public:
  virtual ~ArrivalProcess() = default;

  virtual std::string_view name() const noexcept = 0;

  /// Clear `out` and fill it with exactly `n` arrival times in
  /// [t0, t0 + window_s], sorted ascending.  All randomness comes from
  /// `rng`.  Reuses out's capacity, and a process keeps its own scratch
  /// across calls (so one process serves one caller): once warm, no
  /// process performs a heap allocation.
  virtual void generate(int n, sim::SimTime t0, double window_s,
                        sim::RandomStream& rng,
                        std::vector<sim::SimTime>& out) = 0;
};

/// Factory over the spec (validates it first).
std::unique_ptr<ArrivalProcess> make_arrival_process(const ArrivalSpec& spec);

}  // namespace facsp::workload
