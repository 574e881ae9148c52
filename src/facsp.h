// Umbrella header: the full public API of the facsp library.
//
// Include this for exploratory code; production code should include the
// specific module headers it uses (they are all self-contained).
#pragma once

// Support
#include "common/error.h"      // exception hierarchy
#include "common/math_util.h"  // angles, clamping, tolerant comparison

// Generic fuzzy logic
#include "fuzzy/builder.h"      // fluent variable/controller construction
#include "fuzzy/controller.h"   // crisp-in/crisp-out Mamdani FLC
#include "fuzzy/defuzzifier.h"  // centroid, bisector, MOM, weighted average
#include "fuzzy/inference.h"    // min/max rule evaluation, batched lanes
#include "fuzzy/membership.h"   // triangular / trapezoidal / shoulders
#include "fuzzy/rulebase.h"     // validated rule sets
#include "fuzzy/variable.h"     // linguistic variables

// Discrete-event simulation
#include "sim/event_queue.h"  // SimTime, the stable (time, seq) event heap
#include "sim/rng.h"          // named deterministic streams
#include "sim/stats.h"        // mean/CI/time-weighted
#include "sim/timeseries.h"   // figure/CSV rendering

// Cellular network substrate
#include "cellular/basestation.h"  // bandwidth-unit ledger
#include "cellular/connection.h"   // call lifecycle records
#include "cellular/erlang.h"       // Erlang-B / Kaufman-Roberts oracles
#include "cellular/hexgrid.h"      // hex geometry
#include "cellular/metrics.h"      // acceptance / blocking / dropping
#include "cellular/mobility.h"     // mobility model + direction predictor
#include "cellular/network.h"      // disc of cells
#include "cellular/service.h"      // text/voice/video classes, traffic mix
#include "cellular/traffic.h"      // workload generation

// Call admission control
#include "cac/counters.h"       // RTC/NRTC differentiated counters
#include "cac/facs.h"           // previous system (distance-based)
#include "cac/facs_flc.h"       // the paper's FLC1/FLC2 construction
#include "cac/facs_p.h"         // the proposed system (the contribution)
#include "cac/facs_pr.h"        // future work: requesting-connection priority
#include "cac/guard_channel.h"  // classical baselines
#include "cac/policy.h"         // AdmissionPolicy interface
#include "cac/scc.h"            // Shadow Cluster Concept baseline

// Experiments
#include "core/config_io.h"    // scenario files
#include "core/experiment.h"   // one simulated cell, policy factories
#include "core/paper.h"        // the paper's Sec. 4 scenarios
#include "core/report.h"       // shape checks, CSV
#include "core/scenario.h"     // ScenarioConfig
#include "core/session.h"      // the session driver and its event loop
#include "core/sweep.h"        // replicated sweeps (SweepSpec, SweepRunner)
