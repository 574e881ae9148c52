#include "core/config_io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include "common/error.h"
#include "core/paper.h"
#include "sim/thread_pool.h"

namespace facsp::core {
namespace {

TEST(ConfigIo, RoundTripPreservesEveryField) {
  ScenarioConfig original = paper_scenario(123);
  original.rings = 2;
  original.cell_radius_m = 1750.0;
  original.capacity_bu = 48.0;
  original.enable_mobility = false;
  original.spatial.kind = workload::SpatialKind::kHighway;
  original.spatial.hotspot_decay = 0.25;
  original.spatial.highway_halfwidth_m = 900.0;
  original.spatial.highway_off_weight = 0.05;
  original.traffic.arrival.kind = workload::ArrivalKind::kOnOff;
  original.traffic.arrival.on_rate = 6.0;
  original.traffic.arrival.off_rate = 0.5;
  original.traffic.arrival.mean_on_s = 45.0;
  original.traffic.arrival.mean_off_s = 90.0;
  original.traffic.arrival.flash_fraction = 0.4;
  original.traffic.priority_low = 0.1;
  original.traffic.priority_normal = 0.7;
  original.traffic.priority_high = 0.2;
  original.traffic.mix_schedule = workload::MixSchedule(
      {{0.0, cellular::TrafficMix{0.6, 0.25, 0.15}},
       {300.0, cellular::TrafficMix{0.3, 0.3, 0.4}}});
  original.mobility_update_s = 2.5;
  original.horizon_s = 7200.0;
  original.traffic.arrival_window_s = 450.0;
  original.traffic.mean_holding_s = 210.0;
  original.traffic.mix = cellular::TrafficMix{0.6, 0.25, 0.15};
  original.traffic.min_speed_kmh = 5.0;
  original.traffic.max_speed_kmh = 90.0;
  original.traffic.fixed_speed_kmh = 42.0;
  original.traffic.fixed_angle_deg = -30.0;
  original.mobility.base_sigma_deg = 37.0;
  original.predictor.reference_kmh = 25.0;

  const ScenarioConfig parsed =
      scenario_from_string(scenario_to_string(original));

  EXPECT_EQ(parsed.seed, original.seed);
  EXPECT_EQ(parsed.rings, original.rings);
  EXPECT_DOUBLE_EQ(parsed.cell_radius_m, original.cell_radius_m);
  EXPECT_DOUBLE_EQ(parsed.capacity_bu, original.capacity_bu);
  EXPECT_EQ(parsed.enable_mobility, original.enable_mobility);
  EXPECT_EQ(parsed.spatial.kind, original.spatial.kind);
  EXPECT_DOUBLE_EQ(parsed.spatial.hotspot_decay,
                   original.spatial.hotspot_decay);
  EXPECT_DOUBLE_EQ(parsed.spatial.highway_halfwidth_m,
                   original.spatial.highway_halfwidth_m);
  EXPECT_DOUBLE_EQ(parsed.spatial.highway_off_weight,
                   original.spatial.highway_off_weight);
  EXPECT_EQ(parsed.traffic.arrival.kind, original.traffic.arrival.kind);
  EXPECT_DOUBLE_EQ(parsed.traffic.arrival.on_rate,
                   original.traffic.arrival.on_rate);
  EXPECT_DOUBLE_EQ(parsed.traffic.arrival.off_rate,
                   original.traffic.arrival.off_rate);
  EXPECT_DOUBLE_EQ(parsed.traffic.arrival.mean_on_s,
                   original.traffic.arrival.mean_on_s);
  EXPECT_DOUBLE_EQ(parsed.traffic.arrival.mean_off_s,
                   original.traffic.arrival.mean_off_s);
  EXPECT_DOUBLE_EQ(parsed.traffic.arrival.flash_fraction,
                   original.traffic.arrival.flash_fraction);
  EXPECT_DOUBLE_EQ(parsed.traffic.priority_low, original.traffic.priority_low);
  EXPECT_DOUBLE_EQ(parsed.traffic.priority_normal,
                   original.traffic.priority_normal);
  EXPECT_DOUBLE_EQ(parsed.traffic.priority_high,
                   original.traffic.priority_high);
  EXPECT_EQ(parsed.traffic.mix_schedule, original.traffic.mix_schedule);
  EXPECT_DOUBLE_EQ(parsed.mobility_update_s, original.mobility_update_s);
  EXPECT_DOUBLE_EQ(parsed.horizon_s, original.horizon_s);
  EXPECT_DOUBLE_EQ(parsed.traffic.arrival_window_s,
                   original.traffic.arrival_window_s);
  EXPECT_DOUBLE_EQ(parsed.traffic.mean_holding_s,
                   original.traffic.mean_holding_s);
  EXPECT_DOUBLE_EQ(parsed.traffic.mix.text, original.traffic.mix.text);
  EXPECT_DOUBLE_EQ(parsed.traffic.mix.voice, original.traffic.mix.voice);
  EXPECT_DOUBLE_EQ(parsed.traffic.mix.video, original.traffic.mix.video);
  ASSERT_TRUE(parsed.traffic.fixed_speed_kmh.has_value());
  EXPECT_DOUBLE_EQ(*parsed.traffic.fixed_speed_kmh, 42.0);
  ASSERT_TRUE(parsed.traffic.fixed_angle_deg.has_value());
  EXPECT_DOUBLE_EQ(*parsed.traffic.fixed_angle_deg, -30.0);
  EXPECT_DOUBLE_EQ(parsed.mobility.base_sigma_deg, 37.0);
  EXPECT_DOUBLE_EQ(parsed.predictor.reference_kmh, 25.0);
}

TEST(ConfigIo, DefaultsWhenKeysOmitted) {
  const ScenarioConfig parsed = scenario_from_string("seed = 9\n");
  const ScenarioConfig defaults;
  EXPECT_EQ(parsed.seed, 9u);
  EXPECT_EQ(parsed.rings, defaults.rings);
  EXPECT_DOUBLE_EQ(parsed.capacity_bu, defaults.capacity_bu);
}

TEST(ConfigIo, CommentsAndBlankLines) {
  const auto parsed = scenario_from_string(R"(
# a comment
seed = 4     # trailing comment

capacity_bu = 20
)");
  EXPECT_EQ(parsed.seed, 4u);
  EXPECT_DOUBLE_EQ(parsed.capacity_bu, 20.0);
}

TEST(ConfigIo, NoneClearsOptionalFields) {
  const auto parsed = scenario_from_string(
      "traffic.fixed_speed_kmh = 50\ntraffic.fixed_speed_kmh = none\n");
  EXPECT_FALSE(parsed.traffic.fixed_speed_kmh.has_value());
}

TEST(ConfigIo, UnknownKeyIsAnError) {
  try {
    scenario_from_string("sede = 4\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 1);
    EXPECT_NE(std::string(e.what()).find("sede"), std::string::npos);
  }
}

TEST(ConfigIo, BadValueIsAnErrorWithLine) {
  // Non-finite numbers are bad values too: validate()'s `<= 0` range checks
  // would let NaN through.
  for (const std::string line :
       {"capacity_bu = fast", "horizon_s = nan", "horizon_s = inf",
        "cell_radius_m = nan", "capacity_bu = nan", "sim.epoch_s = nan",
        "traffic.mean_holding_s = nan"}) {
    try {
      scenario_from_string("seed = 1\n" + line + "\n");
      ADD_FAILURE() << "expected ParseError for '" << line << "'";
    } catch (const ParseError& e) {
      EXPECT_EQ(e.line(), 2) << line;
    }
    const auto eq = line.find(" = ");
    ScenarioConfig s;
    EXPECT_THROW(
        apply_scenario_key(s, line.substr(0, eq), line.substr(eq + 3)),
        ConfigError)
        << line;
  }
}

TEST(ConfigIo, MissingEqualsIsAnError) {
  EXPECT_THROW(scenario_from_string("seed 4\n"), ParseError);
}

TEST(ConfigIo, SemanticValidationApplies) {
  // Parses fine, but the mix does not sum to 1 -> ConfigError from
  // validate().
  EXPECT_THROW(scenario_from_string("traffic.mix.text = 0.9\n"), ConfigError);
}

TEST(ConfigIo, ThreadCountsAboveTheCapAreRejected) {
  // sim.threads arrives from config files and --cell-threads; each worker
  // is an OS thread.  Only validate() runs here: no pool is built.
  ScenarioConfig s = paper_scenario();
  const std::string cap = std::to_string(sim::ThreadPool::kMaxThreads);
  apply_scenario_key(s, "sim.threads", cap);
  EXPECT_NO_THROW(s.validate());
  apply_scenario_key(s, "sim.threads",
                     std::to_string(sim::ThreadPool::kMaxThreads + 1));
  EXPECT_THROW(s.validate(), ConfigError);
  apply_scenario_key(s, "sim.threads", "100000");
  EXPECT_THROW(s.validate(), ConfigError);
}

TEST(ConfigIo, FileRoundTrip) {
  const std::string path = "/tmp/facsp_scenario_test.cfg";
  ScenarioConfig original = paper_scenario(55);
  original.capacity_bu = 33.0;
  save_scenario_file(original, path);
  const ScenarioConfig loaded = load_scenario_file(path);
  EXPECT_EQ(loaded.seed, 55u);
  EXPECT_DOUBLE_EQ(loaded.capacity_bu, 33.0);
  std::remove(path.c_str());
}

TEST(ConfigIo, MissingFileThrows) {
  EXPECT_THROW(load_scenario_file("/nonexistent/facsp.cfg"), Error);
}

TEST(ConfigIo, UnknownArrivalOrSpatialKindIsAnError) {
  EXPECT_THROW(scenario_from_string("traffic.arrival.kind = burst\n"),
               ParseError);
  EXPECT_THROW(scenario_from_string("spatial.kind = everywhere\n"),
               ParseError);
}

TEST(ConfigIo, RemovedBackgroundTrafficKeyIsAnError) {
  // The all-or-nothing flag was replaced by spatial.kind; old configs must
  // fail loudly, not silently revert to center-only.
  EXPECT_THROW(scenario_from_string("background_traffic = true\n"),
               ParseError);
}

TEST(ConfigIo, DoubleRoundTripIsLossless) {
  // Dumped configs must reproduce the in-memory scenario bit for bit — a
  // 6-significant-digit printer would silently change the simulation (or
  // even make a valid mix unloadable: thirds truncate to a sum of
  // 0.999999, outside validate()'s tolerance).
  ScenarioConfig original = paper_scenario(1);
  original.traffic.arrival.kind = workload::ArrivalKind::kDiurnal;
  original.traffic.arrival.diurnal_phase_rad = 0.78539816339744828;  // pi/4
  const double third = 1.0 / 3.0;
  original.traffic.mix = cellular::TrafficMix{third, third, third};
  original.traffic.mix_schedule = workload::MixSchedule(
      {{450.0, cellular::TrafficMix{third, third, third}}});
  original.traffic.fixed_speed_kmh = 100.0 / 3.0;

  const ScenarioConfig parsed =
      scenario_from_string(scenario_to_string(original));
  EXPECT_EQ(parsed.traffic.arrival.diurnal_phase_rad,
            original.traffic.arrival.diurnal_phase_rad);
  EXPECT_EQ(parsed.traffic.mix.text, third);
  EXPECT_EQ(parsed.traffic.mix_schedule, original.traffic.mix_schedule);
  ASSERT_TRUE(parsed.traffic.fixed_speed_kmh.has_value());
  EXPECT_EQ(*parsed.traffic.fixed_speed_kmh, 100.0 / 3.0);
}

TEST(ConfigIo, MalformedMixScheduleIsAnError) {
  EXPECT_THROW(scenario_from_string("traffic.mix_schedule = 0:0.7/0.2\n"),
               ParseError);
  // Segment mixes must individually sum to 1.
  EXPECT_THROW(
      scenario_from_string("traffic.mix_schedule = 0:0.9/0.9/0.9\n"),
      ParseError);
}

TEST(ConfigIo, ScenarioKeysEnumerateTheWholeRegistry) {
  // scenario_keys() is the sweep layer's and `--list-keys`' view of the
  // field registry: every key must round-trip through apply_scenario_key
  // with the value save_scenario prints for it.
  const std::vector<std::string> keys = scenario_keys();
  ASSERT_FALSE(keys.empty());
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  const std::string dump = scenario_to_string(ScenarioConfig{});
  ScenarioConfig rebuilt;
  for (const std::string& key : keys) {
    const std::size_t at = dump.find('\n' + key + " = ");
    ASSERT_NE(at, std::string::npos) << key;
    const std::size_t begin = at + key.size() + 4;
    const std::string value =
        dump.substr(begin, dump.find('\n', begin) - begin);
    EXPECT_NO_THROW(apply_scenario_key(rebuilt, key, value)) << key;
  }
  EXPECT_EQ(scenario_to_string(rebuilt), dump);
  EXPECT_THROW(apply_scenario_key(rebuilt, "no.such.key", "1"), ConfigError);
}

}  // namespace
}  // namespace facsp::core
