#include "core/scenario.h"

#include "common/error.h"
#include "sim/thread_pool.h"

namespace facsp::core {

void MultiCellConfig::validate() const {
  if (cells < 1) throw ConfigError("multicell: cells must be >= 1");
  if (epoch_s <= 0.0) throw ConfigError("multicell: epoch_s must be > 0");
  if (workload_cells < 0)
    throw ConfigError("multicell: workload_cells must be >= 0");
  // sqrt(3)/2 ~ 0.866 is the hex inradius ratio; beyond 0.85 the entry
  // point could land outside the destination's centre cell.
  if (entry_fraction <= 0.0 || entry_fraction > 0.85)
    throw ConfigError("multicell: entry_fraction must be in (0, 0.85]");
  sim::ThreadPool::validate_threads(threads, "multicell");
}

void ScenarioConfig::validate() const {
  if (rings < 0) throw ConfigError("scenario: rings must be >= 0");
  if (cell_radius_m <= 0.0)
    throw ConfigError("scenario: cell radius must be > 0");
  if (capacity_bu <= 0.0) throw ConfigError("scenario: capacity must be > 0");
  traffic.validate();
  spatial.validate();
  multicell.validate();
  if (mobility_update_s <= 0.0)
    throw ConfigError("scenario: mobility update period must be > 0");
  if (horizon_s <= 0.0) throw ConfigError("scenario: horizon must be > 0");
}

}  // namespace facsp::core
