#include "sim/chaos/scenario.h"

#include <cmath>
#include <sstream>
#include <stdexcept>

namespace libra::chaos {

sim::EngineConfig Scenario::engine_config() const {
  sim::EngineConfig cfg;
  cfg.node_capacities = node_capacities;
  cfg.num_shards = num_shards;
  cfg.fault_plan = plan;
  cfg.fault_profile = profile;
  cfg.spot_drain_notice = spot_drain_notice;
  cfg.control.num_controllers = num_controllers;
  cfg.control.gossip_period = gossip_period;
  cfg.control.gossip_fanout = gossip_fanout;
  // Fuzz scenarios span tens of sim-seconds; the default 600 s placement
  // timeout would let an everything-dead scenario idle for minutes of sim
  // time after the last arrival. Short bounds keep each oracle leg fast
  // without changing what the differential check proves.
  cfg.placement_timeout = 60.0;
  cfg.churn_horizon_pad = 60.0;
  return cfg;
}

void Scenario::validate() const {
  engine_config().validate();
  if (controllers_b < 1) {
    throw std::invalid_argument(
        "chaos::Scenario: controllers_b must be >= 1, got " +
        std::to_string(controllers_b));
  }
  // The controller-differential leg runs at controllers_b; validate that
  // configuration too (num_controllers itself was covered above).
  sim::EngineConfig cfg_b = engine_config();
  cfg_b.control.num_controllers = controllers_b;
  cfg_b.validate();
  gen.validate();
  // The EngineConfig pass above checked node ranges; re-validate with the
  // catalog size so prediction faults must target a real function.
  plan.validate(node_capacities.size(), gen.functions);
  if (num_tenants < 1) {
    throw std::invalid_argument("chaos::Scenario: num_tenants must be >= 1, got " +
                                std::to_string(num_tenants));
  }
  for (const auto& [tenant, cap] : tenant_quotas) {
    if (tenant < 0 || tenant >= num_tenants) {
      throw std::invalid_argument(
          "chaos::Scenario: quota for tenant " + std::to_string(tenant) +
          " outside [0, " + std::to_string(num_tenants) + ")");
    }
    if (!std::isfinite(cap.cpu) || !(cap.cpu > 0.0) || !std::isfinite(cap.mem) ||
        !(cap.mem > 0.0)) {
      std::ostringstream os;
      os << "chaos::Scenario: tenant " << tenant
         << " quota must be finite and positive, got {" << cap.cpu << ", "
         << cap.mem << "}";
      throw std::invalid_argument(os.str());
    }
  }
  if (inject.at_event < 0) {
    throw std::invalid_argument(
        "chaos::Scenario: inject.at_event must be >= 0, got " +
        std::to_string(inject.at_event));
  }
}

}  // namespace libra::chaos
