// ABL2: proactive-vs-reactive trade-off sweep (paper Sec. II-B(3)).
//
// "More focus on proactive capability would result in less frequent
// situations where we need to brake significantly harder than 4 m/s^2."
// Sweeps the anticipation horizon and the VRU speed-adaptation strength of
// the tactical policy and measures emergency-braking exposure and incident
// rates on the simulated fleet.
//
// Expected shape: both emergency-braking frequency and incident rate fall
// monotonically (modulo Monte-Carlo noise) as proactivity increases.
#include <algorithm>
#include <cstdint>
#include <iostream>

#include "report/csv.h"
#include "report/table.h"
#include "sim/sim.h"

int main() {
    using namespace qrn;
    using namespace qrn::report;

    std::cout << "ABL2: proactive-vs-reactive policy sweep\n\n";
    const double hours = 3000.0;

    Table horizon_table({"anticipation horizon (s)", "emergency brakings/h",
                         "incidents/h", "collisions/h"});
    CsvWriter csv({"knob", "value", "emergency_per_h", "incidents_per_h",
                   "collisions_per_h"});
    double first_rate = -1.0, last_rate = -1.0;
    for (const double horizon : {1.0, 2.0, 4.0, 6.0, 8.0}) {
        sim::FleetConfig config;
        config.odd = sim::Odd::urban();
        config.policy = sim::TacticalPolicy::nominal();
        config.policy.anticipation_horizon_s = horizon;
        config.seed = 555;
        const auto log = sim::FleetSimulator(config).run(hours);
        const auto& mechanisms = log.incidents.mechanisms();
        const auto collisions = std::count(
            mechanisms.begin(), mechanisms.end(),
            static_cast<std::uint8_t>(IncidentMechanism::Collision));
        const double emergency = static_cast<double>(log.emergency_brakings) / hours;
        horizon_table.add_row({fixed(horizon, 1), fixed(emergency, 3),
                               fixed(static_cast<double>(log.incidents.size()) / hours, 4),
                               fixed(static_cast<double>(collisions) / hours, 4)});
        csv.add_row({"anticipation_horizon_s", fixed(horizon, 1), fixed(emergency, 4),
                     fixed(static_cast<double>(log.incidents.size()) / hours, 5),
                     fixed(static_cast<double>(collisions) / hours, 5)});
        if (first_rate < 0.0) first_rate = emergency;
        last_rate = emergency;
    }
    std::cout << horizon_table.render() << '\n';
    const bool horizon_helps = last_rate < first_rate;

    Table adapt_table({"VRU speed adaptation", "cruise speed in busy zone (km/h)",
                       "incidents/h"});
    double first_incidents = -1.0, last_incidents = -1.0;
    for (const double adaptation : {0.0, 0.15, 0.3, 0.45}) {
        sim::FleetConfig config;
        config.odd = sim::Odd::urban();
        config.policy = sim::TacticalPolicy::nominal();
        config.policy.vru_speed_adaptation = adaptation;
        config.seed = 556;
        const auto log = sim::FleetSimulator(config).run(hours);
        sim::Environment busy;
        busy.speed_limit_kmh = 50.0;
        busy.vru_density = 4.0;
        adapt_table.add_row(
            {fixed(adaptation, 2),
             fixed(config.policy.cruise_speed_kmh(busy, config.odd), 1),
             fixed(static_cast<double>(log.incidents.size()) / hours, 4)});
        csv.add_row({"vru_speed_adaptation", fixed(adaptation, 2), "",
                     fixed(static_cast<double>(log.incidents.size()) / hours, 5), ""});
        if (first_incidents < 0.0) {
            first_incidents = static_cast<double>(log.incidents.size()) / hours;
        }
        last_incidents = static_cast<double>(log.incidents.size()) / hours;
    }
    std::cout << adapt_table.render() << '\n';
    const bool adaptation_helps = last_incidents < first_incidents;

    csv.write_file("abl_policy_sweep.csv");
    std::cout << "series written to abl_policy_sweep.csv\n\n";
    std::cout << "Shape check vs paper: longer anticipation -> fewer emergency "
                 "brakings = "
              << (horizon_helps ? "yes" : "NO")
              << "; stronger VRU adaptation -> fewer incidents = "
              << (adaptation_helps ? "yes" : "NO") << " -> "
              << (horizon_helps && adaptation_helps ? "PASS" : "CHECK") << '\n';
    return 0;
}
