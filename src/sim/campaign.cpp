#include "sim/campaign.h"

#include <stdexcept>

#include "exec/parallel.h"
#include "obs/metrics.h"
#include "stats/rng.h"

namespace qrn::sim {

std::vector<TypeEvidence> CampaignResult::pooled_evidence(
    const IncidentTypeSet& types) const {
    // One columnar pass per log computes every per-type count; the former
    // loop rescanned each log once per incident type (K x incidents).
    std::vector<std::uint64_t> totals(types.size(), 0);
    for (const auto& log : logs) add_matching_counts(log.incidents, types, totals);
    std::vector<TypeEvidence> out;
    out.reserve(types.size());
    for (std::size_t k = 0; k < types.size(); ++k) {
        TypeEvidence e;
        e.incident_type_id = types.at(k).id();
        e.exposure = total_exposure;
        e.events = totals[k];
        out.push_back(std::move(e));
    }
    return out;
}

Frequency CampaignResult::pooled_incident_rate() const {
    double events = 0.0;
    for (const auto& log : logs) events += static_cast<double>(log.incidents.size());
    return Frequency::of_count(events, total_exposure);
}

stats::RunningSummary CampaignResult::per_fleet_rate_summary() const {
    stats::RunningSummary summary;
    for (const auto& log : logs) {
        summary.add(log.incident_rate().per_hour_value());
    }
    return summary;
}

stats::HeterogeneityResult CampaignResult::heterogeneity() const {
    std::vector<stats::RateObservation> observations;
    observations.reserve(logs.size());
    for (const auto& log : logs) {
        observations.push_back({log.incidents.size(), log.exposure.hours()});
    }
    return stats::rate_heterogeneity_test(observations);
}

CampaignResult run_campaign(const CampaignConfig& config) {
    if (config.fleets == 0) {
        throw std::invalid_argument("run_campaign: fleets must be >= 1");
    }
    if (!(config.hours_per_fleet > 0.0)) {
        throw std::invalid_argument("run_campaign: hours_per_fleet must be > 0");
    }
    CampaignResult result;
    if (obs::enabled()) obs::add_counter("sim.campaign_fleets", config.fleets);
    // Fleet i's whole run is a pure function of stream_seed(base.seed, i),
    // so the fleets can execute in any order on any thread; parallel_map
    // restores seed order when collecting. Each fleet runs its stretches
    // serially - the campaign level is where the parallelism pays.
    result.logs = exec::parallel_map<IncidentLog>(
        config.jobs, config.fleets, [&](std::size_t i) {
            FleetConfig fleet = config.base;
            fleet.seed = stats::Rng::stream_seed(config.base.seed, i);
            return FleetSimulator(fleet).run(config.hours_per_fleet);
        });
    for (const auto& log : result.logs) result.total_exposure += log.exposure;
    return result;
}

}  // namespace qrn::sim
