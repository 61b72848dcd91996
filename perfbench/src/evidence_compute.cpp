// evidence_compute: in-memory evidence generation, where sim and exec do
// nearly all the work and store, sched and serve do none.
//
// Rounds of a campaign of nproc long fleets at jobs = nproc, a re-pool of
// its evidence from the in-memory logs, and a 5-level splitting ladder
// over FleetSeverityModel at the same jobs. Fleet
// kernel, chunking and scaling changes show here; store, sched and serve
// changes should not.
#include <cstdio>

#include "common.h"
#include "qrn/json.h"
#include "sim/splitting.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

namespace {

constexpr double kHoursPerFleet = 10000.0;
constexpr double kWarmupHours = 2000.0;
constexpr int kSetups = 31;
/// Re-pools timed together as one sample: a single re-pool of a few
/// fleets' logs takes ~0.1 ms, too short to time steadily on its own.
constexpr int kRepoolsPerSample = 20;
constexpr std::uint64_t kTrialsPerLevel = 10000;

/// Everything a splitting run estimates, printed at full precision, so two
/// runs compare byte for byte.
std::string splitting_json(const qrn::sim::SplittingResult& result) {
    namespace json = qrn::json;
    json::Array levels;
    for (const auto& level : result.estimate.levels) {
        levels.push_back(json::Value(json::Object{
            {"threshold", level.threshold},
            {"trials", static_cast<double>(level.trials)},
            {"successes", static_cast<double>(level.successes)},
            {"effective_trials", static_cast<double>(level.effective_trials)},
            {"effective_successes", static_cast<double>(level.effective_successes)},
            {"conditional", level.conditional},
            {"lower", level.lower},
            {"upper", level.upper},
        }));
    }
    return json::Value(json::Object{
                           {"point", result.estimate.point},
                           {"lower", result.estimate.lower},
                           {"upper", result.estimate.upper},
                           {"fresh_episodes", static_cast<double>(result.fresh_episodes)},
                           {"replayed_episodes",
                            static_cast<double>(result.replayed_episodes)},
                           {"levels", std::move(levels)},
                       })
        .dump();
}

}  // namespace

void run_evidence_compute(const Options& options, Result& result) {
    using namespace qrn;
    const Span root("bench.evidence_compute");
    const auto types = IncidentTypeSet::paper_vru_example();
    const unsigned jobs = options.jobs;
    const sim::CampaignConfig config =
        campaign_config(derive_seed(options.seed, 1), jobs, kHoursPerFleet, jobs);
    const double campaign_hours = static_cast<double>(config.fleets) * config.hours_per_fleet;
    sim::SplittingConfig split;
    split.levels = {40.0, 80.0, 120.0, 160.0, 210.0};
    split.trials_per_level = kTrialsPerLevel;
    split.seed = derive_seed(options.seed, 2);

    // Set-up: build the splitting model and run a small warm-up campaign,
    // which starts the exec pool and faults in the simulator.
    std::vector<double> setups;
    for (int i = 0; i < kSetups; ++i) {
        const Span span("bench.setup");
        const auto start = Clock::now();
        const sim::FleetSeverityModel model(config.base);
        const auto warm = sim::run_campaign(
            campaign_config(config.base.seed, jobs, kWarmupHours, jobs));
        setups.push_back(seconds_since(start));
        result.check(warm.logs.size() == jobs, "warm-up campaign returned every fleet");
    }
    const sim::FleetSeverityModel model(config.base);

    // Rounds of one campaign call (pooled evidence in hand), one re-pool
    // sample over the logs already in memory (the qrn layer) and one
    // splitting ladder.
    InMemoryRuns campaign;
    std::vector<double> pool_times;
    std::string split_reference;
    sim::SplittingResult split_last;
    std::vector<double> split_times;
    run_rounds(0.95 * options.seconds, 5, [&] {
        const Span round("bench.round");
        campaign.run(config, types, 1, result);

        std::vector<TypeEvidence> evidence;
        auto start = Clock::now();
        for (int i = 0; i < kRepoolsPerSample; ++i) {
            const Span span("qrn.pooled_evidence");
            evidence = campaign.last.pooled_evidence(types);
        }
        pool_times.push_back(seconds_since(start) / kRepoolsPerSample);
        result.check(evidence_json(evidence) == campaign.evidence,
                     "re-pooled evidence identical to the campaign's");

        start = Clock::now();
        sim::SplittingResult run;
        {
            const Span span("sim.run_splitting");
            run = sim::run_splitting(model, split, jobs);
        }
        split_times.push_back(seconds_since(start));
        const std::string json = splitting_json(run);
        if (split_reference.empty()) split_reference = json;
        result.check(json == split_reference, "splitting estimate identical on every call");
        split_last = std::move(run);
    });
    const std::string& reference = campaign.evidence;
    const sim::CampaignResult& last = campaign.last;

    const double campaign_s = median(campaign.times);
    const double split_s = median(split_times);
    result.end_to_end["setup_s"] = median(setups);
    result.end_to_end["fleet_hours_per_s"] = campaign_hours / campaign_s;
    result.end_to_end["rerun_fleet_hours_per_s"] = campaign_hours / median(pool_times);
    result.end_to_end["peak_rss_mb"] = peak_rss_mb();

    const CampaignCounts counts = campaign_counts(last);
    const double trials = static_cast<double>(split_last.total_trials);
    const double episodes =
        static_cast<double>(split_last.fresh_episodes + split_last.replayed_episodes);
    auto& layer = result.per_layer;
    layer["sim.run_campaign_s"] = median(campaign.sim_times);
    layer["sim.encounters_per_s"] =
        static_cast<double>(counts.encounters) / median(campaign.sim_times);
    layer["sim.incidents"] = static_cast<double>(counts.incidents);
    layer["sim.run_splitting_s"] = split_s;
    layer["sim.replayed_episode_share"] =
        episodes > 0 ? static_cast<double>(split_last.replayed_episodes) / episodes : 0.0;
    layer["sim.splitting_trials_per_s"] = trials / split_s;
    layer["qrn.pooled_evidence_s"] = median(pool_times);

    char line[256];
    std::snprintf(line, sizeof line,
                  "campaign %zu fleets x %.0f h at jobs %u: median %.4f s over %zu calls; "
                  "splitting %zu levels x %llu trials: median %.4f s over %zu calls",
                  config.fleets, config.hours_per_fleet, jobs, campaign_s,
                  campaign.times.size(), split.levels.size(),
                  static_cast<unsigned long long>(kTrialsPerLevel), split_s,
                  split_times.size());
    result.note(line);
    std::snprintf(line, sizeof line, "splitting_trials_per_s %.1f (1/s)", trials / split_s);
    result.note(line);

    if (!options.trace) return;
    // Traced run only: the same campaign and ladder at jobs 1 must give
    // byte-identical output, and the jobs-1 time is the speed-up base.
    sim::CampaignConfig serial = config;
    serial.jobs = 1;
    const auto start = Clock::now();
    sim::CampaignResult serial_run;
    {
        const Span span("sim.run_campaign");
        serial_run = sim::run_campaign(serial);
    }
    const double serial_s = seconds_since(start);
    result.check(evidence_json(serial_run.pooled_evidence(types)) == reference,
                 "campaign evidence identical at jobs 1 and jobs nproc");
    sim::SplittingResult serial_split;
    {
        const Span span("sim.run_splitting");
        serial_split = sim::run_splitting(model, split, 1);
    }
    result.check(splitting_json(serial_split) == split_reference,
                 "splitting estimate identical at jobs 1 and jobs nproc");
    layer["exec.speedup_vs_jobs1"] = serial_s / campaign_s;
}

}  // namespace perfbench
