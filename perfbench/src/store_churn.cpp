// store_churn: many short fleets against a fresh store, where simulation
// is a small share of the time and the store's seal, manifest, verify and
// aggregate paths dominate.
//
// Each cycle runs the campaign in memory a few times, cold against an
// empty store (simulate and seal every fleet, then aggregate), reopens the
// store and reruns it warm several times (verify and reuse every shard,
// then aggregate), and deletes the store.
// The evidence of the cold run, the warm run and an in-memory run of the
// same config must be byte-identical.
#include <cstdio>
#include <optional>

#include "common.h"
#include "qrn/serialize.h"
#include "stats.h"
#include "store/store.h"
#include "trace.h"

namespace perfbench {

namespace {

constexpr std::size_t kFleets = 256;
constexpr double kHoursPerFleet = 10.0;
constexpr int kWarmPasses = 5;
constexpr int kMemoryCallsPerCycle = 4;

}  // namespace

void run_store_churn(const Options& options, Result& result) {
    using namespace qrn;
    const Span root("bench.store_churn");
    const auto types = IncidentTypeSet::paper_vru_example();
    const std::string digest = to_json(types).dump();
    const sim::CampaignConfig config =
        campaign_config(derive_seed(options.seed, 3), kFleets, kHoursPerFleet, options.jobs);
    const double hours = static_cast<double>(kFleets) * kHoursPerFleet;

    // The in-memory campaign of the same config: the correctness
    // reference, the simulation-only cost the store calls are compared
    // against, and this workload's gated production throughput (see the
    // end-to-end metrics below).
    InMemoryRuns memory;
    memory.run(config, types, 1, result);
    const std::string& reference = memory.evidence;

    std::vector<double> setups;
    std::vector<double> cold_times, cold_calls, warm_times, warm_calls, aggregates;
    double reads_per_shard = 0.0;
    double bytes_written = 0.0;
    double bytes_read = 0.0;
    run_rounds(0.95 * options.seconds, 3, [&] {
        const Span cycle("bench.cycle");
        memory.run(config, types, kMemoryCallsPerCycle, result);
        const std::string dir = fresh_dir(options, "store_churn");
        const std::uint64_t written_before = obs_counter("store.bytes_written");
        {
            const Span phase("bench.cold");
            auto cold_start = Clock::now();
            std::optional<store::Store> store;
            {
                const Span span("store.Store.open");
                store.emplace(dir);
            }
            const StorePass cold = store_pass(config, *store, types, digest);
            cold_times.push_back(seconds_since(cold_start));
            cold_calls.push_back(cold.campaign_s);
            result.check(cold.stats.fleets_simulated == kFleets,
                         "cold run simulated every fleet");
            result.check(cold.evidence == reference,
                         "cold store evidence identical to the in-memory run");
        }
        bytes_written = static_cast<double>(obs_counter("store.bytes_written") - written_before);

        // Warm reruns. Opening the populated store (manifest load and
        // heal) is the set-up a rerun pays before its first timed call.
        for (int pass = 0; pass < kWarmPasses; ++pass) {
            std::optional<store::Store> store;
            {
                const Span span("store.Store.open");
                const auto open_start = Clock::now();
                store.emplace(dir);
                setups.push_back(seconds_since(open_start));
            }
            const std::uint64_t reads_before = obs_counter("store.shards_read");
            const std::uint64_t read_bytes_before = obs_counter("store.bytes_read");
            const Span phase("bench.warm");
            const auto warm_start = Clock::now();
            const StorePass warm = store_pass(config, *store, types, digest);
            warm_times.push_back(seconds_since(warm_start));
            warm_calls.push_back(warm.campaign_s);
            aggregates.push_back(warm.aggregate_s);
            result.check(warm.stats.fleets_reused == kFleets, "warm run reused every shard");
            result.check(warm.evidence == reference,
                         "warm store evidence identical to the in-memory run");
            reads_per_shard =
                static_cast<double>(obs_counter("store.shards_read") - reads_before) /
                static_cast<double>(kFleets);
            bytes_read = static_cast<double>(obs_counter("store.bytes_read") - read_bytes_before);
        }
        remove_dir(dir);
    });

    // Cold production is fsync-bound: its run-to-run spread on a shared
    // disk is wider than any bound the benchmark may set, so it is a
    // per-layer number and the gated production throughput is the
    // in-memory campaign of the same many-short-fleets config.
    const double memory_s = median(memory.sim_times);
    const CampaignCounts counts = campaign_counts(memory.last);
    result.end_to_end["setup_s"] = median(setups);
    result.end_to_end["fleet_hours_per_s"] = hours / median(memory.times);
    result.end_to_end["rerun_fleet_hours_per_s"] = hours / median(warm_times);
    result.end_to_end["peak_rss_mb"] = peak_rss_mb();

    auto& layer = result.per_layer;
    layer["sim.run_campaign_s"] = memory_s;
    layer["sim.encounters_per_s"] = static_cast<double>(counts.encounters) / memory_s;
    layer["sim.incidents"] = static_cast<double>(counts.incidents);
    layer["store.cold_fleet_hours_per_s"] = hours / median(cold_times);
    layer["store.campaign_cold_s"] = median(cold_calls);
    layer["store.cost_over_mem_s"] = median(cold_calls) - memory_s;
    layer["store.seal_ms_mean"] = obs_timer_mean_ms("store.shard_write_ns");
    layer["store.campaign_warm_s"] = median(warm_calls);
    layer["store.aggregate_evidence_s"] = median(aggregates);
    layer["store.reads_per_shard"] = reads_per_shard;
    layer["store.bytes_written"] = bytes_written;
    layer["store.bytes_read"] = bytes_read;

    char line[256];
    std::snprintf(line, sizeof line,
                  "%zu fleets x %.0f h, %zu cycles: cold median %.4f s, warm median %.4f s, "
                  "in-memory median %.4f s",
                  kFleets, kHoursPerFleet, cold_times.size(), median(cold_times),
                  median(warm_times), memory_s);
    result.note(line);
}

}  // namespace perfbench
