// distributed_churn: the `qrn campaign --distributed` path through the
// sched API, with nproc attached worker processes and many short fleets.
// Per-node plan, lease, pipe and seal costs set the throughput; no other
// workload runs sched.
//
// Each cycle runs the campaign in memory a few times, compiles the plan
// (make_plan, write_plan, build_campaign_dag, check_budget) into a fresh
// store, drives it with run_coordinator, then aggregates through the local
// --store path and checks every plan node is recorded under its key. A
// warm rerun of the coordinator over the finished store follows. The
// evidence must equal the in-memory run's byte for byte.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>

#include "common.h"
#include "sched/coordinator.h"
#include "sched/dag.h"
#include "sched/plan.h"
#include "stats.h"
#include "store/store.h"
#include "trace.h"

namespace perfbench {

namespace {

constexpr std::size_t kFleets = 256;
constexpr double kHoursPerFleet = 20.0;
constexpr int kMemoryCallsPerCycle = 4;
/// A set-up is about 2 ms, most of it the plan's fsyncs; several per cycle
/// give its median enough samples.
constexpr int kSetupsPerCycle = 4;

struct Compiled {
    qrn::sched::CampaignPlan plan;
    qrn::sched::Dag dag;
};

/// One distributed pass: coordinator, then the aggregate and verify nodes
/// exactly as the CLI runs them.
struct DistributedPass {
    double coordinator_s = 0.0;
    double worker_peak_mb = 0.0;  ///< Largest worker's peak resident set.
    qrn::sched::CoordinatorStats stats;
    StorePass store;
    bool verified = false;
};

DistributedPass distributed_pass(const Compiled& compiled,
                                 const qrn::sched::CoordinatorConfig& coord,
                                 const qrn::sim::CampaignConfig& config,
                                 const qrn::IncidentTypeSet& types,
                                 const std::string& digest) {
    using namespace qrn;
    DistributedPass pass;
    // The kernel keeps at most 15 characters of a program's name.
    ChildPeakSampler workers(
        std::filesystem::path(coord.cli_path).filename().string().substr(0, 15));
    const auto start = Clock::now();
    {
        const Span span("sched.run_coordinator");
        pass.stats = sched::run_coordinator(compiled.plan, compiled.dag, coord);
    }
    pass.coordinator_s = seconds_since(start);
    pass.worker_peak_mb = workers.peak_mb();
    store::Store store(coord.store_dir);
    pass.store = store_pass(config, store, types, digest);
    const store::Store check(coord.store_dir);
    pass.verified = true;
    for (const auto& node : compiled.plan.nodes) {
        const store::ShardEntry* entry = check.find(node.fleet_index);
        if (entry == nullptr || entry->cache_key != node.key) pass.verified = false;
    }
    return pass;
}

}  // namespace

void run_distributed_churn(const Options& options, Result& result) {
    using namespace qrn;
    const Span root("bench.distributed_churn");
    const auto types = IncidentTypeSet::paper_vru_example();
    const std::string digest = sched::campaign_inputs_digest();
    const sim::CampaignConfig config =
        campaign_config(derive_seed(options.seed, 4), kFleets, kHoursPerFleet, options.jobs);
    const double hours = static_cast<double>(kFleets) * kHoursPerFleet;

    // The in-memory campaign of the same config on one thread, as each
    // attached worker runs its fleets one at a time: the correctness
    // reference and this workload's gated production throughput. The
    // aggregate node runs on one thread too. At jobs nproc these 2-4 ms
    // calls ran at one-thread speed in some runs and at full speed in
    // others, depending on how fast the host woke the pool's idle cores.
    sim::CampaignConfig serial = config;
    serial.jobs = 1;
    InMemoryRuns memory;
    memory.run(serial, types, 1, result);
    const std::string& reference = memory.evidence;

    sched::CoordinatorConfig coord;
    coord.workers = options.jobs;
    coord.cli_path = PERFBENCH_QRN_CLI;  // the built `qrn`, not this binary

    std::vector<double> setups, plan_times, write_times, dag_times;
    std::vector<double> cold_times, warm_times, coordinator_times, store_calls, aggregates;
    std::vector<double> aggregate_nodes;  ///< The aggregate node: store pass over sealed shards.
    std::uint64_t dispatched = 0, completed = 0, stolen = 0, cycles = 0;
    double reads_per_shard = 0.0;
    double bytes_read = 0.0;
    double worker_peak_mb = 0.0;
    const std::uint64_t wait_before = obs_timer_ns("sched.worker_wait_ns");
    const std::uint64_t dispatch_before = obs_timer_ns("sched.dispatch_ns");
    run_rounds(0.95 * options.seconds, 3, [&] {
        const Span cycle("bench.cycle");
        memory.run(serial, types, kMemoryCallsPerCycle, result);
        // Several set-ups per cycle, each writing its plan into its own
        // fresh store; the last one's store is the one the passes use.
        std::optional<Compiled> compiled;
        std::vector<std::string> spare_dirs;
        for (int i = 0; i < kSetupsPerCycle; ++i) {
            coord.store_dir = fresh_dir(options, "distributed_churn_" + std::to_string(i));
            if (i + 1 < kSetupsPerCycle) spare_dirs.push_back(coord.store_dir);
            const Span phase("bench.setup");
            const auto setup_start = Clock::now();
            auto step = Clock::now();
            sched::CampaignPlan plan;
            {
                const Span span("sched.make_plan");
                plan = sched::make_plan("nominal", "urban", config, digest);
            }
            plan_times.push_back(seconds_since(step));
            step = Clock::now();
            {
                const Span span("sched.write_plan");
                sched::write_plan(coord.store_dir, plan);
            }
            write_times.push_back(seconds_since(step));
            step = Clock::now();
            std::optional<sched::Dag> dag;
            {
                const Span span("sched.build_campaign_dag");
                dag.emplace(sched::build_campaign_dag(plan));
            }
            dag_times.push_back(seconds_since(step));
            sched::BudgetCheck budget;
            {
                const Span span("sched.check_budget");
                budget = sched::check_budget(sched::compute_metrics(*dag),
                                             sched::DagBudget::campaign_default());
            }
            setups.push_back(seconds_since(setup_start));
            result.check(budget.passed, "campaign DAG within the default budget");
            compiled.emplace(Compiled{std::move(plan), std::move(*dag)});
        }
        for (const auto& dir : spare_dirs) remove_dir(dir);

        const std::uint64_t reads_before = obs_counter("store.shards_read");
        const std::uint64_t read_bytes_before = obs_counter("store.bytes_read");
        {
            const Span phase("bench.cold");
            const auto cold_start = Clock::now();
            const DistributedPass cold =
                distributed_pass(*compiled, coord, serial, types, digest);
            cold_times.push_back(seconds_since(cold_start));
            coordinator_times.push_back(cold.coordinator_s);
            worker_peak_mb = std::max(worker_peak_mb, cold.worker_peak_mb);
            store_calls.push_back(cold.store.campaign_s);
            aggregates.push_back(cold.store.aggregate_s);
            aggregate_nodes.push_back(cold.store.campaign_s + cold.store.aggregate_s);
            dispatched += cold.stats.nodes_dispatched;
            completed += cold.stats.nodes_completed;
            stolen += cold.stats.leases_stolen;
            result.check(cold.stats.nodes_completed == kFleets,
                         "workers completed every fleet node");
            result.check(cold.store.stats.fleets_reused == kFleets,
                         "aggregate node reused every worker shard");
            result.check(cold.verified, "every plan node recorded under its key");
            result.check(cold.store.evidence == reference,
                         "distributed evidence identical to the in-memory run");
        }
        reads_per_shard = static_cast<double>(obs_counter("store.shards_read") - reads_before) /
                          static_cast<double>(kFleets);
        bytes_read = static_cast<double>(obs_counter("store.bytes_read") - read_bytes_before);
        {
            const Span phase("bench.warm");
            const auto warm_start = Clock::now();
            const DistributedPass warm =
                distributed_pass(*compiled, coord, serial, types, digest);
            warm_times.push_back(seconds_since(warm_start));
            aggregate_nodes.push_back(warm.store.campaign_s + warm.store.aggregate_s);
            worker_peak_mb = std::max(worker_peak_mb, warm.worker_peak_mb);
            result.check(warm.stats.nodes_reused == kFleets,
                         "warm coordinator reused every fleet node");
            result.check(warm.verified, "every plan node recorded under its key");
            result.check(warm.store.evidence == reference,
                         "warm distributed evidence identical to the in-memory run");
        }
        ++cycles;
        remove_dir(coord.store_dir);
    });

    // The coordinator passes are fsync-bound (lease, seal and manifest
    // writes per node): their run-to-run spread on a shared disk is wider
    // than any bound the benchmark may set, so they are per-layer numbers.
    // The gated production throughput is the serial in-memory campaign,
    // and the gated rerun is the serial aggregate node re-pooling the
    // sealed shards.
    const double memory_s = median(memory.sim_times);
    const CampaignCounts counts = campaign_counts(memory.last);
    result.end_to_end["setup_s"] = median(setups);
    result.end_to_end["fleet_hours_per_s"] = hours / median(memory.times);
    result.end_to_end["rerun_fleet_hours_per_s"] = hours / median(aggregate_nodes);
    result.check(worker_peak_mb > 0.0, "a worker's peak resident set was sampled");
    result.end_to_end["peak_rss_mb"] = peak_rss_mb() + worker_peak_mb;

    const double n = static_cast<double>(cycles);
    auto& layer = result.per_layer;
    layer["sim.run_campaign_s"] = memory_s;
    layer["sim.encounters_per_s"] = static_cast<double>(counts.encounters) / memory_s;
    layer["sim.incidents"] = static_cast<double>(counts.incidents);
    layer["sched.cold_fleet_hours_per_s"] = hours / median(cold_times);
    layer["sched.rerun_fleet_hours_per_s"] = hours / median(warm_times);
    layer["store.campaign_warm_s"] = median(store_calls);
    layer["store.aggregate_evidence_s"] = median(aggregates);
    layer["store.reads_per_shard"] = reads_per_shard;
    layer["store.bytes_read"] = bytes_read;
    layer["sched.make_plan_s"] = median(plan_times);
    layer["sched.build_dag_s"] = median(dag_times);
    layer["sched.write_plan_s"] = median(write_times);
    layer["sched.run_coordinator_s"] = median(coordinator_times);
    layer["sched.coordinator_ms_per_node"] =
        median(coordinator_times) * 1e3 / static_cast<double>(kFleets);
    layer["sched.worker_wait_s"] =
        static_cast<double>(obs_timer_ns("sched.worker_wait_ns") - wait_before) / 1e9 / n;
    layer["sched.dispatch_s"] =
        static_cast<double>(obs_timer_ns("sched.dispatch_ns") - dispatch_before) / 1e9 / n;
    layer["sched.useful_dispatch_share"] =
        dispatched == 0 ? 0.0 : static_cast<double>(completed) / static_cast<double>(dispatched);
    layer["sched.leases_stolen"] = static_cast<double>(stolen);

    char line[256];
    std::snprintf(line, sizeof line,
                  "%zu fleets x %.0f h on %u workers, %zu cycles: cold median %.4f s, "
                  "warm median %.4f s, in-memory %.4f s; largest worker peak %.1f MB",
                  kFleets, kHoursPerFleet, coord.workers, cold_times.size(),
                  median(cold_times), median(warm_times), memory_s, worker_peak_mb);
    result.note(line);
}

}  // namespace perfbench
