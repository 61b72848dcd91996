#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "obs/metrics.h"
#include "qrn/serialize.h"
#include "stats/rng.h"
#include "store/aggregate.h"
#include "trace.h"

namespace perfbench {

void Result::check(bool ok, std::string_view what) {
    ++attempted;
    if (!ok) fail(what);
}

void Result::fail(std::string_view what) {
    ++failed;
    if (failures.size() < 8) failures.emplace_back(what);
}

const std::vector<MetricSpec>& end_to_end_metrics() {
    static const std::vector<MetricSpec> specs = {
        {"setup_s", "s"},
        {"fleet_hours_per_s", "h/s"},
        {"rerun_fleet_hours_per_s", "h/s"},
        {"peak_rss_mb", "MB"},
    };
    return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
    static const std::vector<MetricSpec> specs = {
        {"sim.run_campaign_s", "s"},
        {"sim.encounters_per_s", "1/s"},
        {"sim.incidents", "count"},
        {"sim.run_splitting_s", "s"},
        {"sim.replayed_episode_share", "share"},
        {"sim.splitting_trials_per_s", "1/s"},
        {"sim.span_self_s", "s"},
        {"exec.busy_share", "share"},
        {"exec.task_wait_s", "s"},
        {"exec.chunks_executed", "count"},
        {"exec.speedup_vs_jobs1", "x"},
        {"qrn.pooled_evidence_s", "s"},
        {"qrn.span_self_s", "s"},
        {"store.cold_fleet_hours_per_s", "h/s"},
        {"store.campaign_cold_s", "s"},
        {"store.cost_over_mem_s", "s"},
        {"store.seal_ms_mean", "ms"},
        {"store.campaign_warm_s", "s"},
        {"store.aggregate_evidence_s", "s"},
        {"store.reads_per_shard", "count"},
        {"store.bytes_written", "B"},
        {"store.bytes_read", "B"},
        {"store.span_self_s", "s"},
        {"sched.make_plan_s", "s"},
        {"sched.build_dag_s", "s"},
        {"sched.write_plan_s", "s"},
        {"sched.cold_fleet_hours_per_s", "h/s"},
        {"sched.rerun_fleet_hours_per_s", "h/s"},
        {"sched.run_coordinator_s", "s"},
        {"sched.coordinator_ms_per_node", "ms"},
        {"sched.worker_wait_s", "s"},
        {"sched.dispatch_s", "s"},
        {"sched.useful_dispatch_share", "share"},
        {"sched.leases_stolen", "count"},
        {"sched.span_self_s", "s"},
        {"serve.service_start_s", "s"},
        {"serve.restart_rescan_s", "s"},
        {"serve.batch_s", "s"},
        {"serve.dispatcher_busy_share", "share"},
        {"serve.busy_share", "share"},
        {"serve.seal_ms_mean", "ms"},
        {"serve.generator_lag_p99_ms", "ms"},
        {"serve.records_per_s", "1/s"},
        {"serve.classify_p50_ms", "ms"},
        {"serve.classify_tail_ms", "ms"},
        {"serve.verify_p50_ms", "ms"},
        {"serve.span_self_s", "s"},
    };
    return specs;
}

double peak_rss_mb() {
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

ChildPeakSampler::ChildPeakSampler(std::string child_name)
    : child_name_(std::move(child_name)) {
    thread_ = std::thread([this] {
        while (!stop_.load()) {
            sample();
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
    });
}

ChildPeakSampler::~ChildPeakSampler() {
    stop_ = true;
    thread_.join();
}

void ChildPeakSampler::sample() {
    const std::string self = std::to_string(::getpid());
    std::error_code error;
    std::filesystem::directory_iterator it("/proc", error);
    // Processes come and go during the scan; skip what cannot be read.
    for (; !error && it != std::filesystem::directory_iterator(); it.increment(error)) {
        const auto& entry = *it;
        const std::string pid = entry.path().filename().string();
        if (pid.empty() || pid.find_first_not_of("0123456789") != std::string::npos) continue;
        // /proc/<pid>/stat: "pid (comm) state ppid ...". comm changes to
        // the new program's name only after exec has replaced the memory.
        std::ifstream stat_file(entry.path() / "stat");
        std::string stat;
        std::getline(stat_file, stat);
        const auto open = stat.find('(');
        const auto close = stat.rfind(')');
        if (open == std::string::npos || close == std::string::npos || close < open) continue;
        if (stat.compare(open + 1, close - open - 1, child_name_) != 0) continue;
        std::istringstream rest(stat.substr(close + 1));
        std::string state, ppid;
        rest >> state >> ppid;
        if (ppid != self) continue;
        std::ifstream status_file(entry.path() / "status");
        for (std::string line; std::getline(status_file, line);) {
            if (line.rfind("VmHWM:", 0) != 0) continue;
            // Only this thread writes peak_kb_.
            const std::uint64_t kb = std::strtoull(line.c_str() + 6, nullptr, 10);
            if (kb > peak_kb_.load()) peak_kb_ = kb;
            break;
        }
    }
}

std::string fresh_dir(const Options& options, const std::string& name) {
    const std::string dir = options.work_dir + "/" + name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

void remove_dir(const std::string& dir) {
    std::error_code ignored;
    std::filesystem::remove_all(dir, ignored);
    // Flush what the removal and earlier writes left for writeback, so the
    // next timed step starts from the same quiet disk every time.
    ::sync();
}

std::string evidence_json(const std::vector<qrn::TypeEvidence>& evidence) {
    return qrn::evidence_to_json(evidence).dump(2);
}

std::uint64_t obs_counter(std::string_view name) {
    for (const auto& counter : qrn::obs::counters_snapshot()) {
        if (counter.name == name) return counter.value;
    }
    return 0;
}

std::uint64_t obs_timer_ns(std::string_view name) {
    for (const auto& timer : qrn::obs::timers_snapshot()) {
        if (timer.name == name) return timer.total_ns;
    }
    return 0;
}

std::uint64_t obs_timer_count(std::string_view name) {
    for (const auto& timer : qrn::obs::timers_snapshot()) {
        if (timer.name == name) return timer.count;
    }
    return 0;
}

double obs_timer_mean_ms(std::string_view name) {
    const std::uint64_t count = obs_timer_count(name);
    return count == 0 ? 0.0
                      : static_cast<double>(obs_timer_ns(name)) / 1e6 /
                            static_cast<double>(count);
}

qrn::sim::CampaignConfig campaign_config(std::uint64_t seed, std::size_t fleets,
                                         double hours, unsigned jobs) {
    qrn::sim::CampaignConfig config;
    config.base.seed = seed;
    config.fleets = fleets;
    config.hours_per_fleet = hours;
    config.jobs = jobs;
    return config;
}

void InMemoryRuns::run(const qrn::sim::CampaignConfig& config,
                       const qrn::IncidentTypeSet& types, int calls, Result& result) {
    for (int i = 0; i < calls; ++i) {
        const auto start = Clock::now();
        qrn::sim::CampaignResult run;
        std::vector<qrn::TypeEvidence> pooled;
        {
            const Span span("sim.run_campaign");
            run = qrn::sim::run_campaign(config);
        }
        sim_times.push_back(seconds_since(start));
        {
            const Span span("qrn.pooled_evidence");
            pooled = run.pooled_evidence(types);
        }
        times.push_back(seconds_since(start));
        const std::string json = evidence_json(pooled);
        if (evidence.empty()) evidence = json;
        result.check(json == evidence, "in-memory evidence identical on every call");
        last = std::move(run);
    }
}

CampaignCounts campaign_counts(const qrn::sim::CampaignResult& run) {
    CampaignCounts counts;
    for (const auto& log : run.logs) {
        counts.encounters += log.encounters;
        counts.incidents += log.incidents.size();
    }
    return counts;
}

StorePass store_pass(const qrn::sim::CampaignConfig& config, qrn::store::Store& store,
                     const qrn::IncidentTypeSet& types, const std::string& digest) {
    using namespace qrn;
    StorePass pass;
    auto start = Clock::now();
    {
        const Span span("store.run_campaign_with_store");
        pass.stats = store::run_campaign_with_store(config, store, digest);
    }
    pass.campaign_s = seconds_since(start);
    std::vector<store::ShardRef> refs;
    refs.reserve(pass.stats.entries.size());
    for (const auto& entry : pass.stats.entries) {
        refs.push_back({entry.fleet_index, store.shard_path(entry)});
    }
    start = Clock::now();
    store::StoreAggregate agg;
    {
        const Span span("store.aggregate_evidence");
        agg = store::aggregate_evidence(refs, types, config.jobs);
    }
    pass.aggregate_s = seconds_since(start);
    pass.evidence = evidence_json(agg.evidence);
    return pass;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
    // Keep derived seeds small and readable in reports; stream_seed mixes.
    return qrn::stats::Rng::stream_seed(seed, salt) % 1'000'000'007ULL;
}

}  // namespace perfbench
