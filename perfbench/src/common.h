// Shared plumbing of the benchmark workloads: options, result collection,
// timing and the metric tables.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "qrn/incident_type.h"
#include "sim/campaign.h"
#include "store/campaign_store.h"

namespace perfbench {

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string work_dir;   ///< Working root for stores; emptied per run.
    std::string trace_out;  ///< Chrome trace path of a traced run.
    unsigned jobs = 1;      ///< nproc.
};

/// What one workload run measured and checked.
struct Result {
    std::map<std::string, double> end_to_end;
    std::map<std::string, double> per_layer;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;  ///< First few failure messages.
    std::vector<std::string> notes;     ///< Human-readable report lines.

    /// Counts one attempted operation or check; a false `ok` is a failure.
    void check(bool ok, std::string_view what);
    /// Counts a failure of an operation already counted as attempted.
    void fail(std::string_view what);
    void note(std::string line) { notes.push_back(std::move(line)); }
};

/// One metric a workload reports, as BENCHMARK.json names it.
struct MetricSpec {
    const char* name;
    const char* unit;
};

/// End-to-end metrics: every workload reports every one, from untraced runs.
[[nodiscard]] const std::vector<MetricSpec>& end_to_end_metrics();
/// Per-layer metrics: every workload reports every one in traced runs; a
/// layer the workload bypasses reports 0.
[[nodiscard]] const std::vector<MetricSpec>& per_layer_metrics();

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point from, Clock::time_point to) {
    return std::chrono::duration<double>(to - from).count();
}
[[nodiscard]] inline double seconds_since(Clock::time_point from) {
    return seconds_between(from, Clock::now());
}

/// Runs `round` until `budget_s` has passed and at least `min_rounds`
/// rounds ran. Workloads interleave their phases inside one round, so a
/// burst of host noise lands on every metric's samples alike instead of
/// on one phase's block of the run.
template <typename Round>
void run_rounds(double budget_s, std::size_t min_rounds, Round&& round) {
    const auto start = Clock::now();
    for (std::size_t done = 0; done < min_rounds || seconds_since(start) < budget_s; ++done) {
        round();
    }
}

/// Peak resident set of this process in MB.
[[nodiscard]] double peak_rss_mb();

/// While alive, samples the peak resident set (VmHWM) of this process's
/// child processes named `child_name` every few milliseconds. VmHWM starts
/// afresh at exec, so unlike RUSAGE_CHILDREN it does not count the pages a
/// forked child copied from this process; a child is only sampled once its
/// name shows it has exec'd. Growth in a child's last few milliseconds
/// before exit can be missed.
class ChildPeakSampler {
public:
    explicit ChildPeakSampler(std::string child_name);
    ~ChildPeakSampler();
    ChildPeakSampler(const ChildPeakSampler&) = delete;
    ChildPeakSampler& operator=(const ChildPeakSampler&) = delete;

    /// The largest child peak seen so far, in MB (0 when none was seen).
    [[nodiscard]] double peak_mb() const { return static_cast<double>(peak_kb_.load()) / 1024.0; }

private:
    void sample();

    std::string child_name_;
    std::atomic<bool> stop_{false};
    std::atomic<std::uint64_t> peak_kb_{0};
    std::thread thread_;
};

/// A fresh, empty directory `name` under the options' work dir.
[[nodiscard]] std::string fresh_dir(const Options& options, const std::string& name);
/// Removes a directory tree and syncs the filesystem.
void remove_dir(const std::string& dir);

/// The campaign evidence exactly as `qrn campaign` prints it.
[[nodiscard]] std::string evidence_json(const std::vector<qrn::TypeEvidence>& evidence);

/// Current value of a qrn_obs counter, timer total or timer count (0 when
/// absent).
[[nodiscard]] std::uint64_t obs_counter(std::string_view name);
[[nodiscard]] std::uint64_t obs_timer_ns(std::string_view name);
[[nodiscard]] std::uint64_t obs_timer_count(std::string_view name);

/// Mean milliseconds per recording of a qrn_obs timer (0 when unused).
[[nodiscard]] double obs_timer_mean_ms(std::string_view name);

/// The shared campaign base: nominal policy, urban ODD, the given seed.
[[nodiscard]] qrn::sim::CampaignConfig campaign_config(std::uint64_t seed,
                                                       std::size_t fleets,
                                                       double hours, unsigned jobs);

/// A per-run seed derived from the workload seed and a salt, so each
/// workload's inputs are a pure function of --seed.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt);

/// In-memory runs of one campaign config, each timed up to its pooled
/// evidence in hand. Every call's evidence must equal the first call's.
struct InMemoryRuns {
    std::vector<double> times;      ///< run_campaign + pooled_evidence.
    std::vector<double> sim_times;  ///< run_campaign alone.
    std::string evidence;           ///< evidence_json of the first call.
    qrn::sim::CampaignResult last;  ///< The last call's result.

    /// Runs the campaign `calls` more times.
    void run(const qrn::sim::CampaignConfig& config, const qrn::IncidentTypeSet& types,
             int calls, Result& result);
};

/// Encounters and incidents of a campaign result, summed over its fleets.
struct CampaignCounts {
    std::uint64_t encounters = 0;
    std::uint64_t incidents = 0;
};
[[nodiscard]] CampaignCounts campaign_counts(const qrn::sim::CampaignResult& run);

/// One `qrn campaign --store` pass over an open store: the campaign call
/// (simulate-and-seal or verify-and-reuse per fleet), then aggregation.
struct StorePass {
    double campaign_s = 0.0;   ///< run_campaign_with_store alone.
    double aggregate_s = 0.0;  ///< aggregate_evidence alone.
    qrn::store::StoreCampaignStats stats;
    std::string evidence;      ///< evidence_json of the aggregate.
};
[[nodiscard]] StorePass store_pass(const qrn::sim::CampaignConfig& config,
                                   qrn::store::Store& store,
                                   const qrn::IncidentTypeSet& types,
                                   const std::string& digest);

void run_evidence_compute(const Options& options, Result& result);
void run_store_churn(const Options& options, Result& result);
void run_distributed_churn(const Options& options, Result& result);
void run_serve_ingest(const Options& options, Result& result);

}  // namespace perfbench
