#include "sched/worker.h"

#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "sched/plan.h"
#include "store/campaign_store.h"
#include "store/format.h"
#include "store/lease.h"
#include "store/store.h"

namespace qrn::sched {

namespace {

/// One-shot crash injection for the crash/steal test matrix. The env
/// value is "<fleet_index>:<marker_path>"; the fault fires only while the
/// marker file does not exist, and creates it when it fires, so the
/// resumed process runs through cleanly.
struct Fault {
    std::uint64_t fleet_index = 0;
    std::string marker;
};

std::optional<Fault> fault_from_env(const char* name) {
    const char* raw = std::getenv(name);
    if (raw == nullptr) return std::nullopt;
    const std::string_view text(raw);
    const std::size_t colon = text.find(':');
    if (colon == 0 || colon == std::string_view::npos ||
        colon + 1 == text.size()) {
        return std::nullopt;
    }
    Fault fault;
    for (const char ch : text.substr(0, colon)) {
        if (ch < '0' || ch > '9') return std::nullopt;
        fault.fleet_index = fault.fleet_index * 10 +
                            static_cast<std::uint64_t>(ch - '0');
    }
    fault.marker = std::string(text.substr(colon + 1));
    return fault;
}

/// True (and burns the one shot) when `fault` targets this fleet and has
/// not fired yet.
bool fault_fires(const std::optional<Fault>& fault, std::uint64_t fleet_index) {
    if (!fault || fault->fleet_index != fleet_index) return false;
    std::error_code ec;
    if (std::filesystem::exists(fault->marker, ec)) return false;
    std::ofstream marker(fault->marker, std::ios::trunc);
    marker << "fired\n";
    return true;
}

}  // namespace

int run_standalone_worker(const WorkerOptions& options) {
    const std::string& dir = options.store_dir;
    std::optional<CampaignPlan> stored = read_plan(dir);
    if (!stored) {
        throw store::StoreError(
            store::StoreErrorKind::Io,
            "no campaign plan in '" + dir +
                "' (run the coordinator first: qrn campaign --distributed "
                "--store " +
                dir + ")");
    }
    const CampaignPlan plan = std::move(*stored);
    const std::string inputs_digest = campaign_inputs_digest();
    verify_plan_keys(plan, inputs_digest);
    // Fleets run one at a time; the parallelism is the worker count.
    const sim::CampaignConfig config = config_from_plan(plan, 1);
    const std::string owner = options.owner.empty()
                                  ? "worker-" + std::to_string(::getpid())
                                  : options.owner;
    const std::string leases = lease_dir(dir);
    const std::optional<Fault> fault_mid_shard =
        fault_from_env("QRN_SCHED_FAULT_MID_SHARD");
    const std::optional<Fault> fault_mid_lease =
        fault_from_env("QRN_SCHED_FAULT_MID_LEASE");

    // A node is done, no matter who sealed it, when its shard verifies
    // clean under the plan's key. A sealed shard is never rewritten, so the
    // rescans below do not verify a node found done again.
    std::vector<bool> done(plan.fleets, false);
    const auto shard_done = [&](std::uint64_t i) -> bool {
        if (!done[i]) {
            done[i] = store::find_sealed_shard(dir, i, plan.nodes[i].key)
                          .entry.has_value();
        }
        return done[i];
    };

    // Simulates and seals the fleet's shard unless a peer sealed it
    // between the check in the claim loop and the claim.
    const auto execute = [&](std::uint64_t i) {
        if (shard_done(i)) return;
        if (fault_fires(fault_mid_shard, i)) {
            // A crash mid-seal leaves a garbage temp file behind; the
            // sealed name never appears (write_shard renames last).
            std::ofstream garbage(
                dir + "/" + store::Store::shard_filename(i, plan.nodes[i].key) +
                    std::string(store::kTempSuffix),
                std::ios::trunc);
            garbage << "partial write cut short by crash\n";
            garbage.flush();
            std::_Exit(137);
        }
        obs::ScopedTimer timer("sched.node_exec_ns");
        const store::ShardEntry entry =
            store::simulate_fleet_shard(config, dir, i, inputs_digest);
        if (obs::enabled()) {
            obs::add_counter("sched.nodes_completed", 1);
            obs::add_counter("store.records_written_by_worker", entry.records);
        }
    };

    for (;;) {
        bool all_done = true;
        bool progressed = false;
        for (std::uint64_t i = 0; i < plan.fleets; ++i) {
            if (shard_done(i)) continue;
            all_done = false;

            const std::string id = plan_node_id(i);
            bool held = false;
            const std::optional<store::Lease> current =
                store::read_lease(leases, id);
            if (!current) {
                held = store::try_acquire_lease(
                    leases, store::Lease{id, owner, store::lease_now_ms(),
                                         options.lease_ttl_ms, 1});
            } else if (store::lease_expired(*current, store::lease_now_ms())) {
                // Steal: the holder died or stalled past its TTL. Two
                // stealers racing here both run the node; duplicate
                // execution is benign (deterministic bytes, atomic seal).
                store::overwrite_lease(
                    leases, store::Lease{id, owner, store::lease_now_ms(),
                                         options.lease_ttl_ms,
                                         current->generation + 1});
                if (obs::enabled()) obs::add_counter("sched.leases_stolen", 1);
                held = true;
            }
            if (!held) continue;

            if (fault_fires(fault_mid_lease, i)) {
                // Crash while holding the lease: the file stays behind and
                // must be stolen after the TTL for the campaign to finish.
                std::_Exit(137);
            }
            execute(i);
            store::release_lease(leases, id);
            progressed = true;
        }
        if (all_done) return 0;
        if (!progressed) {
            // Every remaining node is leased by a live peer; back off
            // until something finishes or a lease expires. A rescan reads
            // only the unfinished nodes, so a short pause is cheap and
            // keeps the campaign's tail short.
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
    }
}

}  // namespace qrn::sched
