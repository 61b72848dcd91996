// The distributed-campaign coordinator: the supervisor of a campaign's
// worker processes and the single writer of its store manifest.
//
// The coordinator is deliberately stateless across restarts: everything it
// needs to resume lives in the store (the plan, the lease files, and the
// sealed shards themselves - a node is "done" iff the shard its key names
// verifies clean, store::find_sealed_shard). Killing the coordinator at
// any point and rerunning the same command heals to byte-identical output,
// because the only authoritative state transition is the atomic shard
// seal. The manifest is written at most twice per run: once after the
// resume sweep and once after the final sweep.
//
// Worker management: N child processes of this binary run the same
// lease-claiming loop as any externally launched worker (`qrn sched worker
// --store DIR`), with stdin and stdout on /dev/null. A child that exits
// 0 has seen every shard verify; a child that dies has its leases released
// at once (it is reaped, so certainly dead) and is respawned a bounded
// number of times. Leases held by anyone else are left alone until they
// expire, then stolen.
#pragma once

#include <cstdint>
#include <string>

#include "sched/dag.h"
#include "sched/plan.h"

namespace qrn::sched {

struct CoordinatorConfig {
    std::string store_dir;
    unsigned workers = 2;                ///< Worker processes to spawn.
    std::uint64_t lease_ttl_ms = 10000;  ///< Lease TTL the workers claim with.
    std::string cli_path = "/proc/self/exe";  ///< Binary to exec workers from.
    unsigned max_respawns_per_worker = 3;
};

/// What one coordinator run did (also mirrored into sched.* obs counters).
struct CoordinatorStats {
    std::uint64_t nodes_total = 0;
    std::uint64_t nodes_dispatched = 0;  ///< Left for workers after the
                                         ///< resume sweep.
    std::uint64_t nodes_completed = 0;   ///< Sealed by workers this run.
    std::uint64_t nodes_reused = 0;      ///< Shard already sealed (resume).
    std::uint64_t leases_stolen = 0;     ///< Expired leases released before
                                         ///< the workers start.
    std::uint64_t workers_spawned = 0;
    std::uint64_t worker_respawns = 0;
    std::uint64_t worker_failures = 0;   ///< Children that exited non-zero
                                         ///< or were killed.
};

/// Drives every fleet node of the plan to "done" (sealed shard verifies
/// clean) and records the done nodes into the store manifest after each
/// sweep, making this process the manifest's single writer. Returns when
/// all fleet nodes are done.
/// Throws SchedError when the campaign cannot finish (every worker died
/// past its respawn budget) and StoreError(Io) on store failures.
[[nodiscard]] CoordinatorStats run_coordinator(const CampaignPlan& plan,
                                               const Dag& dag,
                                               const CoordinatorConfig& config);

}  // namespace qrn::sched
