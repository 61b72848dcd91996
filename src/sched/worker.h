// Scheduler workers: the processes that execute fleet nodes of a
// distributed campaign.
//
// A worker (`qrn sched worker --store DIR`) runs against a store whose
// plan the coordinator already wrote. It claims fleet nodes itself via
// lease files under DIR/sched/leases (acquire free nodes, steal expired
// leases), executes them through store::simulate_fleet_shard (the same
// function behind the local cache-miss branch, so shard bytes never depend
// on which process sealed them), and exits 0 once every fleet shard in the
// plan verifies clean. The coordinator spawns its workers with exactly this
// loop, and any number of externally launched ones may join, with or
// without a coordinator: a node is "done" iff the shard its key names
// verifies (store::find_sealed_shard), so duplicate execution only wastes
// cycles. Workers never write the manifest; the coordinator records.
//
// A worker never renews its lease, so a fleet that runs longer than the
// TTL may be stolen and run twice: wasted cycles, never different bytes.
//
// A worker refuses to participate when its build would not reproduce the
// plan's cache keys (verify_plan_keys): divergent shards must never enter
// a shared store.
#pragma once

#include <cstdint>
#include <string>

namespace qrn::sched {

struct WorkerOptions {
    std::string store_dir;
    std::uint64_t lease_ttl_ms = 10000;  ///< TTL of the leases it claims.
    std::string owner;                   ///< Lease owner id; "" = "worker-<pid>".
};

/// The claim-and-execute loop over the store's plan. Returns 0 when every
/// fleet node's shard verifies clean. Throws StoreError(Io) when the store
/// has no plan yet.
int run_standalone_worker(const WorkerOptions& options);

}  // namespace qrn::sched
