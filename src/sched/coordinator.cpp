#include "sched/coordinator.h"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <numeric>
#include <optional>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "store/lease.h"
#include "store/store.h"

extern char** environ;

namespace qrn::sched {

namespace {

void declare_sched_metrics() {
    if (!obs::enabled()) return;
    obs::add_counter("sched.nodes_total", 0);
    obs::add_counter("sched.nodes_dispatched", 0);
    obs::add_counter("sched.nodes_completed", 0);
    obs::add_counter("sched.nodes_reused", 0);
    obs::add_counter("sched.leases_stolen", 0);
    obs::add_counter("sched.workers_spawned", 0);
    obs::add_counter("sched.worker_respawns", 0);
    obs::add_counter("sched.worker_failures", 0);
    obs::declare_timer("sched.node_exec_ns");
}

/// Adds `by` to a stats field and to its sched.* obs counter.
void bump(std::uint64_t& stat, const char* metric, std::uint64_t by = 1) {
    stat += by;
    if (obs::enabled()) obs::add_counter(metric, by);
}

/// Releases the lease of every fleet in `fleets` that `stale` accepts;
/// returns how many it released.
template <typename Stale>
std::uint64_t release_leases(const std::string& dir,
                             const std::vector<std::uint64_t>& fleets,
                             const Stale& stale) {
    std::uint64_t released = 0;
    for (const std::uint64_t i : fleets) {
        const std::string id = plan_node_id(i);
        const std::optional<store::Lease> lease = store::read_lease(dir, id);
        if (lease && stale(*lease)) {
            store::release_lease(dir, id);
            ++released;
        }
    }
    return released;
}

/// One worker slot: the running child and the lease owner it claims as.
struct Child {
    pid_t pid = -1;  ///< -1 once reaped and not respawned.
    std::string owner;
    unsigned respawns = 0;
};

/// The `qrn sched worker` children. Whatever still runs when the group is
/// destroyed (the coordinator is unwinding an error) is killed and reaped.
class WorkerGroup {
public:
    explicit WorkerGroup(const CoordinatorConfig& config)
        : children(config.workers),
          config_(config),
          owner_prefix_("coord:" + std::to_string(::getpid()) + ":w") {
        // The children's stdout must never reach the evidence document.
        if (::posix_spawn_file_actions_init(&actions_) != 0 ||
            ::posix_spawn_file_actions_addopen(&actions_, 0, "/dev/null",
                                               O_RDONLY, 0) != 0 ||
            ::posix_spawn_file_actions_addopen(&actions_, 1, "/dev/null",
                                               O_WRONLY, 0) != 0) {
            throw SchedError("run_coordinator: cannot set up worker spawn");
        }
    }

    ~WorkerGroup() {
        for (const Child& child : children) {
            if (child.pid < 0) continue;
            ::kill(child.pid, SIGKILL);
            ::waitpid(child.pid, nullptr, 0);
        }
        ::posix_spawn_file_actions_destroy(&actions_);
    }

    WorkerGroup(const WorkerGroup&) = delete;
    WorkerGroup& operator=(const WorkerGroup&) = delete;

    /// Starts a worker in `child` under a lease owner unique to this spawn.
    /// Returns false (leaving the slot dead) when the spawn fails.
    bool spawn(Child& child) {
        child.owner = owner_prefix_ + std::to_string(spawned_++);
        std::vector<std::string> args = {"qrn", "sched", "worker", "--store",
                                         config_.store_dir, "--ttl-ms",
                                         std::to_string(config_.lease_ttl_ms),
                                         "--owner", child.owner};
        std::vector<char*> argv;
        for (std::string& arg : args) argv.push_back(arg.data());
        argv.push_back(nullptr);
        pid_t pid = -1;
        const int rc = ::posix_spawn(&pid, config_.cli_path.c_str(), &actions_,
                                     nullptr, argv.data(), environ);
        child.pid = rc == 0 ? pid : -1;
        return rc == 0;
    }

    std::vector<Child> children;

private:
    const CoordinatorConfig& config_;
    const std::string owner_prefix_;
    std::uint64_t spawned_ = 0;
    posix_spawn_file_actions_t actions_{};
};

}  // namespace

// The DAG is unused: every fleet node sits on the same level, so workers
// claim in fleet order and no dispatch priority is needed.
CoordinatorStats run_coordinator(const CampaignPlan& plan, const Dag& /*dag*/,
                                 const CoordinatorConfig& config) {
    if (config.workers == 0) {
        throw SchedError("run_coordinator: need at least one worker");
    }
    declare_sched_metrics();

    store::Store db(config.store_dir);
    const std::string leases = lease_dir(config.store_dir);

    CoordinatorStats stats;
    bump(stats.nodes_total, "sched.nodes_total", plan.fleets);

    // A sweep moves every fleet whose shard, found by name, verifies under
    // the plan key into `done`, records `done` in one manifest write (this
    // process is the manifest's single writer) and returns the rest.
    std::vector<store::ShardEntry> done;
    const auto sweep = [&](const std::vector<std::uint64_t>& fleets) {
        std::vector<std::uint64_t> left;
        for (const std::uint64_t i : fleets) {
            if (auto sealed = store::find_sealed_shard(config.store_dir, i,
                                                       plan.nodes[i].key);
                sealed.entry) {
                done.push_back(std::move(*sealed.entry));
            } else {
                left.push_back(i);
            }
        }
        db.record(done);
        return left;
    };
    // Resume sweep: anything already sealed (a previous run, or standalone
    // workers that got here first) is done before we spawn anything. Its
    // record also gives a fresh store its manifest, so --resume works
    // after this run is killed.
    std::vector<std::uint64_t> pending(plan.fleets);
    std::iota(pending.begin(), pending.end(), std::uint64_t{0});
    pending = sweep(pending);
    bump(stats.nodes_reused, "sched.nodes_reused", done.size());
    if (pending.empty()) return stats;
    bump(stats.nodes_dispatched, "sched.nodes_dispatched", pending.size());

    // A lease left by a holder that died before this run would otherwise
    // hold its node back until a worker noticed the expiry.
    const std::uint64_t now_ms = store::lease_now_ms();
    bump(stats.leases_stolen, "sched.leases_stolen",
         release_leases(leases, pending, [&](const store::Lease& lease) {
             return store::lease_expired(lease, now_ms);
         }));

    WorkerGroup group(config);
    for (Child& child : group.children) {
        if (group.spawn(child)) {
            bump(stats.workers_spawned, "sched.workers_spawned");
        }
    }

    // Supervise: a child exits 0 only once every shard verifies. A child
    // that died is certainly not working on its lease any more, so the
    // lease is released now instead of waiting out its TTL.
    for (bool running = true; running;) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        running = false;
        for (Child& child : group.children) {
            if (child.pid < 0) continue;
            int status = 0;
            const pid_t reaped = ::waitpid(child.pid, &status, WNOHANG);
            if (reaped == 0 || (reaped < 0 && errno == EINTR)) {
                running = true;
                continue;
            }
            child.pid = -1;
            if (reaped > 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0) {
                continue;
            }
            bump(stats.worker_failures, "sched.worker_failures");
            release_leases(leases, pending, [&](const store::Lease& lease) {
                return lease.owner == child.owner;
            });
            if (child.respawns < config.max_respawns_per_worker) {
                ++child.respawns;
                if (group.spawn(child)) {
                    bump(stats.worker_respawns, "sched.worker_respawns");
                    bump(stats.workers_spawned, "sched.workers_spawned");
                    running = true;
                }
            }
        }
    }

    // Final sweep: everything the workers sealed, recorded in one write.
    const std::vector<std::uint64_t> left = sweep(pending);
    bump(stats.nodes_completed, "sched.nodes_completed",
         pending.size() - left.size());
    if (!left.empty()) {
        throw SchedError(
            "run_coordinator: every worker died (respawn budget exhausted) "
            "with " +
            std::to_string(left.size()) + " node(s) unfinished");
    }
    return stats;
}

}  // namespace qrn::sched
